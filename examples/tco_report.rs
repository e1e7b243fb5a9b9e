//! Generate the full TCO / ToPPeR report for the five Table 5 clusters,
//! with optional what-if overrides:
//!
//! `cargo run --release --example tco_report [utility_rate $/kWh] [space_rate $/ft2/yr]`

use metablade::metrics::report::render_table5;
use metablade::metrics::tco::CostConstants;
use metablade::metrics::topper::topper;

fn main() {
    let rate = |i: usize, name: &str, default: f64| match std::env::args().nth(i) {
        None => default,
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("tco_report: {name} must be a number, got {a:?}");
            std::process::exit(2)
        }),
    };
    let mut constants = CostConstants::default();
    constants.utility_rate_per_kwh = rate(1, "utility_rate", constants.utility_rate_per_kwh);
    constants.space_rate_per_ft2_year = rate(2, "space_rate", constants.space_rate_per_ft2_year);
    println!(
        "assumptions: ${}/kWh, ${}/ft^2/yr, {}-year lifetime, ${}/CPU-hr downtime\n",
        constants.utility_rate_per_kwh,
        constants.space_rate_per_ft2_year,
        constants.lifetime_years,
        constants.downtime_rate_per_cpu_hour
    );
    print!("{}", render_table5(&constants));
    println!("\nToPPeR ($ per Mflops over the machine's life; lower is better):");
    let perf = [2.8, 2.9, 2.8, 3.1, 2.1]; // sustained Gflops per column
    for (profile, &gflops) in metablade::metrics::costs::cluster_cost_catalog()
        .iter()
        .zip(&perf)
    {
        let tco = profile.inputs.evaluate(&constants).total();
        println!(
            "  {:>7}: {:.1} $/Mflops (TCO ${:.0}K / {:.1} Gflops)",
            profile.family.label(),
            topper(tco, gflops),
            tco / 1e3,
            gflops
        );
    }
}
