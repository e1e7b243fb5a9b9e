//! Sweep cluster size for the treecode workload: the efficiency curve of
//! Table 2, plus perf/space and perf/power as the machine grows from one
//! chassis toward the Green Destiny rack.
//!
//! Run with: `cargo run --release --example cluster_scaling [n_bodies]`

use metablade::cluster::machine::Cluster;
use metablade::cluster::spec::metablade;
use metablade::metrics::topper::{perf_power_gflop_per_kw, perf_space_mflop_per_ft2};
use metablade::treecode::parallel::{distributed_step, DistributedConfig};
use metablade::treecode::plummer;

fn main() {
    let n: usize = match std::env::args().nth(1) {
        None => 20_000,
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("cluster_scaling: n_bodies must be a number, got {a:?}");
            std::process::exit(2)
        }),
    };
    let bodies = plummer(n, 5);
    let cfg = DistributedConfig::default();
    println!(
        "{:>6}{:>12}{:>10}{:>12}{:>16}{:>16}",
        "CPUs", "time (s)", "Gflops", "eff (%)", "Mflop/ft^2", "Gflop/kW"
    );
    let mut t1 = f64::NAN;
    for &p in &[1usize, 2, 4, 8, 16, 24] {
        let spec = metablade().with_nodes(p);
        let cluster = Cluster::new(spec.clone());
        let r = distributed_step(&cluster, &bodies, &cfg);
        if p == 1 {
            t1 = r.makespan_s;
        }
        println!(
            "{:>6}{:>12.2}{:>10.2}{:>12.0}{:>16.0}{:>16.2}",
            p,
            r.makespan_s,
            r.gflops,
            100.0 * t1 / (p as f64 * r.makespan_s),
            perf_space_mflop_per_ft2(r.gflops, spec.footprint_ft2),
            perf_power_gflop_per_kw(r.gflops, spec.load_kw()),
        );
    }
}
