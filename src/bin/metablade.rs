//! `metablade` — the reproduction's command-line front end, and the one
//! regenerator for every paper table and figure.
//!
//! ```text
//! metablade table <1..7>                regenerate a paper table, with its shape / claim checks
//!           table 2 [n]                   body count (default 50,000)
//!           table 3 [S|W|A]               NPB class (default W — the paper's configuration)
//!           table all [n] [S|W|A]         tables 1–7 in order, trailers included
//! metablade figure3 [n] [steps] [px]    regenerate Figure 3 (defaults 20000 60 96; writes figure3.pgm)
//! metablade sustained [n]               the 2.1-Gflops / 14%-of-peak experiment on MetaBlade and
//!                                       MetaBlade2 (default 50,000 bodies; writes run manifests)
//! metablade evolve [n] [steps]          distributed N-body evolution on MetaBlade
//! metablade disasm                      disassemble + schedule the Karp microkernel
//! metablade ablation tcache             A1: translation-cache capacity and hot threshold
//!           ablation mac [n]              A2: opening-angle sweep (default 4,000 bodies)
//!           ablation network [n]          A3: Table 2 vs latency / bandwidth (default 20,000)
//!           ablation thermal              A4: ambient temperature → failures → TCO
//! metablade extension checkpoint        30-day job under Young checkpointing
//!           extension green_destiny [n]   the 240-node rack (default 100,000 bodies)
//!           extension longrun [n]         LongRun DVFS sweep (default 15,000)
//!           extension tm6000              §5's projected TM6000 machine
//! metablade claims                      every quantitative §4 prose claim, recomputed
//! metablade trace [n] [ranks]           one traced force evaluation (defaults 20000 24; writes a
//!                                       Chrome trace and a run manifest to $MB_TELEMETRY_DIR)
//! metablade pins                        every BENCH_*.json pin, smoke and full size, into the
//!                                       current directory (side artifacts to $MB_TELEMETRY_DIR)
//! ```
//!
//! An unknown subcommand, table or study, an argument that does not
//! parse, a body / rank / step / pixel count of zero, or any argument to
//! `pins` prints the usage line on stderr and exits with status 2.

#![forbid(unsafe_code)]

use metablade::bench::studies;
use metablade::cluster::spec;
use metablade::core::{experiments, report};
use metablade::metrics::tco::CostConstants;
use metablade::npb::Class;
use metablade::telemetry::artifact::Pins;

const USAGE: &str = "usage: metablade <table 1..7|all [n] [S|W|A] | figure3 [n] [steps] [px] | sustained [n] | evolve [n] [steps] | disasm | ablation tcache|mac|network|thermal [n] | extension checkpoint|green_destiny|longrun|tm6000 [n] | claims | trace [n] [ranks] | pins>";

fn usage() -> ! {
    eprintln!("metablade — 'Honey, I Shrunk the Beowulf!' reproduction");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Positional count `i` (bodies, ranks, steps, pixels), or `default`
/// when absent; one that is present but does not parse, or is zero, is a
/// usage error, never a silent default or a panic further down.
fn parse_or_usage(i: usize, default: usize) -> usize {
    match std::env::args().nth(i).map(|a| a.parse()) {
        None => default,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => usage(),
    }
}

/// NPB class at position `i` (default W — the paper's configuration).
fn class_or_usage(i: usize) -> Class {
    match std::env::args().nth(i).as_deref() {
        None | Some("W") => Class::W,
        Some("S") => Class::S,
        Some("A") => Class::A,
        Some(_) => usage(),
    }
}

fn table1() {
    let rows = experiments::table1();
    print!("{}", report::render_table1(&rows));
    println!();
    println!("Shape checks (paper §3.2):");
    let by = |frag: &str| rows.iter().find(|r| r.cpu.contains(frag)).unwrap();
    let tm = by("TM5600");
    let piii = by("Pentium III");
    println!(
        "  TM5600 per-clock vs PIII per-clock (Math sqrt): {:.3} vs {:.3}",
        tm.math_mflops / 633.0,
        piii.math_mflops / 500.0
    );
    println!(
        "  Karp/Math gain — TM5600 {:.2}x, PIII {:.2}x",
        tm.karp_mflops / tm.math_mflops,
        piii.karp_mflops / piii.math_mflops
    );
}

fn table2(n: usize) {
    eprintln!("running distributed treecode with N = {n} bodies ...");
    let rows = experiments::table2(n);
    print!("{}", report::render_table2(&rows));
    let last = rows.last().unwrap();
    println!(
        "\nParallel efficiency at {} CPUs: {:.0}% (the paper's \"drop in efficiency\")",
        last.cpus,
        100.0 * last.speedup / last.cpus as f64
    );
}

fn table3(class: Class) {
    eprintln!("running NPB kernels at class {class} ...");
    let rows = experiments::table3(class);
    print!("{}", report::render_table3(&rows, class));
    // Geometric-mean ratios, as the paper's prose summarizes.
    let gm =
        |ix: usize| (rows.iter().map(|r| r.mops[ix].ln()).sum::<f64>() / rows.len() as f64).exp();
    println!(
        "\nGeometric means — Athlon {:.0}, PIII {:.0}, TM5600 {:.0}, Power3 {:.0}",
        gm(0),
        gm(1),
        gm(2),
        gm(3)
    );
    println!(
        "TM5600 / PIII = {:.2} (paper: \"performs as well as\"); TM5600 / Athlon = {:.2}, TM5600 / Power3 = {:.2} (paper: \"about one-third\")",
        gm(2) / gm(1), gm(2) / gm(0), gm(2) / gm(3)
    );
}

fn table4() {
    print!("{}", report::render_table4(&experiments::table4()));
    println!("\n(MetaBlade rows: production-scale sustained rates from this reproduction's");
    println!(" calibrated CMS/cluster models; historical rows are the published records.)");
}

fn table5() {
    let constants = CostConstants::default();
    print!("{}", metablade::metrics::report::render_table5(&constants));
    println!("\nClaim check (§4.1): blade TCO ≈ 3x better; ToPPeR more than 2x better");
    let catalog = metablade::metrics::costs::cluster_cost_catalog();
    let blade = catalog.iter().find(|p| p.family.is_bladed()).unwrap();
    let blade_tco = blade.inputs.evaluate(&constants).total();
    for p in catalog.iter().filter(|p| !p.family.is_bladed()) {
        let tco = p.inputs.evaluate(&constants).total();
        println!(
            "  {:>7}: TCO ratio {:.2}x",
            p.family.label(),
            tco / blade_tco
        );
    }
    // ToPPeR with the paper's performance assumption (blade at 75% of a
    // comparable traditional cluster).
    let trad_perf = 2.8;
    let blade_perf = 0.75 * trad_perf;
    let t_trad = metablade::metrics::topper::topper(102_000.0, trad_perf);
    let t_blade = metablade::metrics::topper::topper(blade_tco, blade_perf);
    println!(
        "  ToPPeR blade/traditional = {:.2} (paper: \"less than half\")",
        t_blade / t_trad
    );
}

fn table6() {
    let machines = experiments::table67_machines();
    print!("{}", metablade::metrics::report::render_table6(&machines));
}

fn table7() {
    let machines = experiments::table67_machines();
    print!("{}", metablade::metrics::report::render_table7(&machines));
}

fn figure3() {
    let n = parse_or_usage(2, 20_000);
    let steps = parse_or_usage(3, 60);
    let px = parse_or_usage(4, 96);
    eprintln!("evolving a {n}-body self-gravitating disk for {steps} steps ...");
    let img = experiments::figure3(n, steps, px);
    std::fs::write("figure3.pgm", img.to_pgm()).expect("write figure3.pgm");
    println!("{}", img.to_ascii());
    println!("wrote figure3.pgm ({px}x{px})");
}

/// §3.3 headline experiment: sustained Gflops and fraction of peak on
/// MetaBlade (paper: 2.1 Gflops = 14% of 15.2-Gflops peak) and
/// MetaBlade2 (3.3 Gflops).
fn sustained() {
    use metablade::bench::{artifact_dir, treecode_manifest, write_artifact};
    let n = parse_or_usage(2, 50_000);
    for (name, spec, paper) in [
        ("MetaBlade", spec::metablade(), 2.1),
        ("MetaBlade2", spec::metablade2(), 3.3),
    ] {
        let r = experiments::sustained_gflops(spec.clone(), n);
        let manifest = treecode_manifest(&format!("sustained-{name}"), &spec, &r.step);
        let stem =
            metablade::telemetry::artifact::artifact_stem(&format!("sustained_{name}"), spec.nodes);
        match write_artifact(
            &artifact_dir(),
            &format!("{stem}.manifest.json"),
            &manifest.to_json_string(),
        ) {
            Ok(p) => println!("manifest: {}", p.display()),
            Err(e) => eprintln!("manifest write failed: {e}"),
        }
        println!(
            "{name}: {:.2} Gflops sustained of {:.1} peak ({:.1}% of peak; parallel eff {:.0}%)  [paper: {paper} Gflops]",
            r.gflops,
            r.peak_gflops,
            100.0 * r.gflops / r.peak_gflops,
            100.0 * r.efficiency,
        );
        println!("  note: at N = {n} (scaled down from the paper's 9.75M bodies) communication");
        println!("  costs are relatively larger; the compute-bound rate matches the paper's.");
    }
}

/// `metablade pins`: every pin each suite returns, the smoke documents
/// first, into the current directory; their side artifacts into
/// `$MB_TELEMETRY_DIR`. A pin that cannot be written ends the run with
/// status 1, its path and the OS error; an artifact only warns.
fn pins() {
    use metablade::bench::{artifact_dir, write_artifact};
    if std::env::args().nth(2).is_some() {
        usage()
    }
    let suites: [fn(bool) -> Pins; 3] = [
        metablade::bench::baseline::suite,
        metablade::sched::pins::suite,
        metablade::workload::pins::suite,
    ];
    let dir = artifact_dir();
    for smoke in [true, false] {
        for suite in suites {
            let out = suite(smoke);
            for (name, doc) in &out.docs {
                if let Err(e) = std::fs::write(name, doc.to_string()) {
                    eprintln!("metablade pins: cannot write {name}: {e}");
                    std::process::exit(1)
                }
                println!("wrote {name}");
            }
            for (name, text) in &out.artifacts {
                match write_artifact(&dir, name, text) {
                    Ok(p) => println!("wrote {}", p.display()),
                    Err(e) => eprintln!("warning: could not write {name}: {e}"),
                }
            }
        }
    }
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    match cmd.as_str() {
        "table" => match std::env::args().nth(2).as_deref() {
            Some("1") => table1(),
            Some("2") => table2(parse_or_usage(3, 50_000)),
            Some("3") => table3(class_or_usage(3)),
            Some("4") => table4(),
            Some("5") => table5(),
            Some("6") => table6(),
            Some("7") => table7(),
            Some("all") => {
                let (n, class) = (parse_or_usage(3, 50_000), class_or_usage(4));
                let tables: [&dyn Fn(); 7] = [
                    &table1,
                    &|| table2(n),
                    &|| table3(class),
                    &table4,
                    &table5,
                    &table6,
                    &table7,
                ];
                for (i, table) in tables.iter().enumerate() {
                    if i > 0 {
                        println!();
                    }
                    table();
                }
            }
            _ => usage(),
        },
        "figure3" => figure3(),
        "sustained" => sustained(),
        "evolve" => {
            let n = parse_or_usage(2, 10_000);
            let steps = parse_or_usage(3, 20);
            let cluster = metablade::cluster::machine::Cluster::new(spec::metablade());
            let bodies = metablade::treecode::plummer(n, 1);
            let r = metablade::treecode::distributed_evolve(
                &cluster,
                bodies,
                &metablade::treecode::parallel::DistributedConfig::default(),
                1e-3,
                steps,
            );
            println!(
                "{steps} steps of N = {n}: {:.2} virtual s, {:.2} Gflops, energy drift {:.2e}",
                r.total_time_s, r.gflops, r.energy_drift
            );
        }
        "disasm" => {
            let mk = metablade::crusoe::kernels::build_microkernel(
                metablade::crusoe::kernels::MicrokernelVariant::KarpSqrt,
                8,
                1,
            );
            print!("{}", metablade::crusoe::disasm::disasm_program(&mk.program));
            println!();
            // The inner loop is the biggest block; find and dump it.
            let leaders = mk.program.leaders();
            let inner = leaders
                .iter()
                .copied()
                .max_by_key(|&l| mk.program.block_at(l).len())
                .unwrap();
            print!(
                "{}",
                metablade::crusoe::disasm::dump_schedule(
                    &mk.program,
                    inner,
                    &metablade::crusoe::schedule::CoreParams::tm5600_vliw()
                )
            );
        }
        "ablation" => match std::env::args().nth(2).as_deref() {
            Some("tcache") => studies::ablation_tcache(),
            Some("mac") => studies::ablation_mac(parse_or_usage(3, 4_000)),
            Some("network") => studies::ablation_network(parse_or_usage(3, 20_000)),
            Some("thermal") => studies::ablation_thermal(),
            _ => usage(),
        },
        "extension" => match std::env::args().nth(2).as_deref() {
            Some("checkpoint") => studies::extension_checkpoint(),
            Some("green_destiny") => studies::extension_green_destiny(parse_or_usage(3, 100_000)),
            Some("longrun") => studies::extension_longrun(parse_or_usage(3, 15_000)),
            Some("tm6000") => studies::extension_tm6000(),
            _ => usage(),
        },
        "claims" => studies::claims(),
        "trace" => studies::trace(parse_or_usage(2, 20_000), parse_or_usage(3, 24)),
        "pins" => pins(),
        _ => usage(),
    }
}
