//! Entry point for the `bench_baseline` binary.
//!
//! The logic lives here, in the library, so tests can reach it; the
//! `src/bin/` target only calls in. Each binary name belongs to this
//! one package, so `cargo run --release --bin bench_baseline` from the
//! repo root resolves it with or without `-p mb-bench`.

use mb_telemetry::json::Json;

use crate::baseline::{cluster_baseline, treecode_baseline, SweepConfig};
use crate::{artifact_dir, write_artifact};

const USAGE: &str = "usage: bench_baseline [n_bodies] [--smoke] [--ranks R1,R2,...]";

/// Bad argv is a usage error — never a silent default, never a backtrace.
fn usage(why: &str) -> ! {
    eprintln!("bench_baseline: {why}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn summarize(doc: &Json) {
    let suite = doc.get("suite").and_then(Json::as_str).unwrap_or("?");
    println!("{suite} suite:");
    for b in doc.get("benches").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
        let ranks = b.get("ranks").and_then(Json::as_f64).unwrap_or(0.0);
        let makespan = b
            .get("virtual_makespan_s")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let identical = b.get("identical_across_policies") == Some(&Json::Bool(true));
        println!("  {name:<26} P={ranks:<4.0} virtual {makespan:>12.6}s  identical={identical}");
        assert!(
            identical,
            "{suite}/{name} outcomes diverged across policies"
        );
    }
}

fn parse_baseline_args() -> (SweepConfig, bool) {
    let mut cfg = SweepConfig::default();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                smoke = true;
                cfg = SweepConfig {
                    n_bodies: cfg.n_bodies.min(SweepConfig::smoke().n_bodies),
                    ..SweepConfig::smoke()
                };
            }
            "--ranks" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage("--ranks needs a comma-separated list"));
                let ranks = list
                    .split(',')
                    .map(|r| match r.trim().parse() {
                        Ok(r) if r > 0 => r,
                        _ => usage(&format!("--ranks: {r:?} is not a positive rank count")),
                    })
                    .collect();
                cfg = cfg.with_ranks(ranks);
            }
            n => match n.parse() {
                Ok(n_bodies) if n_bodies > 0 => cfg.n_bodies = n_bodies,
                _ => usage(&format!(
                    "{n:?} is neither a flag nor a positive body count"
                )),
            },
        }
    }
    (cfg, smoke)
}

/// `bench_baseline`: regenerate the BENCH documents (argv documented on
/// the binary) into the artifact directory. `--smoke` writes
/// `BENCH_*_smoke.json`; with `MB_PROF=1` a profiled rerun additionally
/// writes `PROF_cluster.json`.
pub fn baseline_main() {
    let (cfg, smoke) = parse_baseline_args();
    let dir = artifact_dir();
    // Smoke runs get their own document names, so regenerating them
    // never clobbers the full documents.
    let (cluster_name, treecode_name) = if smoke {
        ("BENCH_cluster_smoke.json", "BENCH_treecode_smoke.json")
    } else {
        ("BENCH_cluster.json", "BENCH_treecode.json")
    };
    println!(
        "benchmark baseline: cluster ranks {:?}, treecode ranks {:?}, N = {}\n",
        cfg.rank_counts, cfg.treecode_rank_counts, cfg.n_bodies
    );

    let cluster_doc = cluster_baseline(&cfg);
    summarize(&cluster_doc);
    let p = write_artifact(&dir, cluster_name, &cluster_doc.to_string())
        .unwrap_or_else(|e| panic!("write {cluster_name}: {e}"));
    println!("wrote {}\n", p.display());

    let tree_doc = treecode_baseline(&cfg);
    summarize(&tree_doc);
    let p = write_artifact(&dir, treecode_name, &tree_doc.to_string())
        .unwrap_or_else(|e| panic!("write {treecode_name}: {e}"));
    println!("wrote {}", p.display());

    // Per-link occupancy for the fat-tree sweep's largest case, as a
    // Chrome trace with one counter series per link (a CI artifact, not
    // a pinned document — occupancy is derived data).
    let trace = crate::baseline::fat_tree_link_trace(&cfg);
    match write_artifact(&dir, "FATTREE_links.trace.json", &trace) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write FATTREE_links.trace.json: {e}"),
    }

    // With MB_PROF=1, rerun one representative case with host-time
    // profiling (see `baseline::profiled_pass`), and leave the registry
    // snapshot next to the BENCH documents.
    if mb_telemetry::prof::enabled_from_env() {
        let prof = crate::baseline::profiled_pass(&cfg).to_json().to_string();
        let p = write_artifact(&dir, "PROF_cluster.json", &prof).expect("write PROF_cluster.json");
        println!("wrote {}", p.display());
    }
}
