//! Entry points for the `bench_baseline` and `bench_gate` binaries.
//!
//! The logic lives here, in the library, so tests can reach it; the
//! `src/bin/` targets only call in. Each binary name belongs to this
//! one package, so `cargo run --release --bin bench_baseline` from the
//! repo root resolves it with or without `-p mb-bench`.

use std::path::PathBuf;
use std::process::ExitCode;

use mb_telemetry::artifact::host_threads;
use mb_telemetry::json::Json;

use crate::baseline::{cluster_baseline, treecode_baseline, SweepConfig};
use crate::gate::{compare_dirs, Tolerances};
use crate::write_artifact;

fn summarize(doc: &Json) {
    let suite = doc.get("suite").and_then(Json::as_str).unwrap_or("?");
    println!("{suite} suite:");
    for b in doc.get("benches").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
        let ranks = b.get("ranks").and_then(Json::as_f64).unwrap_or(0.0);
        let identical = b.get("identical_across_policies") == Some(&Json::Bool(true));
        let seq = b
            .get("wall_s")
            .and_then(|w| w.get("seq"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let s8 = b
            .get("speedup_vs_seq")
            .and_then(|s| s.get("w8"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let eps = b
            .get("events_per_sec")
            .and_then(|e| e.get("w8"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "  {name:<18} P={ranks:<4.0} seq {seq:>8.3}s  w8 speedup {s8:>6.2}x  w8 {eps:>9.0} ev/s  identical={identical}"
        );
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
                let list = args.next().unwrap_or_default();
                let ranks: Vec<usize> = list
                    .split(',')
                    .filter_map(|r| r.trim().parse().ok())
                    .filter(|&r| r > 0)
                    .collect();
                assert!(!ranks.is_empty(), "--ranks needs a comma-separated list");
                cfg = cfg.with_ranks(ranks);
            }
            n => {
                if let Ok(n_bodies) = n.parse::<usize>() {
                    cfg.n_bodies = n_bodies;
                } else {
                    panic!(
                        "unknown argument {n:?}; usage: [n_bodies] [--smoke] [--ranks R1,R2,...]"
                    );
                }
            }
        }
    }
    (cfg, smoke)
}

/// `bench_baseline`: regenerate the BENCH documents (argv documented on
/// the binary). `--smoke` writes `BENCH_*_smoke.json`; with `MB_PROF=1`
/// a profiled rerun additionally writes `PROF_cluster.json`.
pub fn baseline_main() {
    let (cfg, smoke) = parse_baseline_args();
    let dir = std::env::var_os("MB_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    // Smoke runs get their own document names: a smoke sweep shares no
    // (name, ranks) records with the full sweep (round counts differ),
    // so gating it against the full baselines would compare nothing.
    // `BENCH_*_smoke.json` pairs a smoke run with the committed smoke
    // baselines instead — and never clobbers the full documents.
    let (cluster_name, treecode_name) = if smoke {
        ("BENCH_cluster_smoke.json", "BENCH_treecode_smoke.json")
    } else {
        ("BENCH_cluster.json", "BENCH_treecode.json")
    };
    println!(
        "benchmark baseline: host_threads = {}, cluster ranks {:?}, treecode ranks {:?}, N = {}\n",
        host_threads(),
        cfg.rank_counts,
        cfg.treecode_rank_counts,
        cfg.n_bodies
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
    // a gated document — occupancy is derived data).
    let trace = crate::baseline::fat_tree_link_trace(&cfg);
    match write_artifact(&dir, "FATTREE_links.trace.json", &trace) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write FATTREE_links.trace.json: {e}"),
    }

    // With MB_PROF=1, rerun one representative case with host-time
    // profiling (outside the timed sweep — see
    // `baseline::profiled_pass`), and leave the registry snapshot next
    // to the BENCH documents.
    if mb_telemetry::prof::enabled_from_env() {
        let prof = crate::baseline::profiled_pass(&cfg).to_json().to_string();
        let p = write_artifact(&dir, "PROF_cluster.json", &prof).expect("write PROF_cluster.json");
        println!("wrote {}", p.display());
    }
}

fn parse_gate_args() -> (PathBuf, PathBuf, Tolerances) {
    let mut baseline = PathBuf::from(".");
    let mut fresh = std::env::var_os("MB_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let mut tol = Tolerances::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => tol = Tolerances::smoke(),
            "--baseline" => {
                baseline = PathBuf::from(args.next().expect("--baseline needs a directory"));
            }
            "--fresh" => {
                fresh = PathBuf::from(args.next().expect("--fresh needs a directory"));
            }
            "--tol-events" => {
                let v = args.next().expect("--tol-events needs a fraction");
                tol.events_per_sec_drop = v.parse().expect("--tol-events must be a number");
            }
            other => panic!(
                "unknown argument {other:?}; usage: \
                 [--smoke] [--baseline DIR] [--fresh DIR] [--tol-events F]"
            ),
        }
    }
    (baseline, fresh, tol)
}

/// `bench_gate`: diff fresh BENCH documents against the committed
/// baselines (argv documented on the binary); nonzero exit on
/// violation.
pub fn gate_main() -> ExitCode {
    let (baseline, fresh, tol) = parse_gate_args();
    println!(
        "bench_gate: baseline {} vs fresh {} (events_per_sec band {:.0}%)\n",
        baseline.display(),
        fresh.display(),
        tol.events_per_sec_drop * 100.0
    );
    let report = compare_dirs(&baseline, &fresh, &tol);
    let text = report.render();
    print!("{text}");
    match write_artifact(&fresh, "bench_gate_report.txt", &text) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write bench_gate_report.txt: {e}"),
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
