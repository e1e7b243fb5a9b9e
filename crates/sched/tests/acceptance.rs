//! The PR's acceptance criteria, executed: the standard seeded 200-job
//! workload on a 24-node MetaBlade under all three policies, with
//! failure injection, must (a) produce bit-identical fingerprints
//! under every executor policy and (b) give EASY backfill strictly
//! higher utilization than FCFS.

use std::path::{Path, PathBuf};
use std::process::Command;

use mb_cluster::{Cluster, ExecPolicy};
use mb_sched::{
    simulate, workload, EasyBackfill, FailureConfig, Fcfs, SchedConfig, SchedPolicy, ServiceModel,
    Sjf,
};
use mb_telemetry::json::parse;

#[test]
fn standard_workload_is_deterministic_and_easy_beats_fcfs() {
    let jobs = workload::generate(&workload::standard());
    assert_eq!(jobs.len(), 200);
    let cfg = SchedConfig {
        failure: Some(FailureConfig::accelerated(400.0, 2002)),
        ..SchedConfig::default()
    };
    let policies: [&dyn SchedPolicy; 3] = [&Fcfs, &EasyBackfill, &Sjf];
    let execs = [
        ExecPolicy::Sequential,
        ExecPolicy::Parallel { workers: 3 },
        ExecPolicy::Unbounded,
    ];

    // reports[policy][exec]
    let mut utils = [0.0f64; 3];
    let mut prints = [[0u64; 3]; 3];
    for (ei, &exec) in execs.iter().enumerate() {
        let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(exec);
        let service = ServiceModel::new(&cluster);
        for (pi, policy) in policies.iter().enumerate() {
            let rep = simulate(&service, *policy, &jobs, &cfg);
            assert_eq!(rep.jobs.len(), 200, "{} lost jobs", policy.name());
            prints[pi][ei] = rep.fingerprint;
            if ei == 0 {
                utils[pi] = rep.utilization;
            }
        }
    }

    for (pi, policy) in policies.iter().enumerate() {
        assert_eq!(
            prints[pi][0],
            prints[pi][1],
            "'{}' fingerprint differs: seq vs 3 workers",
            policy.name()
        );
        assert_eq!(
            prints[pi][0],
            prints[pi][2],
            "'{}' fingerprint differs: seq vs unbounded",
            policy.name()
        );
    }

    let (fcfs_util, easy_util) = (utils[0], utils[1]);
    assert!(
        easy_util > fcfs_util,
        "EASY backfill must strictly beat FCFS utilization: easy={easy_util} fcfs={fcfs_util}"
    );
}

/// The regression gate for `BENCH_sched_smoke.json`: rerun
/// `sched_sim --smoke` as a binary and require the document it writes to
/// equal the committed one leaf for leaf. The document holds simulated
/// values only, so any line reported here is a changed simulated outcome
/// (or a changed layout); regenerate the committed copy only when that
/// change is intended (BENCHMARKS.md, "Pins").
#[test]
fn smoke_document_reproduces_the_committed_one() {
    let name = "BENCH_sched_smoke.json";
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sched_sim_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sched_sim"))
        .arg("--smoke")
        .env("MB_TELEMETRY_DIR", &dir)
        .output()
        .expect("spawn sched_sim");
    assert!(out.status.success(), "{out:?}");
    let load = |path: PathBuf| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
    };
    let committed = load(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name),
    );
    let lines: Vec<String> = committed
        .diff(&load(dir.join(name)))
        .iter()
        .map(|l| format!("{name}: {l}"))
        .collect();
    assert!(
        lines.is_empty(),
        "committed -> regenerated:\n{}",
        lines.join("\n")
    );
    std::fs::remove_dir_all(&dir).ok();
}
