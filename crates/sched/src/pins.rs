//! The scheduler suite of `metablade pins` ([`suite`]): replay a seeded
//! multi-job workload through the batch scheduler on a 24-node
//! MetaBlade and on the largest traditional Beowulf affordable at the
//! same TCO, under FCFS, EASY backfill and SJF — then contrast `Compact`
//! against `ContentionAware` placement (with and without ECMP route
//! spreading) on an oversubscribed fat-tree running a comm-heavy stream
//! ([`crate::workload::comm_heavy`]). Verifies the determinism contract
//! (run fingerprints identical across executor policies), asserts EASY
//! strictly beats FCFS on utilization, that failure injection struck a
//! running job, and that contention-aware placement beats compact on
//! the fat tree; returns `BENCH_sched.json` (`BENCH_sched_smoke.json` at
//! smoke size) plus per-node occupancy and per-link hot-spot Chrome
//! traces.
//!
//! The smoke size is a smaller workload with aggressive failure
//! injection across three executors; `cargo test` reruns it and requires
//! the document to equal the committed `BENCH_sched_smoke.json`.

use mb_cluster::{Cluster, ClusterSpec, ExecPolicy, Topology};
use mb_telemetry::artifact::{artifact_stem, Pins};
use mb_telemetry::Json;

use crate::report::{
    equal_tco_nodes, hotspot_chrome, metablade_tco, occupancy_chrome, policy_row, traditional_tco,
    SCHEMA,
};
use crate::{
    generate, simulate, workload, EasyBackfill, FailureConfig, Fcfs, JobSpec, Placement,
    SchedConfig, SchedPolicy, ServiceModel, SimReport, Sjf, WorkloadConfig,
};

fn policies() -> [&'static dyn SchedPolicy; 3] {
    [&Fcfs, &EasyBackfill, &Sjf]
}

/// Run every policy on `spec` under each executor in `execs`, asserting
/// per-policy fingerprints are identical across executors. Returns the
/// reports from the first executor.
fn run_cluster(
    spec: &ClusterSpec,
    wl: &[JobSpec],
    cfg: &SchedConfig,
    execs: &[ExecPolicy],
) -> Vec<SimReport> {
    assert!(!execs.is_empty());
    let mut reference: Vec<SimReport> = Vec::new();
    for (ei, &exec) in execs.iter().enumerate() {
        let cluster = Cluster::new(spec.clone()).with_exec(exec);
        let service = ServiceModel::new(&cluster);
        for (pi, policy) in policies().into_iter().enumerate() {
            let rep = simulate(&service, policy, wl, cfg);
            if ei == 0 {
                reference.push(rep);
            } else {
                assert_eq!(
                    rep.fingerprint,
                    reference[pi].fingerprint,
                    "fingerprint for '{}' on '{}' diverged under {exec:?}",
                    policy.name(),
                    spec.name,
                );
            }
        }
    }
    reference
}

fn workload_json(wl: &WorkloadConfig) -> Json {
    Json::obj([
        ("jobs", Json::Num(wl.jobs as f64)),
        ("seed", Json::Num(wl.seed as f64)),
        ("mean_interarrival_s", Json::Num(wl.mean_interarrival_s)),
        ("max_ranks", Json::Num(wl.max_ranks as f64)),
    ])
}

fn failure_json(f: &FailureConfig) -> Json {
    Json::obj([
        ("temp_c", Json::Num(f.temp_c)),
        ("accel", Json::Num(f.accel)),
        ("repair_s", Json::Num(f.repair_s)),
        ("seed", Json::Num(f.seed as f64)),
    ])
}

fn cluster_section(spec: &ClusterSpec, tco: f64, cfg: &SchedConfig, reports: &[SimReport]) -> Json {
    Json::obj([
        ("name", Json::str(spec.name.to_string())),
        ("nodes", Json::Num(spec.nodes as f64)),
        ("topology", Json::str(spec.network.topology.label())),
        ("placement", Json::str(cfg.placement.label())),
        ("route_spread", Json::Bool(cfg.route_spread)),
        ("tco_dollars", Json::Num(tco)),
        (
            "policies",
            Json::Arr(reports.iter().map(|r| policy_row(r, tco, true)).collect()),
        ),
    ])
}

/// The three placement configurations the fat-tree contrast compares.
fn contention_variants() -> [(Placement, bool); 3] {
    [
        (Placement::Compact, false),
        (Placement::ContentionAware, false),
        (Placement::ContentionAware, true),
    ]
}

/// Run the contention contrast: the same comm-heavy stream on one
/// oversubscribed fat tree under each placement variant, executor
/// invariance checked per variant. Returns one cluster section per
/// variant plus the compact FCFS report (whose hot-spot telemetry
/// becomes the trace artifact).
fn contention_sections(
    spec: &ClusterSpec,
    wl: &[JobSpec],
    execs: &[ExecPolicy],
) -> (Vec<Json>, SimReport) {
    let tco = metablade_tco() * spec.nodes as f64 / 24.0;
    let mut sections = Vec::new();
    let mut by_variant: Vec<Vec<SimReport>> = Vec::new();
    for (placement, route_spread) in contention_variants() {
        let cfg = SchedConfig {
            placement,
            route_spread,
            ..SchedConfig::default()
        };
        let reports = run_cluster(spec, wl, &cfg, execs);
        sections.push(cluster_section(spec, tco, &cfg, &reports));
        by_variant.push(reports);
    }
    // The headline acceptance check: on this oversubscribed tree the
    // contention-aware allocator must beat compact for every policy on
    // makespan or tail slowdown (and strictly somewhere).
    let mut strictly_better = false;
    for (pi, policy) in policies().into_iter().enumerate() {
        let compact = &by_variant[0][pi];
        let aware = &by_variant[1][pi];
        let better_makespan = aware.makespan_s < compact.makespan_s;
        let better_tail = aware.slowdown_hist.p99() < compact.slowdown_hist.p99();
        assert!(
            aware.makespan_s <= compact.makespan_s * (1.0 + 1e-9) || better_tail,
            "contention-aware placement must not lose to compact under '{}': \
             makespan {} vs {}, slowdown p99 {} vs {}",
            policy.name(),
            aware.makespan_s,
            compact.makespan_s,
            aware.slowdown_hist.p99(),
            compact.slowdown_hist.p99(),
        );
        strictly_better |= better_makespan || better_tail;
    }
    assert!(
        strictly_better,
        "contention-aware placement never improved on compact — the contrast workload is toothless"
    );
    let compact_fcfs = by_variant.swap_remove(0).swap_remove(0);
    assert!(
        compact_fcfs.max_contention_factor > 1.0,
        "compact placement saw no link sharing — the contrast workload is toothless"
    );
    (sections, compact_fcfs)
}

/// The scheduler suite of `metablade pins`: `BENCH_sched.json` (the
/// standard 200-job workload; the `MB_PARALLEL` executor with Sequential
/// as the determinism reference) or, at smoke size,
/// `BENCH_sched_smoke.json` (80 failure-heavy jobs swept across three
/// executors), plus the occupancy and hot-spot Chrome traces.
pub fn suite(smoke: bool) -> Pins {
    let (wl_cfg, cfg, execs) = if smoke {
        let wl = WorkloadConfig {
            jobs: 80,
            seed: 7,
            mean_interarrival_s: 75.0,
            max_ranks: 24,
        };
        let cfg = SchedConfig {
            failure: Some(FailureConfig::accelerated(4000.0, 7)),
            ..SchedConfig::default()
        };
        let execs = vec![
            ExecPolicy::Sequential,
            ExecPolicy::Parallel { workers: 4 },
            ExecPolicy::Unbounded,
        ];
        (wl, cfg, execs)
    } else {
        let cfg = SchedConfig {
            failure: Some(FailureConfig::accelerated(400.0, 2002)),
            ..SchedConfig::default()
        };
        let mut execs = vec![ExecPolicy::from_env()];
        if execs[0] != ExecPolicy::Sequential {
            execs.push(ExecPolicy::Sequential);
        }
        (workload::standard(), cfg, execs)
    };
    let wl = generate(&wl_cfg);

    let blade_spec = mb_cluster::spec::metablade();
    let blade_tco = metablade_tco();
    let trad_nodes = equal_tco_nodes(blade_tco);
    let trad_spec = mb_cluster::spec::traditional_piii().with_nodes(trad_nodes);
    let trad_tco = traditional_tco(trad_nodes);

    let blade_reports = run_cluster(&blade_spec, &wl, &cfg, &execs);
    let trad_reports = run_cluster(&trad_spec, &wl, &cfg, &execs);

    let fcfs = &blade_reports[0];
    let easy = &blade_reports[1];
    assert!(
        easy.utilization > fcfs.utilization,
        "EASY backfill must strictly beat FCFS utilization on MetaBlade: easy={} fcfs={}",
        easy.utilization,
        fcfs.utilization,
    );
    let requeues: u32 = blade_reports.iter().map(|r| r.requeues).sum();
    assert!(requeues > 0, "failure injection produced no requeue");

    // Cross-job contention contrast on an oversubscribed fat tree:
    // the same comm-heavy stream under compact, contention-aware, and
    // contention-aware + ECMP-spread placement. Smoke uses a small
    // 16-node tree; the full run a 64-node one (four 16-node edge
    // groups, so the allocator has real choices).
    let (ft_spec, ft_wl) = if smoke {
        let mut s = blade_spec
            .with_nodes(16)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        s.name = "MetaBlade-ft16".into();
        (s, workload::comm_heavy(14, 3, 8, 10.0, 11))
    } else {
        let mut s = blade_spec
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        s.name = "MetaBlade-ft64".into();
        (s, workload::comm_heavy(40, 4, 28, 12.0, 2002))
    };
    let (ft_sections, ft_compact_fcfs) = contention_sections(&ft_spec, &ft_wl, &execs);

    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("smoke", Json::Bool(smoke)),
        ("workload", workload_json(&wl_cfg)),
        (
            "checkpoint",
            Json::obj([
                ("checkpoint_h", Json::Num(cfg.checkpoint.checkpoint_h)),
                ("restart_h", Json::Num(cfg.checkpoint.restart_h)),
            ]),
        ),
        (
            "failure",
            match &cfg.failure {
                Some(f) => failure_json(f),
                None => Json::Null,
            },
        ),
        (
            "clusters",
            Json::Arr(
                vec![
                    cluster_section(&blade_spec, blade_tco, &cfg, &blade_reports),
                    cluster_section(&trad_spec, trad_tco, &cfg, &trad_reports),
                ]
                .into_iter()
                .chain(ft_sections)
                .collect(),
            ),
        ),
    ]);

    let name = if smoke {
        "BENCH_sched_smoke.json"
    } else {
        "BENCH_sched.json"
    };
    // Per-node occupancy of the EASY run, and per-link hot-spot counters
    // of the compact fat-tree run — the contention picture the aware
    // allocator is steering around.
    let occupancy = (
        format!(
            "{}.trace.json",
            artifact_stem("sched_easy", blade_spec.nodes)
        ),
        occupancy_chrome(&easy.occupancy, blade_spec.nodes),
    );
    let hotspots = (
        format!(
            "{}.trace.json",
            artifact_stem("sched_hotspots", ft_spec.nodes)
        ),
        hotspot_chrome(&ft_compact_fcfs),
    );
    Pins {
        docs: vec![(name, doc)],
        artifacts: vec![occupancy, hotspots],
    }
}
