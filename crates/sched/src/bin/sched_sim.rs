//! `sched_sim`: replay a seeded multi-job workload through the batch
//! scheduler on a 24-node MetaBlade and on the largest traditional
//! Beowulf affordable at the same TCO, under FCFS, EASY backfill and
//! SJF — then contrast `Compact` against `ContentionAware` placement
//! (with and without ECMP route spreading) on an oversubscribed
//! fat-tree running a comm-heavy stream. Verifies the determinism
//! contract (run fingerprints identical across executor policies),
//! asserts EASY strictly beats FCFS on utilization, asserts
//! contention-aware placement beats compact on the fat tree, and
//! writes `BENCH_sched.json` (or `BENCH_sched_smoke.json` under
//! `--smoke`) plus per-node occupancy and per-link hot-spot Chrome
//! traces into the artifact directory (`$MB_TELEMETRY_DIR`, default
//! `./traces`).
//!
//! `--smoke` runs a smaller workload with aggressive failure injection
//! across three executors; `cargo test` reruns it and requires the
//! document to equal the committed `BENCH_sched_smoke.json`.

use mb_cluster::{Cluster, ClusterSpec, ExecPolicy, Topology};
use mb_sched::report::{
    equal_tco_nodes, hotspot_chrome, metablade_tco, occupancy_chrome, policy_row, traditional_tco,
    SCHEMA,
};
use mb_sched::{
    generate, simulate, workload, EasyBackfill, FailureConfig, Fcfs, JobSpec, Placement,
    SchedConfig, SchedPolicy, ServiceModel, SimReport, Sjf, WorkModel, WorkloadConfig,
};
use mb_telemetry::artifact::{artifact_dir, artifact_stem, write_artifact};
use mb_telemetry::Json;

fn policies() -> [&'static dyn SchedPolicy; 3] {
    [&Fcfs, &EasyBackfill, &Sjf]
}

/// Run every policy on `spec` under each executor in `execs`, asserting
/// per-policy fingerprints are identical across executors. Returns the
/// reports from the first executor.
fn run_cluster(
    spec: &ClusterSpec,
    wl: &[mb_sched::JobSpec],
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

fn print_table(label: &str, reports: &[SimReport], tco: f64) {
    println!("\n{label} (TCO ${tco:.0}):");
    println!(
        "  {:<6} {:>11} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>5} {:>5} {:>12}",
        "policy",
        "makespan_s",
        "util",
        "wait_s",
        "wait_p50",
        "wait_p99",
        "slowdown",
        "jobs/h",
        "fail",
        "requ",
        "j/h per $K"
    );
    for r in reports {
        println!(
            "  {:<6} {:>11.0} {:>6.3} {:>9.0} {:>9.0} {:>9.0} {:>9.2} {:>8.2} {:>5} {:>5} {:>12.4}",
            r.policy,
            r.makespan_s,
            r.utilization,
            r.mean_wait_s,
            r.wait_hist.p50(),
            r.wait_hist.p99(),
            r.mean_slowdown,
            r.jobs_per_hour,
            r.failures,
            r.requeues,
            r.jobs_per_hour / (tco / 1000.0),
        );
    }
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

/// Seeded comm-heavy stream for the contention sections: ring-exchange
/// synthetic jobs whose 64-KiB × 8-round steps keep oversubscribed
/// fat-tree uplinks busy enough that cross-job sharing shows up in the
/// makespan and slowdown tail.
fn contention_workload(
    jobs: usize,
    min_ranks: usize,
    max_ranks: usize,
    mean_gap_s: f64,
    seed: u64,
) -> Vec<JobSpec> {
    let mut s = seed | 1;
    let mut next = move |m: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % m
    };
    let mut t = 0.0;
    (0..jobs)
        .map(|i| {
            // Mixed widths leave partial groups behind (allocation
            // slack), and mixed message sizes make per-group loads
            // unequal — both are what gives the contention-aware
            // allocator real choices over compact.
            let ranks = min_ranks + next((max_ranks - min_ranks + 1) as u64) as usize;
            let steps = 150 + next(150) as u32;
            let msg_kib = 32u32 << (next(3) as u32); // 32, 64 or 128 KiB
            let spec = JobSpec {
                id: i,
                submit_s: t,
                ranks,
                work: WorkModel::Synthetic {
                    flops_per_step: 1e6,
                    msg_kib,
                    rounds: 8,
                    steps,
                },
            };
            t += mean_gap_s * (0.5 + next(100) as f64 / 100.0);
            spec
        })
        .collect()
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
/// becomes the uploaded trace artifact).
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
        let tag = if route_spread {
            format!("{} (+spread)", placement.label())
        } else {
            placement.label().to_string()
        };
        print_table(&format!("{} [{}]", spec.name, tag), &reports, tco);
        println!(
            "  max contention factor: {:.3}",
            reports
                .iter()
                .map(|r| r.max_contention_factor)
                .fold(1.0, f64::max)
        );
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

fn run(wl_cfg: &WorkloadConfig, cfg: &SchedConfig, execs: &[ExecPolicy], smoke: bool) {
    let wl = generate(wl_cfg);

    let blade_spec = mb_cluster::spec::metablade();
    let blade_tco = metablade_tco();
    let trad_nodes = equal_tco_nodes(blade_tco);
    let trad_spec = mb_cluster::spec::traditional_piii().with_nodes(trad_nodes);
    let trad_tco = traditional_tco(trad_nodes);

    println!(
        "sched_sim: {} jobs (seed {}), MetaBlade {} nodes vs traditional {} nodes at equal TCO (${:.0} vs ${:.0})",
        wl.len(),
        wl_cfg.seed,
        blade_spec.nodes,
        trad_nodes,
        blade_tco,
        trad_tco,
    );

    let blade_reports = run_cluster(&blade_spec, &wl, cfg, execs);
    let trad_reports = run_cluster(&trad_spec, &wl, cfg, execs);

    let fcfs = &blade_reports[0];
    let easy = &blade_reports[1];
    assert!(
        easy.utilization > fcfs.utilization,
        "EASY backfill must strictly beat FCFS utilization on MetaBlade: easy={} fcfs={}",
        easy.utilization,
        fcfs.utilization,
    );
    if smoke {
        let requeues: u32 = blade_reports.iter().map(|r| r.requeues).sum();
        assert!(requeues > 0, "smoke failure injection produced no requeue");
    }

    print_table(&blade_spec.name, &blade_reports, blade_tco);
    print_table(&trad_spec.name, &trad_reports, trad_tco);

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
        (s, contention_workload(14, 3, 8, 10.0, 11))
    } else {
        let mut s = blade_spec
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        s.name = "MetaBlade-ft64".into();
        (s, contention_workload(40, 4, 28, 12.0, 2002))
    };
    let (ft_sections, ft_compact_fcfs) = contention_sections(&ft_spec, &ft_wl, execs);

    let doc = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("smoke", Json::Bool(smoke)),
        ("workload", workload_json(wl_cfg)),
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
                    cluster_section(&blade_spec, blade_tco, cfg, &blade_reports),
                    cluster_section(&trad_spec, trad_tco, cfg, &trad_reports),
                ]
                .into_iter()
                .chain(ft_sections)
                .collect(),
            ),
        ),
    ]);

    let dir = artifact_dir();
    let bench_name = if smoke {
        "BENCH_sched_smoke.json"
    } else {
        "BENCH_sched.json"
    };
    match write_artifact(&dir, bench_name, &doc.to_string()) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write {bench_name}: {e}"),
    }
    let trace = occupancy_chrome(&easy.occupancy, blade_spec.nodes);
    let stem = artifact_stem("sched_easy", blade_spec.nodes);
    match write_artifact(&dir, &format!("{stem}.trace.json"), &trace) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write occupancy trace: {e}"),
    }
    // Per-link hot-spot counters of the compact fat-tree run — the
    // contention picture the aware allocator is steering around.
    let hotspots = hotspot_chrome(&ft_compact_fcfs);
    let stem = artifact_stem("sched_hotspots", ft_spec.nodes);
    match write_artifact(&dir, &format!("{stem}.trace.json"), &hotspots) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write hot-spot trace: {e}"),
    }
}

const USAGE: &str = "\
sched_sim: batch scheduling on the simulated MetaBlade vs a TCO-equal Beowulf

USAGE:
    sched_sim [--smoke] [--help]

OPTIONS:
    --smoke     Small failure-heavy workload swept across three executor
                policies (the CI determinism gate); writes
                BENCH_sched_smoke.json
    -h, --help  Print this help and exit

Both runs replay the workload under FCFS, EASY backfill and SJF on the
24-node MetaBlade and on the largest traditional Beowulf affordable at
the same TCO, then contrast placement policies on an oversubscribed
fat tree: `lowest` (first-fit) and `compact` (pod-packing) against
`contention` (contention-aware), each with and without ECMP route
spreading (route_spread). The executor for the full run comes from
MB_PARALLEL (with Sequential re-run as the determinism reference).
Documents land in the artifact directory ($MB_TELEMETRY_DIR, default
./traces) together with per-node occupancy and per-link hot-spot
Chrome traces.";

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("sched_sim: unknown argument '{other}'\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        // Small, failure-heavy, and swept across three executors: the
        // CI determinism gate.
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
        run(
            &wl,
            &cfg,
            &[
                ExecPolicy::Sequential,
                ExecPolicy::Parallel { workers: 4 },
                ExecPolicy::Unbounded,
            ],
            true,
        );
        println!("\nsmoke OK: fingerprints identical across executors, EASY > FCFS utilization");
    } else {
        let wl = workload::standard();
        let cfg = SchedConfig {
            failure: Some(FailureConfig::accelerated(400.0, 2002)),
            ..SchedConfig::default()
        };
        // Environment-selected executor first (what the user asked
        // for), Sequential as the determinism reference.
        let env_exec = ExecPolicy::from_env();
        let mut execs = vec![env_exec];
        if env_exec != ExecPolicy::Sequential {
            execs.push(ExecPolicy::Sequential);
        }
        run(&wl, &cfg, &execs, false);
    }
}
