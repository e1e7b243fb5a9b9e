//! The cluster and treecode suites of `metablade pins` ([`suite`]): the
//! cluster microbenchmarks and the distributed treecode step, each one
//! stackless body run once as the library runs it and once as its
//! thread-per-rank [`threaded`] twin, emitted as `BENCH_cluster.json` /
//! `BENCH_treecode.json` (schema in `BENCHMARKS.md` at the repo root).
//!
//! The documents carry **simulated values only**: the virtual makespan
//! (slowest rank's virtual clock) and an outcome fingerprint (results +
//! clocks + `CommStats`) under each [`policies`] label, with
//! `identical_across_policies` recording that the two body forms agreed.
//! Every run has one slot whatever the [`ExecPolicy`], so the one
//! fingerprint is written under all four labels until the schema drops
//! them (ROADMAP 3).
//! All of it is bit-identical on every host and in every run, so a
//! regenerated document equals its committed twin exactly — `cargo test`
//! checks that for the smoke documents (`tests/pins.rs`). Host time is
//! measured in one place, the `benchmark/` package.

use std::collections::BTreeMap;

use mb_cluster::machine::{Cluster, SpmdOutcome};
use mb_cluster::spec::{metablade, ClusterSpec};
use mb_cluster::topology::record_link_occupancy;
use mb_cluster::{threaded, Comm, CommStats, ExecPolicy, Stackless, Topology};
use mb_telemetry::artifact::Pins;
use mb_telemetry::json::Json;
use mb_treecode::parallel::{DistributedConfig, ForceStep, StepReport};
use mb_treecode::plummer;

/// Schema tag stamped into every BENCH document. `/2` added the
/// per-record `topology` column and the fat-tree contention sweep
/// (records suffixed `@ft16x2o4`); `/3` dropped every host-side column
/// (wall seconds, speedups, event rates, time stamp, host threads).
pub const SCHEMA: &str = "metablade-bench/3";

/// The oversubscribed fat-tree every contention sweep uses: radix 16,
/// two tiers (256-node capacity), 4:1 uplinks — big enough that the
/// 128-rank cases straddle eight edge switches.
pub fn sweep_fat_tree() -> Topology {
    Topology::fat_tree(16, 2, 4.0)
}

/// Shape of one baseline sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Simulated rank counts for the cluster suite (the paper's machine
    /// is 24 nodes; 128/512/1024 probe executor-engine scaling).
    pub rank_counts: Vec<usize>,
    /// Simulated rank counts for the treecode suite. Capped lower than
    /// the cluster sweep: past ~128 ranks a 20k-body Plummer sphere
    /// leaves too few bodies per rank for the domain decomposition to
    /// say anything about the paper's machine.
    pub treecode_rank_counts: Vec<usize>,
    /// Communication rounds per cluster microbenchmark at small rank
    /// counts; see [`rounds_for`] for the high-rank scaling.
    pub rounds: usize,
    /// Plummer-sphere size for the treecode step.
    pub n_bodies: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            rank_counts: vec![1, 4, 8, 24, 128, 512, 1024],
            treecode_rank_counts: vec![1, 4, 8, 24, 128],
            rounds: 64,
            n_bodies: 20_000,
        }
    }
}

impl SweepConfig {
    /// The seconds-scale configuration of the committed smoke documents
    /// `cargo test` reproduces: 128 ranks, few rounds, a small body count.
    pub fn smoke() -> Self {
        SweepConfig {
            rank_counts: vec![128],
            treecode_rank_counts: vec![128],
            rounds: 4,
            n_bodies: 1_000,
        }
    }
}

/// Communication rounds for one cluster case: `rounds` up to 24 ranks,
/// scaled down as `rounds / (ranks / 16)` (min 1) from 128 ranks up, so
/// the event count per case stays roughly flat and the one-slot `seq`
/// width — where every blocking receive is a full slot hand-off —
/// remains measurable at 1024 ranks. The bench *name* embeds the
/// effective round count, keeping every record self-describing (and
/// pinning this scaling to the committed `BENCH_*.json` names).
pub fn rounds_for(rounds: usize, ranks: usize) -> usize {
    if ranks >= 128 {
        (rounds / (ranks / 16)).max(1)
    } else {
        rounds.max(1)
    }
}

/// The four executor labels each record's `outcome_fingerprints` is
/// keyed by: the executor widths the pins once compared. Every run now
/// has one slot, so all four carry the same fingerprint.
pub fn policies() -> [ExecPolicy; 4] {
    [
        ExecPolicy::Sequential,
        ExecPolicy::Parallel { workers: 2 },
        ExecPolicy::Parallel { workers: 8 },
        ExecPolicy::Unbounded,
    ]
}

// The hasher moved to `mb_telemetry::fnv` (PR 5) so `mb-sched` can
// fingerprint outcomes without depending on the bench harness;
// re-exported here to keep this module's API stable.
pub use mb_telemetry::fnv::Fnv;

/// Fold per-rank [`CommStats`] into a fingerprint: every counter and
/// every virtual-time accumulator, bit-exact.
pub fn hash_stats(h: &mut Fnv, stats: &[CommStats]) {
    for s in stats {
        h.write_u64(s.sends);
        h.write_u64(s.recvs);
        h.write_u64(s.bytes_sent);
        h.write_u64(s.bytes_recv);
        h.write_f64(s.compute_s);
        h.write_f64(s.wait_s);
        h.write_f64(s.send_busy_s);
        h.write_f64(s.recv_busy_s);
    }
}

/// One bench record of a stackless body: run its [`threaded`] twin on
/// `spec` once (`run_threaded`) and write down what it returns — the
/// outcome fingerprint under every [`policies`] label, the virtual
/// makespan and any extra columns (e.g. treecode `gflops`). Fields
/// documented in BENCHMARKS.md. Panics unless the fingerprint equals
/// `stackless`, the fingerprint of the body's stackless run.
fn record<F>(name: &str, spec: &ClusterSpec, stackless: u64, run_threaded: F) -> Json
where
    F: Fn(&Cluster) -> (u64, f64, Vec<(&'static str, Json)>),
{
    let (fp, makespan, extra) = run_threaded(&Cluster::new(spec.clone()));
    assert_eq!(
        fp, stackless,
        "{name} at {} ranks: threaded vs stackless",
        spec.nodes
    );
    let fingerprints: BTreeMap<String, u64> = policies().iter().map(|p| (p.label(), fp)).collect();
    let mut fields = vec![
        ("name", Json::str(name)),
        ("ranks", Json::Num(spec.nodes as f64)),
        ("topology", Json::str(spec.network.topology.label())),
        ("virtual_makespan_s", Json::Num(makespan)),
        ("identical_across_policies", Json::Bool(true)),
        (
            "outcome_fingerprints",
            Json::Obj(
                fingerprints
                    .into_iter()
                    .map(|(k, v)| (k, Json::str(format!("{v:016x}"))))
                    .collect(),
            ),
        ),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

/// Wrap bench records into a full BENCH document.
fn document(suite: &str, cfg_fields: Vec<(&'static str, Json)>, benches: Vec<Json>) -> Json {
    let mut fields = vec![
        ("schema", Json::str(SCHEMA)),
        ("suite", Json::str(suite)),
        (
            "policies",
            Json::Arr(policies().iter().map(|p| Json::str(p.label())).collect()),
        ),
    ];
    fields.extend(cfg_fields);
    fields.push(("benches", Json::Arr(benches)));
    Json::obj(fields)
}

/// Fingerprint a finished SPMD outcome: per-rank result vectors, virtual
/// clocks and every [`CommStats`] field, bit-exact. This is the hash the
/// BENCH documents record per policy and the determinism suite pins
/// against them.
pub fn fingerprint_outcome(out: &SpmdOutcome<Vec<f64>>) -> u64 {
    let mut h = Fnv::new();
    for r in &out.results {
        for v in r {
            h.write_f64(*v);
        }
    }
    for c in &out.clocks {
        h.write_f64(*c);
    }
    hash_stats(&mut h, &out.stats);
    h.finish()
}

/// The `allreduce_32x{rounds}` microbenchmark body: repeated 32-double
/// allreduces with a data-dependent transform and a small compute charge
/// between rounds. Shared with the determinism suite so the committed
/// BENCH fingerprints can be reproduced outside the harness.
pub fn allreduce_job(
    rounds: usize,
) -> Stackless<impl AsyncFn(&mut Comm) -> Vec<f64> + Sync + Copy> {
    Stackless(async move |comm: &mut Comm| {
        let mut v = vec![comm.rank() as f64 + 1.0; 32];
        for _ in 0..rounds {
            v = comm.allreduce_sum_async(&v).await;
            for x in v.iter_mut() {
                *x = (*x / comm.nranks() as f64).sqrt() + 1.0;
            }
            comm.compute(64.0 * v.len() as f64);
        }
        v.push(comm.now());
        v
    })
}

/// The `ring_4KiBx{rounds}` microbenchmark body: 4-KiB payloads around a
/// ring with a per-hop compute charge.
pub fn ring_job(rounds: usize) -> Stackless<impl AsyncFn(&mut Comm) -> Vec<f64> + Sync + Copy> {
    Stackless(async move |comm: &mut Comm| {
        let rank = comm.rank();
        let n = comm.nranks();
        let mut buf = vec![rank as f64; 512]; // 4 KiB payload
        if n > 1 {
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            for _ in 0..rounds {
                comm.send_f64s(next, 5, &buf);
                let got = comm.recv_f64s_async(prev, 5).await;
                buf[0] += got[0] + 1.0;
                comm.compute(buf.len() as f64);
            }
        }
        vec![buf[0], comm.now()]
    })
}

/// The `imbalance_x{rounds}` microbenchmark body: skewed virtual compute
/// (so the conservative scheduler has clock spread to order) plus real
/// host spin (so wall-clock reflects admitted parallelism), barriered.
pub fn imbalance_job(
    rounds: usize,
) -> Stackless<impl AsyncFn(&mut Comm) -> Vec<f64> + Sync + Copy> {
    Stackless(async move |comm: &mut Comm| {
        let rank = comm.rank();
        let mut spin = 0.0f64;
        for round in 0..rounds {
            comm.compute(2e5 * (1 + (rank + round) % 4) as f64);
            for i in 0..2_000u64 {
                spin += ((i + rank as u64) as f64).sqrt();
            }
            comm.barrier_async().await;
        }
        vec![std::hint::black_box(spin), comm.now()]
    })
}

/// Run `job` on `spec` once stackless and once thread-per-rank
/// ([`record`]).
fn run_case<F>(name: &str, spec: &ClusterSpec, job: Stackless<F>) -> Json
where
    F: AsyncFn(&mut Comm) -> Vec<f64> + Sync + Copy,
{
    let stackless = fingerprint_outcome(&Cluster::new(spec.clone()).run(job));
    record(name, spec, stackless, |cluster| {
        let out = cluster.run(threaded(job));
        (fingerprint_outcome(&out), out.makespan_s(), Vec::new())
    })
}

/// The cluster suite: collective, point-to-point and imbalanced-compute
/// microbenchmarks swept over rank counts on the
/// paper's star switch, plus an oversubscribed fat-tree allreduce sweep
/// (records named `…@ft16x2o4`) that measures topology contention at
/// every rank count the tree can wire.
pub fn cluster_baseline(cfg: &SweepConfig) -> Json {
    let star = metablade();
    let ft = sweep_fat_tree();
    let ft_cap = ft.capacity().expect("fat-trees are finite");
    let mut benches = Vec::new();
    for &ranks in &cfg.rank_counts {
        let rounds = rounds_for(cfg.rounds, ranks);
        let spec = star.with_nodes(ranks);
        benches.push(run_case(
            &format!("allreduce_32x{rounds}"),
            &spec,
            allreduce_job(rounds),
        ));
        benches.push(run_case(
            &format!("ring_4KiBx{rounds}"),
            &spec,
            ring_job(rounds),
        ));
        benches.push(run_case(
            &format!("imbalance_x{rounds}"),
            &spec,
            imbalance_job(rounds),
        ));
        if ranks <= ft_cap {
            benches.push(run_case(
                &format!("allreduce_32x{rounds}@{}", ft.label()),
                &spec.with_topology(ft),
                allreduce_job(rounds),
            ));
        }
    }
    document(
        "cluster",
        vec![
            ("rounds", Json::Num(cfg.rounds.max(1) as f64)),
            (
                "topologies",
                Json::Arr(vec![
                    Json::str(star.network.topology.label()),
                    Json::str(ft.label()),
                ]),
            ),
        ],
        benches,
    )
}

/// A traced fat-tree rerun of the allreduce microbenchmark at the
/// sweep's largest tree-wireable rank count, exported as a Chrome trace
/// whose counter tracks carry per-link occupancy
/// (`network/link_bytes` / `network/link_msgs`, one series per named
/// link). This is the `FATTREE_links.trace.json` CI artifact: open it in
/// Perfetto and the oversubscribed `up:`/`down:` links visibly carry the
/// cross-switch halves of each collective. Derived data only — the
/// occupancy fold consumes finished [`CommStats`]; it never feeds back
/// into virtual time.
pub fn fat_tree_link_trace(cfg: &SweepConfig) -> String {
    let ft = sweep_fat_tree();
    let cap = ft.capacity().expect("fat-trees are finite");
    let ranks = cfg
        .rank_counts
        .iter()
        .copied()
        .filter(|&r| r <= cap)
        .max()
        .unwrap_or(8);
    let rounds = rounds_for(cfg.rounds, ranks);
    let cluster = Cluster::new(metablade().with_nodes(ranks).with_topology(ft));
    let (out, trace) = cluster.run_traced(allreduce_job(rounds));
    let occ = ft.link_occupancy(&out.stats, None);
    let mut reg = mb_telemetry::metrics::Registry::new();
    record_link_occupancy(&mut reg, &occ);
    mb_telemetry::chrome::export_with_metrics(&trace, &reg)
}

/// The `treecode_step` fingerprint: makespan, particle state (acc + pot
/// bit patterns) and every rank's [`CommStats`].
fn treecode_fingerprint(report: &StepReport) -> u64 {
    let mut h = Fnv::new();
    h.write_f64(report.makespan_s);
    for a in &report.acc {
        for v in a {
            h.write_f64(*v);
        }
    }
    for p in &report.pot {
        h.write_f64(*p);
    }
    hash_stats(&mut h, &report.comm);
    h.finish()
}

/// The treecode suite: one full distributed force evaluation per rank
/// count, its [`ForceStep::job`] run once stackless and once
/// thread-per-rank (`record`), with virtual makespan, sustained Gflops
/// and `treecode_fingerprint`.
pub fn treecode_baseline(cfg: &SweepConfig) -> Json {
    let bodies = plummer(cfg.n_bodies, 1999);
    let tree_cfg = DistributedConfig::default();
    let benches = cfg
        .treecode_rank_counts
        .iter()
        .map(|&ranks| {
            let spec = metablade().with_nodes(ranks);
            let step = ForceStep::new(ranks, &bodies, &tree_cfg, None);
            let stackless = step.assemble(Cluster::new(spec.clone()).run(step.job()));
            record(
                "treecode_step",
                &spec,
                treecode_fingerprint(&stackless),
                |cluster| {
                    let report = step.assemble(cluster.run(threaded(step.job())));
                    let gflops = vec![("gflops", Json::Num(report.gflops))];
                    (treecode_fingerprint(&report), report.makespan_s, gflops)
                },
            )
        })
        .collect();
    document(
        "treecode",
        vec![
            ("n_bodies", Json::Num(cfg.n_bodies as f64)),
            ("ic", Json::str("plummer(seed=1999)")),
        ],
        benches,
    )
}

/// One host-time-profiled rerun of the imbalance microbenchmark at the
/// sweep's largest rank count, run as its [`threaded`] twin so the
/// profile describes thread wake-ups too. Returns the registry holding
/// the `executor/*` counters and `prof/*` histograms under the label
/// `w8`, the key readers of `PROF_cluster.json` look up until ROADMAP 3
/// retires the policy labels — the artifact [`suite`] returns when
/// `MB_PROF=1`.
///
/// A run of its own, outside the sweep that fills the BENCH documents.
/// Virtual outcomes are unaffected by profiling either way (the
/// determinism suite proves that at 256 ranks).
pub fn profiled_pass(cfg: &SweepConfig) -> mb_telemetry::metrics::Registry {
    let ranks = cfg.rank_counts.iter().copied().max().unwrap_or(8);
    let rounds = rounds_for(cfg.rounds, ranks);
    let cluster = Cluster::new(metablade().with_nodes(ranks)).with_prof(true);
    let out = cluster.run(threaded(imbalance_job(rounds)));
    let mut reg = mb_telemetry::metrics::Registry::new();
    out.exec_report.record_into(&mut reg, "w8");
    reg
}

/// The cluster and treecode suites of `metablade pins`:
/// `BENCH_{cluster,treecode}.json` ([`SweepConfig::default`]), or
/// `…_smoke.json` at [`SweepConfig::smoke`] size, plus the
/// `FATTREE_links.trace.json` artifact and, with `MB_PROF=1`,
/// `PROF_cluster.json`.
pub fn suite(smoke: bool) -> Pins {
    let (cfg, names) = if smoke {
        let names = ["BENCH_cluster_smoke.json", "BENCH_treecode_smoke.json"];
        (SweepConfig::smoke(), names)
    } else {
        let names = ["BENCH_cluster.json", "BENCH_treecode.json"];
        (SweepConfig::default(), names)
    };
    let mut artifacts = vec![(
        "FATTREE_links.trace.json".to_string(),
        fat_tree_link_trace(&cfg),
    )];
    if mb_telemetry::prof::enabled_from_env() {
        let prof = profiled_pass(&cfg).to_json().to_string();
        artifacts.push(("PROF_cluster.json".to_string(), prof));
    }
    Pins {
        docs: vec![
            (names[0], cluster_baseline(&cfg)),
            (names[1], treecode_baseline(&cfg)),
        ],
        artifacts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            rank_counts: vec![1, 4],
            treecode_rank_counts: vec![1, 4],
            rounds: 4,
            n_bodies: 400,
        }
    }

    fn assert_benches_identical(doc: &Json, expected: usize) {
        let benches = doc.get("benches").and_then(Json::as_arr).expect("benches");
        assert_eq!(benches.len(), expected);
        for b in benches {
            assert_eq!(
                b.get("identical_across_policies"),
                Some(&Json::Bool(true)),
                "{:?} diverged across policies",
                b.get("name")
            );
            let fps = b.get("outcome_fingerprints").expect("fingerprints");
            for p in policies() {
                assert!(
                    fps.get(&p.label()).and_then(Json::as_str).is_some(),
                    "missing fingerprint for {}",
                    p.label()
                );
            }
        }
    }

    #[test]
    fn high_rank_round_scaling_keeps_event_counts_flat() {
        assert_eq!(rounds_for(64, 1), 64);
        assert_eq!(rounds_for(64, 24), 64);
        assert_eq!(rounds_for(64, 128), 8);
        assert_eq!(rounds_for(64, 512), 2);
        assert_eq!(rounds_for(64, 1024), 1);
        assert_eq!(rounds_for(4, 1024), 1); // floors at one round
    }

    #[test]
    fn cluster_baseline_outcomes_match_across_policies() {
        let doc = cluster_baseline(&tiny());
        assert_eq!(doc.get("schema"), Some(&Json::str(SCHEMA)));
        assert_eq!(doc.get("suite"), Some(&Json::str("cluster")));
        // Two rank counts × (three star microbenchmarks + the fat-tree
        // allreduce sweep).
        assert_benches_identical(&doc, 2 * 4);
        // Every record carries its topology column; `@`-suffixed names
        // are exactly the fat-tree ones.
        for b in doc.get("benches").and_then(Json::as_arr).unwrap() {
            let name = b.get("name").and_then(Json::as_str).unwrap();
            let topo = b.get("topology").and_then(Json::as_str).unwrap();
            if name.contains('@') {
                assert_eq!(topo, "ft16x2o4", "{name}");
            } else {
                assert_eq!(topo, "star", "{name}");
            }
        }
        // The document round-trips through the dependency-free parser.
        let text = doc.to_string();
        assert_eq!(mb_telemetry::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn fat_tree_allreduce_is_slower_than_the_star_at_equal_ranks() {
        let doc = cluster_baseline(&tiny());
        let benches = doc.get("benches").and_then(Json::as_arr).unwrap();
        let makespan = |name: &str, ranks: f64| {
            benches
                .iter()
                .find(|b| {
                    b.get("name").and_then(Json::as_str) == Some(name)
                        && b.get("ranks").and_then(Json::as_f64) == Some(ranks)
                })
                .and_then(|b| b.get("virtual_makespan_s"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing {name} at {ranks} ranks"))
        };
        // 4 ranks on a radix-16 tree fit under one edge switch: exactly
        // the star. (Contention needs >16 ranks; the committed BENCH
        // documents show it at 24+.)
        assert_eq!(
            makespan("allreduce_32x4@ft16x2o4", 4.0),
            makespan("allreduce_32x4", 4.0)
        );
    }

    #[test]
    fn fat_tree_link_trace_validates_and_names_uplinks() {
        let trace = fat_tree_link_trace(&tiny());
        let summary = mb_telemetry::chrome::validate(&trace).expect("valid Chrome trace");
        assert!(summary.events > 0, "no spans in the traced run");
        assert!(summary.counters > 0, "no link-occupancy counters");
        assert!(
            trace.contains("network/link_bytes") && trace.contains("host-up:"),
            "missing per-link occupancy tracks"
        );
    }

    #[test]
    fn profiled_pass_returns_all_five_prof_histograms() {
        use mb_telemetry::metrics::MetricValue;
        let reg = profiled_pass(&tiny());
        let admissions = reg
            .counter_value("executor/admissions", "w8")
            .expect("executor counters recorded");
        assert!(admissions > 0);
        for name in [
            "prof/task.busy_ns",
            "prof/task.idle_ns",
            "prof/gate.wake_ns",
            "prof/ready.push_ns",
            "prof/ready.pop_ns",
        ] {
            match reg.find(name, "w8") {
                Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), admissions, "{name}"),
                other => panic!("{name}: expected a histogram, got {other:?}"),
            }
        }
    }

    #[test]
    fn treecode_baseline_outcomes_match_across_policies() {
        let doc = treecode_baseline(&tiny());
        assert_eq!(doc.get("suite"), Some(&Json::str("treecode")));
        assert_benches_identical(&doc, 2);
        for b in doc.get("benches").and_then(Json::as_arr).unwrap() {
            let g = b.get("gflops").and_then(Json::as_f64).unwrap();
            assert!(g > 0.0, "gflops must be positive, got {g}");
        }
    }
}
