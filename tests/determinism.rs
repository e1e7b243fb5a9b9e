//! Executor determinism at scale: the regression gate for the
//! event-driven core.
//!
//! Both body forms — a closure rank on a thread of its own through
//! `threaded`, and a stackless rank polled on the calling thread — go
//! through one poll loop over one core (see `mb_cluster::exec`), and must
//! produce bit-identical simulated outcomes — makespan, per-rank clocks,
//! and every `CommStats` counter and virtual-time accumulator — at 256
//! ranks, and must reproduce the fingerprints committed in
//! `BENCH_cluster.json` under every executor label (recorded when those
//! labels were widths of a thread pool). The `ExecPolicy` is accepted and
//! ignored, so each gate runs each form once, and the baseline bodies
//! must report the same admissions under every policy and both forms. A
//! 4 096-rank stackless allreduce checks rank counts no threaded run
//! would be asked to reach. Also asserts that observability (span
//! tracing and executor telemetry) never perturbs virtual time.

use metablade::bench::baseline::{
    allreduce_job, fingerprint_outcome, imbalance_job, policies, ring_job, rounds_for,
};
use metablade::cluster::machine::{Cluster, SpmdOutcome};
use metablade::cluster::spec::metablade as metablade_spec;
use metablade::cluster::{threaded, Comm, Stackless, Topology};
use metablade::sched::engine::Placement;
use metablade::sched::policy::{EasyBackfill, Fcfs, SchedPolicy, Sjf};
use metablade::sched::{
    generate, simulate, simulate_stream, standard, AdmissionControl, AdmitAll, ArrivalSource,
    FailureConfig, JobSpec, NpbKernel, SchedConfig, ServiceModel, ServiceOracle, SimReport,
    StreamReport, VecArrivals, WorkModel, WorkloadConfig,
};
use metablade::telemetry::fnv::Fnv;
use metablade::telemetry::json::{parse, Json};
use metablade::telemetry::prof::LogHistogram;

/// A 256-rank job that exercises collectives, point-to-point rings and
/// skewed compute — enough structure that a scheduling bug would move
/// clock bits somewhere.
fn job_256() -> Stackless<impl AsyncFn(&mut Comm) -> Vec<f64> + Sync + Copy> {
    Stackless(async |comm: &mut Comm| {
        let rank = comm.rank();
        let n = comm.nranks();
        let mut v = vec![rank as f64 + 1.0; 16];
        for round in 0..3 {
            v = comm.allreduce_sum_async(&v).await;
            for x in v.iter_mut() {
                *x = (*x / n as f64).sqrt() + 1.0;
            }
            comm.compute(1e5 * (1 + (rank + round) % 5) as f64);
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            comm.send_f64s(next, 9, &v[..4]);
            let got = comm.recv_f64s_async(prev, 9).await;
            v[0] += got[0];
            comm.barrier_async().await;
        }
        v.push(comm.now());
        v
    })
}

/// The two ways a rank runs, for gates that take the body form as an
/// input.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// Futures polled on the calling thread.
    Stackless,
    /// The same body as a closure, on threads.
    Threaded,
}

/// The runs a gate compares: each body form once.
const FORMS: [Form; 2] = [Form::Threaded, Form::Stackless];

fn run_as<F: AsyncFn(&mut Comm) -> Vec<f64> + Sync>(
    cluster: &Cluster,
    form: Form,
    body: Stackless<F>,
) -> SpmdOutcome<Vec<f64>> {
    match form {
        Form::Stackless => cluster.run(body),
        Form::Threaded => cluster.run(threaded(body)),
    }
}

#[test]
fn outcome_is_bit_identical_across_widths_at_256_ranks() {
    let cluster = Cluster::new(metablade_spec().with_nodes(256));
    let mut prints = Vec::new();
    let mut makespans = Vec::new();
    for form in FORMS {
        let out = run_as(&cluster, form, job_256());
        prints.push((format!("{form:?}"), fingerprint_outcome(&out)));
        makespans.push(out.makespan_s().to_bits());
        // The event core really ran: every rank was admitted at least
        // once per blocking receive.
        assert!(
            out.exec_report.admissions >= 256,
            "{form:?}: {:?}",
            out.exec_report
        );
    }
    let (ref_label, ref_print) = prints[0].clone();
    for (label, print) in &prints[1..] {
        assert_eq!(
            *print, ref_print,
            "{label} diverged from {ref_label} at 256 ranks"
        );
    }
    assert!(
        makespans.windows(2).all(|w| w[0] == w[1]),
        "makespan bits differ across widths and forms"
    );
}

#[test]
fn fat_tree_outcome_is_bit_identical_across_engine_widths_at_256_ranks() {
    // The PR-8 acceptance gate: a 256-rank job on a two-tier
    // oversubscribed fat-tree — whose pairs lie one to three hops
    // apart — still produces bit-identical outcomes at every executor
    // width.
    let spec = metablade_spec()
        .with_nodes(256)
        .with_topology(Topology::fat_tree(16, 2, 4.0));
    let cluster = Cluster::new(spec);
    let mut prints = Vec::new();
    for form in FORMS {
        let out = run_as(&cluster, form, job_256());
        prints.push((
            format!("{form:?}"),
            fingerprint_outcome(&out),
            out.makespan_s().to_bits(),
        ));
    }
    let (ref_label, ref_print, ref_mk) = prints[0].clone();
    for (label, print, mk) in &prints[1..] {
        assert_eq!(
            *print, ref_print,
            "{label} diverged from {ref_label} on the fat-tree at 256 ranks"
        );
        assert_eq!(*mk, ref_mk, "{label}: makespan bits moved");
    }
}

#[test]
fn fat_tree_contention_slows_collectives_versus_the_star_at_128_ranks() {
    let rounds = rounds_for(64, 128);
    let star = Cluster::new(metablade_spec().with_nodes(128)).run(allreduce_job(rounds));
    let ft = Cluster::new(
        metablade_spec()
            .with_nodes(128)
            .with_topology(Topology::fat_tree(16, 2, 4.0)),
    )
    .run(allreduce_job(rounds));
    assert!(
        ft.makespan_s() > star.makespan_s() * 1.05,
        "4:1-oversubscribed fat-tree ({}) not measurably slower than star ({})",
        ft.makespan_s(),
        star.makespan_s()
    );
}

#[test]
fn star_outcomes_reproduce_the_committed_bench_fingerprints() {
    // Pin the simulation against the committed BENCH_cluster.json: the
    // star allreduce at 128 ranks must reproduce the document's
    // fingerprint and makespan bit-for-bit, on any host, at every
    // executor width. This is what "Star stays bit-identical" means — not
    // just self-consistency within one build, but equality with the
    // committed history (whose `seq` entries the deleted legacy scheduler
    // recorded, so this is also the one-slot core's oracle).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_cluster.json");
    let doc = parse(&std::fs::read_to_string(path).expect("committed BENCH_cluster.json"))
        .expect("BENCH_cluster.json parses");
    let rounds = rounds_for(64, 128);
    let name = format!("allreduce_32x{rounds}");
    let rec = doc
        .get("benches")
        .and_then(Json::as_arr)
        .and_then(|bs| {
            bs.iter().find(|b| {
                b.get("name").and_then(Json::as_str) == Some(name.as_str())
                    && b.get("ranks").and_then(Json::as_f64) == Some(128.0)
            })
        })
        .unwrap_or_else(|| panic!("no {name} @ 128 record in BENCH_cluster.json"));
    assert_eq!(
        rec.get("topology").and_then(Json::as_str),
        Some("star"),
        "the pinned record must be the star one"
    );
    let committed_mk = rec
        .get("virtual_makespan_s")
        .and_then(Json::as_f64)
        .expect("virtual makespan");

    let cluster = Cluster::new(metablade_spec().with_nodes(128));
    for form in FORMS {
        let out = run_as(&cluster, form, allreduce_job(rounds));
        for label in policies().map(|p| p.label()) {
            let committed_fp = rec
                .get("outcome_fingerprints")
                .and_then(|f| f.get(&label))
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("no committed {label} fingerprint"));
            assert_eq!(
                format!("{:016x}", fingerprint_outcome(&out)),
                committed_fp,
                "{form:?} {label}: star outcome fingerprint drifted from the committed baseline"
            );
        }
        assert_eq!(
            out.makespan_s().to_bits(),
            committed_mk.to_bits(),
            "{form:?}: star makespan bits drifted from the committed baseline"
        );
    }
}

#[test]
fn a_4096_rank_stackless_allreduce_sums_in_closed_form_under_every_policy() {
    // ROADMAP item 4's scale gate: an order of magnitude past the 512
    // CPUs Dubinski et al. ran, with no thread for any rank. One round of
    // `allreduce_job` sums `rank + 1` over every rank, n(n+1)/2 — exact
    // in f64 — then maps it through `sqrt(sum / n) + 1`. Every policy is
    // the calling thread's one slot, so one run covers them all.
    let n = 4096usize;
    let rounds = rounds_for(64, n);
    assert_eq!(rounds, 1);
    let want = ((n * (n + 1) / 2) as f64 / n as f64).sqrt() + 1.0;
    let out = Cluster::new(metablade_spec().with_nodes(n)).run(allreduce_job(rounds));
    for (rank, v) in out.results.iter().enumerate() {
        assert_eq!(v.len(), 33, "32 sums and the clock");
        assert!(
            v[..32].iter().all(|&x| x == want),
            "rank {rank}: {:?}",
            &v[..4]
        );
    }
    assert_eq!(out.exec_report.nranks, n);
}

/// `body` at `n` ranks under every policy and in both forms: each run's
/// label, outcome fingerprint and executor counters (admissions, peak
/// and histogram of the ready depth).
fn policy_form_runs<F: AsyncFn(&mut Comm) -> Vec<f64> + Sync + Copy>(
    n: usize,
    body: Stackless<F>,
) -> Vec<(String, u64, (u64, usize, LogHistogram))> {
    let mut runs = Vec::new();
    for policy in policies() {
        let cluster = Cluster::new(metablade_spec().with_nodes(n)).with_exec(policy);
        for form in FORMS {
            let out = run_as(&cluster, form, body);
            let rep = &out.exec_report;
            let seen = (rep.admissions, rep.max_ready_depth, rep.depth_hist.clone());
            let label = format!("{} {form:?}", policy.label());
            runs.push((label, fingerprint_outcome(&out), seen));
        }
    }
    runs
}

#[test]
fn baseline_bodies_report_alike_under_every_policy_and_form() {
    // One poll loop drives both body forms, and the policy is accepted
    // and ignored: for each baseline body at the paper's 24 ranks and at
    // the smoke pins' 128, the outcome *and* the executor's own counters
    // are the same under every policy and both forms.
    for n in [24usize, 128] {
        let rounds = rounds_for(16, n);
        for (name, runs) in [
            ("allreduce", policy_form_runs(n, allreduce_job(rounds))),
            ("ring", policy_form_runs(n, ring_job(rounds))),
            ("imbalance", policy_form_runs(n, imbalance_job(rounds))),
        ] {
            let (first, fp, seen) = &runs[0];
            for (label, run_fp, run_seen) in &runs[1..] {
                assert_eq!(run_fp, fp, "{name} at {n}: {label} vs {first} outcome");
                assert_eq!(run_seen, seen, "{name} at {n}: {label} vs {first} report");
            }
        }
    }
}

/// Run one scheduler simulation and return the full `SimReport` (its
/// `fingerprint` folds every job record, requeue and failure
/// bit-exactly).
fn sched_run(
    spec: &metablade::cluster::spec::ClusterSpec,
    policy: &dyn SchedPolicy,
    jobs: &[JobSpec],
    cfg: &SchedConfig,
) -> SimReport {
    let cluster = Cluster::new(spec.clone());
    let service = ServiceModel::new(&cluster);
    simulate(&service, policy, jobs, cfg)
}

#[test]
fn shared_uplink_contention_is_bit_identical_across_executor_widths() {
    // The PR-9 acceptance gate: two jobs whose ring exchanges meet on
    // the same fat-tree uplinks — so the mean-field contention factor
    // is genuinely live — must reproduce, under both the compact and the
    // contention-aware allocator, the fingerprint and makespan every
    // executor width produced on 470c8b1, when the job step still
    // ran thread-per-rank. The step body's own width invariance is
    // `job_step_threaded_twin_matches_stackless_under_every_policy`.
    let spec = metablade_spec()
        .with_nodes(16)
        .with_topology(Topology::fat_tree(4, 2, 4.0));
    let comm_heavy = |id: usize, ranks: usize| JobSpec {
        id,
        submit_s: 0.0,
        ranks,
        work: WorkModel::Synthetic {
            flops_per_step: 1e6,
            msg_kib: 64,
            rounds: 8,
            steps: 120,
        },
    };
    // 6+6 fill group 0 + half of 1 and group 2 + half of 3; the
    // 4-rank straggler must then straddle the two half-used groups, so
    // its flows meet both neighbours' on the l1.s1/l1.s3 uplinks under
    // *every* placement — the contention path is live, not incidental.
    let jobs = [comm_heavy(0, 6), comm_heavy(1, 6), comm_heavy(2, 4)];
    for placement in [Placement::Compact, Placement::ContentionAware] {
        let cfg = SchedConfig {
            placement,
            ..SchedConfig::default()
        };
        let rep = sched_run(&spec, &Fcfs, &jobs, &cfg);
        assert!(
            rep.max_contention_factor > 1.0,
            "{}: no job ever shared an uplink — the gate is vacuous",
            placement.label()
        );
        assert_eq!(
            rep.fingerprint_hex(),
            "0907ee9cd4b29eb7",
            "{}",
            placement.label()
        );
        assert_eq!(
            rep.makespan_s.to_bits(),
            0x404b5ffff3a686a4,
            "{}: makespan bits moved",
            placement.label()
        );
    }
}

/// FNV over everything the contention layer publishes at the report
/// boundary: the `(name, f64 bits)` pairs of `link_bytes` and
/// `link_shared_s` in name order, the `sched.uplink_rate_Bps` series in
/// registry order (label, then every sample's bits), and the
/// `max_contention_factor` bits.
fn report_boundary_fingerprint(rep: &SimReport) -> u64 {
    let mut h = Fnv::new();
    for map in [&rep.link_bytes, &rep.link_shared_s] {
        h.write_usize(map.len());
        for (name, v) in map {
            h.write_str(name);
            h.write_f64(*v);
        }
    }
    for (name, label, value) in rep.registry.iter() {
        if name != "sched.uplink_rate_Bps" {
            continue;
        }
        h.write_str(label);
        let metablade::telemetry::MetricValue::Series(samples) = value else {
            panic!("sched.uplink_rate_Bps{{{label}}} is not a series");
        };
        h.write_usize(samples.len());
        for &(t, v) in samples {
            h.write_f64(t);
            h.write_f64(v);
        }
    }
    h.write_f64(rep.max_contention_factor);
    h.finish()
}

#[test]
fn contended_fat_tree_report_boundary_reproduces_the_string_keyed_engine() {
    // Pinned on the engine as it stood *before* links were interned to
    // integer ids (PR 12): names, per-link sums, the order uplink
    // series are first registered in and the worst factor must all
    // survive the change of key type bit for bit — the run fingerprint
    // alone does not cover them.
    let spec = metablade_spec()
        .with_nodes(64)
        .with_topology(Topology::fat_tree(16, 2, 4.0));
    let jobs = contended_ft64_jobs();
    let base = SchedConfig {
        placement: Placement::ContentionAware,
        route_spread: true,
        ..SchedConfig::default()
    };
    let fail = SchedConfig {
        failure: Some(FailureConfig::accelerated(40_000.0, 7)),
        ..base
    };
    let cases: [(&dyn SchedPolicy, &SchedConfig, &str, &str); 2] = [
        (&Fcfs, &base, "11b6260fad45a775", "e772ac58a999c428"),
        (&EasyBackfill, &fail, "d4ef7d49213822bc", "ca377f67111dee19"),
    ];
    for (policy, cfg, pin_fp, pin_boundary) in cases {
        let rep = sched_run(&spec, policy, &jobs, cfg);
        assert!(
            rep.max_contention_factor > 1.0 && !rep.link_shared_s.is_empty(),
            "{}: no link was ever shared — the gate is vacuous",
            policy.name()
        );
        assert!(
            rep.link_bytes.keys().any(|l| l.contains(".w")),
            "{}: route spreading named no ECMP way",
            policy.name()
        );
        if cfg.failure.is_some() {
            assert!(rep.requeues > 0, "failure injection requeued nothing");
        }
        assert_eq!(rep.fingerprint_hex(), pin_fp, "{}", policy.name());
        assert_eq!(
            format!("{:016x}", report_boundary_fingerprint(&rep)),
            pin_boundary,
            "{}: link telemetry drifted at the report boundary",
            policy.name()
        );
    }
}

/// The 32-job comm-heavy stream of the PR-12 report-boundary gate: on
/// the 64-node ft16x2o4 tree its jobs overlap on the edge uplinks.
fn contended_ft64_jobs() -> Vec<JobSpec> {
    (0..32)
        .map(|id| JobSpec {
            id,
            submit_s: 0.5 * id as f64,
            ranks: [20, 28, 12, 24, 18, 10][id % 6],
            work: WorkModel::Synthetic {
                flops_per_step: 1e6,
                msg_kib: [64, 32, 16][id % 3],
                rounds: 8,
                steps: [120, 200, 80, 160][id % 4],
            },
        })
        .collect()
}

fn digest_hist(h: &mut Fnv, hist: &LogHistogram) {
    let m = hist.to_metric();
    h.write_usize(m.bounds.len());
    for b in &m.bounds {
        h.write_f64(*b);
    }
    h.write_usize(m.counts.len());
    for c in &m.counts {
        h.write_u64(*c);
    }
    h.write_f64(m.sum);
    h.write_u64(m.n);
    h.write_f64(hist.min());
    h.write_f64(hist.max());
}

/// FNV over *every* public field of a [`StreamReport`] and the
/// [`SimReport`] inside it — the whole-report golden the event loop's
/// rewrites are held to. It extends [`report_boundary_fingerprint`]
/// (folded in as its first word) with every job-record field, each
/// scalar's bits, all histograms in their metric form, the occupancy
/// spans in report order, the registry both in registration order
/// (names and labels) and rendered through `to_json()` (every counter,
/// gauge, histogram and series sample), the per-class counters and both
/// fingerprints.
fn whole_report_digest(rep: &StreamReport) -> u64 {
    let sim = &rep.sim;
    let mut h = Fnv::new();
    h.write_u64(report_boundary_fingerprint(sim));
    h.write_str(sim.policy);
    h.write_usize(sim.jobs.len());
    for r in &sim.jobs {
        h.write_usize(r.id);
        h.write_usize(r.ranks);
        h.write_f64(r.submit_s);
        h.write_f64(r.start_s);
        h.write_f64(r.end_s);
        h.write_f64(r.clean_service_s);
        h.write_u64(u64::from(r.restarts));
        h.write_f64(r.lost_work_s);
    }
    for v in [
        sim.makespan_s,
        sim.utilization,
        sim.mean_wait_s,
        sim.mean_slowdown,
        sim.jobs_per_hour,
        sim.lost_work_s,
        sim.max_contention_factor,
    ] {
        h.write_f64(v);
    }
    h.write_u64(u64::from(sim.failures));
    h.write_u64(u64::from(sim.requeues));
    digest_hist(&mut h, &sim.wait_hist);
    digest_hist(&mut h, &sim.slowdown_hist);
    h.write_usize(sim.occupancy.len());
    for s in &sim.occupancy {
        h.write_usize(s.node);
        h.write_f64(s.t0_s);
        h.write_f64(s.t1_s);
        h.write_usize(s.job);
        h.write_u64(u64::from(s.attempt));
    }
    h.write_usize(sim.registry.len());
    for (name, label, _) in sim.registry.iter() {
        h.write_str(name);
        h.write_str(label);
    }
    h.write_str(&sim.registry.to_json().to_string());
    h.write_u64(sim.fingerprint);
    h.write_usize(rep.classes.len());
    for c in &rep.classes {
        h.write_str(&c.label);
        h.write_u64(c.offered);
        h.write_u64(c.admitted);
        h.write_u64(c.shed);
        h.write_u64(c.completed);
        digest_hist(&mut h, &c.wait_hist);
        digest_hist(&mut h, &c.slowdown_hist);
    }
    h.write_u64(rep.offered);
    h.write_u64(rep.shed);
    h.write_u64(rep.stream_fingerprint);
    h.finish()
}

fn golden_run(
    service: &dyn ServiceOracle,
    policy: &dyn SchedPolicy,
    source: &mut dyn ArrivalSource,
    admission: &mut dyn AdmissionControl,
    cfg: &SchedConfig,
) -> (StreamReport, String) {
    let rep = simulate_stream(service, policy, source, admission, cfg);
    let digest = format!("{:016x}", whole_report_digest(&rep));
    (rep, digest)
}

// The three whole-report goldens below were recorded on commit bd188f6
// (PR 12), the last one whose `simulate_stream` was a single 630-line
// loop, before the first edit that turned it into the `Engine` state
// machine. The run fingerprints only cover job records, busy
// node-seconds, the makespan and the failure count; these digests hold
// every other reported bit (occupancy, queue-depth and uplink series,
// histograms, per-class counters, registry order) to that loop too.

#[test]
fn whole_report_golden_star_easy_with_failures() {
    let cluster = Cluster::new(metablade_spec());
    let service = ServiceModel::new(&cluster);
    let cfg = SchedConfig {
        failure: Some(FailureConfig::accelerated(400.0, 2002)),
        ..SchedConfig::default()
    };
    let mut source = VecArrivals::new(&generate(&standard()));
    let (rep, digest) = golden_run(&service, &EasyBackfill, &mut source, &mut AdmitAll, &cfg);
    assert!(
        rep.sim.failures > 0 && rep.sim.requeues > 0,
        "the golden must cross the failure and requeue paths"
    );
    assert!(!rep.sim.occupancy.is_empty() && rep.sim.link_bytes.is_empty());
    assert_eq!(digest, "b3b40a9ca7f621a8");
}

/// PR 12's contended stream (64-node ft16x2o4, contention-aware
/// placement, ECMP spreading) under `policy`, with or without failures.
fn contended_fat_tree_golden(policy: &dyn SchedPolicy, failures: bool, pin: &str) {
    let spec = metablade_spec()
        .with_nodes(64)
        .with_topology(Topology::fat_tree(16, 2, 4.0));
    let cluster = Cluster::new(spec);
    let service = ServiceModel::new(&cluster);
    let cfg = SchedConfig {
        placement: Placement::ContentionAware,
        route_spread: true,
        failure: failures.then(|| FailureConfig::accelerated(40_000.0, 7)),
        ..SchedConfig::default()
    };
    let mut source = VecArrivals::new(&contended_ft64_jobs());
    let (rep, digest) = golden_run(&service, policy, &mut source, &mut AdmitAll, &cfg);
    assert!(rep.sim.max_contention_factor > 1.0 && !rep.sim.link_shared_s.is_empty());
    assert!(
        rep.sim
            .registry
            .iter()
            .any(|(name, _, _)| name == "sched.uplink_rate_Bps"),
        "no uplink series was registered"
    );
    assert_eq!(rep.sim.requeues > 0, failures);
    assert_eq!(digest, pin);
}

#[test]
fn whole_report_golden_contended_fat_tree_fcfs() {
    contended_fat_tree_golden(&Fcfs, false, "292e3774ea23c726");
}

#[test]
fn whole_report_golden_contended_fat_tree_easy_with_failures() {
    contended_fat_tree_golden(&EasyBackfill, true, "c2217697c080a94d");
}

/// A comm-heavy stream with failures on a 4×4×2 torus: its jobs share
/// router links, and since a torus has no edge uplinks to score,
/// `ContentionAware` places every job as `Compact` does, down to every
/// reported bit.
#[test]
fn a_torus_stream_contends_and_contention_aware_places_as_compact() {
    let spec = metablade_spec()
        .with_nodes(32)
        .with_topology(Topology::torus([4, 4, 2]));
    let cluster = Cluster::new(spec);
    let service = ServiceModel::new(&cluster);
    let jobs = metablade::sched::comm_heavy(24, 3, 12, 10.0, 11);
    let run = |placement| {
        let cfg = SchedConfig {
            placement,
            failure: Some(FailureConfig::accelerated(40_000.0, 7)),
            ..SchedConfig::default()
        };
        let mut source = VecArrivals::new(&jobs);
        golden_run(&service, &EasyBackfill, &mut source, &mut AdmitAll, &cfg)
    };
    let (compact, compact_digest) = run(Placement::Compact);
    let sim = &compact.sim;
    assert!(sim.max_contention_factor > 1.0, "no job was slowed");
    assert!(!sim.link_shared_s.is_empty(), "no link was shared");
    assert!(sim.requeues > 0, "no running job was struck");
    assert_eq!(run(Placement::ContentionAware).1, compact_digest);
}

/// A three-class Poisson stream on the star offered far above
/// capacity: every class queue hits its limit, latency overflow is shed
/// and batch overflow demoted.
fn three_class_slo_golden(lean: bool, pin: &str) {
    use mb_workload::{CostModel, JobMix, OpenArrivals, SloAdmission, TrafficPattern};
    let mut cost = CostModel::new(metablade_spec());
    cost.calibrate(&JobMix::standard(24).patterns(), Default::default());
    let mut source = OpenArrivals::new(
        TrafficPattern::Poisson { rate_per_s: 0.5 },
        JobMix::standard(24),
        3_000,
        3,
    );
    let mut admission = SloAdmission::standard(24);
    let cfg = SchedConfig {
        lean,
        ..SchedConfig::default()
    };
    let (rep, digest) = golden_run(&cost, &Fcfs, &mut source, &mut admission, &cfg);
    assert_eq!(rep.classes.len(), 3);
    assert!(rep.shed > 0, "overload must shed");
    assert!(
        rep.classes[2].admitted + rep.classes[2].shed > rep.classes[2].offered,
        "expected batch->scavenger demotion under overload"
    );
    assert_eq!(rep.sim.occupancy.is_empty(), lean);
    assert_eq!(digest, pin);
}

#[test]
fn whole_report_golden_three_class_slo_stream_lean() {
    three_class_slo_golden(true, "0516843b059c32ff");
}

#[test]
fn whole_report_golden_three_class_slo_stream_full() {
    three_class_slo_golden(false, "042b50cf3296a21f");
}

#[test]
fn star_and_single_job_runs_reproduce_pre_contention_fingerprints() {
    // The contention layer's no-op guarantee, pinned against history:
    // these fingerprints were captured from the engine *before* link
    // accounting existed (schema metablade-sched/2). Star runs bypass
    // traffic accounting entirely, and a lone job on a fat tree shares
    // no link with anyone — so with contention compiled in, every one
    // of these outcomes must still reproduce bit for bit.
    let star = metablade_spec();
    let stream = generate(&WorkloadConfig {
        jobs: 40,
        seed: 11,
        mean_interarrival_s: 180.0,
        max_ranks: 24,
    });
    let nofail = SchedConfig::default();
    let fail = SchedConfig {
        failure: Some(FailureConfig::accelerated(2000.0, 3)),
        ..SchedConfig::default()
    };
    let policies: [(&dyn SchedPolicy, &str); 3] =
        [(&Fcfs, "fcfs"), (&EasyBackfill, "easy"), (&Sjf, "sjf")];
    let pinned_nofail = [
        ("fcfs", "ddd60c626b546613"),
        ("easy", "afd32e4b95806a0c"),
        ("sjf", "16d0cba34212c2a2"),
    ];
    let pinned_fail = [
        ("fcfs", "e6f56ced2ea60691"),
        ("easy", "81cb5db6b4a10f88"),
        ("sjf", "67101a6400156499"),
    ];
    for (cfg, pinned) in [(&nofail, &pinned_nofail), (&fail, &pinned_fail)] {
        for ((policy, name), (pin_name, pin_fp)) in policies.iter().zip(pinned) {
            assert_eq!(name, pin_name);
            let rep = sched_run(&star, *policy, &stream, cfg);
            assert_eq!(
                rep.fingerprint_hex(),
                *pin_fp,
                "star {name} stream drifted from the pre-contention engine"
            );
            assert_eq!(rep.max_contention_factor, 1.0);
            assert!(rep.link_bytes.is_empty(), "star run accounted fabric links");
        }
    }

    // Single jobs: one on the star, one each on a small and a large
    // oversubscribed fat tree (placement factors and path profiles
    // active, contention idle).
    let single = |ranks: usize| {
        vec![JobSpec {
            id: 0,
            submit_s: 0.0,
            ranks,
            work: WorkModel::Npb {
                kernel: NpbKernel::Is,
                iters: 64,
            },
        }]
    };
    let cases: [(metablade::cluster::spec::ClusterSpec, usize, &str); 3] = [
        (metablade_spec(), 8, "fd08038eecb12844"),
        (
            metablade_spec()
                .with_nodes(16)
                .with_topology(Topology::fat_tree(4, 2, 4.0)),
            12,
            "b8689c22c8c31f59",
        ),
        (
            metablade_spec()
                .with_nodes(32)
                .with_topology(Topology::fat_tree(16, 2, 4.0)),
            24,
            "5e08e50064250b9d",
        ),
    ];
    for (spec, ranks, pin_fp) in cases {
        let rep = sched_run(&spec, &Fcfs, &single(ranks), &SchedConfig::default());
        assert_eq!(
            rep.fingerprint_hex(),
            pin_fp,
            "single {ranks}-rank job on {} drifted from the pre-contention engine",
            spec.network.topology.label()
        );
        assert_eq!(rep.max_contention_factor, 1.0);
        assert!(
            rep.link_shared_s.is_empty(),
            "a lone job cannot share a link with itself"
        );
    }
}

#[test]
fn tracing_and_telemetry_do_not_perturb_virtual_time_at_256_ranks() {
    let cluster = Cluster::new(metablade_spec().with_nodes(256));
    let plain = cluster.run(threaded(job_256()));
    let (traced, trace) = cluster.run_traced(threaded(job_256()));
    assert_eq!(
        fingerprint_outcome(&plain),
        fingerprint_outcome(&traced),
        "attaching trace sinks changed simulated outcomes"
    );
    assert!(!trace.is_empty(), "traced run produced no spans");
    // A traced stackless run records the same outcome and the same spans.
    let (stackless, stackless_trace) = cluster.run_traced(job_256());
    assert_eq!(
        fingerprint_outcome(&stackless),
        fingerprint_outcome(&plain),
        "a traced stackless run changed simulated outcomes"
    );
    assert_eq!(stackless_trace.ranks, trace.ranks, "stackless spans differ");

    // Executor telemetry flows into the registry and the Chrome
    // exporter without touching the simulation.
    let mut reg = metablade::telemetry::metrics::Registry::new();
    traced.exec_report.record_into(&mut reg, "w8");
    assert_eq!(
        reg.counter_value("executor/admissions", "w8"),
        Some(traced.exec_report.admissions),
    );
    let chrome = metablade::telemetry::chrome::export_with_metrics(&trace, &reg);
    let summary = metablade::telemetry::chrome::validate(&chrome).expect("valid chrome trace");
    assert!(summary.events > 0);
    assert!(
        chrome.contains("executor/admissions"),
        "executor counters missing from Chrome export"
    );
}

#[test]
fn host_time_profiling_does_not_perturb_virtual_time_at_256_ranks() {
    // The ISSUE-7 acceptance gate: fingerprints must be bit-identical
    // with profiling enabled vs disabled — host-clock instrumentation
    // (thread wake latency, busy/idle spans, heap push/pop timing) reads
    // `Instant` only and never a virtual clock. Thread ranks, since
    // thread wake-ups are part of what the profile times.
    let cluster = Cluster::new(metablade_spec().with_nodes(256));
    let off = cluster.clone().with_prof(false).run(threaded(job_256()));
    let on = cluster.clone().with_prof(true).run(threaded(job_256()));
    assert_eq!(
        fingerprint_outcome(&off),
        fingerprint_outcome(&on),
        "host-time profiling changed simulated outcomes"
    );
    assert!(off.exec_report.prof.is_none());
    let rep = &on.exec_report;
    let p = rep.prof.as_ref().expect("profile captured");
    for (name, h) in [
        ("busy", &p.busy_ns),
        ("idle", &p.idle_ns),
        ("wake", &p.wake_ns),
        ("push", &p.push_ns),
        ("pop", &p.pop_ns),
    ] {
        assert_eq!(h.count(), rep.admissions, "one {name} sample per admission");
    }
    assert!(p.wake_ns.p50() <= p.wake_ns.p99());

    // The profile flows through both export surfaces: registry →
    // Chrome counters and JSON.
    let mut reg = metablade::telemetry::metrics::Registry::new();
    rep.record_into(&mut reg, "w8");
    let chrome = metablade::telemetry::chrome::export_with_metrics(&Default::default(), &reg);
    metablade::telemetry::chrome::validate(&chrome).expect("valid chrome trace");
    assert!(
        chrome.contains("prof/task.busy_ns"),
        "prof histograms missing from Chrome export"
    );
    let doc = metablade::telemetry::json::parse(&reg.to_json().to_string()).expect("JSON parses");
    let busy = doc
        .get("prof/task.busy_ns{w8}")
        .expect("prof histograms missing from JSON export");
    assert_eq!(
        busy.get("n").and_then(|n| n.as_f64()),
        Some(rep.admissions as f64)
    );
}

// The two goldens below were recorded on commit afa930e, before Table 3's
// kernels became one `Kernel` enum over one ADI frame and before a job's
// step shape moved into `WorkModel::shape`, which both `run_step` and the
// closed-form cost model now read.

#[test]
fn table3_class_s_op_mixes_and_mops_reproduce_the_parent_golden() {
    use metablade::core::experiments::table3;
    use metablade::npb::{Class, Kernel};
    let mut h = Fnv::new();
    for kernel in Kernel::ALL {
        let r = kernel.run(Class::S);
        let m = r.mix;
        for v in [
            m.fadd,
            m.fmul,
            m.fdiv,
            m.fsqrt,
            m.int_ops,
            m.loads,
            m.stores,
            m.branches,
            m.useful_ops,
            m.dram_bytes,
        ] {
            h.write_u64(v);
        }
        h.write_f64(m.fma_fusable);
        h.write_u64(u64::from(r.verified));
    }
    for row in table3(Class::S) {
        for v in row.mops {
            h.write_f64(v);
        }
    }
    assert_eq!(format!("{:016x}", h.finish()), "0fdad1ae03779a73");
}

/// `step_s` bits and every `CommStats` field, peers included.
fn digest_profile(h: &mut Fnv, p: &metablade::sched::StepProfile) {
    h.write_f64(p.step_s);
    h.write_usize(p.stats.len());
    for st in p.stats.iter() {
        for v in [st.sends, st.recvs, st.bytes_sent, st.bytes_recv] {
            h.write_u64(v);
        }
        for v in [st.compute_s, st.wait_s, st.send_busy_s, st.recv_busy_s] {
            h.write_f64(v);
        }
        for (peer, t) in st.peers.iter() {
            h.write_usize(peer);
            for v in [t.msgs_to, t.bytes_to, t.msgs_from, t.bytes_from] {
                h.write_u64(v);
            }
        }
    }
}

#[test]
fn every_step_shape_prices_and_runs_as_the_parent_golden() {
    use mb_workload::{CostModel, JobMix};
    use metablade::cluster::NodeSet;
    // Uncalibrated, so the raw closed-form features price every step:
    // on the star at every width, and on a 64-node ft16x2o4 over one
    // node set per width that spans the whole tree.
    let star = CostModel::new(metablade_spec());
    let ft = CostModel::new(
        metablade_spec()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0)),
    );
    // The executor running `run_step` itself.
    let cluster = Cluster::new(metablade_spec());
    let service = ServiceModel::new(&cluster);
    let mut h = Fnv::new();
    for work in &JobMix::standard(24).patterns() {
        for w in 1..=24usize {
            let prefix = NodeSet::new((0..w).collect());
            digest_profile(&mut h, &star.step_profile_on(work, &prefix));
            let spanning = NodeSet::new((0..w).map(|i| i * 64 / w).collect());
            digest_profile(&mut h, &ft.step_profile_on(work, &spanning));
        }
        for w in [1usize, 2, 3, 8, 24] {
            let prefix = NodeSet::new((0..w).collect());
            digest_profile(&mut h, &service.step_profile_on(work, &prefix));
        }
    }
    assert_eq!(format!("{:016x}", h.finish()), "0d6484b6035e98dd");
}

/// Digest of one run of a job step: `step_s` and every `CommStats`
/// field, as [`digest_profile`] folds a `StepProfile`, then every rank's
/// clock.
fn step_run_digest(out: &SpmdOutcome<()>) -> u64 {
    let mut h = Fnv::new();
    let profile = metablade::sched::StepProfile {
        step_s: out.makespan_s(),
        stats: std::sync::Arc::new(out.stats.clone()),
    };
    digest_profile(&mut h, &profile);
    for c in &out.clocks {
        h.write_f64(*c);
    }
    h.finish()
}

#[test]
fn job_step_threaded_twin_matches_stackless_under_every_policy() {
    // The scheduler prices every job by running `WorkModel::run_step`
    // stackless; this is where that body's form invariance is checked.
    // Its thread-per-rank twin must reproduce it bit for bit (one run:
    // the policy is accepted and ignored), for every step shape of the
    // standard mix, on the star and on node sets that span a 64-node
    // ft16x2o4.
    use mb_workload::JobMix;
    use metablade::cluster::NodeSet;
    let star = metablade_spec();
    let ft = metablade_spec()
        .with_nodes(64)
        .with_topology(Topology::fat_tree(16, 2, 4.0));
    for work in &JobMix::standard(24).patterns() {
        let body = Stackless(async |comm: &mut Comm| work.run_step(comm).await);
        for w in [1usize, 2, 3, 8, 24] {
            let prefix = NodeSet::new((0..w).collect());
            let spanning = NodeSet::new((0..w).map(|i| i * 64 / w).collect());
            for (spec, nodes) in [(&star, &prefix), (&ft, &spanning)] {
                let cluster = Cluster::new(spec.clone());
                let stackless = step_run_digest(&cluster.run_on(nodes, body));
                assert_eq!(
                    step_run_digest(&cluster.run_on(nodes, threaded(body))),
                    stackless,
                    "{:?} at width {w} on {}: threaded vs stackless",
                    work.step_key(),
                    spec.network.topology.label(),
                );
            }
        }
    }
}
