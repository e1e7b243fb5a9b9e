//! `stream_star24` and `stream_ft64` — open-arrival job traffic through
//! the streaming scheduler.
//!
//! On the 24-node star the `sched.engine` loop and `workload`'s arrival
//! and pricing run against a 144-entry cost memo that always hits. On
//! the contended 64-node fat-tree the same engine does contention
//! epochs, per-link accounting by name, placement scoring and repair /
//! requeue, and prices tens of thousands of distinct node sets — memo
//! *misses*. An engine change that helps the lean star path at the
//! expense of link accounting shows on the second and not the first.

use std::cell::RefCell;
use std::time::Instant;

use mb_cluster::contention::{self, JobTraffic};
use mb_cluster::spec::{metablade, ClusterSpec};
use mb_cluster::{ExecPolicy, NetworkModel, NodeSet, Topology};
use mb_sched::{
    generate, simulate, simulate_stream, AdmissionControl, AdmissionCtx, AdmitAll, Arrival,
    ArrivalSource, EasyBackfill, FailureConfig, Fcfs, JobSpec, NpbKernel, Placement, PolicyCtx,
    SchedConfig, SchedPolicy, ServiceOracle, StepProfile, StreamReport, VecArrivals, WorkModel,
    WorkloadConfig,
};
use mb_telemetry::prof::LogHistogram;
use mb_workload::{mgk, ArrivalVec, CostModel, JobMix, OpenArrivals, SloAdmission, TrafficPattern};

use crate::harness::{median, ratio, Checks, Metrics, Pin, Repeat, Rng, Scale, Untraced, Workload};
use crate::trace::{Agg, Clock, Tracer};
use crate::workloads::EXEC;

/// Offered load of every stream, as a share of the machine's capacity.
const RHO: f64 = 0.8;

// ---------------------------------------------------------------------
// Delegating wrappers: the layer boundaries of `simulate_stream`
// ---------------------------------------------------------------------

/// Times every pull from an arrival source.
pub struct TimedArrivals<'a> {
    inner: &'a mut dyn ArrivalSource,
    clock: Clock,
    pub agg: Agg,
}

impl ArrivalSource for TimedArrivals<'_> {
    fn peek_s(&mut self) -> Option<f64> {
        self.agg.time(self.clock, || self.inner.peek_s())
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        self.agg.time(self.clock, || self.inner.next_arrival())
    }
}

/// Times every step the engine asks the oracle to price. The trait's
/// provided methods (`step_on`, `step_s`, `work_s`) all route through
/// `step_profile_on`, so this one method sees every pricing call.
pub struct TimedOracle<'a, S: ServiceOracle> {
    inner: &'a S,
    clock: Clock,
    pub agg: RefCell<Agg>,
}

impl<S: ServiceOracle> ServiceOracle for TimedOracle<'_, S> {
    fn spec(&self) -> &ClusterSpec {
        self.inner.spec()
    }

    fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
        self.agg
            .borrow_mut()
            .time(self.clock, || self.inner.step_profile_on(work, nodes))
    }
}

/// Times every admission decision.
pub struct TimedAdmission<'a> {
    inner: &'a mut dyn AdmissionControl,
    clock: Clock,
    pub agg: Agg,
}

impl AdmissionControl for TimedAdmission<'_> {
    fn class_labels(&self) -> Vec<String> {
        self.inner.class_labels()
    }

    fn admit(&mut self, arrival: &Arrival, ctx: &AdmissionCtx) -> Option<usize> {
        self.agg.time(self.clock, || self.inner.admit(arrival, ctx))
    }
}

/// Times every policy consultation.
pub struct TimedPolicy<'a> {
    inner: &'a dyn SchedPolicy,
    clock: Clock,
    pub agg: RefCell<Agg>,
}

impl SchedPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&self, ctx: &PolicyCtx) -> Vec<usize> {
        self.agg
            .borrow_mut()
            .time(self.clock, || self.inner.select(ctx))
    }
}

/// `simulate_stream` with all four collaborators wrapped; the wrappers'
/// records are folded under the innermost open span of `tr`.
pub fn simulate_stream_traced<S: ServiceOracle>(
    tr: &mut Tracer,
    service: &S,
    policy: &dyn SchedPolicy,
    source: &mut dyn ArrivalSource,
    admission: &mut dyn AdmissionControl,
    cfg: &SchedConfig,
) -> StreamReport {
    let clock = tr.clock();
    let oracle = TimedOracle {
        inner: service,
        clock,
        agg: RefCell::new(Agg::new()),
    };
    let policy = TimedPolicy {
        inner: policy,
        clock,
        agg: RefCell::new(Agg::new()),
    };
    let mut source = TimedArrivals {
        inner: source,
        clock,
        agg: Agg::new(),
    };
    let mut admission = TimedAdmission {
        inner: admission,
        clock,
        agg: Agg::new(),
    };
    let report = simulate_stream(&oracle, &policy, &mut source, &mut admission, cfg);
    tr.fold("workload.arrival", source.agg, false);
    tr.fold("workload.cost", oracle.agg.into_inner(), false);
    tr.fold("workload.admission", admission.agg, false);
    tr.fold("sched.policy", policy.agg.into_inner(), false);
    report
}

// ---------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct StreamCase {
    /// Suffix of `sched.engine.jobs_per_s.<label>`.
    label: &'static str,
    jobs: usize,
    /// EASY backfill under injected node failures, instead of FCFS.
    easy_fail: bool,
}

impl StreamCase {
    fn span(&self) -> String {
        format!("sched.engine.simulate_stream.{}", self.label)
    }

    fn policy_label(&self) -> &'static str {
        if self.easy_fail {
            "easy"
        } else {
            "fcfs"
        }
    }
}

pub struct Stream {
    spec: ClusterSpec,
    mix: JobMix,
    cost: CostModel,
    /// Arrival rate giving [`RHO`] on this machine, jobs per second.
    lambda: f64,
    seed: u64,
    scale: Scale,
    cases: Vec<StreamCase>,
    /// The contended fat-tree variant: contention-aware placement, ECMP
    /// spreading, and a cost memo emptied before every case.
    contended: bool,
}

fn calibrated(spec: &ClusterSpec, mix: &JobMix, exec: ExecPolicy) -> CostModel {
    let mut cost = CostModel::new(spec.clone());
    cost.calibrate(&mix.patterns(), exec);
    cost
}

/// Mean node-seconds one job of the mix demands, from a fixed sample
/// priced by the model — the offered-load knob, as `stream_sim` sets it.
fn mean_demand_node_s(cost: &CostModel, mix: JobMix) -> f64 {
    let n = 2_000;
    let mut src = OpenArrivals::new(TrafficPattern::Poisson { rate_per_s: 1.0 }, mix, n, 1234);
    let mut total = 0.0;
    while let Some(a) = src.next_arrival() {
        total += a.spec.ranks as f64 * cost.work_s(&a.spec.work, a.spec.ranks);
    }
    total / n as f64
}

impl Stream {
    fn build(spec: ClusterSpec, seed: u64, scale: Scale, cases: Vec<StreamCase>) -> Self {
        let mix = JobMix::standard(spec.nodes);
        let cost = calibrated(&spec, &mix, EXEC);
        let lambda = RHO * spec.nodes as f64 / mean_demand_node_s(&cost, mix);
        let contended = spec.network.topology != Topology::Star;
        Stream {
            spec,
            mix,
            cost,
            lambda,
            seed,
            scale,
            cases,
            contended,
        }
    }

    /// `stream_star24`: one long Poisson stream on the 24-node star.
    pub fn star24(seed: u64, scale: Scale) -> Self {
        let case = StreamCase {
            label: "star24",
            jobs: scale.pick(100_000, 6_000),
            easy_fail: false,
        };
        Self::build(metablade(), seed, scale, vec![case])
    }

    /// `stream_ft64`: the same mix on the 64-node `ft16x2o4` fat-tree.
    pub fn ft64(seed: u64, scale: Scale) -> Self {
        let spec = metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let cases = vec![
            StreamCase {
                label: "ft64_fcfs",
                jobs: scale.pick(3_000, 300),
                easy_fail: false,
            },
            StreamCase {
                label: "ft64_easy_fail",
                jobs: scale.pick(3_000, 200),
                easy_fail: true,
            },
        ];
        Self::build(spec, seed, scale, cases)
    }

    fn config(&self, case: &StreamCase) -> SchedConfig {
        SchedConfig {
            lean: true,
            placement: if self.contended {
                Placement::ContentionAware
            } else {
                Placement::Lowest
            },
            route_spread: self.contended,
            failure: case
                .easy_fail
                .then(|| FailureConfig::accelerated(400.0, self.seed)),
            ..SchedConfig::default()
        }
    }

    /// One case's stream through `cost`, optionally traced.
    fn run_case(
        &self,
        cost: &CostModel,
        case: &StreamCase,
        jobs: usize,
        tr: &mut Tracer,
    ) -> (StreamReport, f64) {
        let pattern = TrafficPattern::Poisson {
            rate_per_s: self.lambda,
        };
        let mut src = OpenArrivals::new(pattern, self.mix, jobs, self.seed);
        let mut adm = SloAdmission::standard(self.spec.nodes);
        let policy: &dyn SchedPolicy = if case.easy_fail { &EasyBackfill } else { &Fcfs };
        let cfg = self.config(case);
        if tr.enabled() {
            tr.timed(&case.span(), |tr| {
                simulate_stream_traced(tr, cost, policy, &mut src, &mut adm, &cfg)
            })
        } else {
            tr.timed(&case.span(), |_| {
                simulate_stream(cost, policy, &mut src, &mut adm, &cfg)
            })
        }
    }

    /// Forget every memoized price, keeping the fitted coefficients:
    /// recalibrating over no patterns is `CostModel`'s public way to
    /// invalidate its memo.
    fn clear_memo(&mut self) {
        self.cost.calibrate(&[], EXEC);
    }
}

impl Workload for Stream {
    fn unit(&self) -> &'static str {
        "offered jobs"
    }

    fn repeat(&mut self, tr: &mut Tracer) -> Repeat {
        let mut out = Repeat::default();
        let (mut offered, mut shed, mut completed) = (0u64, 0u64, 0u64);
        let (mut failures, mut requeues, mut links) = (0u64, 0u64, 0u64);
        let (mut util, mut wait_p99, mut contention) = (0.0f64, 0.0f64, 0.0f64);
        let (mut hits, mut misses, mut memo_len) = (0u64, 0u64, 0u64);
        for case in self.cases.clone() {
            if self.contended {
                self.clear_memo();
            }
            let (h0, m0) = (self.cost.memo_hits(), self.cost.memo_misses());
            let (rep, secs) = self.run_case(&self.cost, &case, case.jobs, tr);
            hits += self.cost.memo_hits() - h0;
            misses += self.cost.memo_misses() - m0;
            memo_len = memo_len.max(self.cost.memo_len() as u64);
            out.case(case.label, secs, rep.offered);
            out.hash(
                &format!("sched.stream_fingerprint.{}", case.label),
                rep.stream_fingerprint,
            );
            offered += rep.offered;
            shed += rep.shed;
            completed += rep.sim.jobs.len() as u64;
            failures += u64::from(rep.sim.failures);
            requeues += u64::from(rep.sim.requeues);
            links = links.max(rep.sim.link_bytes.len() as u64);
            util = util.max(rep.sim.utilization);
            if !rep.sim.wait_hist.is_empty() {
                wait_p99 = wait_p99.max(rep.sim.wait_hist.p99());
            }
            contention = contention.max(rep.sim.max_contention_factor);
        }
        // Counters sum over the cases; simulated gauges take the
        // largest case value.
        out.count("sched.offered", offered);
        out.count("sched.shed", shed);
        out.count("sched.completed", completed);
        out.count("sched.failures", failures);
        out.count("sched.requeues", requeues);
        out.count("sched.links_tracked", links);
        out.float("sched.sim_utilization", util);
        out.float("sched.sim_wait_p99_s", wait_p99);
        out.float("sched.sim_max_contention_factor", contention);
        out.count("workload.cost.memo_hits", hits);
        out.count("workload.cost.memo_misses", misses);
        out.count("workload.cost.memo_len", memo_len);
        out
    }

    fn checks(&mut self, checks: &mut Checks) {
        // A model calibrated under another executor prices every job
        // identically, so the stream fingerprint cannot move.
        let case = self.cases[0];
        let jobs = case.jobs.min(self.scale.pick(20_000, 2_000));
        let off = &mut Tracer::off();
        let seq = calibrated(&self.spec, &self.mix, ExecPolicy::Sequential);
        let w8 = calibrated(&self.spec, &self.mix, ExecPolicy::Parallel { workers: 8 });
        let a = self.run_case(&seq, &case, jobs, off).0.stream_fingerprint;
        let b = self.run_case(&w8, &case, jobs, off).0.stream_fingerprint;
        checks.check(
            "stream: fingerprint equal under Sequential- and Parallel{8}-calibrated models",
            a == b,
            || format!("{a:016x} vs {b:016x}"),
        );
        if self.contended {
            return;
        }

        // The degenerate single-class stream is the closed batch.
        let batch_jobs = generate(&WorkloadConfig {
            jobs: 120,
            seed: 5,
            mean_interarrival_s: 200.0,
            max_ranks: 16,
        });
        let cfg = SchedConfig::default();
        let batch = simulate(&seq, &Fcfs, &batch_jobs, &cfg).fingerprint;
        let streamed = simulate_stream(
            &seq,
            &Fcfs,
            &mut VecArrivals::new(&batch_jobs),
            &mut AdmitAll,
            &cfg,
        )
        .sim
        .fingerprint;
        checks.check(
            "stream: single-class stream reproduces simulate()'s fingerprint",
            batch == streamed,
            || format!("batch {batch:016x} vs stream {streamed:016x}"),
        );

        // M/D/6 at rho 0.70 against Allen-Cunneen, at the tolerances
        // EXPERIMENTS.md documents: rho within 0.05, mean wait 25 %.
        let (rho_err, wq_err) = self.mdk_errors(&seq);
        checks.check(
            "stream: M/D/6 utilization within 0.05 of offered load",
            rho_err < 0.05,
            || format!("absolute error {rho_err:.4}"),
        );
        checks.check(
            "stream: M/D/6 mean wait within 25 % of Allen-Cunneen",
            wq_err < 0.25,
            || format!("relative error {wq_err:.4}"),
        );
    }

    fn layers(&mut self, untraced: &Untraced, tr: &Tracer, _pin: &Pin, out: &mut Metrics) {
        for case in &self.cases {
            let jobs = untraced.units(case.label) as f64;
            out.set(
                &format!("sched.engine.jobs_per_s.{}", case.label),
                ratio(jobs, untraced.secs(case.label)),
            );
            let Some(span) = tr.find(&case.span()) else {
                continue;
            };
            out.set(
                &format!("sched.engine.self_ns_per_job.{}", case.label),
                ratio(tr.self_ns(span) as f64, jobs),
            );
            if let Some(agg) = tr.child_agg(span, "sched.policy") {
                out.set(
                    &format!("sched.policy.ns_per_call.{}", case.policy_label()),
                    agg.mean_ns(),
                );
            }
            if let Some(agg) = tr.child_agg(span, "workload.admission") {
                out.set("workload.admission.ns_per_decision", agg.mean_ns());
            }
        }
        if self.contended {
            self.probe_cost_misses(out);
            self.probe_topology(out);
            self.probe_contention_and_placement(out);
        } else {
            self.probe_arrivals(out);
            self.probe_cost_hits(out);
            self.probe_calibration(out);
            probe_histogram(self.scale, out);
        }
    }
}

// ---------------------------------------------------------------------
// Checks and probes
// ---------------------------------------------------------------------

impl Stream {
    /// `(|rho error|, relative mean-wait error)` of an M/D/k stream of
    /// fixed-width EP jobs under seeded Poisson arrivals.
    fn mdk_errors(&self, cost: &CostModel) -> (f64, f64) {
        let width = 4;
        let k = self.spec.nodes / width;
        let work = WorkModel::Npb {
            kernel: NpbKernel::Ep,
            iters: 60,
        };
        let service_s = cost.work_s(&work, width);
        let lambda = 0.70 * k as f64 / service_s;
        // Enough jobs that the sample mean wait converges for every seed.
        let jobs = self.scale.pick(100_000, 20_000);
        let mut rng = Rng::new(self.seed);
        let mut t = 0.0;
        let arrivals: Vec<Arrival> = (0..jobs)
            .map(|id| {
                t += -rng.unit().ln() / lambda;
                Arrival {
                    spec: JobSpec {
                        id,
                        submit_s: t,
                        ranks: width,
                        work,
                    },
                    class: 0,
                }
            })
            .collect();
        let cfg = SchedConfig {
            lean: true,
            ..SchedConfig::default()
        };
        let rep = simulate_stream(
            cost,
            &Fcfs,
            &mut ArrivalVec::new(arrivals),
            &mut AdmitAll,
            &cfg,
        );
        let predicted = mgk::predict(lambda, service_s, 0.0, k);
        let wq = rep.sim.jobs.iter().map(|j| j.wait_s()).sum::<f64>() / jobs as f64;
        (
            (rep.sim.utilization - predicted.rho).abs(),
            ((wq - predicted.wq_s) / predicted.wq_s).abs(),
        )
    }

    fn rate_for(&self, rho: f64) -> f64 {
        self.lambda * rho / RHO
    }

    /// Drain each arrival process alone: generator cost per job.
    fn probe_arrivals(&self, out: &mut Metrics) {
        let jobs = self.scale.pick(100_000, 5_000);
        let patterns = [
            TrafficPattern::Poisson {
                rate_per_s: self.lambda,
            },
            TrafficPattern::Diurnal {
                base_rate_per_s: self.rate_for(0.3),
                peak_rate_per_s: self.rate_for(1.4),
                period_s: 86_400.0,
            },
            TrafficPattern::Bursty {
                on_rate_per_s: self.rate_for(3.0),
                off_rate_per_s: self.rate_for(0.1),
                mean_on_s: 1_800.0,
                mean_off_s: 7_200.0,
            },
        ];
        for pattern in patterns {
            let mut src = OpenArrivals::new(pattern, self.mix, jobs, self.seed);
            let t = Instant::now();
            let mut n = 0u64;
            while let Some(a) = src.next_arrival() {
                std::hint::black_box(a);
                n += 1;
            }
            out.set(
                &format!("workload.arrival.ns_per_job.{}", pattern.label()),
                ratio(t.elapsed().as_secs_f64() * 1e9, n as f64),
            );
        }
    }

    /// Steps to price: every pattern of the mix on seeded node sets.
    fn pricing_inputs(&self, n: usize, distinct: bool) -> Vec<(WorkModel, NodeSet)> {
        let patterns = self.mix.patterns();
        let mut rng = Rng::new(self.seed ^ 0x5eed);
        let nodes = self.spec.nodes;
        (0..n)
            .map(|i| {
                let width = [1, 2, 4, 8, 12, 16][rng.below(6)].min(nodes);
                let ids: Vec<usize> = if distinct {
                    // A random subset: almost surely never priced before.
                    let mut all: Vec<usize> = (0..nodes).collect();
                    for j in 0..width {
                        all.swap(j, j + rng.below(nodes - j));
                    }
                    all[..width].to_vec()
                } else {
                    (0..width).collect()
                };
                (patterns[i % patterns.len()], NodeSet::new(ids))
            })
            .collect()
    }

    fn price_all(&self, inputs: &[(WorkModel, NodeSet)]) -> f64 {
        let t = Instant::now();
        for (work, nodes) in inputs {
            std::hint::black_box(self.cost.step_profile_on(work, nodes));
        }
        t.elapsed().as_secs_f64() * 1e9 / inputs.len() as f64
    }

    fn probe_cost_hits(&self, out: &mut Metrics) {
        let inputs = self.pricing_inputs(self.scale.pick(100_000, 5_000), false);
        self.price_all(&inputs); // memoize every input first
        out.set("workload.cost.hit_ns", self.price_all(&inputs));
    }

    fn probe_cost_misses(&mut self, out: &mut Metrics) {
        let inputs = self.pricing_inputs(self.scale.pick(20_000, 1_000), true);
        self.clear_memo();
        out.set("workload.cost.miss_ns", self.price_all(&inputs));
    }

    fn probe_calibration(&self, out: &mut Metrics) {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(calibrated(&self.spec, &self.mix, EXEC));
                t.elapsed().as_secs_f64()
            })
            .collect();
        out.set("workload.cost.calibrate_s", median(&samples));
    }

    /// Seeded `(src, dst)` pairs through each topology's cost profile,
    /// and routes, named contention links and flight times on the
    /// fat-tree.
    fn probe_topology(&self, out: &mut Metrics) {
        let calls = self.scale.pick(200_000, 10_000);
        let seed = self.seed;
        let ft = self.spec.network.topology;
        let torus = Topology::torus([8, 4, 2]);
        for (topo, cap) in [(Topology::Star, 24), (ft, 64), (torus, 64)] {
            out.set(
                &format!("cluster.topology.path_ns.{}", topo.label()),
                ns_per_pair(seed, calls, cap, |s, d| topo.path(s, d)),
            );
        }
        out.set(
            "cluster.topology.route_ns",
            ns_per_pair(seed, calls, 64, |s, d| ft.route(s, d)),
        );
        let ways = ft.ecmp_ways();
        out.set(
            "cluster.topology.contention_links_ns",
            ns_per_pair(seed, calls, 64, |s, d| {
                ft.contention_links(s, d, (s ^ d) as u64, ways)
            }),
        );
        let net = NetworkModel::new(self.spec.network);
        out.set(
            "cluster.network.flight_between_ns",
            ns_per_pair(seed, calls, 64, |s, d| net.flight_between(s, d, 4096)),
        );
    }

    /// One contention epoch over eight running jobs, and each allocator
    /// on a half-full free map.
    fn probe_contention_and_placement(&self, out: &mut Metrics) {
        let topo = self.spec.network.topology;
        let ways = topo.ecmp_ways();
        let work = WorkModel::Synthetic {
            flops_per_step: 5.0e7,
            msg_kib: 16,
            rounds: 4,
            steps: 1,
        };
        // Eight 8-wide jobs striped across the edge switches, so every
        // job crosses uplinks and shares them with the others.
        let traffic: Vec<JobTraffic> = (0..8)
            .map(|j| {
                let ids: Vec<usize> = (0..8).map(|r| (r * 8 + j) % self.spec.nodes).collect();
                let nodes = NodeSet::new(ids);
                let profile = self.cost.step_profile_on(&work, &nodes);
                contention::job_traffic(
                    &topo,
                    &profile.stats,
                    nodes.ids(),
                    profile.step_s,
                    j as u64,
                    ways,
                )
            })
            .collect();
        let refs: Vec<&JobTraffic> = traffic.iter().collect();
        let gap = self.spec.network.gap_s_per_byte();
        let epochs = self.scale.pick(2_000, 100);
        let t = Instant::now();
        for _ in 0..epochs {
            std::hint::black_box(contention::epoch(&topo, gap, &refs));
        }
        out.set(
            "cluster.contention.epoch_us",
            t.elapsed().as_secs_f64() * 1e6 / epochs as f64,
        );

        let mut rng = Rng::new(self.seed);
        let free: Vec<bool> = (0..self.spec.nodes).map(|_| rng.below(2) == 0).collect();
        let loads = contention::edge_uplink_loads(&refs, self.spec.nodes.div_ceil(16));
        let calls = self.scale.pick(100_000, 5_000);
        let wants: Vec<usize> = (0..calls).map(|_| [1, 2, 4, 8][rng.below(4)]).collect();
        let mut time_alloc = |name: &str, alloc: &dyn Fn(usize) -> Option<NodeSet>| {
            let t = Instant::now();
            for &w in &wants {
                std::hint::black_box(alloc(w));
            }
            out.set(
                &format!("cluster.partition.alloc_ns.{name}"),
                t.elapsed().as_secs_f64() * 1e9 / calls as f64,
            );
        };
        time_alloc("lowest", &|w| NodeSet::alloc_lowest(&free, w));
        time_alloc("compact", &|w| NodeSet::alloc_compact(&free, w, &topo));
        time_alloc("contention_aware", &|w| {
            NodeSet::alloc_contention_aware(&free, w, &topo, &loads)
        });
    }
}

/// Host nanoseconds per call of `f` over `calls` seeded `(src, dst)`
/// pairs of nodes below `cap`.
fn ns_per_pair<R>(seed: u64, calls: usize, cap: usize, f: impl Fn(usize, usize) -> R) -> f64 {
    let mut rng = Rng::new(seed);
    let pairs: Vec<(usize, usize)> = (0..calls)
        .map(|_| (rng.below(cap), rng.below(cap)))
        .collect();
    let t = Instant::now();
    for &(s, d) in &pairs {
        std::hint::black_box(f(s, d));
    }
    t.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// `LogHistogram::observe` alone: the engine records two per job and the
/// tracer one per folded call.
fn probe_histogram(scale: Scale, out: &mut Metrics) {
    let n = scale.pick(10_000_000u64, 200_000);
    let mut h = LogHistogram::new();
    let mut rng = Rng::new(7);
    let t = Instant::now();
    for _ in 0..n {
        // A cheap LCG-like walk over six decades; the generator is a
        // few cycles of the ~ns being measured.
        h.observe((rng.next_u64() >> 44) as f64);
    }
    std::hint::black_box(&h);
    out.set(
        "telemetry.hist_record_ns",
        t.elapsed().as_secs_f64() * 1e9 / n as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_leave_the_stream_fingerprint_unchanged_and_see_every_call() {
        for mut w in [
            Stream::star24(11, Scale::Smoke),
            Stream::ft64(11, Scale::Smoke),
        ] {
            for case in w.cases.clone() {
                if w.contended {
                    w.clear_memo();
                }
                let plain = w.run_case(&w.cost, &case, case.jobs, &mut Tracer::off()).0;
                if w.contended {
                    w.clear_memo();
                }
                let mut tr = Tracer::on();
                let traced = w.run_case(&w.cost, &case, case.jobs, &mut tr).0;
                assert_eq!(
                    traced.stream_fingerprint, plain.stream_fingerprint,
                    "{}",
                    case.label
                );
                assert_eq!(traced.sim.fingerprint, plain.sim.fingerprint);
                let span = tr.find(&case.span()).expect("case span");
                // One pull per offered job plus the draining `None`.
                let arrivals = tr.child_agg(span, "workload.arrival").unwrap();
                assert!(arrivals.count > plain.offered);
                let admits = tr.child_agg(span, "workload.admission").unwrap();
                assert_eq!(admits.count, plain.offered);
                assert!(tr.child_agg(span, "workload.cost").unwrap().count > 0);
                assert!(tr.child_agg(span, "sched.policy").unwrap().count > 0);
                // Serial children never exceed their parent.
                assert!(tr.self_ns(span) <= tr.spans()[span].dur_ns());
            }
        }
    }
}
