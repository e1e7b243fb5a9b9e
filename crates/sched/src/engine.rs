//! The virtual-time scheduling engine.
//!
//! [`simulate`] drives a job stream through one cluster under one
//! policy: a discrete-event loop over arrivals, completions, node
//! failures (from [`mb_cluster::reliability::sample_failures`]) and
//! repairs. Job service times come from a [`ServiceModel`] that lowers
//! each distinct `(executor policy, node set, step pattern)` triple onto
//! the simulated cluster exactly once via [`Cluster::run_on`];
//! checkpoint/restart
//! overhead and failure rework follow the Young/Daly
//! [`CheckpointModel`]. Everything is a pure function of its inputs —
//! the run fingerprint is bit-identical under every `MB_PARALLEL`
//! executor setting, which is the determinism contract tested in
//! `tests/acceptance.rs` and documented in DESIGN.md §10.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mb_cluster::checkpoint::CheckpointModel;
use mb_cluster::contention::{self, ContentionEpoch, EpochScratch, JobTraffic};
use mb_cluster::reliability::{sample_failures, FailureLaw};
use mb_cluster::spec::ClusterSpec;
use mb_cluster::{Cluster, CommStats, ExecPolicy, LinkId, LinkIds, NodeSet, Topology};
use mb_telemetry::prof::LogHistogram;
use mb_telemetry::{Fnv, MetricHandle, Registry};

use crate::job::{JobRecord, JobSpec, WorkModel};
use crate::policy::{PolicyCtx, QueuedJob, RunningJob, SchedPolicy};
use crate::stream::{
    AdmissionControl, AdmissionCtx, ArrivalSource, ClassReport, StreamReport, VecArrivals,
};

/// Node-failure injection for a simulated run.
///
/// Failures are sampled over `accel` calendar years of the paper's
/// failure process and compressed onto the workload's virtual-second
/// timeline, so a multi-hour batch trace sees a realistic (rather than
/// vanishing) number of events. The checkpoint interval uses the same
/// accelerated MTBF, keeping the Young/Daly optimality condition
/// consistent with the injected rate.
#[derive(Debug, Clone, Copy)]
pub struct FailureConfig {
    /// The failure process (rate and thermal law).
    pub law: FailureLaw,
    /// Component temperature, °C.
    pub temp_c: f64,
    /// Time-acceleration factor (≥ 1): `accel` years of failures are
    /// mapped onto one year of virtual time.
    pub accel: f64,
    /// Node repair time after a failure, virtual seconds.
    pub repair_s: f64,
    /// Seed for the failure timeline.
    pub seed: u64,
}

impl FailureConfig {
    /// Paper-default law at a bladed enclosure's 45 °C, 30-minute
    /// repairs, with the given acceleration and seed.
    pub fn accelerated(accel: f64, seed: u64) -> Self {
        assert!(accel > 0.0, "acceleration must be positive");
        Self {
            law: FailureLaw::paper_default(),
            temp_c: 45.0,
            accel,
            repair_s: 1800.0,
            seed,
        }
    }
}

/// How the dispatcher maps a picked job onto free nodes.
///
/// On star-networked machines the two strategies produce identical
/// virtual time (placement is cost-free there), but on fat-trees and
/// tori a job that spans switch boundaries pays oversubscribed-uplink
/// costs — `Compact` packs jobs under one edge switch when it can.
/// Either way allocation stays a pure function of the free mask, so the
/// run fingerprint stays executor-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Placement {
    /// Lowest free node ids first (the classic allocator; the committed
    /// BENCH_sched baselines were produced with it).
    #[default]
    Lowest,
    /// Topology-aware: fullest switch/ring group first
    /// ([`NodeSet::alloc_compact`]).
    Compact,
    /// Contention-aware: like `Compact`, but candidate allocations are
    /// scored against the uplink traffic of the in-flight job mix and
    /// spanning jobs land on the quietest switch groups
    /// ([`NodeSet::alloc_contention_aware`]); ties fall back to the
    /// compact choice.
    ContentionAware,
}

impl Placement {
    /// Stable lowercase label for bench records.
    pub fn label(self) -> &'static str {
        match self {
            Placement::Lowest => "lowest",
            Placement::Compact => "compact",
            Placement::ContentionAware => "contention",
        }
    }
}

/// Engine configuration: checkpointing parameters plus optional
/// failure injection.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Checkpoint/restart cost model (Young/Daly).
    pub checkpoint: CheckpointModel,
    /// Failure injection; `None` runs a failure-free (and
    /// checkpoint-free) simulation.
    pub failure: Option<FailureConfig>,
    /// Node-allocation strategy at dispatch.
    pub placement: Placement,
    /// Deterministic ECMP-style route spreading for cross-job
    /// contention accounting: each job's fabric flows hash over the
    /// topology's parallel uplinks ([`Topology::ecmp_ways`]) instead of
    /// piling onto one logical pipe. Affects only which links jobs
    /// *share* (and hence the mean-field slowdown), never a single
    /// job's isolated cost.
    pub route_spread: bool,
    /// Skip the O(events) telemetry that only reporting consumes —
    /// per-node occupancy spans, the queue-depth series and the
    /// per-event `sched.uplink_rate_Bps` samples (one per loaded fabric
    /// link per event, so no such series is registered at all).
    /// Million-job streams set this; it never changes the simulated
    /// timeline or the fingerprint (none of them feeds the outcome
    /// hash), and the per-link `link_bytes` / `link_shared_s` totals
    /// are still kept.
    pub lean: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            // 72 s checkpoints, 180 s restarts: small against the
            // multi-hundred-second jobs the workload generator emits.
            checkpoint: CheckpointModel {
                checkpoint_h: 0.02,
                restart_h: 0.05,
            },
            failure: None,
            placement: Placement::default(),
            route_spread: false,
            lean: false,
        }
    }
}

/// Checkpoint accounting for one run attempt. With no failure config
/// the interval is infinite and every charge degenerates to zero
/// overhead.
struct CkptCharge {
    tau_s: f64,
    ckpt_s: f64,
    restart_s: f64,
}

impl CkptCharge {
    /// Restart pad charged at the head of a resumed attempt.
    fn pad_s(&self, resumed: bool) -> f64 {
        if resumed {
            self.restart_s
        } else {
            0.0
        }
    }

    /// Failure-free wall time for `work_s` of useful work: the work
    /// plus one checkpoint per (possibly partial) interval, plus the
    /// restart pad when resuming from a checkpoint.
    fn wall_for(&self, work_s: f64, resumed: bool) -> f64 {
        let pad = self.pad_s(resumed);
        if self.tau_s.is_infinite() {
            return work_s + pad;
        }
        let n_ckpt = (work_s / self.tau_s).ceil().max(1.0);
        work_s + n_ckpt * self.ckpt_s + pad
    }

    /// Progress after `elapsed_s` of wall time in an attempt that began
    /// with `pad_s` of restart overhead: `(checkpointed work,
    /// uncheckpointed loss)` — only whole `tau + ckpt` segments count
    /// as saved.
    fn progress(&self, elapsed_s: f64, pad_s: f64, work_s: f64) -> (f64, f64) {
        let eff = (elapsed_s - pad_s).max(0.0);
        if self.tau_s.is_infinite() {
            return (0.0, eff.min(work_s));
        }
        let seg = self.tau_s + self.ckpt_s;
        let whole = (eff / seg).floor();
        let done = (whole * self.tau_s).min(work_s);
        let lost = (eff - whole * seg).max(0.0);
        (done, lost)
    }
}

/// Memoizing service-time oracle: lowers one step of a work pattern
/// onto a node subset of the cluster (via [`Cluster::run_on`]) and
/// caches the resulting virtual makespan per
/// `(executor policy, node set, step pattern)`. Quantized workload
/// parameters keep the cache small, so a 200-job stream costs a few
/// dozen SPMD step simulations, not thousands.
pub struct ServiceModel<'a> {
    cluster: &'a Cluster,
    memo: RefCell<HashMap<ServiceKey, StepProfile>>,
}

/// One memoized step simulation: the virtual makespan plus the
/// per-rank traffic counters the cross-job contention layer folds over
/// topology routes. Cheap to clone (the stats are shared).
#[derive(Debug, Clone)]
pub struct StepProfile {
    /// Virtual seconds for one step on the keyed node set.
    pub step_s: f64,
    /// Per-rank communication counters of that step.
    pub stats: Arc<Vec<CommStats>>,
}

/// Cache key for [`ServiceModel`]: the executor policy the step was
/// simulated under, the exact node set it ran on, and the work model's
/// quantized step pattern ([`WorkModel::step_key`]).
///
/// Keying on width alone was a latent bug: it silently conflated
/// simulations from different executor policies (one `ServiceModel` per
/// cluster, but clusters are `Clone` and callers can re-run a stream
/// under several policies against one shared cache) and from different
/// node subsets of equal size — harmless only as long as every machine
/// in the catalog is homogeneous. The full key makes cache hits
/// structurally equal simulations instead of coincidentally equal ones.
type ServiceKey = (ExecPolicy, NodeSet, (u8, u64, u64, u64));

impl<'a> ServiceModel<'a> {
    /// Wrap a cluster.
    pub fn new(cluster: &'a Cluster) -> Self {
        Self {
            cluster,
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Virtual seconds for one step of `work` on the given nodes.
    pub fn step_on(&self, work: &WorkModel, nodes: &NodeSet) -> f64 {
        self.step_profile_on(work, nodes).step_s
    }

    /// One step of `work` on the given nodes, with the per-rank traffic
    /// counters the contention layer needs. Memoized exactly like
    /// [`ServiceModel::step_on`] (same key, same single simulation).
    pub fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
        assert!(!nodes.is_empty(), "step needs at least one node");
        let key = (self.cluster.exec(), nodes.clone(), work.step_key());
        if let Some(p) = self.memo.borrow().get(&key) {
            return p.clone();
        }
        let outcome = self.cluster.run_on(nodes, |comm| work.run_step(comm));
        let p = StepProfile {
            step_s: outcome.makespan_s(),
            stats: Arc::new(outcome.stats),
        };
        self.memo.borrow_mut().insert(key, p.clone());
        p
    }

    /// Virtual seconds for one step of `work` on `width` nodes (the
    /// lowest-numbered ones; see [`ServiceModel::step_on`] for an exact
    /// placement).
    pub fn step_s(&self, work: &WorkModel, width: usize) -> f64 {
        assert!(width >= 1, "width must be at least 1");
        self.step_on(work, &NodeSet::new((0..width).collect()))
    }

    /// Virtual seconds of useful work for the whole job at `width`.
    pub fn work_s(&self, work: &WorkModel, width: usize) -> f64 {
        self.step_s(work, width) * f64::from(work.steps())
    }

    /// Distinct `(policy, node set, step pattern)` simulations cached so
    /// far — the number of real SPMD runs this oracle has paid for.
    pub fn cached_steps(&self) -> usize {
        self.memo.borrow().len()
    }
}

/// What the event loop needs from a service-time oracle: the cluster
/// shape it prices jobs against, and one step's virtual cost (plus
/// per-rank traffic counters) on an exact node set.
///
/// [`ServiceModel`] is the executor-backed implementation — every
/// distinct step is lowered onto the simulated cluster once via
/// [`Cluster::run_on`]. `mb-workload`'s calibrated closed-form cost
/// model implements the same trait without touching the executor, which
/// is what makes million-job open-arrival streams tractable. Any
/// implementation must be a pure function of its inputs so the engine's
/// fingerprints stay executor-invariant.
pub trait ServiceOracle {
    /// The cluster spec jobs are priced against (node count, network).
    fn spec(&self) -> &ClusterSpec;

    /// One step of `work` on the given nodes: virtual makespan plus the
    /// per-rank traffic counters the contention layer folds over
    /// topology routes (`stats.len()` must equal `nodes.len()`).
    fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile;

    /// Virtual seconds for one step of `work` on the given nodes.
    fn step_on(&self, work: &WorkModel, nodes: &NodeSet) -> f64 {
        self.step_profile_on(work, nodes).step_s
    }

    /// Virtual seconds for one step of `work` on `width` nodes (the
    /// lowest-numbered ones — the reference placement).
    fn step_s(&self, work: &WorkModel, width: usize) -> f64 {
        assert!(width >= 1, "width must be at least 1");
        self.step_on(work, &NodeSet::new((0..width).collect()))
    }

    /// Virtual seconds of useful work for the whole job at `width`.
    fn work_s(&self, work: &WorkModel, width: usize) -> f64 {
        self.step_s(work, width) * f64::from(work.steps())
    }
}

impl ServiceOracle for ServiceModel<'_> {
    fn spec(&self) -> &ClusterSpec {
        self.cluster.spec()
    }

    fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
        ServiceModel::step_profile_on(self, work, nodes)
    }
}

/// One node's occupancy interval (for the per-node Chrome-trace track).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccSpan {
    /// Node id.
    pub node: usize,
    /// Interval start, virtual seconds.
    pub t0_s: f64,
    /// Interval end, virtual seconds.
    pub t1_s: f64,
    /// Job occupying the node.
    pub job: usize,
    /// Which run attempt of that job (0 = first).
    pub attempt: u32,
}

/// Everything a simulated run produces.
#[derive(Debug)]
pub struct SimReport {
    /// Policy name.
    pub policy: &'static str,
    /// Per-job records, sorted by id.
    pub jobs: Vec<JobRecord>,
    /// Last completion, virtual seconds.
    pub makespan_s: f64,
    /// Busy node-seconds over `nodes × makespan`.
    pub utilization: f64,
    /// Mean queue wait, seconds.
    pub mean_wait_s: f64,
    /// Mean bounded slowdown.
    pub mean_slowdown: f64,
    /// Full queue-wait distribution, seconds (one observation per
    /// completed job; percentiles via [`LogHistogram::quantile`]).
    pub wait_hist: LogHistogram,
    /// Full bounded-slowdown distribution, same sampling.
    pub slowdown_hist: LogHistogram,
    /// Completed jobs per virtual hour.
    pub jobs_per_hour: f64,
    /// Node failures applied (up nodes struck).
    pub failures: u32,
    /// Jobs requeued by failures.
    pub requeues: u32,
    /// Total uncheckpointed work lost, seconds.
    pub lost_work_s: f64,
    /// Per-node occupancy intervals, sorted by (node, start).
    pub occupancy: Vec<OccSpan>,
    /// Whole-workload payload bytes carried per named link (fluid
    /// integral of the running jobs' per-link rates over their
    /// progress; empty on the star, whose fast path skips traffic
    /// accounting).
    pub link_bytes: BTreeMap<String, f64>,
    /// Wall seconds each link carried two or more jobs at once — the
    /// hot-spot measure behind `sched.link_shared_s`.
    pub link_shared_s: BTreeMap<String, f64>,
    /// Largest mean-field slowdown factor any job saw (1.0 = the run
    /// was contention-free).
    pub max_contention_factor: f64,
    /// Scheduler metrics (counters, gauges, wait/slowdown histograms,
    /// queue-depth series) keyed by policy name.
    pub registry: Registry,
    /// FNV-1a fingerprint of the full outcome; bit-identical across
    /// `MB_PARALLEL` executor settings.
    pub fingerprint: u64,
}

impl SimReport {
    /// The fingerprint as a fixed-width hex string (bench convention).
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

struct QueueEntry {
    ji: usize,
    id: usize,
    ranks: usize,
    /// The job's work model (queue entries must be self-contained: a
    /// streamed run has no job slice to index back into).
    work: WorkModel,
    /// SLO class (and queue priority rank; 0 = highest).
    class: usize,
    work_rem_s: f64,
    resumed: bool,
    attempt: u32,
}

struct RunEntry {
    ji: usize,
    id: usize,
    work: WorkModel,
    nodes: NodeSet,
    start_s: f64,
    end_s: f64,
    /// Useful work of this attempt in *actual-placement* nominal
    /// seconds (reference work × placement factor).
    work_s: f64,
    pad_s: f64,
    attempt: u32,
    /// Actual step time / reference (lowest-nodes) step time: what the
    /// chosen placement costs relative to the arrival-time estimate.
    /// Exactly 1.0 on the star and whenever the allocation matches the
    /// reference node set.
    pfac: f64,
    /// Contention-free wall time of this attempt (work + checkpoints +
    /// restart pad).
    nominal_wall_s: f64,
    /// Nominal wall time still unserved as of `epoch_s`.
    nominal_rem_s: f64,
    /// Virtual time of the last slowdown change. While a job is never
    /// contended, `epoch_s == start_s` and `slow == 1.0` and none of
    /// the epoch fields (or `end_s`) is ever rewritten — which is what
    /// keeps contention-free timelines bit-identical to the
    /// pre-contention engine.
    epoch_s: f64,
    /// Current mean-field slowdown factor (≥ 1.0).
    slow: f64,
    /// Virtual time up to which this job's link bytes have been
    /// integrated into the per-link telemetry.
    acct_s: f64,
    /// Steady-state per-link byte rates of this job's step (empty on
    /// the star fast path).
    traffic: JobTraffic,
}

/// A per-link running total indexed by [`LinkId`]; `None` until the
/// link is first accounted, so the report lists exactly the links the
/// run touched.
type LinkTotals = Vec<Option<f64>>;

fn add_to_link(totals: &mut LinkTotals, id: LinkId, v: f64) {
    *totals[id as usize].get_or_insert(0.0) += v;
}

/// The report-boundary form of a per-link total: the only place the
/// engine turns a link id into its name.
fn named_totals(totals: &LinkTotals, ids: &LinkIds) -> BTreeMap<String, f64> {
    totals
        .iter()
        .enumerate()
        .filter_map(|(id, v)| v.map(|v| (ids.name(id as LinkId), v)))
        .collect()
}

impl RunEntry {
    /// Nominal (contention-free) seconds of this attempt served by
    /// virtual time `now`, mirroring the old engine's `now - start_s`
    /// bit for bit while the job has never been slowed.
    fn nominal_elapsed(&self, now: f64) -> f64 {
        if self.slow == 1.0 && self.epoch_s == self.start_s {
            now - self.start_s
        } else {
            let rem_now = (self.nominal_rem_s - (now - self.epoch_s) / self.slow).max(0.0);
            self.nominal_wall_s - rem_now
        }
    }
}

/// Run `jobs` through `policy` on the service oracle's cluster.
///
/// The event loop processes, at each virtual instant, repairs →
/// completions → failures → arrivals → dispatch, each sub-ordered
/// deterministically (completions by `(end, id)`, failures by sampled
/// order). Failure-struck jobs lose uncheckpointed work per the
/// Young/Daly accounting and are requeued at the head of the queue
/// with their remaining work.
///
/// This is the closed-batch wrapper around [`simulate_stream`]: the job
/// list replays through [`VecArrivals`] under the single-class
/// [`crate::stream::AdmitAll`] admission, which reproduces the
/// pre-streaming engine — and the committed `metablade-sched/3`
/// fingerprints — bit for bit.
pub fn simulate<S: ServiceOracle + ?Sized>(
    service: &S,
    policy: &dyn SchedPolicy,
    jobs: &[JobSpec],
    cfg: &SchedConfig,
) -> SimReport {
    assert!(!jobs.is_empty(), "empty workload");
    let mut source = VecArrivals::new(jobs);
    let mut admission = crate::stream::AdmitAll;
    simulate_stream(service, policy, &mut source, &mut admission, cfg).sim
}

/// Drive an open arrival stream through `policy` on the service
/// oracle's cluster, consulting `admission` before each arrival joins
/// the queue.
///
/// Identical event-loop semantics to [`simulate`] (repairs →
/// completions → failures → arrivals → dispatch per instant), except
/// that jobs are pulled lazily from `source` in submit order and each
/// is classified (or shed) by `admission`. Admitted jobs queue by
/// class rank — class 0 ahead of class 1 — FIFO within a class;
/// failure requeues keep their head-of-queue priority. The run ends
/// when the source is drained and queue and running set are empty:
/// failure events past that point are not applied, exactly as the
/// batch engine never sampled failures past its last completion.
pub fn simulate_stream<S: ServiceOracle + ?Sized>(
    service: &S,
    policy: &dyn SchedPolicy,
    source: &mut dyn ArrivalSource,
    admission: &mut dyn AdmissionControl,
    cfg: &SchedConfig,
) -> StreamReport {
    let n = service.spec().nodes;
    assert!(n > 0, "cluster has no nodes");

    let labels = admission.class_labels();
    assert!(
        !labels.is_empty(),
        "admission must define at least one class"
    );
    let nclass = labels.len();
    let mut queued_per_class = vec![0u32; nclass];
    let mut offered_per_class = vec![0u64; nclass];
    let mut admitted_per_class = vec![0u64; nclass];
    let mut shed_per_class = vec![0u64; nclass];
    let mut completed_per_class = vec![0u64; nclass];
    let mut class_wait: Vec<LogHistogram> = (0..nclass).map(|_| LogHistogram::new()).collect();
    let mut class_slow: Vec<LogHistogram> = (0..nclass).map(|_| LogHistogram::new()).collect();

    // Failure timeline in virtual seconds, plus the matching Young/Daly
    // interval at the accelerated MTBF.
    let mut failure_events: Vec<(f64, usize)> = Vec::new();
    let (tau_s, repair_s) = match &cfg.failure {
        Some(f) => {
            assert!(f.accel > 0.0, "acceleration must be positive");
            failure_events = sample_failures(&f.law, n, f.temp_c, f.accel, f.seed)
                .into_iter()
                .map(|e| (e.at_hours * 3600.0 / f.accel, e.node))
                .collect();
            failure_events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mtbf_h = f.law.cluster_mtbf_hours(n, f.temp_c) / f.accel;
            (cfg.checkpoint.young_interval_h(mtbf_h) * 3600.0, f.repair_s)
        }
        None => (f64::INFINITY, 0.0),
    };
    let charge = CkptCharge {
        tau_s,
        ckpt_s: cfg.checkpoint.checkpoint_h * 3600.0,
        restart_s: cfg.checkpoint.restart_h * 3600.0,
    };

    // Records grow as arrivals are admitted (arrival order; sorted by
    // id before reporting). `rec_class[ji]` tracks each record's class.
    let mut records: Vec<JobRecord> = Vec::new();
    let mut rec_class: Vec<usize> = Vec::new();

    let mut up = vec![true; n];
    let mut busy = vec![false; n];
    // `up && !busy` per node, rebuilt once per dispatch round.
    let mut free_mask: Vec<bool> = Vec::with_capacity(n);
    let mut repairs: Vec<(f64, usize)> = Vec::new();
    let mut fail_idx = 0usize;
    let mut queue: Vec<QueueEntry> = Vec::new();
    let mut running: Vec<RunEntry> = Vec::new();
    // Jobs started in the current dispatch round; they join `running`
    // once the contention epoch (which borrows the running set through
    // its traffic summaries) has been computed. Empty between events.
    let mut launched: Vec<RunEntry> = Vec::new();
    let mut busy_node_s = 0.0;
    let mut occupancy: Vec<OccSpan> = Vec::new();
    let mut failures_applied = 0u32;
    let mut requeues = 0u32;
    let mut lost_total = 0.0;

    let mut registry = Registry::new();
    let qd = registry.series("sched.queue_depth", policy.name());
    // Wait/slowdown distributions go into the shared log-bucketed
    // histogram (installed in the registry at the end of the run) —
    // full percentile queries instead of the old six ad-hoc buckets.
    let mut wait_hist = LogHistogram::new();
    let mut slowdown_hist = LogHistogram::new();

    // Cross-job contention state. The star fast path never populates
    // any of it: placements there are cost-free, host links are never
    // shared, and skipping the traffic fold keeps star timelines (and
    // fingerprints) bit-identical to the pre-contention engine.
    let topo = service.spec().network.topology;
    let gap = service.spec().network.gap_s_per_byte();
    let is_star = topo == Topology::Star;
    let ways = if cfg.route_spread {
        topo.ecmp_ways()
    } else {
        1
    };
    let ngroups = match topo {
        Topology::Star => 1,
        Topology::FatTree { radix, .. } => n.div_ceil(radix),
        Topology::Torus { dims } => n.div_ceil(dims[0]),
    };
    // Links are dense integer ids from here to the report (DESIGN.md
    // §14): every per-link quantity below is a flat vector indexed by
    // id, and names are produced once, when the report is built.
    let ids = LinkIds::new(&topo, ways);
    // Only the star is unbounded, and it accounts no link at all.
    let nlinks = ids.link_count().unwrap_or(0);
    let mut link_bytes: LinkTotals = vec![None; nlinks];
    let mut link_shared_s: LinkTotals = vec![None; nlinks];
    let mut rate_series: Vec<Option<MetricHandle>> = vec![None; nlinks];
    // The contention state of the current running set, computed at the
    // last event that changed the set: `epoch` is a pure function of
    // the running set, so events that neither start nor finish a job
    // reuse it. Its shared links are charged for each interval as it
    // ends; `shared_t` is the event they have been charged up to.
    let mut ep = ContentionEpoch::default();
    let mut shared_t = 0.0;
    let mut scratch = EpochScratch::default();
    let mut max_contention = 1.0f64;

    // Integrate a run's per-link byte rates into the whole-workload
    // counters up to virtual time `t`. Wall seconds shrink to nominal
    // seconds through the current slowdown (a slowed job moves the same
    // bytes over a longer wall interval).
    fn account_links(link_bytes: &mut LinkTotals, r: &mut RunEntry, t: f64) {
        let dt = (t - r.acct_s).max(0.0);
        if dt > 0.0 {
            let nominal = dt / r.slow;
            for &(id, rate) in r.traffic.rates() {
                add_to_link(link_bytes, id, rate * nominal);
            }
        }
        r.acct_s = t;
    }

    loop {
        // The run is over when no arrival, queued or running job
        // remains — pending failure/repair events past that point stay
        // unapplied, exactly as the batch loop stopped at its last
        // completion.
        let next_arrival_s = source.peek_s();
        if next_arrival_s.is_none() && queue.is_empty() && running.is_empty() {
            break;
        }
        let mut now = f64::INFINITY;
        if let Some(t) = next_arrival_s {
            now = now.min(t);
        }
        for r in &running {
            now = now.min(r.end_s);
        }
        for &(t, _) in &repairs {
            now = now.min(t);
        }
        if fail_idx < failure_events.len() {
            now = now.min(failure_events[fail_idx].0);
        }
        assert!(
            now.is_finite(),
            "scheduler deadlock under '{}': {} completed, {} queued, {} running",
            policy.name(),
            records.iter().filter(|r| r.end_s >= 0.0).count(),
            queue.len(),
            running.len(),
        );

        // 1. Repairs: failed nodes come back up.
        let mut back: Vec<usize> = Vec::new();
        repairs.retain(|&(t, nd)| {
            if t <= now {
                back.push(nd);
                false
            } else {
                true
            }
        });
        back.sort_unstable();
        for nd in back {
            up[nd] = true;
        }

        // 2. Completions, ordered by (end, id).
        let mut finished: Vec<RunEntry> = Vec::new();
        let mut i = 0;
        while i < running.len() {
            if running[i].end_s <= now {
                finished.push(running.remove(i));
            } else {
                i += 1;
            }
        }
        // Whether this event removes a job from, or adds one to, the
        // running set — the only thing the contention epoch depends on.
        let mut set_changed = !finished.is_empty();
        finished.sort_by(|a, b| a.end_s.total_cmp(&b.end_s).then(a.id.cmp(&b.id)));
        for mut run in finished {
            let end = run.end_s;
            account_links(&mut link_bytes, &mut run, end);
            busy_node_s += (run.end_s - run.start_s) * run.nodes.len() as f64;
            for &nd in run.nodes.ids() {
                busy[nd] = false;
                if !cfg.lean {
                    occupancy.push(OccSpan {
                        node: nd,
                        t0_s: run.start_s,
                        t1_s: run.end_s,
                        job: run.id,
                        attempt: run.attempt,
                    });
                }
            }
            let rec = &mut records[run.ji];
            rec.end_s = run.end_s;
            wait_hist.observe(rec.wait_s());
            slowdown_hist.observe(rec.slowdown());
            let cls = rec_class[run.ji];
            completed_per_class[cls] += 1;
            class_wait[cls].observe(rec.wait_s());
            class_slow[cls].observe(rec.slowdown());
        }

        // 3. Failures: mark the node down, schedule its repair, and
        // requeue any victim job with its checkpointed remainder.
        while fail_idx < failure_events.len() && failure_events[fail_idx].0 <= now {
            let (_, nd) = failure_events[fail_idx];
            fail_idx += 1;
            if !up[nd] {
                continue;
            }
            up[nd] = false;
            failures_applied += 1;
            repairs.push((now + repair_s, nd));
            if let Some(pos) = running.iter().position(|r| r.nodes.contains(nd)) {
                let mut run = running.remove(pos);
                set_changed = true;
                account_links(&mut link_bytes, &mut run, now);
                let elapsed = now - run.start_s;
                // Checkpoint progress accrues in nominal seconds: a
                // contended job has served less of its work than wall
                // time suggests.
                let (done, lost) = charge.progress(run.nominal_elapsed(now), run.pad_s, run.work_s);
                busy_node_s += elapsed * run.nodes.len() as f64;
                for &m in run.nodes.ids() {
                    busy[m] = false;
                    if !cfg.lean {
                        occupancy.push(OccSpan {
                            node: m,
                            t0_s: run.start_s,
                            t1_s: now,
                            job: run.id,
                            attempt: run.attempt,
                        });
                    }
                }
                let rec = &mut records[run.ji];
                rec.restarts += 1;
                rec.lost_work_s += lost;
                lost_total += lost;
                requeues += 1;
                let cls = rec_class[run.ji];
                queued_per_class[cls] += 1;
                queue.insert(
                    0,
                    QueueEntry {
                        ji: run.ji,
                        id: run.id,
                        ranks: run.nodes.len(),
                        work: run.work,
                        class: cls,
                        // Queue entries carry *reference* work (lowest
                        // nodes); undo this attempt's placement factor.
                        // `pfac` is exactly 1.0 on the star, so the
                        // division is a bit-exact no-op there.
                        work_rem_s: (run.work_s - done).max(0.0) / run.pfac,
                        resumed: true,
                        attempt: run.attempt + 1,
                    },
                );
            }
        }

        // 4. Arrivals, through admission control.
        while source.peek_s().is_some_and(|t| t <= now) {
            let arr = source.next_arrival().expect("peeked arrival");
            let asked = arr.class.min(nclass - 1);
            offered_per_class[asked] += 1;
            let decision = admission.admit(
                &arr,
                &AdmissionCtx {
                    now_s: now,
                    queued_per_class: &queued_per_class,
                    running_jobs: running.len(),
                    total_nodes: n,
                },
            );
            let Some(cls) = decision else {
                shed_per_class[asked] += 1;
                continue;
            };
            let cls = cls.min(nclass - 1);
            admitted_per_class[cls] += 1;
            queued_per_class[cls] += 1;
            let spec = arr.spec;
            let width = spec.ranks.clamp(1, n);
            let work_s = service.work_s(&spec.work, width);
            let ji = records.len();
            records.push(JobRecord {
                id: spec.id,
                ranks: width,
                submit_s: spec.submit_s,
                start_s: -1.0,
                end_s: -1.0,
                clean_service_s: charge.wall_for(work_s, false),
                restarts: 0,
                lost_work_s: 0.0,
            });
            rec_class.push(cls);
            // Class rank orders the queue (FIFO within a class): insert
            // before the first strictly lower-priority entry. With one
            // class this is exactly the old `push`, and a requeued
            // failure victim at the head keeps its place against
            // same-or-lower classes.
            let pos = queue
                .iter()
                .position(|e| e.class > cls)
                .unwrap_or(queue.len());
            queue.insert(
                pos,
                QueueEntry {
                    ji,
                    id: spec.id,
                    ranks: width,
                    work: spec.work,
                    class: cls,
                    work_rem_s: work_s,
                    resumed: false,
                    attempt: 0,
                },
            );
        }

        // 5. Dispatch: consult the policy, then re-validate each pick
        // against the live free mask (policies may be optimistic).
        free_mask.clear();
        free_mask.extend((0..n).map(|k| up[k] && !busy[k]));
        let free_count = free_mask.iter().filter(|&&f| f).count();
        let total_up = up.iter().filter(|&&u| u).count();
        let qview: Vec<QueuedJob> = queue
            .iter()
            .map(|q| QueuedJob {
                ranks: q.ranks,
                service_est_s: charge.wall_for(q.work_rem_s, q.resumed),
            })
            .collect();
        let rview: Vec<RunningJob> = running
            .iter()
            .map(|r| RunningJob {
                end_s: r.end_s,
                ranks: r.nodes.len(),
            })
            .collect();
        let picks = policy.select(&PolicyCtx {
            now_s: now,
            free_nodes: free_count,
            total_nodes: total_up,
            queue: &qview,
            running: &rview,
        });
        // The in-flight mix's traffic, collected once per event: it
        // scores placements here and, joined by the jobs this round
        // starts, feeds the contention epoch in step 6.
        let traffics: Vec<&JobTraffic> = if is_star {
            Vec::new()
        } else {
            running.iter().map(|r| &r.traffic).collect()
        };
        // Contention-aware placement scores candidate groups against
        // the uplink load of the in-flight mix, frozen at the top of
        // this dispatch round (jobs started this round don't see each
        // other's traffic until the next event — deterministic either
        // way, but freezing keeps the score independent of pick order).
        let group_loads: Vec<f64> =
            if cfg.placement == Placement::ContentionAware && !is_star && !picks.is_empty() {
                contention::edge_uplink_loads(&traffics, ngroups)
            } else {
                Vec::new()
            };
        let mut started: Vec<usize> = Vec::new();
        let mut seen = vec![false; queue.len()];
        for p in picks {
            if p >= queue.len() || seen[p] {
                continue;
            }
            seen[p] = true;
            let q = &queue[p];
            let alloc = match cfg.placement {
                Placement::Lowest => NodeSet::alloc_lowest(&free_mask, q.ranks),
                Placement::Compact => NodeSet::alloc_compact(&free_mask, q.ranks, &topo),
                Placement::ContentionAware => {
                    NodeSet::alloc_contention_aware(&free_mask, q.ranks, &topo, &group_loads)
                }
            };
            if let Some(nodes) = alloc {
                for &m in nodes.ids() {
                    busy[m] = true;
                    free_mask[m] = false;
                }
                if records[q.ji].start_s < 0.0 {
                    records[q.ji].start_s = now;
                }
                // Charge the *actual* placement: the arrival-time
                // estimate priced the job on the lowest nodes; a
                // spanning allocation genuinely costs more on fat
                // trees and tori. Both step profiles are memo hits
                // after the first job of each (work, nodes) shape.
                let (pfac, traffic) = if is_star {
                    (1.0, JobTraffic::default())
                } else {
                    let work = &q.work;
                    let profile = service.step_profile_on(work, &nodes);
                    let reference = service.step_s(work, nodes.len());
                    let traffic = contention::job_traffic(
                        &topo,
                        &profile.stats,
                        nodes.ids(),
                        profile.step_s,
                        q.id as u64,
                        ways,
                    );
                    (profile.step_s / reference, traffic)
                };
                let work_eff = q.work_rem_s * pfac;
                let wall = charge.wall_for(work_eff, q.resumed);
                launched.push(RunEntry {
                    ji: q.ji,
                    id: q.id,
                    work: q.work,
                    nodes,
                    start_s: now,
                    end_s: now + wall,
                    work_s: work_eff,
                    pad_s: charge.pad_s(q.resumed),
                    attempt: q.attempt,
                    pfac,
                    nominal_wall_s: wall,
                    nominal_rem_s: wall,
                    epoch_s: now,
                    slow: 1.0,
                    acct_s: now,
                    traffic,
                });
                started.push(p);
            }
        }
        started.sort_unstable();
        for &p in started.iter().rev() {
            queued_per_class[queue[p].class] -= 1;
            queue.remove(p);
        }
        if !cfg.lean {
            registry.sample(qd, now, queue.len() as f64);
        }

        // 6. Cross-job contention epoch: close out the hot-spot
        // accounting for the interval that just ended, then — when the
        // running set changed — recompute every running job's
        // mean-field slowdown from the aggregate link load and retime
        // its completion. Jobs whose factor is unchanged (the common
        // case, and *always* the case while a job is contention-free)
        // are left untouched bit for bit; when the set is unchanged so
        // is every factor, and the retiming pass is skipped outright.
        if is_star {
            running.append(&mut launched);
            continue;
        }
        for &id in &ep.shared {
            add_to_link(&mut link_shared_s, id, now - shared_t);
        }
        shared_t = now;
        set_changed |= !launched.is_empty();
        if set_changed {
            let mut traffics = traffics;
            traffics.extend(launched.iter().map(|r| &r.traffic));
            ep = contention::epoch_with(&mut scratch, &topo, gap, &traffics);
        }
        running.append(&mut launched);
        if set_changed {
            if !cfg.lean {
                // Series appear in ascending name order among the links
                // first loaded at this event.
                let mut fresh: Vec<(String, LinkId)> = ep
                    .agg_rates
                    .iter()
                    .filter(|&&(id, _)| {
                        rate_series[id as usize].is_none() && ids.link(id).0.is_fabric()
                    })
                    .map(|&(id, _)| (ids.name(id), id))
                    .collect();
                fresh.sort();
                for (name, id) in fresh {
                    rate_series[id as usize] =
                        Some(registry.series("sched.uplink_rate_Bps", &name));
                }
            }
            for (r, &s_new) in running.iter_mut().zip(&ep.factors) {
                max_contention = max_contention.max(s_new);
                if s_new == r.slow {
                    continue;
                }
                account_links(&mut link_bytes, r, now);
                r.nominal_rem_s = (r.nominal_rem_s - (now - r.epoch_s) / r.slow).max(0.0);
                r.epoch_s = now;
                r.slow = s_new;
                r.end_s = now + r.nominal_rem_s * s_new;
            }
        }
        if !cfg.lean {
            // Only fabric links ever get a series.
            for &(id, rate) in &ep.agg_rates {
                if let Some(h) = rate_series[id as usize] {
                    registry.sample(h, now, rate);
                }
            }
        }
    }

    let link_bytes = named_totals(&link_bytes, &ids);
    let link_shared_s = named_totals(&link_shared_s, &ids);
    let makespan_s = records.iter().map(|r| r.end_s).fold(0.0, f64::max);
    let utilization = busy_node_s / (n as f64 * makespan_s.max(1e-9));
    // `.max(1)` guards the all-shed stream; for any non-empty record
    // set the divisor — and every bit of the mean — is unchanged.
    let mean_wait_s = records.iter().map(|r| r.wait_s()).sum::<f64>() / records.len().max(1) as f64;
    let mean_slowdown =
        records.iter().map(|r| r.slowdown()).sum::<f64>() / records.len().max(1) as f64;
    let jobs_per_hour = records.len() as f64 / (makespan_s.max(1e-9) / 3600.0);

    registry.record_gauge("sched.utilization", policy.name(), utilization);
    registry.record_gauge("sched.mean_wait_s", policy.name(), mean_wait_s);
    registry.set_histogram("sched.wait_s", policy.name(), wait_hist.to_metric());
    registry.set_histogram("sched.slowdown", policy.name(), slowdown_hist.to_metric());
    registry.count("sched.jobs", policy.name(), records.len() as u64);
    registry.count("sched.failures", policy.name(), u64::from(failures_applied));
    registry.count("sched.requeues", policy.name(), u64::from(requeues));
    for (l, b) in &link_bytes {
        registry.count("sched.link_bytes", l, b.round() as u64);
    }
    for (l, s) in &link_shared_s {
        registry.record_gauge("sched.link_shared_s", l, *s);
    }
    registry.record_gauge("sched.max_contention_factor", policy.name(), max_contention);
    for (c, label) in labels.iter().enumerate() {
        registry.count("stream.offered", label, offered_per_class[c]);
        registry.count("stream.admitted", label, admitted_per_class[c]);
        registry.count("stream.shed", label, shed_per_class[c]);
        if class_wait[c].count() > 0 {
            registry.set_histogram("stream.wait_s", label, class_wait[c].to_metric());
            registry.set_histogram("stream.slowdown", label, class_slow[c].to_metric());
        }
    }

    records.sort_by_key(|r| r.id);
    occupancy.sort_by(|a, b| a.node.cmp(&b.node).then(a.t0_s.total_cmp(&b.t0_s)));

    let mut f = Fnv::new();
    f.write_u64(records.len() as u64);
    for r in &records {
        f.write_u64(r.id as u64);
        f.write_u64(r.ranks as u64);
        f.write_f64(r.submit_s);
        f.write_f64(r.start_s);
        f.write_f64(r.end_s);
        f.write_u64(u64::from(r.restarts));
        f.write_f64(r.lost_work_s);
    }
    f.write_f64(busy_node_s);
    f.write_f64(makespan_s);
    f.write_u64(u64::from(failures_applied));
    let fingerprint = f.finish();

    // The stream fingerprint folds the batch outcome hash with every
    // admission decision, so two runs that shed differently can never
    // collide even when their admitted sets happen to agree.
    let mut sf = Fnv::new();
    sf.write_u64(fingerprint);
    sf.write_u64(nclass as u64);
    for c in 0..nclass {
        sf.write_u64(offered_per_class[c]);
        sf.write_u64(admitted_per_class[c]);
        sf.write_u64(shed_per_class[c]);
        sf.write_u64(completed_per_class[c]);
    }
    let stream_fingerprint = sf.finish();

    let offered: u64 = offered_per_class.iter().sum();
    let shed: u64 = shed_per_class.iter().sum();
    let classes: Vec<ClassReport> = labels
        .into_iter()
        .enumerate()
        .map(|(c, label)| ClassReport {
            label,
            offered: offered_per_class[c],
            admitted: admitted_per_class[c],
            shed: shed_per_class[c],
            completed: completed_per_class[c],
            wait_hist: std::mem::take(&mut class_wait[c]),
            slowdown_hist: std::mem::take(&mut class_slow[c]),
        })
        .collect();

    StreamReport {
        sim: SimReport {
            policy: policy.name(),
            jobs: records,
            makespan_s,
            utilization,
            mean_wait_s,
            mean_slowdown,
            wait_hist,
            slowdown_hist,
            jobs_per_hour,
            failures: failures_applied,
            requeues,
            lost_work_s: lost_total,
            occupancy,
            link_bytes,
            link_shared_s,
            max_contention_factor: max_contention,
            registry,
            fingerprint,
        },
        classes,
        offered,
        shed,
        stream_fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EasyBackfill, Fcfs, Sjf};
    use crate::workload::{generate, WorkloadConfig};
    use mb_cluster::ExecPolicy;

    fn small_workload() -> Vec<JobSpec> {
        generate(&WorkloadConfig {
            jobs: 16,
            seed: 11,
            mean_interarrival_s: 180.0,
            max_ranks: 24,
        })
    }

    #[test]
    fn all_jobs_complete_with_sane_timelines() {
        let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let jobs = small_workload();
        for policy in [&Fcfs as &dyn SchedPolicy, &EasyBackfill, &Sjf] {
            let rep = simulate(&service, policy, &jobs, &SchedConfig::default());
            assert_eq!(rep.jobs.len(), jobs.len());
            for r in &rep.jobs {
                assert!(
                    r.start_s >= r.submit_s,
                    "job {} started before submit",
                    r.id
                );
                assert!(r.end_s > r.start_s, "job {} has empty run", r.id);
                assert!(r.clean_service_s > 0.0);
                assert_eq!(r.restarts, 0);
            }
            assert!(rep.utilization > 0.0 && rep.utilization <= 1.0 + 1e-9);
            assert_eq!(rep.failures, 0);
            // Occupancy covers exactly the busy node-seconds.
            let occ: f64 = rep.occupancy.iter().map(|s| s.t1_s - s.t0_s).sum();
            let busy: f64 = rep
                .jobs
                .iter()
                .map(|r| (r.end_s - r.start_s) * r.ranks as f64)
                .sum();
            assert!((occ - busy).abs() < 1e-6 * busy.max(1.0));
        }
    }

    #[test]
    fn wait_and_slowdown_histograms_cover_every_job() {
        let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let jobs = small_workload();
        let rep = simulate(&service, &Fcfs, &jobs, &SchedConfig::default());
        assert_eq!(rep.wait_hist.count(), jobs.len() as u64);
        assert_eq!(rep.slowdown_hist.count(), jobs.len() as u64);
        // The histogram's exact sum reproduces the mean.
        assert!((rep.wait_hist.mean() - rep.mean_wait_s).abs() < 1e-9 * rep.mean_wait_s.max(1.0));
        assert!(rep.wait_hist.p50() <= rep.wait_hist.p90());
        assert!(rep.wait_hist.p90() <= rep.wait_hist.p99());
        assert!(rep.slowdown_hist.min() > 0.0);
        assert!(rep.slowdown_hist.p50() <= rep.slowdown_hist.p99());
        // The registry carries the same distribution (compact form).
        match rep.registry.find("sched.wait_s", "fcfs").unwrap() {
            mb_telemetry::MetricValue::Histogram(h) => {
                assert_eq!(h.n, jobs.len() as u64);
                assert!((h.sum - rep.wait_hist.sum()).abs() < 1e-9);
            }
            _ => panic!("sched.wait_s is not a histogram"),
        }
    }

    #[test]
    fn outcome_is_invariant_across_executors() {
        let jobs = small_workload();
        let cfg = SchedConfig {
            failure: Some(FailureConfig::accelerated(2000.0, 3)),
            ..SchedConfig::default()
        };
        let prints: Vec<u64> = [ExecPolicy::Sequential, ExecPolicy::Unbounded]
            .into_iter()
            .map(|exec| {
                let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(exec);
                let service = ServiceModel::new(&cluster);
                simulate(&service, &EasyBackfill, &jobs, &cfg).fingerprint
            })
            .collect();
        assert_eq!(prints[0], prints[1]);
    }

    #[test]
    fn failures_requeue_and_charge_lost_work() {
        let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let jobs = small_workload();
        let cfg = SchedConfig {
            failure: Some(FailureConfig::accelerated(30_000.0, 5)),
            ..SchedConfig::default()
        };
        let rep = simulate(&service, &Fcfs, &jobs, &cfg);
        assert!(
            rep.failures > 0,
            "aggressive acceleration produced no failures"
        );
        assert!(
            rep.requeues > 0,
            "no job was struck despite {} failures",
            rep.failures
        );
        assert!(rep.lost_work_s >= 0.0);
        let restarts: u32 = rep.jobs.iter().map(|r| r.restarts).sum();
        assert_eq!(restarts, rep.requeues);
        // Requeued jobs still finish.
        assert!(rep.jobs.iter().all(|r| r.end_s > 0.0));
    }

    #[test]
    fn no_failure_config_means_no_checkpoint_overhead() {
        let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let work = WorkModel::Npb {
            kernel: crate::job::NpbKernel::Ep,
            iters: 600,
        };
        let jobs = [JobSpec {
            id: 0,
            submit_s: 0.0,
            ranks: 8,
            work,
        }];
        let rep = simulate(&service, &Fcfs, &jobs, &SchedConfig::default());
        let expect = service.work_s(&work, 8);
        assert!((rep.jobs[0].clean_service_s - expect).abs() < 1e-9);
        assert!((rep.jobs[0].end_s - expect).abs() < 1e-9);
    }

    #[test]
    fn service_model_memoizes_by_pattern_and_width() {
        let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let short = WorkModel::Treecode {
            bodies_per_rank: 1200,
            steps: 10,
        };
        let long = WorkModel::Treecode {
            bodies_per_rank: 1200,
            steps: 1000,
        };
        let s = service.step_s(&short, 4);
        assert_eq!(service.step_s(&long, 4), s);
        assert!((service.work_s(&long, 4) - 1000.0 * s).abs() < 1e-9);
        assert_ne!(service.step_s(&long, 8), s);
    }

    #[test]
    fn service_model_keys_on_policy_and_node_set() {
        let work = WorkModel::Treecode {
            bodies_per_rank: 1200,
            steps: 10,
        };
        let cluster = Cluster::new(mb_cluster::spec::metablade()).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let low = NodeSet::new(vec![0, 1, 2, 3]);
        let high = NodeSet::new(vec![20, 21, 22, 23]);
        let s_low = service.step_on(&work, &low);
        assert_eq!(service.cached_steps(), 1);
        // Same width, different placement: a distinct cache entry (the
        // catalog is homogeneous today, so times still agree — but the
        // hit must not be a width coincidence).
        let s_high = service.step_on(&work, &high);
        assert_eq!(service.cached_steps(), 2);
        assert_eq!(s_low, s_high);
        // Repeats are cache hits, not new simulations.
        service.step_on(&work, &low);
        assert_eq!(service.cached_steps(), 2);
        // Same work and nodes under another executor policy: its own
        // entry, and — the determinism contract — the same makespan bits.
        let unb = Cluster::new(mb_cluster::spec::metablade()).with_exec(ExecPolicy::Unbounded);
        let service_unb = ServiceModel::new(&unb);
        assert_eq!(service_unb.step_on(&work, &low), s_low);
        assert_eq!(service_unb.cached_steps(), 1);
        assert_ne!(
            (unb.exec(), low.clone(), work.step_key()),
            (cluster.exec(), low, work.step_key()),
            "distinct keys for distinct policies"
        );
    }

    #[test]
    fn service_model_charges_spanning_placements_on_fat_trees() {
        use mb_cluster::Topology;
        let work = WorkModel::Treecode {
            bodies_per_rank: 1200,
            steps: 10,
        };
        let spec = mb_cluster::spec::metablade()
            .with_nodes(16)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        let cluster = Cluster::new(spec).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let compact = service.step_on(&work, &NodeSet::new(vec![0, 1, 2, 3]));
        let spread = service.step_on(&work, &NodeSet::new(vec![0, 4, 8, 12]));
        assert!(
            spread > compact,
            "spanning switches ({spread}) should cost more than one switch ({compact})"
        );
    }

    /// Comm-heavy ring job: 64-KiB exchanges × 8 rounds per step keep
    /// the uplinks busy enough that sharing one is clearly visible.
    fn comm_heavy(steps: u32) -> WorkModel {
        WorkModel::Synthetic {
            flops_per_step: 1e6,
            msg_kib: 64,
            rounds: 8,
            steps,
        }
    }

    #[test]
    fn overlapping_jobs_sharing_an_uplink_slow_each_other() {
        use mb_cluster::Topology;
        let spec = mb_cluster::spec::metablade()
            .with_nodes(16)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        let cluster = Cluster::new(spec).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        // Two 6-rank rings land on nodes 0–5 and 6–11 under `Lowest`:
        // both route flows through edge group 1's uplink.
        let jobs = [
            JobSpec {
                id: 0,
                submit_s: 0.0,
                ranks: 6,
                work: comm_heavy(200),
            },
            JobSpec {
                id: 1,
                submit_s: 0.0,
                ranks: 6,
                work: comm_heavy(200),
            },
        ];
        let rep = simulate(&service, &Fcfs, &jobs, &SchedConfig::default());
        assert!(
            rep.max_contention_factor > 1.0,
            "sharing up:l1.s1 must charge a slowdown (factor {})",
            rep.max_contention_factor
        );
        assert!(
            rep.link_shared_s.keys().any(|l| l == "up:l1.s1"),
            "hot-spot accounting missed the shared uplink: {:?}",
            rep.link_shared_s.keys().collect::<Vec<_>>()
        );
        assert!(!rep.link_bytes.is_empty());
        // Job 0 sits on the reference nodes (placement factor exactly
        // 1.0), so any stretch beyond its clean service time is pure
        // contention.
        let r0 = &rep.jobs[0];
        assert!(
            r0.end_s - r0.start_s > r0.clean_service_s,
            "contended run {} should outlast clean service {}",
            r0.end_s - r0.start_s,
            r0.clean_service_s
        );
    }

    #[test]
    fn single_job_and_star_runs_stay_contention_free() {
        use mb_cluster::Topology;
        let spec = mb_cluster::spec::metablade()
            .with_nodes(16)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        let cluster = Cluster::new(spec).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let jobs = [JobSpec {
            id: 0,
            submit_s: 0.0,
            ranks: 12,
            work: comm_heavy(50),
        }];
        let rep = simulate(&service, &Fcfs, &jobs, &SchedConfig::default());
        assert_eq!(rep.max_contention_factor, 1.0);
        assert!(rep.link_shared_s.is_empty());
        // Fat-tree runs still integrate per-link bytes for telemetry.
        assert!(rep.link_bytes.keys().any(|l| l.starts_with("up:")));
        // The star fast path records no traffic at all.
        let star = Cluster::new(mb_cluster::spec::metablade()).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&star);
        let rep = simulate(&service, &Fcfs, &small_workload(), &SchedConfig::default());
        assert_eq!(rep.max_contention_factor, 1.0);
        assert!(rep.link_bytes.is_empty());
        assert!(rep.link_shared_s.is_empty());
    }

    #[test]
    fn contention_aware_placement_routes_around_loaded_uplinks() {
        use mb_cluster::Topology;
        let spec = mb_cluster::spec::metablade()
            .with_nodes(16)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        // Job 0 pins group 0 with a compute job; job 1's ring then
        // spans groups 1–2 and loads their uplinks; job 2 arrives
        // later needing 5 nodes. Compact drains group 3 then group 2
        // (fullest-first) and shares job 1's uplink; contention-aware
        // takes group 3 plus the quiet group-0 leftover instead.
        let jobs = [
            JobSpec {
                id: 0,
                submit_s: 0.0,
                ranks: 3,
                work: WorkModel::Synthetic {
                    flops_per_step: 5e7,
                    msg_kib: 1,
                    rounds: 1,
                    steps: 400,
                },
            },
            JobSpec {
                id: 1,
                submit_s: 0.0,
                ranks: 6,
                work: comm_heavy(200),
            },
            JobSpec {
                id: 2,
                submit_s: 5.0,
                ranks: 5,
                work: comm_heavy(200),
            },
        ];
        let run = |placement: Placement| {
            let cluster = Cluster::new(spec.clone()).with_exec(ExecPolicy::Sequential);
            let service = ServiceModel::new(&cluster);
            let cfg = SchedConfig {
                placement,
                ..SchedConfig::default()
            };
            simulate(&service, &Fcfs, &jobs, &cfg)
        };
        let compact = run(Placement::Compact);
        let aware = run(Placement::ContentionAware);
        assert!(
            compact.max_contention_factor > 1.0,
            "compact must share an uplink here (factor {})",
            compact.max_contention_factor
        );
        assert_eq!(
            aware.max_contention_factor, 1.0,
            "contention-aware placement should find a disjoint allocation"
        );
        assert!(aware.link_shared_s.is_empty());
        assert!(
            aware.makespan_s <= compact.makespan_s,
            "aware {} vs compact {}",
            aware.makespan_s,
            compact.makespan_s
        );
    }

    #[test]
    fn route_spreading_never_worsens_contention() {
        use mb_cluster::Topology;
        // radix 8 / oversubscription 2 ⇒ 4 ECMP ways. Two 12-rank
        // rings overlap on edge group 1's uplinks when flows all pile
        // onto one logical pipe; hashing them across ways can only
        // shrink the foreign byte rate any flow sees.
        let spec = mb_cluster::spec::metablade()
            .with_nodes(24)
            .with_topology(Topology::fat_tree(8, 2, 2.0));
        let jobs = [
            JobSpec {
                id: 0,
                submit_s: 0.0,
                ranks: 12,
                work: comm_heavy(100),
            },
            JobSpec {
                id: 1,
                submit_s: 0.0,
                ranks: 12,
                work: comm_heavy(100),
            },
        ];
        let run = |route_spread: bool| {
            let cluster = Cluster::new(spec.clone()).with_exec(ExecPolicy::Sequential);
            let service = ServiceModel::new(&cluster);
            let cfg = SchedConfig {
                route_spread,
                ..SchedConfig::default()
            };
            simulate(&service, &Fcfs, &jobs, &cfg)
        };
        let piled = run(false);
        let spread = run(true);
        assert!(piled.max_contention_factor > 1.0);
        assert!(
            spread.max_contention_factor <= piled.max_contention_factor,
            "spread {} vs piled {}",
            spread.max_contention_factor,
            piled.max_contention_factor
        );
        assert!(spread.makespan_s <= piled.makespan_s * (1.0 + 1e-9));
    }

    #[test]
    fn compact_placement_is_deterministic_and_no_slower_on_fat_trees() {
        use mb_cluster::Topology;
        let spec = mb_cluster::spec::metablade()
            .with_nodes(16)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        let jobs = generate(&WorkloadConfig {
            jobs: 16,
            seed: 11,
            mean_interarrival_s: 180.0,
            max_ranks: 16,
        });
        let cfg = SchedConfig {
            placement: Placement::Compact,
            ..SchedConfig::default()
        };
        // The determinism contract survives the new allocator: the
        // fingerprint is bit-identical under every executor policy.
        let prints: Vec<u64> = [ExecPolicy::Sequential, ExecPolicy::Unbounded]
            .into_iter()
            .map(|exec| {
                let cluster = Cluster::new(spec.clone()).with_exec(exec);
                let service = ServiceModel::new(&cluster);
                simulate(&service, &EasyBackfill, &jobs, &cfg).fingerprint
            })
            .collect();
        assert_eq!(prints[0], prints[1]);
        // And compared against lowest-first on the same oversubscribed
        // fat-tree, packing under edge switches never lengthens the run.
        let cluster = Cluster::new(spec).with_exec(ExecPolicy::Sequential);
        let service = ServiceModel::new(&cluster);
        let compact = simulate(&service, &EasyBackfill, &jobs, &cfg);
        let lowest = simulate(&service, &EasyBackfill, &jobs, &SchedConfig::default());
        assert_eq!(compact.jobs.len(), jobs.len());
        assert!(
            compact.makespan_s <= lowest.makespan_s * (1.0 + 1e-9),
            "compact {} vs lowest {}",
            compact.makespan_s,
            lowest.makespan_s
        );
    }
}
