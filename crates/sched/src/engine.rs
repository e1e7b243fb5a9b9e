//! The virtual-time scheduling engine.
//!
//! [`simulate_stream`] (and [`simulate`], its closed-batch wrapper)
//! drives a job stream through one cluster under one policy: a
//! discrete-event loop over arrivals, completions, node failures (from
//! [`mb_cluster::reliability::sample_failures`]) and repairs. The run
//! state is one private `Engine` — node pool, wait queue (`queue.rs`: the
//! storage policies read in place, so no handler rebuilds, scans or
//! shifts it per event), running set, the link ledger of the contention
//! layer (absent on the star) and the report being written — and the
//! public function is only the event order: at each instant `repair` →
//! `complete` → `fail` → `arrive` → `dispatch` → `retime`, one handler
//! each (DESIGN.md §10 has the table, with what each costs the host).
//! Job service times come from a [`ServiceOracle`];
//! [`ServiceModel`] is the executor-backed one, lowering each distinct
//! `(node set, step pattern)` pair onto the simulated cluster exactly
//! once via [`Cluster::run_on`], as the stackless body
//! [`WorkModel::run_step`]. Checkpoint/restart overhead and failure
//! rework follow the Young/Daly [`CheckpointModel`]. Everything is a pure
//! function of its inputs, and no step consults the executor policy, so
//! the run fingerprint is the same under every `MB_PARALLEL` setting:
//! the determinism contract of DESIGN.md §10, checked once on the step
//! body itself (`tests/determinism.rs`) rather than by re-running
//! schedules under several policies.
//!
//! No function here may outgrow clippy's `too_many_lines` threshold:
//! the loop was one 630-line function once, and CI keeps it from
//! growing back.

#![deny(clippy::too_many_lines)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::iter::Peekable;
use std::sync::Arc;

use mb_cluster::checkpoint::CheckpointModel;
use mb_cluster::contention::{self, ContentionEpoch, EpochScratch, JobTraffic};
use mb_cluster::reliability::{sample_failures, FailureLaw};
use mb_cluster::spec::ClusterSpec;
use mb_cluster::{Cluster, Comm, CommStats, LinkId, LinkIds, NodeSet, Stackless, Topology};
use mb_telemetry::prof::LogHistogram;
use mb_telemetry::{Fnv, MetricHandle, Registry};

use crate::job::{JobRecord, JobSpec, WorkModel};
use crate::policy::{PolicyCtx, RunningJob, SchedPolicy};
use crate::queue::{QueueEntry, WaitQueue};
use crate::stream::{
    AdmissionControl, AdmissionCtx, ArrivalSource, ClassReport, SchedDeadlock, StreamReport,
    VecArrivals,
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
/// run fingerprint stays deterministic.
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
/// caches the resulting virtual makespan per `(node set, step
/// pattern)`. Quantized workload
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

/// Cache key for [`ServiceModel`]: the exact node set the step ran on
/// (not just its width: equal-width subsets differ on a heterogeneous
/// machine) and the work model's quantized step pattern
/// ([`WorkModel::step_key`]).
type ServiceKey = (NodeSet, (u8, u64, u64, u64));

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

    /// One step of `work` on the given nodes, with the per-rank traffic
    /// counters the contention layer needs, memoized per `(node set, step
    /// pattern)`. The step runs stackless: no rank takes a host thread.
    /// `step_on`, `step_s` and `work_s` are [`ServiceOracle`]'s default
    /// methods over it.
    pub fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
        assert!(!nodes.is_empty(), "step needs at least one node");
        let key = (nodes.clone(), work.step_key());
        if let Some(p) = self.memo.borrow().get(&key) {
            return p.clone();
        }
        let outcome = self.cluster.run_on(
            nodes,
            Stackless(async |comm: &mut Comm| work.run_step(comm).await),
        );
        let p = StepProfile {
            step_s: outcome.makespan_s(),
            stats: Arc::new(outcome.stats),
        };
        self.memo.borrow_mut().insert(key, p.clone());
        p
    }

    /// Distinct `(node set, step pattern)` simulations cached so far —
    /// the number of real SPMD runs this oracle has paid for.
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
/// fingerprints stay deterministic.
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
    /// lowest-numbered ones — the reference placement). Builds that
    /// node set per call; the engine prices through [`Self::step_on`]
    /// with sets it keeps.
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
#[derive(Debug, Default)]
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
    /// FNV-1a fingerprint of the full outcome; bit-identical on every
    /// host and under every `MB_PARALLEL` setting.
    pub fingerprint: u64,
}

impl SimReport {
    /// The fingerprint as a fixed-width hex string (bench convention).
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

struct RunEntry {
    job: QueueEntry,
    nodes: NodeSet,
    start_s: f64,
    end_s: f64,
    /// Useful work of this attempt in *actual-placement* nominal
    /// seconds (reference work × placement factor).
    work_s: f64,
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

/// Which nodes are up, which a run holds, and when failed ones return.
struct NodePool {
    up: Vec<bool>,
    busy: Vec<bool>,
    /// `up && !busy` per node, rebuilt once per dispatch round.
    free_mask: Vec<bool>,
    /// Pending repairs as `(back-up time, node)`.
    repairs: Vec<(f64, usize)>,
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

/// Integrate a run's per-link byte rates into the whole-workload
/// counters up to virtual time `t`. Wall seconds shrink to nominal
/// seconds through the current slowdown (a slowed job moves the same
/// bytes over a longer wall interval).
fn account_links(bytes: &mut LinkTotals, r: &mut RunEntry, t: f64) {
    let dt = (t - r.acct_s).max(0.0);
    if dt > 0.0 {
        let nominal = dt / r.slow;
        for &(id, rate) in r.traffic.rates() {
            add_to_link(bytes, id, rate * nominal);
        }
    }
    r.acct_s = t;
}

/// Cross-job contention state. The engine holds it as an `Option` that
/// is `None` on the star: placements there are cost-free, host links
/// are never shared, and skipping the traffic fold keeps star timelines
/// (and fingerprints) bit-identical to the pre-contention engine.
///
/// Links are dense integer ids from here to the report (DESIGN.md §14):
/// every per-link quantity is a flat vector indexed by id, and names
/// are produced once, when the report is built.
struct LinkLedger {
    /// ECMP ways each job's fabric flows hash over.
    ways: usize,
    /// Edge-switch (or torus-ring) groups placement scores.
    ngroups: usize,
    ids: LinkIds,
    bytes: LinkTotals,
    shared_s: LinkTotals,
    rate_series: Vec<Option<MetricHandle>>,
    /// The contention state of the current running set, computed at the
    /// last event that changed the set: it is a pure function of the
    /// set, so events that neither start nor finish a job reuse it. Its
    /// shared links are charged for each interval as it ends;
    /// `shared_t` is the event they have been charged up to.
    ep: ContentionEpoch,
    shared_t: f64,
    scratch: EpochScratch,
}

impl LinkLedger {
    fn new(spec: &ClusterSpec, route_spread: bool) -> Option<Self> {
        let topo = spec.network.topology;
        let ngroups = match topo {
            Topology::Star => return None,
            Topology::FatTree { radix, .. } => spec.nodes.div_ceil(radix),
            Topology::Torus { dims } => spec.nodes.div_ceil(dims[0]),
        };
        let ways = if route_spread { topo.ecmp_ways() } else { 1 };
        let ids = LinkIds::new(&topo, ways);
        let nlinks = ids.link_count().expect("only the star is unbounded");
        Some(Self {
            ways,
            ngroups,
            ids,
            bytes: vec![None; nlinks],
            shared_s: vec![None; nlinks],
            rate_series: vec![None; nlinks],
            ep: ContentionEpoch::default(),
            shared_t: 0.0,
            scratch: EpochScratch::default(),
        })
    }
}

/// The stream engine's run state and its event handlers. One instance
/// lives for one [`simulate_stream`] call, which calls the handlers in
/// the documented per-instant order: `repair` → `complete` → `fail` →
/// `arrive` → `dispatch` → `retime` (DESIGN.md §10).
struct Engine<'a, S: ServiceOracle + ?Sized> {
    service: &'a S,
    policy: &'a dyn SchedPolicy,
    cfg: &'a SchedConfig,
    charge: CkptCharge,
    /// Failure timeline in virtual seconds, ascending `(time, node)`.
    failures: Peekable<std::vec::IntoIter<(f64, usize)>>,
    pool: NodePool,
    /// The wait queue in dispatch order: `enqueue` adds, `dispatch`
    /// removes what it started.
    queue: WaitQueue,
    /// `lowest[w - 1]` is nodes `0..w`: the reference placement jobs of
    /// width `w` are priced on, as [`ServiceOracle::step_s`] builds it.
    lowest: Vec<NodeSet>,
    running: Vec<RunEntry>,
    /// What policies see of `running`, rebuilt at each dispatch.
    running_view: Vec<RunningJob>,
    /// Whether this event removed a job from, or added one to, the
    /// running set — the only thing the contention epoch depends on.
    /// Consumed by `retime`.
    running_changed: bool,
    links: Option<LinkLedger>,
    /// The report as it is written: `jobs` grows as arrivals are
    /// admitted (arrival order; sorted by id at the end), counters,
    /// histograms, occupancy and series fill in event by event, and
    /// `into_report` adds the whole-run summary.
    sim: SimReport,
    classes: Vec<ClassReport>,
    busy_node_s: f64,
    queue_depth: MetricHandle,
}

impl<'a, S: ServiceOracle + ?Sized> Engine<'a, S> {
    fn new(
        service: &'a S,
        policy: &'a dyn SchedPolicy,
        cfg: &'a SchedConfig,
        labels: Vec<String>,
    ) -> Self {
        let spec = service.spec();
        let n = spec.nodes;
        assert!(n > 0, "cluster has no nodes");
        assert!(
            !labels.is_empty(),
            "admission must define at least one class"
        );
        // Failure timeline in virtual seconds, plus the matching
        // Young/Daly interval at the accelerated MTBF.
        let mut failures: Vec<(f64, usize)> = Vec::new();
        let tau_s = match &cfg.failure {
            Some(f) => {
                assert!(f.accel > 0.0, "acceleration must be positive");
                failures = sample_failures(&f.law, n, f.temp_c, f.accel, f.seed)
                    .into_iter()
                    .map(|e| (e.at_hours * 3600.0 / f.accel, e.node))
                    .collect();
                failures.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mtbf_h = f.law.cluster_mtbf_hours(n, f.temp_c) / f.accel;
                cfg.checkpoint.young_interval_h(mtbf_h) * 3600.0
            }
            None => f64::INFINITY,
        };
        let mut registry = Registry::new();
        let queue_depth = registry.series("sched.queue_depth", policy.name());
        Self {
            service,
            policy,
            cfg,
            charge: CkptCharge {
                tau_s,
                ckpt_s: cfg.checkpoint.checkpoint_h * 3600.0,
                restart_s: cfg.checkpoint.restart_h * 3600.0,
            },
            failures: failures.into_iter().peekable(),
            pool: NodePool {
                up: vec![true; n],
                busy: vec![false; n],
                free_mask: Vec::with_capacity(n),
                repairs: Vec::new(),
            },
            queue: WaitQueue::new(labels.len()),
            lowest: (1..=n).map(|w| NodeSet::new((0..w).collect())).collect(),
            running: Vec::new(),
            running_view: Vec::new(),
            running_changed: false,
            links: LinkLedger::new(spec, cfg.route_spread),
            sim: SimReport {
                policy: policy.name(),
                max_contention_factor: 1.0,
                registry,
                ..SimReport::default()
            },
            classes: labels
                .into_iter()
                .map(|label| ClassReport {
                    label,
                    ..ClassReport::default()
                })
                .collect(),
            busy_node_s: 0.0,
            queue_depth,
        }
    }

    /// The next virtual instant anything happens at, or `None` when the
    /// run is over: no arrival, queued or running job remains — pending
    /// failure/repair events past that point stay unapplied, exactly as
    /// the batch loop stopped at its last completion. Jobs left with no
    /// event ahead (a policy that never picks, an idle machine) are a
    /// [`SchedDeadlock`].
    fn next_event_s(&mut self, next_arrival_s: Option<f64>) -> Result<Option<f64>, SchedDeadlock> {
        if next_arrival_s.is_none() && self.queue.len() == 0 && self.running.is_empty() {
            return Ok(None);
        }
        let mut now = next_arrival_s.unwrap_or(f64::INFINITY);
        for r in &self.running {
            now = now.min(r.end_s);
        }
        for &(t, _) in &self.pool.repairs {
            now = now.min(t);
        }
        if let Some(&(t, _)) = self.failures.peek() {
            now = now.min(t);
        }
        if now.is_finite() {
            return Ok(Some(now));
        }
        Err(SchedDeadlock {
            policy: self.policy.name(),
            completed: self.sim.jobs.iter().filter(|r| r.end_s >= 0.0).count(),
            queued: self.queue.len(),
            running: self.running.len(),
        })
    }

    /// The one place a job joins the queue: before the first entry it
    /// outranks ([`WaitQueue::insert`] has the rule), with the wall-time
    /// estimate policies will read for as long as it waits.
    fn enqueue(&mut self, e: QueueEntry) {
        let service_est_s = self.charge.wall_for(e.work_rem_s, e.attempt > 0);
        self.queue.insert(e, service_est_s);
    }

    /// Take `run` off its nodes at virtual time `t` (its completion, or
    /// the failure that struck it): close its link-byte integral,
    /// credit its busy node-seconds, free its nodes and emit their
    /// occupancy spans.
    fn release(&mut self, run: &mut RunEntry, t: f64) {
        if let Some(links) = &mut self.links {
            account_links(&mut links.bytes, run, t);
        }
        self.busy_node_s += (t - run.start_s) * run.nodes.len() as f64;
        for &nd in run.nodes.ids() {
            self.pool.busy[nd] = false;
            if !self.cfg.lean {
                self.sim.occupancy.push(OccSpan {
                    node: nd,
                    t0_s: run.start_s,
                    t1_s: t,
                    job: run.job.id,
                    attempt: run.job.attempt,
                });
            }
        }
    }

    /// Step 1, repairs: failed nodes come back up.
    fn repair(&mut self, now: f64) {
        let up = &mut self.pool.up;
        self.pool.repairs.retain(|&(t, nd)| {
            if t <= now {
                up[nd] = true;
            }
            t > now
        });
    }

    /// Step 2, completions, ordered by `(end, id)`.
    fn complete(&mut self, now: f64) {
        let mut finished: Vec<RunEntry> = self.running.extract_if(.., |r| r.end_s <= now).collect();
        self.running_changed |= !finished.is_empty();
        finished.sort_by(|a, b| a.end_s.total_cmp(&b.end_s).then(a.job.id.cmp(&b.job.id)));
        for mut run in finished {
            let end = run.end_s;
            self.release(&mut run, end);
            let rec = &mut self.sim.jobs[run.job.ji];
            rec.end_s = end;
            self.sim.wait_hist.observe(rec.wait_s());
            self.sim.slowdown_hist.observe(rec.slowdown());
            let class = &mut self.classes[run.job.class];
            class.completed += 1;
            class.wait_hist.observe(rec.wait_s());
            class.slowdown_hist.observe(rec.slowdown());
        }
    }

    /// Step 3, failures, in sampled order: mark the node down, schedule
    /// its repair, and requeue any victim job at the head of the queue
    /// with its checkpointed remainder.
    fn fail(&mut self, now: f64) {
        let repair_s = self.cfg.failure.map_or(0.0, |f| f.repair_s);
        while let Some((_, nd)) = self.failures.next_if(|&(t, _)| t <= now) {
            if !self.pool.up[nd] {
                continue;
            }
            self.pool.up[nd] = false;
            self.sim.failures += 1;
            self.pool.repairs.push((now + repair_s, nd));
            let Some(pos) = self.running.iter().position(|r| r.nodes.contains(nd)) else {
                continue;
            };
            let mut run = self.running.remove(pos);
            self.running_changed = true;
            self.release(&mut run, now);
            // Checkpoint progress accrues in nominal seconds: a
            // contended job has served less of its work than wall time
            // suggests.
            let served_s = run.nominal_elapsed(now);
            let pad_s = self.charge.pad_s(run.job.attempt > 0);
            let (done, lost) = self.charge.progress(served_s, pad_s, run.work_s);
            let rec = &mut self.sim.jobs[run.job.ji];
            rec.restarts += 1;
            rec.lost_work_s += lost;
            self.sim.lost_work_s += lost;
            self.sim.requeues += 1;
            self.enqueue(QueueEntry {
                // Queue entries carry *reference* work (lowest nodes);
                // undo this attempt's placement factor. `pfac` is
                // exactly 1.0 on the star, so the division is a
                // bit-exact no-op there.
                work_rem_s: (run.work_s - done).max(0.0) / run.pfac,
                attempt: run.job.attempt + 1,
                ..run.job
            });
        }
    }

    /// Step 4, arrivals due by `now`, in submit order, each through
    /// admission control.
    fn arrive(
        &mut self,
        now: f64,
        source: &mut dyn ArrivalSource,
        admission: &mut dyn AdmissionControl,
    ) {
        let (n, last) = (self.pool.up.len(), self.classes.len() - 1);
        while source.peek_s().is_some_and(|t| t <= now) {
            let arr = source.next_arrival().expect("peeked arrival");
            let asked = arr.class.min(last);
            self.classes[asked].offered += 1;
            let decision = admission.admit(
                &arr,
                &AdmissionCtx {
                    now_s: now,
                    queued_per_class: self.queue.per_class(),
                    running_jobs: self.running.len(),
                    total_nodes: n,
                },
            );
            let Some(cls) = decision else {
                self.classes[asked].shed += 1;
                continue;
            };
            let cls = cls.min(last);
            self.classes[cls].admitted += 1;
            let spec = arr.spec;
            let width = spec.ranks.clamp(1, n);
            let step_s = self.service.step_on(&spec.work, &self.lowest[width - 1]);
            let work_s = step_s * f64::from(spec.work.steps());
            self.enqueue(QueueEntry {
                // The record pushed just below.
                ji: self.sim.jobs.len(),
                id: spec.id,
                ranks: width,
                work: spec.work,
                class: cls,
                work_rem_s: work_s,
                attempt: 0,
            });
            self.sim.jobs.push(JobRecord {
                id: spec.id,
                ranks: width,
                submit_s: spec.submit_s,
                start_s: -1.0,
                end_s: -1.0,
                clean_service_s: self.charge.wall_for(work_s, false),
                restarts: 0,
                lost_work_s: 0.0,
            });
        }
    }

    /// Step 5, dispatch: consult the policy — it reads the queue's own
    /// storage and a reused view of the running set — then re-validate
    /// each pick against the live free mask (policies may be
    /// optimistic). Picks start in the order the policy returned them.
    /// Apart from `select` itself, nothing here is proportional to the
    /// queue's length.
    fn dispatch(&mut self, now: f64) {
        let pool = &mut self.pool;
        pool.free_mask.clear();
        let free = pool.up.iter().zip(&pool.busy).map(|(&u, &b)| u && !b);
        pool.free_mask.extend(free);
        let in_flight = |r: &RunEntry| RunningJob {
            end_s: r.end_s,
            ranks: r.nodes.len(),
        };
        self.running_view.clear();
        self.running_view.extend(self.running.iter().map(in_flight));
        let picks = self.policy.select(&PolicyCtx {
            now_s: now,
            free_nodes: pool.free_mask.iter().filter(|&&f| f).count(),
            total_nodes: pool.up.iter().filter(|&&u| u).count(),
            queue: self.queue.view(),
            running: &self.running_view,
        });
        // Contention-aware placement scores candidate groups against
        // the uplink load of the in-flight mix, frozen at the top of
        // this dispatch round (jobs started this round don't see each
        // other's traffic until the next event — deterministic either
        // way, but freezing keeps the score independent of pick order).
        let group_loads = match &self.links {
            Some(l) if self.cfg.placement == Placement::ContentionAware && !picks.is_empty() => {
                let traffics: Vec<&JobTraffic> = self.running.iter().map(|r| &r.traffic).collect();
                contention::edge_uplink_loads(&traffics, l.ngroups)
            }
            _ => Vec::new(),
        };
        let mut started: Vec<usize> = Vec::new();
        for &p in &picks {
            if self.queue.pick(p) && self.launch(now, p, &group_loads) {
                started.push(p);
            }
        }
        self.queue.unpick(&picks);
        started.sort_unstable();
        for &p in started.iter().rev() {
            self.queue.remove(p);
        }
        if !self.cfg.lean {
            let depth = self.queue.len() as f64;
            self.sim.registry.sample(self.queue_depth, now, depth);
        }
    }

    /// Start queue entry `p` at `now` if the placement strategy finds
    /// it nodes in the live free mask; the entry itself stays queued
    /// until `dispatch` has walked every pick.
    fn launch(&mut self, now: f64, p: usize, group_loads: &[f64]) -> bool {
        let (q, topo) = (self.queue.entry(p), &self.service.spec().network.topology);
        let free = &mut self.pool.free_mask;
        let alloc = match self.cfg.placement {
            Placement::Lowest => NodeSet::alloc_lowest(free, q.ranks),
            Placement::Compact => NodeSet::alloc_compact(free, q.ranks, topo),
            Placement::ContentionAware => {
                NodeSet::alloc_contention_aware(free, q.ranks, topo, group_loads)
            }
        };
        let Some(nodes) = alloc else {
            return false;
        };
        for &m in nodes.ids() {
            self.pool.busy[m] = true;
            free[m] = false;
        }
        if self.sim.jobs[q.ji].start_s < 0.0 {
            self.sim.jobs[q.ji].start_s = now;
        }
        // Charge the *actual* placement: the arrival-time estimate
        // priced the job on the lowest nodes; a spanning allocation
        // genuinely costs more on fat trees and tori. Both step
        // profiles are memo hits after the first job of each (work,
        // nodes) shape.
        let (pfac, traffic) = match &self.links {
            None => (1.0, JobTraffic::default()),
            Some(l) => {
                let profile = self.service.step_profile_on(&q.work, &nodes);
                let reference = self.service.step_on(&q.work, &self.lowest[nodes.len() - 1]);
                let traffic = contention::job_traffic(
                    topo,
                    &profile.stats,
                    nodes.ids(),
                    profile.step_s,
                    q.id as u64,
                    l.ways,
                );
                (profile.step_s / reference, traffic)
            }
        };
        let work_eff = q.work_rem_s * pfac;
        let wall = self.charge.wall_for(work_eff, q.attempt > 0);
        self.running.push(RunEntry {
            job: q,
            nodes,
            start_s: now,
            end_s: now + wall,
            work_s: work_eff,
            pfac,
            nominal_wall_s: wall,
            nominal_rem_s: wall,
            epoch_s: now,
            slow: 1.0,
            acct_s: now,
            traffic,
        });
        self.running_changed = true;
        true
    }

    /// Step 6, the cross-job contention epoch: close out the hot-spot
    /// accounting for the interval that just ended, then — when the
    /// running set changed — recompute every running job's mean-field
    /// slowdown from the aggregate link load and retime its completion.
    /// Jobs whose factor is unchanged (the common case, and *always* the
    /// case while a job is contention-free) are left untouched bit for
    /// bit; when the set is unchanged so is every factor, and the
    /// retiming pass is skipped outright.
    fn retime(&mut self, now: f64) {
        let changed = std::mem::take(&mut self.running_changed);
        let (Some(links), sim) = (&mut self.links, &mut self.sim) else {
            return;
        };
        for &id in &links.ep.shared {
            add_to_link(&mut links.shared_s, id, now - links.shared_t);
        }
        links.shared_t = now;
        if changed {
            let traffics: Vec<&JobTraffic> = self.running.iter().map(|r| &r.traffic).collect();
            let net = &self.service.spec().network;
            let gap = net.gap_s_per_byte();
            links.ep = contention::epoch_with(&mut links.scratch, &net.topology, gap, &traffics);
            if !self.cfg.lean {
                // Every fabric link this epoch first loads gets its
                // series, in ascending name order among them.
                let mut fresh: Vec<(String, LinkId)> = Vec::new();
                for &(id, _) in &links.ep.agg_rates {
                    if links.rate_series[id as usize].is_none() && links.ids.link(id).0.is_fabric()
                    {
                        fresh.push((links.ids.name(id), id));
                    }
                }
                fresh.sort();
                for (name, id) in fresh {
                    let series = sim.registry.series("sched.uplink_rate_Bps", &name);
                    links.rate_series[id as usize] = Some(series);
                }
            }
            for (r, &s_new) in self.running.iter_mut().zip(&links.ep.factors) {
                sim.max_contention_factor = sim.max_contention_factor.max(s_new);
                if s_new == r.slow {
                    continue;
                }
                account_links(&mut links.bytes, r, now);
                r.nominal_rem_s = (r.nominal_rem_s - (now - r.epoch_s) / r.slow).max(0.0);
                r.epoch_s = now;
                r.slow = s_new;
                r.end_s = now + r.nominal_rem_s * s_new;
            }
        }
        if !self.cfg.lean {
            // Only fabric links ever get a series.
            for &(id, rate) in &links.ep.agg_rates {
                if let Some(h) = links.rate_series[id as usize] {
                    sim.registry.sample(h, now, rate);
                }
            }
        }
    }

    /// Close the run: summary statistics over the records in arrival
    /// order (the order their sums have always been taken in), then
    /// the id-sorted report, its metrics and both fingerprints.
    fn into_report(mut self) -> StreamReport {
        let sim = &mut self.sim;
        if let Some(l) = &self.links {
            sim.link_bytes = named_totals(&l.bytes, &l.ids);
            sim.link_shared_s = named_totals(&l.shared_s, &l.ids);
        }
        let (jobs, nodes) = (&mut sim.jobs, self.pool.up.len());
        sim.makespan_s = jobs.iter().map(|r| r.end_s).fold(0.0, f64::max);
        sim.utilization = self.busy_node_s / (nodes as f64 * sim.makespan_s.max(1e-9));
        // `.max(1)` guards the all-shed stream; for any non-empty record
        // set the divisor — and every bit of the mean — is unchanged.
        let count = jobs.len().max(1) as f64;
        sim.mean_wait_s = jobs.iter().map(|r| r.wait_s()).sum::<f64>() / count;
        sim.mean_slowdown = jobs.iter().map(|r| r.slowdown()).sum::<f64>() / count;
        sim.jobs_per_hour = jobs.len() as f64 / (sim.makespan_s.max(1e-9) / 3600.0);
        jobs.sort_by_key(|r| r.id);
        sim.occupancy
            .sort_by(|a, b| a.node.cmp(&b.node).then(a.t0_s.total_cmp(&b.t0_s)));

        let mut f = Fnv::new();
        f.write_u64(jobs.len() as u64);
        for r in jobs.iter() {
            f.write_u64(r.id as u64);
            f.write_u64(r.ranks as u64);
            f.write_f64(r.submit_s);
            f.write_f64(r.start_s);
            f.write_f64(r.end_s);
            f.write_u64(u64::from(r.restarts));
            f.write_f64(r.lost_work_s);
        }
        f.write_f64(self.busy_node_s);
        f.write_f64(sim.makespan_s);
        f.write_u64(u64::from(sim.failures));
        sim.fingerprint = f.finish();

        // The stream fingerprint folds the batch outcome hash with every
        // admission decision, so two runs that shed differently can never
        // collide even when their admitted sets happen to agree.
        let mut sf = Fnv::new();
        sf.write_u64(sim.fingerprint);
        sf.write_u64(self.classes.len() as u64);
        for c in &self.classes {
            sf.write_u64(c.offered);
            sf.write_u64(c.admitted);
            sf.write_u64(c.shed);
            sf.write_u64(c.completed);
        }
        publish_metrics(sim, &self.classes);
        StreamReport {
            sim: self.sim,
            offered: self.classes.iter().map(|c| c.offered).sum(),
            shed: self.classes.iter().map(|c| c.shed).sum(),
            classes: self.classes,
            stream_fingerprint: sf.finish(),
        }
    }
}

/// Install the end-of-run metrics in the report's registry, behind the
/// series the run sampled as it went.
fn publish_metrics(sim: &mut SimReport, classes: &[ClassReport]) {
    let (reg, name) = (&mut sim.registry, sim.policy);
    reg.record_gauge("sched.utilization", name, sim.utilization);
    reg.record_gauge("sched.mean_wait_s", name, sim.mean_wait_s);
    reg.set_histogram("sched.wait_s", name, sim.wait_hist.to_metric());
    reg.set_histogram("sched.slowdown", name, sim.slowdown_hist.to_metric());
    reg.count("sched.jobs", name, sim.jobs.len() as u64);
    reg.count("sched.failures", name, u64::from(sim.failures));
    reg.count("sched.requeues", name, u64::from(sim.requeues));
    for (l, b) in &sim.link_bytes {
        reg.count("sched.link_bytes", l, b.round() as u64);
    }
    for (l, s) in &sim.link_shared_s {
        reg.record_gauge("sched.link_shared_s", l, *s);
    }
    reg.record_gauge(
        "sched.max_contention_factor",
        name,
        sim.max_contention_factor,
    );
    for c in classes {
        reg.count("stream.offered", &c.label, c.offered);
        reg.count("stream.admitted", &c.label, c.admitted);
        reg.count("stream.shed", &c.label, c.shed);
        if c.wait_hist.count() > 0 {
            reg.set_histogram("stream.wait_s", &c.label, c.wait_hist.to_metric());
            reg.set_histogram("stream.slowdown", &c.label, c.slowdown_hist.to_metric());
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
/// pre-streaming engine — and the committed `BENCH_sched.json`
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
/// completions → failures → arrivals → dispatch per instant, then the
/// contention epoch retimes the running set), except that jobs are
/// pulled lazily from `source` in submit order and each is classified
/// (or shed) by `admission`. Admitted jobs queue by class rank: each
/// goes before the first queued entry of a lower class, so class 0
/// runs ahead of class 1 — FIFO within a class, except that an arrival
/// passes older entries of its own class that sit behind a requeued
/// victim of a lower class. Failure requeues go to the head of the
/// queue. The run ends when the source is
/// drained and queue and running set are empty: failure events past
/// that point are not applied, exactly as the batch engine never
/// sampled failures past its last completion.
///
/// # Panics
///
/// With the [`SchedDeadlock`] that [`try_simulate_stream`] returns.
pub fn simulate_stream<S: ServiceOracle + ?Sized>(
    service: &S,
    policy: &dyn SchedPolicy,
    source: &mut dyn ArrivalSource,
    admission: &mut dyn AdmissionControl,
    cfg: &SchedConfig,
) -> StreamReport {
    try_simulate_stream(service, policy, source, admission, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`simulate_stream`], returning a run that can make no further
/// progress — jobs queued or running and no arrival, completion,
/// failure or repair ahead — as an error instead of panicking.
pub fn try_simulate_stream<S: ServiceOracle + ?Sized>(
    service: &S,
    policy: &dyn SchedPolicy,
    source: &mut dyn ArrivalSource,
    admission: &mut dyn AdmissionControl,
    cfg: &SchedConfig,
) -> Result<StreamReport, SchedDeadlock> {
    let mut engine = Engine::new(service, policy, cfg, admission.class_labels());
    while let Some(now) = engine.next_event_s(source.peek_s())? {
        engine.repair(now);
        engine.complete(now);
        engine.fail(now);
        engine.arrive(now, source, admission);
        engine.dispatch(now);
        engine.retime(now);
    }
    Ok(engine.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EasyBackfill, Fcfs, Sjf};
    use crate::workload::{generate, WorkloadConfig};

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
        let cluster = Cluster::new(mb_cluster::spec::metablade());
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
        let cluster = Cluster::new(mb_cluster::spec::metablade());
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
        // The fingerprint every executor policy produced on 470c8b1, when
        // the step still ran thread-per-rank; the step body's own
        // invariance is checked in `tests/determinism.rs`.
        let jobs = small_workload();
        let cfg = SchedConfig {
            failure: Some(FailureConfig::accelerated(2000.0, 3)),
            ..SchedConfig::default()
        };
        let cluster = Cluster::new(mb_cluster::spec::metablade());
        let service = ServiceModel::new(&cluster);
        let rep = simulate(&service, &EasyBackfill, &jobs, &cfg);
        assert_eq!(rep.fingerprint_hex(), "f3f8e90a71b9f786");
    }

    #[test]
    fn failures_requeue_and_charge_lost_work() {
        let cluster = Cluster::new(mb_cluster::spec::metablade());
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
        let cluster = Cluster::new(mb_cluster::spec::metablade());
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
        let cluster = Cluster::new(mb_cluster::spec::metablade());
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
    fn service_model_keys_on_node_set() {
        let work = WorkModel::Treecode {
            bodies_per_rank: 1200,
            steps: 10,
        };
        let cluster = Cluster::new(mb_cluster::spec::metablade());
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
        let cluster = Cluster::new(spec);
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
        let cluster = Cluster::new(spec);
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
        let cluster = Cluster::new(spec);
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
        let star = Cluster::new(mb_cluster::spec::metablade());
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
            let cluster = Cluster::new(spec.clone());
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
            let cluster = Cluster::new(spec.clone());
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
        // fingerprint every executor policy produced on 470c8b1.
        let cluster = Cluster::new(spec);
        let service = ServiceModel::new(&cluster);
        let compact = simulate(&service, &EasyBackfill, &jobs, &cfg);
        assert_eq!(compact.fingerprint_hex(), "d4489cceaff9fca0");
        // And compared against lowest-first on the same oversubscribed
        // fat-tree, packing under edge switches never lengthens the run.
        let lowest = simulate(&service, &EasyBackfill, &jobs, &SchedConfig::default());
        assert_eq!(compact.jobs.len(), jobs.len());
        assert!(
            compact.makespan_s <= lowest.makespan_s * (1.0 + 1e-9),
            "compact {} vs lowest {}",
            compact.makespan_s,
            lowest.makespan_s
        );
    }

    /// A service oracle with one fixed step time on every node set, so
    /// a test can place completions at chosen virtual seconds.
    struct FixedStep {
        spec: ClusterSpec,
        step_s: f64,
    }

    impl ServiceOracle for FixedStep {
        fn spec(&self) -> &ClusterSpec {
            &self.spec
        }

        fn step_profile_on(&self, _work: &WorkModel, nodes: &NodeSet) -> StepProfile {
            StepProfile {
                step_s: self.step_s,
                stats: Arc::new(vec![CommStats::default(); nodes.len()]),
            }
        }
    }

    /// Hand-built arrivals, replayed in the order given.
    struct Arrivals(std::collections::VecDeque<crate::stream::Arrival>);

    impl ArrivalSource for Arrivals {
        fn peek_s(&mut self) -> Option<f64> {
            self.0.front().map(|a| a.spec.submit_s)
        }

        fn next_arrival(&mut self) -> Option<crate::stream::Arrival> {
            self.0.pop_front()
        }
    }

    /// Grants every arrival the class it asked for, or sheds them all.
    struct Classes {
        n: usize,
        shed_all: bool,
    }

    impl AdmissionControl for Classes {
        fn class_labels(&self) -> Vec<String> {
            (0..self.n).map(|c| format!("c{c}")).collect()
        }

        fn admit(
            &mut self,
            arrival: &crate::stream::Arrival,
            _ctx: &AdmissionCtx,
        ) -> Option<usize> {
            (!self.shed_all).then_some(arrival.class)
        }
    }

    /// A 4-node star whose every step takes one virtual second.
    fn four_nodes() -> FixedStep {
        FixedStep {
            spec: mb_cluster::spec::metablade().with_nodes(4),
            step_s: 1.0,
        }
    }

    /// A full-width job on [`four_nodes`]: `steps` seconds of work.
    fn wide(id: usize, submit_s: f64, steps: u32, class: usize) -> crate::stream::Arrival {
        crate::stream::Arrival {
            spec: JobSpec {
                id,
                submit_s,
                ranks: 4,
                work: WorkModel::Npb {
                    kernel: crate::job::NpbKernel::Ep,
                    iters: steps,
                },
            },
            class,
        }
    }

    fn run_stream(
        arrivals: Vec<crate::stream::Arrival>,
        admission: &mut Classes,
        cfg: &SchedConfig,
    ) -> StreamReport {
        let mut source = Arrivals(arrivals.into());
        simulate_stream(&four_nodes(), &Fcfs, &mut source, admission, cfg)
    }

    const ONE_CLASS: Classes = Classes {
        n: 1,
        shed_all: false,
    };

    fn sparse_failures() -> SchedConfig {
        SchedConfig {
            failure: Some(FailureConfig::accelerated(2000.0, 11)),
            ..SchedConfig::default()
        }
    }

    /// The first failure's virtual second under `cfg`, read off a probe
    /// run: a full-width job that outlasts it is struck there, which
    /// closes its attempt-0 occupancy spans.
    fn first_failure_s(cfg: &SchedConfig) -> f64 {
        let rep = run_stream(vec![wide(0, 0.0, 1_000_000, 0)], &mut { ONE_CLASS }, cfg);
        assert!(rep.sim.requeues > 0, "the probe job was never struck");
        let first = rep.sim.occupancy.iter().find(|s| s.attempt == 0);
        first.expect("attempt 0 ran").t1_s
    }

    #[test]
    fn a_repair_and_an_arrival_at_one_instant_start_the_arrival_there() {
        let cfg = sparse_failures();
        let t_repair = first_failure_s(&cfg) + cfg.failure.unwrap().repair_s;
        // The failure strikes an idle machine; the full-width job
        // arrives at the very second the node comes back, and repairs
        // are handled before arrivals and dispatch.
        let rep = run_stream(vec![wide(0, t_repair, 10, 0)], &mut { ONE_CLASS }, &cfg);
        assert_eq!(rep.sim.failures, 1);
        assert_eq!(rep.sim.jobs[0].start_s, t_repair);
        assert_eq!(rep.sim.jobs[0].wait_s(), 0.0);
    }

    #[test]
    fn a_completion_and_a_failure_at_one_instant_complete_the_job() {
        let cfg = sparse_failures();
        let t_fail = first_failure_s(&cfg);
        // A run from 0 ends at exactly its wall time (work plus the
        // checkpoint charge).
        let wall = run_stream(vec![wide(0, 0.0, 100, 0)], &mut { ONE_CLASS }, &cfg)
            .sim
            .jobs[0]
            .end_s;
        assert!(wall < t_fail);
        // Submit so that the job ends on the failure's exact bits.
        let mut submit_s = t_fail - wall;
        while submit_s + wall < t_fail {
            submit_s = submit_s.next_up();
        }
        while submit_s + wall > t_fail {
            submit_s = submit_s.next_down();
        }
        assert_eq!(submit_s + wall, t_fail);
        let rep = run_stream(vec![wide(0, submit_s, 100, 0)], &mut { ONE_CLASS }, &cfg);
        // The failure was applied in the job's last instant (one
        // instant later the run would have been over, the failure never
        // applied), and found its node already released.
        assert_eq!(rep.sim.failures, 1);
        assert_eq!(rep.sim.requeues, 0);
        assert_eq!(rep.sim.jobs[0].end_s, t_fail);
        assert_eq!(rep.sim.jobs[0].restarts, 0);
    }

    #[test]
    fn a_requeued_victim_keeps_the_head_against_a_later_class_0_arrival() {
        let cfg = sparse_failures();
        let t_fail = first_failure_s(&cfg);
        let t_repair = t_fail + cfg.failure.unwrap().repair_s;
        // Class-0 job 0 holds the whole machine when the failure
        // strikes and is requeued at the head, ahead of class-1 job 1;
        // until the repair nothing full-width can start. Class-0 job 2
        // arrives in that window: it overtakes job 1, never job 0.
        let arrivals = vec![
            wide(0, 0.0, t_fail as u32 + 300, 0),
            wide(1, t_fail / 2.0, 50, 1),
            wide(2, t_fail + 1.0, 50, 0),
        ];
        let mut two = Classes {
            n: 2,
            shed_all: false,
        };
        let rep = run_stream(arrivals, &mut two, &cfg);
        let jobs = &rep.sim.jobs;
        assert_eq!(jobs[0].restarts, 1);
        let resumed = rep.sim.occupancy.iter().find(|s| s.attempt == 1);
        assert_eq!(resumed.expect("job 0 resumed").t0_s, t_repair);
        assert_eq!(jobs[2].start_s, jobs[0].end_s);
        assert_eq!(jobs[1].start_s, jobs[2].end_s);
    }

    #[test]
    fn an_all_shed_stream_reports_an_empty_well_formed_run() {
        let arrivals = (0..3).map(|id| wide(id, id as f64, 10, id % 2)).collect();
        let mut shed = Classes {
            n: 2,
            shed_all: true,
        };
        let rep = run_stream(arrivals, &mut shed, &SchedConfig::default());
        assert_eq!((rep.offered, rep.shed), (3, 3));
        assert_eq!(rep.classes[0].shed + rep.classes[1].shed, 3);
        assert!(rep
            .classes
            .iter()
            .all(|c| c.admitted == 0 && c.completed == 0));
        let sim = &rep.sim;
        assert!(sim.jobs.is_empty() && sim.occupancy.is_empty());
        assert_eq!(sim.makespan_s, 0.0);
        assert_eq!((sim.mean_wait_s, sim.mean_slowdown), (0.0, 0.0));
        assert_eq!((sim.utilization, sim.jobs_per_hour), (0.0, 0.0));
        assert_eq!(sim.registry.counter_value("sched.jobs", "fcfs"), Some(0));
    }

    /// Picks every queue index, and one past the end, twice in a row,
    /// whatever the free-node count says.
    struct Sloppy;

    impl SchedPolicy for Sloppy {
        fn name(&self) -> &'static str {
            "sloppy"
        }

        fn select(&self, ctx: &PolicyCtx) -> Vec<usize> {
            (0..=ctx.queue.len()).flat_map(|p| [p, p]).collect()
        }
    }

    #[test]
    fn optimistic_duplicate_and_out_of_range_picks_are_revalidated() {
        // Three half-width jobs at once: the repeated pick of job 0
        // must not start it again on the two nodes still free, job 2
        // fails the live free mask until a job ends, and the index past
        // the end is ignored.
        let mut arrivals: Vec<_> = (0..3).map(|id| wide(id, 0.0, 10, 0)).collect();
        arrivals.iter_mut().for_each(|a| a.spec.ranks = 2);
        let mut source = Arrivals(arrivals.into());
        let rep = simulate_stream(
            &four_nodes(),
            &Sloppy,
            &mut source,
            &mut { ONE_CLASS },
            &SchedConfig::default(),
        );
        let jobs = &rep.sim.jobs;
        assert_eq!(rep.sim.occupancy.len(), 3 * 2);
        assert_eq!((jobs[0].start_s, jobs[1].start_s), (0.0, 0.0));
        assert_eq!(jobs[2].start_s, jobs[0].end_s);
    }

    /// Never starts anything.
    struct Idle;

    impl SchedPolicy for Idle {
        fn name(&self) -> &'static str {
            "idle"
        }

        fn select(&self, _ctx: &PolicyCtx) -> Vec<usize> {
            vec![]
        }
    }

    #[test]
    fn a_policy_that_never_picks_is_a_deadlock_error_not_a_hang() {
        let run = |cfg: &SchedConfig| {
            let mut source = Arrivals(vec![wide(0, 0.0, 10, 0)].into());
            try_simulate_stream(&four_nodes(), &Idle, &mut source, &mut { ONE_CLASS }, cfg)
        };
        let err = run(&SchedConfig::default()).expect_err("nothing can ever start");
        let want = SchedDeadlock {
            policy: "idle",
            completed: 0,
            queued: 1,
            running: 0,
        };
        assert_eq!(err, want);
        assert!(err
            .to_string()
            .starts_with("scheduler deadlock under 'idle': 0 completed, 1 q"));
        // A failure timeline only postpones the verdict: it is finite.
        assert_eq!(run(&sparse_failures()).expect_err("still nothing"), want);
    }

    #[test]
    #[should_panic(expected = "scheduler deadlock under 'idle': 0 completed, 1 queued, 0 running")]
    fn simulate_stream_panics_with_the_deadlock_message() {
        let mut source = Arrivals(vec![wide(0, 0.0, 10, 0)].into());
        let cfg = SchedConfig::default();
        simulate_stream(&four_nodes(), &Idle, &mut source, &mut { ONE_CLASS }, &cfg);
    }

    #[test]
    fn out_of_range_classes_are_clamped_to_the_last_class() {
        // Asked for class 7 of 2, and granted it by the admission: both
        // the request and the grant count under the last class.
        let mut two = Classes {
            n: 2,
            shed_all: false,
        };
        let rep = run_stream(vec![wide(0, 0.0, 10, 7)], &mut two, &SchedConfig::default());
        let last = &rep.classes[1];
        assert_eq!((last.offered, last.admitted, last.completed), (1, 1, 1));
        assert_eq!(rep.classes[0].offered, 0);
        assert_eq!(last.wait_hist.count(), 1);
    }
}
