//! The virtual-time scheduling engine.
//!
//! [`simulate_stream`] (and [`simulate`], its closed-batch wrapper)
//! drives a job stream through one cluster under one policy: a
//! discrete-event loop over arrivals, completions, node failures (from
//! [`mb_cluster::reliability::sample_failures`]) and repairs. The run
//! state is one private `Engine` — wait queue (`queue.rs`: the storage
//! policies read in place, so no handler rebuilds, scans or shifts it
//! per event), running set, the report being written, and the ledger
//! (`ledger.rs`: the node pool and, off the star, the links running
//! jobs load) — and the public function is only the event order.
//! Job service times come from a [`ServiceOracle`];
//! [`ServiceModel`] is the executor-backed one, lowering each distinct
//! `(node set, step pattern)` pair onto the simulated cluster exactly
//! once via [`Cluster::run_on`], as the stackless body
//! [`WorkModel::run_step`]. Checkpoint/restart overhead and failure
//! rework follow the Young/Daly [`CheckpointModel`]. Everything is a pure
//! function of its inputs, and no step consults the executor policy, so
//! the run fingerprint is the same under every executor policy:
//! the determinism contract of DESIGN.md §10, checked once on the step
//! body itself (`tests/determinism.rs`) rather than by re-running
//! schedules under several policies.
//!
//! # Per-instant order
//!
//! At each virtual instant the engine runs six handlers, one per event
//! kind, in this order (DESIGN.md §10 has the table, with what each
//! costs the host): `repair` → `complete` (by `(end, id)`) → `fail` (in
//! sampled order) → `arrive` (in submit order) → `dispatch` (in the
//! policy's pick order) → `retime` (the contention epoch, which retimes
//! the running set).
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
use mb_cluster::reliability::{sample_failures, FailureLaw};
use mb_cluster::spec::ClusterSpec;
use mb_cluster::{Cluster, Comm, CommStats, NodeSet, Stackless};
use mb_telemetry::prof::LogHistogram;
use mb_telemetry::{Fnv, MetricHandle, Registry};

use crate::job::{JobRecord, JobSpec, WorkModel};
use crate::ledger::Ledger;
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
    /// compact choice. A torus has no edge uplinks to score, so there it
    /// places as `Compact`.
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
    /// topology's parallel uplinks
    /// ([`mb_cluster::Topology::ecmp_ways`]) instead of piling onto one
    /// logical pipe. Affects only which links jobs *share* (and hence
    /// the mean-field slowdown), never a single job's isolated cost.
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
    memo: RefCell<HashMap<StepKey, HashMap<NodeSet, StepProfile>>>,
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

/// [`ServiceModel`]'s memo key, [`WorkModel::step_key`]; under it, a map
/// by the exact node set (not just its width: equal-width subsets differ
/// on a heterogeneous machine) that a lookup borrows.
type StepKey = (u8, u64, u64, u64);

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

    /// Distinct `(node set, step pattern)` simulations cached so far —
    /// the number of real SPMD runs this oracle has paid for.
    pub fn cached_steps(&self) -> usize {
        self.memo.borrow().values().map(HashMap::len).sum()
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

    /// Memoized; runs stackless, so no rank takes a host thread.
    fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
        assert!(!nodes.is_empty(), "step needs at least one node");
        let key = work.step_key();
        if let Some(p) = self.memo.borrow().get(&key).and_then(|m| m.get(nodes)) {
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
        let mut memo = self.memo.borrow_mut();
        let sets = memo.entry(key).or_default();
        sets.insert(nodes.clone(), p.clone());
        p
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
    /// host and under every executor policy.
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
    /// This run's slot in the ledger.
    slot: usize,
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

/// The stream engine's run state and its event handlers. One instance
/// lives for one [`simulate_stream`] call, which calls the handlers in
/// the [per-instant order](crate::engine#per-instant-order).
struct Engine<'a, S: ServiceOracle + ?Sized> {
    service: &'a S,
    policy: &'a dyn SchedPolicy,
    cfg: &'a SchedConfig,
    charge: CkptCharge,
    /// Failure timeline in virtual seconds, ascending `(time, node)`.
    failures: Peekable<std::vec::IntoIter<(f64, usize)>>,
    ledger: Ledger,
    /// The wait queue in dispatch order: `enqueue` adds, `dispatch`
    /// removes what it started.
    queue: WaitQueue,
    /// `lowest[w - 1]` is nodes `0..w`: the reference placement jobs of
    /// width `w` are priced on, as [`ServiceOracle::step_s`] builds it.
    lowest: Vec<NodeSet>,
    running: Vec<RunEntry>,
    /// What policies see of `running`, rebuilt only when it moved.
    running_view: Vec<RunningJob>,
    /// Launches or retimed ends since the last dispatch (set by `retime`).
    view_stale: bool,
    /// Kept by `complete` and `dispatch`, empty between calls.
    finished: Vec<RunEntry>,
    started: Vec<usize>,
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
            ledger: Ledger::new(spec, cfg.route_spread),
            queue: WaitQueue::new(labels.len()),
            lowest: (1..=n).map(|w| NodeSet::new((0..w).collect())).collect(),
            running: Vec::new(),
            running_view: Vec::new(),
            view_stale: false,
            finished: Vec::new(),
            started: Vec::new(),
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
        now = now.min(self.ledger.next_repair_s());
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
    /// the failure that struck it): credit its busy node-seconds, emit
    /// its nodes' occupancy spans and give the nodes back to the ledger,
    /// which closes the run's link-byte integral.
    fn release(&mut self, run: &mut RunEntry, t: f64) {
        self.busy_node_s += (t - run.start_s) * run.nodes.len() as f64;
        if !self.cfg.lean {
            for &nd in run.nodes.ids() {
                self.sim.occupancy.push(OccSpan {
                    node: nd,
                    t0_s: run.start_s,
                    t1_s: t,
                    job: run.job.id,
                    attempt: run.job.attempt,
                });
            }
        }
        let nodes = std::mem::take(&mut run.nodes);
        self.ledger.release(run.slot, nodes, t);
    }

    /// Step 1, repairs: nodes due back by `now` come up, free.
    fn repair(&mut self, now: f64) {
        self.ledger.repair(now);
    }

    /// Step 2, completions, ordered by `(end, id)`.
    fn complete(&mut self, now: f64) {
        let finished = &mut self.finished;
        finished.extend(self.running.extract_if(.., |r| r.end_s <= now));
        // Descending: `pop` takes them in `(end, id)` order.
        finished.sort_by(|a, b| b.end_s.total_cmp(&a.end_s).then(b.job.id.cmp(&a.job.id)));
        while let Some(mut run) = self.finished.pop() {
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
            if !self.ledger.is_up(nd) {
                continue;
            }
            self.sim.failures += 1;
            let Some(pos) = self.running.iter().position(|r| r.nodes.contains(nd)) else {
                self.ledger.fail(nd, now + repair_s);
                continue;
            };
            let mut run = self.running.remove(pos);
            self.release(&mut run, now);
            self.ledger.fail(nd, now + repair_s);
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
        let (n, last) = (self.service.spec().nodes, self.classes.len() - 1);
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
                step_s,
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
    /// storage, the ledger's counts and a kept view of the running set —
    /// then re-validate each pick against the live free mask (policies
    /// may be optimistic). Picks start in the order the policy returned
    /// them. Apart from `select`, nothing here grows with the queue.
    fn dispatch(&mut self, now: f64) {
        #[cfg(test)]
        self.ledger.check(self.running.iter().map(|r| &r.nodes));
        if std::mem::take(&mut self.view_stale) || self.ledger.moved() {
            let in_flight = |r: &RunEntry| RunningJob {
                end_s: r.end_s,
                ranks: r.nodes.len(),
            };
            self.running_view.clear();
            self.running_view.extend(self.running.iter().map(in_flight));
        }
        let (free_nodes, total_nodes) = self.ledger.counts();
        let picks = self.policy.select(&PolicyCtx {
            now_s: now,
            free_nodes,
            total_nodes,
            queue: self.queue.view(),
            running: &self.running_view,
        });
        // Contention-aware placement scores candidate groups against
        // the uplink load of the in-flight mix, frozen at the top of
        // this dispatch round (jobs started this round don't see each
        // other's traffic until the next event — deterministic either
        // way, but freezing keeps the score independent of pick order).
        if self.cfg.placement == Placement::ContentionAware && !picks.is_empty() {
            self.ledger.uplink_loads();
        }
        for &p in &picks {
            if self.queue.pick(p) && self.launch(now, p) {
                self.started.push(p);
            }
        }
        self.queue.unpick(&picks);
        self.started.sort_unstable();
        while let Some(p) = self.started.pop() {
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
    fn launch(&mut self, now: f64, p: usize) -> bool {
        let q = self.queue.entry(p);
        // Off the star, charge the *actual* placement: the arrival-time
        // estimate priced the job on the lowest nodes; a spanning
        // allocation genuinely costs more on fat trees and tori. Only
        // the placement is priced here: the entry carries the reference
        // step time.
        let (service, mut pfac) = (self.service, 1.0);
        let price = |nodes: &NodeSet| {
            let profile = service.step_profile_on(&q.work, nodes);
            pfac = profile.step_s / q.step_s;
            profile
        };
        let placed = (self.ledger).launch(self.cfg.placement, q.ranks, q.id as u64, now, price);
        let Some((nodes, slot)) = placed else {
            return false;
        };
        if self.sim.jobs[q.ji].start_s < 0.0 {
            self.sim.jobs[q.ji].start_s = now;
        }
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
            slot,
        });
        true
    }

    /// Step 6, the cross-job contention epoch: the ledger closes out the
    /// hot-spot accounting for the interval that just ended and, when a
    /// run that can contend launched or left, folds a new epoch. Only
    /// the runs whose factor it changed are retimed; every other run
    /// (*always* one that is contention-free) is left untouched bit for
    /// bit. Any launch or release still moves the policies' view.
    fn retime(&mut self, now: f64) {
        self.view_stale = self.ledger.moved();
        let series = (!self.cfg.lean).then_some(&mut self.sim.registry);
        for &(slot, s_new) in self.ledger.retime(now, series) {
            let sim = &mut self.sim;
            sim.max_contention_factor = sim.max_contention_factor.max(s_new);
            let r = self.running.iter_mut().find(|r| r.slot == slot);
            let r = r.expect("a retimed run is running");
            r.nominal_rem_s = (r.nominal_rem_s - (now - r.epoch_s) / r.slow).max(0.0);
            r.epoch_s = now;
            r.slow = s_new;
            r.end_s = now + r.nominal_rem_s * s_new;
        }
    }

    /// Close the run: summary statistics over the records in arrival
    /// order (the order their sums have always been taken in), then
    /// the id-sorted report, its metrics and both fingerprints.
    fn into_report(mut self) -> StreamReport {
        let sim = &mut self.sim;
        (sim.link_bytes, sim.link_shared_s) = self.ledger.finish();
        let (jobs, nodes) = (&mut sim.jobs, self.service.spec().nodes);
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
    reg.set_histogram("sched.wait_s", name, &sim.wait_hist);
    reg.set_histogram("sched.slowdown", name, &sim.slowdown_hist);
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
            reg.set_histogram("stream.wait_s", &c.label, &c.wait_hist);
            reg.set_histogram("stream.slowdown", &c.label, &c.slowdown_hist);
        }
    }
}

/// Run `jobs` through `policy` on the service oracle's cluster.
///
/// The event loop handles each virtual instant in the engine's
/// [per-instant order](crate::engine#per-instant-order). Failure-struck
/// jobs lose uncheckpointed work per the Young/Daly accounting and are
/// requeued at the head of the queue with their remaining work.
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
/// Identical event-loop semantics to [`simulate`] (the same
/// [per-instant order](crate::engine#per-instant-order)), except that
/// jobs are pulled lazily from `source` in submit order and each is
/// classified (or shed) by `admission`. Admitted jobs queue by class rank: each
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
                assert_eq!(h.count(), jobs.len() as u64);
                assert!((h.sum() - rep.wait_hist.sum()).abs() < 1e-9);
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
    fn the_node_pool_stays_current_through_failures_and_repairs() {
        // Every `dispatch` of a test build runs the pool oracle
        // (`Ledger::check`): recounted free and up nodes against the
        // maintained counts, and the running jobs' nodes against "up and
        // not free". These streams make it see failures strike held and
        // idle nodes, requeues and repairs, on the star and on a fat-tree.
        use mb_cluster::Topology;
        let tree = mb_cluster::spec::metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        for (spec, placement) in [
            (mb_cluster::spec::metablade(), Placement::Lowest),
            (tree.clone(), Placement::Lowest),
            (tree, Placement::ContentionAware),
        ] {
            let jobs = generate(&WorkloadConfig {
                jobs: 40,
                seed: 23,
                mean_interarrival_s: 120.0,
                max_ranks: spec.nodes,
            });
            let cluster = Cluster::new(spec);
            let service = ServiceModel::new(&cluster);
            let cfg = SchedConfig {
                failure: Some(FailureConfig::accelerated(30_000.0, 5)),
                placement,
                ..SchedConfig::default()
            };
            for policy in [&Fcfs as &dyn SchedPolicy, &EasyBackfill] {
                let rep = simulate(&service, policy, &jobs, &cfg);
                let ctx = format!("{} {:?}", policy.name(), placement);
                assert!(rep.failures > 0, "{ctx}: no failure");
                assert!(rep.requeues > 0, "{ctx}: no requeue");
                assert!(rep.failures > rep.requeues, "{ctx}: no idle node struck");
                assert!(rep.jobs.iter().all(|r| r.end_s > 0.0), "{ctx}");
            }
        }
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

    #[test]
    fn a_stream_inside_edge_switches_folds_nothing_and_runs_as_on_the_star() {
        use mb_cluster::Topology;
        // Every job is 4 wide, a divisor of a switch's 16 hosts: each
        // switch's free count stays a multiple of 4, so `Compact`'s
        // fullest switch always has room whenever 4 nodes are free.
        let mut jobs = generate(&WorkloadConfig {
            jobs: 48,
            seed: 11,
            mean_interarrival_s: 60.0,
            max_ranks: 4,
        });
        jobs.iter_mut().for_each(|j| j.ranks = 4);
        let run = |spec: ClusterSpec| {
            let cluster = Cluster::new(spec);
            let service = ServiceModel::new(&cluster);
            let cfg = SchedConfig {
                placement: Placement::Compact,
                ..SchedConfig::default()
            };
            let mut source = VecArrivals::new(&jobs);
            let admission = &mut crate::stream::AdmitAll;
            simulate_stream(&service, &EasyBackfill, &mut source, admission, &cfg)
        };
        let star = run(mb_cluster::spec::metablade().with_nodes(64));
        let folds = || crate::ledger::FOLDS.with(std::cell::Cell::get);
        let before = folds();
        let tree = run(mb_cluster::spec::metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0)));
        // Every run sat under one edge switch, so none was a fabric run.
        let mut switch_of: HashMap<(usize, u32), usize> = HashMap::new();
        for span in &tree.sim.occupancy {
            let sw = *switch_of
                .entry((span.job, span.attempt))
                .or_insert(span.node / 16);
            assert_eq!(sw, span.node / 16, "job {} spans edge switches", span.job);
        }
        assert_eq!(folds() - before, 0, "a host-only stream folded an epoch");
        assert_eq!(tree.sim.max_contention_factor, 1.0);
        assert!(tree.sim.link_shared_s.is_empty());
        assert!(
            !tree.sim.link_bytes.is_empty(),
            "host links are still accounted"
        );
        assert_eq!(tree.stream_fingerprint, star.stream_fingerprint);
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
