//! The event-driven executor core: the one admission engine behind every
//! SPMD run, and the run's mailboxes.
//!
//! Each rank is a task the run's one poller polls (see [`crate::exec`]):
//! a stackless rank's future directly, a closure rank through the
//! thread-backed future that resumes its thread. The core has one slot,
//! and the rank holding it is the one `EventCore::next_poll` hands the
//! poller. Admission is one rule: when the slot is free, the lowest ready
//! `(virtual clock, rank)` takes it, popped from a binary min-heap in
//! `O(log n)`.
//!
//! Simulated outcomes do not depend on admission order at all: receives
//! name their source rank and are FIFO per `(source, tag)`, so every
//! rank's virtual clock is a pure function of its own event sequence and
//! its senders' timestamps (see [`crate::exec`]). Admission order affects
//! only *wall-clock* time and host memory.
//!
//! **Mailboxes.** The core's `deliver` either files a message in the
//! destination's mailbox (arrival order, so FIFO per `(src, tag)`) or —
//! when the destination awaits exactly that `(src, tag)` — hands it over
//! and makes the destination `Ready` at the clock it blocked at. Its
//! `take` returns a filed message without touching the slot, or records
//! what the rank awaits, gives up the slot and returns `Pending`; the
//! message waits on the task until the poller admits the rank again and
//! its `take` is polled once more. A task is therefore
//! `Ready → Running → (Awaiting → Ready → Running)* → Done`.
//!
//! The state sits behind a `Mutex` only because a closure rank calls in
//! from its own thread; the turn passes from one thread to the next, so
//! at most one caller is ever inside the core.
//!
//! **Failing loudly.** Admission itself cannot deadlock: a free slot
//! always takes the heap minimum. An SPMD *program* can: when nothing
//! runs, nothing is ready and some rank still awaits a message, nobody is
//! left to send it. The core then records each blocked rank's
//! [`BlockedRecv`], `EventCore::next_poll` has nobody to hand out, and
//! the run reports `EventCore::deadlock`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, MutexGuard};
use std::task::Poll;
use std::time::Instant;

use mb_telemetry::prof::LogHistogram;

use crate::comm::Msg;

/// Order-preserving map from `f64` to `u64` (IEEE-754 total order trick)
/// so clocks can live in integer-keyed heaps.
fn clock_key(c: f64) -> u64 {
    let b = c.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// Scheduling state of one rank's task.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum TaskState {
    /// In the ready queue at this clock, waiting for admission.
    Ready(f64),
    /// Holds the slot.
    Running,
    /// Gave up the slot in `take` until `src` delivers `tag`; re-enters
    /// the ready queue at `clock`, the rank's virtual time when it
    /// blocked.
    Awaiting { src: usize, tag: u32, clock: f64 },
    /// Holds no slot and wants none: finished, or not yet started.
    #[default]
    Done,
}

/// One rank's share of the core state.
#[derive(Default)]
struct Task {
    state: TaskState,
    /// Messages delivered and not yet taken, in arrival order.
    mailbox: Vec<Msg>,
    /// The message whose delivery made this task `Ready`; its next
    /// `take` returns it.
    handoff: Option<Msg>,
    /// Profiling only: when the task last became `Ready`.
    ready_at: Option<Instant>,
}

/// A receive nobody is left to satisfy: one entry of
/// [`crate::machine::SimError::Deadlock`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockedRecv {
    /// The blocked rank.
    pub rank: usize,
    /// The source it awaits.
    pub src: usize,
    /// The tag it awaits (collective tags have the high bit set).
    pub tag: u32,
    /// Its virtual clock when it blocked, seconds.
    pub clock: f64,
}

/// Host-time latency distributions the profiled core accumulates, all in
/// **host nanoseconds** (never virtual seconds — see DESIGN.md §12).
/// Present on [`ExecutorReport::prof`] only when profiling was enabled
/// ([`crate::machine::Cluster::with_prof`] or `MB_PROF=1`). This is the
/// accumulator itself: the core records into it under its state lock,
/// so there is one set of histograms however many ranks run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfReport {
    /// Slot-held spans: admission to giving the slot up (a `take` that
    /// has to wait, or `release`), per admission.
    pub busy_ns: LogHistogram,
    /// Admission waits: task made `Ready` (at the start or by the
    /// delivery it awaited) to its admission. Never message wait.
    pub idle_ns: LogHistogram,
    /// Thread wake-to-run: the poller handing a closure rank's thread
    /// the turn to that thread running again, per resume. Empty for
    /// stackless ranks, which have no thread to wake.
    pub wake_ns: LogHistogram,
    /// Ready-queue push latency (heap insert under the core lock).
    pub push_ns: LogHistogram,
    /// Ready-queue pop latency (heap pop per admission).
    pub pop_ns: LogHistogram,
    /// Always empty: no admission is deferred; kept while the frozen
    /// harness reads it.
    pub stall_ns: LogHistogram,
}

impl ProfReport {
    /// Publish every distribution into a registry under `prof/*` names
    /// (compacted log-bucket histograms), labelled by `label`. These ride
    /// the registry's export paths: Chrome counter tracks via
    /// `export_with_metrics`, JSON via `Registry::to_json`.
    pub fn record_into(&self, reg: &mut mb_telemetry::metrics::Registry, label: &str) {
        for (name, h) in [
            ("prof/task.busy_ns", &self.busy_ns),
            ("prof/task.idle_ns", &self.idle_ns),
            ("prof/gate.wake_ns", &self.wake_ns),
            ("prof/ready.push_ns", &self.push_ns),
            ("prof/ready.pop_ns", &self.pop_ns),
        ] {
            reg.set_histogram(name, label, h);
        }
    }
}

/// Counters and distribution sketches the core maintains under its lock.
/// Depth samples go straight into the shared log-bucketed histogram type,
/// so dispatch-time sampling stays O(1) and the report answers percentile
/// queries exactly like the `prof/*` metrics do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutorReport {
    /// Simulated ranks served.
    pub nranks: usize,
    /// Total task admissions (initial + one per blocking receive).
    pub admissions: u64,
    /// Always 0: no admission is deferred; kept while the frozen harness
    /// reads it.
    pub lookahead_grants: u64,
    /// Always 0: no admission is deferred; kept while the frozen harness
    /// reads it.
    pub horizon_waits: u64,
    /// Always 0: no admission is deferred; kept while the frozen harness
    /// reads it.
    pub pair_grants: u64,
    /// Ready-queue depth sampled at each dispatch (log-bucketed; exact
    /// count/sum/extremes, percentile queries via
    /// [`LogHistogram::quantile`]).
    pub depth_hist: LogHistogram,
    /// Peak ready-queue depth.
    pub max_ready_depth: usize,
    /// Host-time latency distributions; `Some` only when the core ran
    /// with profiling enabled.
    pub prof: Option<ProfReport>,
}

impl ExecutorReport {
    fn sample_depth(&mut self, depth: usize) {
        self.depth_hist.observe(depth as f64);
        self.max_ready_depth = self.max_ready_depth.max(depth);
    }

    /// Publish the report into a telemetry registry under `executor/*`
    /// metric names, labelled by `label`; host-time `prof/*`
    /// distributions ride along when profiling ran.
    pub fn record_into(&self, reg: &mut mb_telemetry::metrics::Registry, label: &str) {
        reg.count("executor/admissions", label, self.admissions);
        reg.record_gauge(
            "executor/max_ready_depth",
            label,
            self.max_ready_depth as f64,
        );
        reg.set_histogram("executor/ready_depth", label, &self.depth_hist);
        if let Some(p) = &self.prof {
            p.record_into(reg, label);
        }
    }
}

/// Host nanoseconds since `since`.
pub(crate) fn ns_since(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

struct CoreState {
    /// Whether a rank holds the slot.
    running: bool,
    tasks: Vec<Task>,
    /// Min-heap of `(clock_key, rank)` with one entry per `Ready` task:
    /// a task is pushed once when it becomes `Ready` and leaves `Ready`
    /// only by being popped, so its length is the ready-queue depth.
    ready_heap: BinaryHeap<Reverse<(u64, usize)>>,
    report: ExecutorReport,
    /// The blocked receives of a detected deadlock; empty otherwise.
    deadlock: Vec<BlockedRecv>,
    /// The admitted rank the poller has yet to poll.
    to_poll: Option<usize>,
    /// Profiling only: when the slot's holder was admitted.
    admitted_at: Option<Instant>,
    /// Test builds: when set, a seeded xorshift key replaces the clock
    /// key of the ready heap, so ranks are admitted in a random order.
    #[cfg(test)]
    order_seed: Option<u64>,
}

impl CoreState {
    /// The ready-heap entry of `rank` ready at `clock`.
    fn ready_entry(&self, clock: f64, rank: usize) -> Reverse<(u64, usize)> {
        #[cfg(test)]
        if let Some(seed) = self.order_seed {
            let mut x = seed ^ clock_key(clock) ^ (rank as u64) << 32;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return Reverse((x.wrapping_mul(0x2545_F491_4F6C_DD1D), rank));
        }
        Reverse((clock_key(clock), rank))
    }

    /// Pop the ready minimum's rank, if any.
    fn pop_ready(&mut self) -> Option<usize> {
        let top @ Reverse((_, rank)) = self.ready_heap.pop()?;
        debug_assert!(
            matches!(self.tasks[rank].state, TaskState::Ready(c) if self.ready_entry(c, rank) == top),
            "a ready-heap entry whose task is not Ready at its key"
        );
        Some(rank)
    }
}

/// The event-driven executor core. A run calls [`EventCore::start`] once
/// and then polls whichever rank [`EventCore::next_poll`] names until it
/// names none. A rank sends through [`EventCore::deliver`], receives
/// through [`EventCore::take`] (which gives up the slot only if the
/// message is not here yet), and the poller calls
/// [`EventCore::release`] when the rank has finished.
pub(crate) struct EventCore {
    state: Mutex<CoreState>,
    /// Whether `state.report.prof` is present, readable without the
    /// lock; off costs one branch per record site.
    profiling: bool,
}

impl EventCore {
    /// A core serving `nranks` ranks.
    pub fn new(nranks: usize) -> Self {
        EventCore {
            state: Mutex::new(CoreState {
                running: false,
                tasks: (0..nranks).map(|_| Task::default()).collect(),
                ready_heap: BinaryHeap::with_capacity(nranks),
                report: ExecutorReport {
                    nranks,
                    ..ExecutorReport::default()
                },
                deadlock: Vec::new(),
                to_poll: None,
                admitted_at: None,
                #[cfg(test)]
                order_seed: tests::ADMISSION_SEED.get(),
            }),
            profiling: false,
        }
    }

    /// Enable (or disable) host-time profiling. Profiling observes only
    /// the **host** clock — admission waits, busy spans, heap costs,
    /// thread wake latency — and never a virtual clock, so simulated
    /// outcomes are bit-identical with it on or off (regressed by
    /// `tests/determinism.rs`).
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        let st = self.state.get_mut().expect("event core lock");
        st.report.prof = on.then(ProfReport::default);
        self
    }

    /// True when the core records host-time profiles.
    pub(crate) fn profiling(&self) -> bool {
        self.profiling
    }

    fn lock(&self) -> MutexGuard<'_, CoreState> {
        self.state.lock().expect("event core lock")
    }

    /// Snapshot of the executor counters (plus the host-time profile
    /// when profiling is on).
    pub fn report(&self) -> ExecutorReport {
        self.lock().report.clone()
    }

    /// The receives a detected deadlock left blocked, by rank; empty
    /// unless the run ended for that reason.
    pub fn deadlock(&self) -> Vec<BlockedRecv> {
        self.lock().deadlock.clone()
    }

    /// Record one thread wake-up of `ns` host nanoseconds (profiling
    /// only; the caller checks [`EventCore::profiling`]).
    pub(crate) fn record_wake(&self, ns: f64) {
        if let Some(p) = &mut self.lock().report.prof {
            p.wake_ns.observe(ns);
        }
    }

    /// Admit the lowest ready task if the slot is free, and look for a
    /// deadlocked program: the last step of every transition that
    /// readies a task or frees the slot.
    fn dispatch(&self, st: &mut CoreState) {
        st.report.sample_depth(st.ready_heap.len());
        if !st.running {
            let t_pop = self.profiling.then(Instant::now);
            if let Some(rank) = st.pop_ready() {
                st.tasks[rank].state = TaskState::Running;
                st.running = true;
                st.report.admissions += 1;
                debug_assert!(st.to_poll.is_none(), "two grants outstanding");
                st.to_poll = Some(rank);
                if let (Some(p), Some(t)) = (&mut st.report.prof, t_pop) {
                    p.pop_ns.observe(ns_since(t));
                    if let Some(ready_at) = st.tasks[rank].ready_at.take() {
                        p.idle_ns.observe(ns_since(ready_at));
                    }
                    st.admitted_at = Some(Instant::now());
                }
            }
        }
        if !st.running && st.ready_heap.is_empty() {
            // Nothing runs and nothing can: the run is over, or whoever
            // still awaits a message has nobody left to send it.
            st.deadlock = (st.tasks.iter().enumerate())
                .filter_map(|(rank, t)| match t.state {
                    TaskState::Awaiting { src, tag, clock } => Some(BlockedRecv {
                        rank,
                        src,
                        tag,
                        clock,
                    }),
                    _ => None,
                })
                .collect();
        }
    }

    /// Put `rank` in the ready queue at `clock`.
    fn make_ready(&self, st: &mut CoreState, rank: usize, clock: f64) {
        let now = self.profiling.then(Instant::now);
        st.tasks[rank].state = TaskState::Ready(clock);
        st.tasks[rank].ready_at = now;
        let entry = st.ready_entry(clock, rank);
        st.ready_heap.push(entry);
        if let (Some(p), Some(t)) = (&mut st.report.prof, now) {
            p.push_ns.observe(ns_since(t));
        }
    }

    /// Free `rank`'s slot, leave the task in `next` and admit whoever may
    /// now run. Its busy span ended at `left`, before any wait for the
    /// lock.
    fn vacate(&self, st: &mut CoreState, rank: usize, left: Option<Instant>, next: TaskState) {
        debug_assert!(
            st.tasks[rank].state == TaskState::Running,
            "gave up a slot it did not hold"
        );
        if let (Some(p), Some(left), Some(at)) = (&mut st.report.prof, left, st.admitted_at) {
            p.busy_ns
                .observe(left.saturating_duration_since(at).as_nanos() as f64);
        }
        st.running = false;
        st.tasks[rank].state = next;
        self.dispatch(st);
    }

    /// The run's entry: every rank ready at virtual time zero, and the
    /// first admitted.
    pub(crate) fn start(&self) {
        let st = &mut *self.lock();
        for rank in 0..st.tasks.len() {
            self.make_ready(st, rank, 0.0);
        }
        self.dispatch(st);
    }

    /// The rank the poller polls next: the one the core has admitted
    /// since the last call. `None` once nothing is admitted — the run is
    /// over, or [`EventCore::deadlock`] says why not.
    pub(crate) fn next_poll(&self) -> Option<usize> {
        self.lock().to_poll.take()
    }

    /// Give up `rank`'s slot for good: the rank has finished.
    pub fn release(&self, rank: usize) {
        let left = self.profiling.then(Instant::now);
        self.vacate(&mut self.lock(), rank, left, TaskState::Done);
    }

    /// Send `msg` to `dst`. If `dst` awaits exactly this `(src, tag)` the
    /// message is handed over and `dst` becomes `Ready` at the clock it
    /// blocked at; otherwise the message waits in `dst`'s mailbox.
    pub fn deliver(&self, dst: usize, msg: Msg) {
        let st = &mut *self.lock();
        let task = &mut st.tasks[dst];
        match task.state {
            TaskState::Awaiting { src, tag, clock } if src == msg.src && tag == msg.tag => {
                task.handoff = Some(msg);
                self.make_ready(st, dst, clock);
                self.dispatch(st);
            }
            _ => task.mailbox.push(msg),
        }
    }

    /// Receive for `rank`, at virtual time `clock`, the oldest message
    /// from `src` with `tag`. A message already filed is returned with
    /// the slot untouched. Otherwise the rank records what it awaits,
    /// gives up its slot and gets `Pending`; the matching
    /// [`EventCore::deliver`] re-queues it at `clock`, and the same
    /// `take` polled after its next admission returns the message.
    pub fn take(&self, rank: usize, src: usize, tag: u32, clock: f64) -> Poll<Msg> {
        let left = self.profiling.then(Instant::now);
        let st = &mut *self.lock();
        let task = &mut st.tasks[rank];
        if let Some(msg) = task.handoff.take() {
            return Poll::Ready(msg);
        }
        if let Some(i) = task
            .mailbox
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            return Poll::Ready(task.mailbox.remove(i));
        }
        self.vacate(st, rank, left, TaskState::Awaiting { src, tag, clock });
        Poll::Pending
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::future::poll_fn;

    thread_local! {
        /// The order seed a core built on this thread takes: `Some` makes
        /// it admit ready ranks in a seeded random order.
        pub(crate) static ADMISSION_SEED: Cell<Option<u64>> = const { Cell::new(None) };
    }

    #[test]
    fn clock_key_preserves_order() {
        let vals = [-2.0, -0.5, -0.0, 0.0, 1e-12, 85e-6, 1.0, 1e9];
        for w in vals.windows(2) {
            assert!(clock_key(w[0]) <= clock_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(clock_key(-1.0) < clock_key(1.0));
    }

    fn msg(src: usize, tag: u32) -> Msg {
        Msg {
            src,
            tag,
            deliver: 0.0,
            payload: bytes::Bytes::new(),
        }
    }

    fn state_of(core: &EventCore, rank: usize) -> TaskState {
        core.lock().tasks[rank].state
    }

    #[test]
    fn single_slot_admission_is_lowest_clock_first() {
        // Ranks 1..6 wait for rank 0 at clocks that fall with their rank;
        // rank 0 answers them in rank order and finishes. The slot then
        // goes out in (clock, rank) order, whatever the delivery order.
        let nranks = 6;
        let core = EventCore::new(nranks);
        core.start();
        assert_eq!(core.next_poll(), Some(0));
        assert!(core.take(0, nranks - 1, 1, 0.0).is_pending());
        for rank in 1..nranks {
            assert_eq!(core.next_poll(), Some(rank));
            if rank == nranks - 1 {
                core.deliver(0, msg(rank, 1));
            }
            assert!(core.take(rank, 0, 2, (nranks - rank) as f64).is_pending());
        }
        assert_eq!(core.next_poll(), Some(0));
        assert!(core.take(0, nranks - 1, 1, 0.0).is_ready());
        for rank in 1..nranks {
            core.deliver(rank, msg(0, 2));
        }
        core.release(0);
        let mut order = Vec::new();
        while let Some(rank) = core.next_poll() {
            assert!(core.take(rank, 0, 2, 0.0).is_ready());
            order.push(rank);
            core.release(rank);
        }
        assert_eq!(order, vec![5, 4, 3, 2, 1]);
        assert!(core.deadlock().is_empty());
    }

    #[test]
    fn a_free_slot_admits_the_lowest_ready_rank_whatever_its_clock() {
        // Rank 0 waits at clock 0 while rank 1, readied 10 s ahead of it,
        // takes the free slot: no horizon holds a ready rank back.
        let core = EventCore::new(3);
        core.start();
        assert_eq!(core.next_poll(), Some(0));
        assert!(core.take(0, 1, 9, 0.0).is_pending());
        assert_eq!(core.next_poll(), Some(1));
        assert!(core.take(1, 2, 8, 10.0).is_pending());
        assert_eq!(core.next_poll(), Some(2));
        core.deliver(1, msg(2, 8));
        core.release(2);
        assert_eq!(core.next_poll(), Some(1));
        assert_eq!(
            state_of(&core, 0),
            TaskState::Awaiting {
                src: 1,
                tag: 9,
                clock: 0.0
            }
        );
        assert!(core.take(1, 2, 8, 10.0).is_ready());
        core.deliver(0, msg(1, 9));
        core.release(1);
        assert_eq!(core.next_poll(), Some(0));
        assert!(core.take(0, 1, 9, 0.0).is_ready());
        core.release(0);
        assert_eq!(core.next_poll(), None);
        assert!(core.deadlock().is_empty());
    }

    #[test]
    fn report_histograms_use_shared_log_buckets() {
        let mut r = ExecutorReport::default();
        for d in [0usize, 1, 2, 3, 1024] {
            r.sample_depth(d);
        }
        assert_eq!(r.depth_hist.count(), 5);
        assert_eq!(r.max_ready_depth, 1024);
        assert_eq!(r.depth_hist.max(), 1024.0);
        // The shared histogram keeps the true sum: mean is now exact,
        // not a bucket-midpoint estimate.
        assert!((r.depth_hist.mean() - 206.0).abs() < 1e-12);
        // And percentile queries come for free.
        assert!(r.depth_hist.p50() <= r.depth_hist.p99());
    }

    #[test]
    fn report_record_into_publishes_compact_histograms() {
        let mut r = ExecutorReport::default();
        for d in [1usize, 1, 8, 300] {
            r.sample_depth(d);
        }
        r.admissions = 4;
        let mut reg = mb_telemetry::metrics::Registry::new();
        r.record_into(&mut reg, "w4");
        match reg.find("executor/ready_depth", "w4").unwrap() {
            mb_telemetry::metrics::MetricValue::Histogram(h) => {
                assert_eq!(h.count(), 4);
                assert_eq!(h.occupied().map(|(_, _, c)| c).sum::<u64>(), 4);
                // Compacted: 3 occupied buckets, not a fixed 16.
                assert_eq!(h.occupied().count(), 3);
            }
            _ => panic!("not a histogram"),
        }
        // No prof section → no prof/* metrics.
        assert!(reg.find("prof/task.busy_ns", "w4").is_none());
    }

    #[test]
    fn profiled_core_records_host_latencies_without_changing_counters() {
        // A ring of futures over the core alone, each round's receive
        // awaited at a skewed clock.
        let nranks = 8;
        let rounds = 12;
        let run = |prof: bool| {
            let core = EventCore::new(nranks).with_profiling(prof);
            let (core, pending) = (&core, &Cell::new(0u64));
            let ranks = (0..nranks)
                .map(|rank| {
                    Box::pin(async move {
                        for round in 0..rounds {
                            core.deliver((rank + 1) % nranks, msg(rank, round));
                            let (src, clock) = ((rank + nranks - 1) % nranks, round as f64);
                            poll_fn(|_| {
                                let got = core.take(rank, src, round, clock + rank as f64 / 100.0);
                                pending.set(pending.get() + u64::from(got.is_pending()));
                                got
                            })
                            .await;
                        }
                    })
                })
                .collect();
            crate::exec::poll_ranks(core, ranks).expect("a ring cannot deadlock");
            (core.report(), pending.get())
        };
        let (plain, pending) = run(false);
        let (profiled, _) = run(true);
        // Every rank is admitted once at the start and once more per
        // receive that returned `Pending`; none of that can depend on
        // whether we timed it.
        assert_eq!(plain.admissions, nranks as u64 + pending);
        assert_eq!(plain.admissions, 20, "{plain:?}");
        assert_eq!(profiled.admissions, plain.admissions);
        assert_eq!(profiled.depth_hist, plain.depth_hist);
        assert!(plain.prof.is_none());
        let p = profiled.prof.expect("profiling enabled");
        let total = plain.admissions;
        assert_eq!(p.busy_ns.count(), total, "one busy span per admission");
        assert_eq!(p.idle_ns.count(), total, "one admission wait per admission");
        assert_eq!(p.push_ns.count(), total);
        assert_eq!(p.pop_ns.count(), total);
        assert_eq!(p.wake_ns.count(), 0, "no thread to wake");
        assert!(p.busy_ns.max() > 0.0, "spans take measurable host time");
        assert!(p.busy_ns.p50() <= p.busy_ns.p999());
    }

    #[test]
    fn filed_messages_are_taken_without_giving_up_the_slot() {
        let core = EventCore::new(2);
        core.start();
        assert_eq!(core.next_poll(), Some(0));
        for tag in [5, 6, 5] {
            core.deliver(1, msg(0, tag));
        }
        core.release(0);
        assert_eq!(core.next_poll(), Some(1));
        for tag in [6, 5, 5] {
            assert!(matches!(core.take(1, 0, tag, 0.0), Poll::Ready(m) if m.tag == tag));
        }
        core.release(1);
        assert_eq!(core.next_poll(), None);
        assert_eq!(core.report().admissions, 2, "the two initial ones");
        assert!(core.deadlock().is_empty());
    }

    #[test]
    fn a_blocking_take_is_one_admission_at_the_clock_it_blocked_at() {
        let core = EventCore::new(2).with_profiling(true);
        core.start();
        assert_eq!(core.next_poll(), Some(0));
        assert!(core.take(0, 1, 9, 2.5).is_pending());
        let awaiting = TaskState::Awaiting {
            src: 1,
            tag: 9,
            clock: 2.5,
        };
        assert_eq!(state_of(&core, 0), awaiting);
        assert_eq!(core.next_poll(), Some(1));
        core.deliver(0, msg(1, 7)); // not what rank 0 awaits: filed
        assert_eq!(state_of(&core, 0), awaiting);
        core.deliver(0, msg(1, 9));
        // Ready at the clock it blocked at; the one slot is rank 1's.
        assert_eq!(state_of(&core, 0), TaskState::Ready(2.5));
        assert_eq!(core.next_poll(), None);
        core.release(1);
        assert_eq!(core.next_poll(), Some(0));
        assert!(matches!(core.take(0, 1, 9, 2.5), Poll::Ready(m) if m.tag == 9));
        core.release(0);
        let rep = core.report();
        assert_eq!(rep.admissions, 3, "two initial, one for the receive");
        let p = rep.prof.expect("profiling on");
        for h in [&p.busy_ns, &p.idle_ns, &p.push_ns, &p.pop_ns] {
            assert_eq!(h.count(), 3, "one sample per admission");
        }
    }
}
