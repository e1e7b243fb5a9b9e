//! The event-driven executor core: the one admission engine behind every
//! [`crate::exec::ExecPolicy`].
//!
//! Each rank execution is a resumable task, in one of two forms (see
//! [`crate::exec`]). A **thread rank** runs on an OS thread that parks on
//! the rank's gate whenever the task is not admitted; the core
//! multiplexes the admitted tasks over a fixed number of execution slots
//! (one for `Sequential`, `workers` for `Parallel`, `nranks` for
//! `Unbounded`). A **stackless rank** is a future the calling thread
//! polls: a stackless core has one slot and no gates, and the rank it
//! admits is the one `next_poll` hands the poller. Admission is one rule:
//! while a slot is free, the lowest ready `(virtual clock, rank)` takes
//! it, popped from a binary min-heap in `O(log n)`.
//!
//! Simulated outcomes do not depend on admission order at all: receives
//! name their source rank and are FIFO per `(source, tag)`, so every
//! rank's virtual clock is a pure function of its own event sequence and
//! its senders' timestamps (see [`crate::exec`]). Admission order affects
//! only *wall-clock* time and host memory.
//! Wake-ups use one `Condvar` per rank (`notify_one` direct handoff), so
//! an admission wakes exactly the admitted task, never the whole pool —
//! and only once the dispatcher has let go of the state lock, so a woken
//! rank that preempts its waker does not run into it.
//!
//! **Mailboxes.** Message transport lives here too, under the same state
//! lock as admission. The core's `deliver` either files a message in the
//! destination's mailbox (arrival order, so FIFO per `(src, tag)`) or —
//! when the destination is parked awaiting exactly that `(src, tag)` —
//! hands it over and makes the destination `Ready` at the clock it
//! blocked at, in the same critical section. Its `take` returns a filed
//! message without touching the slot, or records what the rank awaits
//! and gives up its slot. A thread rank then parks **once** on its gate,
//! and the grant that reopens the gate carries the message; a stackless
//! rank's `take` returns `Pending` instead, and the message waits on the
//! task until the poller admits the rank again and its `take` is polled
//! once more. A task is therefore
//! `Unstarted → Ready → Running → (Awaiting → Ready → Running)* → Done`.
//!
//! **Failing loudly.** Admission itself cannot deadlock: a free slot
//! always takes the heap minimum. An SPMD *program* can: when nothing
//! runs, nothing is ready, every rank has started and some rank still
//! awaits a message, nobody is left to send it. The core then records
//! each blocked rank's [`BlockedRecv`] (a stackless poller finds nothing
//! left to poll and reports them), and poisons itself: every gate is
//! woken and every parked rank (now or later) unwinds with the
//! `Poisoned` marker instead of waiting forever. Poisoning is also what
//! a panicking rank's drop guard does, so its peers unwind rather than
//! park on messages that will never come (see `exec.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
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
    /// Has not made its first `acquire`: rank threads are spawned one by
    /// one, so rank 0 can block before rank 1 exists. Still live, as far
    /// as deadlock detection is concerned.
    #[default]
    Unstarted,
    /// In the ready queue at this clock, waiting for admission.
    Ready(f64),
    /// Holds an execution slot.
    Running,
    /// Parked in `take` until `src` delivers `tag`; re-enters the ready
    /// queue at `clock`, the rank's virtual time when it blocked.
    Awaiting { src: usize, tag: u32, clock: f64 },
    /// Finished: holds no slot, wants none.
    Done,
}

/// One rank's share of the core state.
#[derive(Default)]
struct Task {
    state: TaskState,
    /// Messages delivered and not yet taken, in arrival order.
    mailbox: Vec<Msg>,
    /// The message whose delivery made this task `Ready`; a thread
    /// rank's grant moves it to the gate, a stackless rank's next `take`
    /// returns it.
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

/// Panic payload of a rank unwinding out of a poisoned core: a
/// *secondary* failure, never the cause. `machine.rs` tells it from the
/// originating rank's payload by type.
#[derive(Debug)]
pub(crate) struct Poisoned;

/// Host-time latency distributions the profiled core accumulates, all in
/// **host nanoseconds** (never virtual seconds — see DESIGN.md §12).
/// Present on [`ExecutorReport::prof`] only when profiling was enabled
/// ([`crate::machine::Cluster::with_prof`] or `MB_PROF=1`). This is the
/// accumulator itself: the core records into it under its state lock,
/// so there is one set of histograms however many ranks run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfReport {
    /// Slot-held spans: admission wake to giving the slot up (a blocking
    /// `take`, or `release`), per admission.
    pub busy_ns: LogHistogram,
    /// Admission waits: task made `Ready` (by its first `acquire` or by
    /// the delivery it awaited) to running again. Never message wait.
    pub idle_ns: LogHistogram,
    /// Gate wake-to-run: dispatcher's `notify_one` to the woken task
    /// resuming past its condvar wait.
    pub wake_ns: LogHistogram,
    /// Ready-queue push latency (heap insert under the core lock).
    pub push_ns: LogHistogram,
    /// Ready-queue pop latency (valid-minimum selection per admission).
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
            reg.set_histogram(name, label, h.to_metric());
        }
    }
}

/// Counters and distribution sketches the core maintains under its lock.
/// Depth/occupancy samples go straight into the shared log-bucketed
/// histogram type, so dispatch-time sampling stays O(1) and the report
/// answers percentile queries exactly like the `prof/*` metrics do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutorReport {
    /// Execution slots in the pool (`nranks` when unbounded).
    pub workers: usize,
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
    /// Occupied-slot count sampled at each admission, same bucketing.
    pub occupancy_hist: LogHistogram,
    /// Peak ready-queue depth.
    pub max_ready_depth: usize,
    /// Peak simultaneously admitted tasks.
    pub max_occupancy: usize,
    /// Host-time latency distributions; `Some` only when the core ran
    /// with profiling enabled.
    pub prof: Option<ProfReport>,
}

impl ExecutorReport {
    fn sample_depth(&mut self, depth: usize) {
        self.depth_hist.observe(depth as f64);
        self.max_ready_depth = self.max_ready_depth.max(depth);
    }

    fn sample_occupancy(&mut self, running: usize) {
        self.occupancy_hist.observe(running as f64);
        self.max_occupancy = self.max_occupancy.max(running);
    }

    /// Mean ready-queue depth over dispatch samples (exact: the shared
    /// histogram keeps the true sum, not a bucket-midpoint estimate).
    pub fn mean_ready_depth(&self) -> f64 {
        self.depth_hist.mean()
    }

    /// Publish the report into a telemetry registry under `executor/*`
    /// metric names, labelled by `label` (normally the policy label);
    /// host-time `prof/*` distributions ride along when profiling ran.
    pub fn record_into(&self, reg: &mut mb_telemetry::metrics::Registry, label: &str) {
        reg.count("executor/admissions", label, self.admissions);
        reg.record_gauge("executor/workers", label, self.workers as f64);
        reg.record_gauge(
            "executor/max_ready_depth",
            label,
            self.max_ready_depth as f64,
        );
        reg.record_gauge("executor/max_occupancy", label, self.max_occupancy as f64);
        reg.set_histogram("executor/ready_depth", label, self.depth_hist.to_metric());
        reg.set_histogram("executor/occupancy", label, self.occupancy_hist.to_metric());
        if let Some(p) = &self.prof {
            p.record_into(reg, label);
        }
    }
}

/// One rank's parking spot: the flag is "admitted", flipped by the
/// dispatcher under the gate lock, then signalled with `notify_one`; a
/// grant that ends a blocking `take` carries the awaited message. The
/// profiling stamps live behind the same lock: `granted` is written by
/// the dispatcher and consumed by the woken task; `resumed` is written
/// by the task as it resumes and consumed when it next gives up its
/// slot, which folds it into the profile under the state lock. Both
/// stay `None` with profiling off.
struct Gate {
    slot: Mutex<GateSlot>,
    cv: Condvar,
}

#[derive(Default)]
struct GateSlot {
    admitted: bool,
    msg: Option<Msg>,
    /// When the task became `Ready`, and when it was granted a slot.
    granted: Option<(Instant, Instant)>,
    resumed: Option<Resumed>,
}

/// What a profiled task measured on its way out of its gate.
struct Resumed {
    /// Dispatcher's `notify_one` to the task running again.
    wake_ns: f64,
    /// Task made `Ready` to the task running again.
    idle_ns: f64,
    /// When the slot-held span began.
    at: Instant,
}

/// Host nanoseconds since `since`.
fn ns_since(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

struct CoreState {
    running: usize,
    ready: usize,
    /// Tasks still `Unstarted`.
    unstarted: usize,
    tasks: Vec<Task>,
    /// Min-heap of `(clock_key, rank)` over Ready tasks; entries are
    /// lazily invalidated (valid iff the rank is still Ready at that
    /// exact clock).
    ready_heap: BinaryHeap<Reverse<(u64, usize)>>,
    report: ExecutorReport,
    /// The blocked receives of a detected deadlock; empty otherwise.
    deadlock: Vec<BlockedRecv>,
    /// Stackless cores: the admitted rank the poller has yet to poll.
    to_poll: Option<usize>,
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

    /// Pop the valid ready minimum's rank, if any.
    fn pop_ready(&mut self) -> Option<usize> {
        while let Some(top @ Reverse((_, rank))) = self.ready_heap.pop() {
            match self.tasks[rank].state {
                TaskState::Ready(c) if self.ready_entry(c, rank) == top => return Some(rank),
                _ => {}
            }
        }
        None
    }
}

/// The event-driven executor core. A thread rank blocks in
/// [`EventCore::acquire`] until it may first make host progress, sends
/// through [`EventCore::deliver`], receives through [`EventCore::take`]
/// (which gives up the slot only if the message is not here yet) and
/// calls [`EventCore::release`] when it has finished. A stackless run
/// replaces `acquire` with one [`EventCore::start`] and asks
/// [`EventCore::next_poll`] which rank to poll.
pub(crate) struct EventCore {
    workers: usize,
    state: Mutex<CoreState>,
    gates: Vec<Gate>,
    /// Set once by [`EventCore::poison`], read by every gate waiter
    /// under its gate lock.
    poisoned: AtomicBool,
    /// Whether `state.report.prof` is present, readable without the
    /// lock; off costs one branch per record site.
    profiling: bool,
    /// No gates: ranks are futures one caller polls, and a `take` that
    /// has to wait returns `Pending` instead of parking.
    stackless: bool,
}

impl EventCore {
    /// A core with `workers` execution slots serving `nranks` thread
    /// ranks.
    pub fn new(workers: usize, nranks: usize) -> Self {
        Self::build(workers.max(1), nranks, false)
    }

    /// A core for `nranks` stackless ranks: one slot (the calling
    /// thread) and no gates.
    pub(crate) fn stackless(nranks: usize) -> Self {
        Self::build(1, nranks, true)
    }

    fn build(workers: usize, nranks: usize, stackless: bool) -> Self {
        EventCore {
            workers,
            state: Mutex::new(CoreState {
                running: 0,
                ready: 0,
                unstarted: nranks,
                tasks: (0..nranks).map(|_| Task::default()).collect(),
                ready_heap: BinaryHeap::with_capacity(nranks),
                report: ExecutorReport {
                    workers,
                    nranks,
                    ..ExecutorReport::default()
                },
                deadlock: Vec::new(),
                to_poll: None,
                #[cfg(test)]
                order_seed: tests::ADMISSION_SEED.get(),
            }),
            gates: (0..if stackless { 0 } else { nranks })
                .map(|_| Gate {
                    slot: Mutex::new(GateSlot::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            poisoned: AtomicBool::new(false),
            profiling: false,
            stackless,
        }
    }

    /// Enable (or disable) host-time profiling. Profiling observes only
    /// the **host** clock — admission waits, gate wake latency, heap
    /// costs — and never a virtual clock, so simulated outcomes are
    /// bit-identical with it on or off (regressed by
    /// `tests/determinism.rs`).
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        let st = self.state.get_mut().expect("event core lock");
        st.report.prof = on.then(ProfReport::default);
        self
    }

    /// True for a core built by `EventCore::stackless`.
    pub(crate) fn is_stackless(&self) -> bool {
        self.stackless
    }

    /// Snapshot of the executor counters (plus the host-time profile
    /// when profiling is on).
    pub fn report(&self) -> ExecutorReport {
        self.state.lock().expect("event core lock").report.clone()
    }

    /// The receives a detected deadlock left blocked, by rank; empty
    /// unless the core poisoned itself for that reason.
    pub fn deadlock(&self) -> Vec<BlockedRecv> {
        self.state.lock().expect("event core lock").deadlock.clone()
    }

    /// Kill the run: wake every gate, so every rank parked now — and
    /// every rank that parks later — unwinds with `Poisoned` instead
    /// of waiting. Called by a panicking rank's drop guard, so it must
    /// not panic itself: a gate lock some other panic poisoned is still
    /// a held lock.
    pub fn poison(&self) {
        // Waiters re-check the flag under their gate lock, which the
        // loop below takes after the store: none can miss both the flag
        // and the notification. Peers unwinding from it call in again.
        if self.poisoned.swap(true, Ordering::SeqCst) {
            return;
        }
        for gate in &self.gates {
            let _held = gate.slot.lock();
            gate.cv.notify_one();
        }
    }

    /// Admit the lowest ready task while a slot is free, look for a
    /// deadlocked program, then give the state lock back and wake the
    /// admitted: the last step of every transition that readies a task
    /// or frees a slot. The wake-ups come after the unlock because a
    /// woken rank that preempts its waker would otherwise run straight
    /// into the lock the waker still holds.
    fn dispatch(&self, mut guard: MutexGuard<'_, CoreState>) {
        let st = &mut *guard;
        let mut woken = Vec::new();
        let depth = st.ready;
        st.report.sample_depth(depth);
        while st.running < self.workers {
            let t_pop = self.profiling.then(Instant::now);
            let Some(rank) = st.pop_ready() else {
                break;
            };
            st.ready -= 1;
            st.tasks[rank].state = TaskState::Running;
            st.running += 1;
            st.report.admissions += 1;
            st.report.sample_occupancy(st.running);
            if let (Some(p), Some(t)) = (&mut st.report.prof, t_pop) {
                p.pop_ns.observe(ns_since(t));
            }
            if self.stackless {
                // One slot, so at most one grant is ever outstanding.
                debug_assert!(st.to_poll.is_none(), "two stackless grants");
                st.to_poll = Some(rank);
                continue;
            }
            let task = &mut st.tasks[rank];
            let mut slot = self.gates[rank].slot.lock().expect("gate lock");
            slot.admitted = true;
            slot.msg = task.handoff.take();
            slot.granted = task.ready_at.take().map(|at| (at, Instant::now()));
            woken.push(rank);
        }
        if st.running == 0 && st.ready == 0 && st.unstarted == 0 {
            // Nothing runs and nothing can: the run is over, or whoever
            // still awaits a message has nobody left to send it.
            let blocked: Vec<BlockedRecv> = (st.tasks.iter().enumerate())
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
            if !blocked.is_empty() {
                st.deadlock = blocked;
                self.poison();
            }
        }
        drop(guard);
        for rank in woken {
            self.gates[rank].cv.notify_one();
        }
    }

    /// Put `rank` in the ready queue at `clock` (state lock held).
    fn make_ready(&self, st: &mut CoreState, rank: usize, clock: f64) {
        let now = self.profiling.then(Instant::now);
        st.tasks[rank].state = TaskState::Ready(clock);
        st.tasks[rank].ready_at = now;
        let entry = st.ready_entry(clock, rank);
        st.ready_heap.push(entry);
        st.ready += 1;
        if let (Some(p), Some(t)) = (&mut st.report.prof, now) {
            p.push_ns.observe(ns_since(t));
        }
    }

    /// Free `rank`'s slot, leave the task in `next` and admit whoever may
    /// now run. Its busy span ended at `left`, before any wait for the
    /// lock.
    fn vacate(
        &self,
        mut st: MutexGuard<'_, CoreState>,
        rank: usize,
        left: Option<Instant>,
        next: TaskState,
    ) {
        debug_assert!(
            st.tasks[rank].state == TaskState::Running,
            "gave up a slot it did not hold"
        );
        // Busy, idle and wake spans are stamped at a thread rank's gate;
        // a stackless rank has none.
        if let (Some(p), Some(left), false) = (&mut st.report.prof, left, self.stackless) {
            let resumed = self.gates[rank]
                .slot
                .lock()
                .expect("gate lock")
                .resumed
                .take();
            if let Some(r) = resumed {
                p.wake_ns.observe(r.wake_ns);
                p.idle_ns.observe(r.idle_ns);
                p.busy_ns
                    .observe(left.saturating_duration_since(r.at).as_nanos() as f64);
            }
        }
        st.running -= 1;
        st.tasks[rank].state = next;
        self.dispatch(st);
    }

    /// Park `rank`'s thread until the dispatcher opens its gate; returns
    /// the message the grant carried, if any. Unwinds with [`Poisoned`]
    /// if the core is poisoned first.
    fn park(&self, rank: usize) -> Option<Msg> {
        let gate = &self.gates[rank];
        let mut slot = gate.slot.lock().expect("gate lock");
        while !slot.admitted {
            if self.poisoned.load(Ordering::SeqCst) {
                // Not a new failure: no panic hook, no gate lock held.
                drop(slot);
                std::panic::resume_unwind(Box::new(Poisoned));
            }
            slot = gate.cv.wait(slot).expect("gate wait");
        }
        slot.admitted = false;
        if let Some((ready_at, granted_at)) = slot.granted.take() {
            slot.resumed = Some(Resumed {
                wake_ns: ns_since(granted_at),
                idle_ns: ns_since(ready_at),
                at: Instant::now(),
            });
        }
        slot.msg.take()
    }

    /// Block until `rank` (at virtual time `clock`) is admitted: a
    /// thread rank's entry into the run.
    pub fn acquire(&self, rank: usize, clock: f64) {
        let mut st = self.state.lock().expect("event core lock");
        debug_assert!(
            st.tasks[rank].state != TaskState::Running,
            "acquire while running"
        );
        if st.tasks[rank].state == TaskState::Unstarted {
            st.unstarted -= 1;
        }
        self.make_ready(&mut st, rank, clock);
        self.dispatch(st);
        self.park(rank);
    }

    /// A stackless run's entry: every rank ready at virtual time zero,
    /// and the first admitted.
    pub(crate) fn start(&self) {
        let mut st = self.state.lock().expect("event core lock");
        for rank in 0..st.tasks.len() {
            self.make_ready(&mut st, rank, 0.0);
        }
        st.unstarted = 0;
        self.dispatch(st);
    }

    /// The rank a stackless poller polls next: the one the core has
    /// admitted since the last call. `None` once nothing is admitted —
    /// the run is over, or [`EventCore::deadlock`] says why not.
    pub(crate) fn next_poll(&self) -> Option<usize> {
        self.state.lock().expect("event core lock").to_poll.take()
    }

    /// Give up `rank`'s slot for good: the rank has finished.
    pub fn release(&self, rank: usize) {
        let left = self.profiling.then(Instant::now);
        let st = self.state.lock().expect("event core lock");
        self.vacate(st, rank, left, TaskState::Done);
    }

    /// Send `msg` to `dst`. If `dst` is parked awaiting exactly this
    /// `(src, tag)` the message is handed over and `dst` becomes `Ready`
    /// at the clock it blocked at — one critical section, no second
    /// wake-up; otherwise the message waits in `dst`'s mailbox.
    pub fn deliver(&self, dst: usize, msg: Msg) {
        let mut st = self.state.lock().expect("event core lock");
        let task = &mut st.tasks[dst];
        match task.state {
            TaskState::Awaiting { src, tag, clock } if src == msg.src && tag == msg.tag => {
                task.handoff = Some(msg);
                self.make_ready(&mut st, dst, clock);
                self.dispatch(st);
            }
            _ => task.mailbox.push(msg),
        }
    }

    /// Receive for `rank`, at virtual time `clock`, the oldest message
    /// from `src` with `tag`. A message already filed is returned with
    /// the slot untouched. Otherwise the rank records what it awaits and
    /// gives up its slot; the matching [`EventCore::deliver`] re-queues
    /// it at `clock`. A thread rank parks once, and the grant brings the
    /// message along, so its `take` is never `Pending`. A stackless rank
    /// gets `Pending`, and the same `take` polled after its next
    /// admission returns the delivered message.
    pub fn take(&self, rank: usize, src: usize, tag: u32, clock: f64) -> Poll<Msg> {
        let left = self.profiling.then(Instant::now);
        let mut st = self.state.lock().expect("event core lock");
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
        if self.stackless {
            self.vacate(st, rank, left, TaskState::Awaiting { src, tag, clock });
            return Poll::Pending;
        }
        self.vacate(st, rank, left, TaskState::Awaiting { src, tag, clock });
        Poll::Ready(
            self.park(rank)
                .expect("a rank awaiting a message is only readied by its delivery"),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

    #[test]
    fn core_never_exceeds_worker_count() {
        let nranks = 12;
        for workers in [1usize, 3] {
            let core = Arc::new(EventCore::new(workers, nranks));
            let running = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for rank in 0..nranks {
                    let core = Arc::clone(&core);
                    let running = Arc::clone(&running);
                    let peak = Arc::clone(&peak);
                    scope.spawn(move || {
                        for round in 0..16 {
                            core.acquire(rank, round as f64 + rank as f64 / 100.0);
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            running.fetch_sub(1, Ordering::SeqCst);
                            core.release(rank);
                        }
                    });
                }
            });
            assert!(
                peak.load(Ordering::SeqCst) <= workers,
                "peak concurrency {} exceeded {workers} workers",
                peak.load(Ordering::SeqCst)
            );
            let rep = core.report();
            assert_eq!(rep.admissions, (nranks * 16) as u64);
            assert!(rep.max_occupancy <= workers);
        }
    }

    #[test]
    fn single_slot_admission_is_lowest_clock_first() {
        // With one slot and all tasks queued before any admission, the
        // heap hands out slots in (clock, rank) order: the contract
        // `ExecPolicy::Sequential` rests on.
        let nranks = 6;
        let core = Arc::new(EventCore::new(1, nranks));
        let order = Arc::new(Mutex::new(Vec::new()));
        core.acquire(0, -1.0);
        std::thread::scope(|scope| {
            for rank in 1..nranks {
                let core = Arc::clone(&core);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    core.acquire(rank, (nranks - rank) as f64);
                    order.lock().unwrap().push(rank);
                    core.release(rank);
                });
            }
            while core.state.lock().unwrap().ready < nranks - 1 {
                std::thread::yield_now();
            }
            core.release(0);
        });
        assert_eq!(*order.lock().unwrap(), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn a_free_slot_admits_the_lowest_ready_rank_whatever_its_clock() {
        // Rank 0 holds one of two slots at clock 0; rank 1, ready 10 s
        // ahead of it, takes the other before rank 0 lets go.
        let core = EventCore::new(2, 2);
        core.acquire(0, 0.0);
        let deferred = std::thread::scope(|scope| {
            scope.spawn(|| {
                core.acquire(1, 10.0);
                core.release(1);
            });
            // `acquire` readies and dispatches under one hold of the lock.
            let state_of_1 = || core.state.lock().unwrap().tasks[1].state;
            while state_of_1() == TaskState::Unstarted {
                std::thread::yield_now();
            }
            let deferred = state_of_1() == TaskState::Ready(10.0);
            core.release(0);
            deferred
        });
        assert!(!deferred, "rank 1 waited while a slot was free");
        assert_eq!(core.report().max_occupancy, 2);
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
        assert!((r.mean_ready_depth() - 206.0).abs() < 1e-12);
        // And percentile queries come for free.
        assert!(r.depth_hist.p50() <= r.depth_hist.p99());
    }

    #[test]
    fn report_record_into_publishes_compact_histograms() {
        let mut r = ExecutorReport::default();
        for d in [1usize, 1, 8, 300] {
            r.sample_depth(d);
            r.sample_occupancy(d.min(4));
        }
        r.admissions = 4;
        let mut reg = mb_telemetry::metrics::Registry::new();
        r.record_into(&mut reg, "w4");
        match reg.find("executor/ready_depth", "w4").unwrap() {
            mb_telemetry::metrics::MetricValue::Histogram(h) => {
                assert_eq!(h.n, 4);
                assert_eq!(h.counts.iter().sum::<u64>(), 4);
                // Compacted: 3 occupied buckets, not a fixed 16.
                assert_eq!(h.bounds.len(), 3);
            }
            _ => panic!("not a histogram"),
        }
        // No prof section → no prof/* metrics.
        assert!(reg.find("prof/task.busy_ns", "w4").is_none());
    }

    #[test]
    fn profiled_core_records_host_latencies_without_changing_counters() {
        let nranks = 8;
        let rounds = 12;
        let run = |prof: bool| {
            let core = Arc::new(EventCore::new(2, nranks).with_profiling(prof));
            std::thread::scope(|scope| {
                for rank in 0..nranks {
                    let core = Arc::clone(&core);
                    scope.spawn(move || {
                        for round in 0..rounds {
                            core.acquire(rank, round as f64 + rank as f64 / 100.0);
                            std::thread::yield_now();
                            core.release(rank);
                        }
                    });
                }
            });
            core.report()
        };
        let plain = run(false);
        let profiled = run(true);
        // Scheduling counters are identical in distribution-free terms:
        // total admissions cannot depend on whether we timed them.
        assert_eq!(plain.admissions, (nranks * rounds) as u64);
        assert_eq!(profiled.admissions, plain.admissions);
        assert!(plain.prof.is_none());
        let p = profiled.prof.expect("profiling enabled");
        let total = (nranks * rounds) as u64;
        assert_eq!(p.busy_ns.count(), total, "one busy span per admission");
        assert_eq!(p.idle_ns.count(), total, "one admission wait per acquire");
        assert_eq!(p.wake_ns.count(), total, "one wake per grant");
        assert_eq!(p.push_ns.count(), total);
        assert_eq!(p.pop_ns.count(), total);
        assert!(p.busy_ns.max() > 0.0, "spans take measurable host time");
        assert!(p.busy_ns.p50() <= p.busy_ns.p999());
    }

    fn msg(src: usize, tag: u32) -> Msg {
        Msg {
            src,
            tag,
            deliver: 0.0,
            payload: bytes::Bytes::new(),
        }
    }

    #[test]
    fn filed_messages_are_taken_without_giving_up_the_slot() {
        // One thread plays both ranks in turn: a `take` that had to
        // block here would be a reported deadlock, not a pass.
        let core = EventCore::new(1, 2);
        core.acquire(0, 0.0);
        for tag in [5, 6, 5] {
            core.deliver(1, msg(0, tag));
        }
        core.release(0);
        core.acquire(1, 0.0);
        for tag in [6, 5, 5] {
            assert!(matches!(core.take(1, 0, tag, 0.0), Poll::Ready(m) if m.tag == tag));
        }
        core.release(1);
        assert_eq!(core.report().admissions, 2, "the two initial ones");
        assert!(core.deadlock().is_empty());
    }

    #[test]
    fn a_blocking_take_is_one_admission_at_the_clock_it_blocked_at() {
        let core = EventCore::new(1, 2).with_profiling(true);
        std::thread::scope(|scope| {
            let core = &core;
            scope.spawn(move || {
                core.acquire(0, 0.0);
                assert!(matches!(core.take(0, 1, 9, 2.5), Poll::Ready(m) if m.tag == 9));
                core.release(0);
            });
            let state_of = |rank: usize| core.state.lock().unwrap().tasks[rank].state;
            let awaiting = TaskState::Awaiting {
                src: 1,
                tag: 9,
                clock: 2.5,
            };
            while state_of(0) != awaiting {
                std::thread::yield_now();
            }
            core.acquire(1, 0.0);
            core.deliver(0, msg(1, 7)); // not what rank 0 awaits: filed
            assert_eq!(state_of(0), awaiting);
            core.deliver(0, msg(1, 9));
            // Ready at the clock it blocked at; the one slot is ours.
            assert_eq!(state_of(0), TaskState::Ready(2.5));
            core.release(1);
        });
        let rep = core.report();
        assert_eq!(rep.admissions, 3, "two initial, one for the receive");
        let p = rep.prof.expect("profiling on");
        for h in [&p.busy_ns, &p.idle_ns, &p.wake_ns, &p.push_ns, &p.pop_ns] {
            assert_eq!(h.count(), 3, "one sample per admission");
        }
    }
}
