//! How simulated SPMD ranks run on the host: one poller for both body
//! forms.
//!
//! **Two body forms, one poll loop.** [`crate::machine::Cluster::run`]
//! takes an [`SpmdBody`], and every rank of it is a future the calling
//! thread polls in the order the run's [`crate::event`] core admits
//! ranks — the lowest ready `(virtual clock, rank)` first:
//!
//! * a [`Stackless`] `async` closure is polled directly: a receive that
//!   has to wait returns `Pending` after the core records what it
//!   awaits, and no rank has a thread;
//! * a closure `Fn(&mut Comm) -> R + Sync` becomes a **thread-backed
//!   future**. Each rank's closure runs on a scoped thread of its own,
//!   but only between a poll that resumes it and the point where it
//!   finishes or a receive has to wait: there its blocking `Comm` call
//!   hands the turn back and parks the thread until the next poll. Any
//!   code may therefore block anywhere (tests, examples, the benchmark's
//!   traced bodies), and still exactly one rank makes progress at a
//!   time. [`threaded`] runs a stackless body this way, which is how
//!   tests compare the two forms on one body.
//!
//! The handoff is a zero-capacity channel per rank (poller → thread) and
//! one channel back. Dropping the poller's halves ends the run for every
//! parked thread: each unwinds quietly instead of waiting forever.
//!
//! Deadlock, panics and outcomes behave the same on both forms: a
//! deadlocked program is `SimError::Deadlock`, a panicking rank's own
//! payload is re-raised on the caller's thread, and outcomes — and the
//! core's [`crate::ExecutorReport`] counters — are bit-identical, because
//! both forms make the same calls on the same core in the same order.
//!
//! **Admission order cannot change an outcome.** The communicator's
//! receives name their source rank and are FIFO per (source, tag), so a
//! rank's virtual clock is a pure function of its own event sequence and
//! its senders' timestamps. Test builds admit ranks in seeded random
//! orders to hold that (`machine::tests::admission_order_cannot_change_an_outcome`),
//! and `tests/determinism.rs` regresses outcomes end to end against
//! committed fingerprints. How the core orders admissions and why it
//! cannot deadlock is in [`crate::event`].
//!
//! [`ExecPolicy`] is accepted and ignored until ROADMAP 1a moves the
//! benchmark harness, which still names it, to stackless bodies.

use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread::{self, ScopedJoinHandle};
use std::time::Instant;

use crate::comm::Comm;
use crate::event::{ns_since, EventCore};
use crate::machine::SimError;

/// An SPMD body that needs no thread per rank: an `async` closure
/// `async |comm: &mut Comm| …` that awaits the communicator's async forms
/// ([`Comm::recv_async`], [`Comm::allreduce_sum_async`], …) wherever it
/// may wait for a message. See the [module docs](self).
///
/// ```
/// use mb_cluster::{Cluster, Comm, Stackless};
/// use mb_cluster::spec::metablade;
///
/// // 4 096 ranks, and not one thread for them.
/// let out = Cluster::new(metablade().with_nodes(4096)).run(Stackless(
///     async |comm: &mut Comm| comm.allreduce_sum_async(&[1.0]).await[0],
/// ));
/// assert_eq!(out.results, vec![4096.0; 4096]);
/// assert_eq!(out.exec_report.nranks, 4096);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stackless<F>(pub F);

/// A stackless body as a closure: each rank runs on a thread of its own,
/// and its receives hand the turn back to the poller instead of
/// returning `Pending` to it. The twin that lets one body be checked on
/// both forms.
pub fn threaded<R, F>(body: Stackless<F>) -> impl Fn(&mut Comm) -> R + Sync
where
    F: AsyncFn(&mut Comm) -> R + Sync,
{
    move |comm: &mut Comm| comm.blocking("threaded", async |comm: &mut Comm| (body.0)(comm).await)
}

/// A body [`crate::machine::Cluster::run`] accepts: any
/// `Fn(&mut Comm) -> R + Sync` closure (each rank on a thread of its
/// own) or a [`Stackless`] async closure (no thread). Sealed.
pub trait SpmdBody<R>: sealed::RunRanks<R> {}

impl<R, B: sealed::RunRanks<R>> SpmdBody<R> for B {}

mod sealed {
    use super::*;

    /// Run every rank of one SPMD run.
    pub trait RunRanks<R> {
        /// Run one rank per `comms` entry, all sharing the one core their
        /// communicators hold, to completion: each rank's result next to
        /// its communicator, by rank. A deadlocked program is an error; a
        /// rank's panic is re-raised with its own payload.
        fn run_ranks(&self, comms: Vec<Comm>) -> Result<Vec<(R, Comm)>, SimError>;
    }
}

/// Poll every rank to completion in the order `core` admits them: each
/// rank's result, by rank. A deadlocked program is an error.
pub(crate) fn poll_ranks<R>(
    core: &EventCore,
    mut ranks: Vec<impl Future<Output = R> + Unpin>,
) -> Result<Vec<R>, SimError> {
    let mut results: Vec<Option<R>> = ranks.iter().map(|_| None).collect();
    // Nothing wakes a rank but the core's own admission, so the waker is
    // never called.
    let mut cx = Context::from_waker(Waker::noop());
    core.start();
    while let Some(rank) = core.next_poll() {
        if let Poll::Ready(r) = Pin::new(&mut ranks[rank]).poll(&mut cx) {
            results[rank] = Some(r);
            core.release(rank);
        }
    }
    let blocked = core.deadlock();
    if !blocked.is_empty() {
        return Err(SimError::Deadlock(blocked));
    }
    let finished = results.into_iter().enumerate().map(|(rank, r)| {
        r.unwrap_or_else(|| {
            panic!(
                "stackless rank {rank} awaited something other than a Comm receive, \
                 and only a delivery can wake it"
            )
        })
    });
    Ok(finished.collect())
}

impl<R, F: AsyncFn(&mut Comm) -> R> sealed::RunRanks<R> for Stackless<F> {
    fn run_ranks(&self, mut comms: Vec<Comm>) -> Result<Vec<(R, Comm)>, SimError> {
        let core = Arc::clone(&comms[0].core);
        let ranks = comms.iter_mut().map(|c| Box::pin((self.0)(c))).collect();
        let results = poll_ranks(&core, ranks)?;
        Ok(results.into_iter().zip(comms).collect())
    }
}

impl<R: Send, F: Fn(&mut Comm) -> R + Sync> sealed::RunRanks<R> for F {
    fn run_ranks(&self, mut comms: Vec<Comm>) -> Result<Vec<(R, Comm)>, SimError> {
        let core = Arc::clone(&comms[0].core);
        let (handback, back) = mpsc::channel();
        let results = thread::scope(|scope| {
            let ranks = comms.iter_mut().map(|comm| {
                let (resume, wait) = mpsc::sync_channel(0);
                comm.turn = Some(Turn {
                    wait,
                    handback: handback.clone(),
                    core: Arc::clone(&core),
                });
                let finished = handback.clone();
                let thread = scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        comm.turn.as_ref().expect("set above").wait();
                        self(comm)
                    }));
                    let _ = finished.send(Handback::Finished);
                    out
                });
                ThreadRank {
                    resume,
                    back: &back,
                    thread: Some(thread),
                    profiling: core.profiling(),
                }
            });
            // Returning drops every `resume`: whatever thread still waits
            // for its turn unwinds.
            poll_ranks(&core, ranks.collect())
        })?;
        Ok(results.into_iter().zip(comms).collect())
    }
}

/// What a rank thread tells the poller when it hands the turn back.
enum Handback {
    /// A receive has to wait; poll the rank again once it is admitted.
    Pending,
    /// The closure returned or panicked; join the thread for which.
    Finished,
}

/// Panic payload of a rank thread unwinding because the run ended while
/// it waited for its turn: a deadlock, or another rank's panic. Never the
/// cause, and never re-raised.
struct Poisoned;

/// A closure rank's half of the handoff, held by its [`Comm`] while the
/// rank runs on its thread.
pub(crate) struct Turn {
    /// The poller's resumes, each stamped when profiling.
    wait: Receiver<Option<Instant>>,
    handback: Sender<Handback>,
    /// Where a profiled wake-up is recorded.
    core: Arc<EventCore>,
}

impl Turn {
    /// Park until the poller hands this rank the turn. Unwinds with
    /// [`Poisoned`] when the run ends first.
    fn wait(&self) {
        match self.wait.recv() {
            Ok(Some(resumed)) => self.core.record_wake(ns_since(resumed)),
            Ok(None) => {}
            // Not a new failure: no panic hook.
            Err(_) => resume_unwind(Box::new(Poisoned)),
        }
    }

    /// Run `op` to completion on this rank's thread: whenever it is
    /// `Pending` — a receive gave up the slot — hand the turn back and
    /// poll again once the poller resumes the rank.
    pub(crate) fn block_on<T>(&self, op: impl Future<Output = T>) -> T {
        let mut op = pin!(op);
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            if let Poll::Ready(v) = op.as_mut().poll(&mut cx) {
                return v;
            }
            self.handback
                .send(Handback::Pending)
                .expect("the poller outlives its ranks");
            self.wait();
        }
    }
}

/// A closure rank as the poller sees it: each poll hands the rank's
/// thread the turn and waits until the thread hands it back.
struct ThreadRank<'s, R> {
    resume: SyncSender<Option<Instant>>,
    back: &'s Receiver<Handback>,
    thread: Option<ScopedJoinHandle<'s, thread::Result<R>>>,
    profiling: bool,
}

impl<R> Future for ThreadRank<'_, R> {
    type Output = R;

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<R> {
        let rank = self.get_mut();
        let stamp = rank.profiling.then(Instant::now);
        rank.resume
            .send(stamp)
            .expect("a rank thread waits for its turn until it finishes");
        match rank.back.recv().expect("the poller holds a sender") {
            Handback::Pending => Poll::Pending,
            Handback::Finished => {
                let thread = rank.thread.take().expect("polled after finishing");
                match thread.join().expect("the thread catches its panic") {
                    Ok(r) => Poll::Ready(r),
                    Err(payload) => resume_unwind(payload),
                }
            }
        }
    }
}

/// How many simulated ranks make host progress at once. Accepted and
/// ignored until ROADMAP 1a: every run has one slot (see the
/// [module docs](self)), and the benchmark harness still names this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPolicy {
    /// One rank makes progress at a time (the one-slot reference width).
    Sequential,
    /// At most `workers` ranks make progress at once (`workers ≥ 1`).
    Parallel {
        /// Concurrent execution slots.
        workers: usize,
    },
    /// Every rank is runnable at all times.
    #[default]
    Unbounded,
}

impl ExecPolicy {
    /// Concurrent execution slots the policy names, `None` when
    /// unbounded. Accepted and ignored until ROADMAP 1a.
    pub fn workers(&self) -> Option<usize> {
        match *self {
            ExecPolicy::Sequential => Some(1),
            ExecPolicy::Parallel { workers } => Some(workers.max(1)),
            ExecPolicy::Unbounded => None,
        }
    }

    /// Human-readable label ("seq", "w4", "unbounded") for bench output
    /// and the pins' fingerprint keys.
    pub fn label(&self) -> String {
        match self.workers() {
            Some(1) => "seq".into(),
            Some(w) => format!("w{w}"),
            None => "unbounded".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_reports_workers_and_labels() {
        assert_eq!(ExecPolicy::Sequential.workers(), Some(1));
        assert_eq!(ExecPolicy::Parallel { workers: 4 }.workers(), Some(4));
        assert_eq!(ExecPolicy::Unbounded.workers(), None);
        assert_eq!(ExecPolicy::Sequential.label(), "seq");
        assert_eq!(ExecPolicy::Parallel { workers: 4 }.label(), "w4");
        assert_eq!(ExecPolicy::Unbounded.label(), "unbounded");
    }
}
