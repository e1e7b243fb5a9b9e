//! How simulated SPMD ranks run on the host: the two body forms, and the
//! executor policy that sets host concurrency for one of them.
//!
//! **Two ways a rank runs.** [`crate::machine::Cluster::run`] takes an
//! [`SpmdBody`], and the body's type picks the path:
//!
//! * a closure `Fn(&mut Comm) -> R + Sync` runs **one scoped OS thread
//!   per rank**: a blocking receive parks the thread mid-closure, so any
//!   code may block anywhere (treecode, sched, tests, examples);
//! * a [`Stackless`] `async` closure runs with **no thread at all**: the
//!   calling thread polls the ranks' boxed futures in the core's
//!   lowest-`(clock, rank)` order, and a receive that has to wait returns
//!   `Pending` after the core records what it awaits. [`threaded`] runs
//!   the same body on threads instead, which is how tests compare the two
//!   paths on one body.
//!
//! Both are admitted by one engine, the run's [`crate::event`] core, and
//! deadlock, panics and outcomes behave the same on both: a deadlocked
//! program is `SimError::Deadlock`, a panicking rank's own payload is
//! re-raised (the lowest such rank's, on threads; a stackless rank's
//! panic simply unwinds out of its poll, on the caller's thread), and
//! outcomes are bit-identical.
//!
//! **The policy sets host concurrency for thread bodies only.** An
//! [`ExecPolicy`] is the slot count of a thread run's core:
//!
//! * [`ExecPolicy::Sequential`] — one slot: exactly one rank runs at a
//!   time, in `(virtual clock, rank)` order. The width-one reference:
//!   the `seq` entry of every `BENCH_*.json` fingerprint map.
//! * [`ExecPolicy::Parallel`] — at most `workers` ranks hold a slot at
//!   any instant. This bounds host CPU/memory pressure for big sweeps
//!   without changing any simulated result.
//! * [`ExecPolicy::Unbounded`] — `workers == nranks`: every ready rank
//!   runs. The default; another policy is set in code, by
//!   [`crate::machine::Cluster::with_exec`].
//!
//! A stackless run has one slot whatever the policy — the calling thread
//! — and reports `workers == 1`.
//!
//! **Admission order cannot change an outcome.** The communicator's
//! receives name their source rank and are FIFO per (source, tag), so a
//! rank's virtual clock is a pure function of its own event sequence and
//! its senders' timestamps. The slot count and the body form therefore
//! only decide *wall-clock* behaviour; `SpmdOutcome`s are bit-identical
//! at every width and on both paths (test-enforced at 1/4/8/24/256
//! ranks, and regressed end-to-end against committed fingerprints by
//! `tests/determinism.rs`). How the core orders admissions and why it
//! cannot deadlock is in [`crate::event`].
//!
//! A rank gives up its slot whenever it would wait for a message, and the
//! delivery of that message re-queues it at the virtual clock it blocked
//! at, so a free slot is never left idle while any rank is runnable.

use std::future::Future;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::comm::{block_on, Comm};
use crate::event::{EventCore, Poisoned};
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
/// assert_eq!(out.exec_report.workers, 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stackless<F>(pub F);

/// A stackless body run on threads instead, as a closure: its receives
/// park their thread inside the poll, so each rank's future finishes in
/// one poll. The twin that lets one body be checked on both paths.
pub fn threaded<R, F>(body: Stackless<F>) -> impl Fn(&mut Comm) -> R + Sync
where
    F: AsyncFn(&mut Comm) -> R + Sync,
{
    move |comm: &mut Comm| block_on((body.0)(comm))
}

/// A body [`crate::machine::Cluster::run`] accepts: any
/// `Fn(&mut Comm) -> R + Sync` closure (run on threads) or a
/// [`Stackless`] async closure (polled on the calling thread). Sealed.
pub trait SpmdBody<R>: sealed::RunRanks<R> {}

impl<R, B: sealed::RunRanks<R>> SpmdBody<R> for B {}

mod sealed {
    use super::*;

    /// Run every rank of one SPMD run.
    pub trait RunRanks<R> {
        /// True when the ranks are futures the calling thread polls.
        const STACKLESS: bool;

        /// Run one rank per `comms` entry, all sharing the one core their
        /// communicators hold, to completion: each rank's result next to
        /// its communicator, by rank. A deadlocked program is an error; a
        /// rank's panic is re-raised with its own payload.
        fn run_ranks(&self, comms: Vec<Comm>) -> Result<Vec<(R, Comm)>, SimError>;
    }
}

/// Poisons the core if a rank's closure unwinds, so no peer waits for a
/// message the dead rank will never send.
struct PoisonOnPanic<'a>(&'a EventCore);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

impl<R: Send, F: Fn(&mut Comm) -> R + Sync> sealed::RunRanks<R> for F {
    const STACKLESS: bool = false;

    fn run_ranks(&self, comms: Vec<Comm>) -> Result<Vec<(R, Comm)>, SimError> {
        let core = Arc::clone(&comms[0].core);
        let core = &*core;
        let joined: Vec<std::thread::Result<(R, Comm)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut comm| {
                    scope.spawn(move || {
                        let _poison = PoisonOnPanic(core);
                        let rank = comm.rank();
                        core.acquire(rank, 0.0);
                        let r = self(&mut comm);
                        core.release(rank);
                        (r, comm)
                    })
                })
                .collect();
            // Every handle is joined before any panic is re-raised.
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut ranks = Vec::with_capacity(joined.len());
        // The lowest rank's own panic if any rank has one, else a
        // `Poisoned` marker if any rank unwound at all.
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for out in joined {
            match out {
                Ok(rank) => ranks.push(rank),
                Err(payload) => {
                    if panic.as_ref().is_none_or(|p| p.is::<Poisoned>()) {
                        panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic {
            let blocked = core.deadlock();
            if payload.is::<Poisoned>() && !blocked.is_empty() {
                return Err(SimError::Deadlock(blocked));
            }
            resume_unwind(payload);
        }
        Ok(ranks)
    }
}

impl<R, F: AsyncFn(&mut Comm) -> R> sealed::RunRanks<R> for Stackless<F> {
    const STACKLESS: bool = true;

    fn run_ranks(&self, mut comms: Vec<Comm>) -> Result<Vec<(R, Comm)>, SimError> {
        let core = Arc::clone(&comms[0].core);
        let mut results: Vec<Option<R>> = comms.iter().map(|_| None).collect();
        {
            let mut ranks: Vec<_> = comms.iter_mut().map(|c| Box::pin((self.0)(c))).collect();
            // Nothing wakes a rank but the core's own admission, so the
            // waker is never called.
            let mut cx = Context::from_waker(Waker::noop());
            core.start();
            while let Some(rank) = core.next_poll() {
                if let Poll::Ready(r) = ranks[rank].as_mut().poll(&mut cx) {
                    results[rank] = Some(r);
                    core.release(rank);
                }
            }
        }
        let blocked = core.deadlock();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock(blocked));
        }
        Ok(results
            .into_iter()
            .zip(comms)
            .map(|(r, comm)| {
                let r = r.unwrap_or_else(|| {
                    panic!(
                        "stackless rank {} awaited something other than a Comm receive, \
                         and only a delivery can wake it",
                        comm.rank()
                    )
                });
                (r, comm)
            })
            .collect())
    }
}

/// How many simulated ranks make host progress at once. See the
/// [module docs](self) for why the choice cannot change an outcome.
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
    /// Concurrent execution slots, `None` when unbounded.
    pub fn workers(&self) -> Option<usize> {
        match *self {
            ExecPolicy::Sequential => Some(1),
            ExecPolicy::Parallel { workers } => Some(workers.max(1)),
            ExecPolicy::Unbounded => None,
        }
    }

    /// Human-readable label ("seq", "w4", "unbounded") for bench output.
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
