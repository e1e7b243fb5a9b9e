//! The executor policy: how many simulated SPMD ranks make host progress
//! at once.
//!
//! Every rank always runs on its own scoped thread (a blocked `recv` must
//! be able to suspend mid-closure), and every run is admitted by one
//! engine, the [`crate::event::EventCore`]. An [`ExecPolicy`] only sets
//! that core's *execution-slot* count:
//!
//! * [`ExecPolicy::Sequential`] — one slot: exactly one rank runs at a
//!   time, in `(virtual clock, rank)` order. The width-one reference:
//!   the `seq` entry of every `BENCH_*.json` fingerprint map.
//! * [`ExecPolicy::Parallel`] — at most `workers` ranks hold a slot at
//!   any instant. This bounds host CPU/memory pressure for big sweeps
//!   without changing any simulated result.
//! * [`ExecPolicy::Unbounded`] — `workers == nranks`: every rank is
//!   admissible whenever the lookahead horizon allows. The default.
//!
//! **Admission order cannot change an outcome.** The communicator's
//! receives name their source rank and are FIFO per (source, tag), so a
//! rank's virtual clock is a pure function of its own event sequence and
//! its senders' timestamps. The slot count therefore only decides
//! *wall-clock* behaviour; `SpmdOutcome`s are bit-identical at every
//! width (test-enforced at 1/4/8/24/256 ranks, and regressed end-to-end
//! against committed fingerprints by `tests/determinism.rs`). How the
//! core orders admissions, why its lookahead horizon is safe and why it
//! cannot deadlock is in [`crate::event`].
//!
//! A rank gives up its slot whenever it would block the host thread
//! waiting for a message, and the delivery of that message re-queues it
//! at the virtual clock it blocked at, so bounded policies stay
//! work-conserving: a free slot is never left idle while any rank is
//! runnable.

/// How many simulated ranks make host progress at once. See the
/// [module docs](self) for why the choice cannot change an outcome.
///
/// The default comes from the `MB_PARALLEL` environment variable:
/// unset/empty → `Unbounded`, `0`/`1`/`seq`/`sequential` → `Sequential`,
/// `N` → `Parallel { workers: N }`. Any other value (`w8`, `eight`) is
/// rejected with one line on stderr (once per process) and falls back to
/// `Unbounded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPolicy {
    /// One rank makes progress at a time (the one-slot reference width).
    Sequential,
    /// At most `workers` ranks make progress at once (`workers ≥ 1`).
    Parallel {
        /// Concurrent execution slots.
        workers: usize,
    },
    /// Every rank is runnable at all times (one OS thread each).
    #[default]
    Unbounded,
}

impl ExecPolicy {
    /// The policy selected by `MB_PARALLEL` (see type docs), defaulting
    /// to [`ExecPolicy::Unbounded`] when unset. An unparsable value also
    /// yields `Unbounded`, but says so on stderr instead of silently
    /// running a different policy than the operator typed.
    pub fn from_env() -> Self {
        let Ok(v) = std::env::var("MB_PARALLEL") else {
            return ExecPolicy::Unbounded;
        };
        Self::parse(&v).unwrap_or_else(|| {
            // Every `Cluster::new` lands here; a sweep should warn once.
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!("MB_PARALLEL={v:?} rejected (accepted: seq|0|1|N); running unbounded")
            });
            ExecPolicy::Unbounded
        })
    }

    /// Parse an `MB_PARALLEL`-style value.
    pub fn parse(v: &str) -> Option<Self> {
        match v.trim() {
            "" => Some(ExecPolicy::Unbounded),
            "seq" | "sequential" | "0" => Some(ExecPolicy::Sequential),
            n => match n.parse::<usize>() {
                Ok(1) => Some(ExecPolicy::Sequential),
                Ok(w) => Some(ExecPolicy::Parallel { workers: w }),
                Err(_) => None,
            },
        }
    }

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
    fn policy_parses_env_values() {
        assert_eq!(ExecPolicy::parse(""), Some(ExecPolicy::Unbounded));
        assert_eq!(ExecPolicy::parse("seq"), Some(ExecPolicy::Sequential));
        assert_eq!(
            ExecPolicy::parse("sequential"),
            Some(ExecPolicy::Sequential)
        );
        assert_eq!(ExecPolicy::parse("0"), Some(ExecPolicy::Sequential));
        assert_eq!(ExecPolicy::parse("1"), Some(ExecPolicy::Sequential));
        assert_eq!(
            ExecPolicy::parse(" 8 "),
            Some(ExecPolicy::Parallel { workers: 8 })
        );
        for rejected in ["gibberish", "w8", "eight", "-1"] {
            assert_eq!(ExecPolicy::parse(rejected), None, "{rejected}");
        }
    }

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
