//! Open-arrival streaming: arrival sources, admission control, and
//! per-class stream reports.
//!
//! The batch entry point [`crate::simulate`] replays a fixed job list.
//! [`crate::engine::simulate_stream`] drives the *same* event loop from
//! an [`ArrivalSource`] — jobs are pulled lazily, in submit order, so a
//! 10⁶-job open arrival process never has to be materialized up front —
//! and consults an [`AdmissionControl`] before each job may join the
//! queue. Admission assigns every job an SLO class (the class index is
//! its priority rank: class 0 queues ahead of class 1, and so on) or
//! sheds it, which is what turns the simulated machine from a batch
//! replayer into a service under load.
//!
//! Closed-batch compatibility: [`VecArrivals`] + [`AdmitAll`] is the
//! degenerate single-class stream, and [`crate::simulate`] is exactly
//! that wrapper — it reproduces the committed `BENCH_sched.json`
//! fingerprints bit for bit (pinned in `tests/determinism.rs`).

use mb_telemetry::prof::LogHistogram;

use crate::engine::SimReport;
use crate::job::JobSpec;

/// One job arriving from an open stream, tagged with the SLO class the
/// submitter requested. Admission control may honor or remap the class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// The job itself (id, submit time, width, work model).
    pub spec: JobSpec,
    /// Requested SLO class index (0 = most latency-sensitive). Sources
    /// that don't distinguish classes use 0.
    pub class: usize,
}

/// A lazy, submit-ordered stream of job arrivals.
///
/// Contract: `peek_s` returns the submit time of the arrival the next
/// `next_arrival` call will yield, and successive arrivals have
/// nondecreasing submit times. Both take `&mut self` so generators can
/// synthesize the next arrival on demand and cache it.
pub trait ArrivalSource {
    /// Submit time of the next arrival, or `None` when the stream is
    /// exhausted.
    fn peek_s(&mut self) -> Option<f64>;

    /// Pop the next arrival.
    fn next_arrival(&mut self) -> Option<Arrival>;
}

impl From<&JobSpec> for Arrival {
    /// A job from a source that does not distinguish classes: class 0.
    fn from(spec: &JobSpec) -> Self {
        Arrival {
            spec: *spec,
            class: 0,
        }
    }
}

/// A pre-materialized arrival list as an arrival source, replayed in
/// `(submit_s, id)` order — the order the batch engine has always used.
/// Built from arrivals it keeps each one's class; built from jobs (the
/// closed-batch compatibility path) it puts them all in class 0.
#[derive(Debug, Clone)]
pub struct VecArrivals {
    items: Vec<Arrival>,
    idx: usize,
}

impl VecArrivals {
    /// Collect `items` (arrivals, or `&JobSpec`s for class 0) and sort
    /// them into arrival order.
    pub fn new<A: Into<Arrival>>(items: impl IntoIterator<Item = A>) -> Self {
        let mut items: Vec<Arrival> = items.into_iter().map(Into::into).collect();
        items.sort_by(|a, b| {
            (a.spec.submit_s.total_cmp(&b.spec.submit_s)).then(a.spec.id.cmp(&b.spec.id))
        });
        Self { items, idx: 0 }
    }
}

impl ArrivalSource for VecArrivals {
    fn peek_s(&mut self) -> Option<f64> {
        self.items.get(self.idx).map(|a| a.spec.submit_s)
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let a = self.items.get(self.idx).copied()?;
        self.idx += 1;
        Some(a)
    }
}

/// What admission control sees when an arrival knocks.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionCtx<'a> {
    /// Virtual now (the arrival's submit time), seconds.
    pub now_s: f64,
    /// Jobs currently queued, per class (requeued failure victims
    /// included).
    pub queued_per_class: &'a [u32],
    /// Jobs currently running.
    pub running_jobs: usize,
    /// Cluster size, nodes.
    pub total_nodes: usize,
}

/// Admission policy: classify each arrival into an SLO class or shed it.
///
/// The class index doubles as the queue priority rank (0 queues ahead of
/// 1). Implementations must be deterministic functions of the arrival
/// and context — the stream fingerprint depends on every decision.
pub trait AdmissionControl {
    /// Stable class labels, indexed by class (and priority) rank.
    fn class_labels(&self) -> Vec<String>;

    /// Admit `arrival` into a class (`Some(class)`) or shed it (`None`).
    fn admit(&mut self, arrival: &Arrival, ctx: &AdmissionCtx) -> Option<usize>;
}

/// The open-door policy: one class, nothing is ever shed. This is the
/// closed-batch compatibility admission — with it, `simulate_stream`
/// degenerates to the batch engine bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionControl for AdmitAll {
    fn class_labels(&self) -> Vec<String> {
        vec!["all".to_string()]
    }

    fn admit(&mut self, _arrival: &Arrival, _ctx: &AdmissionCtx) -> Option<usize> {
        Some(0)
    }
}

/// Per-class outcome of a streamed run.
#[derive(Debug, Clone, Default)]
pub struct ClassReport {
    /// Class label (from [`AdmissionControl::class_labels`]).
    pub label: String,
    /// Arrivals offered to admission under this class.
    pub offered: u64,
    /// Arrivals admitted into the queue.
    pub admitted: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Queue-wait distribution of completed jobs, seconds.
    pub wait_hist: LogHistogram,
    /// Bounded-slowdown distribution of completed jobs.
    pub slowdown_hist: LogHistogram,
}

/// Everything a streamed run produces: the familiar [`SimReport`] over
/// the *admitted* jobs plus per-class admission and latency accounting.
#[derive(Debug)]
pub struct StreamReport {
    /// The batch-shaped report over admitted jobs (records, makespan,
    /// utilization, fleet-wide histograms, registry, fingerprint).
    pub sim: SimReport,
    /// Per-class breakdown, indexed by class rank.
    pub classes: Vec<ClassReport>,
    /// Total arrivals offered.
    pub offered: u64,
    /// Total arrivals shed.
    pub shed: u64,
    /// FNV-1a fingerprint folding the batch fingerprint with the
    /// per-class offered/admitted/shed/completed counts; bit-identical
    /// under every executor policy.
    pub stream_fingerprint: u64,
}

impl StreamReport {
    /// The stream fingerprint as fixed-width hex (bench convention).
    pub fn stream_fingerprint_hex(&self) -> String {
        format!("{:016x}", self.stream_fingerprint)
    }
}

/// A streamed run that stopped with jobs left and nothing ahead of
/// them: no arrival, completion, failure or repair is pending, so
/// virtual time cannot advance (a policy that never picks what an idle
/// machine could run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedDeadlock {
    /// Name of the policy the run was under.
    pub policy: &'static str,
    /// Jobs that had run to completion.
    pub completed: usize,
    /// Jobs still waiting in the queue.
    pub queued: usize,
    /// Jobs still holding nodes.
    pub running: usize,
}

impl std::fmt::Display for SchedDeadlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduler deadlock under '{}': {} completed, {} queued, {} running",
            self.policy, self.completed, self.queued, self.running
        )
    }
}

impl std::error::Error for SchedDeadlock {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkModel;

    fn job(id: usize, submit_s: f64) -> JobSpec {
        JobSpec {
            id,
            submit_s,
            ranks: 1,
            work: WorkModel::Npb {
                kernel: crate::job::NpbKernel::Ep,
                iters: 10,
            },
        }
    }

    #[test]
    fn vec_arrivals_replays_in_submit_then_id_order() {
        let mut src = VecArrivals::new(&[job(2, 5.0), job(0, 1.0), job(1, 5.0)]);
        assert_eq!(src.peek_s(), Some(1.0));
        assert_eq!(src.next_arrival().unwrap().spec.id, 0);
        assert_eq!(src.peek_s(), Some(5.0));
        assert_eq!(src.next_arrival().unwrap().spec.id, 1);
        assert_eq!(src.next_arrival().unwrap().spec.id, 2);
        assert_eq!(src.peek_s(), None);
        assert!(src.next_arrival().is_none());
    }

    #[test]
    fn admit_all_is_single_class_and_never_sheds() {
        let mut adm = AdmitAll;
        assert_eq!(adm.class_labels(), vec!["all".to_string()]);
        let ctx = AdmissionCtx {
            now_s: 0.0,
            queued_per_class: &[1_000_000],
            running_jobs: 0,
            total_nodes: 1,
        };
        let arr = Arrival {
            spec: job(0, 0.0),
            class: 0,
        };
        assert_eq!(adm.admit(&arr, &ctx), Some(0));
    }
}
