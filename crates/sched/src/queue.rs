//! The engine's wait queue, stored as the view the policy reads.
//!
//! Three parallel rings in dispatch order: the [`QueuedJob`]s a policy
//! call borrows as `PolicyCtx::queue`, the class ranks an arrival's
//! insertion scan compares, and the engine's own [`QueueEntry`]s. Every
//! operation moves the three together, so index `p` names one job in
//! all of them. A job's service estimate depends on its entry alone
//! (remaining work and attempt, never `now`), so it is fixed when the
//! job is queued.

#![deny(clippy::too_many_lines)]

use std::collections::VecDeque;

use crate::job::WorkModel;
use crate::policy::QueuedJob;

/// A job waiting for nodes — and, inside the engine's `RunEntry`, the
/// queue entry the running attempt was started from.
#[derive(Clone, Copy)]
pub(crate) struct QueueEntry {
    /// Index of the job's record in the report.
    pub(crate) ji: usize,
    pub(crate) id: usize,
    pub(crate) ranks: usize,
    /// The job's work model (queue entries must be self-contained: a
    /// streamed run has no job slice to index back into).
    pub(crate) work: WorkModel,
    /// SLO class (and queue priority rank; 0 = highest).
    pub(crate) class: usize,
    /// Work still to serve, in *reference* (lowest-nodes) seconds.
    pub(crate) work_rem_s: f64,
    /// The reference step time: one step on the lowest nodes, as the
    /// job's arrival priced it.
    pub(crate) step_s: f64,
    /// Which run attempt this is (0 = first; every later one resumes
    /// from a checkpoint after a failure).
    pub(crate) attempt: u32,
}

#[derive(Default)]
pub(crate) struct WaitQueue {
    view: VecDeque<QueuedJob>,
    classes: VecDeque<usize>,
    entries: VecDeque<QueueEntry>,
    /// Entries per class, requeued failure victims included (what
    /// `AdmissionCtx` borrows).
    per_class: Vec<u32>,
    /// Pick re-validation scratch: no shorter than the queue, and all
    /// `false` between dispatch rounds.
    picked: Vec<bool>,
}

impl WaitQueue {
    pub(crate) fn new(classes: usize) -> Self {
        Self {
            per_class: vec![0; classes],
            ..Self::default()
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn per_class(&self) -> &[u32] {
        &self.per_class
    }

    pub(crate) fn entry(&self, p: usize) -> QueueEntry {
        self.entries[p]
    }

    /// The queue as policies see it. A ring that has wrapped is
    /// straightened here: one move of the view per trip round its
    /// buffer, not one per call.
    pub(crate) fn view(&mut self) -> &[QueuedJob] {
        self.view.make_contiguous()
    }

    /// Queue `e`, whose wall-time estimate is `service_est_s`. A failure
    /// victim on a later attempt goes to the head. A fresh arrival goes
    /// before the first entry of a lower class, *wherever* that entry
    /// is — so behind a requeued lower-class victim it passes older
    /// entries of its own class (pinned in the tests below). The scan
    /// stops at that entry and is skipped when no lower class is queued,
    /// which is always so for the last class.
    pub(crate) fn insert(&mut self, e: QueueEntry, service_est_s: f64) {
        let pos = if e.attempt > 0 {
            0
        } else if self.per_class[e.class + 1..].iter().all(|&n| n == 0) {
            self.len()
        } else {
            let lower = self.classes.iter().position(|&c| c > e.class);
            lower.unwrap_or(self.len())
        };
        self.per_class[e.class] += 1;
        let job = QueuedJob {
            ranks: e.ranks,
            service_est_s,
        };
        self.view.insert(pos, job);
        self.classes.insert(pos, e.class);
        self.entries.insert(pos, e);
        if self.picked.len() < self.len() {
            self.picked.resize(self.len(), false);
        }
    }

    /// Take entry `p` out of the queue; at the head that is a pop.
    pub(crate) fn remove(&mut self, p: usize) {
        let class = self.classes.remove(p).expect("a queued entry");
        self.per_class[class] -= 1;
        self.view.remove(p);
        self.entries.remove(p);
    }

    /// Whether `p` is a queue index that no call since the last
    /// [`WaitQueue::unpick`] has asked about.
    pub(crate) fn pick(&mut self, p: usize) -> bool {
        p < self.len() && !std::mem::replace(&mut self.picked[p], true)
    }

    /// Forget one dispatch round's picks, clearing only what they set.
    pub(crate) fn unpick(&mut self, picks: &[usize]) {
        for &p in picks {
            if let Some(seen) = self.picked.get_mut(p) {
                *seen = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::NpbKernel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CLASSES: usize = 3;

    /// The queue as the engine kept it before [`WaitQueue`]: one ordered
    /// `Vec`, `position` + `insert` to join, `remove` to leave.
    #[derive(Default)]
    struct Reference(Vec<(QueueEntry, f64)>);

    impl Reference {
        fn insert(&mut self, e: QueueEntry, service_est_s: f64) {
            let outranked = |q: &(QueueEntry, f64)| e.attempt > 0 || q.0.class > e.class;
            let pos = self.0.iter().position(outranked);
            self.0
                .insert(pos.unwrap_or(self.0.len()), (e, service_est_s));
        }
    }

    fn entry(id: usize, class: usize, attempt: u32) -> QueueEntry {
        QueueEntry {
            ji: id,
            id,
            ranks: 1 + id % 7,
            work: WorkModel::Npb {
                kernel: NpbKernel::Ep,
                iters: 1,
            },
            class,
            work_rem_s: id as f64,
            step_s: 1.0,
            attempt,
        }
    }

    /// `(id, class, attempt)` down the queue.
    fn order(q: &WaitQueue) -> Vec<(usize, usize, u32)> {
        let key = |e: &QueueEntry| (e.id, e.class, e.attempt);
        q.entries.iter().map(key).collect()
    }

    fn assert_same(q: &mut WaitQueue, reference: &Reference, step: usize) {
        let key = |(e, _): &(QueueEntry, f64)| (e.id, e.class, e.attempt);
        let want: Vec<_> = reference.0.iter().map(key).collect();
        assert_eq!(order(q), want, "order after step {step}");
        let want: Vec<_> = reference.0.iter().map(|(e, _)| e.class).collect();
        assert_eq!(Vec::from(q.classes.clone()), want, "classes, step {step}");
        let want: Vec<_> = reference
            .0
            .iter()
            .map(|&(e, service_est_s)| QueuedJob {
                ranks: e.ranks,
                service_est_s,
            })
            .collect();
        assert_eq!(q.view(), want, "view after step {step}");
        for (class, &n) in q.per_class().iter().enumerate() {
            let want = reference.0.iter().filter(|(e, _)| e.class == class).count();
            assert_eq!(n as usize, want, "class {class} count, step {step}");
        }
        assert!(
            q.picked.iter().all(|&seen| !seen),
            "stale pick, step {step}"
        );
    }

    #[test]
    fn random_operations_match_the_single_vec_reference() {
        let mut rng = StdRng::seed_from_u64(22);
        let (mut q, mut reference) = (WaitQueue::new(CLASSES), Reference::default());
        let (mut filling, mut deepest, mut removals) = (true, 0, 0);
        for step in 0..12_000 {
            // Arrivals outpace removals until the queue is 700 deep,
            // then the mix flips until it is nearly empty, so the rings
            // grow, wrap and drain several times.
            filling = if filling { q.len() < 700 } else { q.len() < 20 };
            if rng.random_range(0..100u32) < if filling { 85 } else { 25 } {
                let attempt =
                    u32::from(rng.random_range(0..10u32) == 0) * rng.random_range(1..4u32);
                let e = entry(step, rng.random_range(0..CLASSES), attempt);
                let service_est_s = rng.random::<f64>() * 1e4;
                q.insert(e, service_est_s);
                reference.insert(e, service_est_s);
            } else {
                // What a policy returns: a run of heads (FCFS), then
                // scattered backfills (EASY), with a repeat and an
                // index past the end thrown in.
                let heads = rng.random_range(0..4usize);
                let mut picks: Vec<usize> = (0..heads).collect();
                for _ in 0..rng.random_range(0..4u32) {
                    picks.push(rng.random_range(0..q.len() + 2));
                }
                picks.extend(picks.first().copied());
                let mut started: Vec<usize> = Vec::new();
                for &p in &picks {
                    let fresh = p < reference.0.len() && !started.contains(&p);
                    assert_eq!(q.pick(p), fresh, "pick {p}, step {step}");
                    if fresh {
                        started.push(p);
                    }
                }
                q.unpick(&picks);
                started.sort_unstable();
                for &p in started.iter().rev() {
                    reference.0.remove(p);
                    q.remove(p);
                    removals += 1;
                }
            }
            assert_same(&mut q, &reference, step);
            deepest = deepest.max(q.len());
        }
        assert!(deepest >= 700 && removals > 3_000, "{deepest} {removals}");
    }

    /// "FIFO within a class" does not hold behind a requeued victim of a
    /// lower class: the rule is "before the first entry of a lower
    /// class", and the victim at the head is such an entry. Current
    /// behaviour, pinned — changing it moves every multi-class
    /// fingerprint under failures (the ROADMAP item "Fail loudly, and
    /// oracles that do not depend on stored hashes").
    #[test]
    fn a_class_0_arrival_passes_older_class_0_entries_behind_a_lower_class_victim() {
        let (mut q, mut reference) = (WaitQueue::new(CLASSES), Reference::default());
        let steps = [
            entry(0, 0, 0), // a0
            entry(1, 0, 0), // a0'
            entry(2, 2, 1), // V2, requeued at the head
            entry(3, 0, 0), // the later class-0 arrival
            entry(4, 1, 0), // and a class-1 one, also ahead of V2
        ];
        for (step, &e) in steps.iter().enumerate() {
            q.insert(e, 1.0);
            reference.insert(e, 1.0);
            assert_same(&mut q, &reference, step);
        }
        let ids: Vec<usize> = order(&q).iter().map(|k| k.0).collect();
        assert_eq!(ids, [3, 4, 2, 0, 1]);
    }
}
