//! Jobs and their modeled work.
//!
//! A [`JobSpec`] is what a user submits: an arrival time, a node count,
//! and a [`WorkModel`] describing *what the job computes* as a
//! virtual-time SPMD pattern. Work models are deliberately step-shaped:
//! one step is lowered onto the simulated cluster via
//! [`WorkModel::run_step`], an `async` body every rank runs without a
//! host thread (where the communicator charges exact compute and network
//! time), and the job's total service time is that step times
//! [`WorkModel::steps`]. Quantized parameters keep the set of
//! distinct `(pattern, width)` pairs small, so the scheduler's service
//! model simulates each pattern once and reuses it.

use mb_cluster::Comm;

/// NPB-flavoured kernel shapes for [`WorkModel::Npb`]: each reproduces
/// the communication skeleton of one NAS kernel per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NpbKernel {
    /// Embarrassingly parallel: all compute, one tiny reduction.
    Ep,
    /// Integer sort: an all-to-all personalized exchange per iteration.
    Is,
    /// Multigrid: nearest-neighbour halo exchange plus a reduction.
    Mg,
}

impl NpbKernel {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            NpbKernel::Ep => "ep",
            NpbKernel::Is => "is",
            NpbKernel::Mg => "mg",
        }
    }
}

/// What a job computes, as a repeated virtual-time SPMD step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkModel {
    /// Treecode-like timesteps: tree build + force walk compute with
    /// mild per-rank skew, a ring exchange of boundary multipoles, and a
    /// global timestep reduction.
    Treecode {
        /// Bodies per rank (weak-scaling convention, as the paper's
        /// Table 2).
        bodies_per_rank: usize,
        /// Timesteps.
        steps: u32,
    },
    /// An NPB-style kernel iterated `iters` times.
    Npb {
        /// Which kernel shape.
        kernel: NpbKernel,
        /// Iterations.
        iters: u32,
    },
    /// A synthetic flops/comm mix: `rounds` ring exchanges of `msg_kib`
    /// KiB per step, interleaved with compute.
    Synthetic {
        /// Virtual flops per rank per step.
        flops_per_step: f64,
        /// Ring-exchange payload per round, KiB.
        msg_kib: u32,
        /// Communication rounds per step.
        rounds: u32,
        /// Steps.
        steps: u32,
    },
}

impl WorkModel {
    /// Repetitions of the one-step pattern that make up the whole job.
    pub fn steps(&self) -> u32 {
        match *self {
            WorkModel::Treecode { steps, .. } => steps,
            WorkModel::Npb { iters, .. } => iters,
            WorkModel::Synthetic { steps, .. } => steps,
        }
    }

    /// Stable key identifying the one-step SPMD pattern, excluding the
    /// step count: two jobs with equal keys and equal widths share one
    /// simulated step (the service model's memoization key).
    pub fn step_key(&self) -> (u8, u64, u64, u64) {
        match *self {
            WorkModel::Treecode {
                bodies_per_rank, ..
            } => (0, bodies_per_rank as u64, 0, 0),
            WorkModel::Npb { kernel, .. } => (1, kernel as u64, 0, 0),
            WorkModel::Synthetic {
                flops_per_step,
                msg_kib,
                rounds,
                ..
            } => (2, flops_per_step.to_bits(), msg_kib as u64, rounds as u64),
        }
    }

    /// Virtual flops rank `r` computes in one step (a treecode's walk
    /// carries a mild deterministic per-rank skew).
    pub fn flops_for_rank(&self, r: usize) -> f64 {
        match *self {
            WorkModel::Treecode {
                bodies_per_rank, ..
            } => bodies_per_rank as f64 * 6.0e4 * (1.0 + 0.06 * ((r % 5) as f64)),
            WorkModel::Npb { kernel, .. } => match kernel {
                NpbKernel::Ep => 5.0e7,
                NpbKernel::Is => 3.0e7,
                NpbKernel::Mg => 4.0e7,
            },
            WorkModel::Synthetic { flops_per_step, .. } => flops_per_step,
        }
    }

    /// The step's communication, payloads in bytes: what
    /// [`WorkModel::run_step`] executes and the closed-form cost model
    /// prices.
    pub fn shape(&self) -> StepShape {
        let (ring_bytes, rounds, tail) = match *self {
            // Locally-essential-tree ring of multipoles, then the
            // global energy / timestep reduction.
            WorkModel::Treecode {
                bodies_per_rank, ..
            } => (
                (bodies_per_rank as u64 / 8).max(8) * 8,
                1,
                Some(Tail::Allreduce { bytes: 32 }),
            ),
            WorkModel::Npb { kernel, .. } => match kernel {
                NpbKernel::Ep => (0, 0, Some(Tail::Allreduce { bytes: 80 })),
                NpbKernel::Is => (0, 0, Some(Tail::Alltoallv { bytes: 1024 })),
                // A 4 KiB halo to the successor, then a reduction.
                NpbKernel::Mg => (4096, 1, Some(Tail::Allreduce { bytes: 8 })),
            },
            WorkModel::Synthetic {
                msg_kib, rounds, ..
            } => (msg_kib as u64 * 1024, rounds.max(1) as u64, None),
        };
        StepShape {
            ring_bytes,
            rounds,
            tail,
        }
    }

    /// Execute one step of the pattern on `comm`, charging virtual time:
    /// the rank's compute in one equal share per ring round (one share
    /// without a ring), each followed by its ring round, then the tail
    /// collective. Valid at any width ≥ 1 (a single rank skips the
    /// ring). Payload values are never read; only their sizes cost.
    ///
    /// The body of a stackless SPMD run ([`mb_cluster::Stackless`]):
    /// [`crate::ServiceModel`] polls every rank's step on the calling
    /// thread.
    pub async fn run_step(&self, comm: &mut Comm) {
        let rank = comm.rank();
        let n = comm.nranks();
        let shape = self.shape();
        let flops = self.flops_for_rank(rank);
        let shares = shape.rounds.max(1);
        let ring = vec![0.0; shape.ring_bytes as usize / 8];
        for _ in 0..shares {
            comm.compute(flops / shares as f64);
            if shape.rounds > 0 && n > 1 {
                comm.send_f64s((rank + 1) % n, 41, &ring);
                let _ = comm.recv_f64s_async((rank + n - 1) % n, 41).await;
            }
        }
        match shape.tail {
            Some(Tail::Allreduce { bytes }) => {
                let _ = comm
                    .allreduce_sum_async(&vec![0.0; bytes as usize / 8])
                    .await;
            }
            Some(Tail::Alltoallv { bytes }) => {
                // The zero doubles' bytes: `bytes` in whole doubles.
                let chunk = vec![0u8; bytes as usize / 8 * 8].into();
                let _ = comm.alltoallv_async(vec![chunk; n]).await;
            }
            None => {}
        }
    }
}

/// The collective that closes a step, after its ring rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// A sum-allreduce of `bytes`.
    Allreduce {
        /// Payload bytes per rank.
        bytes: u64,
    },
    /// A personalized all-to-all sending `bytes` to every rank.
    Alltoallv {
        /// Payload bytes per destination.
        bytes: u64,
    },
}

/// One step's communication shape ([`WorkModel::shape`]): `rounds` ring
/// exchanges of `ring_bytes` to the successor rank (no ring when
/// `rounds` is 0), then at most one [`Tail`] collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepShape {
    /// Payload bytes of one ring message.
    pub ring_bytes: u64,
    /// Ring rounds per step.
    pub rounds: u64,
    /// The closing collective, if any.
    pub tail: Option<Tail>,
}

/// One submitted job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Stable id (submission order).
    pub id: usize,
    /// Arrival time, virtual seconds.
    pub submit_s: f64,
    /// Nodes requested (one rank per node). Clamped to the cluster size
    /// by the engine.
    pub ranks: usize,
    /// Modeled work.
    pub work: WorkModel,
}

/// Per-job outcome after the simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Job id.
    pub id: usize,
    /// Nodes actually held while running.
    pub ranks: usize,
    /// Arrival, virtual seconds.
    pub submit_s: f64,
    /// First dispatch, virtual seconds.
    pub start_s: f64,
    /// Completion, virtual seconds.
    pub end_s: f64,
    /// Failure-free wall time (work + checkpoint overhead), seconds —
    /// the denominator of slowdown.
    pub clean_service_s: f64,
    /// Times the job was requeued by a node failure.
    pub restarts: u32,
    /// Uncheckpointed work lost to failures, seconds.
    pub lost_work_s: f64,
}

impl JobRecord {
    /// Queue wait before first dispatch, seconds.
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.submit_s
    }

    /// Submission-to-completion, seconds.
    pub fn turnaround_s(&self) -> f64 {
        self.end_s - self.submit_s
    }

    /// Bounded slowdown: turnaround over failure-free service time (the
    /// denominator floored at 1 s so trivial jobs don't dominate means).
    pub fn slowdown(&self) -> f64 {
        self.turnaround_s() / self.clean_service_s.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_key_ignores_step_count() {
        let a = WorkModel::Treecode {
            bodies_per_rank: 1200,
            steps: 100,
        };
        let b = WorkModel::Treecode {
            bodies_per_rank: 1200,
            steps: 4000,
        };
        assert_eq!(a.step_key(), b.step_key());
        let c = WorkModel::Treecode {
            bodies_per_rank: 600,
            steps: 100,
        };
        assert_ne!(a.step_key(), c.step_key());
        assert_eq!(b.steps(), 4000);
    }

    #[test]
    fn step_keys_separate_model_families() {
        let tree = WorkModel::Treecode {
            bodies_per_rank: 1,
            steps: 1,
        };
        let npb = WorkModel::Npb {
            kernel: NpbKernel::Ep,
            iters: 1,
        };
        let syn = WorkModel::Synthetic {
            flops_per_step: 1.0,
            msg_kib: 1,
            rounds: 1,
            steps: 1,
        };
        assert_ne!(tree.step_key(), npb.step_key());
        assert_ne!(npb.step_key(), syn.step_key());
    }

    #[test]
    fn record_derives_wait_turnaround_slowdown() {
        let r = JobRecord {
            id: 0,
            ranks: 4,
            submit_s: 100.0,
            start_s: 160.0,
            end_s: 400.0,
            clean_service_s: 200.0,
            restarts: 0,
            lost_work_s: 0.0,
        };
        assert_eq!(r.wait_s(), 60.0);
        assert_eq!(r.turnaround_s(), 300.0);
        assert_eq!(r.slowdown(), 1.5);
    }
}
