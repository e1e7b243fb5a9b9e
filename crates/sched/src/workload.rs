//! Seeded workload generation.
//!
//! Poisson arrivals, widths skewed narrow (as real batch traces are),
//! and work models drawn from quantized parameter grids. Quantization is
//! deliberate: it keeps the set of distinct `(step pattern, width)`
//! pairs small, so the engine's memoized service model simulates each
//! pattern once. Everything is driven by one seeded `StdRng`, so a
//! `WorkloadConfig` identifies its job stream exactly.
//!
//! [`comm_heavy`] is the second generator: the ring-exchange stream the
//! fat-tree placement contrasts run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::job::{JobSpec, NpbKernel, WorkModel};

/// Shape of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of jobs.
    pub jobs: usize,
    /// RNG seed (arrivals, widths, work models).
    pub seed: u64,
    /// Mean Poisson interarrival gap, virtual seconds.
    pub mean_interarrival_s: f64,
    /// Widest job, nodes (wider draws are clamped).
    pub max_ranks: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        standard()
    }
}

/// The standard acceptance workload: 200 jobs, seed 42, sized so a
/// 24-node MetaBlade runs at a utilization where backfill matters
/// (offered load ≈ 1.3× capacity).
pub fn standard() -> WorkloadConfig {
    WorkloadConfig {
        jobs: 200,
        seed: 42,
        mean_interarrival_s: 240.0,
        max_ranks: 24,
    }
}

/// Generate the job stream for a config. Deterministic: equal configs
/// yield bit-identical streams.
pub fn generate(cfg: &WorkloadConfig) -> Vec<JobSpec> {
    assert!(cfg.jobs > 0, "empty workload");
    assert!(cfg.max_ranks > 0, "max_ranks must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Narrow jobs dominate; the occasional full-machine job is what
    // makes FCFS head-of-line blocking (and thus backfill) matter.
    let widths = [1usize, 1, 2, 2, 4, 4, 8, 8, 12, 16, 24];
    let mut t = 0.0;
    (0..cfg.jobs)
        .map(|id| {
            let u: f64 = rng.random::<f64>().max(1e-12);
            t += -cfg.mean_interarrival_s * u.ln();
            let ranks = widths[rng.random_range(0..widths.len())].min(cfg.max_ranks);
            let work = match rng.random_range(0..3u8) {
                0 => WorkModel::Treecode {
                    bodies_per_rank: [600, 1200, 2400][rng.random_range(0..3usize)],
                    steps: 300 * rng.random_range(2..=12u32),
                },
                1 => WorkModel::Npb {
                    kernel: [NpbKernel::Ep, NpbKernel::Is, NpbKernel::Mg]
                        [rng.random_range(0..3usize)],
                    iters: 300 * rng.random_range(2..=10u32),
                },
                _ => WorkModel::Synthetic {
                    flops_per_step: [2.5e7, 5.0e7, 1.0e8][rng.random_range(0..3usize)],
                    msg_kib: [1, 4, 16][rng.random_range(0..3usize)],
                    rounds: [2, 4][rng.random_range(0..2usize)],
                    steps: 300 * rng.random_range(1..=8u32),
                },
            };
            JobSpec {
                id,
                submit_s: t,
                ranks,
                work,
            }
        })
        .collect()
}

/// Seeded comm-heavy stream for the placement contrasts on an
/// oversubscribed fat tree: ring-exchange synthetic jobs whose
/// 32/64/128-KiB × 8-round steps keep the uplinks busy enough that
/// cross-job sharing shows up in the makespan and slowdown tail.
/// `jobs` jobs `min_ranks..=max_ranks` wide, submitted every
/// `mean_gap_s` on average (uniform ±50 %); deterministic in `seed`.
pub fn comm_heavy(
    jobs: usize,
    min_ranks: usize,
    max_ranks: usize,
    mean_gap_s: f64,
    seed: u64,
) -> Vec<JobSpec> {
    let mut s = seed | 1;
    let mut next = move |m: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % m
    };
    let mut t = 0.0;
    (0..jobs)
        .map(|i| {
            // Mixed widths leave partial groups behind (allocation
            // slack), and mixed message sizes make per-group loads
            // unequal — both are what gives the contention-aware
            // allocator real choices over compact.
            let ranks = min_ranks + next((max_ranks - min_ranks + 1) as u64) as usize;
            let steps = 150 + next(150) as u32;
            let msg_kib = 32u32 << (next(3) as u32); // 32, 64 or 128 KiB
            let spec = JobSpec {
                id: i,
                submit_s: t,
                ranks,
                work: WorkModel::Synthetic {
                    flops_per_step: 1e6,
                    msg_kib,
                    rounds: 8,
                    steps,
                },
            };
            t += mean_gap_s * (0.5 + next(100) as f64 / 100.0);
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic() {
        let cfg = standard();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = WorkloadConfig { seed: 43, ..cfg };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn arrivals_are_ordered_and_widths_bounded() {
        let cfg = WorkloadConfig {
            jobs: 300,
            seed: 7,
            mean_interarrival_s: 100.0,
            max_ranks: 8,
        };
        let jobs = generate(&cfg);
        assert_eq!(jobs.len(), 300);
        for w in jobs.windows(2) {
            assert!(w[0].submit_s <= w[1].submit_s);
        }
        assert!(jobs.iter().all(|j| j.ranks >= 1 && j.ranks <= 8));
        // Ids are the submission order.
        assert!(jobs.iter().enumerate().all(|(i, j)| j.id == i));
    }

    #[test]
    fn quantization_keeps_pattern_count_small() {
        let jobs = generate(&standard());
        let mut keys: Vec<_> = jobs.iter().map(|j| j.work.step_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        // 3 treecode sizes + 3 kernels + 18 synthetic grid points = 24.
        assert!(keys.len() <= 24, "{} distinct patterns", keys.len());
    }
}
