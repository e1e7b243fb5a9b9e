//! Seeded open-arrival generators and the quantized job mix.
//!
//! Three arrival processes cover the regimes the streaming scenarios
//! care about: a homogeneous [`TrafficPattern::Poisson`] process (the
//! M/G/k validation baseline), a [`TrafficPattern::Diurnal`] process
//! whose rate follows a day/night sinusoid (sampled by Lewis–Shedler
//! thinning, so interarrivals remain exact), and a
//! [`TrafficPattern::Bursty`] Markov-modulated on/off process whose
//! interarrival CV exceeds 1. All three are pure functions of their
//! seed: one [`rand::rngs::StdRng`] is consumed in a fixed order
//! (gap draws, then job-body draws), so the resulting job stream — and
//! therefore the stream fingerprint — is bit-identical across runs and
//! under every executor policy.

use mb_sched::stream::{Arrival, ArrivalSource};
use mb_sched::{JobSpec, NpbKernel, WorkModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SLO class indices used throughout this crate (the class index is the
/// queue priority rank — see [`mb_sched::stream`]).
pub const CLASS_LATENCY: usize = 0;
/// Throughput-oriented batch work.
pub const CLASS_BATCH: usize = 1;
/// Best-effort filler that is first to be shed.
pub const CLASS_SCAVENGER: usize = 2;

/// The open arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Homogeneous Poisson arrivals at `rate_per_s`.
    Poisson {
        /// Mean arrival rate, jobs per virtual second.
        rate_per_s: f64,
    },
    /// A nonhomogeneous Poisson process whose rate follows a raised
    /// sinusoid between `base_rate_per_s` (trough) and
    /// `peak_rate_per_s` over `period_s` — the classic diurnal cycle.
    /// Sampled by Lewis–Shedler thinning against the peak rate.
    Diurnal {
        /// Trough arrival rate, jobs per second.
        base_rate_per_s: f64,
        /// Peak arrival rate, jobs per second.
        peak_rate_per_s: f64,
        /// Cycle length, seconds (86 400 for a day).
        period_s: f64,
    },
    /// A two-state Markov-modulated Poisson process: exponential
    /// holding times in an *on* state (arrivals at `on_rate_per_s`)
    /// and an *off* state (arrivals at `off_rate_per_s`, possibly 0).
    /// Produces the bursty, CV > 1 interarrival streams user-facing
    /// services actually see.
    Bursty {
        /// Arrival rate while the source is on, jobs per second.
        on_rate_per_s: f64,
        /// Arrival rate while the source is off, jobs per second.
        off_rate_per_s: f64,
        /// Mean holding time of the on state, seconds.
        mean_on_s: f64,
        /// Mean holding time of the off state, seconds.
        mean_off_s: f64,
    },
}

impl TrafficPattern {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::Poisson { .. } => "poisson",
            TrafficPattern::Diurnal { .. } => "diurnal",
            TrafficPattern::Bursty { .. } => "bursty",
        }
    }

    /// Long-run mean arrival rate, jobs per second — the λ the M/G/k
    /// approximations consume.
    pub fn mean_rate_per_s(&self) -> f64 {
        match *self {
            TrafficPattern::Poisson { rate_per_s } => rate_per_s,
            // The raised sinusoid averages to the midpoint over a full
            // period.
            TrafficPattern::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                ..
            } => 0.5 * (base_rate_per_s + peak_rate_per_s),
            TrafficPattern::Bursty {
                on_rate_per_s,
                off_rate_per_s,
                mean_on_s,
                mean_off_s,
            } => {
                let cycle = mean_on_s + mean_off_s;
                (on_rate_per_s * mean_on_s + off_rate_per_s * mean_off_s) / cycle
            }
        }
    }

    /// Instantaneous rate at virtual time `t_s` (constant for Poisson;
    /// the sinusoid for diurnal; the *mean* rate for bursty, whose
    /// instantaneous rate is a random process).
    pub fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            TrafficPattern::Poisson { rate_per_s } => rate_per_s,
            TrafficPattern::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period_s,
            } => {
                let phase = std::f64::consts::TAU * t_s / period_s;
                base_rate_per_s + (peak_rate_per_s - base_rate_per_s) * 0.5 * (1.0 - phase.cos())
            }
            TrafficPattern::Bursty { .. } => self.mean_rate_per_s(),
        }
    }
}

/// Seeded sampler of job *bodies* (width, work model, requested SLO
/// class) on the same quantized grids as [`mb_sched::workload`] — so a
/// streamed job's `(step pattern, width)` universe stays small and the
/// cost model's memo covers it.
///
/// Widths skew narrower than the batch generator (an open stream is
/// user traffic, mostly small jobs) and step counts are short enough
/// that a single job's service is minutes, not hours, keeping 10⁵-job
/// streams inside CI budgets.
#[derive(Debug, Clone, Copy)]
pub struct JobMix {
    /// Widths are clamped to this (the cluster size).
    pub max_ranks: usize,
    /// Step-count quantum: jobs run `quantum × 1..=8` steps.
    pub step_quantum: u32,
}

impl JobMix {
    /// The standard user-scale mix for a cluster of `max_ranks` nodes.
    pub fn standard(max_ranks: usize) -> Self {
        Self {
            max_ranks,
            step_quantum: 30,
        }
    }

    /// Every distinct one-step pattern this mix can emit (one
    /// representative per `step_key`) — the calibration set for
    /// [`crate::CostModel`].
    pub fn patterns(&self) -> Vec<WorkModel> {
        let mut out = Vec::new();
        for bodies in [600, 1200, 2400] {
            out.push(WorkModel::Treecode {
                bodies_per_rank: bodies,
                steps: 1,
            });
        }
        for kernel in [NpbKernel::Ep, NpbKernel::Is, NpbKernel::Mg] {
            out.push(WorkModel::Npb { kernel, iters: 1 });
        }
        for flops in [2.5e7, 5.0e7, 1.0e8] {
            for msg_kib in [1, 4, 16] {
                for rounds in [2, 4] {
                    out.push(WorkModel::Synthetic {
                        flops_per_step: flops,
                        msg_kib,
                        rounds,
                        steps: 1,
                    });
                }
            }
        }
        out
    }

    /// Widths the mix draws from (before clamping), narrow-skewed.
    const WIDTHS: [usize; 12] = [1, 1, 1, 2, 2, 2, 4, 4, 8, 8, 12, 16];

    /// Draw one job body. Consumes a fixed number of variates per call
    /// pattern, in a fixed order — determinism depends on it.
    pub fn draw(&self, rng: &mut StdRng, id: usize, submit_s: f64) -> Arrival {
        let ranks = Self::WIDTHS[rng.random_range(0..Self::WIDTHS.len())].min(self.max_ranks);
        let reps = self.step_quantum * rng.random_range(1..=8u32);
        let work = match rng.random_range(0..3u32) {
            0 => WorkModel::Treecode {
                bodies_per_rank: [600, 1200, 2400][rng.random_range(0..3usize)],
                steps: reps,
            },
            1 => WorkModel::Npb {
                kernel: [NpbKernel::Ep, NpbKernel::Is, NpbKernel::Mg][rng.random_range(0..3usize)],
                iters: reps,
            },
            _ => WorkModel::Synthetic {
                flops_per_step: [2.5e7, 5.0e7, 1.0e8][rng.random_range(0..3usize)],
                msg_kib: [1, 4, 16][rng.random_range(0..3usize)],
                rounds: [2, 4][rng.random_range(0..2usize)],
                steps: reps,
            },
        };
        // Requested class: narrow short jobs lean latency-sensitive,
        // the bulk is batch, and a fifth of traffic is scavenger fill.
        let roll = rng.random_range(0..20u32);
        let class = if roll < 5 && ranks <= 2 {
            CLASS_LATENCY
        } else if roll < 16 {
            CLASS_BATCH
        } else {
            CLASS_SCAVENGER
        };
        Arrival {
            spec: JobSpec {
                id,
                submit_s,
                ranks,
                work,
            },
            class,
        }
    }
}

/// A lazy seeded open-arrival source: interarrival gaps from a
/// [`TrafficPattern`], job bodies from a [`JobMix`], capped at `jobs`
/// arrivals. Implements [`ArrivalSource`], so a million-job stream is
/// never materialized.
#[derive(Debug, Clone)]
pub struct OpenArrivals {
    pattern: TrafficPattern,
    mix: JobMix,
    jobs: usize,
    rng: StdRng,
    t_s: f64,
    emitted: usize,
    pending: Option<Arrival>,
    /// Bursty-state bookkeeping: are we in the on state, and until when.
    burst_on: bool,
    burst_until_s: f64,
}

impl OpenArrivals {
    /// A fresh stream of `jobs` arrivals from `pattern`/`mix`, fully
    /// determined by `seed`.
    pub fn new(pattern: TrafficPattern, mix: JobMix, jobs: usize, seed: u64) -> Self {
        Self {
            pattern,
            mix,
            jobs,
            rng: StdRng::seed_from_u64(seed),
            t_s: 0.0,
            emitted: 0,
            pending: None,
            burst_on: true,
            burst_until_s: 0.0,
        }
    }

    /// The pattern this stream samples.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
        // Clamp away u = 0 so ln stays finite.
        let u: f64 = rng.random::<f64>().max(1e-300);
        -u.ln() / rate
    }

    /// Advance `t_s` to the next arrival instant.
    fn advance(&mut self) {
        match self.pattern {
            TrafficPattern::Poisson { rate_per_s } => {
                self.t_s += Self::exp_gap(&mut self.rng, rate_per_s);
            }
            TrafficPattern::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                ..
            } => {
                // Lewis–Shedler thinning against the envelope rate.
                let lambda_max = base_rate_per_s.max(peak_rate_per_s);
                loop {
                    self.t_s += Self::exp_gap(&mut self.rng, lambda_max);
                    let accept: f64 = self.rng.random();
                    if accept * lambda_max <= self.pattern.rate_at(self.t_s) {
                        break;
                    }
                }
            }
            TrafficPattern::Bursty {
                on_rate_per_s,
                off_rate_per_s,
                mean_on_s,
                mean_off_s,
            } => loop {
                // Refresh the state holding time lazily.
                if self.t_s >= self.burst_until_s {
                    self.burst_on = !self.burst_on;
                    let mean = if self.burst_on { mean_on_s } else { mean_off_s };
                    self.burst_until_s = self.t_s + Self::exp_gap(&mut self.rng, 1.0 / mean);
                }
                let rate = if self.burst_on {
                    on_rate_per_s
                } else {
                    off_rate_per_s
                };
                if rate <= 0.0 {
                    // Silent state: jump to its end.
                    self.t_s = self.burst_until_s;
                    continue;
                }
                let gap = Self::exp_gap(&mut self.rng, rate);
                if self.t_s + gap <= self.burst_until_s {
                    self.t_s += gap;
                    break;
                }
                // The candidate falls past the state switch: discard it
                // (memorylessness makes this exact) and roll state.
                self.t_s = self.burst_until_s;
            },
        }
    }

    fn fill(&mut self) {
        if self.pending.is_some() || self.emitted >= self.jobs {
            return;
        }
        self.advance();
        let arrival = self.mix.draw(&mut self.rng, self.emitted, self.t_s);
        self.emitted += 1;
        self.pending = Some(arrival);
    }
}

impl ArrivalSource for OpenArrivals {
    fn peek_s(&mut self) -> Option<f64> {
        self.fill();
        self.pending.as_ref().map(|a| a.spec.submit_s)
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        self.fill();
        self.pending.take()
    }
}

/// A pre-materialized, class-preserving arrival list (what
/// [`crate::swf::parse_swf`] returns, sorted): the scheduler's own
/// [`mb_sched::VecArrivals`] under this crate's name.
pub use mb_sched::VecArrivals as ArrivalVec;

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(src: &mut OpenArrivals) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(a) = src.next_arrival() {
            out.push(a);
        }
        out
    }

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let mk = |seed| {
            OpenArrivals::new(
                TrafficPattern::Poisson { rate_per_s: 0.1 },
                JobMix::standard(24),
                50,
                seed,
            )
        };
        let a = drain(&mut mk(7));
        let b = drain(&mut mk(7));
        assert_eq!(a, b);
        let c = drain(&mut mk(8));
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_nondecreasing_and_capped() {
        for pattern in [
            TrafficPattern::Poisson { rate_per_s: 0.05 },
            TrafficPattern::Diurnal {
                base_rate_per_s: 0.01,
                peak_rate_per_s: 0.1,
                period_s: 3600.0,
            },
            TrafficPattern::Bursty {
                on_rate_per_s: 0.2,
                off_rate_per_s: 0.0,
                mean_on_s: 120.0,
                mean_off_s: 300.0,
            },
        ] {
            let mut src = OpenArrivals::new(pattern, JobMix::standard(24), 200, 11);
            let all = drain(&mut src);
            assert_eq!(all.len(), 200, "{}", pattern.label());
            let mut prev = 0.0;
            for (i, a) in all.iter().enumerate() {
                assert_eq!(a.spec.id, i);
                assert!(a.spec.submit_s >= prev, "{}", pattern.label());
                assert!((1..=24).contains(&a.spec.ranks));
                assert!(a.class <= CLASS_SCAVENGER);
                prev = a.spec.submit_s;
            }
        }
    }

    #[test]
    fn peek_matches_next_and_streams_lazily() {
        let mut src = OpenArrivals::new(
            TrafficPattern::Poisson { rate_per_s: 1.0 },
            JobMix::standard(24),
            3,
            1,
        );
        for _ in 0..3 {
            let t = src.peek_s().unwrap();
            assert_eq!(src.peek_s(), Some(t), "peek must not consume");
            let a = src.next_arrival().unwrap();
            assert_eq!(a.spec.submit_s, t);
        }
        assert_eq!(src.peek_s(), None);
        assert!(src.next_arrival().is_none());
    }

    #[test]
    fn arrival_vec_sorts_and_keeps_classes() {
        let mix = JobMix::standard(24);
        let mut rng = StdRng::seed_from_u64(3);
        let mut items = vec![
            mix.draw(&mut rng, 1, 9.0),
            mix.draw(&mut rng, 0, 4.0),
            mix.draw(&mut rng, 2, 9.0),
        ];
        items[0].class = CLASS_SCAVENGER;
        let classes: Vec<usize> = items.iter().map(|a| a.class).collect();
        let mut src = ArrivalVec::new(items);
        assert_eq!(src.peek_s(), Some(4.0));
        assert_eq!(src.next_arrival().unwrap().spec.id, 0);
        let a1 = src.next_arrival().unwrap();
        assert_eq!((a1.spec.id, a1.class), (1, classes[0]));
        assert_eq!(src.next_arrival().unwrap().spec.id, 2);
        assert!(src.next_arrival().is_none());
    }

    #[test]
    fn mean_rates_are_consistent() {
        let d = TrafficPattern::Diurnal {
            base_rate_per_s: 0.02,
            peak_rate_per_s: 0.08,
            period_s: 1000.0,
        };
        assert!((d.mean_rate_per_s() - 0.05).abs() < 1e-12);
        // Sinusoid hits base at t=0 and peak at half period.
        assert!((d.rate_at(0.0) - 0.02).abs() < 1e-12);
        assert!((d.rate_at(500.0) - 0.08).abs() < 1e-12);
        let b = TrafficPattern::Bursty {
            on_rate_per_s: 0.3,
            off_rate_per_s: 0.0,
            mean_on_s: 100.0,
            mean_off_s: 200.0,
        };
        assert!((b.mean_rate_per_s() - 0.1).abs() < 1e-12);
    }
}
