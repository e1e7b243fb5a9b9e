//! `cms_guest` — guest microkernel programs under the Code Morphing
//! Software simulator. Only `crusoe` runs, so any CMS change shows here
//! and nowhere else. Case `cold` boots a fresh `Cms` for every run of a
//! program short enough that at most half its instructions execute
//! translated (interpretation, profiling and translation dominate);
//! case `warm` re-runs long programs on a pre-warmed translation cache
//! (chained translated execution dominates). A t-cache gain bought with
//! translation cost moves the two in opposite directions.

use std::time::Instant;

use mb_crusoe::atoms::{crack_block, fuse_fma};
use mb_crusoe::kernels::MicrokernelProgram;
use mb_crusoe::schedule::schedule_block;
use mb_crusoe::{build_microkernel, Cms, CmsConfig, CmsRunStats, MicrokernelVariant};
use mb_microkernel::{accel_kernel, MicrokernelInput, RsqrtMethod};
use mb_telemetry::fnv::Fnv;

use crate::harness::{median, ratio, Checks, Metrics, Pin, Repeat, Rng, Scale, Untraced, Workload};
use crate::trace::Tracer;

const VARIANTS: [(MicrokernelVariant, RsqrtMethod); 2] = [
    (MicrokernelVariant::KarpSqrt, RsqrtMethod::KarpSqrt),
    (MicrokernelVariant::MathSqrt, RsqrtMethod::MathSqrt),
];

/// A guest program with its seeded input and the native reference.
struct Guest {
    program: MicrokernelProgram,
    input: MicrokernelInput,
    native: [f64; 3],
}

impl Guest {
    fn new(
        variant: MicrokernelVariant,
        method: RsqrtMethod,
        n: usize,
        sweeps: usize,
        seed: u64,
    ) -> Self {
        let input = seeded_input(n, seed);
        Guest {
            program: build_microkernel(variant, n, sweeps),
            native: accel_kernel(&input, sweeps, method).accel,
            input,
        }
    }

    /// Run on `cms`, or on a freshly booted one when `None` (booting and
    /// dropping it is part of the timed cold cost); returns the run's
    /// stats, its host seconds and the acceleration the guest computed.
    fn run(&self, cms: Option<&mut Cms>) -> (CmsRunStats, f64, [f64; 3]) {
        let mut state = self.program.setup_state(&self.input);
        let program = &self.program.program;
        let t = Instant::now();
        let stats = match cms {
            Some(cms) => cms.run(program, &mut state),
            None => Cms::new(CmsConfig::metablade()).run(program, &mut state),
        }
        .expect("the microkernel never faults");
        let secs = t.elapsed().as_secs_f64();
        (stats, secs, self.program.read_accel(&state))
    }
}

/// `MicrokernelInput::generate`'s shape (sources in the unit cube,
/// masses in `[0.5, 1.5)`), drawn from the benchmark's seed.
fn seeded_input(n: usize, seed: u64) -> MicrokernelInput {
    let mut rng = Rng::new(seed);
    let mut src = Vec::with_capacity(n);
    let mut mass = Vec::with_capacity(n);
    for _ in 0..n {
        src.push([
            rng.unit() * 2.0 - 1.0,
            rng.unit() * 2.0 - 1.0,
            rng.unit() * 2.0 - 1.0,
        ]);
        mass.push(rng.unit() + 0.5);
    }
    MicrokernelInput {
        src,
        mass,
        probe: [0.1, -0.2, 0.05],
        eps2: 1e-4,
    }
}

fn insns(s: &CmsRunStats) -> u64 {
    s.interp_insns + s.translated_insns
}

/// Stats summed over a repeat's runs.
#[derive(Default)]
struct Totals {
    secs: f64,
    sum: CmsRunStats,
    accel: Fnv,
}

impl Totals {
    fn add(&mut self, (stats, secs, accel): (CmsRunStats, f64, [f64; 3])) {
        self.secs += secs;
        let t = &mut self.sum;
        t.total_cycles += stats.total_cycles;
        t.interp_insns += stats.interp_insns;
        t.translated_insns += stats.translated_insns;
        t.translations += stats.translations;
        t.chained_entries += stats.chained_entries;
        // Lifetime counters of the CMS that ran: the run's own only
        // when that CMS was fresh.
        t.tcache.hits += stats.tcache.hits;
        t.tcache.misses += stats.tcache.misses;
        for a in accel {
            self.accel.write_f64(a);
        }
    }
}

pub struct CmsGuest {
    cold: Vec<Guest>,
    warm: Vec<Guest>,
    /// One pre-warmed CMS per warm guest.
    warm_cms: Vec<Cms>,
    cold_runs: usize,
    warm_runs: usize,
}

impl CmsGuest {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let guests = |n, sweeps| -> Vec<Guest> {
            VARIANTS
                .iter()
                .map(|&(v, m)| Guest::new(v, m, n, sweeps, seed))
                .collect()
        };
        let warm = guests(256, 64);
        // A block is translated once it has been interpreted
        // `hot_threshold` times, so this many runs translate every
        // block a run executes at all: later runs only hit the cache.
        let config = CmsConfig::metablade();
        let warm_cms = warm
            .iter()
            .map(|g| {
                let mut cms = Cms::new(config);
                for _ in 0..=config.hot_threshold {
                    g.run(Some(&mut cms));
                }
                cms
            })
            .collect();
        CmsGuest {
            cold: guests(16, 2),
            warm,
            warm_cms,
            cold_runs: scale.pick(1_000, 100),
            warm_runs: scale.pick(20, 2),
        }
    }
}

impl Workload for CmsGuest {
    fn unit(&self) -> &'static str {
        "guest instructions"
    }

    fn repeat(&mut self, tr: &mut Tracer) -> Repeat {
        let mut cold = Totals::default();
        tr.span("crusoe.run.cold", |_| {
            for _ in 0..self.cold_runs {
                for g in &self.cold {
                    cold.add(g.run(None));
                }
            }
        });
        let mut warm = Totals::default();
        // A CMS counts t-cache lookups over its lifetime: the repeat's
        // share is the difference across it.
        let lifetime = |cms: &[Cms]| -> (u64, u64) {
            cms.iter()
                .map(|c| c.tcache().stats)
                .fold((0, 0), |(h, l), s| (h + s.hits, l + s.hits + s.misses))
        };
        let before = lifetime(&self.warm_cms);
        tr.span("crusoe.run.warm", |_| {
            for _ in 0..self.warm_runs {
                for (g, cms) in self.warm.iter().zip(&mut self.warm_cms) {
                    warm.add(g.run(Some(cms)));
                }
            }
        });
        let after = lifetime(&self.warm_cms);
        let cold_tc = cold.sum.tcache;
        let hits = cold_tc.hits + after.0 - before.0;
        let lookups = cold_tc.hits + cold_tc.misses + after.1 - before.1;

        let mut out = Repeat::default();
        out.case("cold", cold.secs, insns(&cold.sum));
        out.case("warm", warm.secs, insns(&warm.sum));
        let both = |f: fn(&CmsRunStats) -> u64| f(&cold.sum) + f(&warm.sum);
        out.count("crusoe.interp_insns", both(|s| s.interp_insns));
        out.count("crusoe.translated_insns", both(|s| s.translated_insns));
        out.count("crusoe.translations", both(|s| s.translations));
        out.count("crusoe.chained_entries", both(|s| s.chained_entries));
        out.float(
            "crusoe.tcache_hit_ratio",
            ratio(hits as f64, lookups as f64),
        );
        out.float(
            "crusoe.sim_cycles_per_insn",
            ratio(both(|s| s.total_cycles) as f64, both(insns) as f64),
        );
        out.hash("crusoe.guest_accel.cold", cold.accel.finish());
        out.hash("crusoe.guest_accel.warm", warm.accel.finish());
        out
    }

    fn checks(&mut self, checks: &mut Checks) {
        for (kind, guests) in [("cold", &self.cold), ("warm", &self.warm)] {
            for g in guests {
                let (stats, _, guest) = g.run(None);
                // Relative to max(|native|, 1), as tests/end_to_end.rs does.
                let worst = (0..3)
                    .map(|d| ((guest[d] - g.native[d]) / g.native[d].abs().max(1.0)).abs())
                    .fold(0.0, f64::max);
                checks.check(
                    &format!(
                        "cms: guest {:?} ({kind}) acceleration within 1e-9 of native",
                        g.program.variant
                    ),
                    worst < 1e-9,
                    || format!("worst relative error {worst:e}"),
                );
                if kind == "cold" {
                    let f = stats.translated_fraction();
                    checks.check(
                        &format!(
                            "cms: cold {:?} run executes at most half translated",
                            g.program.variant
                        ),
                        f <= 0.5,
                        || format!("translated fraction {f:.3}"),
                    );
                }
            }
        }
    }

    fn layers(&mut self, untraced: &Untraced, _tr: &Tracer, _pin: &Pin, out: &mut Metrics) {
        out.set("crusoe.cold_ns_per_insn", untraced.ns_per_unit("cold"));
        out.set("crusoe.warm_ns_per_insn", untraced.ns_per_unit("warm"));

        // The translator's host work on the Karp kernel's hot block (its
        // longest basic block, the inner loop): crack to atoms, the FMA
        // fusion pass, list-schedule into molecules.
        let program = &self.warm[0].program.program;
        let block = program
            .leaders()
            .into_iter()
            .map(|l| program.block_at(l))
            .max_by_key(|b| b.len())
            .expect("a program has at least one block");
        let core = CmsConfig::metablade().core;
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                let atoms = crack_block(&program.insns[block.clone()], core.crack);
                std::hint::black_box(fuse_fma(&atoms));
                std::hint::black_box(schedule_block(&atoms, &core));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.set("crusoe.translate_us_per_block", median(&samples));
    }
}
