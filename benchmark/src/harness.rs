//! Run discipline shared by every workload: CPU pinning, peak memory,
//! medians, the seeded input generator, counted output checks, and the
//! `Workload` interface the runner drives.

use std::collections::BTreeMap;

use crate::trace::Tracer;

// ---------------------------------------------------------------------
// CPU pinning
// ---------------------------------------------------------------------

/// CPU-affinity control. On this 2-core shared box the same 24-rank
/// allreduce ran at 158–168 k events/s unpinned and 996 k–1 059 k under
/// `taskset -c 0`: unpinned numbers mostly measure cross-core futex
/// hand-offs, so every workload pins itself to one CPU before it spawns
/// a thread (threads inherit the mask).
#[cfg(target_os = "linux")]
pub mod affinity {
    // std already links libc; declaring the two calls avoids a
    // dependency the offline container cannot fetch.
    extern "C" {
        fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
    }

    /// 1024 CPUs, the kernel's default `cpu_set_t`.
    const WORDS: usize = 16;

    /// The calling thread's allowed-CPU mask.
    #[derive(Debug, Clone, Copy)]
    pub struct Mask([u64; WORDS]);

    impl Mask {
        pub fn current() -> Option<Mask> {
            let mut m = [0u64; WORDS];
            // SAFETY: `m` is a live, writable buffer of exactly the
            // byte length passed; pid 0 names the calling thread.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
            (rc == 0).then_some(Mask(m))
        }

        /// Restrict the calling thread (and threads it spawns later) to
        /// this mask. True on success.
        pub fn apply(&self) -> bool {
            // SAFETY: the pointer covers `size_of_val(&self.0)` readable
            // bytes; the call only reads the mask.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
        }

        /// The highest-numbered allowed CPU alone (CPU 0 tends to take
        /// the interrupts), or `None` for an empty mask.
        pub fn highest_only(&self) -> Option<(usize, Mask)> {
            let (w, word) = self.0.iter().enumerate().rev().find(|(_, &x)| x != 0)?;
            let bit = 63 - word.leading_zeros() as usize;
            let mut m = [0u64; WORDS];
            m[w] = 1 << bit;
            Some((w * 64 + bit, Mask(m)))
        }
    }
}

/// The affinity the process started with and the CPU it was pinned to.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// `(original mask, one-CPU mask)` when pinning succeeded.
    #[cfg(target_os = "linux")]
    masks: Option<(affinity::Mask, affinity::Mask)>,
    pub cpu: Option<usize>,
}

impl Pin {
    /// Pin the calling thread to one allowed CPU. Must run before any
    /// thread is spawned.
    pub fn to_one_cpu() -> Pin {
        #[cfg(target_os = "linux")]
        {
            let pinned = affinity::Mask::current().and_then(|original| {
                let (cpu, one) = original.highest_only()?;
                one.apply().then_some((cpu, (original, one)))
            });
            Pin {
                cpu: pinned.map(|(cpu, _)| cpu),
                masks: pinned.map(|(_, masks)| masks),
            }
        }
        #[cfg(not(target_os = "linux"))]
        Pin { cpu: None }
    }

    pub fn pinned(&self) -> bool {
        self.cpu.is_some()
    }

    /// Run `f` with the original affinity restored, then pin again.
    pub fn unpinned<R>(&self, f: impl FnOnce() -> R) -> R {
        #[cfg(target_os = "linux")]
        {
            let Some((original, one)) = self.masks else {
                return f();
            };
            original.apply();
            let r = f();
            one.apply();
            r
        }
        #[cfg(not(target_os = "linux"))]
        f()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Statistics and input generation
// ---------------------------------------------------------------------

/// Median of the samples (mean of the middle two for an even count).
/// With at most a few dozen repeats per run no higher percentile has
/// ten samples beyond it, so none is reported.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The lower quartile of the samples: the value a quarter of the way up
/// the sorted list.
///
/// `units_per_s` is taken at the lower-quartile repeat time and
/// `setup_s` at the lower-quartile set-up, not at the medians. On this shared two-core VM the host itself drifts by tens of
/// percent for seconds at a time (a pure spin loop shows it), and that
/// interference only ever slows a repeat down; over ten runs of each
/// workload the lower quartile of a run's repeats spread 0.7–5 % where
/// the median spread 2.5–8 %. The median is printed beside it.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "quartile of nothing");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 4]
}

/// SplitMix64: the benchmark's own seeded generator for inputs the
/// crates do not generate themselves (node pairs, Poisson gaps, kernel
/// sources). The program only ever sees the generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/// Output checks, counted: `failed / attempted` is the run's
/// `failed_checks`, reported as the result line's `failed` and
/// `attempted`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if ok {
            println!("  check ok    {name}");
        } else {
            self.failed += 1;
            println!("  check FAIL  {name}: {}", detail());
        }
    }
}

// ---------------------------------------------------------------------
// What a repeat reports
// ---------------------------------------------------------------------

/// One timed call group inside a repeat.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: &'static str,
    /// Host seconds inside the program's calls.
    pub secs: f64,
    /// Units of simulated work the calls performed.
    pub units: u64,
}

/// A simulated quantity or exact counter: must repeat bit for bit
/// across repeats, between the traced and the untraced run, and across
/// commits under a perf-only change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exact {
    Count(u64),
    /// Compared by bit pattern.
    Float(f64),
    /// An outcome fingerprint: compared, never emitted as a metric.
    Hash(u64),
}

impl Exact {
    pub fn bits(&self) -> u64 {
        match *self {
            Exact::Count(c) | Exact::Hash(c) => c,
            Exact::Float(f) => f.to_bits(),
        }
    }

    pub fn value(&self) -> Option<f64> {
        match *self {
            Exact::Count(c) => Some(c as f64),
            Exact::Float(f) => Some(f),
            Exact::Hash(_) => None,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Repeat {
    pub cases: Vec<Case>,
    /// Keyed by per-layer metric name where one exists.
    pub exact: BTreeMap<String, Exact>,
    /// Host-side counters that may differ between runs (executor
    /// admissions and the like), keyed by per-layer metric name.
    pub counters: BTreeMap<String, f64>,
}

impl Repeat {
    pub fn case(&mut self, name: &'static str, secs: f64, units: u64) {
        self.cases.push(Case { name, secs, units });
    }

    pub fn count(&mut self, name: &str, v: u64) {
        self.exact.insert(name.to_string(), Exact::Count(v));
    }

    pub fn float(&mut self, name: &str, v: f64) {
        self.exact.insert(name.to_string(), Exact::Float(v));
    }

    pub fn hash(&mut self, name: &str, v: u64) {
        self.exact.insert(name.to_string(), Exact::Hash(v));
    }

    pub fn secs(&self) -> f64 {
        self.cases.iter().map(|c| c.secs).sum()
    }

    pub fn units(&self) -> u64 {
        self.cases.iter().map(|c| c.units).sum()
    }

    /// Names whose exact values differ from `other`'s.
    pub fn exact_diff(&self, other: &Repeat) -> Vec<String> {
        let mut names: Vec<&String> = self.exact.keys().chain(other.exact.keys()).collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .filter(|n| self.exact.get(*n).map(Exact::bits) != other.exact.get(*n).map(Exact::bits))
            .cloned()
            .collect()
    }
}

/// What the untraced repeats of a run established, handed to
/// [`Workload::layers`] so per-layer rates come from untraced timings.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Per case name: median host seconds, and units (identical in
    /// every repeat).
    cases: BTreeMap<&'static str, (f64, u64)>,
}

impl Untraced {
    pub fn from_repeats(reps: &[Repeat]) -> Self {
        let mut by_case: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
        for c in reps.iter().flat_map(|r| &r.cases) {
            let entry = by_case.entry(c.name).or_default();
            entry.0.push(c.secs);
            entry.1 = c.units;
        }
        Untraced {
            cases: by_case
                .into_iter()
                .map(|(name, (secs, units))| (name, (median(&secs), units)))
                .collect(),
        }
    }

    pub fn secs(&self, case: &str) -> f64 {
        self.cases.get(case).map_or(0.0, |c| c.0)
    }

    pub fn units(&self, case: &str) -> u64 {
        self.cases.get(case).map_or(0, |c| c.1)
    }

    /// Host nanoseconds per unit of the case's simulated work.
    pub fn ns_per_unit(&self, case: &str) -> f64 {
        ratio(self.secs(case) * 1e9, self.units(case) as f64)
    }
}

/// `a / b`, 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metric values a run produced, by declared name.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }
}

/// Workload sizes: the pinned full sizes, or `--smoke` sizes that run
/// every code path of every workload in about five seconds altogether.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One benchmark workload. Constructing it is the set-up (input
/// generation, calibration, program building); the runner adds one
/// warm-up [`Workload::repeat`] to that when it reports `setup_s`.
pub trait Workload {
    /// Unit of `units_per_s`, for the report.
    fn unit(&self) -> &'static str;

    /// Do the workload's work once. With `tr` enabled the same calls
    /// run under spans and through the benchmark's timing wrappers.
    fn repeat(&mut self, tr: &mut Tracer) -> Repeat;

    /// Check the program's outputs; each check is attempted once per run.
    fn checks(&mut self, checks: &mut Checks);

    /// The workload's per-layer metrics: direct probes of the layers it
    /// exercises, rates from the untraced medians, and boundary costs
    /// from the traced repeat's spans.
    fn layers(&mut self, untraced: &Untraced, tr: &Tracer, pin: &Pin, out: &mut Metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow outlier does not move it.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 40.0]), 1.0);
    }

    #[test]
    fn lower_quartile_ignores_the_slow_tail() {
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        let mut secs: Vec<f64> = (0..20).map(|i| 1.0 + 0.01 * f64::from(i)).collect();
        let quiet = lower_quartile(&secs);
        // Interference slows the upper half by 40 %: no change.
        for s in secs.iter_mut().skip(10) {
            *s *= 1.4;
        }
        assert_eq!(lower_quartile(&secs), quiet);
        assert!(median(&secs) > quiet);
    }

    #[test]
    fn untraced_reports_the_median_per_case_over_all_repeats() {
        let reps: Vec<Repeat> = [1.0, 9.0, 2.0]
            .iter()
            .map(|&s| {
                let mut r = Repeat::default();
                r.case("a", s, 10);
                r.case("b", 2.0 * s, 4);
                r
            })
            .collect();
        let u = Untraced::from_repeats(&reps);
        assert_eq!(u.secs("a"), 2.0);
        assert_eq!(u.secs("b"), 4.0);
        assert_eq!(u.units("b"), 4);
        assert_eq!(u.ns_per_unit("a"), 2.0e8);
        assert_eq!(u.ns_per_unit("missing"), 0.0);
    }

    #[test]
    fn exact_values_compare_by_bits_and_report_the_differing_names() {
        let mut a = Repeat::default();
        a.count("n", 3);
        a.float("x", 0.1 + 0.2);
        a.hash("fp", 7);
        let mut b = a.clone();
        assert!(a.exact_diff(&b).is_empty());
        b.float("x", 0.3); // differs from 0.1 + 0.2 in the last bit
        b.exact.remove("fp");
        assert_eq!(a.exact_diff(&b), ["fp", "x"]);
        assert_eq!(Exact::Hash(7).value(), None);
        assert_eq!(Exact::Count(7).value(), Some(7.0));
    }

    #[test]
    fn rng_is_seeded_and_stays_in_range() {
        let mut a = Rng::new(2002);
        let mut b = Rng::new(2002);
        let mut c = Rng::new(1999);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1_000 {
            let u = a.unit();
            assert!(u > 0.0 && u < 1.0);
            assert!(a.below(7) < 7);
        }
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check("fine", true, String::new);
        c.check("broken", false, || "why".to_string());
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_one_cpu_and_unpinned_restores_the_original_mask() {
        // Affinity is per thread: this test's thread only.
        let before = affinity::Mask::current().expect("affinity is readable");
        let pin = Pin::to_one_cpu();
        assert!(pin.pinned());
        let (cpu, _) = affinity::Mask::current().unwrap().highest_only().unwrap();
        assert_eq!(Some(cpu), pin.cpu);
        let inside = pin.unpinned(|| affinity::Mask::current().unwrap());
        assert_eq!(format!("{inside:?}"), format!("{before:?}"));
        before.apply();
    }
}
