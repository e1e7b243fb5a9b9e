//! Host-time profiling, and the one log-bucketed histogram type with
//! percentile queries.
//!
//! [`LogHistogram`] holds every distribution the workspace reports: the
//! host-time `prof/*` profiles, and virtual-time ones too — SLO waits
//! and slowdowns, ready-queue depth. It is also what a metrics
//! [`Registry`](crate::metrics::Registry) stores and exports; there is
//! no second histogram type.
//!
//! Everything else in this crate observes **virtual time** — the
//! simulated machine's clock. The profiling side of this module
//! observes the **host**: where the simulator's own wall-clock cycles
//! go (thread wake-ups, heap operations, busy/idle spans). The two time
//! domains are kept strictly apart by construction: nothing here reads
//! or writes a virtual clock, so attaching profiling to a run can never
//! perturb a simulated outcome (regressed by `tests/determinism.rs`).
//!
//! [`LogHistogram`] is a plain HDR-style histogram: every power-of-two
//! octave is split into 16 log-linear sub-buckets, bounding relative
//! quantile error at ~6.25% while covering `[2⁻³², 2⁴⁰)` in a few KiB
//! of counters. Bucket indices come from the observation's IEEE-754
//! exponent and mantissa bits — no `log2` calls, so bucketing is
//! bit-deterministic on every platform. It has no interior
//! synchronisation: every recorder in the workspace already holds a
//! lock when it records (the executor core's state lock), so the
//! histogram lives behind that lock. Every `prof/*` metric is in host
//! **nanoseconds**.
//!
//! Profiling is opt-in: the executor consults [`enabled_from_env`]
//! (`MB_PROF=1`) unless a caller forces it explicitly, and a disabled
//! profiler allocates nothing.
//!
//! # Example
//!
//! ```
//! use mb_telemetry::prof::LogHistogram;
//! let mut h = LogHistogram::new();
//! for v in 1..=1000 {
//!     h.observe(v as f64);
//! }
//! assert_eq!(h.count(), 1000);
//! // p50 within one log-linear bucket (~6.25%) of the exact median.
//! assert!((h.p50() - 500.0).abs() / 500.0 < 0.07);
//! assert!(h.max() == 1000.0 && h.min() == 1.0);
//! ```

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS`
/// log-linear buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (16 → ≤ 6.25% relative bucket width).
const SUB: usize = 1 << SUB_BITS;
/// Smallest bucketed octave: observations below `2^EXP_MIN` land in
/// bucket 0.
const EXP_MIN: i32 = -32;
/// One past the largest bucketed octave: observations at or above
/// `2^EXP_MAX` land in the last bucket.
const EXP_MAX: i32 = 40;
/// Total bucket count.
const BUCKETS: usize = ((EXP_MAX - EXP_MIN) as usize) * SUB;

/// Bucket index for a strictly positive, finite observation.
fn index_of(v: f64) -> usize {
    debug_assert!(v > 0.0 && v.is_finite());
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023; // subnormals → -1023
    if exp < EXP_MIN {
        return 0;
    }
    if exp >= EXP_MAX {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    ((exp - EXP_MIN) as usize) * SUB + sub
}

/// Inclusive lower edge of bucket `i` (exact: a power of two times a
/// 16th, both representable).
fn bucket_lo(i: usize) -> f64 {
    let exp = EXP_MIN + (i / SUB) as i32;
    let sub = (i % SUB) as f64;
    2f64.powi(exp) * (1.0 + sub / SUB as f64)
}

/// Exclusive upper edge of bucket `i`.
fn bucket_hi(i: usize) -> f64 {
    if i + 1 >= BUCKETS {
        2f64.powi(EXP_MAX)
    } else {
        bucket_lo(i + 1)
    }
}

/// Midpoint representative of bucket `i` (what quantile queries return,
/// clamped to the observed min/max).
fn bucket_mid(i: usize) -> f64 {
    0.5 * (bucket_lo(i) + bucket_hi(i))
}

/// True when `MB_PROF` requests host-time profiling (`1`, `true`, `on`).
pub fn enabled_from_env() -> bool {
    matches!(
        std::env::var("MB_PROF").as_deref().map(str::trim),
        Ok("1") | Ok("true") | Ok("on")
    )
}

/// A log-bucketed histogram over non-negative `f64` observations with
/// percentile queries. See the [module docs](self) for the bucket
/// geometry. Non-finite observations are dropped; observations `<= 0`
/// are counted in a dedicated zero bucket (they have no magnitude to
/// bucket by).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Per-bucket counts, grown on demand (trailing zeros elided).
    counts: Vec<u64>,
    /// Observations `<= 0`.
    zero: u64,
    /// Total observations (including the zero bucket).
    n: u64,
    /// Sum of all observations.
    sum: f64,
    /// Smallest observation (`+inf` when empty).
    min: f64,
    /// Largest observation (`-inf` when empty).
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new() // a derive would zero `min`/`max` instead of ±inf
    }
}

impl LogHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            zero: 0,
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v > 0.0 {
            let i = index_of(v);
            if self.counts.len() <= i {
                self.counts.resize(i + 1, 0);
            }
            self.counts[i] += 1;
        } else {
            self.zero += 1;
        }
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0 < q <= 1`): the representative value of the
    /// bucket holding the `ceil(q·n)`-th smallest observation, clamped
    /// to the observed `[min, max]`. Exact to within one log-linear
    /// bucket (~6.25% relative), which the property tests pin down.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        if rank == self.n {
            return self.max; // p100 is the exact maximum, not a bucket mid
        }
        let mut cum = self.zero;
        if cum >= rank {
            return self.min; // all-zero prefix: the smallest observation
        }
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Merge another histogram into this one (bucket-wise; exact).
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.zero += other.zero;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterate `(bucket_lo, bucket_hi, count)` over occupied buckets
    /// (the zero bucket reported as `(0, 0, count)`).
    pub fn occupied(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let zero = (self.zero > 0).then_some((0.0, 0.0, self.zero));
        zero.into_iter().chain(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64* — the same seeded-loop property-test idiom the rest
    /// of the workspace uses in place of proptest (DESIGN.md §6).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
        fn uniform(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let vals = [
            1e-12, 1e-9, 0.5, 0.9999, 1.0, 1.0625, 2.0, 3.5, 1e3, 1e9, 1e12, 1e15,
        ];
        let mut last = 0;
        for &v in &vals {
            let i = index_of(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(i < BUCKETS);
            last = i;
        }
        // Every bucket contains its own lower edge.
        for i in (0..BUCKETS).step_by(97) {
            assert_eq!(index_of(bucket_lo(i)), i, "bucket {i} lower edge");
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        // Within the clamped range, hi/lo <= 1 + 1/16.
        for i in SUB..BUCKETS - 1 {
            let (lo, hi) = (bucket_lo(i), bucket_hi(i));
            assert!(hi > lo);
            assert!(hi / lo <= 1.0 + 1.0 / SUB as f64 + 1e-12, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_are_within_one_bucket_of_exact_on_seeded_distributions() {
        // Property test: exponential-ish and heavy-tailed seeded
        // samples; the histogram's p50/p90/p99/p999 must land within one
        // log-linear bucket of the exact order statistic.
        for seed in [3u64, 17, 99, 2002] {
            let mut rng = Rng(seed);
            let mut samples: Vec<f64> = Vec::with_capacity(20_000);
            let mut h = LogHistogram::new();
            for k in 0..20_000u64 {
                let u = rng.uniform().max(1e-12);
                // Alternate an exponential(μ=1e4) with a lognormal-ish
                // heavy tail so both body and tail quantiles are probed.
                let v = if k % 2 == 0 {
                    -1e4 * u.ln()
                } else {
                    50.0 / u.sqrt()
                };
                samples.push(v);
                h.observe(v);
            }
            samples.sort_by(f64::total_cmp);
            for q in [0.5, 0.9, 0.99, 0.999] {
                let exact = exact_quantile(&samples, q);
                let est = h.quantile(q);
                let (ei, hi) = (index_of(exact), index_of(est));
                assert!(
                    ei.abs_diff(hi) <= 1,
                    "seed {seed} q={q}: est {est} (bucket {hi}) vs exact {exact} (bucket {ei})"
                );
                // And the relative error is bounded by ~2 bucket widths.
                assert!(
                    (est - exact).abs() / exact < 2.5 / SUB as f64,
                    "seed {seed} q={q}: est {est} vs exact {exact}"
                );
            }
            assert_eq!(h.count(), 20_000);
            assert!((h.mean() - samples.iter().sum::<f64>() / 20_000.0).abs() < 1e-6 * h.mean());
        }
    }

    #[test]
    fn extremes_and_zeros_are_exact() {
        let mut h = LogHistogram::new();
        for v in [0.0, 0.0, 3.0, 7.0, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e9);
        assert_eq!(h.count(), 5);
        // q small enough to land in the zero bucket returns 0.
        assert_eq!(h.quantile(0.2), 0.0);
        // p100 equals the exact max (clamped to the observed range).
        assert_eq!(h.quantile(1.0), 1e9);
        // NaN and negative observations: NaN dropped, negatives counted
        // as zero-bucket entries.
        h.observe(f64::NAN);
        assert_eq!(h.count(), 5);
        h.observe(-1.0);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.occupied().count(), 0);
    }

    #[test]
    fn merge_is_associative_across_sharded_accumulators() {
        // Shard one seeded stream over three histograms, then check
        // that every merge grouping and order produces the same
        // histogram (counts, n, extremes, quantiles) — the contract
        // that makes merge order irrelevant.
        let mut parts = vec![LogHistogram::new(); 3];
        let mut rng = Rng(42);
        for k in 0..9_000usize {
            parts[k % 3].observe(rng.uniform() * 1e6);
        }

        let mut ab_c = parts[0].clone();
        ab_c.merge(&parts[1]);
        ab_c.merge(&parts[2]);

        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut a_bc = parts[0].clone();
        a_bc.merge(&bc);

        let mut cba = parts[2].clone();
        cba.merge(&parts[1]);
        cba.merge(&parts[0]);

        assert_eq!(ab_c.count(), 9_000);
        for other in [&a_bc, &cba] {
            assert_eq!(ab_c.count(), other.count());
            assert_eq!(ab_c.min(), other.min());
            assert_eq!(ab_c.max(), other.max());
            assert!(
                ab_c.occupied().eq(other.occupied()),
                "bucket contents differ between merge orders"
            );
            for q in [0.5, 0.9, 0.99] {
                assert_eq!(ab_c.quantile(q), other.quantile(q), "q={q}");
            }
            // Sums differ only by float re-association.
            assert!((ab_c.sum() - other.sum()).abs() <= 1e-9 * ab_c.sum().abs());
        }
    }

    #[test]
    fn occupied_compacts_to_nonempty_buckets() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(1.5);
        h.observe(1.5);
        h.observe(1e9);
        // The zero bucket plus two occupied log buckets, nothing between.
        let occupied: Vec<_> = h.occupied().collect();
        assert_eq!(occupied.len(), 3);
        assert_eq!(occupied[..2], [(0.0, 0.0, 1), (1.5, 1.5625, 2)]);
        assert_eq!(occupied[2].2, 1);
        assert!(occupied.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(occupied.iter().map(|b| b.2).sum::<u64>(), h.count());
    }

    #[test]
    fn env_gate_parses() {
        // Exercise through the documented contract only (env mutation is
        // process-global; other tests run concurrently).
        for (v, want) in [("1", true), ("true", true), ("on", true), ("0", false)] {
            let got = matches!(v.trim(), "1" | "true" | "on");
            assert_eq!(got, want);
        }
    }
}
