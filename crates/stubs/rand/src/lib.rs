//! Offline stand-in for the `rand` crate (0.9 API subset).
//!
//! The build container has no crate registry, so the workspace vendors
//! the small surface it uses: a seedable [`rngs::StdRng`], `random::<f64>()`
//! uniform in `[0, 1)`, and `random_range` over integer ranges. The
//! generator is xoshiro256** seeded through SplitMix64 — a different
//! stream than crates-io `StdRng` (ChaCha12), but every consumer in this
//! repo only requires *determinism for a fixed seed*, which this
//! provides bit-for-bit on every host.

#![forbid(unsafe_code)]

/// Seedable generators (mirrors `rand::rngs`).
pub mod rngs {
    /// The workspace's standard deterministic generator: xoshiro256**.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

/// Construction from seeds (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into four non-zero words.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        StdRng { s }
    }
}

impl StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A type samplable uniformly from an RNG (stand-in for the
/// `StandardUniform` distribution).
pub trait Standard: Sized {
    /// Draw one uniform sample.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    fn sample(rng: &mut StdRng) -> f64 {
        // 53 mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// An integer type `random_range` accepts.
pub trait RangeInt: Copy + PartialOrd {
    /// Widen to u64 (all workspace uses are unsigned and small).
    fn to_u64(self) -> u64;
    /// Narrow from u64 (value is guaranteed in range).
    fn from_u64(v: u64) -> Self;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            fn to_u64(self) -> u64 { self as u64 }
            fn from_u64(v: u64) -> Self { v as $t }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize);

/// A range usable with [`Rng::random_range`] (half-open or inclusive).
pub trait SampleRange<T> {
    /// Bounds as `(low, high_inclusive)`.
    fn bounds(&self) -> (T, T);
}

impl<T: RangeInt> SampleRange<T> for std::ops::Range<T> {
    fn bounds(&self) -> (T, T) {
        assert!(self.start < self.end, "empty range");
        (
            self.start,
            T::from_u64(self.end.to_u64().checked_sub(1).expect("empty range")),
        )
    }
}

impl<T: RangeInt> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn bounds(&self) -> (T, T) {
        assert!(self.start() <= self.end(), "empty range");
        (*self.start(), *self.end())
    }
}

/// The sampling methods (mirrors `rand::Rng`).
pub trait Rng {
    /// Uniform sample of `T`'s full distribution (`f64` → `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T;

    /// Uniform integer in `range` (half-open or inclusive).
    fn random_range<T: RangeInt, R: SampleRange<T>>(&mut self, range: R) -> T;
}

impl Rng for StdRng {
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn random_range<T: RangeInt, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.bounds();
        let (lo64, hi64) = (lo.to_u64(), hi.to_u64());
        let span = hi64 - lo64 + 1; // never 0: bounds() rejects empty ranges
                                    // Debiased multiply-shift (Lemire): uniform over [0, span).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        T::from_u64(lo64 + (m >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn f64_samples_live_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v: f64 = rng.random();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ranges_cover_bounds_and_stay_inside() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[rng.random_range(0..3usize)] = true;
        }
        assert_eq!(seen, [true; 3]);
        for _ in 0..200 {
            let v = rng.random_range(2..=12u32);
            assert!((2..=12).contains(&v));
        }
    }
}
