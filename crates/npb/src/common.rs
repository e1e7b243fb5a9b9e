//! NPB common infrastructure: the specified linear congruential generator,
//! and the SplitMix64 hash the synthetic BT / SP / LU operators draw
//! their coefficients from.
//!
//! The NPB pseudorandom stream is `x_{k+1} = a·x_k mod 2^46` with
//! `a = 5^13 = 1220703125` and default seed `271828183`, returning
//! uniform doubles `x_k · 2^-46 ∈ (0, 1)`. The benchmarks depend on this
//! exact generator (EP's verification sums are defined over it), so it is
//! implemented here rather than substituting `rand`.

/// The NPB multiplier, 5¹³.
pub const A: u64 = 1_220_703_125;

/// The NPB default seed.
pub const SEED: u64 = 271_828_183;

const MOD_MASK: u64 = (1 << 46) - 1;
const R46: f64 = 1.0 / (1u64 << 46) as f64;

/// The NPB linear congruential generator.
///
/// ```
/// use mb_npb::common::NpbRng;
/// let mut a = NpbRng::new();
/// let mut b = NpbRng::new();
/// b.jump(100); // rank offset
/// for _ in 0..100 { a.next_f64(); }
/// assert_eq!(a.state, b.state);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NpbRng {
    /// Current state `x_k` (46 bits).
    pub state: u64,
}

impl NpbRng {
    /// Start from the NPB default seed.
    pub fn new() -> Self {
        Self { state: SEED }
    }

    /// Start from a specific seed (must be odd and < 2^46 for full period).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            state: seed & MOD_MASK,
        }
    }

    /// `randlc`: advance once, return a uniform double in (0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 46-bit modular product fits in u128 exactly.
        self.state = ((self.state as u128 * A as u128) & MOD_MASK as u128) as u64;
        self.state as f64 * R46
    }

    /// Fill a slice (`vranlc`).
    pub fn fill(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.next_f64();
        }
    }

    /// Jump the generator ahead by `n` steps in O(log n) (the NPB
    /// `ipow46`-based seed arithmetic used to give each MPI rank a
    /// disjoint substream).
    pub fn jump(&mut self, n: u64) {
        let mut mult = A as u128;
        let mut k = n;
        let mut state = self.state as u128;
        while k > 0 {
            if k & 1 == 1 {
                state = (state * mult) & MOD_MASK as u128;
            }
            mult = (mult * mult) & MOD_MASK as u128;
            k >>= 1;
        }
        self.state = state as u64;
    }
}

impl Default for NpbRng {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 — the procedural coefficient generator of BT, SP and LU
/// (no storage: class-A LU would otherwise need hundreds of MB of
/// Jacobians).
#[inline]
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The top 53 bits of a hash as a double in `[0, 1)`.
#[inline]
pub(crate) fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_in_unit_interval_and_deterministic() {
        let mut a = NpbRng::new();
        let mut b = NpbRng::new();
        for _ in 0..10_000 {
            let x = a.next_f64();
            assert!(x > 0.0 && x < 1.0);
            assert_eq!(x, b.next_f64());
        }
    }

    #[test]
    fn known_first_value() {
        // x_1 = (271828183 · 1220703125) mod 2^46, exactly.
        let mut r = NpbRng::new();
        let x = r.next_f64();
        let expect = ((SEED as u128 * A as u128) & ((1u128 << 46) - 1)) as u64;
        assert_eq!(r.state, expect);
        assert_eq!(x, expect as f64 / (1u64 << 46) as f64);
    }

    #[test]
    fn jump_matches_stepping() {
        let mut stepped = NpbRng::new();
        for _ in 0..12_345 {
            stepped.next_f64();
        }
        let mut jumped = NpbRng::new();
        jumped.jump(12_345);
        assert_eq!(stepped.state, jumped.state);
    }

    #[test]
    fn jump_zero_is_identity() {
        let mut r = NpbRng::with_seed(99_999_999_999);
        let before = r.state;
        r.jump(0);
        assert_eq!(r.state, before);
    }

    #[test]
    fn mean_is_about_half() {
        let mut r = NpbRng::new();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn disjoint_substreams_via_jump() {
        // Rank k starting at jump(k·n) must continue exactly where rank
        // k−1's n draws ended.
        let n = 1000u64;
        let mut whole = NpbRng::new();
        let whole_vals: Vec<f64> = (0..2 * n).map(|_| whole.next_f64()).collect();
        let mut rank1 = NpbRng::new();
        rank1.jump(n);
        let rank1_vals: Vec<f64> = (0..n).map(|_| rank1.next_f64()).collect();
        assert_eq!(&whole_vals[n as usize..], &rank1_vals[..]);
    }
}
