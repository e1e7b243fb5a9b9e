//! EP — the embarrassingly parallel benchmark.
//!
//! Generate `2^M` uniform pairs from the NPB LCG, map each to the unit
//! square `(-1,1)²`, and apply the Marsaglia polar method: accept pairs
//! with `t = x² + y² ≤ 1`, produce the Gaussian deviates
//! `x·sqrt(−2 ln t / t)`, `y·sqrt(−2 ln t / t)`, accumulate the sums of
//! deviates and the counts of deviates falling in each square annulus
//! `l ≤ max(|X|,|Y|) < l+1`. Verification: acceptance statistics and the
//! invariance of the sums under blocked vs. streamed generation.

use mb_crusoe::hardware::OpMix;

use crate::classes::Class;
use crate::common::NpbRng;
use crate::KernelResult;

/// Raw EP outputs (exposed for the distributed-consistency tests).
#[derive(Debug, Clone, PartialEq)]
pub struct EpOutput {
    /// Σ of X deviates.
    pub sx: f64,
    /// Σ of Y deviates.
    pub sy: f64,
    /// Annulus counts `q[0..10]`.
    pub q: [u64; 10],
    /// Gaussian pairs produced.
    pub accepted: u64,
}

/// Run the pair generation over `[start, end)` pair indices of the
/// global stream (the MPI decomposition splits this range; `jump`
/// gives each rank its substream).
pub fn generate(range_start: u64, range_end: u64) -> EpOutput {
    let mut rng = NpbRng::new();
    rng.jump(2 * range_start);
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut q = [0u64; 10];
    let mut accepted = 0;
    for _ in range_start..range_end {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let gx = x * f;
            let gy = y * f;
            sx += gx;
            sy += gy;
            let l = (gx.abs().max(gy.abs())) as usize;
            q[l.min(9)] += 1;
            accepted += 1;
        }
    }
    EpOutput {
        sx,
        sy,
        q,
        accepted,
    }
}

/// Run EP at `class` over its `2^M` pairs: verify the acceptance
/// statistics and report the operation mix.
pub fn run(class: Class) -> KernelResult {
    let n = 1u64 << class.ep_log2_pairs();
    let out = generate(0, n);
    // Verification: π/4 acceptance within sampling tolerance, and all
    // accepted pairs accounted for in the annuli.
    let acc_frac = out.accepted as f64 / n as f64;
    let q_total: u64 = out.q.iter().sum();
    let verified = (acc_frac - std::f64::consts::FRAC_PI_4).abs() < 1e-3 && q_total == out.accepted;
    // Operation mix per pair: 2 LCG steps (integer multiply + mask +
    // scale ≈ 2 int ops + 1 fmul each), 2 fma-able scale-shifts,
    // t (2 mul + 1 add), compare; accepted pairs add ln+sqrt
    // (charged as 1 fdiv + 1 fsqrt + ~8 fp ops for the libm ln) and
    // the accumulation.
    let acc = out.accepted;
    let mix = OpMix {
        fadd: n * 3 + acc * 6,
        fmul: n * 7 + acc * 6,
        fdiv: acc,
        fsqrt: acc,
        int_ops: n * 6,
        loads: n,
        stores: acc,
        branches: n,
        // NPB's official Mop count for EP is the pair count
        // (operations ≡ random pairs).
        useful_ops: n,
        dram_bytes: 0, // fits in cache: pure compute
        fma_fusable: 0.3,
    };
    KernelResult { mix, verified }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_matches_pi_over_4() {
        let out = generate(0, 1 << 18);
        let frac = out.accepted as f64 / (1 << 18) as f64;
        assert!(
            (frac - std::f64::consts::FRAC_PI_4).abs() < 5e-3,
            "acceptance {frac}"
        );
    }

    #[test]
    fn deviates_are_standard_normal_ish() {
        let out = generate(0, 1 << 18);
        let n = out.accepted as f64;
        // Means near zero (each deviate is N(0,1); Σ/n → 0 at ~n^-1/2).
        assert!((out.sx / n).abs() < 0.02, "mean x {}", out.sx / n);
        assert!((out.sy / n).abs() < 0.02, "mean y {}", out.sy / n);
        // Nearly all deviates in |·| < 4.
        let tail: u64 = out.q[4..].iter().sum();
        assert!((tail as f64) < 0.001 * n, "tail {tail}");
    }

    #[test]
    fn blocked_generation_reproduces_the_stream() {
        // The MPI decomposition property: two half-ranges equal the whole.
        let whole = generate(0, 10_000);
        let a = generate(0, 5_000);
        let b = generate(5_000, 10_000);
        assert_eq!(whole.accepted, a.accepted + b.accepted);
        assert!((whole.sx - (a.sx + b.sx)).abs() < 1e-9);
        assert!((whole.sy - (a.sy + b.sy)).abs() < 1e-9);
        for l in 0..10 {
            assert_eq!(whole.q[l], a.q[l] + b.q[l]);
        }
    }

    #[test]
    fn class_s_verifies() {
        let r = run(Class::S);
        assert!(r.verified);
        assert!(r.mix.useful_ops == 1 << 24);
        assert!(r.mix.fsqrt > 0);
    }
}
