//! IS — parallel sort over small integers.
//!
//! Keys are drawn from the NPB LCG with the specified triangular-ish
//! distribution (average of four uniforms scaled to the key range, which
//! concentrates keys mid-range), then ranked by counting/bucket sort.
//! Verification: the ranks are a permutation and keys are non-decreasing
//! in rank order — the benchmark's own full-verification step.

use mb_crusoe::hardware::OpMix;

use crate::classes::Class;
use crate::common::NpbRng;
use crate::KernelResult;

/// Generate the NPB key sequence: `key = ⌊(u1+u2+u3+u4)/4 · range⌋`.
pub fn generate_keys(n: usize, range: usize) -> Vec<u32> {
    let mut rng = NpbRng::new();
    (0..n)
        .map(|_| {
            let s = rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64();
            ((s / 4.0) * range as f64) as u32
        })
        .collect()
}

/// Counting-sort ranking: `rank[i]` = position of `keys[i]` in the
/// sorted order (stable).
pub fn rank(keys: &[u32], range: usize) -> Vec<u32> {
    let mut counts = vec![0u32; range + 1];
    for &k in keys {
        counts[k as usize] += 1;
    }
    // Exclusive prefix sum.
    let mut total = 0u32;
    for c in counts.iter_mut() {
        let here = *c;
        *c = total;
        total += here;
    }
    let mut ranks = vec![0u32; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        ranks[i] = counts[k as usize];
        counts[k as usize] += 1;
    }
    ranks
}

/// The benchmark's full verification: ranks form a permutation and
/// sorting by rank yields non-decreasing keys.
pub fn verify(keys: &[u32], ranks: &[u32]) -> bool {
    let n = keys.len();
    let mut sorted = vec![u32::MAX; n];
    let mut seen = vec![false; n];
    for (i, &r) in ranks.iter().enumerate() {
        let r = r as usize;
        if r >= n || seen[r] {
            return false;
        }
        seen[r] = true;
        sorted[r] = keys[i];
    }
    sorted.windows(2).all(|w| w[0] <= w[1])
}

/// Run IS at `class`: rank the keys, verify the ranking and report the
/// operation mix.
pub fn run(class: Class) -> KernelResult {
    let (n, range) = class.is_size();
    let keys = generate_keys(n, range);
    // NPB runs 10 ranking iterations; one is representative (the mix
    // below charges the official 10).
    const ITERS: u64 = 10;
    let ranks = rank(&keys, range);
    let verified = verify(&keys, &ranks);
    let nn = n as u64;
    let mix = OpMix {
        // IS is an integer/memory benchmark: keygen is 4 LCG steps +
        // a scale per key; each ranking pass is ~4 touches per key
        // plus the prefix sum over the key range.
        fadd: nn * 4,
        fmul: nn * 5,
        fdiv: 0,
        fsqrt: 0,
        int_ops: ITERS * (nn * 4 + range as u64),
        loads: ITERS * (nn * 3 + range as u64 * 2),
        stores: ITERS * (nn * 2 + range as u64),
        branches: ITERS * nn,
        // NPB counts IS Mops as keys ranked per iteration.
        useful_ops: ITERS * nn,
        // Keys + ranks stream through memory every iteration.
        dram_bytes: ITERS * (nn * 12 + range as u64 * 8),
        fma_fusable: 0.0,
    };
    KernelResult { mix, verified }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_sorts_correctly() {
        let keys = generate_keys(10_000, 1 << 11);
        let ranks = rank(&keys, 1 << 11);
        assert!(verify(&keys, &ranks));
    }

    #[test]
    fn ranking_is_stable() {
        let keys = vec![5, 3, 5, 1, 3];
        let ranks = rank(&keys, 8);
        // Sorted order: 1(idx3), 3(idx1), 3(idx4), 5(idx0), 5(idx2).
        assert_eq!(ranks, vec![3, 1, 4, 0, 2]);
    }

    #[test]
    fn verify_catches_corruption() {
        let keys = generate_keys(1000, 1 << 11);
        let mut ranks = rank(&keys, 1 << 11);
        ranks.swap(0, 1);
        // Swapping two ranks of (almost surely) different keys breaks
        // sortedness.
        if keys[0] != keys[1] {
            assert!(!verify(&keys, &ranks));
        }
        let mut dup = rank(&keys, 1 << 11);
        dup[0] = dup[1];
        assert!(!verify(&keys, &dup), "duplicate ranks must fail");
    }

    #[test]
    fn key_distribution_is_centered() {
        let range = 1 << 11;
        let keys = generate_keys(100_000, range);
        let mean: f64 = keys.iter().map(|&k| k as f64).sum::<f64>() / 100_000.0;
        // Sum of four uniforms/4 has mean 1/2.
        assert!(
            (mean - range as f64 / 2.0).abs() < range as f64 * 0.01,
            "mean {mean}"
        );
        // Mid-range keys are far more common than extremes.
        let mid = keys
            .iter()
            .filter(|&&k| (range as u32 / 4..3 * range as u32 / 4).contains(&k))
            .count();
        assert!(mid > 90_000, "mid-range {mid}");
    }

    #[test]
    fn class_s_verifies() {
        let r = run(Class::S);
        assert!(r.verified);
        assert_eq!(r.mix.fsqrt, 0, "IS has no FP sqrt");
        assert!(r.mix.dram_bytes > 0, "IS is memory-bound");
    }
}
