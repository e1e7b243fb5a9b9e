//! O(N²) direct summation — the accuracy baseline every treecode result
//! is validated against, and the Gordon-Bell-era comparison algorithm.

use crate::body::Bodies;
use crate::flops::{InteractionCounts, FLOPS_PP};
use crate::moments::point_field;

/// Compute exact (softened) gravitational accelerations and potentials
/// for all bodies, writing into `bodies.acc` / `bodies.pot`. Returns the
/// interaction counts. Unit G.
pub fn direct_forces(bodies: &mut Bodies, eps2: f64) -> InteractionCounts {
    let n = bodies.len();
    let pos = &bodies.pos;
    let mass = &bodies.mass;
    let results: Vec<([f64; 3], f64)> = (0..n)
        .map(|i| {
            let mut acc = [0.0; 3];
            let mut pot = 0.0;
            let pi = pos[i];
            for j in 0..n {
                if j == i {
                    continue;
                }
                let (a, p) = point_field(mass[j], pos[j], pi, eps2);
                acc[0] += a[0];
                acc[1] += a[1];
                acc[2] += a[2];
                pot += p;
            }
            (acc, pot)
        })
        .collect();
    for (i, (a, p)) in results.into_iter().enumerate() {
        bodies.acc[i] = a;
        bodies.pot[i] = p;
    }
    let pairs = (n as u64) * (n as u64 - 1);
    InteractionCounts { pp: pairs, pc: 0 }
}

/// Flops of a full direct step (for perf comparisons).
pub fn direct_flops(n: usize) -> u64 {
    (n as u64) * (n as u64 - 1) * FLOPS_PP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_body_forces_are_newtonian() {
        let mut b = Bodies::with_capacity(2);
        b.push([0.0, 0.0, 0.0], [0.0; 3], 2.0);
        b.push([2.0, 0.0, 0.0], [0.0; 3], 1.0);
        let counts = direct_forces(&mut b, 0.0);
        assert_eq!(counts.pp, 2);
        // Body 0 pulled toward +x by m=1 at distance 2: a = 1/4.
        assert!((b.acc[0][0] - 0.25).abs() < 1e-15);
        // Body 1 pulled toward −x by m=2: a = −2/4.
        assert!((b.acc[1][0] + 0.5).abs() < 1e-15);
        // Newton's third law on momenta: m0·a0 = −m1·a1.
        assert!((2.0 * b.acc[0][0] + 1.0 * b.acc[1][0]).abs() < 1e-15);
        // Potentials: φ0 = −1/2, φ1 = −2/2.
        assert!((b.pot[0] + 0.5).abs() < 1e-15);
        assert!((b.pot[1] + 1.0).abs() < 1e-15);
    }

    #[test]
    fn momentum_is_conserved_in_bigger_systems() {
        let mut b = crate::ic::uniform_cube(100, 1.0, 3);
        direct_forces(&mut b, 1e-6);
        let mut f = [0.0; 3];
        for i in 0..b.len() {
            for d in 0..3 {
                f[d] += b.mass[i] * b.acc[i][d];
            }
        }
        for d in 0..3 {
            assert!(f[d].abs() < 1e-9, "net force {d} = {}", f[d]);
        }
    }

    #[test]
    fn softening_caps_close_encounters() {
        let mut b = Bodies::with_capacity(2);
        b.push([0.0; 3], [0.0; 3], 1.0);
        b.push([1e-9, 0.0, 0.0], [0.0; 3], 1.0);
        direct_forces(&mut b, 1e-4);
        // Without softening this would be ~1e18; with eps²=1e-4 it is
        // bounded by eps⁻² = 1e4... times the tiny dx ⇒ ≈ 1e-9/1e-6.
        assert!(b.acc[0][0].abs() < 1.0, "{}", b.acc[0][0]);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(direct_flops(10), 90 * 38);
    }
}
