//! Multipole moments: leaf evaluation, parallel-axis combination, and
//! the two field kernels (point mass; monopole + traceless quadrupole).

use crate::body::Bodies;

/// Compute mass, center of mass and quadrupole of a body range.
pub fn leaf_moments(bodies: &Bodies, start: usize, end: usize) -> (f64, [f64; 3], [f64; 6]) {
    let mut mass = 0.0;
    let mut com = [0.0; 3];
    for i in start..end {
        mass += bodies.mass[i];
        for d in 0..3 {
            com[d] += bodies.mass[i] * bodies.pos[i][d];
        }
    }
    assert!(mass > 0.0, "leaf with non-positive mass");
    for c in &mut com {
        *c /= mass;
    }
    let mut quad = [0.0; 6];
    for i in start..end {
        let m = bodies.mass[i];
        let r = [
            bodies.pos[i][0] - com[0],
            bodies.pos[i][1] - com[1],
            bodies.pos[i][2] - com[2],
        ];
        accumulate_quad(&mut quad, m, r);
    }
    (mass, com, quad)
}

/// Add one point mass's contribution `m (3 rᵢrⱼ − r²δᵢⱼ)` to a packed
/// quadrupole.
pub fn accumulate_quad(quad: &mut [f64; 6], m: f64, r: [f64; 3]) {
    let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
    quad[0] += m * (3.0 * r[0] * r[0] - r2);
    quad[1] += m * (3.0 * r[1] * r[1] - r2);
    quad[2] += m * (3.0 * r[2] * r[2] - r2);
    quad[3] += m * 3.0 * r[0] * r[1];
    quad[4] += m * 3.0 * r[0] * r[2];
    quad[5] += m * 3.0 * r[1] * r[2];
}

/// Combine child moments into a parent: masses add, centers of mass
/// average, and child quadrupoles shift by the parallel-axis theorem
/// (a child at displacement `d` from the parent's center of mass
/// contributes its own Q plus `m (3 ddᵀ − d²I)`).
pub fn combine_moments(children: &[(f64, [f64; 3], [f64; 6])]) -> (f64, [f64; 3], [f64; 6]) {
    let mass: f64 = children.iter().map(|c| c.0).sum();
    assert!(mass > 0.0, "combining massless cells");
    let mut com = [0.0; 3];
    for (m, c, _) in children {
        for d in 0..3 {
            com[d] += m * c[d];
        }
    }
    for c in &mut com {
        *c /= mass;
    }
    let mut quad = [0.0; 6];
    for (m, c, q) in children {
        for k in 0..6 {
            quad[k] += q[k];
        }
        let d = [c[0] - com[0], c[1] - com[1], c[2] - com[2]];
        accumulate_quad(&mut quad, *m, d);
    }
    (mass, com, quad)
}

/// Softened field of a point mass `m` at `src`, felt at `pos` — the p–p
/// kernel. Returns `(acceleration, potential)` for unit G, to be added.
#[inline]
pub fn point_field(m: f64, src: [f64; 3], pos: [f64; 3], eps2: f64) -> ([f64; 3], f64) {
    let d = [src[0] - pos[0], src[1] - pos[1], src[2] - pos[2]];
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2;
    let rinv = 1.0 / r2.sqrt();
    let rinv3 = rinv * rinv * rinv;
    let s = m * rinv3;
    ([s * d[0], s * d[1], s * d[2]], -(m * rinv))
}

/// Evaluate the multipole field of a cell (`mass` at `com`, traceless
/// `quad`) at a point — the p–c kernel. Returns `(acceleration,
/// potential)` for unit G, to be added.
///
/// With `r⃗ = pos − com` and traceless `Q`,
///
/// ```text
/// φ  = −m/r − (r⃗ᵀQr⃗)/(2r⁵)
/// a⃗  = −m r⃗/r³ + Q r⃗/r⁵ − (5/2)(r⃗ᵀQr⃗) r⃗/r⁷
/// ```
///
/// `eps2` is the Plummer softening (applied to the monopole distance; the
/// quadrupole term is only used for well-separated cells where softening
/// is negligible).
///
/// Both kernels are the only place their expressions are written: the
/// order of operations fixes the last bit of every force in the
/// repository.
#[inline]
pub fn multipole_field(
    mass: f64,
    com: [f64; 3],
    q: &[f64; 6],
    pos: [f64; 3],
    eps2: f64,
    use_quadrupole: bool,
) -> ([f64; 3], f64) {
    let r = [pos[0] - com[0], pos[1] - com[1], pos[2] - com[2]];
    let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + eps2;
    let rinv = 1.0 / r2.sqrt();
    let rinv2 = rinv * rinv;
    let rinv3 = rinv * rinv2;
    let mut acc = [
        -mass * r[0] * rinv3,
        -mass * r[1] * rinv3,
        -mass * r[2] * rinv3,
    ];
    let mut pot = -mass * rinv;
    if use_quadrupole {
        // Qr⃗ with packed symmetric Q.
        let qr = [
            q[0] * r[0] + q[3] * r[1] + q[4] * r[2],
            q[3] * r[0] + q[1] * r[1] + q[5] * r[2],
            q[4] * r[0] + q[5] * r[1] + q[2] * r[2],
        ];
        let rqr = r[0] * qr[0] + r[1] * qr[1] + r[2] * qr[2];
        let rinv5 = rinv3 * rinv2;
        let rinv7 = rinv5 * rinv2;
        pot -= 0.5 * rqr * rinv5;
        for d in 0..3 {
            acc[d] += qr[d] * rinv5 - 2.5 * rqr * r[d] * rinv7;
        }
    }
    (acc, pot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_body_system() -> Bodies {
        // Equal masses at ±1 on x: quadrupole is strongly anisotropic.
        let mut b = Bodies::with_capacity(2);
        b.push([1.0, 0.0, 0.0], [0.0; 3], 1.0);
        b.push([-1.0, 0.0, 0.0], [0.0; 3], 1.0);
        b
    }

    #[test]
    fn leaf_moments_of_symmetric_pair() {
        let b = two_body_system();
        let (m, com, q) = leaf_moments(&b, 0, 2);
        assert_eq!(m, 2.0);
        assert_eq!(com, [0.0, 0.0, 0.0]);
        // Q_xx = Σ m(3x² − r²) = 2·(3−1) = 4; Q_yy = Q_zz = −2; trace 0.
        assert!((q[0] - 4.0).abs() < 1e-14);
        assert!((q[1] + 2.0).abs() < 1e-14);
        assert!((q[2] + 2.0).abs() < 1e-14);
        assert_eq!(&q[3..], &[0.0, 0.0, 0.0]);
        assert!((q[0] + q[1] + q[2]).abs() < 1e-13, "traceless");
    }

    #[test]
    fn combine_equals_direct_leaf_moments() {
        // Moments of {a,b,c,d} computed directly must equal combining
        // {a,b} and {c,d}.
        let mut all = Bodies::with_capacity(4);
        all.push([0.1, 0.2, 0.3], [0.0; 3], 1.0);
        all.push([0.9, 0.1, 0.4], [0.0; 3], 2.0);
        all.push([0.4, 0.8, 0.2], [0.0; 3], 3.0);
        all.push([0.2, 0.3, 0.9], [0.0; 3], 0.5);
        let whole = leaf_moments(&all, 0, 4);
        let left = leaf_moments(&all, 0, 2);
        let right = leaf_moments(&all, 2, 4);
        let combined = combine_moments(&[left, right]);
        assert!((combined.0 - whole.0).abs() < 1e-14);
        for d in 0..3 {
            assert!((combined.1[d] - whole.1[d]).abs() < 1e-14, "com {d}");
        }
        for k in 0..6 {
            assert!(
                (combined.2[k] - whole.2[k]).abs() < 1e-12,
                "quad {k}: {} vs {}",
                combined.2[k],
                whole.2[k]
            );
        }
    }

    #[test]
    fn quadrupole_improves_far_field() {
        let b = two_body_system();
        let (m, com, q) = leaf_moments(&b, 0, 2);
        // Exact field at a point on the x axis.
        let p = [5.0, 0.0, 0.0];
        let exact_ax = -1.0 / (4.0f64 * 4.0) - 1.0 / (6.0f64 * 6.0);
        let (mono, _) = multipole_field(m, com, &q, p, 0.0, false);
        let (quad, _) = multipole_field(m, com, &q, p, 0.0, true);
        let e_mono = (mono[0] - exact_ax).abs();
        let e_quad = (quad[0] - exact_ax).abs();
        assert!(
            e_quad < e_mono / 5.0,
            "quadrupole must sharpen the estimate: {e_quad} vs {e_mono}"
        );
    }

    #[test]
    fn monopole_points_at_com_with_inverse_square() {
        let (acc, pot) = multipole_field(4.0, [0.0; 3], &[0.0; 6], [2.0, 0.0, 0.0], 0.0, true);
        assert!((acc[0] + 1.0).abs() < 1e-14); // −Gm/r² = −4/4
        assert_eq!(acc[1], 0.0);
        assert!((pot + 2.0).abs() < 1e-14); // −m/r
    }
}
