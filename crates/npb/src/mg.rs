//! MG — V-cycle multigrid for the 3-D scalar Poisson equation on a
//! periodic cube.
//!
//! The NPB MG operators are symmetric 27-point stencils defined by four
//! coefficients (center, face, edge, corner):
//!
//! * `A`  — the discrete Laplacian-like operator `[-8/3, 0, 1/6, 1/12]`;
//! * `S`  — the smoother `[-3/8, 1/32, -1/64, 0]`;
//! * `Q`  — full-weighting restriction `[1/2, 1/4, 1/8, 1/16]`;
//! * `P`  — trilinear prolongation.
//!
//! The right-hand side is ±1 at twenty points drawn from the NPB LCG;
//! verification checks that V-cycles contract the residual norm.

use mb_crusoe::hardware::OpMix;

use crate::classes::Class;
use crate::common::NpbRng;
use crate::KernelResult;

/// Stencil coefficients: (center, face, edge, corner).
pub type Stencil = [f64; 4];

/// The NPB `A` operator.
pub const STENCIL_A: Stencil = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];
/// The NPB smoother `S`.
pub const STENCIL_S: Stencil = [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0];
/// The NPB full-weighting restriction `Q`.
pub const STENCIL_Q: Stencil = [1.0 / 2.0, 1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0];

/// A periodic cubic grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Edge length (power of two).
    pub n: usize,
    /// Row-major values, `n³` of them.
    pub data: Vec<f64>,
}

impl Grid {
    /// Zero-filled grid.
    pub fn zeros(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "grid edge must be a power of two ≥ 2"
        );
        Grid {
            n,
            data: vec![0.0; n * n * n],
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n + j) * self.n + k
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        (self.data.iter().map(|x| x * x).sum::<f64>() / self.data.len() as f64).sqrt()
    }
}

/// Apply a 27-point symmetric stencil (periodic): `out = stencil(u)`.
pub fn apply_stencil(c: &Stencil, u: &Grid, out: &mut Grid) {
    let n = u.n;
    assert_eq!(out.n, n);
    let up = |i: usize| (i + 1) % n;
    let dn = |i: usize| (i + n - 1) % n;
    for i in 0..n {
        let (im, ip) = (dn(i), up(i));
        for j in 0..n {
            let (jm, jp) = (dn(j), up(j));
            for k in 0..n {
                let (km, kp) = (dn(k), up(k));
                let g = |a: usize, b: usize, d: usize| u.data[u.idx(a, b, d)];
                let center = g(i, j, k);
                let faces = g(im, j, k)
                    + g(ip, j, k)
                    + g(i, jm, k)
                    + g(i, jp, k)
                    + g(i, j, km)
                    + g(i, j, kp);
                let edges = g(im, jm, k)
                    + g(im, jp, k)
                    + g(ip, jm, k)
                    + g(ip, jp, k)
                    + g(im, j, km)
                    + g(im, j, kp)
                    + g(ip, j, km)
                    + g(ip, j, kp)
                    + g(i, jm, km)
                    + g(i, jm, kp)
                    + g(i, jp, km)
                    + g(i, jp, kp);
                let corners = g(im, jm, km)
                    + g(im, jm, kp)
                    + g(im, jp, km)
                    + g(im, jp, kp)
                    + g(ip, jm, km)
                    + g(ip, jm, kp)
                    + g(ip, jp, km)
                    + g(ip, jp, kp);
                let at = out.idx(i, j, k);
                out.data[at] = c[0] * center + c[1] * faces + c[2] * edges + c[3] * corners;
            }
        }
    }
}

/// Full-weighting restriction to the half-resolution grid.
pub fn restrict(fine: &Grid) -> Grid {
    let mut weighted = Grid::zeros(fine.n);
    apply_stencil(&STENCIL_Q, fine, &mut weighted);
    let nc = fine.n / 2;
    let mut coarse = Grid::zeros(nc);
    for i in 0..nc {
        for j in 0..nc {
            for k in 0..nc {
                let at = coarse.idx(i, j, k);
                coarse.data[at] = weighted.data[weighted.idx(2 * i, 2 * j, 2 * k)];
            }
        }
    }
    coarse
}

/// Trilinear prolongation: add the coarse correction to the fine grid.
pub fn prolong_add(coarse: &Grid, fine: &mut Grid) {
    let nc = coarse.n;
    let n = fine.n;
    assert_eq!(n, 2 * nc);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                // Trilinear weights from the (at most 8) enclosing
                // coarse points.
                let (ci, fi) = (i / 2, i % 2);
                let (cj, fj) = (j / 2, j % 2);
                let (ck, fk) = (k / 2, k % 2);
                let mut v = 0.0;
                for (di, wi) in [(0usize, 1.0 - 0.5 * fi as f64), (1, 0.5 * fi as f64)] {
                    if wi == 0.0 {
                        continue;
                    }
                    for (dj, wj) in [(0usize, 1.0 - 0.5 * fj as f64), (1, 0.5 * fj as f64)] {
                        if wj == 0.0 {
                            continue;
                        }
                        for (dk, wk) in [(0usize, 1.0 - 0.5 * fk as f64), (1, 0.5 * fk as f64)] {
                            if wk == 0.0 {
                                continue;
                            }
                            let a = (ci + di) % nc;
                            let b = (cj + dj) % nc;
                            let c = (ck + dk) % nc;
                            v += wi * wj * wk * coarse.data[coarse.idx(a, b, c)];
                        }
                    }
                }
                fine.data[(i * n + j) * n + k] += v;
            }
        }
    }
}

/// `r = v − A·u`.
pub fn residual(v: &Grid, u: &Grid, r: &mut Grid) {
    apply_stencil(&STENCIL_A, u, r);
    for (rv, (vv, _)) in r.data.iter_mut().zip(v.data.iter().zip(0..)) {
        *rv = *vv - *rv;
    }
}

/// One V-cycle on `u` for `A·u = v`; returns stencil applications done
/// (for op accounting).
pub fn vcycle(u: &mut Grid, v: &Grid) -> u64 {
    let mut stencil_apps = 0;
    let n = u.n;
    if n <= 4 {
        // Coarsest: one smoother application to the RHS.
        let mut s = Grid::zeros(n);
        apply_stencil(&STENCIL_S, v, &mut s);
        for (uv, sv) in u.data.iter_mut().zip(&s.data) {
            *uv += sv;
        }
        return 1;
    }
    // Pre-smooth: u += S(v − A u).
    let mut r = Grid::zeros(n);
    residual(v, u, &mut r);
    let mut s = Grid::zeros(n);
    apply_stencil(&STENCIL_S, &r, &mut s);
    for (uv, sv) in u.data.iter_mut().zip(&s.data) {
        *uv += sv;
    }
    stencil_apps += 2;
    // Coarse-grid correction.
    residual(v, u, &mut r);
    stencil_apps += 1;
    let rc = restrict(&r);
    stencil_apps += 1;
    let mut ec = Grid::zeros(rc.n);
    stencil_apps += vcycle(&mut ec, &rc);
    prolong_add(&ec, u);
    // Post-smooth.
    residual(v, u, &mut r);
    apply_stencil(&STENCIL_S, &r, &mut s);
    for (uv, sv) in u.data.iter_mut().zip(&s.data) {
        *uv += sv;
    }
    stencil_apps += 3;
    stencil_apps
}

/// The NPB ±1 right-hand side: ten +1 and ten −1 points from the LCG.
pub fn npb_rhs(n: usize) -> Grid {
    let mut v = Grid::zeros(n);
    let mut rng = NpbRng::new();
    let place = |sign: f64, rng: &mut NpbRng, v: &mut Grid| {
        let i = (rng.next_f64() * n as f64) as usize % n;
        let j = (rng.next_f64() * n as f64) as usize % n;
        let k = (rng.next_f64() * n as f64) as usize % n;
        let at = v.idx(i, j, k);
        v.data[at] = sign;
    };
    for _ in 0..10 {
        place(1.0, &mut rng, &mut v);
    }
    for _ in 0..10 {
        place(-1.0, &mut rng, &mut v);
    }
    v
}

/// Run MG at `class`: V-cycles on the NPB right-hand side, verified when
/// they at least halve the residual, and the operation mix.
pub fn run(class: Class) -> KernelResult {
    let (n, iters) = class.mg_size();
    let v = npb_rhs(n);
    let mut u = Grid::zeros(n);
    let mut r = Grid::zeros(n);
    residual(&v, &u, &mut r);
    let r0 = r.norm();
    let mut apps = 0u64;
    for _ in 0..iters {
        apps += vcycle(&mut u, &v);
    }
    residual(&v, &u, &mut r);
    let rn = r.norm();
    let verified = rn < r0 * 0.5; // V-cycles must contract the residual
    let points = (n * n * n) as u64;
    // Per stencil application per point: ~30 fp ops (26 adds + 4
    // muls); most applications happen on the finest grid, coarser
    // levels add the geometric-series 8/7 factor.
    let fine_equiv = (apps as f64 * 8.0 / 7.0) as u64;
    let fp_per_point_add = 27u64;
    let fp_per_point_mul = 4u64;
    let mix = OpMix {
        fadd: fine_equiv * points * fp_per_point_add,
        fmul: fine_equiv * points * fp_per_point_mul,
        fdiv: 0,
        fsqrt: iters as u64,              // norm evaluations
        int_ops: fine_equiv * points * 6, // index arithmetic
        loads: fine_equiv * points * 27,
        stores: fine_equiv * points,
        branches: fine_equiv * points / 8,
        // NPB counts MG Mops as fp operations.
        useful_ops: fine_equiv * points * (fp_per_point_add + fp_per_point_mul),
        // Each application streams the grid in and out of memory once
        // the grid exceeds cache (class W: 64³ × 8 B = 2 MB ≫ era L2).
        dram_bytes: fine_equiv * points * 16,
        fma_fusable: 0.15,
    };
    KernelResult { mix, verified }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_of_constant_field() {
        // A constant field under a stencil yields the coefficient sum
        // times the constant everywhere.
        let mut u = Grid::zeros(8);
        u.data.fill(2.0);
        let mut out = Grid::zeros(8);
        apply_stencil(&STENCIL_A, &u, &mut out);
        let sum = STENCIL_A[0] + 6.0 * STENCIL_A[1] + 12.0 * STENCIL_A[2] + 8.0 * STENCIL_A[3];
        for &x in &out.data {
            assert!((x - 2.0 * sum).abs() < 1e-13);
        }
    }

    #[test]
    fn restriction_halves_and_preserves_constants() {
        let mut f = Grid::zeros(16);
        f.data.fill(3.0);
        let c = restrict(&f);
        assert_eq!(c.n, 8);
        let qsum = STENCIL_Q[0] + 6.0 * STENCIL_Q[1] + 12.0 * STENCIL_Q[2] + 8.0 * STENCIL_Q[3];
        for &x in &c.data {
            assert!((x - 3.0 * qsum).abs() < 1e-13);
        }
    }

    #[test]
    fn prolongation_interpolates_constants_exactly() {
        let mut c = Grid::zeros(4);
        c.data.fill(1.5);
        let mut f = Grid::zeros(8);
        prolong_add(&c, &mut f);
        for &x in &f.data {
            assert!((x - 1.5).abs() < 1e-13, "{x}");
        }
    }

    #[test]
    fn vcycles_contract_the_residual() {
        let v = npb_rhs(16);
        let mut u = Grid::zeros(16);
        let mut r = Grid::zeros(16);
        residual(&v, &u, &mut r);
        let mut prev = r.norm();
        for cycle in 0..4 {
            vcycle(&mut u, &v);
            residual(&v, &u, &mut r);
            let now = r.norm();
            assert!(now < prev, "cycle {cycle}: {now} !< {prev}");
            prev = now;
        }
    }

    #[test]
    fn rhs_has_twenty_unit_points() {
        let v = npb_rhs(32);
        let nonzero: Vec<f64> = v.data.iter().copied().filter(|&x| x != 0.0).collect();
        // ≤ 20 points (collisions possible but unlikely), all ±1.
        assert!(nonzero.len() >= 18 && nonzero.len() <= 20);
        assert!(nonzero.iter().all(|&x| x == 1.0 || x == -1.0));
    }

    #[test]
    fn class_s_verifies() {
        let r = run(Class::S);
        assert!(r.verified);
        assert!(r.mix.dram_bytes > 0);
        assert!(r.mix.fadd > r.mix.fmul, "stencils are add-heavy");
    }
}
