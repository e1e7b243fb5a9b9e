//! SP — "a simulated CFD application that solves scalar pentadiagonal
//! systems".
//!
//! Structurally BT's sibling: the approximately-factored operator
//! `M = Px·Py·Pz` (the ADI frame of [`crate::cfd`]), but each 1-D factor
//! is five *independent scalar* pentadiagonal systems per grid line (one
//! per flow variable) instead of a block-tridiagonal system — the real
//! benchmark's diagonalized form. Each factor solve is banded Gaussian
//! elimination with two sub- and two super-diagonals. Verification:
//! exact recovery of a manufactured solution every step.

use mb_crusoe::hardware::OpMix;

use crate::cfd::{adi_verified, lines, Axis, Factored, VecField};
use crate::classes::Class;
use crate::common::{splitmix, unit};
use crate::KernelResult;

/// The synthetic factored scalar-pentadiagonal system.
#[derive(Debug, Clone, Copy)]
pub struct SpSystem {
    /// Grid edge.
    pub n: usize,
}

/// The five banded coefficients of one cell/component: `(a2, a1, d, c1,
/// c2)` multiplying `u_{s−2}, u_{s−1}, u_s, u_{s+1}, u_{s+2}` along a
/// line.
pub type Bands = [f64; 5];

impl SpSystem {
    fn bands(&self, c: [usize; 3], axis: Axis, comp: usize) -> Bands {
        let mut s = axis.seed(c, comp as u64);
        let mut r = || {
            s = splitmix(s);
            unit(s) - 0.5
        };
        // Dominant center, modest bands.
        let a2 = 0.15 * r();
        let a1 = 0.3 * r();
        let c1 = 0.3 * r();
        let c2 = 0.15 * r();
        let d = 2.0 + 0.3 * (r() + 0.5);
        [a2, a1, d, c1, c2]
    }
}

impl Factored for SpSystem {
    fn apply_factor(&self, axis: Axis, u: &VecField, out: &mut VecField) {
        let n = self.n;
        for line in lines(n) {
            for s in 0..n {
                let c = axis.cell(line, s);
                let mut v = [0.0; 5];
                for (comp, vc) in v.iter_mut().enumerate() {
                    let w = self.bands(c, axis, comp);
                    let mut acc = w[2] * u[c][comp];
                    if s >= 2 {
                        acc += w[0] * u[axis.cell(line, s - 2)][comp];
                    }
                    if s >= 1 {
                        acc += w[1] * u[axis.cell(line, s - 1)][comp];
                    }
                    if s + 1 < n {
                        acc += w[3] * u[axis.cell(line, s + 1)][comp];
                    }
                    if s + 2 < n {
                        acc += w[4] * u[axis.cell(line, s + 2)][comp];
                    }
                    *vc = acc;
                }
                out[c] = v;
            }
        }
    }

    /// Banded Gaussian elimination (no pivoting — the bands are
    /// diagonally dominant) per line per component.
    fn solve_factor(&self, axis: Axis, rhs: &VecField) -> VecField {
        let n = self.n;
        let mut x = VecField::zeros(n);
        // Workspaces: the (running) upper bands and rhs per line.
        let mut du = vec![0.0f64; n]; // diagonal after elimination
        let mut c1 = vec![0.0f64; n]; // first superdiagonal
        let mut c2 = vec![0.0f64; n]; // second superdiagonal
        let mut r = vec![0.0f64; n];
        for line in lines(n) {
            for comp in 0..5 {
                // Load the line.
                for s in 0..n {
                    let c = axis.cell(line, s);
                    let w = self.bands(c, axis, comp);
                    du[s] = w[2];
                    c1[s] = if s + 1 < n { w[3] } else { 0.0 };
                    c2[s] = if s + 2 < n { w[4] } else { 0.0 };
                    r[s] = rhs[c][comp];
                }
                // Forward elimination of the two subdiagonals, in band
                // order: first fold row s−2 into the second subdiagonal
                // (which fills into the first), then eliminate the
                // (updated) first subdiagonal with row s−1.
                for s in 0..n {
                    let w = self.bands(axis.cell(line, s), axis, comp);
                    let mut a1_eff = w[1];
                    let mut d_eff = w[2];
                    if s >= 2 {
                        let f2 = w[0] / du[s - 2];
                        a1_eff -= f2 * c1[s - 2];
                        d_eff -= f2 * c2[s - 2];
                        r[s] -= f2 * r[s - 2];
                    }
                    if s >= 1 {
                        let f1 = a1_eff / du[s - 1];
                        d_eff -= f1 * c1[s - 1];
                        c1[s] -= f1 * c2[s - 1];
                        r[s] -= f1 * r[s - 1];
                    }
                    du[s] = d_eff;
                }
                // Back substitution.
                for s in (0..n).rev() {
                    let mut v = r[s];
                    if s + 1 < n {
                        v -= c1[s] * x[axis.cell(line, s + 1)][comp];
                    }
                    if s + 2 < n {
                        v -= c2[s] * x[axis.cell(line, s + 2)][comp];
                    }
                    x[axis.cell(line, s)][comp] = v / du[s];
                }
            }
        }
        x
    }
}

/// Run SP at `class`: verify the ADI solve every step and report the
/// operation mix.
pub fn run(class: Class) -> KernelResult {
    let (n, steps) = class.cfd_size();
    let verified = adi_verified(&SpSystem { n }, n, steps, |s| (s * 0.4).cos());
    let cells = (n * n * n) as u64;
    let st = steps as u64;
    // Per cell per step: 5 components × (apply 9 fp × 3 factors +
    // eliminate ~14 fp × 3 + backsub 5 fp × 3).
    let fp_cell = 5 * 3 * (9 + 14 + 5);
    let mix = OpMix {
        fadd: st * cells * fp_cell as u64 * 45 / 100,
        fmul: st * cells * fp_cell as u64 * 45 / 100,
        fdiv: st * cells * 5 * 3 * 3 / 2, // eliminations divide
        fsqrt: 0,
        int_ops: st * cells * 60,
        loads: st * cells * 90,
        stores: st * cells * 30,
        branches: st * cells * 20,
        useful_ops: st * cells * fp_cell as u64,
        dram_bytes: st * cells * 160,
        fma_fusable: 0.7,
    };
    KernelResult { mix, verified }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::manufactured;

    #[test]
    fn factor_solve_inverts_factor_apply() {
        let sys = SpSystem { n: 9 };
        let u = manufactured(9);
        for axis in Axis::ALL {
            let mut b = VecField::zeros(9);
            sys.apply_factor(axis, &u, &mut b);
            let err = sys.solve_factor(axis, &b).dist(&u);
            assert!(err < 1e-9, "{axis:?}: err {err}");
        }
    }

    #[test]
    fn full_solve_inverts_full_operator() {
        let sys = SpSystem { n: 7 };
        let u = manufactured(7);
        let mut b = VecField::zeros(7);
        sys.apply(&u, &mut b);
        let err = sys.solve(&b).dist(&u);
        assert!(err < 1e-9, "err {err}");
    }

    #[test]
    fn components_are_independent() {
        // Zeroing one component of the input must zero exactly that
        // component of P·u.
        let sys = SpSystem { n: 5 };
        let mut u = manufactured(5);
        for v in u.data.iter_mut() {
            v[2] = 0.0;
        }
        let mut b = VecField::zeros(5);
        sys.apply_factor(Axis::X, &u, &mut b);
        assert!(b.data.iter().all(|v| v[2] == 0.0));
        assert!(b.data.iter().any(|v| v[0] != 0.0));
    }

    #[test]
    fn class_s_verifies() {
        let r = run(Class::S);
        assert!(r.verified);
        assert!(r.mix.fdiv > 0);
    }
}
