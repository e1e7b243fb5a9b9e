//! BT — "a simulated CFD application that solves block-tridiagonal
//! systems of 5×5 blocks".
//!
//! Like the real benchmark, BT uses the Beam–Warming *approximately
//! factored* form: the implicit operator is the product of three
//! one-dimensional block-tridiagonal operators,
//!
//! ```text
//! M = Tx · Ty · Tz,
//! ```
//!
//! and each time step inverts it exactly by three sweeps of the block
//! Thomas algorithm (one per direction, one block-tridiagonal solve per
//! grid line, with 5×5 block inverses at every pivot). The synthetic
//! per-cell blocks are diagonally dominant so every Thomas pivot is
//! well-conditioned. Verification: after each step the recovered field
//! matches the manufactured solution that generated the right-hand side
//! (the ADI frame of [`crate::cfd`], shared with SP).

use mb_crusoe::hardware::OpMix;

use crate::cfd::{adi_verified, block5, lines, Axis, Factored, VecField};
use crate::classes::Class;
use crate::common::{splitmix, unit};
use crate::KernelResult;

/// The synthetic factored operator.
#[derive(Debug, Clone, Copy)]
pub struct BtSystem {
    /// Grid edge.
    pub n: usize,
}

impl BtSystem {
    /// Diagonal block of the 1-D factor at a cell (dominant).
    pub fn diag(&self, c: [usize; 3], axis: Axis) -> [f64; 25] {
        let mut m = [0.0; 25];
        let mut s = axis.seed(c, 1);
        for i in 0..5 {
            for j in 0..5 {
                s = splitmix(s);
                m[i * 5 + j] = if i == j {
                    2.0 + 0.3 * unit(s)
                } else {
                    0.1 * (unit(s) - 0.5)
                };
            }
        }
        m
    }

    /// Sub-diagonal (`which = 2`) / super-diagonal (`which = 3`) coupling
    /// blocks.
    pub fn offdiag(&self, c: [usize; 3], axis: Axis, upper: bool) -> [f64; 25] {
        let mut m = [0.0; 25];
        let mut s = axis.seed(c, if upper { 3 } else { 2 });
        for v in m.iter_mut() {
            s = splitmix(s);
            *v = 0.12 * (unit(s) - 0.5);
        }
        m
    }
}

impl Factored for BtSystem {
    fn apply_factor(&self, axis: Axis, u: &VecField, out: &mut VecField) {
        let n = self.n;
        for line in lines(n) {
            for s in 0..n {
                let c = axis.cell(line, s);
                let mut acc = block5::matvec(&self.diag(c, axis), &u[c]);
                if s > 0 {
                    let m = self.offdiag(c, axis, false);
                    add5(&mut acc, &block5::matvec(&m, &u[axis.cell(line, s - 1)]));
                }
                if s + 1 < n {
                    let m = self.offdiag(c, axis, true);
                    add5(&mut acc, &block5::matvec(&m, &u[axis.cell(line, s + 1)]));
                }
                out[c] = acc;
            }
        }
    }

    /// The block Thomas algorithm, line by line.
    fn solve_factor(&self, axis: Axis, rhs: &VecField) -> VecField {
        let n = self.n;
        let mut x = VecField::zeros(n);
        // Per-line workspaces.
        let mut cprime: Vec<[f64; 25]> = vec![[0.0; 25]; n];
        let mut dprime: Vec<[f64; 5]> = vec![[0.0; 5]; n];
        for line in lines(n) {
            // Forward elimination.
            for s in 0..n {
                let c = axis.cell(line, s);
                let mut denom = self.diag(c, axis);
                let mut r = rhs[c];
                if s > 0 {
                    let sub = self.offdiag(c, axis, false);
                    // denom = D − A·C'_{s−1}
                    let ac = block5::matmul(&sub, &cprime[s - 1]);
                    for t in 0..25 {
                        denom[t] -= ac[t];
                    }
                    // r −= A·d'_{s−1}
                    r = block5::vsub(&r, &block5::matvec(&sub, &dprime[s - 1]));
                }
                let denom_inv = block5::invert(&denom);
                if s + 1 < n {
                    let sup = self.offdiag(c, axis, true);
                    cprime[s] = block5::matmul(&denom_inv, &sup);
                }
                dprime[s] = block5::matvec(&denom_inv, &r);
            }
            // Back substitution.
            let mut prev = dprime[n - 1];
            x[axis.cell(line, n - 1)] = prev;
            for s in (0..n - 1).rev() {
                let v = block5::vsub(&dprime[s], &block5::matvec(&cprime[s], &prev));
                x[axis.cell(line, s)] = v;
                prev = v;
            }
        }
        x
    }
}

fn add5(a: &mut [f64; 5], b: &[f64; 5]) {
    for t in 0..5 {
        a[t] += b[t];
    }
}

/// Run BT at `class`: verify the ADI solve every step and report the
/// operation mix.
pub fn run(class: Class) -> KernelResult {
    let (n, steps) = class.cfd_size();
    let verified = adi_verified(&BtSystem { n }, n, steps, |s| (s * 0.3).sin());
    let cells = (n * n * n) as u64;
    let st = steps as u64;
    // Per cell per step: 3 factor applications (3 matvecs each) for
    // the RHS + 3 Thomas factors (1 inverse 365, 2 matmuls 250, 3
    // matvecs 135 each).
    let fp_cell = 3 * (3 * 45) + 3 * (365 + 250 + 135);
    let mix = OpMix {
        fadd: st * cells * fp_cell as u64 / 2,
        fmul: st * cells * fp_cell as u64 / 2,
        fdiv: st * cells * 15,
        fsqrt: 0,
        int_ops: st * cells * 45,
        loads: st * cells * 150,
        stores: st * cells * 40,
        branches: st * cells * 10,
        useful_ops: st * cells * fp_cell as u64,
        dram_bytes: st * cells * 240,
        fma_fusable: 0.85,
    };
    KernelResult { mix, verified }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfd::manufactured;

    #[test]
    fn factor_solve_inverts_factor_apply() {
        let sys = BtSystem { n: 8 };
        let u = manufactured(8);
        for axis in Axis::ALL {
            let mut b = VecField::zeros(8);
            sys.apply_factor(axis, &u, &mut b);
            let err = sys.solve_factor(axis, &b).dist(&u);
            assert!(err < 1e-10, "{axis:?}: err {err}");
        }
    }

    #[test]
    fn full_solve_inverts_full_operator() {
        let sys = BtSystem { n: 6 };
        let u = manufactured(6);
        let mut b = VecField::zeros(6);
        sys.apply(&u, &mut b);
        let err = sys.solve(&b).dist(&u);
        assert!(err < 1e-9, "err {err}");
    }

    #[test]
    fn operator_is_genuinely_three_dimensional() {
        // Tx and Ty must not commute in general — i.e. the factors are
        // distinct operators.
        let sys = BtSystem { n: 4 };
        let u = manufactured(4);
        let mut xy = VecField::zeros(4);
        let mut yx = VecField::zeros(4);
        let mut t = VecField::zeros(4);
        sys.apply_factor(Axis::X, &u, &mut t);
        sys.apply_factor(Axis::Y, &t, &mut xy);
        sys.apply_factor(Axis::Y, &u, &mut t);
        sys.apply_factor(Axis::X, &t, &mut yx);
        assert!(xy.dist(&yx) > 1e-6, "factors unexpectedly commute");
    }

    #[test]
    fn class_s_verifies() {
        let r = run(Class::S);
        assert!(r.verified);
        assert!(r.mix.useful_ops > 0);
        assert!(r.mix.fma_fusable > 0.5);
    }
}
