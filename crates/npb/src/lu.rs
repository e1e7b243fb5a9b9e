//! LU — "a simulated CFD application that solves a block lower
//! triangular–block upper triangular system of equations" by SSOR.
//!
//! The system is the 3-D 7-point block operator `A = D + L + U` with 5×5
//! blocks (five coupled flow variables per cell, as in the real
//! benchmark), applied to a synthetic diagonally-dominant Jacobian field
//! generated procedurally per cell. One SSOR iteration is the classic
//! pair of wavefront sweeps:
//!
//! ```text
//! forward:  t_c = D_c⁻¹ (r_c − Σ_{n ∈ lower(c)} L_n t_n)
//! backward: Δ_c = D_c⁻¹ (D_c t_c − Σ_{n ∈ upper(c)} U_n Δ_n)
//! u ← u + ω Δ
//! ```
//!
//! Verification: the iterate converges monotonically to a manufactured
//! solution. The block kernels, the field type and the manufactured
//! solution are [`crate::cfd`]'s, shared with BT and SP.

use mb_crusoe::hardware::OpMix;

use crate::cfd::{block5, manufactured, VecField};
use crate::classes::Class;
use crate::common::{splitmix, unit};
use crate::KernelResult;

/// The synthetic Jacobian field: deterministic 5×5 blocks per cell.
#[derive(Debug, Clone, Copy)]
pub struct BlockField {
    /// Grid edge.
    pub n: usize,
}

impl BlockField {
    fn cell_seed(&self, c: [usize; 3], which: u64) -> u64 {
        splitmix((c[0] as u64) << 40 | (c[1] as u64) << 20 | c[2] as u64 | which << 60)
    }

    /// The diagonal block at a cell: strongly diagonally dominant.
    pub fn diag(&self, c: [usize; 3]) -> [f64; 25] {
        let mut m = [0.0; 25];
        let mut s = self.cell_seed(c, 1);
        for i in 0..5 {
            for j in 0..5 {
                s = splitmix(s);
                m[i * 5 + j] = if i == j {
                    6.0 + unit(s)
                } else {
                    0.2 * (unit(s) - 0.5)
                };
            }
        }
        m
    }

    /// The coupling block from a cell toward axis `axis` (0..3 lower,
    /// 3..6 upper).
    pub fn coupling(&self, c: [usize; 3], axis: usize) -> [f64; 25] {
        let mut m = [0.0; 25];
        let mut s = self.cell_seed(c, 2 + axis as u64);
        for v in m.iter_mut() {
            s = splitmix(s);
            *v = 0.25 * (unit(s) - 0.5);
        }
        m
    }
}

/// Apply the 7-point block operator: `out = A·u` (non-periodic: missing
/// neighbors contribute nothing, as in the benchmark's Dirichlet frame).
pub fn apply_operator(field: &BlockField, u: &VecField, out: &mut VecField) {
    let n = field.n;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let c = [i, j, k];
                let mut acc = block5::matvec(&field.diag(c), &u[c]);
                let neighbors = [
                    (i > 0).then(|| ([i - 1, j, k], 0)),
                    (j > 0).then(|| ([i, j - 1, k], 1)),
                    (k > 0).then(|| ([i, j, k - 1], 2)),
                    (i + 1 < n).then(|| ([i + 1, j, k], 3)),
                    (j + 1 < n).then(|| ([i, j + 1, k], 4)),
                    (k + 1 < n).then(|| ([i, j, k + 1], 5)),
                ];
                for nb in neighbors.into_iter().flatten() {
                    let (nc, axis) = nb;
                    let m = field.coupling(c, axis);
                    let contrib = block5::matvec(&m, &u[nc]);
                    for t in 0..5 {
                        acc[t] += contrib[t];
                    }
                }
                out[c] = acc;
            }
        }
    }
}

/// One SSOR iteration on `u` for `A·u = b` with relaxation `omega`.
pub fn ssor_sweep(field: &BlockField, u: &mut VecField, b: &VecField, omega: f64) {
    let n = field.n;
    // Residual.
    let mut r = VecField::zeros(n);
    apply_operator(field, u, &mut r);
    for (rv, bv) in r.data.iter_mut().zip(&b.data) {
        *rv = block5::vsub(bv, rv);
    }
    // Forward sweep (lower triangle): t = (D+L)⁻¹ r.
    let mut t = VecField::zeros(n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let c = [i, j, k];
                let mut rhs = r[c];
                let lowers = [
                    (i > 0).then(|| ([i - 1, j, k], 0)),
                    (j > 0).then(|| ([i, j - 1, k], 1)),
                    (k > 0).then(|| ([i, j, k - 1], 2)),
                ];
                for nb in lowers.into_iter().flatten() {
                    let (nc, axis) = nb;
                    let m = field.coupling(c, axis);
                    rhs = block5::vsub(&rhs, &block5::matvec(&m, &t[nc]));
                }
                let dinv = block5::invert(&field.diag(c));
                t[c] = block5::matvec(&dinv, &rhs);
            }
        }
    }
    // Backward sweep (upper triangle): Δ = (D+U)⁻¹ D t.
    let mut delta = VecField::zeros(n);
    for i in (0..n).rev() {
        for j in (0..n).rev() {
            for k in (0..n).rev() {
                let c = [i, j, k];
                let mut rhs = block5::matvec(&field.diag(c), &t[c]);
                let uppers = [
                    (i + 1 < n).then(|| ([i + 1, j, k], 3)),
                    (j + 1 < n).then(|| ([i, j + 1, k], 4)),
                    (k + 1 < n).then(|| ([i, j, k + 1], 5)),
                ];
                for nb in uppers.into_iter().flatten() {
                    let (nc, axis) = nb;
                    let m = field.coupling(c, axis);
                    rhs = block5::vsub(&rhs, &block5::matvec(&m, &delta[nc]));
                }
                let dinv = block5::invert(&field.diag(c));
                delta[c] = block5::matvec(&dinv, &rhs);
            }
        }
    }
    // Relaxed update.
    for (uv, dv) in u.data.iter_mut().zip(&delta.data) {
        for q in 0..5 {
            uv[q] += omega * dv[q];
        }
    }
}

/// Run LU at `class`: SSOR sweeps from zero toward the manufactured
/// solution, verified when the error falls a thousandfold from the first
/// sweep to the last, and the operation mix.
pub fn run(class: Class) -> KernelResult {
    let (n, steps) = class.cfd_size();
    let field = BlockField { n };
    let exact = manufactured(n);
    let mut b = VecField::zeros(n);
    apply_operator(&field, &exact, &mut b);
    let mut u = VecField::zeros(n);
    let mut err0 = f64::NAN;
    let mut err = f64::NAN;
    for s in 0..steps {
        ssor_sweep(&field, &mut u, &b, 1.0);
        if s == 0 {
            err0 = u.dist(&exact);
        } else if s == steps - 1 {
            err = u.dist(&exact);
        }
    }
    let verified = err < err0 * 1e-3;
    let cells = (n * n * n) as u64;
    let st = steps as u64;
    // Per cell per sweep: operator (7 block matvecs ≈ 7×45), two
    // triangular solves (2×(inverse 365 + 4 matvecs)), update.
    let fp_cell = 7 * 45 + 2 * (365 + 4 * 45) + 10;
    let mix = OpMix {
        fadd: st * cells * (fp_cell as u64) / 2,
        fmul: st * cells * (fp_cell as u64) / 2,
        fdiv: st * cells * 10, // Gauss–Jordan pivots
        fsqrt: 0,
        int_ops: st * cells * 40,
        loads: st * cells * 120,
        stores: st * cells * 25,
        branches: st * cells * 12,
        useful_ops: st * cells * fp_cell as u64,
        dram_bytes: st * cells * 200,
        fma_fusable: 0.8,
    };
    KernelResult { mix, verified }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssor_converges_to_manufactured_solution() {
        let n = 8;
        let field = BlockField { n };
        let exact = manufactured(n);
        let mut b = VecField::zeros(n);
        apply_operator(&field, &exact, &mut b);
        let mut u = VecField::zeros(n);
        let mut prev = u.dist(&exact);
        for sweep in 0..6 {
            ssor_sweep(&field, &mut u, &b, 1.0);
            let now = u.dist(&exact);
            assert!(now < prev, "sweep {sweep}: {now} !< {prev}");
            prev = now;
        }
        assert!(prev < 1e-3, "final error {prev}");
    }

    #[test]
    fn operator_is_deterministic() {
        let n = 6;
        let field = BlockField { n };
        let u = manufactured(n);
        let mut a = VecField::zeros(n);
        let mut b = VecField::zeros(n);
        apply_operator(&field, &u, &mut a);
        apply_operator(&field, &u, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_field_maps_to_zero() {
        let n = 4;
        let field = BlockField { n };
        let u = VecField::zeros(n);
        let mut out = VecField::zeros(n);
        apply_operator(&field, &u, &mut out);
        assert!(out.rms() == 0.0);
    }

    #[test]
    fn class_s_verifies() {
        let r = run(Class::S);
        assert!(r.verified);
        assert!(r.mix.fdiv > 0, "block inversion divides");
    }
}
