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
//! solution.
//!
//! This module also hosts the shared 5×5 block kernels (`block5`) used by
//! BT.

use mb_crusoe::hardware::OpMix;

use crate::classes::Class;
use crate::common::{splitmix, unit};
use crate::mix::{KernelResult, NpbKernel};

/// 5×5 block linear algebra on flat `[f64; 25]` row-major blocks.
pub mod block5 {
    /// Block dimension.
    pub const B: usize = 5;

    /// `y = M·x`.
    pub fn matvec(m: &[f64; 25], x: &[f64; 5]) -> [f64; 5] {
        let mut y = [0.0; 5];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &m[i * B..(i + 1) * B];
            *yi = row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3] + row[4] * x[4];
        }
        y
    }

    /// Invert a block by Gauss–Jordan with partial pivoting.
    ///
    /// Panics on a numerically singular block (the generators only
    /// produce diagonally dominant blocks, which are safely invertible).
    pub fn invert(m: &[f64; 25]) -> [f64; 25] {
        let mut a = *m;
        let mut inv = [0.0f64; 25];
        for i in 0..B {
            inv[i * B + i] = 1.0;
        }
        for col in 0..B {
            // Pivot.
            let mut piv = col;
            for r in col + 1..B {
                if a[r * B + col].abs() > a[piv * B + col].abs() {
                    piv = r;
                }
            }
            assert!(a[piv * B + col].abs() > 1e-12, "singular 5×5 block");
            if piv != col {
                for c in 0..B {
                    a.swap(col * B + c, piv * B + c);
                    inv.swap(col * B + c, piv * B + c);
                }
            }
            let d = a[col * B + col];
            for c in 0..B {
                a[col * B + c] /= d;
                inv[col * B + c] /= d;
            }
            for r in 0..B {
                if r == col {
                    continue;
                }
                let f = a[r * B + col];
                if f == 0.0 {
                    continue;
                }
                for c in 0..B {
                    a[r * B + c] -= f * a[col * B + c];
                    inv[r * B + c] -= f * inv[col * B + c];
                }
            }
        }
        inv
    }

    /// `a − b` elementwise on 5-vectors.
    pub fn vsub(a: &[f64; 5], b: &[f64; 5]) -> [f64; 5] {
        [
            a[0] - b[0],
            a[1] - b[1],
            a[2] - b[2],
            a[3] - b[3],
            a[4] - b[4],
        ]
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn inverse_roundtrips() {
            let mut m = [0.0f64; 25];
            for i in 0..5 {
                for j in 0..5 {
                    m[i * 5 + j] = if i == j {
                        6.0
                    } else {
                        0.3 * ((i * 5 + j) as f64).sin()
                    };
                }
            }
            let inv = invert(&m);
            // M·M⁻¹ ≈ I, tested via matvec on basis vectors.
            for k in 0..5 {
                let mut e = [0.0; 5];
                e[k] = 1.0;
                let x = matvec(&inv, &e);
                let y = matvec(&m, &x);
                for i in 0..5 {
                    let expect = if i == k { 1.0 } else { 0.0 };
                    assert!((y[i] - expect).abs() < 1e-12, "col {k} row {i}: {}", y[i]);
                }
            }
        }

        #[test]
        #[should_panic(expected = "singular")]
        fn singular_block_is_rejected() {
            let m = [0.0f64; 25];
            let _ = invert(&m);
        }
    }
}

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

/// Grid of 5-vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct VecField {
    /// Grid edge.
    pub n: usize,
    /// `n³` five-vectors.
    pub data: Vec<[f64; 5]>,
}

impl VecField {
    /// Zeroed field.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![[0.0; 5]; n * n * n],
        }
    }

    fn idx(&self, c: [usize; 3]) -> usize {
        (c[0] * self.n + c[1]) * self.n + c[2]
    }

    /// RMS over all components.
    pub fn rms(&self) -> f64 {
        let s: f64 = self.data.iter().flat_map(|v| v.iter()).map(|x| x * x).sum();
        (s / (self.data.len() * 5) as f64).sqrt()
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
                let mut acc = block5::matvec(&field.diag(c), &u.data[u.idx(c)]);
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
                    let contrib = block5::matvec(&m, &u.data[u.idx(nc)]);
                    for t in 0..5 {
                        acc[t] += contrib[t];
                    }
                }
                let at = out.idx(c);
                out.data[at] = acc;
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
                let mut rhs = r.data[r.idx(c)];
                let lowers = [
                    (i > 0).then(|| ([i - 1, j, k], 0)),
                    (j > 0).then(|| ([i, j - 1, k], 1)),
                    (k > 0).then(|| ([i, j, k - 1], 2)),
                ];
                for nb in lowers.into_iter().flatten() {
                    let (nc, axis) = nb;
                    let m = field.coupling(c, axis);
                    let contrib = block5::matvec(&m, &t.data[t.idx(nc)]);
                    for q in 0..5 {
                        rhs[q] -= contrib[q];
                    }
                }
                let dinv = block5::invert(&field.diag(c));
                let at = t.idx(c);
                t.data[at] = block5::matvec(&dinv, &rhs);
            }
        }
    }
    // Backward sweep (upper triangle): Δ = (D+U)⁻¹ D t.
    let mut delta = VecField::zeros(n);
    for i in (0..n).rev() {
        for j in (0..n).rev() {
            for k in (0..n).rev() {
                let c = [i, j, k];
                let mut rhs = block5::matvec(&field.diag(c), &t.data[t.idx(c)]);
                let uppers = [
                    (i + 1 < n).then(|| ([i + 1, j, k], 3)),
                    (j + 1 < n).then(|| ([i, j + 1, k], 4)),
                    (k + 1 < n).then(|| ([i, j, k + 1], 5)),
                ];
                for nb in uppers.into_iter().flatten() {
                    let (nc, axis) = nb;
                    let m = field.coupling(c, axis);
                    let contrib = block5::matvec(&m, &delta.data[delta.idx(nc)]);
                    for q in 0..5 {
                        rhs[q] -= contrib[q];
                    }
                }
                let dinv = block5::invert(&field.diag(c));
                let at = delta.idx(c);
                delta.data[at] = block5::matvec(&dinv, &rhs);
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

/// Manufactured solution: smooth per-component field.
pub fn manufactured(n: usize) -> VecField {
    let mut u = VecField::zeros(n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let at = u.idx([i, j, k]);
                let (x, y, z) = (
                    i as f64 / n as f64,
                    j as f64 / n as f64,
                    k as f64 / n as f64,
                );
                u.data[at] = [
                    (x + y + z).sin(),
                    x * y,
                    (z - 0.5).cos(),
                    x - y + z,
                    1.0 + x * z,
                ];
            }
        }
    }
    u
}

/// The LU benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Lu {
    class: Class,
}

impl Lu {
    /// New LU instance at a class.
    pub fn new(class: Class) -> Self {
        Self { class }
    }
}

impl NpbKernel for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn class(&self) -> Class {
        self.class
    }

    fn run(&self) -> KernelResult {
        let (n, steps) = self.class.cfd_size();
        let field = BlockField { n };
        let exact = manufactured(n);
        let mut b = VecField::zeros(n);
        apply_operator(&field, &exact, &mut b);
        let mut u = VecField::zeros(n);
        let mut err0 = f64::NAN;
        let mut err = f64::NAN;
        for s in 0..steps {
            ssor_sweep(&field, &mut u, &b, 1.0);
            if s == 0 || s == steps - 1 {
                let e: f64 = u
                    .data
                    .iter()
                    .zip(&exact.data)
                    .flat_map(|(a, b)| a.iter().zip(b.iter()))
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                if s == 0 {
                    err0 = e.sqrt();
                } else {
                    err = e.sqrt();
                }
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
        KernelResult {
            mix,
            verified,
            checksum: u.rms(),
        }
    }
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
        let err = |u: &VecField| -> f64 {
            u.data
                .iter()
                .zip(&exact.data)
                .flat_map(|(a, b)| a.iter().zip(b.iter()))
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let mut prev = err(&u);
        for sweep in 0..6 {
            ssor_sweep(&field, &mut u, &b, 1.0);
            let now = err(&u);
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
        let r = Lu::new(Class::S).run();
        assert!(r.verified);
        assert!(r.mix.fdiv > 0, "block inversion divides");
    }
}
