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
//! matches the manufactured solution that generated the right-hand side.

use mb_crusoe::hardware::OpMix;

use crate::classes::Class;
use crate::common::{splitmix, unit};
use crate::lu::block5;
use crate::lu::{manufactured, VecField};
use crate::mix::{KernelResult, NpbKernel};

/// Direction of a 1-D factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Lines along i.
    X,
    /// Lines along j.
    Y,
    /// Lines along k.
    Z,
}

impl Axis {
    /// All axes in sweep order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    fn cell(&self, line: (usize, usize), s: usize) -> [usize; 3] {
        match self {
            Axis::X => [s, line.0, line.1],
            Axis::Y => [line.0, s, line.1],
            Axis::Z => [line.0, line.1, s],
        }
    }
}

/// The synthetic factored operator.
#[derive(Debug, Clone, Copy)]
pub struct BtSystem {
    /// Grid edge.
    pub n: usize,
}

impl BtSystem {
    fn seed(&self, c: [usize; 3], axis: Axis, which: u64) -> u64 {
        let a = match axis {
            Axis::X => 0u64,
            Axis::Y => 1,
            Axis::Z => 2,
        };
        splitmix((c[0] as u64) << 42 | (c[1] as u64) << 21 | c[2] as u64 | a << 57 | which << 60)
    }

    /// Diagonal block of the 1-D factor at a cell (dominant).
    pub fn diag(&self, c: [usize; 3], axis: Axis) -> [f64; 25] {
        let mut m = [0.0; 25];
        let mut s = self.seed(c, axis, 1);
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
        let mut s = self.seed(c, axis, if upper { 3 } else { 2 });
        for v in m.iter_mut() {
            s = splitmix(s);
            *v = 0.12 * (unit(s) - 0.5);
        }
        m
    }

    /// Apply one 1-D factor: `out = T_axis · u`.
    pub fn apply_factor(&self, axis: Axis, u: &VecField, out: &mut VecField) {
        let n = self.n;
        for a in 0..n {
            for b in 0..n {
                for s in 0..n {
                    let c = axis.cell((a, b), s);
                    let ui = idx(n, c);
                    let mut acc = block5::matvec(&self.diag(c, axis), &u.data[ui]);
                    if s > 0 {
                        let prev = axis.cell((a, b), s - 1);
                        let m = self.offdiag(c, axis, false);
                        add5(&mut acc, &block5::matvec(&m, &u.data[idx(n, prev)]));
                    }
                    if s + 1 < n {
                        let next = axis.cell((a, b), s + 1);
                        let m = self.offdiag(c, axis, true);
                        add5(&mut acc, &block5::matvec(&m, &u.data[idx(n, next)]));
                    }
                    out.data[idx(n, c)] = acc;
                }
            }
        }
    }

    /// The full factored operator `M·u = Tx(Ty(Tz·u))`.
    pub fn apply(&self, u: &VecField, out: &mut VecField) {
        let mut t1 = VecField::zeros(self.n);
        let mut t2 = VecField::zeros(self.n);
        self.apply_factor(Axis::Z, u, &mut t1);
        self.apply_factor(Axis::Y, &t1, &mut t2);
        self.apply_factor(Axis::X, &t2, out);
    }

    /// Solve one 1-D factor in place: `T_axis · x = rhs` via the block
    /// Thomas algorithm, line by line.
    pub fn solve_factor(&self, axis: Axis, rhs: &VecField) -> VecField {
        let n = self.n;
        let mut x = VecField::zeros(n);
        // Per-line workspaces.
        let mut cprime: Vec<[f64; 25]> = vec![[0.0; 25]; n];
        let mut dprime: Vec<[f64; 5]> = vec![[0.0; 5]; n];
        for a in 0..n {
            for b in 0..n {
                // Forward elimination.
                for s in 0..n {
                    let c = axis.cell((a, b), s);
                    let diag = self.diag(c, axis);
                    let mut denom = diag;
                    let mut r = rhs.data[idx(n, c)];
                    if s > 0 {
                        let sub = self.offdiag(c, axis, false);
                        // denom = D − A·C'_{s−1}
                        let ac = matmul(&sub, &cprime[s - 1]);
                        for t in 0..25 {
                            denom[t] -= ac[t];
                        }
                        // r −= A·d'_{s−1}
                        let ad = block5::matvec(&sub, &dprime[s - 1]);
                        for t in 0..5 {
                            r[t] -= ad[t];
                        }
                    }
                    let denom_inv = block5::invert(&denom);
                    if s + 1 < n {
                        let sup = self.offdiag(c, axis, true);
                        cprime[s] = matmul(&denom_inv, &sup);
                    }
                    dprime[s] = block5::matvec(&denom_inv, &r);
                }
                // Back substitution.
                let mut prev = dprime[n - 1];
                x.data[idx(n, axis.cell((a, b), n - 1))] = prev;
                for s in (0..n - 1).rev() {
                    let cp = block5::matvec(&cprime[s], &prev);
                    let mut v = dprime[s];
                    for t in 0..5 {
                        v[t] -= cp[t];
                    }
                    x.data[idx(n, axis.cell((a, b), s))] = v;
                    prev = v;
                }
            }
        }
        x
    }

    /// Exact solve of the factored system: `M·x = b`.
    pub fn solve(&self, b: &VecField) -> VecField {
        let t1 = self.solve_factor(Axis::X, b);
        let t2 = self.solve_factor(Axis::Y, &t1);
        self.solve_factor(Axis::Z, &t2)
    }
}

fn idx(n: usize, c: [usize; 3]) -> usize {
    (c[0] * n + c[1]) * n + c[2]
}

fn add5(a: &mut [f64; 5], b: &[f64; 5]) {
    for t in 0..5 {
        a[t] += b[t];
    }
}

/// 5×5 block product.
fn matmul(a: &[f64; 25], b: &[f64; 25]) -> [f64; 25] {
    let mut out = [0.0; 25];
    for i in 0..5 {
        for kk in 0..5 {
            let av = a[i * 5 + kk];
            if av == 0.0 {
                continue;
            }
            for j in 0..5 {
                out[i * 5 + j] += av * b[kk * 5 + j];
            }
        }
    }
    out
}

/// The BT benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Bt {
    class: Class,
}

impl Bt {
    /// New BT instance at a class.
    pub fn new(class: Class) -> Self {
        Self { class }
    }
}

impl NpbKernel for Bt {
    fn name(&self) -> &'static str {
        "BT"
    }

    fn class(&self) -> Class {
        self.class
    }

    fn run(&self) -> KernelResult {
        let (n, steps) = self.class.cfd_size();
        let sys = BtSystem { n };
        let base = manufactured(n);
        let mut worst = 0.0f64;
        let mut checksum = 0.0;
        let mut rhs = VecField::zeros(n);
        for step in 0..steps {
            // Time-varying manufactured field.
            let scale = 1.0 + 0.1 * (step as f64 * 0.3).sin();
            let mut exact = base.clone();
            for v in exact.data.iter_mut() {
                for t in 0..5 {
                    v[t] *= scale;
                }
            }
            sys.apply(&exact, &mut rhs);
            let u = sys.solve(&rhs);
            let err: f64 = u
                .data
                .iter()
                .zip(&exact.data)
                .flat_map(|(a, b)| a.iter().zip(b.iter()))
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            worst = worst.max(err / exact.rms().max(1e-30));
            checksum = u.rms();
        }
        let verified = worst < 1e-8;
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
        KernelResult {
            mix,
            verified,
            checksum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_solve_inverts_factor_apply() {
        let sys = BtSystem { n: 8 };
        let u = manufactured(8);
        for axis in Axis::ALL {
            let mut b = VecField::zeros(8);
            sys.apply_factor(axis, &u, &mut b);
            let x = sys.solve_factor(axis, &b);
            let err: f64 = x
                .data
                .iter()
                .zip(&u.data)
                .flat_map(|(a, b)| a.iter().zip(b.iter()))
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt();
            assert!(err < 1e-10, "{axis:?}: err {err}");
        }
    }

    #[test]
    fn full_solve_inverts_full_operator() {
        let sys = BtSystem { n: 6 };
        let u = manufactured(6);
        let mut b = VecField::zeros(6);
        sys.apply(&u, &mut b);
        let x = sys.solve(&b);
        let err: f64 = x
            .data
            .iter()
            .zip(&u.data)
            .flat_map(|(a, b)| a.iter().zip(b.iter()))
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
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
        let diff: f64 = xy
            .data
            .iter()
            .zip(&yx.data)
            .flat_map(|(a, b)| a.iter().zip(b.iter()))
            .map(|(p, q)| (p - q).abs())
            .sum();
        assert!(diff > 1e-6, "factors unexpectedly commute");
    }

    #[test]
    fn class_s_verifies() {
        let r = Bt::new(Class::S).run();
        assert!(r.verified);
        assert!(r.mix.useful_ops > 0);
        assert!(r.mix.fma_fusable > 0.5);
    }
}
