//! SP — "a simulated CFD application that solves scalar pentadiagonal
//! systems".
//!
//! Structurally BT's sibling: the approximately-factored operator
//! `M = Px·Py·Pz`, but each 1-D factor is five *independent scalar*
//! pentadiagonal systems per grid line (one per flow variable) instead of
//! a block-tridiagonal system — the real benchmark's diagonalized form.
//! Each factor solve is banded Gaussian elimination with two sub- and two
//! super-diagonals. Verification: exact recovery of a manufactured
//! solution every step.

use mb_crusoe::hardware::OpMix;

use crate::bt::Axis;
use crate::classes::Class;
use crate::common::{splitmix, unit};
use crate::lu::{manufactured, VecField};
use crate::mix::{KernelResult, NpbKernel};

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
        let a = match axis {
            Axis::X => 0u64,
            Axis::Y => 1,
            Axis::Z => 2,
        };
        let mut s = splitmix(
            (c[0] as u64) << 42 | (c[1] as u64) << 21 | c[2] as u64 | a << 57 | (comp as u64) << 60,
        );
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

    fn cell(axis: Axis, line: (usize, usize), s: usize) -> [usize; 3] {
        match axis {
            Axis::X => [s, line.0, line.1],
            Axis::Y => [line.0, s, line.1],
            Axis::Z => [line.0, line.1, s],
        }
    }

    fn idx(&self, c: [usize; 3]) -> usize {
        (c[0] * self.n + c[1]) * self.n + c[2]
    }

    /// Apply one factor: `out = P_axis·u`.
    pub fn apply_factor(&self, axis: Axis, u: &VecField, out: &mut VecField) {
        let n = self.n;
        for a in 0..n {
            for b in 0..n {
                for s in 0..n {
                    let c = Self::cell(axis, (a, b), s);
                    let mut v = [0.0; 5];
                    for (comp, vc) in v.iter_mut().enumerate() {
                        let w = self.bands(c, axis, comp);
                        let mut acc = w[2] * u.data[self.idx(c)][comp];
                        if s >= 2 {
                            acc += w[0] * u.data[self.idx(Self::cell(axis, (a, b), s - 2))][comp];
                        }
                        if s >= 1 {
                            acc += w[1] * u.data[self.idx(Self::cell(axis, (a, b), s - 1))][comp];
                        }
                        if s + 1 < n {
                            acc += w[3] * u.data[self.idx(Self::cell(axis, (a, b), s + 1))][comp];
                        }
                        if s + 2 < n {
                            acc += w[4] * u.data[self.idx(Self::cell(axis, (a, b), s + 2))][comp];
                        }
                        *vc = acc;
                    }
                    out.data[self.idx(c)] = v;
                }
            }
        }
    }

    /// Solve one factor: banded Gaussian elimination (no pivoting — the
    /// bands are diagonally dominant) per line per component.
    pub fn solve_factor(&self, axis: Axis, rhs: &VecField) -> VecField {
        let n = self.n;
        let mut x = VecField::zeros(n);
        // Workspaces: the (running) upper bands and rhs per line.
        let mut du = vec![0.0f64; n]; // diagonal after elimination
        let mut c1 = vec![0.0f64; n]; // first superdiagonal
        let mut c2 = vec![0.0f64; n]; // second superdiagonal
        let mut r = vec![0.0f64; n];
        for a in 0..n {
            for b in 0..n {
                for comp in 0..5 {
                    // Load the line.
                    for s in 0..n {
                        let c = Self::cell(axis, (a, b), s);
                        let w = self.bands(c, axis, comp);
                        du[s] = w[2];
                        c1[s] = if s + 1 < n { w[3] } else { 0.0 };
                        c2[s] = if s + 2 < n { w[4] } else { 0.0 };
                        r[s] = rhs.data[self.idx(c)][comp];
                    }
                    // Forward elimination of the two subdiagonals, in
                    // band order: first fold row s−2 into the second
                    // subdiagonal (which fills into the first), then
                    // eliminate the (updated) first subdiagonal with
                    // row s−1.
                    for s in 0..n {
                        let c = Self::cell(axis, (a, b), s);
                        let w = self.bands(c, axis, comp);
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
                            v -= c1[s] * x.data[self.idx(Self::cell(axis, (a, b), s + 1))][comp];
                        }
                        if s + 2 < n {
                            v -= c2[s] * x.data[self.idx(Self::cell(axis, (a, b), s + 2))][comp];
                        }
                        x.data[self.idx(Self::cell(axis, (a, b), s))][comp] = v / du[s];
                    }
                }
            }
        }
        x
    }

    /// `M·u = Px(Py(Pz·u))`.
    pub fn apply(&self, u: &VecField, out: &mut VecField) {
        let mut t1 = VecField::zeros(self.n);
        let mut t2 = VecField::zeros(self.n);
        self.apply_factor(Axis::Z, u, &mut t1);
        self.apply_factor(Axis::Y, &t1, &mut t2);
        self.apply_factor(Axis::X, &t2, out);
    }

    /// Exact factored solve.
    pub fn solve(&self, b: &VecField) -> VecField {
        let t1 = self.solve_factor(Axis::X, b);
        let t2 = self.solve_factor(Axis::Y, &t1);
        self.solve_factor(Axis::Z, &t2)
    }
}

/// The SP benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Sp {
    class: Class,
}

impl Sp {
    /// New SP instance at a class.
    pub fn new(class: Class) -> Self {
        Self { class }
    }
}

impl NpbKernel for Sp {
    fn name(&self) -> &'static str {
        "SP"
    }

    fn class(&self) -> Class {
        self.class
    }

    fn run(&self) -> KernelResult {
        let (n, steps) = self.class.cfd_size();
        let sys = SpSystem { n };
        let base = manufactured(n);
        let mut worst = 0.0f64;
        let mut checksum = 0.0;
        let mut rhs = VecField::zeros(n);
        for step in 0..steps {
            let scale = 1.0 + 0.1 * (step as f64 * 0.4).cos();
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
                .flat_map(|(p, q)| p.iter().zip(q.iter()))
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            worst = worst.max(err / exact.rms().max(1e-30));
            checksum = u.rms();
        }
        let verified = worst < 1e-8;
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
        let sys = SpSystem { n: 9 };
        let u = manufactured(9);
        for axis in Axis::ALL {
            let mut b = VecField::zeros(9);
            sys.apply_factor(axis, &u, &mut b);
            let x = sys.solve_factor(axis, &b);
            let err: f64 = x
                .data
                .iter()
                .zip(&u.data)
                .flat_map(|(p, q)| p.iter().zip(q.iter()))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(err < 1e-9, "{axis:?}: err {err}");
        }
    }

    #[test]
    fn full_solve_inverts_full_operator() {
        let sys = SpSystem { n: 7 };
        let u = manufactured(7);
        let mut b = VecField::zeros(7);
        sys.apply(&u, &mut b);
        let x = sys.solve(&b);
        let err: f64 = x
            .data
            .iter()
            .zip(&u.data)
            .flat_map(|(p, q)| p.iter().zip(q.iter()))
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
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
        let r = Sp::new(Class::S).run();
        assert!(r.verified);
        assert!(r.mix.fdiv > 0);
    }
}
