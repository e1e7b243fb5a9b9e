//! What the three CFD kernels share: grids of five-component cells,
//! 5×5 block algebra, the manufactured solution, and the approximately
//! factored ADI frame of BT and SP.
//!
//! BT and SP both invert `M = F_x·F_y·F_z`, a product of three 1-D
//! operators along grid lines ([`Axis`]); they differ only in what one
//! line's factor is (5×5 block-tridiagonal for BT, five scalar
//! pentadiagonals for SP). Everything else — the per-line coefficient
//! seed, the axis→cell map, applying `M` (Z, Y, X), solving it (X, Y, Z)
//! and the manufactured-solution verification — is written here once.

use std::ops::{Index, IndexMut};

use crate::common::splitmix;

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

    /// `A·B`, skipping the zero entries of `A`.
    pub(crate) fn matmul(a: &[f64; 25], b: &[f64; 25]) -> [f64; 25] {
        let mut out = [0.0; 25];
        for i in 0..B {
            for kk in 0..B {
                let av = a[i * B + kk];
                if av == 0.0 {
                    continue;
                }
                for j in 0..B {
                    out[i * B + j] += av * b[kk * B + j];
                }
            }
        }
        out
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

/// Grid of 5-vectors, indexed by cell `[i, j, k]`.
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

    /// RMS over all components.
    pub fn rms(&self) -> f64 {
        let s: f64 = self.data.iter().flat_map(|v| v.iter()).map(|x| x * x).sum();
        (s / (self.data.len() * 5) as f64).sqrt()
    }

    /// L2 distance to `other` over all components.
    pub(crate) fn dist(&self, other: &VecField) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .flat_map(|(a, b)| a.iter().zip(b.iter()))
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}

impl Index<[usize; 3]> for VecField {
    type Output = [f64; 5];

    fn index(&self, c: [usize; 3]) -> &[f64; 5] {
        &self.data[(c[0] * self.n + c[1]) * self.n + c[2]]
    }
}

impl IndexMut<[usize; 3]> for VecField {
    fn index_mut(&mut self, c: [usize; 3]) -> &mut [f64; 5] {
        &mut self.data[(c[0] * self.n + c[1]) * self.n + c[2]]
    }
}

/// Manufactured solution: smooth per-component field.
pub fn manufactured(n: usize) -> VecField {
    let mut u = VecField::zeros(n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let (x, y, z) = (
                    i as f64 / n as f64,
                    j as f64 / n as f64,
                    k as f64 / n as f64,
                );
                u[[i, j, k]] = [
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

    /// Cell `s` of the line whose two other coordinates are `line`.
    pub(crate) fn cell(self, line: (usize, usize), s: usize) -> [usize; 3] {
        match self {
            Axis::X => [s, line.0, line.1],
            Axis::Y => [line.0, s, line.1],
            Axis::Z => [line.0, line.1, s],
        }
    }

    /// Hash seed of coefficient set `which` of this axis' factor at
    /// cell `c`.
    pub(crate) fn seed(self, c: [usize; 3], which: u64) -> u64 {
        let [i, j, k] = c.map(|x| x as u64);
        splitmix(i << 42 | j << 21 | k | (self as u64) << 57 | which << 60)
    }
}

/// Every grid line of an `n³` grid along one axis, as the pair of
/// coordinates [`Axis::cell`] completes.
pub(crate) fn lines(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |a| (0..n).map(move |b| (a, b)))
}

/// An approximately factored operator `M = F_x·F_y·F_z` whose 1-D
/// factors are each solved exactly, line by line.
pub(crate) trait Factored {
    /// `out = F_axis·u`.
    fn apply_factor(&self, axis: Axis, u: &VecField, out: &mut VecField);

    /// Solve `F_axis·x = rhs`.
    fn solve_factor(&self, axis: Axis, rhs: &VecField) -> VecField;

    /// The full factored operator `M·u = F_x(F_y(F_z·u))`.
    fn apply(&self, u: &VecField, out: &mut VecField) {
        let mut t1 = VecField::zeros(u.n);
        let mut t2 = VecField::zeros(u.n);
        self.apply_factor(Axis::Z, u, &mut t1);
        self.apply_factor(Axis::Y, &t1, &mut t2);
        self.apply_factor(Axis::X, &t2, out);
    }

    /// Exact solve of the factored system `M·x = b`.
    fn solve(&self, b: &VecField) -> VecField {
        let t1 = self.solve_factor(Axis::X, b);
        let t2 = self.solve_factor(Axis::Y, &t1);
        self.solve_factor(Axis::Z, &t2)
    }
}

/// The benchmark loop of BT and SP on an `n³` grid: each step scales the
/// manufactured solution by `1 + 0.1·wave(step)`, builds its right-hand
/// side with `M` and solves it back. Verified when every step recovers
/// the field to a relative L2 error below 1e-8.
pub(crate) fn adi_verified(
    sys: &impl Factored,
    n: usize,
    steps: usize,
    wave: fn(f64) -> f64,
) -> bool {
    let base = manufactured(n);
    let mut worst = 0.0f64;
    let mut rhs = VecField::zeros(n);
    for step in 0..steps {
        let scale = 1.0 + 0.1 * wave(step as f64);
        let mut exact = base.clone();
        for x in exact.data.iter_mut().flatten() {
            *x *= scale;
        }
        sys.apply(&exact, &mut rhs);
        let u = sys.solve(&rhs);
        worst = worst.max(u.dist(&exact) / exact.rms().max(1e-30));
    }
    worst < 1e-8
}
