//! Structure-of-arrays particle storage.

use crate::morton::{BoundingBox, Key};

/// The particle set, stored as parallel arrays (cache-friendly for the
//  force loops, and what the exchange layer serializes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bodies {
    /// Positions.
    pub pos: Vec<[f64; 3]>,
    /// Velocities.
    pub vel: Vec<[f64; 3]>,
    /// Masses.
    pub mass: Vec<f64>,
    /// Accelerations (filled by the force walk).
    pub acc: Vec<[f64; 3]>,
    /// Gravitational potential per body (filled by the force walk).
    pub pot: Vec<f64>,
}

impl Bodies {
    /// Empty set with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pos: Vec::with_capacity(n),
            vel: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
            acc: Vec::with_capacity(n),
            pot: Vec::with_capacity(n),
        }
    }

    /// Number of bodies.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True if there are no bodies.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Append one body (acceleration/potential zeroed).
    pub fn push(&mut self, pos: [f64; 3], vel: [f64; 3], mass: f64) {
        self.pos.push(pos);
        self.vel.push(vel);
        self.mass.push(mass);
        self.acc.push([0.0; 3]);
        self.pot.push(0.0);
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Center of mass.
    pub fn center_of_mass(&self) -> [f64; 3] {
        let m = self.total_mass();
        let mut c = [0.0; 3];
        for (p, &w) in self.pos.iter().zip(&self.mass) {
            for d in 0..3 {
                c[d] += w * p[d];
            }
        }
        for cd in &mut c {
            *cd /= m;
        }
        c
    }

    /// Morton keys of every body in `bb`.
    pub fn keys(&self, bb: &BoundingBox) -> Vec<Key> {
        self.pos.iter().map(|&p| bb.key_of(p)).collect()
    }

    /// Reorder bodies by a permutation (`order[i]` = old index of the body
    /// that lands at new index `i`).
    pub fn permute(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.len());
        self.pos = order.iter().map(|&i| self.pos[i]).collect();
        self.vel = order.iter().map(|&i| self.vel[i]).collect();
        self.mass = order.iter().map(|&i| self.mass[i]).collect();
        self.acc = order.iter().map(|&i| self.acc[i]).collect();
        self.pot = order.iter().map(|&i| self.pot[i]).collect();
    }

    /// Morton-sort bodies in `bb` (stably); returns the sorted keys and
    /// the permutation applied (as [`Bodies::permute`] takes it).
    pub fn sort_by_key(&mut self, bb: &BoundingBox) -> (Vec<Key>, Vec<usize>) {
        let keys = self.keys(bb);
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        self.permute(&order);
        let mut sorted: Vec<Key> = order.iter().map(|&i| keys[i]).collect();
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        sorted.shrink_to_fit();
        (sorted, order)
    }

    /// Extract the sub-population at `indices` (in order).
    pub fn select(&self, indices: &[usize]) -> Bodies {
        let mut out = Bodies::with_capacity(indices.len());
        for &i in indices {
            out.push(self.pos[i], self.vel[i], self.mass[i]);
        }
        out
    }

    /// Clear accumulated accelerations and potentials before a new walk.
    pub fn zero_forces(&mut self) {
        for a in &mut self.acc {
            *a = [0.0; 3];
        }
        for p in &mut self.pot {
            *p = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> Bodies {
        let mut b = Bodies::with_capacity(3);
        b.push([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0);
        b.push([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 3.0);
        b.push([0.0, 2.0, 0.0], [0.0, 0.0, 1.0], 4.0);
        b
    }

    #[test]
    fn mass_and_com() {
        let b = three();
        assert_eq!(b.total_mass(), 8.0);
        let c = b.center_of_mass();
        assert!((c[0] - 3.0 / 8.0).abs() < 1e-15);
        assert!((c[1] - 1.0).abs() < 1e-15);
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn permute_preserves_pairing() {
        let mut b = three();
        b.permute(&[2, 0, 1]);
        assert_eq!(b.pos[0], [0.0, 2.0, 0.0]);
        assert_eq!(b.mass[0], 4.0);
        assert_eq!(b.vel[0], [0.0, 0.0, 1.0]);
        assert_eq!(b.mass[1], 1.0);
    }

    #[test]
    fn sort_by_key_orders_keys() {
        let mut b = Bodies::with_capacity(32);
        // Deterministic scatter.
        for i in 0..32 {
            let x = (i as f64 * 0.37) % 1.0;
            let y = (i as f64 * 0.71) % 1.0;
            let z = (i as f64 * 0.13) % 1.0;
            b.push([x, y, z], [0.0; 3], 1.0);
        }
        let bb = BoundingBox::containing(&b.pos);
        let unsorted = b.clone();
        let (keys, order) = b.sort_by_key(&bb);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(unsorted.select(&order).pos, b.pos);
        // Keys recomputed from the sorted positions must match.
        assert_eq!(b.keys(&bb), keys);
    }

    #[test]
    fn select_extracts_in_order() {
        let b = three();
        let s = b.select(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mass, vec![4.0, 1.0]);
    }

    #[test]
    fn zero_forces_resets() {
        let mut b = three();
        b.acc[1] = [5.0, 5.0, 5.0];
        b.pot[2] = -3.0;
        b.zero_forces();
        assert!(b.acc.iter().all(|a| *a == [0.0; 3]));
        assert!(b.pot.iter().all(|&p| p == 0.0));
    }
}
