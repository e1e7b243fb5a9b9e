//! Time integration (leapfrog KDK) and energy diagnostics.

use crate::body::Bodies;
use crate::build::build_tree;
use crate::direct::direct_forces;
use crate::flops::InteractionCounts;
use crate::mac::Mac;
use crate::morton::BoundingBox;
use crate::traverse::tree_forces;

/// Kinetic/potential energy snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Energies {
    /// Kinetic energy.
    pub kinetic: f64,
    /// Potential energy (pairwise, counted once).
    pub potential: f64,
}

impl Energies {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.potential
    }
}

/// Energies from current velocities and per-body potentials (the walk
/// stores Σⱼ −mⱼ/rᵢⱼ per body; pairwise potential is half the mass-
/// weighted sum).
pub fn total_energy(bodies: &Bodies) -> Energies {
    let kinetic = bodies
        .vel
        .iter()
        .zip(&bodies.mass)
        .map(|(v, &m)| 0.5 * m * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
        .sum();
    let potential = 0.5
        * bodies
            .pot
            .iter()
            .zip(&bodies.mass)
            .map(|(&p, &m)| m * p)
            .sum::<f64>();
    Energies { kinetic, potential }
}

/// Half a kick: `vel += 0.5·dt·acc`, body by body.
pub(crate) fn kick(vel: &mut [[f64; 3]], acc: &[[f64; 3]], dt: f64) {
    debug_assert_eq!(vel.len(), acc.len());
    for (v, a) in vel.iter_mut().zip(acc) {
        for d in 0..3 {
            v[d] += 0.5 * dt * a[d];
        }
    }
}

/// A drift: `pos += dt·vel`, body by body.
pub(crate) fn drift(pos: &mut [[f64; 3]], vel: &[[f64; 3]], dt: f64) {
    debug_assert_eq!(pos.len(), vel.len());
    for (x, v) in pos.iter_mut().zip(vel) {
        for d in 0..3 {
            x[d] += dt * v[d];
        }
    }
}

/// One kick-drift-kick leapfrog step using tree forces (rebuilds the tree
/// after the drift). `bodies.acc` must hold forces for the current
/// positions on entry (call a force routine once before the first step);
/// on exit it holds forces at the new positions. Returns the interaction
/// counts of the end-of-step force evaluation.
pub fn leapfrog_step(
    bodies: &mut Bodies,
    dt: f64,
    mac: &Mac,
    eps2: f64,
    leaf_capacity: usize,
) -> InteractionCounts {
    kick(&mut bodies.vel, &bodies.acc, dt);
    drift(&mut bodies.pos, &bodies.vel, dt);
    let bb = BoundingBox::containing(&bodies.pos);
    let tree = build_tree(bodies, bb, leaf_capacity);
    let stats = tree_forces(bodies, &tree, mac, eps2);
    kick(&mut bodies.vel, &bodies.acc, dt);
    stats.interactions
}

/// Same step with direct-summation forces (baseline / small N).
pub fn leapfrog_step_direct(bodies: &mut Bodies, dt: f64, eps2: f64) -> InteractionCounts {
    kick(&mut bodies.vel, &bodies.acc, dt);
    drift(&mut bodies.pos, &bodies.vel, dt);
    let counts = direct_forces(bodies, eps2);
    kick(&mut bodies.vel, &bodies.acc, dt);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ic::{plummer, two_body_circular};

    #[test]
    fn two_body_circular_orbit_closes() {
        let mut b = two_body_circular(1.0, 1.0, 1.0);
        let start = b.pos.clone();
        direct_forces(&mut b, 0.0);
        // Period T = 2π√(a³/M) = 2π/√2.
        let period = std::f64::consts::TAU / 2f64.sqrt();
        let steps = 2000;
        let dt = period / steps as f64;
        for _ in 0..steps {
            leapfrog_step_direct(&mut b, dt, 0.0);
        }
        for i in 0..2 {
            for d in 0..3 {
                assert!(
                    (b.pos[i][d] - start[i][d]).abs() < 2e-3,
                    "body {i} dim {d}: {} vs {}",
                    b.pos[i][d],
                    start[i][d]
                );
            }
        }
    }

    #[test]
    fn leapfrog_conserves_energy_on_plummer() {
        let mut b = plummer(400, 4);
        let eps2 = 1e-4;
        direct_forces(&mut b, eps2);
        let e0 = total_energy(&b);
        for _ in 0..50 {
            leapfrog_step(&mut b, 1e-3, &Mac::standard(), eps2, 8);
        }
        // Recompute potentials exactly for the energy check.
        let mut check = b.clone();
        direct_forces(&mut check, eps2);
        let e1 = total_energy(&check);
        let drift = ((e1.total() - e0.total()) / e0.total()).abs();
        assert!(drift < 5e-3, "relative energy drift {drift}");
    }

    #[test]
    fn energy_signs_are_physical_for_bound_systems() {
        let mut b = plummer(500, 6);
        direct_forces(&mut b, 0.0);
        let e = total_energy(&b);
        assert!(e.kinetic > 0.0);
        assert!(e.potential < 0.0);
        assert!(e.total() < 0.0, "a Plummer sphere is bound");
    }

    #[test]
    fn leapfrog_is_time_reversible() {
        let mut b = plummer(100, 8);
        let eps2 = 1e-4;
        direct_forces(&mut b, eps2);
        let start_pos = b.pos.clone();
        let dt = 1e-3;
        for _ in 0..10 {
            leapfrog_step_direct(&mut b, dt, eps2);
        }
        // Reverse velocities and step back.
        for v in &mut b.vel {
            for d in 0..3 {
                v[d] = -v[d];
            }
        }
        for _ in 0..10 {
            leapfrog_step_direct(&mut b, dt, eps2);
        }
        for (p, q) in b.pos.iter().zip(&start_pos) {
            for d in 0..3 {
                assert!((p[d] - q[d]).abs() < 1e-9, "{} vs {}", p[d], q[d]);
            }
        }
    }
}
