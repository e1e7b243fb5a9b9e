//! Multipole acceptance criteria.
//!
//! The classic Barnes–Hut opening-angle rule: a cell of side `s` at
//! distance `d` from the evaluation point may be replaced by its
//! multipole when `s/d < θ`. Smaller θ opens more cells — more accuracy,
//! more interactions (ablation A2 sweeps this trade-off).

/// The opening criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mac {
    /// Barnes–Hut opening angle θ.
    pub theta: f64,
    /// Evaluate quadrupole terms for accepted cells.
    pub quadrupole: bool,
}

impl Mac {
    /// The paper-era production setting: θ = 0.8 with quadrupoles.
    pub fn standard() -> Self {
        Mac {
            theta: 0.8,
            quadrupole: true,
        }
    }

    /// A conservative high-accuracy setting.
    pub fn accurate() -> Self {
        Mac {
            theta: 0.3,
            quadrupole: true,
        }
    }

    /// Accept a cell of side `size` whose center of mass lies at squared
    /// distance `dist2` from the evaluation point, with the center of
    /// mass displaced `delta` from the cell's geometric center?
    ///
    /// The criterion is the offset-corrected Barnes–Hut rule,
    /// `d > s/θ + δ` (Barnes 1994): the offset term protects against the
    /// pathological cells where the plain `s/d < θ` test misjudges
    /// distance because the mass sits in a corner.
    #[inline]
    pub fn accepts(&self, size: f64, delta: f64, dist2: f64) -> bool {
        self.crit2(size, delta) < dist2
    }

    /// The squared distance beyond which [`Mac::accepts`] accepts — a
    /// property of the cell alone, so the walks store it per cell and
    /// the test per visit is one compare.
    #[inline]
    pub fn crit2(&self, size: f64, delta: f64) -> f64 {
        let crit = size / self.theta + delta;
        crit * crit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_cells_accepted_near_cells_opened() {
        let mac = Mac::standard();
        assert!(mac.accepts(1.0, 0.0, 4.0)); // d=2 > s/θ = 1.25
        assert!(!mac.accepts(1.0, 0.0, 1.0)); // d=1 < 1.25
        assert!(!mac.accepts(1.0, 0.0, 0.0)); // point inside the cell
    }

    #[test]
    fn offset_makes_the_test_stricter() {
        let mac = Mac::standard();
        // d = 1.5: accepted with centered mass, opened when the center of
        // mass sits half a cell off-center.
        assert!(mac.accepts(1.0, 0.0, 2.25));
        assert!(!mac.accepts(1.0, 0.5, 2.25));
    }

    #[test]
    fn smaller_theta_is_stricter() {
        let loose = Mac {
            theta: 1.0,
            quadrupole: false,
        };
        let tight = Mac {
            theta: 0.3,
            quadrupole: false,
        };
        // s/d = 0.5: loose accepts, tight opens.
        assert!(loose.accepts(1.0, 0.0, 4.0));
        assert!(!tight.accepts(1.0, 0.0, 4.0));
    }
}
