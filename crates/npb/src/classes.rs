//! NPB problem classes: S (sample), W (workstation — the class the paper
//! reports in Table 3), and A.

use std::fmt;

/// NPB problem class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Sample size (quick self-tests).
    S,
    /// Workstation size — what Table 3 measures.
    W,
    /// The smallest "real" size.
    A,
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::S => write!(f, "S"),
            Class::W => write!(f, "W"),
            Class::A => write!(f, "A"),
        }
    }
}

impl Class {
    /// EP: log₂ of the number of Gaussian pairs (NPB 2.3: S=24, W=25, A=28).
    pub fn ep_log2_pairs(self) -> u32 {
        match self {
            Class::S => 24,
            Class::W => 25,
            Class::A => 28,
        }
    }

    /// IS: (number of keys, key range) — NPB 2.3: S=(2^16, 2^11),
    /// W=(2^20, 2^16), A=(2^23, 2^19).
    pub fn is_size(self) -> (usize, usize) {
        match self {
            Class::S => (1 << 16, 1 << 11),
            Class::W => (1 << 20, 1 << 16),
            Class::A => (1 << 23, 1 << 19),
        }
    }

    /// MG: (grid edge, V-cycle iterations) — NPB 2.3: S=(32,4), W=(64,40),
    /// A=(256,4).
    pub fn mg_size(self) -> (usize, usize) {
        match self {
            Class::S => (32, 4),
            Class::W => (64, 40),
            Class::A => (256, 4),
        }
    }

    /// BT/SP/LU: (grid edge, time steps). NPB 2.3 uses S=(12,60),
    /// W=(24,200 for SP/BT; 33³ for LU), A=(64,200). We use one shared
    /// geometry per class for the three CFD kernels; the step counts are
    /// scaled to keep the single-CPU runs tractable while preserving the
    /// operation mix (documented in EXPERIMENTS.md).
    pub fn cfd_size(self) -> (usize, usize) {
        match self {
            Class::S => (12, 20),
            Class::W => (24, 60),
            Class::A => (64, 120),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_grow_monotonically() {
        assert!(Class::S.ep_log2_pairs() < Class::W.ep_log2_pairs());
        assert!(Class::W.ep_log2_pairs() < Class::A.ep_log2_pairs());
        assert!(Class::S.is_size().0 < Class::W.is_size().0);
        assert!(Class::S.mg_size().0 < Class::W.mg_size().0);
        assert!(Class::S.cfd_size().0 < Class::W.cfd_size().0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Class::W.to_string(), "W");
        assert_eq!(Class::S.to_string(), "S");
        assert_eq!(Class::A.to_string(), "A");
    }
}
