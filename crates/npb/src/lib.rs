//! NAS Parallel Benchmarks 2.3-style kernels — the task-level workload of
//! the paper's Table 3.
//!
//! §3.4: "These benchmarks, based on Fortran 77 and the MPI standard,
//! approximate the performance that a typical user can expect for a
//! portable parallel program on a distributed memory computer":
//!
//! * **BT** — simulated CFD application solving block-tridiagonal systems
//!   of 5×5 blocks (ADI);
//! * **SP** — simulated CFD application solving scalar pentadiagonal
//!   systems (ADI);
//! * **LU** — simulated CFD application solving a block lower-triangular /
//!   block upper-triangular system (SSOR);
//! * **MG** — multigrid V-cycles on the 3-D scalar Poisson equation;
//! * **EP** — embarrassingly parallel Gaussian-pair generation;
//! * **IS** — parallel sort over small integers.
//!
//! [`Kernel`] names the six rows; each kernel module's `run(class)`
//! implements the benchmark's numerical method from scratch in Rust (EP
//! and IS follow the NPB specification exactly, including the NPB linear
//! congruential generator; the CFD solvers BT/SP/LU apply the specified
//! solver structure to synthetic systems with manufactured solutions —
//! see DESIGN.md for the substitution notes), verifies itself, and
//! returns an operation-mix profile ([`mb_crusoe::hardware::OpMix`])
//! which the era CPU models turn into the per-architecture Mop/s of
//! Table 3. BT and SP share one approximately factored ADI frame, and
//! all three CFD kernels one field type and block algebra ([`cfd`]).
//!
//! The kernels are transcribed from the Fortran NPB sources and keep
//! their index-style loops, where subscript arithmetic *is* the
//! algorithm (pivoting, stencils).
//!
//! # Example
//!
//! ```
//! use mb_npb::{Class, Kernel};
//!
//! // IS class S: the NPB integer sort at sample size, self-verified
//! // (full key-ranking check), returning the operation mix the era CPU
//! // models price into Mop/s.
//! let result = Kernel::Is.run(Class::S);
//! assert!(result.verified);
//! assert!(result.mix.total_ops() > 0);
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

pub mod bt;
pub mod cfd;
pub mod classes;
pub mod common;
pub mod ep;
pub mod is;
pub mod lu;
pub mod mg;
pub mod sp;

pub use classes::Class;

use mb_crusoe::hardware::OpMix;

/// Outcome of one kernel run.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Operation profile (feeds `HwCpu::estimate_kernel_mops`).
    pub mix: OpMix,
    /// Did the kernel's self-verification pass?
    pub verified: bool,
}

/// One NPB 2.3 kernel: a row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Block-tridiagonal ADI ([`bt`]).
    Bt,
    /// Scalar-pentadiagonal ADI ([`sp`]).
    Sp,
    /// SSOR on a block 7-point operator ([`lu`]).
    Lu,
    /// Multigrid V-cycles ([`mg`]).
    Mg,
    /// Gaussian pairs ([`ep`]).
    Ep,
    /// Integer sort ([`is`]).
    Is,
}

impl Kernel {
    /// Table 3's rows, in the paper's order.
    pub const ALL: [Kernel; 6] = [Self::Bt, Self::Sp, Self::Lu, Self::Mg, Self::Ep, Self::Is];

    /// Benchmark name as the paper prints it ("BT", …, "IS").
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Bt => "BT",
            Kernel::Sp => "SP",
            Kernel::Lu => "LU",
            Kernel::Mg => "MG",
            Kernel::Ep => "EP",
            Kernel::Is => "IS",
        }
    }

    /// Execute the kernel natively at `class`: operation mix plus
    /// self-verification.
    pub fn run(self, class: Class) -> KernelResult {
        match self {
            Kernel::Bt => bt::run(class),
            Kernel::Sp => sp::run(class),
            Kernel::Lu => lu::run(class),
            Kernel::Mg => mg::run(class),
            Kernel::Ep => ep::run(class),
            Kernel::Is => is::run(class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_the_paper_rows_in_order() {
        let names: Vec<_> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["BT", "SP", "LU", "MG", "EP", "IS"]);
    }
}
