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
//! Each kernel implements the benchmark's numerical method from scratch
//! in Rust (EP and IS follow the NPB specification exactly, including the
//! NPB linear congruential generator; the CFD solvers BT/SP/LU apply the
//! specified solver structure to synthetic systems with manufactured
//! solutions — see DESIGN.md for the substitution notes), verifies
//! itself, and returns an operation-mix profile
//! ([`mb_crusoe::hardware::OpMix`]) which the era CPU models turn into
//! the per-architecture Mop/s of Table 3.
//!
//! The kernels are transcribed from the Fortran NPB sources and keep
//! their index-style loops, where subscript arithmetic *is* the
//! algorithm (pivoting, stencils).
//!
//! # Example
//!
//! ```
//! use mb_npb::is::Is;
//! use mb_npb::{Class, NpbKernel};
//!
//! // IS class S: the NPB integer sort at sample size, self-verified
//! // (full key-ranking check), returning the operation mix the era CPU
//! // models price into Mop/s.
//! let result = Is::new(Class::S).run();
//! assert!(result.verified);
//! assert!(result.mix.total_ops() > 0);
//! ```

#![allow(clippy::needless_range_loop)]

pub mod bt;
pub mod classes;
pub mod common;
pub mod ep;
pub mod is;
pub mod lu;
pub mod mg;
pub mod mix;
pub mod sp;

pub use classes::Class;
pub use mix::{KernelResult, NpbKernel};
