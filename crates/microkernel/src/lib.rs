//! Gravitational microkernel benchmark from *"Honey, I Shrunk the Beowulf!"*
//! (Feng, Warren, Weigle — ICPP 2002), §3.2.
//!
//! The most time-consuming part of an N-body simulation is evaluating
//! particle accelerations,
//!
//! ```text
//! a_x = G * m_k * (x_j - x_k) / r^3,    r = |r_j - r_k|
//! ```
//!
//! and the slowest part of *that* is `r^{-3/2}` — the reciprocal square
//! root. The paper benchmarks two implementations:
//!
//! 1. **Math sqrt** — the straightforward `1.0 / x.sqrt()` using the math
//!    library / hardware square-root instruction;
//! 2. **Karp sqrt** — Karp's algorithm ("Speeding Up N-body Calculations on
//!    Machines Lacking a Hardware Square Root", Scientific Programming 1(2),
//!    1992): *table lookup, Chebyshev polynomial interpolation, and
//!    Newton–Raphson iteration*, which needs only adds and multiplies.
//!
//! This crate implements both in portable Rust and provides the
//! microkernel acceleration loop (500 sweeps, as in the paper) with its
//! flop accounting; host time is measured in one place, `benchmark/`. The
//! same kernels are re-expressed as guest-ISA programs in
//! `mb-crusoe::kernels` so they can be timed on the simulated Transmeta
//! CMS/VLIW processor and the hardware CPU models, which is how Table 1
//! of the paper is regenerated.
//!
//! # Example
//!
//! ```
//! use mb_microkernel::{rsqrt_karp, rsqrt_math};
//!
//! // Karp's adds-and-multiplies-only rsqrt agrees with the math library
//! // to working precision after its Newton–Raphson polish.
//! for x in [0.5, 1.0, 2.75, 1.0e6] {
//!     let exact = rsqrt_math(x);
//!     assert!((rsqrt_karp(x) - exact).abs() <= 1e-9 * exact);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod karp;
pub mod kernel;

pub use karp::{rsqrt_karp, rsqrt_math, KarpTable};
pub use kernel::{accel_kernel, AccelResult, MicrokernelInput, RsqrtMethod, FLOPS_PER_INTERACTION};
