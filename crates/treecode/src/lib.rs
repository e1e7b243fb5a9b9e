//! Warren–Salmon hashed oct-tree N-body library — the treecode whose
//! "nearly 20,000 lines of code" the paper benchmarks (§3.5.1), rebuilt
//! in Rust.
//!
//! "N-body methods are widely used in a variety of computational physics
//! algorithms where long-range interactions are important. Several
//! proposed methods allow N-body simulations to be performed on arbitrary
//! collections of bodies in O(N) or O(N log N) time. These methods
//! represent a system of N bodies in a hierarchical manner by the use of a
//! spatial tree data structure" (§3.5.1, citing Warren & Salmon's parallel
//! hashed oct-tree algorithm, SC'93).
//!
//! Modules:
//!
//! * [`morton`] — space-filling-curve keys (the "hashed" part: bodies and
//!   cells are named by Morton keys, and the tree's cells sit in key order);
//! * [`body`] — structure-of-arrays particle storage;
//! * [`hot`] — the hashed oct-tree itself;
//! * [`build`] — tree construction from Morton-sorted bodies;
//! * [`moments`] — monopole + traceless quadrupole moments, bottom-up,
//!   and the two interaction kernels (p–p, p–c);
//! * [`mac`] — multipole acceptance criteria (Barnes–Hut opening angle);
//! * [`traverse`] — the force walk, eight bodies at a time over the
//!   tree's cells, with flop and interaction accounting;
//! * [`direct`] — O(N²) direct summation (accuracy baseline);
//! * [`integrate`] — leapfrog (KDK) integration and energy diagnostics;
//! * [`ic`] — initial conditions (Plummer sphere, uniform cube, two-body
//!   orbit, cold disk);
//! * [`decompose`] — Morton-ordered domain decomposition with cost zones;
//! * [`parallel`] — the distributed treecode over `mb-cluster`'s
//!   simulated Beowulf: locally-essential-tree exchange, per-rank walks,
//!   virtual-time accounting (this is what regenerates Table 2);
//! * [`flops`] — the flop-accounting constants behind the paper's Gflops
//!   numbers;
//! * [`render`] — Figure-3-style density projections (PGM / ASCII).
//!
//! # Example
//!
//! ```
//! use mb_treecode::{build_tree, direct_forces, plummer, tree_forces};
//! use mb_treecode::{BoundingBox, Mac};
//!
//! // Tree-walk forces on a small Plummer sphere agree with O(N²)
//! // direct summation to the multipole acceptance criterion's bound.
//! let mut bodies = plummer(256, 7);
//! let bb = BoundingBox::containing(&bodies.pos);
//! let tree = build_tree(&mut bodies, bb, 8);
//! tree_forces(&mut bodies, &tree, &Mac::standard(), 1e-4);
//! let approx = bodies.acc.clone();
//! direct_forces(&mut bodies, 1e-4);
//! let max_err = approx
//!     .iter()
//!     .zip(&bodies.acc)
//!     .map(|(t, d)| {
//!         let e: f64 = (0..3).map(|k| (t[k] - d[k]).powi(2)).sum();
//!         e.sqrt()
//!     })
//!     .fold(0.0, f64::max);
//! assert!(max_err < 0.1, "max |Δa| = {max_err}");
//! ```

#![forbid(unsafe_code)]
// Component/subscript loops over [f64; 3] vectors and Morton-ordered
// index ranges are the house style of this numerical kernel.
#![allow(clippy::needless_range_loop)]

pub mod body;
pub mod build;
pub mod decompose;
pub mod direct;
pub mod flops;
pub mod hot;
pub mod ic;
pub mod integrate;
pub mod mac;
pub mod moments;
pub mod morton;
pub mod parallel;
#[cfg(test)]
mod reference;
pub mod render;
pub mod traverse;

pub use body::Bodies;
pub use build::build_tree;
pub use direct::direct_forces;
pub use hot::{HashedOctTree, Node, NodeKind};
pub use ic::{cold_disk, plummer, two_body_circular, uniform_cube};
pub use integrate::{leapfrog_step, total_energy, Energies};
pub use mac::Mac;
pub use morton::{BoundingBox, Key};
pub use parallel::{distributed_evolve, distributed_step, DistributedConfig, StepReport};
pub use traverse::{tree_forces, WalkStats};
