//! MetaBlade core — the paper's contribution as a library.
//!
//! `mb-core` ties the substrates together: the cluster catalog
//! (`mb-cluster`), the Crusoe and hardware-CPU models (`mb-crusoe`), the
//! treecode (`mb-treecode`), the NPB kernels (`mb-npb`) and the TCO
//! metrics (`mb-metrics`) — and exposes one driver per paper artifact:
//!
//! * [`experiments::table1`] — gravitational microkernel Mflops;
//! * [`experiments::table2`] — N-body scalability on MetaBlade;
//! * [`experiments::table3`] — NPB class-W single-CPU Mop/s;
//! * [`experiments::table4`] — historical treecode placing;
//! * [`experiments::table67_machines`] (with `mb_metrics::report`'s
//!   renderers for Tables 5–7) — TCO, performance/space, performance/power;
//! * [`experiments::figure3`] — the N-body density image;
//! * [`experiments::sustained_gflops`] — the §3.3 2.1-Gflops/14%-of-peak
//!   headline run.
//!
//! [`history`] carries the Table 4 machine records; [`report`] renders
//! every table in the paper's layout.
//!
//! # Example
//!
//! ```
//! // Table 4: the historical treecode ladder with the MetaBlade rows
//! // added from the calibrated sustained rate, sorted by per-CPU Mflops.
//! let rows = mb_core::experiments::table4();
//! assert!(rows.iter().any(|r| r.machine.contains("MetaBlade")));
//! assert!(rows
//!     .windows(2)
//!     .all(|w| w[0].mflops_per_proc() >= w[1].mflops_per_proc()));
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod history;
pub mod report;
