//! TCO, ToPPeR, performance/space and performance/power metrics from
//! *"Honey, I Shrunk the Beowulf!"* (ICPP 2002), §4.
//!
//! The paper's central argument is that price-performance should be judged
//! on the **total cost of ownership** rather than acquisition cost alone:
//!
//! ```text
//! TCO = AC + OC
//! AC  = HWC + SWC                         (hardware + software acquisition)
//! OC  = SAC + PCC + SCC + DTC             (sysadmin, power+cooling, space, downtime)
//! SAC = Σ labor costs + Σ recurring material costs
//! ```
//!
//! and defines **ToPPeR** (Total-Price-Performance Ratio) = TCO / performance,
//! plus the two "more concrete" metrics **performance/space** (Mflop/ft²)
//! and **performance/power** (Gflop/kW).
//!
//! [`costs`] carries the paper's cost catalog for five comparably-equipped
//! 24-node clusters (Alpha, Athlon, PIII, P4, TM5600); [`tco`] evaluates the
//! TCO equations from first-principles inputs (watts, square feet, failure
//! schedules); [`mod@topper`] computes the derived ratios; [`space`] models
//! footprints including the 240-node scale-up of footnote 5; [`report`]
//! renders the paper's exact table layouts.
//!
//! # Example
//!
//! ```
//! use mb_metrics::{perf_power_gflop_per_kw, price_performance, topper};
//!
//! // The paper's §4 arithmetic: acquisition price-performance can favor
//! // the traditional cluster while TCO-based ToPPeR favors the blades,
//! // and performance/power is where low-wattage nodes win outright.
//! let metablade = topper(211_000.0, 2.1); // $/Mflops on TCO
//! assert!(metablade > price_performance(89_000.0, 2.1));
//! assert!(perf_power_gflop_per_kw(2.1, 0.52) > perf_power_gflop_per_kw(2.1, 1.8));
//! ```

#![forbid(unsafe_code)]

pub mod costs;
pub mod report;
pub mod space;
pub mod tco;
pub mod topper;

pub use costs::{cluster_cost_catalog, ClusterCostProfile, ClusterFamily};
pub use space::{FootprintModel, Packaging};
pub use tco::{CostConstants, DowntimeModel, SysAdminModel, TcoBreakdown, TcoInputs};
pub use topper::{perf_power_gflop_per_kw, perf_space_mflop_per_ft2, price_performance, topper};
