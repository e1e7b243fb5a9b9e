//! `mb-workload` — streaming open-arrival job traffic at user scale.
//!
//! `mb-sched` answers "how does the machine serve a fixed batch of
//! jobs?"; this crate turns the batch replayer into a *service under
//! open load*. A seeded arrival process (Poisson, diurnal, or bursty —
//! or a parsed SWF trace) feeds [`mb_sched::simulate_stream`] lazily,
//! an SLO admission policy classifies or sheds each arrival, and a
//! calibrated closed-form [`CostModel`] prices job service times
//! without paying for an executor-backed SPMD simulation per step
//! pattern on the hot path — which is what lets a 10⁵–10⁶ job stream
//! run in CI time.
//!
//! * [`arrival`] — seeded open-arrival generators ([`OpenArrivals`])
//!   over the quantized [`JobMix`], plus the class-preserving
//!   pre-materialized [`ArrivalVec`];
//! * [`swf`] — a Standard Workload Format trace parser mapping archive
//!   records onto [`mb_sched::WorkModel`] shapes;
//! * [`admission`] — [`SloAdmission`]: latency/batch/scavenger classes
//!   with per-class queue limits, demotion, and load shedding;
//! * [`cost`] — the calibrated closed-form [`CostModel`] behind
//!   [`mb_sched::ServiceOracle`], with an exact price table keyed by
//!   step pattern, width and route class;
//! * [`mgk`] — Erlang-C / Allen–Cunneen M/G/k approximations the
//!   simulated wait times are validated against;
//! * [`report`] — `metablade-stream/2` benchmark sections and per-class
//!   histogram artifacts;
//! * [`pins`] — the streaming suite of `metablade pins`, which returns
//!   `BENCH_stream[_smoke].json`.
//!
//! The determinism contract carries over unchanged: every generator is
//! seeded, every admission decision is a pure function of its inputs,
//! and the [`CostModel`] calibrates against stackless step runs no
//! executor policy reaches — so a stream fingerprint is bit-identical on
//! every host and under every executor policy.
//!
//! # Example
//!
//! ```
//! use mb_sched::{simulate_stream, Fcfs, SchedConfig};
//! use mb_workload::{CostModel, JobMix, OpenArrivals, SloAdmission, TrafficPattern};
//!
//! let spec = mb_cluster::spec::metablade();
//! let mut cost = CostModel::new(spec.clone());
//! // The executor policy argument is not read.
//! cost.calibrate(&JobMix::standard(spec.nodes).patterns(), Default::default());
//! let mut src = OpenArrivals::new(
//!     TrafficPattern::Poisson { rate_per_s: 0.02 },
//!     JobMix::standard(spec.nodes),
//!     200,
//!     7,
//! );
//! let mut adm = SloAdmission::standard(spec.nodes);
//! let rep = simulate_stream(&cost, &Fcfs, &mut src, &mut adm, &SchedConfig::default());
//! assert_eq!(rep.offered, 200);
//! assert_eq!(rep.classes.len(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod arrival;
pub mod cost;
pub mod mgk;
pub mod pins;
pub mod report;
pub mod swf;

pub use admission::{ClassSpec, SloAdmission};
pub use arrival::{ArrivalVec, JobMix, OpenArrivals, TrafficPattern};
pub use cost::{CalibrationReport, CostModel};
pub use mgk::{erlang_c, mgk_wq_s, mmk_wq_s, MgkPrediction};
pub use report::{class_row, histogram_artifact, scenario_section, MgkComparison, STREAM_SCHEMA};
pub use swf::{parse_swf, SwfConfig, SwfTrace};
