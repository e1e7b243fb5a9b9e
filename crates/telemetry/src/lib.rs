//! `mb-telemetry` — cluster-wide observability for the MetaBlade
//! simulator.
//!
//! The paper's headline claims (Tables 4–7, Figure 3) hinge on *where
//! time and watts go*: compute vs. communication per rank, translated
//! vs. interpreted atoms in the Crusoe CMS, power draw under load. This
//! crate is the one place all of that flows through:
//!
//! * [`metrics`] — a registry of counters, gauges, histograms and
//!   sampled series, labelled per rank/node, with cheap index handles;
//! * [`trace`] — virtual-time span tracing: [`trace::SpanEvent`]s
//!   collected per rank into a [`trace::RunTrace`]; `mb-cluster`'s
//!   communicator buffers sends, receives, computes and every collective
//!   on a traced rank, and is a no-op on an untraced one;
//! * [`prof`] — **host-time** profiling: the one log-bucketed
//!   (HDR-style) histogram with `p50/p90/p99/p999` queries — strictly
//!   separated from the virtual-time spans so instrumenting the
//!   simulator can never perturb a simulated outcome;
//! * [`chrome`] — Chrome `trace_event` JSON export (one track per rank,
//!   loadable in Perfetto / `chrome://tracing`) plus a validating
//!   re-parser;
//! * [`summary`] — plain-text per-run reports: per-rank compute / comm
//!   / blocked seconds, load imbalance, critical path;
//! * [`manifest`] — the machine-readable run manifest JSON emitted by
//!   the experiment binaries;
//! * [`json`] — the dependency-free JSON writer/parser underneath the
//!   exporters;
//! * [`artifact`] — the artifact directory convention
//!   (`$MB_TELEMETRY_DIR` or `./traces`) and collision-free artifact
//!   filenames (run ids embedding time, pid and a sequence number) so
//!   concurrent runs sharing one artifact directory never overwrite each
//!   other;
//! * [`fnv`] — the FNV-1a outcome fingerprinter shared by the benchmark
//!   harness and the `mb-sched` determinism checks.
//!
//! The crate deliberately has **no dependencies** (std only) and no
//! knowledge of the simulator's types: `mb-cluster`, `mb-crusoe` and
//! the drivers adapt their own statistics into these structures, so the
//! telemetry layer can never create a dependency cycle.
//!
//! # Example
//!
//! ```
//! use mb_telemetry::{Json, Registry};
//!
//! // Count per-rank events into a registry …
//! let mut reg = Registry::new();
//! reg.count("comm.sends", "rank=0", 3);
//! reg.count("comm.sends", "rank=0", 2);
//! assert_eq!(reg.counter_value("comm.sends", "rank=0"), Some(5));
//!
//! // … and round-trip a document through the built-in JSON layer.
//! let doc = Json::obj([("sends", Json::Num(5.0))]);
//! assert_eq!(mb_telemetry::json::parse(&doc.to_string()), Ok(doc));
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod chrome;
pub mod fnv;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod prof;
pub mod summary;
pub mod trace;

pub use fnv::Fnv;
pub use json::Json;
pub use manifest::RunManifest;
pub use metrics::{MetricHandle, MetricValue, Registry};
pub use prof::LogHistogram;
pub use summary::{RankTime, RunSummary};
pub use trace::{RunTrace, SpanEvent, SpanKind};
