//! # metablade — *"Honey, I Shrunk the Beowulf!"* reproduced in Rust
//!
//! Umbrella crate for the reproduction of Feng, Warren & Weigle's ICPP 2002
//! Bladed-Beowulf paper. It re-exports the workspace crates so examples and
//! integration tests can exercise the whole system through one façade:
//!
//! * [`core`] (`mb-core`) — cluster catalog, experiment drivers, report rendering;
//! * [`treecode`] (`mb-treecode`) — Warren–Salmon hashed oct-tree N-body library;
//! * [`crusoe`] (`mb-crusoe`) — Transmeta Crusoe CMS/VLIW simulator and
//!   hardware-CPU comparison models;
//! * [`cluster`] (`mb-cluster`) — virtual-time Beowulf cluster + network simulator;
//! * [`npb`] (`mb-npb`) — NAS Parallel Benchmark kernels;
//! * [`microkernel`] (`mb-microkernel`) — gravitational rsqrt microkernel;
//! * [`metrics`] (`mb-metrics`) — TCO / ToPPeR / perf-space / perf-power models;
//! * [`telemetry`] (`mb-telemetry`) — metrics registry, span tracing, Chrome export;
//! * [`sched`] (`mb-sched`) — deterministic batch workload manager (FCFS /
//!   EASY backfill / SJF) replaying multi-job traffic on the simulated cluster;
//! * [`workload`] (`mb-workload`) — streaming open-arrival traffic, SLO
//!   admission and the calibrated cost model;
//! * [`mod@bench`] (`mb-bench`) — the studies `metablade` dispatches and
//!   the cluster/treecode pin suite with its job bodies, exposed so
//!   integration tests can pin simulated outcomes against the committed
//!   `BENCH_*.json` fingerprints.
//!
//! The three pin suites — `bench::baseline::suite`, `sched::pins::suite`,
//! `workload::pins::suite` — are what `metablade pins` writes and what
//! `tests/pins.rs` compares against the committed smoke documents.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the full system
//! inventory and per-experiment index.
//!
//! # Example
//!
//! ```
//! // One façade over the whole reproduction: run an SPMD job on a
//! // 4-node slice of the simulated MetaBlade.
//! let spec = metablade::cluster::spec::metablade().with_nodes(4);
//! use metablade::cluster::Comm;
//! let out = metablade::cluster::Cluster::new(spec).run(|comm: &mut Comm| comm.rank());
//! assert_eq!(out.results, vec![0, 1, 2, 3]);
//! assert!(out.makespan_s() >= 0.0);
//! ```

#![forbid(unsafe_code)]

pub use mb_bench as bench;
pub use mb_cluster as cluster;
pub use mb_core as core;
pub use mb_crusoe as crusoe;
pub use mb_metrics as metrics;
pub use mb_microkernel as microkernel;
pub use mb_npb as npb;
pub use mb_sched as sched;
pub use mb_telemetry as telemetry;
pub use mb_treecode as treecode;
pub use mb_workload as workload;
