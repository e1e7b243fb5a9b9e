//! `mb-sched` — a batch workload manager for the simulated cluster.
//!
//! The lower layers answer "how fast does *one* job run on this
//! machine?"; this crate answers the operator's question one level up:
//! *how much multi-job traffic does the machine serve, under which
//! scheduling policy, at what cost?* A seeded stream of job submissions
//! (treecode steps, NPB-style kernels, synthetic flops/comm mixes) is
//! driven through a deterministic virtual-time event loop that
//! allocates node subsets of the cluster, injects node failures from
//! the paper's thermal failure law, and charges Young/Daly
//! checkpoint/restart costs for the work lost.
//!
//! * [`job`] — job specs and step-shaped [`WorkModel`]s lowered onto
//!   the cluster communicator;
//! * [`workload`] — the seeded generator ([`generate`]), the
//!   standard 200-job acceptance stream ([`standard`]) and the
//!   comm-heavy placement-contrast stream ([`comm_heavy`]);
//! * [`policy`] — [`Fcfs`], [`EasyBackfill`] and [`Sjf`] behind the
//!   [`SchedPolicy`] trait;
//! * [`engine`] — the event loop ([`simulate`] / [`simulate_stream`]:
//!   one private state machine, one handler per event kind), the
//!   memoizing [`ServiceModel`] behind the [`ServiceOracle`] trait, and
//!   failure/checkpoint accounting;
//! * [`stream`] — open-arrival sources and SLO admission control
//!   behind [`simulate_stream`] (the closed batch is the degenerate
//!   single-class stream);
//! * [`report`] — Chrome-trace occupancy export, equal-TCO fleet
//!   sizing, and `BENCH_sched.json` rows;
//! * [`pins`] — the scheduler suite of `metablade pins`, which returns
//!   `BENCH_sched[_smoke].json`.
//!
//! The determinism contract (DESIGN.md §10): a [`SimReport`]'s
//! fingerprint is bit-identical for a given (cluster spec, workload,
//! policy, config) on every host and under every `MB_PARALLEL` setting —
//! the event loop is pure, and per-job service times come from
//! [`WorkModel::run_step`], a stackless body [`mb_cluster::Cluster::run_on`]
//! polls on the calling thread whatever the executor policy.
//!
//! # Example
//!
//! ```
//! use mb_cluster::Cluster;
//! use mb_sched::{generate, simulate, EasyBackfill, SchedConfig, ServiceModel, WorkloadConfig};
//!
//! let cluster = Cluster::new(mb_cluster::spec::metablade());
//! let service = ServiceModel::new(&cluster);
//! let jobs = generate(&WorkloadConfig {
//!     jobs: 8,
//!     seed: 1,
//!     mean_interarrival_s: 120.0,
//!     max_ranks: 8,
//! });
//! let report = simulate(&service, &EasyBackfill, &jobs, &SchedConfig::default());
//! assert_eq!(report.jobs.len(), 8);
//! assert!(report.utilization > 0.0 && report.utilization <= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod job;
pub mod pins;
pub mod policy;
mod queue;
pub mod report;
pub mod stream;
pub mod workload;

pub use engine::{
    simulate, simulate_stream, try_simulate_stream, FailureConfig, OccSpan, Placement, SchedConfig,
    ServiceModel, ServiceOracle, SimReport, StepProfile,
};
pub use job::{JobRecord, JobSpec, NpbKernel, WorkModel};
pub use policy::{EasyBackfill, Fcfs, PolicyCtx, QueuedJob, RunningJob, SchedPolicy, Sjf};
pub use stream::{
    AdmissionControl, AdmissionCtx, AdmitAll, Arrival, ArrivalSource, ClassReport, SchedDeadlock,
    StreamReport, VecArrivals,
};
pub use workload::{comm_heavy, generate, standard, WorkloadConfig};
