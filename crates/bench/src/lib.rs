//! What the `metablade` front end runs: the one-shot [`studies`]
//! (`metablade ablation|extension|claims|trace`), the standard manifest
//! a traced treecode run produces, and the [`baseline`] suite behind
//! `metablade pins`, whose documents are the simulated-outcome pins
//! `BENCH_{cluster,treecode}[_smoke].json`.
//!
//! # Example
//!
//! ```
//! use mb_bench::baseline::{policies, SweepConfig};
//!
//! // The default baseline sweep: the paper's rank counts plus the
//! // executor-scaling points, under every executor policy (labels are
//! // the BENCH_*.json keys).
//! let cfg = SweepConfig::default();
//! assert_eq!(cfg.rank_counts, vec![1, 4, 8, 24, 128, 512, 1024]);
//! assert_eq!(cfg.treecode_rank_counts, vec![1, 4, 8, 24, 128]);
//! let labels: Vec<String> = policies().iter().map(|p| p.label()).collect();
//! assert_eq!(labels, ["seq", "w2", "w8", "unbounded"]);
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod studies;

use mb_cluster::power;
use mb_cluster::spec::ClusterSpec;
use mb_telemetry::manifest::RunManifest;
use mb_treecode::parallel::StepReport;

// Artifact placement lives in the telemetry layer so every crate shares
// the convention; re-exported for `metablade`.
pub use mb_telemetry::artifact::{artifact_dir, write_artifact};

/// Power samples recorded into a run manifest's `power.watts` series.
pub const POWER_SAMPLES: usize = 64;

/// The standard manifest of one distributed treecode step: per-rank
/// time summary, per-rank traffic counters, sampled power draw, and the
/// headline scalars.
pub fn treecode_manifest(run: &str, spec: &ClusterSpec, report: &StepReport) -> RunManifest {
    let mut m = RunManifest::new(run, spec.name.clone(), spec.nodes);
    m.summary = report.summary();
    let clocks: Vec<f64> = report.per_rank.iter().map(|r| r.clock_s).collect();
    power::record_into(&mut m.metrics, spec, &report.comm, &clocks, POWER_SAMPLES);
    for (rank, s) in report.comm.iter().enumerate() {
        let label = mb_telemetry::metrics::rank_label(rank);
        m.metrics.count("comm.sends", &label, s.sends);
        m.metrics.count("comm.bytes_sent", &label, s.bytes_sent);
    }
    m.note("gflops", report.gflops);
    m.note("makespan_s", report.makespan_s);
    m.note("total_flops", report.total_flops);
    m.note("load_imbalance", m.summary.load_imbalance());
    m
}
