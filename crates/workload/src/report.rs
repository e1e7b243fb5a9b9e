//! `metablade-stream/2` benchmark sections and histogram artifacts.
//!
//! The streaming suite ([`crate::pins::suite`]) returns one
//! `BENCH_stream*.json` document per size: a `scenarios` array where every entry carries simulated
//! quantities only (stream fingerprint, virtual makespan, per-class
//! admission counts and wait/slowdown percentiles — bit-exact under
//! every executor policy, on every host) and — when the scenario has a
//! queueing-theory twin — the M/G/k prediction next to the simulated
//! value. `cargo test` reruns the smoke document and requires it to
//! equal the committed copy (`tests/pins.rs` at the repo root).

use mb_sched::stream::{ClassReport, StreamReport};
use mb_telemetry::prof::LogHistogram;
use mb_telemetry::Json;

use crate::mgk::MgkPrediction;

/// Schema tag stamped into every `BENCH_stream*.json` document. `/2`
/// dropped the host-side fields (throughput, time stamp, host threads).
pub const STREAM_SCHEMA: &str = "metablade-stream/2";

/// An M/G/k prediction paired with what the simulator measured — the
/// validation record embedded in a scenario section.
#[derive(Debug, Clone, Copy)]
pub struct MgkComparison {
    /// Servers (`nodes / job width`).
    pub k: usize,
    /// Arrival rate, jobs per second.
    pub lambda: f64,
    /// Mean service time, seconds.
    pub service_s: f64,
    /// Squared coefficient of variation of service time.
    pub cs2: f64,
    /// The closed-form prediction.
    pub predicted: MgkPrediction,
    /// Simulated fleet utilization.
    pub simulated_rho: f64,
    /// Simulated mean queue wait, seconds.
    pub simulated_wq_s: f64,
}

impl MgkComparison {
    /// Relative error of the simulated mean wait against the
    /// Allen–Cunneen prediction.
    pub fn wq_rel_error(&self) -> f64 {
        (self.simulated_wq_s - self.predicted.wq_s).abs() / self.predicted.wq_s
    }

    /// Absolute utilization gap.
    pub fn rho_abs_error(&self) -> f64 {
        (self.simulated_rho - self.predicted.rho).abs()
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("k", Json::Num(self.k as f64)),
            ("lambda_per_s", Json::Num(self.lambda)),
            ("service_s", Json::Num(self.service_s)),
            ("cs2", Json::Num(self.cs2)),
            ("rho_predicted", Json::Num(self.predicted.rho)),
            ("rho_simulated", Json::Num(self.simulated_rho)),
            ("p_wait_predicted", Json::Num(self.predicted.p_wait)),
            ("wq_predicted_s", Json::Num(self.predicted.wq_s)),
            ("wq_simulated_s", Json::Num(self.simulated_wq_s)),
            ("wq_rel_error", Json::Num(self.wq_rel_error())),
        ])
    }
}

fn quantile_or_zero(h: &LogHistogram, q: f64) -> f64 {
    if h.is_empty() {
        0.0
    } else {
        h.quantile(q)
    }
}

/// One per-class row of a scenario section: admission counts and
/// wait/slowdown percentiles.
pub fn class_row(c: &ClassReport) -> Json {
    Json::obj([
        ("label", Json::str(c.label.clone())),
        ("offered", Json::Num(c.offered as f64)),
        ("admitted", Json::Num(c.admitted as f64)),
        ("shed", Json::Num(c.shed as f64)),
        ("completed", Json::Num(c.completed as f64)),
        (
            "wait_p50_s",
            Json::Num(quantile_or_zero(&c.wait_hist, 0.50)),
        ),
        (
            "wait_p90_s",
            Json::Num(quantile_or_zero(&c.wait_hist, 0.90)),
        ),
        (
            "wait_p99_s",
            Json::Num(quantile_or_zero(&c.wait_hist, 0.99)),
        ),
        (
            "mean_wait_s",
            Json::Num(if c.wait_hist.is_empty() {
                0.0
            } else {
                c.wait_hist.mean()
            }),
        ),
        (
            "slowdown_p50",
            Json::Num(quantile_or_zero(&c.slowdown_hist, 0.50)),
        ),
        (
            "slowdown_p99",
            Json::Num(quantile_or_zero(&c.slowdown_hist, 0.99)),
        ),
    ])
}

/// One scenario section of the stream document. Its
/// `identical_across_execs` is always `true`: no executor policy reaches
/// a stream (see [`crate::pins`]).
pub fn scenario_section(
    name: &str,
    pattern: &str,
    policy: &str,
    topology: &str,
    nodes: usize,
    rep: &StreamReport,
    mgk: Option<MgkComparison>,
) -> Json {
    Json::obj([
        ("name", Json::str(name.to_string())),
        ("pattern", Json::str(pattern.to_string())),
        ("policy", Json::str(policy.to_string())),
        ("topology", Json::str(topology.to_string())),
        ("nodes", Json::Num(nodes as f64)),
        ("offered", Json::Num(rep.offered as f64)),
        ("shed", Json::Num(rep.shed as f64)),
        (
            "stream_fingerprint",
            Json::str(rep.stream_fingerprint_hex()),
        ),
        ("makespan_s", Json::Num(rep.sim.makespan_s)),
        ("utilization", Json::Num(rep.sim.utilization)),
        ("identical_across_execs", Json::Bool(true)),
        (
            "classes",
            Json::Arr(rep.classes.iter().map(class_row).collect()),
        ),
        ("mgk", mgk.map(MgkComparison::to_json).unwrap_or(Json::Null)),
    ])
}

fn hist_buckets(h: &LogHistogram) -> Json {
    Json::Arr(
        h.occupied()
            .map(|(lo, hi, count)| {
                Json::Arr(vec![Json::Num(lo), Json::Num(hi), Json::Num(count as f64)])
            })
            .collect(),
    )
}

/// The per-class wait/slowdown histogram artifact for one scenario
/// (uploaded by CI): every occupied log-bucket of every class, as
/// `[lo, hi, count]` triples.
pub fn histogram_artifact(name: &str, rep: &StreamReport) -> Json {
    Json::obj([
        ("schema", Json::str("metablade-stream-hist/1")),
        ("scenario", Json::str(name.to_string())),
        (
            "classes",
            Json::Arr(
                rep.classes
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("label", Json::str(c.label.clone())),
                            ("wait_s", hist_buckets(&c.wait_hist)),
                            ("slowdown", hist_buckets(&c.slowdown_hist)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_row_handles_empty_histograms() {
        let c = ClassReport {
            label: "latency".into(),
            offered: 5,
            admitted: 3,
            shed: 2,
            completed: 0,
            wait_hist: LogHistogram::new(),
            slowdown_hist: LogHistogram::new(),
        };
        let row = class_row(&c);
        assert_eq!(row.get("offered").and_then(Json::as_f64), Some(5.0));
        assert_eq!(row.get("shed").and_then(Json::as_f64), Some(2.0));
        assert_eq!(row.get("wait_p99_s").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn mgk_comparison_reports_relative_error() {
        let cmp = MgkComparison {
            k: 6,
            lambda: 0.05,
            service_s: 60.0,
            cs2: 0.0,
            predicted: MgkPrediction {
                rho: 0.5,
                p_wait: 0.2,
                wq_s: 10.0,
            },
            simulated_rho: 0.52,
            simulated_wq_s: 12.0,
        };
        assert!((cmp.wq_rel_error() - 0.2).abs() < 1e-12);
        assert!((cmp.rho_abs_error() - 0.02).abs() < 1e-12);
        let j = cmp.to_json();
        assert_eq!(j.get("k").and_then(Json::as_f64), Some(6.0));
        assert!(j.get("wq_rel_error").and_then(Json::as_f64).unwrap() > 0.0);
    }
}
