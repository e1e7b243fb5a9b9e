//! What `BENCHMARK.json` declares: the workload names, the end-to-end
//! metrics with their regression bounds, and the per-layer metric names.
//! The file is compiled in, so the runner can refuse to print a metric
//! the contract does not know and `--compare` can apply the bounds.

use mb_telemetry::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Declared {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn metric_list(doc: &Json, key: &str) -> Vec<MetricDecl> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
                    .to_string()
            };
            MetricDecl {
                name: field("name"),
                unit: field("unit"),
                higher_is_better: field("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Declared {
    /// Parse the compiled-in `BENCHMARK.json`. Panics on a malformed
    /// file: that is a defect of this package, caught by its tests.
    pub fn load() -> Declared {
        let doc = mb_telemetry::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json: `workloads` must be a list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Declared {
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: `run_seconds` must be a number"),
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
        }
    }
}

/// Per-layer counters that are simulated quantities or exact counts
/// without `sim_` in their name. Together with every `sim_` metric
/// they must be identical between two runs of the same seed.
const EXACT_COUNTERS: [&str; 18] = [
    "treecode.interactions_pp",
    "treecode.interactions_pc",
    "treecode.msgs_per_step",
    "treecode.bytes_per_step",
    "sched.offered",
    "sched.shed",
    "sched.completed",
    "sched.failures",
    "sched.requeues",
    "sched.links_tracked",
    "workload.cost.memo_hits",
    "workload.cost.memo_misses",
    "workload.cost.memo_len",
    "crusoe.interp_insns",
    "crusoe.translated_insns",
    "crusoe.translations",
    "crusoe.chained_entries",
    "crusoe.tcache_hit_ratio",
];

/// True for metrics that repeat bit for bit: reported, compared for
/// equality, never gated by a bound.
pub fn is_exact(name: &str) -> bool {
    name.contains("sim_") || EXACT_COUNTERS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn the_contract_file_declares_the_six_workloads_and_the_bounded_metrics() {
        let d = Declared::load();
        assert_eq!(d.workloads.len(), 6);
        for w in &d.workloads {
            assert!(crate::workloads::build(w, 1, Scale::Smoke).is_some(), "{w}");
        }
        assert!(crate::workloads::build("no_such_workload", 1, Scale::Smoke).is_none());
        let names: Vec<&str> = d.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["units_per_s", "setup_s", "peak_rss_mb"]);
        for m in &d.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(d.per_layer.len() <= 128);
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let mut sorted: Vec<&String> = d.per_layer.iter().map(|m| &m.name).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), d.per_layer.len(), "duplicate metric name");
    }

    #[test]
    fn every_exact_counter_is_a_declared_per_layer_metric() {
        let d = Declared::load();
        for name in EXACT_COUNTERS {
            assert!(d.per_layer.iter().any(|m| m.name == name), "{name}");
        }
        assert!(is_exact("treecode.sim_gflops"));
        assert!(!is_exact("treecode.step_s_p50"));
    }
}
