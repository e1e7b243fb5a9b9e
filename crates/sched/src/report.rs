//! Reporting: Chrome-trace occupancy export, equal-TCO fleet sizing,
//! and the `BENCH_sched.json` policy rows.
//!
//! The headline comparison follows the paper's §4 logic one level up
//! the stack: instead of pricing sustained Mflops (ToPPeR), price
//! *delivered batch throughput*. A 24-node MetaBlade is compared
//! against the largest traditional Beowulf affordable at the same
//! total cost of ownership, replaying the same job stream on both and
//! reporting jobs/hour per $1K of TCO
//! ([`mb_metrics::topper::throughput_per_tco`]).

use mb_metrics::costs::{cluster_cost_catalog, ClusterFamily};
use mb_metrics::tco::{CostConstants, DowntimeModel, SysAdminModel, TcoInputs};
use mb_metrics::topper::throughput_per_tco;
use mb_telemetry::chrome::validate;
use mb_telemetry::Json;

use crate::engine::{OccSpan, SimReport};

/// Schema tag stamped into every `BENCH_sched.json` document.
/// `/4` dropped the time stamp and the host-thread count, leaving
/// simulated values only;
/// `/3` added per-section `placement`/`route_spread` fields and a
/// `max_contention_factor` column to each policy row (cross-job link
/// contention); `/2` added full wait/slowdown percentile columns
/// (`wait_p50_s` … `slowdown_p99`); `/1` rows carried means only.
pub const SCHEMA: &str = "metablade-sched/4";

/// Render per-node occupancy spans as Chrome trace-event JSON: one
/// track (`tid`) per node, one `"X"` duration event per job residency,
/// validated against the exporter contract before returning.
///
/// Load the result at `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn occupancy_chrome(spans: &[OccSpan], nodes: usize) -> String {
    let mut events: Vec<Json> = Vec::new();
    for node in 0..nodes {
        events.push(Json::obj([
            ("ph", Json::str("M")),
            ("name", Json::str("thread_name")),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(node as f64)),
            (
                "args",
                Json::obj([("name", Json::str(format!("node {node}")))]),
            ),
        ]));
    }
    // SimReport occupancy is sorted by (node, t0), which is exactly the
    // per-tid monotonic document order the validator requires.
    let mut sorted: Vec<&OccSpan> = spans.iter().collect();
    sorted.sort_by(|a, b| a.node.cmp(&b.node).then(a.t0_s.total_cmp(&b.t0_s)));
    for s in sorted {
        // Quantize to whole microseconds: integer-valued doubles make
        // `ts + dur` of one span exactly equal the next span's `ts` when
        // jobs run back-to-back, which float multiplication does not.
        let ts = (s.t0_s * 1e6).round();
        let dur = (s.t1_s * 1e6).round() - ts;
        events.push(Json::obj([
            ("ph", Json::str("X")),
            ("name", Json::str(format!("job {}", s.job))),
            ("cat", Json::str("job")),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(s.node as f64)),
            ("ts", Json::Num(ts)),
            ("dur", Json::Num(dur)),
            (
                "args",
                Json::obj([
                    ("job", Json::Num(s.job as f64)),
                    ("attempt", Json::Num(f64::from(s.attempt))),
                ]),
            ),
        ]));
    }
    let text = Json::Arr(events).to_string();
    if let Err(e) = validate(&text) {
        panic!("generated occupancy trace failed validation: {e}");
    }
    text
}

/// Render a run's cross-job link telemetry — per-link carried bytes,
/// hot-spot shared seconds, the sampled aggregate uplink rates and the
/// peak mean-field factor — as Chrome trace-event counter tracks (the
/// per-link hot-spot artifact CI uploads). Series samples keep their
/// own virtual timestamps; scalar metrics land at the document origin.
pub fn hotspot_chrome(report: &SimReport) -> String {
    mb_telemetry::chrome::export_with_metrics(&mb_telemetry::RunTrace::default(), &report.registry)
}

/// TCO of the paper's 24-node MetaBlade: the TM5600 column of Table 5
/// (`mb_metrics::costs::cluster_cost_catalog`, §4.1 inputs: $26K
/// acquisition, passive cooling, 6 ft², bladed admin and downtime) —
/// ≈ $35.3K over the four-year study life.
pub fn metablade_tco() -> f64 {
    cluster_cost_catalog()
        .iter()
        .find(|p| p.family == ClusterFamily::Tm5600)
        .expect("Table 5 has a TM5600 column")
        .inputs
        .evaluate(&CostConstants::default())
        .total()
}

/// TCO of an `n`-node traditional Beowulf, prorating the paper's
/// 24-node reference inputs ($17K hardware, $15K/yr admin, 20 ft²,
/// active cooling, whole-cluster outages) linearly in `n`. Prorating
/// the fixed per-cluster costs is what makes small equal-TCO fleets
/// comparable at all — a fixed $60K of admin would otherwise dwarf any
/// sub-cluster's budget.
pub fn traditional_tco(n: usize) -> f64 {
    assert!(n > 0, "fleet must have at least one node");
    let scale = n as f64 / 24.0;
    TcoInputs {
        name: format!("traditional-{n}"),
        n_nodes: n,
        hardware_cost: 17_000.0 * scale,
        software_cost: 0.0,
        node_watts_load: 48.0,
        active_cooling: true,
        footprint_ft2: 20.0 * scale,
        sysadmin: SysAdminModel {
            annual_cost: 15_000.0 * scale,
            ..SysAdminModel::traditional()
        },
        downtime: DowntimeModel::traditional(),
    }
    .evaluate(&CostConstants::default())
    .total()
}

/// Largest traditional fleet whose TCO fits under `budget_dollars`
/// (at least one node).
pub fn equal_tco_nodes(budget_dollars: f64) -> usize {
    let mut best = 1;
    for n in 1..=64 {
        if traditional_tco(n) <= budget_dollars {
            best = n;
        }
    }
    best
}

/// One policy's row of a `BENCH_sched.json` cluster section. Its
/// `identical_across_policies` is always `true`: no executor policy
/// reaches a schedule (see [`crate::pins`]).
pub fn policy_row(report: &SimReport, tco_dollars: f64) -> Json {
    Json::obj([
        ("policy", Json::str(report.policy)),
        ("makespan_s", Json::Num(report.makespan_s)),
        ("utilization", Json::Num(report.utilization)),
        ("mean_wait_s", Json::Num(report.mean_wait_s)),
        ("wait_p50_s", Json::Num(report.wait_hist.p50())),
        ("wait_p90_s", Json::Num(report.wait_hist.p90())),
        ("wait_p99_s", Json::Num(report.wait_hist.p99())),
        ("wait_max_s", Json::Num(report.wait_hist.max())),
        ("mean_slowdown", Json::Num(report.mean_slowdown)),
        ("slowdown_p50", Json::Num(report.slowdown_hist.p50())),
        ("slowdown_p90", Json::Num(report.slowdown_hist.p90())),
        ("slowdown_p99", Json::Num(report.slowdown_hist.p99())),
        ("jobs_per_hour", Json::Num(report.jobs_per_hour)),
        ("failures", Json::Num(f64::from(report.failures))),
        ("requeues", Json::Num(f64::from(report.requeues))),
        ("lost_work_s", Json::Num(report.lost_work_s)),
        (
            "jobs_per_hour_per_k_tco",
            Json::Num(throughput_per_tco(report.jobs_per_hour, tco_dollars)),
        ),
        (
            "max_contention_factor",
            Json::Num(report.max_contention_factor),
        ),
        ("fingerprint", Json::str(report.fingerprint_hex())),
        ("identical_across_policies", Json::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tco_matches_paper_scale() {
        let blade = metablade_tco();
        assert!(
            (34_000.0..37_000.0).contains(&blade),
            "MetaBlade TCO {blade}"
        );
        // The full 24-node traditional machine costs ~3× the blades
        // (the §4.1 headline), so the equal-TCO fleet is about a third
        // the size.
        assert!(traditional_tco(24) > 2.5 * blade);
        let n = equal_tco_nodes(blade);
        assert!((6..=10).contains(&n), "equal-TCO fleet size {n}");
        // Monotone in n.
        assert!(traditional_tco(9) > traditional_tco(8));
    }

    #[test]
    fn occupancy_trace_validates_and_tracks_nodes() {
        let spans = [
            OccSpan {
                node: 0,
                t0_s: 0.0,
                t1_s: 10.0,
                job: 3,
                attempt: 0,
            },
            OccSpan {
                node: 0,
                t0_s: 12.0,
                t1_s: 30.0,
                job: 4,
                attempt: 1,
            },
            OccSpan {
                node: 1,
                t0_s: 5.0,
                t1_s: 8.0,
                job: 3,
                attempt: 0,
            },
        ];
        let text = occupancy_chrome(&spans, 2);
        let summary = validate(&text).expect("trace must validate");
        assert_eq!(summary.events, 3);
        assert_eq!(summary.tracks, vec![0, 1]);
    }

    #[test]
    fn policy_row_carries_throughput_per_tco() {
        use crate::engine::{simulate, SchedConfig, ServiceModel};
        use crate::policy::Fcfs;
        use crate::workload::{generate, WorkloadConfig};
        use mb_cluster::Cluster;

        let cluster = Cluster::new(mb_cluster::spec::metablade());
        let service = ServiceModel::new(&cluster);
        let jobs = generate(&WorkloadConfig {
            jobs: 6,
            seed: 2,
            mean_interarrival_s: 120.0,
            max_ranks: 8,
        });
        let rep = simulate(&service, &Fcfs, &jobs, &SchedConfig::default());
        let row = policy_row(&rep, 35_000.0);
        let per_k = row
            .get("jobs_per_hour_per_k_tco")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((per_k - rep.jobs_per_hour / 35.0).abs() < 1e-9);
        assert_eq!(row.get("policy").unwrap().as_str(), Some("fcfs"));
        // Percentile columns are present, ordered, and consistent with
        // the report's histograms.
        let p50 = row.get("wait_p50_s").unwrap().as_f64().unwrap();
        let p90 = row.get("wait_p90_s").unwrap().as_f64().unwrap();
        let p99 = row.get("wait_p99_s").unwrap().as_f64().unwrap();
        let max = row.get("wait_max_s").unwrap().as_f64().unwrap();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max);
        assert_eq!(p99, rep.wait_hist.p99());
        assert!(row.get("slowdown_p50").unwrap().as_f64().unwrap() > 0.0);
        // Schema /3: the contention column rides along (1.0 on the
        // star, where nothing is ever shared).
        assert_eq!(
            row.get("max_contention_factor").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn hotspot_trace_carries_link_counters() {
        use crate::engine::{simulate, SchedConfig, ServiceModel};
        use crate::job::{JobSpec, WorkModel};
        use crate::policy::Fcfs;
        use mb_cluster::{Cluster, Topology};

        let spec = mb_cluster::spec::metablade()
            .with_nodes(16)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        let cluster = Cluster::new(spec);
        let service = ServiceModel::new(&cluster);
        let mk = |id: usize| JobSpec {
            id,
            submit_s: 0.0,
            ranks: 6,
            work: WorkModel::Synthetic {
                flops_per_step: 1e6,
                msg_kib: 64,
                rounds: 8,
                steps: 50,
            },
        };
        let rep = simulate(&service, &Fcfs, &[mk(0), mk(1)], &SchedConfig::default());
        let text = hotspot_chrome(&rep);
        validate(&text).expect("hot-spot trace must validate");
        assert!(text.contains("sched.link_bytes"));
        assert!(text.contains("sched.link_shared_s"));
        assert!(text.contains("sched.uplink_rate_Bps"));
        assert!(text.contains("sched.max_contention_factor"));
    }
}
