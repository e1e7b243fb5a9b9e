//! Plain-text per-run summaries: where did the time go, per rank?
//!
//! The summary is computed from per-rank time splits (compute / comm /
//! blocked seconds against each rank's final clock) — available from
//! the communicator's running statistics even when full span tracing is
//! off. It reports the paper-relevant aggregates: load imbalance (the
//! quantity Table 2's efficiency drop-off is made of) and the critical
//! path (the busy time of the busiest rank — a lower bound on the
//! makespan any rebalancing could reach).

use crate::json::Json;

/// One rank's time split, virtual seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankTime {
    /// Useful CPU seconds (`compute`).
    pub compute_s: f64,
    /// Seconds the CPU was busy driving communication (send + recv
    /// overheads).
    pub comm_s: f64,
    /// Seconds blocked waiting for messages.
    pub blocked_s: f64,
    /// The rank's final virtual clock.
    pub total_s: f64,
}

impl RankTime {
    /// Busy seconds: everything but blocking.
    pub fn busy_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }
}

/// Whole-run summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Per-rank splits, indexed by rank.
    pub ranks: Vec<RankTime>,
    /// Job wall-clock: the slowest rank's clock, seconds.
    pub makespan_s: f64,
}

impl RunSummary {
    /// Build from per-rank splits.
    pub fn new(ranks: Vec<RankTime>) -> Self {
        let makespan_s = ranks.iter().map(|r| r.total_s).fold(0.0, f64::max);
        RunSummary { ranks, makespan_s }
    }

    /// Load imbalance in `[0, 1)`: `1 − mean(busy) / max(busy)`. Zero
    /// means perfectly balanced; 0.5 means the average rank did half the
    /// work of the busiest.
    pub fn load_imbalance(&self) -> f64 {
        let max = self.ranks.iter().map(RankTime::busy_s).fold(0.0, f64::max);
        if max <= 0.0 || self.ranks.is_empty() {
            return 0.0;
        }
        let mean: f64 =
            self.ranks.iter().map(RankTime::busy_s).sum::<f64>() / self.ranks.len() as f64;
        1.0 - mean / max
    }

    /// Critical path: the busiest rank's busy seconds — no decomposition
    /// of this work onto other ranks could finish the job faster.
    pub fn critical_path_s(&self) -> f64 {
        self.ranks.iter().map(RankTime::busy_s).fold(0.0, f64::max)
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Run summary (virtual time)\n");
        s.push_str(&format!(
            "{:>5}{:>14}{:>12}{:>12}{:>12}{:>8}\n",
            "rank", "compute (s)", "comm (s)", "blocked(s)", "total (s)", "busy%"
        ));
        for (rank, r) in self.ranks.iter().enumerate() {
            let busy_pct = if r.total_s > 0.0 {
                100.0 * r.busy_s() / r.total_s
            } else {
                0.0
            };
            s.push_str(&format!(
                "{:>5}{:>14.6}{:>12.6}{:>12.6}{:>12.6}{:>7.1}%\n",
                rank, r.compute_s, r.comm_s, r.blocked_s, r.total_s, busy_pct
            ));
        }
        s.push_str(&format!(
            "makespan {:.6} s · critical path {:.6} s · load imbalance {:.1}%\n",
            self.makespan_s,
            self.critical_path_s(),
            100.0 * self.load_imbalance()
        ));
        s
    }

    /// JSON form (embedded in run manifests).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("makespan_s", Json::Num(self.makespan_s)),
            ("critical_path_s", Json::Num(self.critical_path_s())),
            ("load_imbalance", Json::Num(self.load_imbalance())),
            (
                "ranks",
                Json::Arr(
                    self.ranks
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("compute_s", Json::Num(r.compute_s)),
                                ("comm_s", Json::Num(r.comm_s)),
                                ("blocked_s", Json::Num(r.blocked_s)),
                                ("total_s", Json::Num(r.total_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(compute: f64, comm: f64, blocked: f64) -> RankTime {
        RankTime {
            compute_s: compute,
            comm_s: comm,
            blocked_s: blocked,
            total_s: compute + comm + blocked,
        }
    }

    #[test]
    fn balanced_run_has_zero_imbalance() {
        let s = RunSummary::new(vec![rt(1.0, 0.1, 0.0); 4]);
        assert!(s.load_imbalance().abs() < 1e-12);
        assert!((s.makespan_s - 1.1).abs() < 1e-12);
        assert!((s.critical_path_s() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn imbalance_measures_idle_ranks() {
        // One rank does all the work; three wait. mean/max = 1/4.
        let s = RunSummary::new(vec![
            rt(4.0, 0.0, 0.0),
            rt(0.0, 0.0, 4.0),
            rt(0.0, 0.0, 4.0),
            rt(0.0, 0.0, 4.0),
        ]);
        assert!((s.load_imbalance() - 0.75).abs() < 1e-12);
        assert!((s.critical_path_s() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = RunSummary::new(Vec::new());
        assert_eq!(s.load_imbalance(), 0.0);
        assert_eq!(s.makespan_s, 0.0);
    }

    #[test]
    fn render_mentions_every_rank_and_the_aggregates() {
        let s = RunSummary::new(vec![rt(1.0, 0.5, 0.25), rt(2.0, 0.5, 0.0)]);
        let text = s.render();
        assert!(text.contains("rank"));
        assert!(text.contains("makespan"));
        assert!(text.contains("load imbalance"));
        assert_eq!(text.lines().count(), 2 + 2 + 1, "header, 2 ranks, footer");
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let s = RunSummary::new(vec![rt(1.0, 0.5, 0.25)]);
        let doc = crate::json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(doc.get("makespan_s").unwrap().as_f64(), Some(1.75));
        assert_eq!(doc.get("ranks").unwrap().as_arr().unwrap().len(), 1);
    }
}
