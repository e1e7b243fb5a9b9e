//! `exec_metablade24` and `exec_scale` — the SPMD executor under the
//! three `mb_bench::baseline` job bodies.
//!
//! At 24 ranks the ready heap is tiny and per-message `cluster.comm`
//! cost dominates: the regime `ServiceModel` and calibration live in.
//! At 1024 ranks `cluster.event` admission, wake-ups and the thread per
//! rank dominate: where ROADMAP's "flat cost per event" work must show.
//! A change that helps one must not cost the other, so they are two
//! workloads over the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use mb_bench::baseline::{allreduce_job, fingerprint_outcome, imbalance_job, ring_job};
use mb_cluster::spec::{metablade, ClusterSpec};
use mb_cluster::{Cluster, Comm, ExecPolicy, ExecutorReport, SpmdOutcome, Topology};
use mb_telemetry::prof::LogHistogram;

use crate::harness::{median, ratio, Checks, Metrics, Pin, Repeat, Scale, Untraced, Workload};
use crate::trace::{Agg, Clock, Tracer};
use crate::workloads::EXEC;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    Allreduce,
    Ring,
    Imbalance,
}

const BODIES: [Body; 3] = [Body::Allreduce, Body::Ring, Body::Imbalance];

#[derive(Debug, Clone)]
struct ExecCase {
    /// Case label: suffix of `cluster.comm.ns_per_event.<label>`.
    label: &'static str,
    body: Body,
    rounds: usize,
    spec: ClusterSpec,
}

/// `Comm` calls timed per rank by the traced job bodies.
#[derive(Debug, Clone, Default)]
struct CallTimes {
    send: Agg,
    recv: Agg,
    allreduce: Agg,
    barrier: Agg,
}

impl CallTimes {
    fn merge(&mut self, o: &CallTimes) {
        self.send.merge(&o.send);
        self.recv.merge(&o.recv);
        self.allreduce.merge(&o.allreduce);
        self.barrier.merge(&o.barrier);
    }

    fn named(&self) -> [(&'static str, &Agg); 4] {
        [
            ("send", &self.send),
            ("recv", &self.recv),
            ("allreduce", &self.allreduce),
            ("barrier", &self.barrier),
        ]
    }
}

/// The same job as `mb_bench::baseline`'s body of that name, with every
/// `Comm` call timed on the rank's own thread (gate wait included). The
/// traced-vs-untraced fingerprint check pins the two to one outcome.
fn timed_body(
    body: Body,
    rounds: usize,
    clock: Clock,
) -> impl Fn(&mut Comm) -> (Vec<f64>, CallTimes) + Sync {
    move |comm: &mut Comm| {
        let mut t = CallTimes::default();
        let rank = comm.rank();
        let n = comm.nranks();
        let result = match body {
            Body::Allreduce => {
                let mut v = vec![rank as f64 + 1.0; 32];
                for _ in 0..rounds {
                    v = t.allreduce.time(clock, || comm.allreduce_sum(&v));
                    for x in v.iter_mut() {
                        *x = (*x / n as f64).sqrt() + 1.0;
                    }
                    comm.compute(64.0 * v.len() as f64);
                }
                v.push(comm.now());
                v
            }
            Body::Ring => {
                let mut buf = vec![rank as f64; 512];
                if n > 1 {
                    let next = (rank + 1) % n;
                    let prev = (rank + n - 1) % n;
                    for _ in 0..rounds {
                        t.send.time(clock, || comm.send_f64s(next, 5, &buf));
                        let got = t.recv.time(clock, || comm.recv_f64s(prev, 5));
                        buf[0] += got[0] + 1.0;
                        comm.compute(buf.len() as f64);
                    }
                }
                vec![buf[0], comm.now()]
            }
            Body::Imbalance => {
                let mut spin = 0.0f64;
                for round in 0..rounds {
                    comm.compute(2e5 * (1 + (rank + round) % 4) as f64);
                    for i in 0..2_000u64 {
                        spin += ((i + rank as u64) as f64).sqrt();
                    }
                    t.barrier.time(clock, || comm.barrier());
                }
                vec![std::hint::black_box(spin), comm.now()]
            }
        };
        (result, t)
    }
}

fn run_plain(cluster: &Cluster, body: Body, rounds: usize) -> SpmdOutcome<Vec<f64>> {
    match body {
        Body::Allreduce => cluster.run(allreduce_job(rounds)),
        Body::Ring => cluster.run(ring_job(rounds)),
        Body::Imbalance => cluster.run(imbalance_job(rounds)),
    }
}

fn events(out: &SpmdOutcome<Vec<f64>>) -> u64 {
    out.stats.iter().map(|s| s.sends + s.recvs).sum()
}

/// Executor-side counters and host-time profiles summed over a repeat's
/// cases.
#[derive(Debug, Default)]
struct ExecTotals {
    admissions: u64,
    lookahead_grants: u64,
    pair_grants: u64,
    horizon_waits: u64,
    max_ready_depth: usize,
    /// Host-time profiles by name; empty unless the run was profiled.
    prof: BTreeMap<&'static str, LogHistogram>,
}

impl ExecTotals {
    fn add(&mut self, r: &ExecutorReport) {
        self.admissions += r.admissions;
        self.lookahead_grants += r.lookahead_grants;
        self.pair_grants += r.pair_grants;
        self.horizon_waits += r.horizon_waits;
        self.max_ready_depth = self.max_ready_depth.max(r.max_ready_depth);
        if let Some(p) = &r.prof {
            for (name, h) in [
                ("busy", &p.busy_ns),
                ("idle", &p.idle_ns),
                ("wake", &p.wake_ns),
                ("push", &p.push_ns),
                ("pop", &p.pop_ns),
                ("stall", &p.stall_ns),
            ] {
                self.prof.entry(name).or_default().merge(h);
            }
        }
    }
}

pub struct Exec {
    cases: Vec<ExecCase>,
    /// Rank count and rounds of the Sequential-vs-Parallel check.
    check_ranks: usize,
    check_rounds: usize,
    /// Compare the 24-rank allreduce against `BENCH_cluster.json` and
    /// measure the Sequential engine and the unpinned regime here.
    metablade24: bool,
    totals: ExecTotals,
}

impl Exec {
    /// `exec_metablade24`: the three bodies at the paper's 24 ranks.
    pub fn metablade24(scale: Scale) -> Self {
        let rounds = scale.pick(1024, 64);
        let spec = metablade();
        let cases = BODIES
            .iter()
            .zip(["allreduce24", "ring24", "imbalance24"])
            .map(|(&body, label)| ExecCase {
                label,
                body,
                rounds,
                spec: spec.clone(),
            })
            .collect();
        Exec {
            cases,
            check_ranks: 24,
            check_rounds: 64,
            metablade24: true,
            totals: ExecTotals::default(),
        }
    }

    /// `exec_scale`: the same bodies at 1024 ranks on the star, plus a
    /// 128-rank allreduce across the oversubscribed fat-tree.
    pub fn scale(scale: Scale) -> Self {
        let ranks = scale.pick(1024, 96);
        let rounds = scale.pick(8, 4);
        let star = metablade().with_nodes(ranks);
        let mut cases: Vec<ExecCase> = BODIES
            .iter()
            .zip(["allreduce1024", "ring1024", "imbalance1024"])
            .map(|(&body, label)| ExecCase {
                label,
                body,
                rounds,
                spec: star.clone(),
            })
            .collect();
        cases.push(ExecCase {
            label: "allreduce_ft128",
            body: Body::Allreduce,
            rounds: scale.pick(32, 8),
            spec: metablade()
                .with_nodes(scale.pick(128, 32))
                .with_topology(Topology::fat_tree(16, 2, 4.0)),
        });
        Exec {
            cases,
            check_ranks: 128,
            check_rounds: 8,
            metablade24: false,
            totals: ExecTotals::default(),
        }
    }

    /// Median host seconds of an empty job: thread spawn, wiring and
    /// teardown, the fixed share of every `Cluster::run`.
    fn empty_run_s(spec: &ClusterSpec) -> f64 {
        let cluster = Cluster::new(spec.clone()).with_exec(EXEC);
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(cluster.run(|_comm: &mut Comm| 0u8));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    }
}

impl Workload for Exec {
    fn unit(&self) -> &'static str {
        "comm events (sends + recvs)"
    }

    fn repeat(&mut self, tr: &mut Tracer) -> Repeat {
        let mut out = Repeat::default();
        let mut totals = ExecTotals::default();
        for case in &self.cases {
            let cluster = Cluster::new(case.spec.clone())
                .with_exec(EXEC)
                .with_prof(tr.enabled());
            let span = format!("cluster.run.{}", case.label);
            let (outcome, secs) = if tr.enabled() {
                let clock = tr.clock();
                tr.timed(&span, |tr| {
                    let timed = cluster.run(timed_body(case.body, case.rounds, clock));
                    let mut calls = CallTimes::default();
                    let mut results = Vec::with_capacity(timed.results.len());
                    for (r, t) in timed.results {
                        calls.merge(&t);
                        results.push(r);
                    }
                    for (name, agg) in calls.named() {
                        tr.fold(&format!("cluster.comm.{name}"), agg.clone(), true);
                    }
                    SpmdOutcome {
                        results,
                        clocks: timed.clocks,
                        stats: timed.stats,
                        exec_report: timed.exec_report,
                    }
                })
            } else {
                tr.timed(&span, |_| run_plain(&cluster, case.body, case.rounds))
            };
            out.case(case.label, secs, events(&outcome));
            out.hash(
                &format!("cluster.outcome.{}", case.label),
                fingerprint_outcome(&outcome),
            );
            out.float(
                &format!("cluster.sim_makespan_s.{}", case.label),
                outcome.makespan_s(),
            );
            totals.add(&outcome.exec_report);
        }
        for (name, v) in [
            ("admissions", totals.admissions),
            ("lookahead_grants", totals.lookahead_grants),
            ("pair_grants", totals.pair_grants),
            ("horizon_waits", totals.horizon_waits),
            ("max_ready_depth", totals.max_ready_depth as u64),
        ] {
            out.counters
                .insert(format!("cluster.event.{name}"), v as f64);
        }
        self.totals = totals;
        out
    }

    fn checks(&mut self, checks: &mut Checks) {
        let spec = metablade().with_nodes(self.check_ranks);
        let seq = Cluster::new(spec.clone()).with_exec(ExecPolicy::Sequential);
        let par = Cluster::new(spec).with_exec(EXEC);
        for body in BODIES {
            let a = fingerprint_outcome(&run_plain(&seq, body, self.check_rounds));
            let b = fingerprint_outcome(&run_plain(&par, body, self.check_rounds));
            checks.check(
                &format!(
                    "exec: Sequential and {} outcomes equal, {body:?} at {} ranks",
                    EXEC.label(),
                    self.check_ranks
                ),
                a == b,
                || format!("seq {a:016x} vs {b:016x}"),
            );
            if self.metablade24 && body == Body::Allreduce {
                let committed = committed_allreduce24_fingerprint();
                checks.check(
                    "exec: allreduce_32x64 at 24 ranks matches BENCH_cluster.json",
                    committed == Some(b),
                    || format!("committed {committed:016x?} vs {b:016x}"),
                );
            }
        }
    }

    fn layers(&mut self, untraced: &Untraced, tr: &Tracer, pin: &Pin, out: &mut Metrics) {
        // Fixed cost of a run per rank count, then per-event cost of
        // each case net of it.
        let mut empty: Vec<(String, f64)> = Vec::new();
        for case in &self.cases {
            let key = format!("{}@{}", case.spec.nodes, case.spec.network.topology.label());
            let empty_s = match empty.iter().find(|(k, _)| *k == key) {
                Some((_, s)) => *s,
                None => {
                    let s = Self::empty_run_s(&case.spec);
                    empty.push((key, s));
                    s
                }
            };
            out.set(
                &format!("cluster.comm.ns_per_event.{}", case.label),
                ratio(
                    (untraced.secs(case.label) - empty_s).max(0.0) * 1e9,
                    untraced.units(case.label) as f64,
                ),
            );
        }
        let (star_spec, star_rounds) = (self.cases[0].spec.clone(), self.cases[0].rounds);
        out.set(
            &format!(
                "cluster.machine.spawn_us_per_rank.{}",
                if self.metablade24 { "24" } else { "1024" }
            ),
            empty[0].1 * 1e6 / star_spec.nodes as f64,
        );

        // Per-call Comm cost on the rank threads, from the traced repeat.
        for name in ["send", "recv", "allreduce", "barrier"] {
            let all = tr.merged_agg(&format!("cluster.comm.{name}"));
            out.set(
                &format!("cluster.comm.call_ns_p50.{name}"),
                all.quantile_ns(0.50),
            );
            out.set(
                &format!("cluster.comm.call_ns_p99.{name}"),
                all.quantile_ns(0.99),
            );
        }
        for (name, h) in &self.totals.prof {
            let q = |q: f64| if h.is_empty() { 0.0 } else { h.quantile(q) };
            out.set(&format!("cluster.event.prof.{name}_ns_p50"), q(0.50));
            out.set(&format!("cluster.event.prof.{name}_ns_p99"), q(0.99));
        }

        if self.metablade24 {
            // The Sequential reference engine on the allreduce case.
            let seq = Cluster::new(star_spec).with_exec(ExecPolicy::Sequential);
            let t = Instant::now();
            let o = run_plain(&seq, Body::Allreduce, star_rounds);
            out.set(
                "cluster.exec.seq_ns_per_event.allreduce24",
                ratio(t.elapsed().as_secs_f64() * 1e9, events(&o) as f64),
            );
            // The multi-core regime: one repeat with the original
            // affinity restored. Recorded, never gated.
            let pinned: f64 = self.cases.iter().map(|c| untraced.secs(c.label)).sum();
            let unpinned = pin.unpinned(|| self.repeat(&mut Tracer::off()));
            out.set(
                "cluster.exec.unpinned_over_pinned",
                ratio(unpinned.secs(), pinned),
            );
        }
    }
}

/// The `allreduce_32x64` fingerprint at 24 ranks on the star, as
/// committed in the repo's `BENCH_cluster.json` (read, never written).
fn committed_allreduce24_fingerprint() -> Option<u64> {
    let doc = mb_telemetry::json::parse(include_str!("../../../BENCH_cluster.json")).ok()?;
    let bench = doc.get("benches")?.as_arr()?.iter().find(|b| {
        b.get("name").and_then(|n| n.as_str()) == Some("allreduce_32x64")
            && b.get("ranks").and_then(|r| r.as_f64()) == Some(24.0)
            && b.get("topology").and_then(|t| t.as_str()) == Some("star")
    })?;
    let hex = bench.get("outcome_fingerprints")?.get("w2")?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_bodies_reproduce_the_baseline_bodies_bit_for_bit() {
        let cluster = Cluster::new(metablade().with_nodes(6)).with_exec(EXEC);
        for body in BODIES {
            let plain = run_plain(&cluster, body, 5);
            let timed = cluster.run(timed_body(body, 5, Clock::new()));
            let calls: u64 = timed
                .results
                .iter()
                .map(|(_, t)| t.named().iter().map(|(_, a)| a.count).sum::<u64>())
                .sum();
            assert!(calls > 0, "{body:?}: no Comm call was timed");
            let stripped = SpmdOutcome {
                results: timed.results.into_iter().map(|(r, _)| r).collect(),
                clocks: timed.clocks,
                stats: timed.stats,
                exec_report: timed.exec_report,
            };
            assert_eq!(
                fingerprint_outcome(&stripped),
                fingerprint_outcome(&plain),
                "{body:?}"
            );
        }
    }

    #[test]
    fn the_committed_fingerprint_is_found() {
        assert!(committed_allreduce24_fingerprint().is_some());
    }
}
