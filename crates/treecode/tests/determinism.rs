//! Executor-policy determinism regression: the 24-rank treecode step
//! must produce bit-identical results under the one-slot sequential
//! reference and bounded parallel pools (2 and 8 workers). Guards the
//! admission-order invariant end to end (DESIGN.md §9): the
//! [`mb_cluster::ExecPolicy`] may only change host wall-clock, never
//! makespan, particle state, or communication statistics.

use mb_cluster::machine::Cluster;
use mb_cluster::spec::metablade;
use mb_cluster::{CommStats, ExecPolicy};
use mb_telemetry::Fnv;
use mb_treecode::parallel::{distributed_step, DistributedConfig, StepReport};
use mb_treecode::plummer;

/// FNV-1a (the shared [`mb_telemetry::Fnv`] hasher) over the exact bit
/// patterns of the particle state (original body order): accelerations
/// then potentials.
fn particle_state_hash(report: &StepReport) -> u64 {
    let mut h = Fnv::new();
    for a in &report.acc {
        for c in a {
            h.write_f64(*c);
        }
    }
    for p in &report.pot {
        h.write_f64(*p);
    }
    h.finish()
}

/// The comparable core of per-rank [`CommStats`] (all counters and
/// virtual-time accumulators, bit-exact via f64 bits).
#[allow(clippy::type_complexity)]
fn stats_key(stats: &[CommStats]) -> Vec<(u64, u64, u64, u64, u64, u64, u64, u64)> {
    stats
        .iter()
        .map(|s| {
            (
                s.sends,
                s.recvs,
                s.bytes_sent,
                s.bytes_recv,
                s.compute_s.to_bits(),
                s.wait_s.to_bits(),
                s.send_busy_s.to_bits(),
                s.recv_busy_s.to_bits(),
            )
        })
        .collect()
}

#[test]
fn treecode_step_is_bit_identical_across_executor_policies() {
    let bodies = plummer(6_000, 42);
    let cfg = DistributedConfig::default();
    let spec = metablade(); // the paper's 24-node machine

    let reference = distributed_step(
        &Cluster::new(spec.clone()).with_exec(ExecPolicy::Sequential),
        &bodies,
        &cfg,
    );
    assert_eq!(reference.per_rank.len(), 24);

    for policy in [
        ExecPolicy::Parallel { workers: 2 },
        ExecPolicy::Parallel { workers: 8 },
    ] {
        let report = distributed_step(&Cluster::new(spec.clone()).with_exec(policy), &bodies, &cfg);
        assert_eq!(
            report.makespan_s.to_bits(),
            reference.makespan_s.to_bits(),
            "makespan diverged under {policy:?}"
        );
        assert_eq!(
            particle_state_hash(&report),
            particle_state_hash(&reference),
            "particle state diverged under {policy:?}"
        );
        assert_eq!(
            stats_key(&report.comm),
            stats_key(&reference.comm),
            "CommStats diverged under {policy:?}"
        );
        let ref_clocks: Vec<u64> = reference
            .per_rank
            .iter()
            .map(|r| r.clock_s.to_bits())
            .collect();
        let got_clocks: Vec<u64> = report
            .per_rank
            .iter()
            .map(|r| r.clock_s.to_bits())
            .collect();
        assert_eq!(
            got_clocks, ref_clocks,
            "rank clocks diverged under {policy:?}"
        );
    }
}
