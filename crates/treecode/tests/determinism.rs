//! Executor-policy determinism regression: the 24-rank treecode step
//! must produce bit-identical results under the one-slot sequential
//! reference, bounded parallel pools (2 and 8 workers) and the unbounded
//! width. Guards the admission-order invariant end to end (DESIGN.md
//! §9): the [`mb_cluster::ExecPolicy`] may only change host wall-clock,
//! never makespan, particle state, or communication statistics.
//!
//! The second half pins what a step *returns* against digests recorded
//! on the commit before the LET path went flat (607ddd9) and against
//! the committed `BENCH_treecode*.json` fingerprints: the data
//! structures under `parallel.rs` may change, never a simulated bit.

use mb_cluster::machine::Cluster;
use mb_cluster::spec::metablade;
use mb_cluster::{CommStats, ExecPolicy};
use mb_telemetry::json::{parse, Json};
use mb_telemetry::Fnv;
use mb_treecode::parallel::{distributed_evolve, distributed_step, DistributedConfig, StepReport};
use mb_treecode::{cold_disk, plummer, uniform_cube, Bodies, Mac};

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
        ExecPolicy::Unbounded,
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

/// The eight `CommStats` scalars, in the order `mb_bench::baseline`'s
/// `hash_stats` folds them.
fn comm_scalars(h: &mut Fnv, s: &CommStats) {
    for v in [s.sends, s.recvs, s.bytes_sent, s.bytes_recv] {
        h.write_u64(v);
    }
    for v in [s.compute_s, s.wait_s, s.send_busy_s, s.recv_busy_s] {
        h.write_f64(v);
    }
}

/// FNV digest of *everything* a step returns: the aggregates, the
/// scattered particle state and cost feedback, every field of every
/// `RankReport`, and every [`CommStats`] counter with its per-peer rows.
fn step_digest(r: &StepReport) -> u64 {
    fn vectors(h: &mut Fnv, acc: &[[f64; 3]], pot: &[f64], cost: &[f64]) {
        h.write_usize(acc.len());
        for v in acc.iter().flatten().chain(pot).chain(cost) {
            h.write_f64(*v);
        }
    }
    let mut h = Fnv::new();
    for v in [r.makespan_s, r.total_flops, r.gflops] {
        h.write_f64(v);
    }
    vectors(&mut h, &r.acc, &r.pot, &r.body_cost);
    for rr in &r.per_rank {
        h.write_usize(rr.rank);
        h.write_usize(rr.n_local);
        h.write_u64(rr.interactions.pp);
        h.write_u64(rr.interactions.pc);
        h.write_u64(rr.imported_cells);
        h.write_u64(rr.imported_bodies);
        h.write_f64(rr.clock_s);
        vectors(&mut h, &rr.acc, &rr.pot, &rr.body_cost);
    }
    for s in &r.comm {
        comm_scalars(&mut h, s);
        for (peer, t) in s.peers.iter() {
            h.write_usize(peer);
            for v in [t.msgs_to, t.bytes_to, t.msgs_from, t.bytes_from] {
                h.write_u64(v);
            }
        }
    }
    h.finish()
}

fn initial_conditions(name: &str, n: usize) -> Bodies {
    match name {
        "plummer" => plummer(n, 2002),
        "uniform_cube" => uniform_cube(n, 1.0, 2002),
        "cold_disk" => cold_disk(n, 2002),
        _ => unreachable!("unknown initial conditions {name}"),
    }
}

fn with_theta(theta: f64) -> DistributedConfig {
    DistributedConfig {
        mac: Mac {
            theta,
            quadrupole: true,
        },
        ..Default::default()
    }
}

/// Bodies per pinned step.
const PIN_BODIES: usize = 3_000;

/// `(ranks, initial conditions, θ, step_digest)`, recorded on 607ddd9.
const STEP_PINS: &[(usize, &str, f64, u64)] = &[
    (1, "plummer", 0.3, 0x2539f5ef3da2e7bd),
    (1, "plummer", 0.8, 0xaa99a5cb8425504a),
    (1, "uniform_cube", 0.3, 0x9afa3add24e7e88b),
    (1, "uniform_cube", 0.8, 0xbf8d1e385091c606),
    (1, "cold_disk", 0.3, 0x5c303c32be6a3d75),
    (1, "cold_disk", 0.8, 0x87a8e29cc6dcccd6),
    (2, "plummer", 0.3, 0x8b1acc3534cdfe17),
    (2, "plummer", 0.8, 0xc8d49e158e4ec52d),
    (2, "uniform_cube", 0.3, 0xd1bfa345041432e4),
    (2, "uniform_cube", 0.8, 0xfff402715f7e25eb),
    (2, "cold_disk", 0.3, 0x405a4c6450c318c2),
    (2, "cold_disk", 0.8, 0x02ae78feb503392c),
    (6, "plummer", 0.3, 0x2994c34533d07b13),
    (6, "plummer", 0.8, 0xc61fc5dbee7ff8e5),
    (6, "uniform_cube", 0.3, 0x89ba6995704758a1),
    (6, "uniform_cube", 0.8, 0x29d320c09c2ad282),
    (6, "cold_disk", 0.3, 0x38babd315fde108c),
    (6, "cold_disk", 0.8, 0x251885e0c6788a9c),
    (24, "plummer", 0.3, 0xa78dd69c81a85481),
    (24, "plummer", 0.8, 0x3b6a7ffa3ed82d2b),
    (24, "uniform_cube", 0.3, 0xd545e562283a4e25),
    (24, "uniform_cube", 0.8, 0x583930941c904663),
    (24, "cold_disk", 0.3, 0x70ae3480e758aeff),
    (24, "cold_disk", 0.8, 0x16f2cb1307c2eb5a),
];

#[test]
fn step_outcomes_reproduce_the_parent_recorded_digests() {
    for &(ranks, name, theta, pin) in STEP_PINS {
        let cluster = Cluster::new(metablade().with_nodes(ranks));
        let bodies = initial_conditions(name, PIN_BODIES);
        let got = step_digest(&distributed_step(&cluster, &bodies, &with_theta(theta)));
        assert_eq!(
            got, pin,
            "P={ranks} {name} θ={theta}: {got:#018x}, pinned {pin:#018x}"
        );
    }
}

#[test]
fn empty_zones_reproduce_the_parent_recorded_digest() {
    // P > N: three of the eight ranks own nothing, publish an empty
    // domain and import nothing.
    let cluster = Cluster::new(metablade().with_nodes(8));
    let report = distributed_step(&cluster, &plummer(5, 2002), &DistributedConfig::default());
    let empty = report.per_rank.iter().filter(|r| r.n_local == 0).count();
    assert_eq!(empty, 3, "the case must exercise empty zones");
    assert_eq!(
        step_digest(&report),
        0xb822ac014fc7b319,
        "recorded on 607ddd9"
    );
}

#[test]
fn two_step_evolution_reproduces_the_parent_recorded_digest() {
    // Three force evaluations; the second and third are decomposed by
    // the previous one's per-body interaction counts.
    let cluster = Cluster::new(metablade().with_nodes(6));
    let cfg = DistributedConfig::default();
    let r = distributed_evolve(&cluster, plummer(1_200, 2002), &cfg, 1e-3, 2);
    let mut h = Fnv::new();
    for v in [r.total_time_s, r.gflops, r.energy_drift] {
        h.write_f64(v);
    }
    for v in r.pos.iter().chain(&r.vel).flatten() {
        h.write_f64(*v);
    }
    assert_eq!(h.finish(), 0xe2d888a8b2cfd134, "recorded on 607ddd9");
}

/// The `treecode_step` fingerprint of `mb_bench::baseline` (makespan,
/// acc, pot, the eight `CommStats` scalars per rank), restated here
/// because `mb-bench` depends on this crate.
fn bench_fingerprint(r: &StepReport) -> u64 {
    let mut h = Fnv::new();
    h.write_f64(r.makespan_s);
    for v in r.acc.iter().flatten().chain(&r.pot) {
        h.write_f64(*v);
    }
    for s in &r.comm {
        comm_scalars(&mut h, s);
    }
    h.finish()
}

/// Run the `ranks`-rank `treecode_step` record of a committed
/// `BENCH_treecode*.json` and hold it to the document's fingerprint and
/// makespan bits (one policy: the test above covers the other three).
fn reproduces_committed_record(file: &str, ranks: usize) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_eq!(
        doc.get("ic").and_then(Json::as_str),
        Some("plummer(seed=1999)")
    );
    let n = doc
        .get("n_bodies")
        .and_then(Json::as_f64)
        .expect("n_bodies") as usize;
    let rec = doc
        .get("benches")
        .and_then(Json::as_arr)
        .and_then(|bs| {
            bs.iter()
                .find(|b| b.get("ranks").and_then(Json::as_f64) == Some(ranks as f64))
        })
        .unwrap_or_else(|| panic!("no {ranks}-rank record in {file}"));
    let committed_fp = rec
        .get("outcome_fingerprints")
        .and_then(|f| f.get("unbounded"))
        .and_then(Json::as_str)
        .expect("committed fingerprint");
    let committed_mk = rec
        .get("virtual_makespan_s")
        .and_then(Json::as_f64)
        .expect("virtual makespan");
    let cluster = Cluster::new(metablade().with_nodes(ranks)).with_exec(ExecPolicy::Unbounded);
    let report = distributed_step(&cluster, &plummer(n, 1999), &DistributedConfig::default());
    assert_eq!(
        format!("{:016x}", bench_fingerprint(&report)),
        committed_fp,
        "{file} @ {ranks} ranks: outcome fingerprint drifted from the committed baseline"
    );
    assert_eq!(report.makespan_s.to_bits(), committed_mk.to_bits());
}

#[test]
fn smoke_record_at_128_ranks_reproduces_the_committed_fingerprint() {
    reproduces_committed_record("BENCH_treecode_smoke.json", 128);
}

#[test]
fn full_record_at_24_ranks_reproduces_the_committed_fingerprint() {
    reproduces_committed_record("BENCH_treecode.json", 24);
}
