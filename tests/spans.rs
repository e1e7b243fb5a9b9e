//! The virtual-time span path, pinned to the bit: every `SpanEvent` a
//! traced run emits and the Chrome text exported from them, for a
//! 24-rank treecode step and for an 8-rank body that calls every
//! collective, point-to-point traffic, `compute` and nested phases (one
//! of them left open at rank end). Both digests hold under a one-slot
//! and a four-slot executor.

use metablade::cluster::comm::pack_f64s;
use metablade::cluster::machine::Cluster;
use metablade::cluster::spec::metablade;
use metablade::cluster::{Comm, ExecPolicy};
use metablade::telemetry::chrome;
use metablade::telemetry::fnv::Fnv;
use metablade::telemetry::trace::RunTrace;
use metablade::treecode::parallel::{distributed_step_traced, DistributedConfig};
use metablade::treecode::plummer;

const POLICIES: [ExecPolicy; 2] = [ExecPolicy::Sequential, ExecPolicy::Parallel { workers: 4 }];

/// `(span digest, Chrome text digest)`: every field of every span in
/// emission order, rank by rank, and the exported document.
fn digests(trace: &RunTrace) -> (u64, u64) {
    let mut spans = Fnv::new();
    for evs in &trace.ranks {
        spans.write_usize(evs.len());
        for e in evs {
            spans.write_str(e.name);
            spans.write_str(e.kind.label());
            spans.write_f64(e.t0);
            spans.write_f64(e.t1);
            spans.write_f64(e.wait_s);
            spans.write_usize(e.peer);
            spans.write_u64(e.bytes);
        }
    }
    let mut text = Fnv::new();
    text.write_str(&chrome::export(trace));
    (spans.finish(), text.finish())
}

/// Every public collective, a ring exchange, skewed compute, nested
/// phases and one phase the body never closes.
fn every_operation(comm: &mut Comm) -> f64 {
    let (rank, n) = (comm.rank(), comm.nranks());
    comm.begin_phase("outer");
    comm.compute(1e5 * (1 + rank % 3) as f64);
    comm.begin_phase("ring");
    comm.send_f64s((rank + 1) % n, 5, &[rank as f64; 3]);
    let got = comm.recv_f64s((rank + n - 1) % n, 5);
    comm.end_phase();
    let sum = comm.allreduce_sum(&[got[0], comm.now()]);
    let gathered = comm.allgather(pack_f64s(&[rank as f64; 2]));
    let outgoing = (0..n)
        .map(|d| pack_f64s(&vec![d as f64; d + rank]))
        .collect();
    let incoming = comm.alltoallv(outgoing);
    comm.end_phase();
    comm.barrier();
    comm.begin_phase("left open");
    comm.compute(2e4 * rank as f64);
    sum[0] + gathered.len() as f64 + incoming.iter().map(|b| b.len()).sum::<usize>() as f64
}

#[test]
fn traced_collective_body_reproduces_the_recorded_span_digests() {
    for policy in POLICIES {
        let cluster = Cluster::new(metablade().with_nodes(8)).with_exec(policy);
        let (out, trace) = cluster.run_traced(every_operation);
        assert_eq!(
            out.clocks,
            cluster.run(every_operation).clocks,
            "{policy:?}"
        );
        assert_eq!(trace.end_s(), out.makespan_s(), "{policy:?}");
        assert_eq!(
            digests(&trace),
            (0xca33_60e8_847f_f3dd, 0x9ac2_f6be_2ebd_00d8),
            "{policy:?}"
        );
    }
}

#[test]
fn traced_treecode_step_reproduces_the_recorded_span_digests() {
    let bodies = plummer(2000, 26);
    let cfg = DistributedConfig::default();
    for policy in POLICIES {
        let cluster = Cluster::new(metablade()).with_exec(policy);
        let (report, trace) = distributed_step_traced(&cluster, &bodies, &cfg, None);
        assert_eq!(trace.ranks.len(), 24);
        assert_eq!(trace.end_s(), report.makespan_s, "{policy:?}");
        assert_eq!(
            digests(&trace),
            (0xe05e_8edb_63d2_aa3f, 0xcbb1_1b60_5c5c_e2e6),
            "{policy:?}"
        );
    }
}
