//! The MPI-like communicator over virtual time.
//!
//! Each SPMD rank runs on a real thread and owns a [`Comm`]. All timing is
//! *virtual*: `compute` charges CPU seconds at the node's sustained rate,
//! `send`/`recv` charge the LogGP costs of [`crate::network::NetworkModel`],
//! and a receive waits (in virtual time) until the message's delivery
//! timestamp. Messages travel through the run's [`EventCore`], which owns
//! one mailbox per rank: a send is `deliver`, a receive is `take`, and a
//! receive that must wait parks its thread exactly once (see
//! [`crate::event`]). Because every receive names its source rank and all
//! collectives use fixed deterministic patterns, the virtual clocks are
//! bit-reproducible regardless of host thread scheduling — and therefore
//! regardless of the executor policy mapping ranks onto host workers (see
//! [`crate::exec`]).
//!
//! Collectives are the classic binomial-tree / ring algorithms MPICH used
//! in the paper's era: `bcast` and `reduce` are binomial trees (⌈log₂ P⌉
//! rounds), `allreduce` is reduce+bcast, `barrier` is an empty allreduce,
//! `allgather` is a ring, and `alltoallv` is a pairwise exchange.
//!
//! **Observability.** Every operation optionally records a virtual-time
//! span into an attached [`TraceSink`] (see [`Comm::attach_sink`]):
//! `compute`, point-to-point sends/receives (with peer and byte counts),
//! and every collective as an enclosing span. Applications open named
//! algorithm phases with [`Comm::begin_phase`]/[`Comm::end_phase`]. With
//! no sink attached all of this reduces to one pointer check per
//! operation, so untraced runs pay nothing measurable. Independent of
//! tracing, [`CommStats`] keeps per-peer message/byte counts so load
//! imbalance is visible from statistics alone.

use std::sync::Arc;

use bytes::Bytes;
use mb_telemetry::trace::{SpanEvent, SpanKind, TraceSink};

use crate::event::EventCore;
use crate::network::NetworkModel;

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// User or collective tag.
    pub tag: u32,
    /// Virtual delivery time at the receiver's NIC.
    pub deliver: f64,
    /// Payload.
    pub payload: Bytes,
}

/// Traffic between this rank and one peer (message and byte counts in
/// each direction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Messages sent to the peer.
    pub msgs_to: u64,
    /// Payload bytes sent to the peer.
    pub bytes_to: u64,
    /// Messages received from the peer.
    pub msgs_from: u64,
    /// Payload bytes received from the peer.
    pub bytes_from: u64,
}

/// One rank's per-peer traffic: rows sorted by peer rank, held only for
/// the peers it exchanged a message with. An absent peer reads as zero,
/// so the table is as small as the rank's traffic pattern, not as wide
/// as the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerTable(Vec<(usize, PeerTraffic)>);

impl PeerTable {
    fn find(&self, peer: usize) -> Result<usize, usize> {
        self.0.binary_search_by_key(&peer, |&(p, _)| p)
    }

    /// Traffic to/from `peer`, zero if there was none.
    pub fn get(&self, peer: usize) -> PeerTraffic {
        self.find(peer)
            .map_or_else(|_| PeerTraffic::default(), |i| self.0[i].1)
    }

    /// `peer`'s row, added zeroed on first touch.
    pub fn entry(&mut self, peer: usize) -> &mut PeerTraffic {
        let i = self.find(peer).unwrap_or_else(|i| {
            self.0.insert(i, (peer, PeerTraffic::default()));
            i
        });
        &mut self.0[i].1
    }

    /// Compact a dense row indexed by peer rank into a table, dropping
    /// its zero entries and leaving `dense` zeroed: for a builder that
    /// revisits every peer many times and wants plain indexing meanwhile.
    pub fn take_dense(dense: &mut [PeerTraffic]) -> Self {
        // Branch-free, so the two scans cost a few loads per peer.
        let used = |t: &PeerTraffic| t.msgs_to | t.bytes_to | t.msgs_from | t.bytes_from != 0;
        let mut rows = Vec::with_capacity(dense.iter().filter(|t| used(t)).count());
        for (peer, t) in dense.iter_mut().enumerate() {
            if used(t) {
                rows.push((peer, std::mem::take(t)));
            }
        }
        PeerTable(rows)
    }

    /// The touched peers' rows, in ascending peer rank.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &PeerTraffic)> {
        self.0.iter().map(|(peer, t)| (*peer, t))
    }
}

/// Per-rank communication statistics (virtual seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Messages sent.
    pub sends: u64,
    /// Messages received.
    pub recvs: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Virtual seconds spent computing.
    pub compute_s: f64,
    /// Virtual seconds blocked waiting for messages.
    pub wait_s: f64,
    /// Virtual seconds the NIC/stack kept the CPU busy sending.
    pub send_busy_s: f64,
    /// Virtual seconds the NIC/stack kept the CPU busy receiving.
    pub recv_busy_s: f64,
    /// Per-peer traffic. Sparse, so a run's statistics are linear in
    /// rank count unless its traffic is not.
    pub peers: PeerTable,
}

impl CommStats {
    /// Seconds the node was doing useful or overhead work (not waiting).
    pub fn busy_s(&self) -> f64 {
        self.compute_s + self.send_busy_s + self.recv_busy_s
    }

    /// Traffic to/from `peer`, zero if there was none.
    pub fn peer(&self, peer: usize) -> PeerTraffic {
        self.peers.get(peer)
    }
}

const COLLECTIVE_TAG: u32 = 0x8000_0000;

/// One rank's endpoint.
pub struct Comm {
    rank: usize,
    nranks: usize,
    clock: f64,
    mflops: f64,
    net: NetworkModel,
    /// Rank → physical node id (identity for whole-cluster runs; the
    /// allocation for partitioned runs). Flight times depend on *node*
    /// pairs, so a job spanning fat-tree switch boundaries pays uplink
    /// contention while a compact placement of the same width does not.
    nodes: Arc<Vec<usize>>,
    coll_seq: u32,
    sink: Option<Box<dyn TraceSink + Send>>,
    /// The run's admission engine and message transport: it holds every
    /// rank's mailbox, and a receive that has to wait gives up this
    /// rank's execution slot inside it until the message is delivered.
    core: Arc<EventCore>,
    phases: Vec<(&'static str, f64)>,
    /// Running statistics.
    pub stats: CommStats,
}

impl Comm {
    /// Internal constructor (used by `machine::Cluster`).
    pub(crate) fn new(
        rank: usize,
        mflops: f64,
        net: NetworkModel,
        nodes: Arc<Vec<usize>>,
        core: Arc<EventCore>,
    ) -> Self {
        let nranks = nodes.len();
        Self {
            rank,
            nranks,
            clock: 0.0,
            mflops,
            net,
            nodes,
            coll_seq: 0,
            sink: None,
            core,
            phases: Vec::new(),
            stats: CommStats::default(),
        }
    }

    /// This rank's id, `0..nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The network model in force.
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// The physical node this rank runs on (equals the rank for
    /// whole-cluster runs; the allocated node id under
    /// [`crate::machine::Cluster::run_on`]).
    pub fn node(&self) -> usize {
        self.nodes[self.rank]
    }

    /// Attach a trace sink: from now on every operation records a
    /// virtual-time span into it. Replaces any previous sink.
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.sink = Some(sink);
    }

    /// Detach and return the current sink, closing any phases still open
    /// at the current clock so every recorded span is well-formed.
    pub fn detach_sink(&mut self) -> Option<Box<dyn TraceSink + Send>> {
        while !self.phases.is_empty() {
            self.end_phase();
        }
        self.sink.take()
    }

    /// Is a trace sink currently attached?
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Open a named algorithm phase (tree build, force walk, …). Phases
    /// nest; each is closed by the matching [`Comm::end_phase`]. A no-op
    /// unless a sink is attached.
    pub fn begin_phase(&mut self, name: &'static str) {
        if self.sink.is_some() {
            self.phases.push((name, self.clock));
        }
    }

    /// Close the innermost open phase, recording its span. Tolerates an
    /// unmatched call (nothing open) so callers need no tracing checks.
    pub fn end_phase(&mut self) {
        if let Some((name, t0)) = self.phases.pop() {
            if let Some(sink) = self.sink.as_mut() {
                sink.record(SpanEvent::plain(name, SpanKind::Phase, t0, self.clock));
            }
        }
    }

    /// Charge `flops` floating-point operations of computation at this
    /// node's sustained rate.
    pub fn compute(&mut self, flops: f64) {
        let s = flops / (self.mflops * 1e6);
        self.charge_compute(s);
    }

    /// Charge raw virtual seconds (e.g. non-FP work).
    pub fn advance(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "time cannot run backward");
        self.charge_compute(seconds);
    }

    fn charge_compute(&mut self, s: f64) {
        let t0 = self.clock;
        self.clock += s;
        self.stats.compute_s += s;
        if s > 0.0 {
            if let Some(sink) = self.sink.as_mut() {
                sink.record(SpanEvent::plain("compute", SpanKind::Compute, t0, t0 + s));
            }
        }
    }

    /// Rebate virtual seconds previously charged — for timing models that
    /// batch operations (e.g. HPL panel broadcasts pay per-message costs
    /// eagerly for correctness, then credit back the amortized latency).
    /// The clock never rewinds past zero.
    pub fn credit(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        self.clock = (self.clock - seconds).max(0.0);
    }

    /// Send `payload` to `dst` with a user tag (must be < 2^31; the high
    /// bit is reserved for collectives). Non-blocking in virtual time
    /// beyond the sender-side LogGP busy time.
    pub fn send(&mut self, dst: usize, tag: u32, payload: Bytes) {
        assert!(dst < self.nranks, "send to rank {dst} of {}", self.nranks);
        assert!(tag < COLLECTIVE_TAG, "user tags must be < 2^31");
        self.send_internal(dst, tag, payload);
    }

    fn send_internal(&mut self, dst: usize, tag: u32, payload: Bytes) {
        let bytes = payload.len() as u64;
        let t0 = self.clock;
        let busy = self.net.send_busy(bytes);
        self.clock += busy;
        self.stats.send_busy_s += busy;
        self.stats.sends += 1;
        self.stats.bytes_sent += bytes;
        let peer = self.stats.peers.entry(dst);
        peer.msgs_to += 1;
        peer.bytes_to += bytes;
        if let Some(sink) = self.sink.as_mut() {
            sink.record(SpanEvent {
                name: "send",
                kind: SpanKind::Send,
                t0,
                t1: t0 + busy,
                peer: dst,
                bytes,
                wait_s: 0.0,
            });
        }
        let deliver = self.clock
            + self
                .net
                .flight_between(self.nodes[self.rank], self.nodes[dst], bytes);
        self.core.deliver(
            dst,
            Msg {
                src: self.rank,
                tag,
                deliver,
                payload,
            },
        );
    }

    /// Receive the next message from `src` with `tag` (FIFO per
    /// source/tag pair; `src` may be this rank). Blocks the host thread
    /// if needed; charges virtual wait time until the message's delivery
    /// timestamp plus the receiver-side busy time.
    pub fn recv(&mut self, src: usize, tag: u32) -> Bytes {
        assert!(tag < COLLECTIVE_TAG, "user tags must be < 2^31");
        self.recv_internal(src, tag)
    }

    fn recv_internal(&mut self, src: usize, tag: u32) -> Bytes {
        let t0 = self.clock;
        let msg = self.core.take(self.rank, src, tag, self.clock);
        let mut waited = 0.0;
        if msg.deliver > self.clock {
            waited = msg.deliver - self.clock;
            self.stats.wait_s += waited;
            self.clock = msg.deliver;
        }
        let bytes = msg.payload.len() as u64;
        let busy = self.net.recv_busy(bytes);
        self.clock += busy;
        self.stats.recv_busy_s += busy;
        self.stats.recvs += 1;
        self.stats.bytes_recv += bytes;
        let peer = self.stats.peers.entry(src);
        peer.msgs_from += 1;
        peer.bytes_from += bytes;
        if let Some(sink) = self.sink.as_mut() {
            sink.record(SpanEvent {
                name: "recv",
                kind: SpanKind::Recv,
                t0,
                t1: self.clock,
                peer: src,
                bytes,
                wait_s: waited,
            });
        }
        msg.payload
    }

    /// Send a slice of doubles (little-endian serialization).
    pub fn send_f64s(&mut self, dst: usize, tag: u32, vals: &[f64]) {
        self.send(dst, tag, pack_f64s(vals));
    }

    /// Receive a vector of doubles.
    pub fn recv_f64s(&mut self, src: usize, tag: u32) -> Vec<f64> {
        unpack_f64s(&self.recv(src, tag))
    }

    fn next_coll_tag(&mut self, op: u32) -> u32 {
        let tag = COLLECTIVE_TAG | (op << 20) | (self.coll_seq & 0xf_ffff);
        self.coll_seq = self.coll_seq.wrapping_add(1);
        tag
    }

    /// Record an enclosing span for a collective that started at `t0`.
    fn emit_collective(&mut self, name: &'static str, t0: f64) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(SpanEvent::plain(name, SpanKind::Collective, t0, self.clock));
        }
    }

    /// Broadcast from `root`: binomial tree. Returns the payload on every
    /// rank (on the root, the argument must be `Some`).
    pub fn bcast(&mut self, root: usize, payload: Option<Bytes>) -> Bytes {
        let t0 = self.clock;
        let out = self.bcast_inner(root, payload);
        self.emit_collective("bcast", t0);
        out
    }

    fn bcast_inner(&mut self, root: usize, payload: Option<Bytes>) -> Bytes {
        let n = self.nranks;
        let tag = self.next_coll_tag(1);
        let rel = (self.rank + n - root) % n;
        let mut data = if rel == 0 {
            payload.expect("root must supply the broadcast payload")
        } else {
            Bytes::new()
        };
        let mut mask = 1;
        while mask < n {
            if rel >= mask && rel < 2 * mask {
                let src = (rel - mask + root) % n;
                data = self.recv_internal(src, tag);
            } else if rel < mask && rel + mask < n {
                let dst = (rel + mask + root) % n;
                self.send_internal(dst, tag, data.clone());
            }
            mask <<= 1;
        }
        data
    }

    /// Element-wise sum-reduce of a double vector to `root` (binomial
    /// tree). Returns `Some(sum)` on the root, `None` elsewhere.
    pub fn reduce_sum(&mut self, root: usize, vals: &[f64]) -> Option<Vec<f64>> {
        let t0 = self.clock;
        let out = self.reduce_sum_inner(root, vals);
        self.emit_collective("reduce_sum", t0);
        out
    }

    fn reduce_sum_inner(&mut self, root: usize, vals: &[f64]) -> Option<Vec<f64>> {
        let n = self.nranks;
        let tag = self.next_coll_tag(2);
        let rel = (self.rank + n - root) % n;
        let mut acc = vals.to_vec();
        let mut mask = 1;
        while mask < n {
            if rel & mask != 0 {
                let dst = (rel - mask + root) % n;
                self.send_internal(dst, tag, pack_f64s(&acc));
                return None;
            }
            if rel + mask < n {
                let src = (rel + mask + root) % n;
                let theirs = unpack_f64s(&self.recv_internal(src, tag));
                assert_eq!(theirs.len(), acc.len(), "reduce length mismatch");
                // Charge the combine cost: one add per element.
                self.compute(acc.len() as f64);
                for (a, b) in acc.iter_mut().zip(theirs) {
                    *a += b;
                }
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Allreduce (sum) of a double vector: reduce to rank 0 then
    /// broadcast.
    pub fn allreduce_sum(&mut self, vals: &[f64]) -> Vec<f64> {
        let t0 = self.clock;
        let out = self.allreduce_sum_inner(vals);
        self.emit_collective("allreduce_sum", t0);
        out
    }

    fn allreduce_sum_inner(&mut self, vals: &[f64]) -> Vec<f64> {
        let reduced = self.reduce_sum_inner(0, vals);
        let payload = reduced.map(|v| pack_f64s(&v));
        unpack_f64s(&self.bcast_inner(0, payload))
    }

    /// Barrier: empty allreduce.
    pub fn barrier(&mut self) {
        let t0 = self.clock;
        let _ = self.allreduce_sum_inner(&[]);
        self.emit_collective("barrier", t0);
    }

    /// Ring allgather: each rank contributes one payload; everyone gets
    /// all payloads, indexed by rank.
    pub fn allgather(&mut self, mine: Bytes) -> Vec<Bytes> {
        let t0 = self.clock;
        let out = self.allgather_inner(mine);
        self.emit_collective("allgather", t0);
        out
    }

    fn allgather_inner(&mut self, mine: Bytes) -> Vec<Bytes> {
        let n = self.nranks;
        let tag = self.next_coll_tag(3);
        let mut chunks: Vec<Option<Bytes>> = vec![None; n];
        chunks[self.rank] = Some(mine);
        let right = (self.rank + 1) % n;
        let left = (self.rank + n - 1) % n;
        for step in 0..n.saturating_sub(1) {
            let send_idx = (self.rank + n - step) % n;
            let recv_idx = (self.rank + n - step - 1) % n;
            let out = chunks[send_idx].clone().expect("ring invariant");
            self.send_internal(right, tag, out);
            let inp = self.recv_internal(left, tag);
            chunks[recv_idx] = Some(inp);
        }
        chunks
            .into_iter()
            .map(|c| c.expect("complete ring"))
            .collect()
    }

    /// Pairwise-exchange personalized all-to-all: `outgoing[d]` goes to
    /// rank `d`; returns `incoming[s]` from each rank `s`.
    pub fn alltoallv(&mut self, outgoing: Vec<Bytes>) -> Vec<Bytes> {
        let t0 = self.clock;
        let out = self.alltoallv_inner(outgoing);
        self.emit_collective("alltoallv", t0);
        out
    }

    fn alltoallv_inner(&mut self, outgoing: Vec<Bytes>) -> Vec<Bytes> {
        let n = self.nranks;
        assert_eq!(outgoing.len(), n, "alltoallv needs one payload per rank");
        let tag = self.next_coll_tag(4);
        let mut incoming: Vec<Bytes> = vec![Bytes::new(); n];
        incoming[self.rank] = outgoing[self.rank].clone();
        for k in 1..n {
            let dst = (self.rank + k) % n;
            let src = (self.rank + n - k) % n;
            self.send_internal(dst, tag, outgoing[dst].clone());
            incoming[src] = self.recv_internal(src, tag);
        }
        incoming
    }

    /// Scatter: `root` holds one payload per rank; every rank receives
    /// its slice. Non-roots pass `None`.
    pub fn scatter(&mut self, root: usize, payloads: Option<Vec<Bytes>>) -> Bytes {
        let t0 = self.clock;
        let out = self.scatter_inner(root, payloads);
        self.emit_collective("scatter", t0);
        out
    }

    fn scatter_inner(&mut self, root: usize, payloads: Option<Vec<Bytes>>) -> Bytes {
        let n = self.nranks;
        let tag = self.next_coll_tag(6);
        if self.rank == root {
            let payloads = payloads.expect("root must supply scatter payloads");
            assert_eq!(payloads.len(), n, "one payload per rank");
            let mut mine = Bytes::new();
            for (dst, p) in payloads.into_iter().enumerate() {
                if dst == root {
                    mine = p;
                } else {
                    self.send_internal(dst, tag, p);
                }
            }
            mine
        } else {
            self.recv_internal(root, tag)
        }
    }

    /// Reduce-scatter (sum): every rank contributes a vector of
    /// `n × chunk` doubles; rank `r` receives the element-wise sum of
    /// everyone's `r`-th chunk. (Reduce-to-root then scatter — the
    /// pattern MPICH used at this era for small payloads.)
    pub fn reduce_scatter_sum(&mut self, vals: &[f64], chunk: usize) -> Vec<f64> {
        let t0 = self.clock;
        let n = self.nranks;
        assert_eq!(vals.len(), n * chunk, "need n×chunk elements");
        let reduced = self.reduce_sum_inner(0, vals);
        let payloads = reduced.map(|full| {
            (0..n)
                .map(|r| pack_f64s(&full[r * chunk..(r + 1) * chunk]))
                .collect::<Vec<_>>()
        });
        let out = unpack_f64s(&self.scatter_inner(0, payloads));
        self.emit_collective("reduce_scatter_sum", t0);
        out
    }

    /// Inclusive prefix scan (sum): rank `r` receives the element-wise
    /// sum of ranks `0..=r`'s vectors. Linear pipeline (rank order).
    pub fn scan_sum(&mut self, vals: &[f64]) -> Vec<f64> {
        let t0 = self.clock;
        let out = self.scan_sum_inner(vals);
        self.emit_collective("scan_sum", t0);
        out
    }

    fn scan_sum_inner(&mut self, vals: &[f64]) -> Vec<f64> {
        let n = self.nranks;
        let tag = self.next_coll_tag(7);
        let mut acc = vals.to_vec();
        if self.rank > 0 {
            let prev = unpack_f64s(&self.recv_internal(self.rank - 1, tag));
            assert_eq!(prev.len(), acc.len(), "scan length mismatch");
            self.compute(acc.len() as f64);
            for (a, b) in acc.iter_mut().zip(prev) {
                *a += b;
            }
        }
        if self.rank + 1 < n {
            self.send_internal(self.rank + 1, tag, pack_f64s(&acc));
        }
        acc
    }

    /// Gather every rank's payload at `root` (rank order). Returns
    /// `Some(vec)` on the root, `None` elsewhere.
    pub fn gather(&mut self, root: usize, mine: Bytes) -> Option<Vec<Bytes>> {
        let t0 = self.clock;
        let out = self.gather_inner(root, mine);
        self.emit_collective("gather", t0);
        out
    }

    fn gather_inner(&mut self, root: usize, mine: Bytes) -> Option<Vec<Bytes>> {
        let n = self.nranks;
        let tag = self.next_coll_tag(5);
        if self.rank == root {
            let mut all: Vec<Bytes> = Vec::with_capacity(n);
            for src in 0..n {
                if src == root {
                    all.push(mine.clone());
                } else {
                    all.push(self.recv_internal(src, tag));
                }
            }
            Some(all)
        } else {
            self.send_internal(root, tag, mine);
            None
        }
    }
}

/// Serialize doubles little-endian.
pub fn pack_f64s(vals: &[f64]) -> Bytes {
    let mut v = Vec::with_capacity(vals.len() * 8);
    for x in vals {
        v.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(v)
}

/// Deserialize doubles little-endian.
pub fn unpack_f64s(b: &Bytes) -> Vec<f64> {
    assert_eq!(b.len() % 8, 0, "payload is not a whole number of doubles");
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let vals = vec![0.0, -1.5, std::f64::consts::PI, f64::MAX, 1e-300];
        assert_eq!(unpack_f64s(&pack_f64s(&vals)), vals);
    }

    #[test]
    fn a_compacted_dense_row_equals_the_table_built_by_entry() {
        let mut dense = vec![PeerTraffic::default(); 6];
        let mut built = PeerTable::default();
        for (peer, bytes) in [(4, 10), (1, 7), (4, 5), (5, 0)] {
            dense[peer].msgs_from += 1;
            dense[peer].bytes_from += bytes;
            built.entry(peer).msgs_from += 1;
            built.entry(peer).bytes_from += bytes;
        }
        assert_eq!(PeerTable::take_dense(&mut dense), built);
        assert_eq!(dense, vec![PeerTraffic::default(); 6], "scratch zeroed");
        let peers: Vec<usize> = built.iter().map(|(p, _)| p).collect();
        assert_eq!(peers, [1, 4, 5]);
        assert_eq!(built.get(4).bytes_from, 15);
        assert_eq!(built.get(0), PeerTraffic::default());
    }

    #[test]
    #[should_panic(expected = "whole number of doubles")]
    fn ragged_payload_rejected() {
        unpack_f64s(&Bytes::from_static(&[1, 2, 3]));
    }
}
