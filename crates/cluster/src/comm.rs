//! The MPI-like communicator over virtual time.
//!
//! Each SPMD rank owns a [`Comm`]. All timing is *virtual*: `compute`
//! charges CPU seconds at the node's sustained rate, `send`/`recv` charge
//! the LogGP costs of [`crate::network::NetworkModel`], and a receive
//! waits (in virtual time) until the message's delivery timestamp.
//! Messages travel through the run's [`crate::event`] core, which owns
//! one mailbox per rank: a send is `deliver`, a receive is `take`.
//!
//! **One implementation per blocking operation.** Every operation that
//! may wait for a message is one `async fn` — [`Comm::recv_async`],
//! [`Comm::recv_f64s_async`], [`Comm::allreduce_sum_async`],
//! [`Comm::barrier_async`], [`Comm::allgather_async`] and
//! [`Comm::alltoallv_async`] — which a stackless body awaits (see
//! [`crate::exec`]). The blocking forms (`recv`, `barrier`, …) wrap it for
//! a closure rank, which runs on a thread of its own: there a receive
//! that must wait hands the turn back to the poller through the rank's
//! own handle and parks the thread until the rank is polled again. On a
//! stackless rank a blocking form panics, naming the async form to await
//! instead: it has no thread to park. Sends and `compute` never wait and
//! have one form.
//!
//! Because every receive names its source rank and all collectives use
//! fixed deterministic patterns, the virtual clocks are bit-reproducible
//! regardless of admission order — and therefore regardless of the body
//! form (see [`crate::exec`]).
//!
//! The four collectives are the ones the Warren–Salmon treecode and every
//! workload call, in the algorithms MPICH used in the paper's era:
//! `allreduce_sum` is a binomial-tree reduce to rank 0 then a binomial
//! broadcast (⌈log₂ P⌉ rounds each), `barrier` is an empty allreduce,
//! `allgather` is a ring, and `alltoallv` is a pairwise exchange.
//!
//! **Observability.** A traced rank (see
//! [`crate::machine::Cluster::run_traced`]) appends a virtual-time
//! [`SpanEvent`] to a plain buffer for every operation: `compute`,
//! point-to-point sends/receives (with peer and byte counts), and each
//! collective as one enclosing span. Applications open named algorithm
//! phases with [`Comm::begin_phase`]/[`Comm::end_phase`]. An untraced rank
//! pays one `Option` check per operation. Independent of tracing,
//! [`CommStats`] keeps per-peer message/byte counts so load imbalance is
//! visible from statistics alone.

use std::future::poll_fn;
use std::sync::Arc;

use bytes::Bytes;
use mb_telemetry::summary::RankTime;
use mb_telemetry::trace::{SpanEvent, SpanKind};

use crate::event::EventCore;
use crate::exec::Turn;
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

    /// The rank's compute / comm / blocked split against its final
    /// virtual `clock`.
    pub fn rank_time(&self, clock: f64) -> RankTime {
        RankTime {
            compute_s: self.compute_s,
            comm_s: self.send_busy_s + self.recv_busy_s,
            blocked_s: self.wait_s,
            total_s: clock,
        }
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
    /// A traced rank's spans in emission order; `None` when untraced.
    spans: Option<Vec<SpanEvent>>,
    /// The run's admission engine and message transport: it holds every
    /// rank's mailbox, and a receive that has to wait gives up this
    /// rank's execution slot inside it until the message is delivered.
    pub(crate) core: Arc<EventCore>,
    /// A closure rank's handoff to the poller, while it runs on its
    /// thread; `None` on a stackless rank.
    pub(crate) turn: Option<Turn>,
    phases: Vec<(&'static str, f64)>,
    /// Running statistics.
    pub stats: CommStats,
}

impl Comm {
    /// Internal constructor (used by `machine::Cluster`); a `traced`
    /// rank buffers every span it emits.
    pub(crate) fn new(
        rank: usize,
        mflops: f64,
        net: NetworkModel,
        nodes: Arc<Vec<usize>>,
        core: Arc<EventCore>,
        traced: bool,
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
            spans: traced.then(Vec::new),
            core,
            turn: None,
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

    #[inline]
    fn record(&mut self, ev: SpanEvent) {
        if let Some(spans) = self.spans.as_mut() {
            spans.push(ev);
        }
    }

    /// The spans recorded so far (empty when untraced), after closing
    /// any phases still open at the current clock so every span is
    /// well-formed.
    pub(crate) fn take_spans(&mut self) -> Vec<SpanEvent> {
        while !self.phases.is_empty() {
            self.end_phase();
        }
        self.spans.take().unwrap_or_default()
    }

    /// Open a named algorithm phase (tree build, force walk, …). Phases
    /// nest; each is closed by the matching [`Comm::end_phase`]. A no-op
    /// unless the run is traced.
    pub fn begin_phase(&mut self, name: &'static str) {
        if self.spans.is_some() {
            self.phases.push((name, self.clock));
        }
    }

    /// Close the innermost open phase, recording its span. Tolerates an
    /// unmatched call (nothing open) so callers need no tracing checks.
    pub fn end_phase(&mut self) {
        if let Some((name, t0)) = self.phases.pop() {
            self.record(SpanEvent::plain(name, SpanKind::Phase, t0, self.clock));
        }
    }

    /// Charge `flops` floating-point operations of computation at this
    /// node's sustained rate.
    pub fn compute(&mut self, flops: f64) {
        let s = flops / (self.mflops * 1e6);
        let t0 = self.clock;
        self.clock += s;
        self.stats.compute_s += s;
        if s > 0.0 {
            self.record(SpanEvent::plain("compute", SpanKind::Compute, t0, t0 + s));
        }
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
        self.record(SpanEvent {
            name: "send",
            kind: SpanKind::Send,
            t0,
            t1: t0 + busy,
            peer: dst,
            bytes,
            wait_s: 0.0,
        });
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
    /// source/tag pair; `src` may be this rank), blocking the rank's
    /// thread if needed. The blocking form of [`Comm::recv_async`].
    pub fn recv(&mut self, src: usize, tag: u32) -> Bytes {
        self.blocking("recv", async |c: &mut Self| c.recv_async(src, tag).await)
    }

    /// Receive the next message from `src` with `tag` (FIFO per
    /// source/tag pair; `src` may be this rank); charges virtual wait
    /// time until the message's delivery timestamp plus the
    /// receiver-side busy time.
    pub async fn recv_async(&mut self, src: usize, tag: u32) -> Bytes {
        assert!(src < self.nranks, "recv from rank {src} of {}", self.nranks);
        assert!(tag < COLLECTIVE_TAG, "user tags must be < 2^31");
        self.recv_internal(src, tag).await
    }

    async fn recv_internal(&mut self, src: usize, tag: u32) -> Bytes {
        let t0 = self.clock;
        let (core, rank) = (&self.core, self.rank);
        let msg = poll_fn(|_| core.take(rank, src, tag, t0)).await;
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
        self.record(SpanEvent {
            name: "recv",
            kind: SpanKind::Recv,
            t0,
            t1: self.clock,
            peer: src,
            bytes,
            wait_s: waited,
        });
        msg.payload
    }

    /// Send a slice of doubles (little-endian serialization).
    pub fn send_f64s(&mut self, dst: usize, tag: u32, vals: &[f64]) {
        self.send(dst, tag, pack_f64s(vals));
    }

    /// Receive a vector of doubles. The blocking form of
    /// [`Comm::recv_f64s_async`].
    pub fn recv_f64s(&mut self, src: usize, tag: u32) -> Vec<f64> {
        self.blocking("recv_f64s", async |c: &mut Self| {
            c.recv_f64s_async(src, tag).await
        })
    }

    /// Receive a vector of doubles.
    pub async fn recv_f64s_async(&mut self, src: usize, tag: u32) -> Vec<f64> {
        unpack_f64s(&self.recv_async(src, tag).await)
    }

    /// Run `body`, the async form of operation `op`, to completion on
    /// this closure rank's thread, handing the turn back whenever it
    /// waits. A stackless rank has no thread of its own to block, so it
    /// must await the operation's async form.
    pub(crate) fn blocking<T>(&mut self, op: &str, body: impl AsyncFnOnce(&mut Self) -> T) -> T {
        let Some(turn) = self.turn.take() else {
            panic!(
                "Comm::{op} blocks the rank's thread, and a stackless rank has none: \
                 await comm.{op}_async(..) instead"
            )
        };
        let out = turn.block_on(body(self));
        self.turn = Some(turn);
        out
    }

    fn next_coll_tag(&mut self, op: u32) -> u32 {
        let tag = COLLECTIVE_TAG | (op << 20) | (self.coll_seq & 0xf_ffff);
        self.coll_seq = self.coll_seq.wrapping_add(1);
        tag
    }

    /// Record an enclosing span for a collective that started at `t0`.
    fn emit_collective(&mut self, name: &'static str, t0: f64) {
        self.record(SpanEvent::plain(name, SpanKind::Collective, t0, self.clock));
    }

    /// Binomial-tree broadcast from rank 0, which supplies the payload.
    async fn bcast_from_zero(&mut self, payload: Option<Bytes>) -> Bytes {
        let (n, rank) = (self.nranks, self.rank);
        let tag = self.next_coll_tag(1);
        let mut data = payload.unwrap_or_default();
        let mut mask = 1;
        while mask < n {
            if rank >= mask && rank < 2 * mask {
                data = self.recv_internal(rank - mask, tag).await;
            } else if rank < mask && rank + mask < n {
                self.send_internal(rank + mask, tag, data.clone());
            }
            mask <<= 1;
        }
        data
    }

    /// Binomial-tree element-wise sum to rank 0: `Some(sum)` there,
    /// `None` elsewhere.
    async fn reduce_to_zero(&mut self, vals: &[f64]) -> Option<Vec<f64>> {
        let (n, rank) = (self.nranks, self.rank);
        let tag = self.next_coll_tag(2);
        let mut acc = vals.to_vec();
        let mut mask = 1;
        while mask < n {
            if rank & mask != 0 {
                self.send_internal(rank - mask, tag, pack_f64s(&acc));
                return None;
            }
            if rank + mask < n {
                let theirs = unpack_f64s(&self.recv_internal(rank + mask, tag).await);
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

    async fn reduce_then_bcast(&mut self, vals: &[f64]) -> Vec<f64> {
        let reduced = self.reduce_to_zero(vals).await;
        unpack_f64s(&self.bcast_from_zero(reduced.map(|v| pack_f64s(&v))).await)
    }

    /// Allreduce (sum) of a double vector. The blocking form of
    /// [`Comm::allreduce_sum_async`].
    pub fn allreduce_sum(&mut self, vals: &[f64]) -> Vec<f64> {
        self.blocking("allreduce_sum", async |c: &mut Self| {
            c.allreduce_sum_async(vals).await
        })
    }

    /// Allreduce (sum) of a double vector: reduce to rank 0 then
    /// broadcast.
    pub async fn allreduce_sum_async(&mut self, vals: &[f64]) -> Vec<f64> {
        let t0 = self.clock;
        let out = self.reduce_then_bcast(vals).await;
        self.emit_collective("allreduce_sum", t0);
        out
    }

    /// Barrier. The blocking form of [`Comm::barrier_async`].
    pub fn barrier(&mut self) {
        self.blocking("barrier", async |c: &mut Self| c.barrier_async().await)
    }

    /// Barrier: empty allreduce.
    pub async fn barrier_async(&mut self) {
        let t0 = self.clock;
        self.reduce_then_bcast(&[]).await;
        self.emit_collective("barrier", t0);
    }

    /// Ring allgather. The blocking form of [`Comm::allgather_async`].
    pub fn allgather(&mut self, mine: Bytes) -> Vec<Bytes> {
        self.blocking("allgather", async |c: &mut Self| {
            c.allgather_async(mine).await
        })
    }

    /// Ring allgather: each rank contributes one payload; everyone gets
    /// all payloads, indexed by rank.
    pub async fn allgather_async(&mut self, mine: Bytes) -> Vec<Bytes> {
        let t0 = self.clock;
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
            let inp = self.recv_internal(left, tag).await;
            chunks[recv_idx] = Some(inp);
        }
        let all = chunks
            .into_iter()
            .map(|c| c.expect("complete ring"))
            .collect();
        self.emit_collective("allgather", t0);
        all
    }

    /// Pairwise-exchange personalized all-to-all. The blocking form of
    /// [`Comm::alltoallv_async`].
    pub fn alltoallv(&mut self, outgoing: Vec<Bytes>) -> Vec<Bytes> {
        self.blocking("alltoallv", async |c: &mut Self| {
            c.alltoallv_async(outgoing).await
        })
    }

    /// Pairwise-exchange personalized all-to-all: `outgoing[d]` goes to
    /// rank `d`; returns `incoming[s]` from each rank `s`.
    pub async fn alltoallv_async(&mut self, outgoing: Vec<Bytes>) -> Vec<Bytes> {
        let t0 = self.clock;
        let n = self.nranks;
        assert_eq!(outgoing.len(), n, "alltoallv needs one payload per rank");
        let tag = self.next_coll_tag(4);
        let mut incoming: Vec<Bytes> = vec![Bytes::new(); n];
        incoming[self.rank] = outgoing[self.rank].clone();
        for k in 1..n {
            let dst = (self.rank + k) % n;
            let src = (self.rank + n - k) % n;
            self.send_internal(dst, tag, outgoing[dst].clone());
            incoming[src] = self.recv_internal(src, tag).await;
        }
        self.emit_collective("alltoallv", t0);
        incoming
    }
}

/// Serialize doubles little-endian.
pub fn pack_f64s(vals: &[f64]) -> Bytes {
    let mut v = vec![0; vals.len() * 8];
    for (chunk, x) in v.chunks_exact_mut(8).zip(vals) {
        chunk.copy_from_slice(&x.to_le_bytes());
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
    fn packed_doubles_are_their_little_endian_bytes_in_order() {
        let special = [
            -0.0,
            f64::from_bits(0x7ff8_dead_beef_0001), // NaN with a payload
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let vals: Vec<f64> = (0..512)
            .map(|i| special.get(i % 64).copied().unwrap_or(i as f64 * -1.25e-3))
            .collect();
        let expected: Vec<u8> = vals.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(expected.len(), 4096);
        assert_eq!(pack_f64s(&vals).as_slice(), &expected[..]);
        assert!(pack_f64s(&[]).is_empty());
    }

    #[test]
    fn f64_roundtrip() {
        let vals = vec![0.0, -1.5, std::f64::consts::PI, f64::MAX, 1e-300];
        assert_eq!(unpack_f64s(&pack_f64s(&vals)), vals);
    }

    #[test]
    fn a_table_built_by_entry_holds_touched_peers_in_rank_order() {
        let mut built = PeerTable::default();
        for (peer, bytes) in [(4, 10), (1, 7), (4, 5), (5, 0)] {
            built.entry(peer).msgs_from += 1;
            built.entry(peer).bytes_from += bytes;
        }
        let peers: Vec<usize> = built.iter().map(|(p, _)| p).collect();
        assert_eq!(peers, [1, 4, 5]);
        assert_eq!(built.get(4).bytes_from, 15);
        assert_eq!(built.get(5).msgs_from, 1);
        assert_eq!(built.get(0), PeerTraffic::default());
    }

    #[test]
    #[should_panic(expected = "whole number of doubles")]
    fn ragged_payload_rejected() {
        unpack_f64s(&Bytes::from_static(&[1, 2, 3]));
    }
}
