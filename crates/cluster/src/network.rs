//! The LogGP-style network timing model, applied per link of a
//! [`Topology`].
//!
//! The link parameters come from [`NetworkSpec`]; the wiring plan —
//! star switch (the paper's machine), fat-tree, or torus — comes from
//! [`NetworkSpec::topology`]. For one message of `k` bytes between
//! nodes whose route crosses `h` latency hops, `e` extra edge-rate
//! store-and-forward serializations and `u` oversubscribed uplink
//! serializations (factor `σ`),
//!
//! ```text
//! sender busy:   o  +  k·G                      (overhead + NIC serialization)
//! in flight:     h·L  +  (e + u·σ)·k·G          (store-and-forward)
//!                h·L  +  max(σ−1, 0)·k·G        (cut-through, bottleneck drain)
//! receiver busy: o  +  k·G                      (charged when the receiver recvs)
//! ```
//!
//! On the star every pair has `h = 1, e = 1, u = 0`, which is exactly
//! the original single-switch model — [`NetworkModel::flight_between`]
//! delegates to the same arithmetic as [`NetworkModel::flight`] there,
//! so star timings are bit-identical to the pre-topology simulator.
//! Sender-side serialization makes back-to-back sends from one node queue
//! behind each other (the rank's own virtual clock advances); receiver-side
//! serialization makes incast (many-to-one) queue at the receiver; and on
//! hierarchical topologies the `u·σ` term makes traffic that crosses
//! switch boundaries pay for the shared uplink's effective bandwidth.
//! These effects are what limit the treecode's parallel efficiency on
//! Fast Ethernet in Table 2 — and what makes it fall further on an
//! oversubscribed tree.
//!
//! # Example: a 2-level oversubscribed fat-tree
//!
//! ```
//! use mb_cluster::network::NetworkModel;
//! use mb_cluster::spec::NetworkSpec;
//! use mb_cluster::Topology;
//!
//! let mut spec = NetworkSpec::fast_ethernet();
//! spec.topology = Topology::fat_tree(16, 2, 4.0); // 256 ports, 4:1 uplinks
//! let net = NetworkModel::new(spec);
//!
//! // Same edge switch: identical to the star.
//! assert_eq!(net.flight_between(0, 15, 4096), net.flight(4096));
//! // Crossing the core: more latency hops and 4× slower uplink
//! // serialization make the flight strictly longer.
//! assert!(net.flight_between(0, 16, 4096) > net.flight(4096));
//! ```
//!
//! # Example: a 3-D torus
//!
//! ```
//! use mb_cluster::network::NetworkModel;
//! use mb_cluster::spec::NetworkSpec;
//! use mb_cluster::Topology;
//!
//! let mut spec = NetworkSpec::fast_ethernet();
//! spec.topology = Topology::torus([8, 4, 2]); // 64 nodes
//! let net = NetworkModel::new(spec);
//!
//! // Ring neighbours are one direct cable — no switch in the middle,
//! // so a large message flies *faster* than through the star switch.
//! assert!(net.flight_between(0, 1, 125_000) < net.flight(125_000));
//! // A worst-case pair pays one serialization per intermediate router.
//! assert!(net.flight_between(0, 4 + 8 * 2 + 32, 125_000) > net.flight(125_000));
//! ```

use crate::spec::NetworkSpec;
use crate::topology::Topology;

/// Timing calculator for one interconnect. Stateless — all queueing is
/// carried by the ranks' virtual clocks, which keeps simulated time fully
/// deterministic under real-thread execution.
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    spec: NetworkSpec,
}

impl NetworkModel {
    /// Build a model from a spec.
    pub fn new(spec: NetworkSpec) -> Self {
        Self { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Per-byte serialization time (G), seconds.
    pub fn gap_per_byte(&self) -> f64 {
        self.spec.gap_s_per_byte()
    }

    /// Time the *sender* is busy for a `bytes`-byte send: software
    /// overhead plus NIC serialization.
    pub fn send_busy(&self, bytes: u64) -> f64 {
        self.spec.overhead_s + bytes as f64 * self.gap_per_byte()
    }

    /// Additional in-flight time after the sender finishes: wire/switch
    /// latency, plus a second serialization if the switch is
    /// store-and-forward.
    pub fn flight(&self, bytes: u64) -> f64 {
        let extra = if self.spec.store_and_forward {
            bytes as f64 * self.gap_per_byte()
        } else {
            0.0
        };
        self.spec.latency_s + extra
    }

    /// The wiring plan this model charges routes against.
    pub fn topology(&self) -> Topology {
        self.spec.topology
    }

    /// In-flight time for a message between two specific *nodes*,
    /// following the topology's route: one wire latency per hop plus
    /// the route's store-and-forward re-serializations, with
    /// inter-switch serializations slowed by the uplink
    /// oversubscription factor. On the star — and for fat-tree pairs
    /// under one edge switch — this is the same arithmetic as
    /// [`NetworkModel::flight`], bit for bit.
    pub fn flight_between(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        let p = self.spec.topology.path(src, dst);
        if p.latency_hops == 1 && p.uplink_resers == 0 && p.edge_resers == 1 {
            // The single-switch profile: keep the legacy expression so
            // star outcomes stay bit-identical to committed baselines.
            return self.flight(bytes);
        }
        let ser = bytes as f64 * self.gap_per_byte();
        let extra = if self.spec.store_and_forward {
            (p.edge_resers as f64 + p.uplink_resers as f64 * p.oversub) * ser
        } else if p.uplink_resers > 0 {
            // Cut-through: no per-switch re-serialization, but an
            // oversubscribed bottleneck link still drains slower than
            // the NIC fills it — the message queues behind the σ−1
            // shares of the uplink it doesn't own.
            (p.oversub - 1.0) * ser
        } else {
            0.0
        };
        p.latency_hops as f64 * self.spec.latency_s + extra
    }

    /// Time the *receiver* is busy consuming the message.
    pub fn recv_busy(&self, bytes: u64) -> f64 {
        self.spec.overhead_s + bytes as f64 * self.gap_per_byte()
    }

    /// End-to-end time for one isolated message (both endpoints idle).
    pub fn ping_time(&self, bytes: u64) -> f64 {
        self.send_busy(bytes) + self.flight(bytes) + self.recv_busy(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe() -> NetworkModel {
        NetworkModel::new(NetworkSpec::fast_ethernet())
    }

    #[test]
    fn gap_matches_bandwidth() {
        // 100 Mb/s ⇒ 80 ns/byte.
        assert!((fe().gap_per_byte() - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn small_message_is_latency_bound() {
        let m = fe();
        let t = m.ping_time(8);
        // Dominated by 70 µs latency + 2×15 µs overheads.
        assert!(t > 99e-6 && t < 110e-6, "{t}");
    }

    #[test]
    fn large_message_is_bandwidth_bound() {
        let m = fe();
        let t = m.ping_time(1_250_000); // 10 Mb
                                        // ≥ 3 serializations of 0.1 s each (tx + switch + rx).
        assert!(t > 0.29 && t < 0.32, "{t}");
    }

    #[test]
    fn star_flight_between_is_bitwise_the_legacy_flight() {
        let m = fe();
        for bytes in [0u64, 8, 4096, 1_250_000] {
            for (s, d) in [(0, 1), (3, 17), (200, 200)] {
                assert_eq!(
                    m.flight_between(s, d, bytes).to_bits(),
                    m.flight(bytes).to_bits()
                );
            }
        }
    }

    fn ft() -> NetworkModel {
        let mut spec = NetworkSpec::fast_ethernet();
        spec.topology = Topology::fat_tree(16, 2, 4.0);
        NetworkModel::new(spec)
    }

    #[test]
    fn fat_tree_intra_switch_matches_star_and_cross_pays_uplinks() {
        let m = ft();
        let bytes = 125_000; // 10 ms per edge serialization
        assert_eq!(
            m.flight_between(0, 15, bytes).to_bits(),
            fe().flight(bytes).to_bits()
        );
        let cross = m.flight_between(0, 16, bytes);
        // 3 hops of latency + (1 + 2·4) serializations of 10 ms.
        let expect = 3.0 * 70e-6 + 9.0 * 0.01;
        assert!((cross - expect).abs() < 1e-9, "{cross}");
    }

    #[test]
    fn cut_through_fat_tree_charges_only_the_bottleneck_drain() {
        let mut spec = NetworkSpec::fast_ethernet();
        spec.store_and_forward = false;
        spec.topology = Topology::fat_tree(16, 2, 4.0);
        let m = NetworkModel::new(spec);
        let bytes = 125_000;
        // 3 latency hops + (4−1)× one serialization behind the shared uplink.
        let expect = 3.0 * 70e-6 + 3.0 * 0.01;
        assert!((m.flight_between(0, 16, bytes) - expect).abs() < 1e-9);
        // Intra-switch cut-through: pure latency, like the star.
        assert_eq!(
            m.flight_between(0, 15, bytes).to_bits(),
            m.flight(bytes).to_bits()
        );
    }

    #[test]
    fn torus_neighbor_beats_the_star_switch() {
        let mut spec = NetworkSpec::fast_ethernet();
        spec.topology = Topology::torus([8, 4, 2]);
        let m = NetworkModel::new(spec);
        let bytes = 125_000;
        // One direct cable: latency only, no switch re-serialization.
        assert!(m.flight_between(0, 1, bytes) < fe().flight(bytes));
        // Four hops: 4 latencies + 3 intermediate-router serializations.
        let far = m.flight_between(0, 2 + 8 * 2, bytes); // (2,2,0): h = 4
        assert!((far - (4.0 * 70e-6 + 3.0 * 0.01)).abs() < 1e-9, "{far}");
    }

    #[test]
    fn cut_through_removes_one_serialization() {
        let mut spec = NetworkSpec::fast_ethernet();
        spec.store_and_forward = false;
        let ct = NetworkModel::new(spec);
        let sf = fe();
        let bytes = 125_000;
        let diff = sf.ping_time(bytes) - ct.ping_time(bytes);
        assert!((diff - 0.01).abs() < 1e-9, "one 10-ms hop: {diff}");
    }
}
