//! Interconnect topologies: deterministic per-pair routes and costs.
//!
//! The paper's MetaBlade hangs every node off one Fast-Ethernet switch —
//! a star. At the 512–1024-rank scale the event-driven executor now
//! simulates, real machines of the era (Dubinski et al.'s teraflop
//! Beowulf, see PAPERS.md) were multi-switch trees with oversubscribed
//! uplinks, and direct-network machines used tori. A [`Topology`] names
//! one of those wiring plans and answers two questions about a node
//! pair, both as **pure functions** of `(topology, src, dst)`:
//!
//! * [`Topology::route`] — the ordered shared links a message traverses
//!   (used for per-link occupancy accounting and the route-property
//!   tests); [`Topology::for_each_link`] visits the same links without
//!   building the vector;
//! * [`Topology::path`] — the scalar cost profile of that route: how
//!   many latency hops it crosses and how many extra store-and-forward
//!   serializations it pays, with inter-switch links slowed by the
//!   uplink oversubscription factor.
//!
//! **Route determinism rules.** All queueing in this simulator is
//! carried by the ranks' own virtual clocks (see [`crate::comm`]); the
//! network layer holds no mutable link state, which is what makes
//! outcomes bit-identical under every executor policy. Contention on
//! shared links is therefore modeled *deterministically*: an
//! oversubscribed uplink serializes bytes at `oversubscription ×` the
//! edge gap (the time-averaged effective bandwidth of a saturated
//! shared link), and a torus hop chain re-serializes at every
//! intermediate router. Routes themselves are fixed by arithmetic —
//! fat-tree paths climb to the lowest common ancestor switch,
//! dimension-ordered torus routing breaks ring-distance ties in the
//! positive direction — so two messages between the same pair always
//! take the same links, in the same order, on every host and under
//! every executor policy.
//!
//! [`Topology::link_occupancy`] folds a finished run's per-peer traffic
//! counters over the routes, yielding bytes/messages per named link —
//! post-hoc derivation keeps the hot send path free of per-link
//! bookkeeping and keeps [`crate::comm::CommStats`] (and with it every
//! committed outcome fingerprint) unchanged.
//!
//! **Link identities.** Inside the simulator a link on the cross-job
//! contention path is a dense integer, not a string: [`LinkIds`] maps a
//! [`Link`] plus its ECMP way onto `0..link_count` by block arithmetic
//! over `(topology, ways)` alone, so lowering a job's traffic, summing
//! an epoch's link loads and integrating per-link telemetry index flat
//! vectors, tell host, fabric and edge-uplink ids apart by range, and
//! never hash, compare or allocate a name. Names — the `Display` form,
//! with a `.w{way}` suffix on spread fabric links — exist only at the
//! report boundary ([`LinkIds::name`]).

use std::collections::BTreeMap;
use std::fmt;

use crate::comm::CommStats;
use crate::partition::NodeSet;

/// A cluster interconnect wiring plan. `Star` is the paper's machine
/// and the default everywhere; the hierarchical variants make 128+ rank
/// simulations pay realistic bisection and incast costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// Every node one full-duplex link from a single ideal switch (the
    /// paper's §3.1 machine). Per-pair costs are uniform; the timing
    /// arithmetic is bit-identical to the pre-topology model.
    Star,
    /// A `levels`-tier tree of `radix`-port switch groups: nodes
    /// `[i·radix, (i+1)·radix)` share edge switch `i`, and each tier
    /// aggregates `radix` switches of the tier below. Inter-switch
    /// links are `uplink_oversubscription ×` slower than edge links
    /// (effective bandwidth under full-bisection load).
    FatTree {
        /// Ports per switch toward the lower tier (≥ 2).
        radix: usize,
        /// Switch tiers (≥ 1); capacity is `radix^levels` nodes.
        levels: usize,
        /// Effective slowdown of inter-switch links (≥ 1.0); 1.0 is a
        /// non-blocking (full-bisection) tree.
        uplink_oversubscription: f64,
    },
    /// A direct network: nodes on a 3-D wrap-around grid, one router
    /// per node, dimension-ordered routing. Use `1` for unused
    /// dimensions (e.g. `[16, 8, 1]` is a 2-D torus).
    Torus {
        /// Ring lengths per dimension (each ≥ 1); capacity is their
        /// product.
        dims: [usize; 3],
    },
}

/// One directed link in a route. Link identities are stable strings
/// (via `Display`) so occupancy counters aggregate across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Link {
    /// Node NIC into its first switch.
    HostUp(usize),
    /// Last switch down into the destination NIC.
    HostDown(usize),
    /// Fat-tree uplink out of switch `sw` at tier `level` (1-based).
    Up {
        /// Tier of the switch the link leaves (1 = edge).
        level: usize,
        /// Switch index within the tier.
        sw: usize,
    },
    /// Fat-tree downlink into switch `sw` at tier `level`.
    Down {
        /// Tier of the switch the link enters (1 = edge).
        level: usize,
        /// Switch index within the tier.
        sw: usize,
    },
    /// Torus cable from router `from` to neighbouring router `to`.
    Hop {
        /// Source router (node id).
        from: usize,
        /// Destination router (node id).
        to: usize,
    },
}

impl Link {
    /// A fat-tree inter-switch link — the ones that run at the
    /// oversubscribed rate and that ECMP spreads over parallel ways.
    pub fn is_fabric(&self) -> bool {
        matches!(self, Link::Up { .. } | Link::Down { .. })
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Link::HostUp(n) => write!(f, "host-up:{n}"),
            Link::HostDown(n) => write!(f, "host-down:{n}"),
            Link::Up { level, sw } => write!(f, "up:l{level}.s{sw}"),
            Link::Down { level, sw } => write!(f, "down:l{level}.s{sw}"),
            Link::Hop { from, to } => write!(f, "hop:{from}>{to}"),
        }
    }
}

/// Scalar cost profile of one route (see [`Topology::path`]). The
/// network model turns this into seconds; keeping it integer-and-factor
/// valued here keeps the cost function exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// Switch/router traversals, each charged one wire latency.
    pub latency_hops: usize,
    /// Store-and-forward re-serializations at the edge-link rate.
    pub edge_resers: usize,
    /// Store-and-forward re-serializations on inter-switch links, each
    /// at `oversub ×` the edge gap.
    pub uplink_resers: usize,
    /// Effective slowdown factor of the inter-switch links crossed
    /// (1.0 when the route stays under one switch).
    pub oversub: f64,
}

/// Aggregate traffic over one link (see [`Topology::link_occupancy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkLoad {
    /// Messages that traversed the link.
    pub msgs: u64,
    /// Payload bytes that traversed the link.
    pub bytes: u64,
}

impl Topology {
    /// A validated fat-tree. Panics on a degenerate shape.
    pub fn fat_tree(radix: usize, levels: usize, uplink_oversubscription: f64) -> Self {
        assert!(radix >= 2, "fat-tree radix must be at least 2");
        assert!(levels >= 1, "fat-tree needs at least one switch tier");
        assert!(
            uplink_oversubscription >= 1.0,
            "oversubscription below 1.0 would make shared links faster than edge links"
        );
        Topology::FatTree {
            radix,
            levels,
            uplink_oversubscription,
        }
    }

    /// A validated 3-D torus (use dimension length 1 for unused axes).
    pub fn torus(dims: [usize; 3]) -> Self {
        assert!(
            dims.iter().all(|&d| d >= 1),
            "torus dimensions must all be at least 1"
        );
        Topology::Torus { dims }
    }

    /// Maximum node count this topology can wire; `None` = unbounded
    /// (the ideal star switch has as many ports as it needs).
    pub fn capacity(&self) -> Option<usize> {
        match *self {
            Topology::Star => None,
            Topology::FatTree { radix, levels, .. } => {
                Some(radix.checked_pow(levels as u32).unwrap_or(usize::MAX))
            }
            Topology::Torus { dims } => Some(dims[0] * dims[1] * dims[2]),
        }
    }

    /// Short stable label for bench records and metric names:
    /// `star`, `ft16x2o4`, `torus8x4x2`.
    pub fn label(&self) -> String {
        match *self {
            Topology::Star => "star".to_string(),
            Topology::FatTree {
                radix,
                levels,
                uplink_oversubscription: o,
            } => {
                if o.fract() == 0.0 {
                    format!("ft{radix}x{levels}o{}", o as u64)
                } else {
                    format!("ft{radix}x{levels}o{o}")
                }
            }
            Topology::Torus { dims } => format!("torus{}x{}x{}", dims[0], dims[1], dims[2]),
        }
    }

    /// Smallest tier at which `a` and `b` share an ancestor switch
    /// (1 = same edge switch). Fat-tree only.
    fn lca_level(radix: usize, a: usize, b: usize) -> usize {
        let (mut a, mut b, mut k) = (a / radix, b / radix, 1);
        while a != b {
            a /= radix;
            b /= radix;
            k += 1;
        }
        k
    }

    /// The cost profile of the `src → dst` route. Self-sends loop back
    /// through the local switch/router and cost exactly one latency hop.
    pub fn path(&self, src: usize, dst: usize) -> PathProfile {
        match *self {
            Topology::Star => PathProfile {
                latency_hops: 1,
                edge_resers: 1,
                uplink_resers: 0,
                oversub: 1.0,
            },
            Topology::FatTree {
                radix,
                uplink_oversubscription,
                ..
            } => {
                let k = Self::lca_level(radix, src, dst);
                PathProfile {
                    // Up through k−1 switches, across the tier-k ancestor,
                    // down through k−1: 2k−1 switch traversals.
                    latency_hops: 2 * k - 1,
                    // The final switch→NIC serialization (the star's one
                    // store-and-forward hop) plus 2(k−1) inter-switch
                    // egresses at the oversubscribed rate.
                    edge_resers: 1,
                    uplink_resers: 2 * (k - 1),
                    oversub: if k > 1 { uplink_oversubscription } else { 1.0 },
                }
            }
            Topology::Torus { dims } => {
                let h: usize = (0..3)
                    .map(|d| {
                        let (a, b) = (Self::coords(dims, src)[d], Self::coords(dims, dst)[d]);
                        let fwd = (b + dims[d] - a) % dims[d];
                        fwd.min(dims[d] - fwd)
                    })
                    .sum();
                PathProfile {
                    // One router+cable latency per hop; a neighbour is one
                    // direct cable (no switch in the middle), a self-send
                    // one loopback hop.
                    latency_hops: h.max(1),
                    // Each intermediate router store-and-forwards once.
                    edge_resers: h.saturating_sub(1),
                    uplink_resers: 0,
                    oversub: 1.0,
                }
            }
        }
    }

    /// The route class of a node set: two sets of one width with equal
    /// classes give equal [`Topology::path`]s at every pair of positions
    /// `(ids[i], ids[j])`. The star's is empty. A fat tree's is the
    /// `lca_level` of each consecutive pair of ascending ids: an id between
    /// two others shares every switch they share, so a pair's level is the
    /// largest over the consecutive pairs between them. A torus's class is
    /// the ids themselves.
    pub fn route_class<'a>(&self, nodes: &'a NodeSet) -> impl Iterator<Item = usize> + 'a {
        let ids = nodes.ids();
        let (radix, consecutive, own) = match *self {
            Topology::Star => (2, &[][..], &[][..]),
            Topology::FatTree { radix, .. } => (radix, ids, &[][..]),
            Topology::Torus { .. } => (2, &[][..], ids),
        };
        // Each id's edge switch is divided out once, for both its pairs.
        let mut edges = consecutive.iter().map(move |&n| n / radix);
        let first = edges.next();
        (consecutive.windows(2).zip(edges))
            .scan(first, move |prev, (w, edge)| {
                let same = prev.replace(edge) == Some(edge);
                Some(if same {
                    1
                } else {
                    Self::lca_level(radix, w[0], w[1])
                })
            })
            .chain(own.iter().copied())
    }

    fn coords(dims: [usize; 3], node: usize) -> [usize; 3] {
        [
            node % dims[0],
            (node / dims[0]) % dims[1],
            node / (dims[0] * dims[1]),
        ]
    }

    fn node_at(dims: [usize; 3], c: [usize; 3]) -> usize {
        c[0] + dims[0] * (c[1] + dims[1] * c[2])
    }

    /// The ordered directed links a `src → dst` message traverses.
    /// Deterministic: fat-tree routes climb to the lowest common
    /// ancestor; torus routes are dimension-ordered (x, then y, then z)
    /// taking the shorter ring direction, ties broken positively.
    pub fn route(&self, src: usize, dst: usize) -> Vec<Link> {
        let mut links = Vec::new();
        self.for_each_link(src, dst, |l| links.push(l));
        links
    }

    /// Visit the links of [`Topology::route`] in route order without
    /// allocating.
    pub fn for_each_link(&self, src: usize, dst: usize, mut visit: impl FnMut(Link)) {
        match *self {
            Topology::Star => {
                visit(Link::HostUp(src));
                visit(Link::HostDown(dst));
            }
            Topology::FatTree { radix, .. } => {
                let k = Self::lca_level(radix, src, dst);
                visit(Link::HostUp(src));
                for l in 1..k {
                    visit(Link::Up {
                        level: l,
                        sw: src / radix.pow(l as u32),
                    });
                }
                for l in (1..k).rev() {
                    visit(Link::Down {
                        level: l,
                        sw: dst / radix.pow(l as u32),
                    });
                }
                visit(Link::HostDown(dst));
            }
            Topology::Torus { dims } => {
                let mut cur = Self::coords(dims, src);
                let goal = Self::coords(dims, dst);
                for d in 0..3 {
                    while cur[d] != goal[d] {
                        let fwd = (goal[d] + dims[d] - cur[d]) % dims[d];
                        let back = dims[d] - fwd;
                        let from = Self::node_at(dims, cur);
                        // Shorter direction wins; an exact half-ring tie
                        // goes positive so both endpoints agree.
                        cur[d] = if fwd <= back {
                            (cur[d] + 1) % dims[d]
                        } else {
                            (cur[d] + dims[d] - 1) % dims[d]
                        };
                        visit(Link::Hop {
                            from,
                            to: Self::node_at(dims, cur),
                        });
                    }
                }
            }
        }
    }

    /// Parallel uplink "ways" a deterministic ECMP-style hash can
    /// spread flows over. A `radix`-port switch with oversubscription
    /// `o` has `⌊radix / o⌋` physical uplinks (at least one); the star
    /// switch and torus cables are single links.
    pub fn ecmp_ways(&self) -> usize {
        match *self {
            Topology::FatTree {
                radix,
                uplink_oversubscription,
                ..
            } => (((radix as f64) / uplink_oversubscription).floor() as usize).max(1),
            _ => 1,
        }
    }

    /// Links of the `src → dst` route for *cross-job contention
    /// accounting*, as [`LinkIds`] identities, with deterministic
    /// ECMP-style spreading over `ways` parallel uplinks. The way is an
    /// FNV-1a hash of `(src, dst, salt)` — callers salt with the job
    /// id, so two jobs between the same switch pair usually land on
    /// different physical uplinks while every rank of one flow stays on
    /// one way (no reordering). Host links and torus cables never
    /// spread (one NIC, one cable). With `ways <= 1` the ids name
    /// exactly [`Topology::route`]'s `Display` strings — a pure
    /// function of `(topology, src, dst, salt, ways)`, same on every
    /// host and under every executor width.
    pub fn contention_links(&self, src: usize, dst: usize, salt: u64, ways: usize) -> Vec<LinkId> {
        let mut ids = Vec::new();
        LinkIds::new(self, ways).for_each(src, dst, salt, |id| ids.push(id));
        ids
    }

    /// Fold a finished run's per-peer traffic counters over the routes:
    /// bytes and messages per named link. `node_ids` maps job rank →
    /// physical node (identity when `None`, the whole-cluster case).
    /// Purely derived data — consumes [`CommStats`], never feeds back
    /// into the simulation, so fingerprinted outcomes are untouched.
    pub fn link_occupancy(
        &self,
        stats: &[CommStats],
        node_ids: Option<&[usize]>,
    ) -> BTreeMap<String, LinkLoad> {
        let node = |rank: usize| node_ids.map_or(rank, |m| m[rank]);
        let mut occ: BTreeMap<String, LinkLoad> = BTreeMap::new();
        for (src, s) in stats.iter().enumerate() {
            for (dst, peer) in s.peers.iter() {
                if peer.msgs_to == 0 {
                    continue;
                }
                for link in self.route(node(src), node(dst)) {
                    let load = occ.entry(link.to_string()).or_default();
                    load.msgs += peer.msgs_to;
                    load.bytes += peer.bytes_to;
                }
            }
        }
        occ
    }
}

/// Dense integer identity of one contention link: a [`Link`] plus the
/// ECMP way it was hashed onto. Only meaningful together with the
/// [`LinkIds`] space that issued it.
pub type LinkId = u32;

/// The link-identity space of one `(topology, ways)` pair: a bijection
/// between contention links and `0..link_count`, by arithmetic alone.
///
/// Ids are laid out in blocks. Fat-tree: `host-up` by node, `host-down`
/// by node, then per tier `l < levels` its uplinks and its downlinks,
/// each by `(switch, way)`. Torus: per dimension, by `(router,
/// direction)` — a ring of length 2 has one direction and a ring of
/// length 1 none, so no two ids share a name. [`Topology::capacity`]
/// bounds every block. The unbounded star interleaves `host-up:n` →
/// `2n`, `host-down:n` → `2n + 1` and reports no [`LinkIds::link_count`].
/// Because the blocks are contiguous, an id's class is a range test:
/// [`LinkIds::is_fabric`] (and, inside this crate, `is_host` and
/// `edge_uplink`) never decode it with [`LinkIds::link`].
///
/// ```
/// use mb_cluster::topology::{Link, LinkIds, Topology};
///
/// let ft = Topology::fat_tree(16, 2, 4.0);
/// let ids = LinkIds::new(&ft, ft.ecmp_ways());
/// // 256 host-up + 256 host-down + 16 edge switches × 4 ways, up and down.
/// assert_eq!(ids.link_count(), Some(640));
/// let id = ids.id(Link::Up { level: 1, sw: 3 }, 2);
/// assert_eq!(ids.name(id), "up:l1.s3.w2");
/// assert_eq!(ids.link(id), (Link::Up { level: 1, sw: 3 }, 2));
/// assert!(ids.is_fabric(id) && !ids.is_fabric(ids.id(Link::HostDown(255), 0)));
/// // Without spreading the names are exactly the route's.
/// let plain = LinkIds::new(&ft, 1);
/// let names: Vec<String> = ft
///     .contention_links(0, 17, 9, 1)
///     .into_iter()
///     .map(|id| plain.name(id))
///     .collect();
/// assert_eq!(names, ["host-up:0", "up:l1.s0", "down:l1.s1", "host-down:17"]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkIds {
    topo: Topology,
    /// Parallel uplinks fabric links spread over (≥ 1).
    ways: usize,
    /// `topo.capacity()`, 0 for the unbounded star.
    cap: usize,
}

impl Default for LinkIds {
    /// The star's space (what an empty [`crate::JobTraffic`] carries).
    fn default() -> Self {
        Self::new(&Topology::Star, 1)
    }
}

fn link_id(i: usize) -> LinkId {
    LinkId::try_from(i).expect("link id overflows u32")
}

/// Directions a torus ring of length `len` offers: none when there is
/// no neighbour, one when both neighbours are the same router.
fn ring_dirs(len: usize) -> usize {
    len.saturating_sub(1).min(2)
}

impl LinkIds {
    /// The identity space of `topo` with fabric links spread over
    /// `ways` parallel uplinks (`ways <= 1`: no spreading). Panics when
    /// a bounded topology has more links than a `u32` can index.
    pub fn new(topo: &Topology, ways: usize) -> Self {
        let ids = Self {
            topo: *topo,
            ways: ways.max(1),
            cap: topo.capacity().unwrap_or(0),
        };
        // Every id is below the count: checking it checks them all.
        if let Some(count) = ids.link_count() {
            link_id(count);
        }
        ids
    }

    /// Number of ids in the space; `None` for the unbounded star.
    pub fn link_count(&self) -> Option<usize> {
        match self.topo {
            Topology::Star => None,
            // Where the root tier's block would start: it has no uplinks.
            Topology::FatTree { radix, levels, .. } => Some(self.tier_block(radix, levels).0),
            Topology::Torus { dims } => Some(self.cap * dims.map(ring_dirs).iter().sum::<usize>()),
        }
    }

    /// First id of tier `level`'s fabric block (uplinks, then
    /// downlinks) and the tier's switch count. Fat-tree only.
    /// Saturates on absurd shapes, which [`LinkIds::new`] then rejects.
    fn tier_block(&self, radix: usize, level: usize) -> (usize, usize) {
        let switches = |l: usize| self.cap / radix.saturating_pow(l as u32);
        let below = (1..level).map(switches).fold(0, usize::saturating_add);
        let fabric = below.saturating_mul(2).saturating_mul(self.ways);
        (
            self.cap.saturating_mul(2).saturating_add(fabric),
            switches(level),
        )
    }

    /// The id of `link` on ECMP way `way` (ignored for host links and
    /// torus cables). Panics on a link the topology does not have.
    pub fn id(&self, link: Link, way: usize) -> LinkId {
        let host = |n| self.node(n);
        let i = match (self.topo, link) {
            (Topology::Star, Link::HostUp(n)) => 2 * n,
            (Topology::Star, Link::HostDown(n)) => 2 * n + 1,
            (Topology::FatTree { .. }, Link::HostUp(n)) => host(n),
            (Topology::FatTree { .. }, Link::HostDown(n)) => self.cap + host(n),
            (
                Topology::FatTree { radix, levels, .. },
                Link::Up { level, sw } | Link::Down { level, sw },
            ) => {
                assert!(level >= 1 && level < levels, "tier {level} has no uplinks");
                let (base, switches) = self.tier_block(radix, level);
                assert!(sw < switches && way < self.ways, "{link} way {way}");
                let half = if matches!(link, Link::Up { .. }) {
                    0
                } else {
                    switches * self.ways
                };
                base + half + sw * self.ways + way
            }
            (Topology::Torus { dims }, Link::Hop { from, to }) => {
                let (a, b) = (
                    Topology::coords(dims, host(from)),
                    Topology::coords(dims, host(to)),
                );
                let d = (0..3)
                    .find(|&d| a[d] != b[d])
                    .expect("a torus cable joins two routers");
                // On a ring of two both directions reach the same
                // neighbour; the route takes the positive one.
                let dir = usize::from((a[d] + 1) % dims[d] != b[d]);
                let base: usize = dims[..d].iter().map(|&len| self.cap * ring_dirs(len)).sum();
                base + from * ring_dirs(dims[d]) + dir
            }
            (topo, link) => panic!("{link} is not a link of {}", topo.label()),
        };
        link_id(i)
    }

    /// Inverse of [`LinkIds::id`]: the link and its way (0 for links
    /// that never spread). Panics on an id outside the space.
    pub fn link(&self, id: LinkId) -> (Link, usize) {
        let i = id as usize;
        match self.topo {
            Topology::Star if i.is_multiple_of(2) => (Link::HostUp(i / 2), 0),
            Topology::Star => (Link::HostDown(i / 2), 0),
            Topology::FatTree { .. } if i < self.cap => (Link::HostUp(i), 0),
            Topology::FatTree { .. } if i < 2 * self.cap => (Link::HostDown(i - self.cap), 0),
            Topology::FatTree { radix, levels, .. } => {
                for level in 1..levels {
                    let (base, switches) = self.tier_block(radix, level);
                    let half = switches * self.ways;
                    if i < base + 2 * half {
                        let r = (i - base) % half;
                        let (sw, way) = (r / self.ways, r % self.ways);
                        return if i - base < half {
                            (Link::Up { level, sw }, way)
                        } else {
                            (Link::Down { level, sw }, way)
                        };
                    }
                }
                panic!("link id {id} is outside {}", self.topo.label())
            }
            Topology::Torus { dims } => {
                let mut base = 0;
                for d in 0..3 {
                    let dirs = ring_dirs(dims[d]);
                    if i < base + self.cap * dirs {
                        let (from, dir) = ((i - base) / dirs, (i - base) % dirs);
                        let mut c = Topology::coords(dims, from);
                        c[d] = (c[d] + if dir == 0 { 1 } else { dims[d] - 1 }) % dims[d];
                        let to = Topology::node_at(dims, c);
                        return (Link::Hop { from, to }, 0);
                    }
                    base += self.cap * dirs;
                }
                panic!("link id {id} is outside {}", self.topo.label())
            }
        }
    }

    /// Whether `id` is a host link (`host-up` / `host-down`): every id
    /// of the star, the first `2 · capacity` of a fat tree, none of a
    /// torus. Range arithmetic, like [`LinkIds::is_fabric`] and
    /// [`LinkIds::edge_uplink`]; nothing is decoded.
    pub(crate) fn is_host(&self, id: LinkId) -> bool {
        match self.topo {
            Topology::Star => true,
            Topology::FatTree { .. } => (id as usize) < 2 * self.cap,
            Topology::Torus { .. } => false,
        }
    }

    /// Whether `id` is a fat-tree inter-switch link ([`Link::is_fabric`]).
    pub fn is_fabric(&self, id: LinkId) -> bool {
        matches!(self.topo, Topology::FatTree { .. }) && !self.is_host(id)
    }

    /// The edge switch whose tier-1 uplink `id` is, on any way; `None`
    /// for every other link.
    pub(crate) fn edge_uplink(&self, id: LinkId) -> Option<usize> {
        let Topology::FatTree { radix, .. } = self.topo else {
            return None;
        };
        // Tier 1's uplinks open the fabric blocks, by `(switch, way)`.
        let i = (id as usize).checked_sub(2 * self.cap)?;
        (i < self.cap / radix * self.ways).then(|| i / self.ways)
    }

    /// The link's stable report name: its `Display` form, plus `.w{way}`
    /// on fat-tree fabric links when spreading is on. The only place a
    /// contention link becomes a string.
    pub fn name(&self, id: LinkId) -> String {
        match self.link(id) {
            (l, way) if l.is_fabric() && self.ways > 1 => format!("{l}.w{way}"),
            (l, _) => l.to_string(),
        }
    }

    /// `n`, checked against a bounded topology's capacity.
    fn node(&self, n: usize) -> usize {
        assert!(n < self.cap, "node {n} is outside the topology");
        n
    }

    /// Whether the space has host links, which a torus lacks.
    pub(crate) fn has_hosts(&self) -> bool {
        !matches!(self.topo, Topology::Torus { .. })
    }

    /// The switch a flow out of `node` enters first: its edge switch on a
    /// fat tree, its own router on a torus, the star's one switch. Only
    /// a flow between two switches crosses a link between its host links.
    pub(crate) fn switch_of(&self, node: usize) -> usize {
        match self.topo {
            Topology::Star => 0,
            Topology::FatTree { radix, .. } => node / radix,
            Topology::Torus { .. } => node,
        }
    }

    /// Visit the ids of the `src → dst` contention links in route
    /// order (see [`Topology::contention_links`]) without allocating.
    pub fn for_each(&self, src: usize, dst: usize, salt: u64, mut visit: impl FnMut(LinkId)) {
        let hosts = self.has_hosts();
        if hosts {
            visit(self.id(Link::HostUp(src), 0));
        }
        self.for_each_crossing(src, dst, salt, &mut visit);
        if hosts {
            visit(self.id(Link::HostDown(dst), 0));
        }
    }

    /// [`LinkIds::for_each`] between the host links: a torus's cables,
    /// and on a fat tree nothing unless the route leaves its edge switch.
    /// Then the ECMP way is the hash `h & (ways − 1)` for a power-of-two
    /// `ways`, else `h % ways`, and the ids come from the tier layout.
    pub(crate) fn for_each_crossing(
        &self,
        src: usize,
        dst: usize,
        salt: u64,
        mut visit: impl FnMut(LinkId),
    ) {
        let Topology::FatTree { radix, .. } = self.topo else {
            if let Topology::Torus { .. } = self.topo {
                (self.topo).for_each_link(self.node(src), self.node(dst), |l| visit(self.id(l, 0)));
            }
            return;
        };
        let (mut s, mut d) = (self.node(src) / radix, self.node(dst) / radix);
        if s == d {
            return;
        }
        let mut h = mb_telemetry::Fnv::new();
        h.write_u64(src as u64);
        h.write_u64(dst as u64);
        h.write_u64(salt);
        let (h, ways) = (h.finish(), self.ways);
        let way = if ways.is_power_of_two() {
            h as usize & (ways - 1)
        } else {
            (h % ways as u64) as usize
        };
        // Each tier's uplinks by `(switch, way)`, then its downlinks; a
        // `LinkId` space holds at most `LinkId::BITS` tiers.
        let (mut base, mut switches) = (2 * self.cap, self.cap / radix);
        let (mut downs, mut k) = ([0; LinkId::BITS as usize], 0);
        while s != d {
            visit((base + s * ways + way) as LinkId);
            downs[k] = (base + (switches + d) * ways + way) as LinkId;
            (base, switches, k) = (base + 2 * switches * ways, switches / radix, k + 1);
            (s, d) = (s / radix, d / radix);
        }
        downs[..k].iter().rev().for_each(|&id| visit(id));
    }
}

/// Publish per-link loads into a telemetry registry as
/// `network/link_bytes` / `network/link_msgs` counters labelled by the
/// link name — they ride the Chrome counter-track and JSON export paths
/// like every other metric.
pub fn record_link_occupancy(
    reg: &mut mb_telemetry::metrics::Registry,
    occ: &BTreeMap<String, LinkLoad>,
) {
    for (link, load) in occ {
        reg.count("network/link_bytes", link, load.bytes);
        reg.count("network/link_msgs", link, load.msgs);
    }
}

/// Deterministic xorshift so the property loops are seeded, not
/// host-random (the repo's proptest idiom): `rng(n)` draws from `0..n`.
#[cfg(test)]
pub(crate) fn seeded_rng(seed: u64) -> impl FnMut(usize) -> usize {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |n| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::seeded_rng as rng;
    use super::*;

    #[test]
    fn capacities_and_labels() {
        assert_eq!(Topology::Star.capacity(), None);
        assert_eq!(Topology::Star.label(), "star");
        let ft = Topology::fat_tree(16, 2, 4.0);
        assert_eq!(ft.capacity(), Some(256));
        assert_eq!(ft.label(), "ft16x2o4");
        let t = Topology::torus([8, 4, 2]);
        assert_eq!(t.capacity(), Some(64));
        assert_eq!(t.label(), "torus8x4x2");
    }

    #[test]
    #[should_panic(expected = "radix")]
    fn degenerate_fat_tree_is_rejected() {
        Topology::fat_tree(1, 2, 4.0);
    }

    #[test]
    fn star_route_is_two_links_through_the_switch() {
        let r = Topology::Star.route(3, 7);
        assert_eq!(r, vec![Link::HostUp(3), Link::HostDown(7)]);
        let p = Topology::Star.path(3, 7);
        assert_eq!(p.latency_hops, 1);
        assert_eq!(p.edge_resers, 1);
        assert_eq!(p.uplink_resers, 0);
    }

    #[test]
    fn fat_tree_same_edge_switch_reduces_to_star_costs() {
        let ft = Topology::fat_tree(16, 2, 4.0);
        let p = ft.path(0, 15); // both under edge switch 0
        assert_eq!(p, Topology::Star.path(0, 15));
        assert_eq!(ft.route(0, 15).len(), 2);
    }

    #[test]
    fn fat_tree_cross_switch_pays_uplinks_and_extra_latency() {
        let ft = Topology::fat_tree(16, 2, 4.0);
        let p = ft.path(0, 16); // edge switches 0 and 1, LCA at tier 2
        assert_eq!(p.latency_hops, 3);
        assert_eq!(p.edge_resers, 1);
        assert_eq!(p.uplink_resers, 2);
        assert_eq!(p.oversub, 4.0);
        let r = ft.route(0, 16);
        assert_eq!(
            r,
            vec![
                Link::HostUp(0),
                Link::Up { level: 1, sw: 0 },
                Link::Down { level: 1, sw: 1 },
                Link::HostDown(16),
            ]
        );
    }

    #[test]
    fn three_level_fat_tree_route_is_mirrored() {
        let ft = Topology::fat_tree(4, 3, 2.0);
        // 0 and 63 share only the tier-3 root: 2·3−1 = 5 switch hops.
        let p = ft.path(0, 63);
        assert_eq!(p.latency_hops, 5);
        assert_eq!(p.uplink_resers, 4);
        let up = ft.route(0, 63);
        let down = ft.route(63, 0);
        assert_eq!(up.len(), down.len());
        // The reverse route uses the same switches, mirrored.
        let mirrored: Vec<Link> = up
            .iter()
            .rev()
            .map(|l| match *l {
                Link::HostUp(n) => Link::HostDown(n),
                Link::HostDown(n) => Link::HostUp(n),
                Link::Up { level, sw } => Link::Down { level, sw },
                Link::Down { level, sw } => Link::Up { level, sw },
                other => other,
            })
            .collect();
        assert_eq!(down, mirrored);
    }

    #[test]
    fn torus_routes_are_dimension_ordered_and_minimal() {
        let t = Topology::torus([4, 4, 1]);
        // 0 → 10 = (0,0) → (2,2): 2 x-hops then 2 y-hops.
        let r = t.route(0, 10);
        assert_eq!(r.len(), 4);
        assert_eq!(t.path(0, 10).latency_hops, 4);
        assert_eq!(t.path(0, 10).edge_resers, 3);
        // Wrap-around: (0,0) → (3,0) is one backward hop, not three.
        assert_eq!(t.route(0, 3), vec![Link::Hop { from: 0, to: 3 }]);
        // Neighbours pay a single latency and no re-serialization.
        let p = t.path(0, 1);
        assert_eq!((p.latency_hops, p.edge_resers), (1, 0));
        // Self-send: loopback latency, empty route.
        assert_eq!(t.path(5, 5).latency_hops, 1);
        assert!(t.route(5, 5).is_empty());
    }

    #[test]
    fn routes_are_symmetric_loop_free_and_stable_across_seeds() {
        let topos = [
            Topology::fat_tree(4, 3, 4.0),
            Topology::fat_tree(16, 2, 2.0),
            Topology::torus([8, 4, 2]),
            Topology::torus([5, 5, 1]),
        ];
        for topo in topos {
            let n = topo.capacity().unwrap();
            for seed in [1u64, 42, 1999] {
                let mut r = rng(seed);
                for _ in 0..200 {
                    let (a, b) = (r(n), r(n));
                    let fwd = topo.route(a, b);
                    let rev = topo.route(b, a);
                    // Symmetric: both directions cross the same number of
                    // links and cost the same.
                    assert_eq!(fwd.len(), rev.len(), "{topo:?} {a}<->{b}");
                    assert_eq!(
                        topo.path(a, b),
                        topo.path(b, a),
                        "{topo:?} {a}<->{b} cost asymmetry"
                    );
                    // Loop-free: no link traversed twice.
                    let mut seen = fwd.clone();
                    seen.sort();
                    seen.dedup();
                    assert_eq!(seen.len(), fwd.len(), "{topo:?} {a}->{b} revisits a link");
                    // Stable: recomputation is bit-identical (pure function).
                    assert_eq!(fwd, topo.route(a, b), "{topo:?} {a}->{b} unstable");
                    // The profile agrees with the route structure.
                    let p = topo.path(a, b);
                    if a != b {
                        assert!(!fwd.is_empty());
                        assert!(p.latency_hops >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn link_occupancy_folds_traffic_over_routes() {
        use crate::comm::PeerTraffic;
        let ft = Topology::fat_tree(2, 2, 4.0);
        // Rank 0 sends 3 msgs / 300 bytes to rank 2 (cross-switch) and
        // 1 msg / 10 bytes to rank 1 (same switch).
        let mut s0 = CommStats::default();
        *s0.peers.entry(2) = PeerTraffic {
            msgs_to: 3,
            bytes_to: 300,
            ..PeerTraffic::default()
        };
        *s0.peers.entry(1) = PeerTraffic {
            msgs_to: 1,
            bytes_to: 10,
            ..PeerTraffic::default()
        };
        let quiet = CommStats::default();
        let occ = ft.link_occupancy(&[s0, quiet.clone(), quiet.clone(), quiet], None);
        // host-up:0 carries both flows; the uplink only the cross flow.
        assert_eq!(
            occ["host-up:0"],
            LinkLoad {
                msgs: 4,
                bytes: 310
            }
        );
        assert_eq!(
            occ["up:l1.s0"],
            LinkLoad {
                msgs: 3,
                bytes: 300
            }
        );
        assert_eq!(
            occ["down:l1.s1"],
            LinkLoad {
                msgs: 3,
                bytes: 300
            }
        );
        assert_eq!(occ["host-down:1"], LinkLoad { msgs: 1, bytes: 10 });
        // Registry publication round-trips the counters.
        let mut reg = mb_telemetry::metrics::Registry::new();
        record_link_occupancy(&mut reg, &occ);
        assert_eq!(
            reg.counter_value("network/link_bytes", "up:l1.s0"),
            Some(300)
        );
        assert_eq!(reg.counter_value("network/link_msgs", "host-up:0"), Some(4));
    }

    #[test]
    fn ecmp_ways_follow_the_physical_uplink_count() {
        assert_eq!(Topology::Star.ecmp_ways(), 1);
        assert_eq!(Topology::torus([8, 4, 2]).ecmp_ways(), 1);
        assert_eq!(Topology::fat_tree(16, 2, 4.0).ecmp_ways(), 4);
        assert_eq!(Topology::fat_tree(16, 2, 1.0).ecmp_ways(), 16);
        // Oversubscription beyond the radix still leaves one uplink.
        assert_eq!(Topology::fat_tree(4, 2, 8.0).ecmp_ways(), 1);
    }

    /// `contention_links` as report names.
    fn named(topo: &Topology, src: usize, dst: usize, salt: u64, ways: usize) -> Vec<String> {
        let ids = LinkIds::new(topo, ways);
        topo.contention_links(src, dst, salt, ways)
            .into_iter()
            .map(|id| ids.name(id))
            .collect()
    }

    #[test]
    fn contention_links_spread_deterministically_and_stay_in_range() {
        let ft = Topology::fat_tree(16, 2, 4.0);
        let ways = ft.ecmp_ways();
        // Without spreading the names are exactly the route names.
        let plain = named(&ft, 0, 17, 9, 1);
        let route: Vec<String> = ft.route(0, 17).iter().map(|l| l.to_string()).collect();
        assert_eq!(plain, route);
        // With spreading, only fabric links gain a way suffix, the way
        // index is in range, and recomputation is bit-identical.
        let spread = named(&ft, 0, 17, 9, ways);
        assert_eq!(
            ft.contention_links(0, 17, 9, ways),
            ft.contention_links(0, 17, 9, ways)
        );
        assert_eq!(spread.len(), route.len());
        assert!(spread[0].starts_with("host-up:"));
        assert!(spread.last().unwrap().starts_with("host-down:"));
        for name in &spread {
            if let Some((base, w)) = name.rsplit_once(".w") {
                assert!(
                    base.starts_with("up:") || base.starts_with("down:"),
                    "{name}"
                );
                assert!(w.parse::<usize>().unwrap() < ways, "{name}");
            }
        }
        // Different salts (jobs) can pick different ways for the same
        // pair: over many salts, more than one way must appear.
        let mut seen = std::collections::BTreeSet::new();
        for salt in 0..64u64 {
            for name in named(&ft, 0, 17, salt, ways) {
                if let Some((_, w)) = name.rsplit_once(".w") {
                    seen.insert(w.to_string());
                }
            }
        }
        assert!(seen.len() > 1, "hash never spread across ways: {seen:?}");
    }

    /// The shapes the id-space properties run over, with the `ways`
    /// each is exercised at.
    fn id_spaces() -> Vec<LinkIds> {
        let ft16 = Topology::fat_tree(16, 2, 4.0);
        vec![
            LinkIds::new(&ft16, 1),
            LinkIds::new(&ft16, ft16.ecmp_ways()),
            LinkIds::new(&Topology::fat_tree(4, 3, 2.0), 1),
            LinkIds::new(&Topology::fat_tree(4, 3, 2.0), 2),
            LinkIds::new(&Topology::torus([4, 4, 2]), 1),
            LinkIds::new(&Topology::torus([5, 1, 3]), 1),
        ]
    }

    #[test]
    fn for_each_numbers_the_route_on_the_byte_wise_hashed_way() {
        // The way as first defined: FNV-1a over the 24 little-endian
        // bytes of `(src, dst, salt)`, modulo the ways.
        let way = |src: usize, dst: usize, salt: u64, ways: usize| {
            let mut h = mb_telemetry::Fnv::new();
            for v in [src as u64, dst as u64, salt] {
                h.write_bytes(&v.to_le_bytes());
            }
            (h.finish() % ways as u64) as usize
        };
        let ft16 = Topology::fat_tree(16, 2, 4.0);
        let spaces = [
            LinkIds::default(),
            LinkIds::new(&ft16, 1),
            LinkIds::new(&ft16, 4),
            LinkIds::new(&Topology::fat_tree(16, 3, 4.0), 4),
            LinkIds::new(&Topology::fat_tree(6, 2, 2.0), 3),
            LinkIds::new(&Topology::fat_tree(4, 3, 2.0), 2),
            LinkIds::new(&Topology::torus([8, 4, 2]), 1),
            LinkIds::new(&Topology::torus([4, 4, 2]), 1),
        ];
        for (seed, ids) in spaces.into_iter().enumerate() {
            let n = ids.topo.capacity().unwrap_or(48);
            let mut r = rng(seed as u64 + 11);
            let mut spread = std::collections::BTreeSet::new();
            for _ in 0..2000 {
                // Half the pairs near each other, so every tier is crossed.
                let a = r(n);
                let b = if r(2) == 0 { r(n) } else { (a + r(40)) % n };
                let salt = r(1 << 20) as u64;
                let w = way(a, b, salt, ids.ways);
                let mut want = Vec::new();
                (ids.topo).for_each_link(a, b, |l| {
                    want.push(ids.id(l, if l.is_fabric() { w } else { 0 }));
                });
                let mut got = Vec::new();
                ids.for_each(a, b, salt, |id| got.push(id));
                assert_eq!(got, want, "{ids:?}: {a}->{b} salt {salt}");
                if got.iter().any(|&id| ids.is_fabric(id)) {
                    spread.insert(w);
                }
            }
            // Every way is reached where the tree has fabric links.
            let fabric = matches!(ids.topo, Topology::FatTree { .. });
            assert_eq!(spread.len(), if fabric { ids.ways } else { 0 }, "{ids:?}");
        }
    }

    #[test]
    #[should_panic(expected = "node 36 is outside the topology")]
    fn routing_a_node_outside_the_topology_panics() {
        LinkIds::new(&Topology::fat_tree(6, 2, 2.0), 3).for_each(0, 36, 0, |_| {});
    }

    #[test]
    fn link_ids_and_names_are_in_bijection() {
        for ids in id_spaces() {
            let count = ids.link_count().expect("bounded topology");
            let mut names = std::collections::BTreeSet::new();
            for id in 0..count as LinkId {
                // id → (link, way) → id round-trips, and no two ids
                // share a report name.
                let (link, way) = ids.link(id);
                assert_eq!(ids.id(link, way), id, "{ids:?}: {link} way {way}");
                let name = ids.name(id);
                let suffixed = name.rsplit_once(".w").map(|(base, _)| base.to_string());
                match link {
                    Link::Up { .. } | Link::Down { .. } if ids.ways > 1 => {
                        assert_eq!(suffixed, Some(link.to_string()), "{name}");
                        assert!(name.ends_with(&format!(".w{way}")), "{name}");
                    }
                    _ => assert_eq!(name, link.to_string()),
                }
                assert!(names.insert(name), "{ids:?}: id {id} reuses a name");
            }
            assert_eq!(names.len(), count);
        }
        // The unbounded star interleaves its two host blocks.
        let star = LinkIds::default();
        assert_eq!(star.link_count(), None);
        for n in [0, 1, 23, 4095] {
            for link in [Link::HostUp(n), Link::HostDown(n)] {
                assert_eq!(star.link(star.id(link, 0)), (link, 0));
                assert_eq!(star.name(star.id(link, 0)), link.to_string());
            }
        }
    }

    #[test]
    fn every_route_lands_inside_the_id_space_and_unspread_ids_name_the_route() {
        for ids in id_spaces() {
            let (topo, count) = (ids.topo, ids.link_count().unwrap());
            let n = topo.capacity().unwrap();
            let mut r = rng(7);
            for _ in 0..300 {
                let (a, b, salt) = (r(n), r(n), r(1000) as u64);
                let got = topo.contention_links(a, b, salt, ids.ways);
                assert!(got.iter().all(|&id| (id as usize) < count));
                // Same links as the route, in route order; with
                // `ways <= 1` the names are the route's `Display`.
                let links: Vec<Link> = got.iter().map(|&id| ids.link(id).0).collect();
                assert_eq!(links, topo.route(a, b), "{topo:?} {a}->{b}");
                if ids.ways == 1 {
                    let names: Vec<String> = got.iter().map(|&id| ids.name(id)).collect();
                    let route: Vec<String> =
                        topo.route(a, b).iter().map(|l| l.to_string()).collect();
                    assert_eq!(names, route);
                    assert_eq!(got, topo.contention_links(a, b, salt, 0));
                }
            }
        }
    }

    #[test]
    fn id_classes_by_range_match_the_decoded_link() {
        // A superset of the spaces the contention oracles run over.
        for ids in id_spaces() {
            for id in 0..ids.link_count().unwrap() as LinkId {
                let link = ids.link(id).0;
                let host = matches!(link, Link::HostUp(_) | Link::HostDown(_));
                assert_eq!(ids.is_host(id), host, "{ids:?}: {link}");
                assert_eq!(ids.is_fabric(id), link.is_fabric(), "{ids:?}: {link}");
                let edge = match link {
                    Link::Up { level: 1, sw } => Some(sw),
                    _ => None,
                };
                assert_eq!(ids.edge_uplink(id), edge, "{ids:?}: {link}");
            }
        }
        let star = LinkIds::default();
        assert!((0..64).all(|id| star.is_host(id) && !star.is_fabric(id)));
        assert!((0..64).all(|id| star.edge_uplink(id).is_none()));
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn oversized_id_spaces_are_rejected() {
        LinkIds::new(&Topology::fat_tree(2, 200, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "not a link of")]
    fn foreign_links_have_no_id() {
        LinkIds::new(&Topology::torus([4, 4, 1]), 1).id(Link::HostUp(0), 0);
    }

    #[test]
    fn equal_route_classes_give_equal_paths_and_flights_at_every_position() {
        use std::collections::hash_map::{Entry, HashMap};

        use crate::network::NetworkModel;
        use crate::spec::metablade;

        let topos = [
            (Topology::Star, 24),
            (Topology::fat_tree(16, 2, 4.0), 64),
            (Topology::fat_tree(4, 3, 2.0), 64),
            (Topology::torus([4, 4, 2]), 32),
        ];
        for (seed, (topo, cap)) in topos.into_iter().enumerate() {
            let net = NetworkModel::new(metablade().with_topology(topo).network);
            let mut r = rng(seed as u64 + 33);
            let mut seen: HashMap<Vec<usize>, NodeSet> = HashMap::new();
            let mut matched = 0;
            for _ in 0..3000 {
                // A random sorted set of 1..=12 distinct nodes below `cap`.
                let mut all: Vec<usize> = (0..cap).collect();
                let width = 1 + r(12);
                for j in 0..width {
                    all.swap(j, j + r(cap - j));
                }
                all.truncate(width);
                let b = NodeSet::new(all);
                let mut key: Vec<usize> = topo.route_class(&b).collect();
                key.push(width);
                let a = match seen.entry(key) {
                    Entry::Occupied(e) => e.get().clone(),
                    Entry::Vacant(e) => {
                        e.insert(b);
                        continue;
                    }
                };
                matched += usize::from(a != b);
                let (ai, bi) = (a.ids(), b.ids());
                for i in 0..width {
                    for j in 0..width {
                        let ctx = format!("{}: {ai:?} vs {bi:?} at ({i}, {j})", topo.label());
                        assert_eq!(topo.path(ai[i], ai[j]), topo.path(bi[i], bi[j]), "{ctx}");
                        for bytes in [0, 4096, 1 << 20] {
                            let fa = net.flight_between(ai[i], ai[j], bytes);
                            let fb = net.flight_between(bi[i], bi[j], bytes);
                            assert_eq!(fa.to_bits(), fb.to_bits(), "{ctx} {bytes} B");
                        }
                    }
                }
            }
            // Distinct sets share a class on the star and the trees; a
            // torus's class is the set itself.
            let torus = matches!(topo, Topology::Torus { .. });
            let enough = if torus { matched == 0 } else { matched > 1000 };
            assert!(enough, "{}: {matched} matches", topo.label());
        }
        // Negative control: two sets that cross an edge switch at
        // different positions differ in class and in a pair's path.
        let ft = Topology::fat_tree(16, 2, 4.0);
        let (a, b) = (
            NodeSet::new(vec![0, 1, 2, 16]),
            NodeSet::new(vec![0, 1, 16, 17]),
        );
        let class = |s: &NodeSet| ft.route_class(s).collect::<Vec<_>>();
        assert_eq!((class(&a), class(&b)), (vec![1, 1, 2], vec![1, 2, 1]));
        assert_ne!(
            ft.path(a.ids()[1], a.ids()[2]),
            ft.path(b.ids()[1], b.ids()[2])
        );
    }

    #[test]
    fn node_id_mapping_relabels_routes() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        use crate::comm::PeerTraffic;
        let mut s0 = CommStats::default();
        *s0.peers.entry(1) = PeerTraffic {
            msgs_to: 1,
            bytes_to: 8,
            ..PeerTraffic::default()
        };
        let s1 = CommStats::default();
        // Job ranks 0,1 pinned to nodes 0 and 12: a cross-switch route.
        let occ = ft.link_occupancy(&[s0, s1], Some(&[0, 12]));
        assert!(occ.contains_key("up:l1.s0"), "{occ:?}");
        assert!(occ.contains_key("host-down:12"), "{occ:?}");
    }
}
