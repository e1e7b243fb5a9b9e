//! The distributed treecode over the simulated Beowulf — the code path
//! behind the paper's Table 2 (scalability) and §3.3 (sustained Gflops).
//!
//! One force evaluation proceeds as the Warren–Salmon parallel algorithm
//! does:
//!
//! 1. **Decompose** — bodies are split into Morton-contiguous cost zones,
//!    one per rank (host-side, as the persistent decomposition the real
//!    code carries between steps).
//! 2. **Global box** — ranks allgather their local bounding boxes and
//!    union them, so every rank keys its tree in the *same* global cube
//!    (the hashed oct-tree's shared key space).
//! 3. **Local build** — each rank builds the hashed oct-tree of its zone.
//! 4. **Domain exchange** — each rank publishes its *occupied coarse
//!    cells* (the level-`DOMAIN_LEVEL` cells holding its bodies). Unlike
//!    a raw bounding box, this stays tight when a zone owns a few distant
//!    outliers — otherwise one straggler body would force peers to ship
//!    their entire trees.
//! 5. **LET exchange** — for every peer, each rank prunes its tree
//!    against the peer's occupied cells: cells passing the domain-level
//!    MAC ship as **terminal** multipoles; leaves too close ship their
//!    **bodies**; everything in between ships as **internal skeleton**
//!    nodes carrying full subtree moments. The pruned trees travel
//!    through the simulated Fast-Ethernet alltoallv.
//! 6. **Walk** — each rank walks its local bodies, eight Morton
//!    neighbours at a time (`traverse.rs`), over its own tree and then
//!    over the imported skeletons merged into one forest ("locally
//!    essential tree"): internal foreign nodes are MAC-tested per body
//!    (full moments make that exact) and opened only when needed, so
//!    imported work stays O(log) per body. Compute time is charged to the
//!    virtual clock at the node's sustained Mflops rate; communication
//!    was charged by the exchange.
//!
//! The domain-level MAC is conservative — a cell accepted against every
//! occupied requester cell is accepted for every body in it — so
//! distributed results match the shared-memory walk's accuracy at the
//! same θ (tests verify against direct summation).
//!
//! Step 1 happens once, in [`ForceStep::new`]; steps 2–6 are its
//! [`ForceStep::job`], a [`Stackless`] SPMD body: every rank is a future
//! the calling thread polls, and the four phases that wait on peers
//! await the communicator's async collectives. No rank gets a host
//! thread, so the step runs the same on every [`mb_cluster::ExecPolicy`];
//! [`mb_cluster::threaded`] runs the same body thread-per-rank, which is
//! how tests and the BENCH pins check the two paths against each other.
//!
//! Every tree here is an array of cells sorted by key and linked by
//! index: the local tree as built (`LocalTree`), which the domain
//! frontier, the prune and the walk descend, and the import forest,
//! merged from the pruned trees that arrive as arrays in wire order
//! (`ImportedForest`).
//! The wire format is frozen — message sizes drive the virtual clock, so
//! a byte per node would move every simulated time — and so is the order
//! in which cells are visited and forces accumulated, which fixes the
//! last bit of every result.

use bytes::Bytes;
use mb_cluster::comm::{Comm, CommStats};
use mb_cluster::machine::{Cluster, SpmdOutcome};
use mb_cluster::Stackless;
use mb_telemetry::summary::RunSummary;
use mb_telemetry::trace::RunTrace;

use crate::body::Bodies;
use crate::build::{build_tree, com_offset};
use crate::decompose::cost_zones;
use crate::flops::InteractionCounts;
use crate::hot::{HashedOctTree, NodeKind};
use crate::integrate::{drift, kick, total_energy};
use crate::mac::Mac;
use crate::morton::{BoundingBox, Key};
use crate::traverse::{flatten, walk_group, walk_local, Cell, Field, Group, LANES};

/// Budget of cells used to describe a rank's domain to its peers. The
/// description is the frontier of the rank's own tree, expanded
/// **highest-body-count-first** until the budget is met — density
/// adaptive, so the fine cells land exactly where bodies crowd (the
/// regions whose granularity decides how much peers must ship).
pub const DOMAIN_CELL_BUDGET: usize = 2048;

/// Configuration of a distributed force evaluation.
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Opening criterion.
    pub mac: Mac,
    /// Plummer softening².
    pub eps2: f64,
    /// Bodies per leaf.
    pub leaf_capacity: usize,
    /// Flop-equivalents charged per body per log₂ level for tree build
    /// (build is a few percent of walk time in production treecodes).
    pub build_flops_per_body_level: f64,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        Self {
            mac: Mac::standard(),
            eps2: 1e-6,
            leaf_capacity: 8,
            build_flops_per_body_level: 20.0,
        }
    }
}

/// Per-rank outcome of a distributed force evaluation.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Rank id.
    pub rank: usize,
    /// Bodies owned.
    pub n_local: usize,
    /// Interaction counts of the walk (imports included).
    pub interactions: InteractionCounts,
    /// Foreign skeleton nodes imported.
    pub imported_cells: u64,
    /// Foreign bodies imported.
    pub imported_bodies: u64,
    /// Virtual clock at completion, seconds.
    pub clock_s: f64,
    /// Accelerations of owned bodies (zone order).
    pub acc: Vec<[f64; 3]>,
    /// Potentials of owned bodies (zone order).
    pub pot: Vec<f64>,
    /// Per-body interaction counts (zone order) — the cost-zone feedback
    /// the next step's decomposition balances on.
    pub body_cost: Vec<f64>,
}

/// Whole-step outcome.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Per-rank reports.
    pub per_rank: Vec<RankReport>,
    /// Virtual wall-clock of the step (slowest rank), seconds.
    pub makespan_s: f64,
    /// Total flops charged across ranks.
    pub total_flops: f64,
    /// Sustained Gflops: total flops over makespan.
    pub gflops: f64,
    /// Accelerations in the *original* body order.
    pub acc: Vec<[f64; 3]>,
    /// Potentials in the original body order.
    pub pot: Vec<f64>,
    /// Per-body interaction counts in original order (cost-zone feedback).
    pub body_cost: Vec<f64>,
    /// Per-rank communicator statistics (index = rank): compute/comm
    /// split, blocked time, per-peer traffic.
    pub comm: Vec<CommStats>,
}

impl StepReport {
    /// Per-rank compute/comm/blocked summary of the step, ready for
    /// rendering or a run manifest.
    pub fn summary(&self) -> RunSummary {
        RunSummary::new(
            self.comm
                .iter()
                .zip(&self.per_rank)
                .map(|(s, r)| s.rank_time(r.clock_s))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------
// Foreign (imported) trees
// ---------------------------------------------------------------------

const TAG_TERMINAL: u8 = 0;
const TAG_INTERNAL: u8 = 1;
const TAG_BODIES: u8 = 2;

/// One node of an imported pruned tree.
#[derive(Debug, Clone, Copy)]
struct ForeignNode {
    mass: f64,
    com: [f64; 3],
    quad: [f64; 6],
    delta: f64,
    /// `TAG_*`.
    tag: u8,
    /// Shipped-children mask for internal nodes.
    child_mask: u8,
    /// Body range for `TAG_BODIES`: into the payload's body list on the
    /// wire, into the receiver's one body list once deserialized.
    bodies: (u32, u32),
}

/// Every pruned tree a rank received, peer after peer: nodes in wire
/// order (body ranges already offset into the one body list), so equal
/// keys appear in peer order.
#[derive(Debug, Clone, Default)]
struct ForeignTree {
    nodes: Vec<(u64, ForeignNode)>,
    bodies: Vec<(f64, [f64; 3])>,
}

/// Serialize a pruned tree. Layout: `u32 node_count`, then per node
/// `u64 key, u8 tag, u8 mask, u32 bstart, u32 bend, 11×f64`, then
/// `u32 body_count` and `body_count × 4×f64`.
fn serialize_foreign(nodes: &[(u64, ForeignNode)], bodies: &[(f64, [f64; 3])]) -> Bytes {
    let mut v = Vec::with_capacity(4 + nodes.len() * 106 + bodies.len() * 32 + 4);
    v.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    for (key, n) in nodes {
        v.extend_from_slice(&key.to_le_bytes());
        v.push(n.tag);
        v.push(n.child_mask);
        v.extend_from_slice(&n.bodies.0.to_le_bytes());
        v.extend_from_slice(&n.bodies.1.to_le_bytes());
        v.extend_from_slice(&n.mass.to_le_bytes());
        for c in n.com {
            v.extend_from_slice(&c.to_le_bytes());
        }
        for q in n.quad {
            v.extend_from_slice(&q.to_le_bytes());
        }
        v.extend_from_slice(&n.delta.to_le_bytes());
    }
    v.extend_from_slice(&(bodies.len() as u32).to_le_bytes());
    for (m, p) in bodies {
        v.extend_from_slice(&m.to_le_bytes());
        for c in p {
            v.extend_from_slice(&c.to_le_bytes());
        }
    }
    Bytes::from(v)
}

/// Wire size of one node and of one body.
const NODE_BYTES: usize = 106;
const BODY_BYTES: usize = 32;

fn f64_at(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().expect("f64"))
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("u32"))
}

/// The node and body counts of the payload `peer` sent (an empty one
/// holds neither). They fix its length, checked here before anything is
/// read on their word: a count the payload is too short to hold reads as
/// 0 and cannot match.
fn payload_counts(peer: usize, b: &[u8]) -> (usize, usize) {
    if b.is_empty() {
        return (0, 0);
    }
    let count_at = |at: usize| b.get(at..at + 4).map_or(0, |c| u32_at(c, 0) as usize);
    let n_nodes = count_at(0);
    let n_bodies = count_at(4 + n_nodes * NODE_BYTES);
    assert_eq!(
        b.len(),
        4 + n_nodes * NODE_BYTES + 4 + n_bodies * BODY_BYTES,
        "LET payload from rank {peer}: length does not match its {n_nodes} nodes, {n_bodies} bodies"
    );
    (n_nodes, n_bodies)
}

/// Append the pruned tree `peer` sent to `into`: once its length is
/// checked, every field sits at a constant offset of its record.
fn deserialize_foreign(peer: usize, b: &[u8], into: &mut ForeignTree) {
    let (n_nodes, n_bodies) = payload_counts(peer, b);
    if n_nodes + n_bodies == 0 {
        return;
    }
    let bodies_at = 4 + n_nodes * NODE_BYTES;
    let offset = into.bodies.len() as u32;
    into.nodes
        .extend(b[4..bodies_at].chunks_exact(NODE_BYTES).map(|c| {
            let node = ForeignNode {
                mass: f64_at(c, 18),
                com: [f64_at(c, 26), f64_at(c, 34), f64_at(c, 42)],
                quad: std::array::from_fn(|k| f64_at(c, 50 + 8 * k)),
                delta: f64_at(c, 98),
                tag: c[8],
                child_mask: c[9],
                bodies: (u32_at(c, 10) + offset, u32_at(c, 14) + offset),
            };
            (u64::from_le_bytes(c[..8].try_into().expect("u64")), node)
        }));
    into.bodies
        .extend(b[bodies_at + 4..].chunks_exact(BODY_BYTES).map(|c| {
            let pos = [f64_at(c, 8), f64_at(c, 16), f64_at(c, 24)];
            (f64_at(c, 0), pos)
        }));
}

/// The adaptive domain frontier of a tree: starting from the root,
/// repeatedly expand the internal frontier cell holding the most bodies
/// until the budget is reached or only leaves remain. The returned cells
/// exactly cover every local body, with resolution concentrated where
/// bodies are dense.
fn domain_frontier(tree: &HashedOctTree, budget: usize) -> Vec<u64> {
    use std::collections::BinaryHeap;
    // Max-heap by body count, then by index: key order.
    let mut heap: BinaryHeap<(u32, u32)> = BinaryHeap::new();
    let mut leaves: Vec<u64> = Vec::new();
    // The cells just reached: the root, unless the zone is empty.
    let mut reached = 0..tree.len().min(1) as u32;
    loop {
        for at in reached {
            let node = &tree.nodes[at as usize];
            match node.kind {
                NodeKind::Internal { .. } => heap.push((node.count, at)),
                NodeKind::Leaf { .. } => leaves.push(node.key.0),
            }
        }
        let Some(&(_, at)) = heap.peek() else { break };
        let NodeKind::Internal {
            child_mask,
            first_child,
        } = tree.nodes[at as usize].kind
        else {
            unreachable!("only internal cells wait in the heap");
        };
        let n_children = child_mask.count_ones();
        if heap.len() + leaves.len() + n_children as usize - 1 > budget {
            break;
        }
        heap.pop();
        reached = first_child..first_child + n_children;
    }
    for (_, at) in heap {
        leaves.push(tree.nodes[at as usize].key.0);
    }
    leaves
}

/// A box as the corners [`BoundingBox::dist2_to_box`] evaluates per test
/// (`lo = min`, `hi = min + size`), computed once per cell instead. The
/// distances are the branch-free forms of the `BoundingBox` ones: per
/// axis at most one difference is positive, so the `max` is the value
/// the `if` chain picks, bit for bit.
#[derive(Debug, Clone, Copy)]
struct Corners {
    lo: [f64; 3],
    hi: [f64; 3],
}

impl Corners {
    fn dist2_to_point(&self, p: [f64; 3]) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            let c = (self.lo[d] - p[d]).max(p[d] - self.hi[d]).max(0.0);
            d2 += c * c;
        }
        d2
    }

    /// Squared gap to `other` along axis `d`.
    fn gap2(&self, other: &Corners, d: usize) -> f64 {
        let gap = (other.lo[d] - self.hi[d])
            .max(self.lo[d] - other.hi[d])
            .max(0.0);
        gap * gap
    }

    #[cfg(test)]
    fn dist2_to_box(&self, other: &Corners) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            d2 += self.gap2(other, d);
        }
        d2
    }

    /// Squared gaps, axis by axis, to the low and to the high half of a
    /// cell, `halves[b]` being its daughter whose octant bits are all `b`:
    /// `[x₀, x₁, y₀, y₁, z₀, z₁]`. Along each axis a daughter spans one
    /// half, and which one depends on that axis's octant bit alone, so
    /// the distance to daughter `o` is `x[o & 1] + y[o >> 1 & 1] +
    /// z[o >> 2]` — the very sum `dist2_to_box` forms for that daughter's
    /// corners (a square is never `−0.0`, so starting the sum from `0.0`
    /// changes nothing).
    fn half_gaps2(&self, halves: &[Corners; 2]) -> [f64; 6] {
        std::array::from_fn(|i| self.gap2(&halves[i & 1], i >> 1))
    }
}

/// Corners of a key's cell inside the global cube.
fn cell_corners(bb: &BoundingBox, key: Key) -> Corners {
    let center = bb.cell_center(key);
    let size = bb.cell_size(key.level());
    let lo = [
        center[0] - size / 2.0,
        center[1] - size / 2.0,
        center[2] - size / 2.0,
    ];
    Corners {
        lo,
        hi: [lo[0] + size, lo[1] + size, lo[2] + size],
    }
}

/// Buffers [`prune_for_domain`] reuses from one peer to the next: its
/// output, the sender cells still to visit — each with its requester
/// list as a range of `arena` — the lists themselves (indices into the
/// domain, filed in push order), and the [`Corners::half_gaps2`] of the
/// list being split among a cell's daughters.
#[derive(Default)]
struct PruneScratch {
    nodes: Vec<(u64, ForeignNode)>,
    bodies: Vec<(f64, [f64; 3])>,
    stack: Vec<(u32, usize, usize)>,
    arena: Vec<u32>,
    gaps: Vec<[f64; 6]>,
    #[cfg(test)]
    _live: live::Live<{ live::SCRATCH }>,
}

/// Prune the local tree for a requester described by its domain cells,
/// dual-tree style: descend the sender tree while filtering the
/// requester-cell list per subtree. A requester cell drops out of a
/// subtree's list once even the worst-case descendant (size `s`, center
/// of mass anywhere in the subtree box, offset up to `s·√3/2`) would be
/// MAC-accepted against it — from then on that requester cell imposes no
/// constraint below. A sender node with an empty list (and every node
/// whose remaining cells all accept its actual moments) ships as a
/// terminal multipole. Emits skeleton nodes and a body list.
fn prune_for_domain(
    local: &LocalTree,
    domain: &[Corners],
    mac: &Mac,
    out: &mut PruneScratch,
) -> Bytes {
    out.nodes.clear();
    out.bodies.clear();
    out.arena.clear();
    out.arena.extend(0..domain.len() as u32);
    out.stack.push((0, 0, domain.len()));
    while let Some((at, lo, hi)) = out.stack.pop() {
        // Every list filed after this entry's belongs to an entry pushed
        // later, and those have all been popped: the arena is free from
        // the end of this one.
        let mut top = hi;
        let (node, cell) = (&local.tree.nodes[at as usize], &local.cells[at as usize]);
        let mut fnode = ForeignNode {
            mass: node.mass,
            com: node.com,
            quad: node.quad,
            delta: node.delta,
            tag: TAG_TERMINAL,
            child_mask: 0,
            bodies: (0, 0),
        };
        // The walk's threshold: `∞` for a single-body cell, which only an
        // empty list ships as a multipole.
        let all_accept = out.arena[lo..hi]
            .iter()
            .all(|&c| cell.crit2 < domain[c as usize].dist2_to_point(node.com));
        if all_accept {
            out.nodes.push((node.key.0, fnode));
            continue;
        }
        match node.kind {
            NodeKind::Leaf { start, end } => {
                let b0 = out.bodies.len() as u32;
                for i in start as usize..end as usize {
                    out.bodies.push((local.bodies.mass[i], local.bodies.pos[i]));
                }
                fnode.tag = TAG_BODIES;
                fnode.bodies = (b0, out.bodies.len() as u32);
                out.nodes.push((node.key.0, fnode));
            }
            NodeKind::Internal { child_mask, .. } => {
                fnode.tag = TAG_INTERNAL;
                fnode.child_mask = child_mask;
                out.nodes.push((node.key.0, fnode));
                // Worst-case descendant criterion: size s, offset
                // ≤ s·√3/2, com anywhere in the daughter's box.
                let bb = &local.tree.bb;
                let s = bb.cell_size(node.key.level() + 1);
                let crit = s / mac.theta + s * 0.8660254;
                let crit2 = crit * crit;
                let halves = [
                    cell_corners(bb, node.key.child(0)),
                    cell_corners(bb, node.key.child(7)),
                ];
                out.gaps.clear();
                let requesters = out.arena[lo..hi].iter();
                out.gaps
                    .extend(requesters.map(|&c| domain[c as usize].half_gaps2(&halves)));
                let octants = (0..8).filter(|o| child_mask & (1 << o) != 0);
                for (daughter, o) in (cell.first_child..).zip(octants) {
                    let kept = out.file_daughter_list((lo, hi), top, o, crit2);
                    out.stack.push((daughter, top, top + kept));
                    top += kept;
                }
            }
        }
    }
    serialize_foreign(&out.nodes, &out.bodies)
}

impl PruneScratch {
    /// File at `arena[top..]` the requester list of the daughter in octant
    /// `o` of the cell whose own list is `arena[lo..hi]` and whose half
    /// gaps are in `gaps`: the requester cells within `crit2` (squared)
    /// of the daughter's box. Returns its length.
    fn file_daughter_list(
        &mut self,
        (lo, hi): (usize, usize),
        top: usize,
        o: usize,
        crit2: f64,
    ) -> usize {
        if self.arena.len() < top + (hi - lo) {
            self.arena.resize(top + (hi - lo), 0);
        }
        let (filed, list) = self.arena.split_at_mut(top);
        let mut kept = 0;
        for (&c, g) in filed[lo..hi].iter().zip(&self.gaps) {
            // Copy every requester cell; keep the slot only if the cell
            // still constrains this subtree.
            list[kept] = c;
            let dist2 = g[o & 1] + g[2 + (o >> 1 & 1)] + g[4 + (o >> 2)];
            kept += usize::from(dist2 <= crit2);
        }
        kept
    }
}

/// A piece of matter resident at an opened merged node: either a
/// domain-accepted terminal multipole or a shipped body group.
#[derive(Debug, Clone, Copy)]
enum Resident {
    /// Domain-accepted multipole — always applied directly.
    Multipole {
        mass: f64,
        com: [f64; 3],
        quad: [f64; 6],
    },
    /// A body group (range into the forest body list) with its own
    /// moments and threshold ([`Cell::crit2`]: of the group's cell and
    /// offset, `∞` for a lone body) for group-level MAC acceptance.
    Group {
        start: u32,
        end: u32,
        mass: f64,
        com: [f64; 3],
        quad: [f64; 6],
        crit2: f64,
    },
}

/// All imports merged into one walkable tree — the receiver half of the
/// hashed oct-tree's "trivially mergeable" property. Distant matter from
/// many peers combines into single coarse cells, so the per-body import
/// cost matches the serial walk instead of growing with P.
///
/// The cells are flat arrays sorted by key. A key carries its level in
/// its sentinel bit, so numeric order is level by level and Morton
/// within a level: the root is cell 0, the shipped daughters of one cell
/// are consecutive, and those of successive cells follow one another —
/// which is why an index and a count link a cell to its daughters and no
/// lookup by key is ever needed. A cell carries the combined moments of
/// every peer's piece at its key and the range of `resident` to apply
/// when it is opened.
#[derive(Debug, Clone, Default)]
struct ImportedForest {
    /// Skeleton nodes received, before merging.
    imported_cells: u64,
    keys: Vec<u64>,
    cells: Vec<Cell>,
    resident: Vec<Resident>,
    bodies: Vec<(f64, [f64; 3])>,
    #[cfg(test)]
    _live: live::Live<{ live::FOREST }>,
}

/// Merge per-peer pruned trees into one forest.
///
/// Correctness rests on two skeleton invariants: every peer with matter
/// below key `k` shipped a piece *at* `k` (pruned trees are connected from
/// the root), and each internal piece's full subtree moments equal the
/// combined moments of its shipped children. Hence the combined moments
/// at `k` account for all shipped matter below `k` exactly once. The
/// daughter links rely on the first invariant, so it is checked here,
/// once: a skeleton with a hole panics instead of losing mass per walk.
fn merge_foreign(foreign: ForeignTree, global_bb: &BoundingBox, mac: &Mac) -> ImportedForest {
    let mut forest = ImportedForest {
        imported_cells: foreign.nodes.len() as u64,
        bodies: foreign.bodies,
        ..Default::default()
    };
    // Sorted by key, the pieces of one key in peer order.
    let mut order: Vec<(u64, u32)> = foreign.nodes.iter().map(|n| n.0).zip(0..).collect();
    order.sort_unstable();
    let mut moments = Vec::new();
    // At most one cell and one resident piece per imported node.
    let mut masks = Vec::with_capacity(order.len());
    forest.keys.reserve(order.len());
    forest.cells.reserve(order.len());
    forest.resident.reserve(order.len());
    for pieces in order.chunk_by(|a, b| a.0 == b.0) {
        let key = Key(pieces[0].0);
        let size = global_bb.cell_size(key.level());
        let first_resident = forest.resident.len() as u32;
        let mut child_mask = 0u8;
        moments.clear();
        for &(_, piece) in pieces {
            let n = &foreign.nodes[piece as usize].1;
            moments.push((n.mass, n.com, n.quad));
            match n.tag {
                TAG_TERMINAL => forest.resident.push(Resident::Multipole {
                    mass: n.mass,
                    com: n.com,
                    quad: n.quad,
                }),
                TAG_BODIES => forest.resident.push(Resident::Group {
                    start: n.bodies.0,
                    end: n.bodies.1,
                    mass: n.mass,
                    com: n.com,
                    quad: n.quad,
                    crit2: Cell::threshold(mac, size, n.delta, n.bodies.1 - n.bodies.0),
                }),
                TAG_INTERNAL => child_mask |= n.child_mask,
                _ => unreachable!("unknown tag"),
            }
        }
        let (mass, com, quad) = crate::moments::combine_moments(&moments);
        forest.keys.push(key.0);
        masks.push(child_mask);
        forest.cells.push(Cell {
            com,
            crit2: mac.crit2(size, com_offset(global_bb, key, com)),
            mass,
            quad,
            first_child: 0,
            n_children: child_mask.count_ones(),
            resident: (first_resident, forest.resident.len() as u32),
        });
    }
    // Link: cell 0 is the root, and the daughters a cell masks sit, in
    // daughter order, right after those of the cell before it.
    let rooted = forest.keys.first().is_none_or(|&k| k == Key::ROOT.0);
    assert!(rooted, "import forest: no peer shipped the root");
    let mut next = forest.cells.len().min(1);
    for ((cell, &key), child_mask) in forest.cells.iter_mut().zip(&forest.keys).zip(masks) {
        cell.first_child = next as u32;
        for d in (0..8u8).filter(|d| child_mask & (1 << d) != 0) {
            let daughter = Key(key).child(d).0;
            assert!(
                forest.keys.get(next) == Some(&daughter),
                "import forest: cell {key:#x} masks daughter {daughter:#x}, which no peer shipped"
            );
            next += 1;
        }
    }
    let linked = next == forest.cells.len();
    assert!(linked, "import forest: a shipped cell that no parent masks");
    forest
}

impl ImportedForest {
    /// Walk `g` over the forest with the body-level MAC: an opened cell
    /// applies its resident pieces in peer order.
    fn walk(&self, stack: &mut Vec<(u32, u8)>, g: &mut Group, f: &Field) {
        walk_group(&self.cells, stack, g, f, |g, cell, mask| {
            for r in &self.resident[cell.resident.0 as usize..cell.resident.1 as usize] {
                match *r {
                    // Domain-accepted ⇒ body-accepted: apply directly.
                    Resident::Multipole { mass, com, quad } => g.cell(mask, mass, com, &quad, f),
                    Resident::Group {
                        start,
                        end,
                        mass,
                        com,
                        quad,
                        crit2,
                    } => {
                        let far = g.beyond(com, crit2, mask);
                        g.cell(far, mass, com, &quad, f);
                        // No foreign body is a local one: nothing to skip.
                        let bodies = self.bodies[start as usize..end as usize].iter();
                        g.points(mask & !far, bodies.map(|&(m, q)| (usize::MAX, m, q)), f);
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// The SPMD step
// ---------------------------------------------------------------------

/// Run one distributed force evaluation of `bodies` on `cluster` with
/// uniform cost weights. See [`distributed_step_weighted`] for the
/// cost-feedback variant the production treecode uses.
pub fn distributed_step(cluster: &Cluster, bodies: &Bodies, cfg: &DistributedConfig) -> StepReport {
    distributed_step_weighted(cluster, bodies, cfg, None)
}

/// Run one distributed force evaluation, decomposing by per-body work
/// weights (typically [`StepReport::body_cost`] from the previous step —
/// Warren–Salmon cost zones).
pub fn distributed_step_weighted(
    cluster: &Cluster,
    bodies: &Bodies,
    cfg: &DistributedConfig,
    weights: Option<&[f64]>,
) -> StepReport {
    let step = ForceStep::new(cluster.spec().nodes, bodies, cfg, weights);
    step.assemble(cluster.run(step.job()))
}

/// [`distributed_step_weighted`] with per-rank span tracing: every rank
/// records `global_box` / `tree_build` / `domain_publish` /
/// `let_exchange` / `walk` phase spans plus the send/recv/collective
/// spans the `Comm` emits, ready for Chrome `trace_event` export.
/// Tracing never touches the virtual clocks — the report is identical to
/// the untraced step's.
pub fn distributed_step_traced(
    cluster: &Cluster,
    bodies: &Bodies,
    cfg: &DistributedConfig,
    weights: Option<&[f64]>,
) -> (StepReport, RunTrace) {
    let step = ForceStep::new(cluster.spec().nodes, bodies, cfg, weights);
    let (outcome, trace) = cluster.run_traced(step.job());
    (step.assemble(outcome), trace)
}

/// One force evaluation, decomposed: the bodies split into cost zones,
/// one per rank. [`ForceStep::job`] is the SPMD body that evaluates the
/// forces, and [`ForceStep::assemble`] turns its outcome into the
/// [`StepReport`].
#[derive(Debug, Clone)]
pub struct ForceStep {
    /// Per-rank indices into the caller's bodies.
    zones: Vec<Vec<usize>>,
    /// Per-rank bodies, in zone order.
    zone_bodies: Vec<Bodies>,
    cfg: DistributedConfig,
}

impl ForceStep {
    /// Split `bodies` into `nranks` cost zones by per-body work `weights`
    /// (uniform when `None`).
    pub fn new(
        nranks: usize,
        bodies: &Bodies,
        cfg: &DistributedConfig,
        weights: Option<&[f64]>,
    ) -> Self {
        let bb = BoundingBox::containing(&bodies.pos);
        let zones = cost_zones(bodies, &bb, nranks, weights);
        let zone_bodies = zones.iter().map(|z| bodies.select(z)).collect();
        ForceStep {
            zones,
            zone_bodies,
            cfg: *cfg,
        }
    }

    /// The SPMD body of one rank: the five phases, each under the span
    /// [`distributed_step_traced`] records for it. Run it on a cluster
    /// of as many nodes as there are zones.
    pub fn job(&self) -> Stackless<impl AsyncFn(&mut Comm) -> RankReport + Sync + '_> {
        Stackless(async |comm: &mut Comm| {
            let (mine, cfg) = (&self.zone_bodies[comm.rank()], &self.cfg);
            comm.begin_phase("global_box");
            let global_bb = global_box(comm, mine).await;
            comm.end_phase();
            comm.begin_phase("tree_build");
            let local = tree_build(comm, mine, global_bb, cfg);
            comm.end_phase();
            comm.begin_phase("domain_publish");
            let domains = domain_publish(comm, &local.tree).await;
            comm.end_phase();
            comm.begin_phase("let_exchange");
            let forest = let_exchange(comm, &local, domains, &cfg.mac).await;
            comm.end_phase();
            comm.begin_phase("walk");
            let report = walk(comm, local, forest, cfg).await;
            comm.end_phase();
            report
        })
    }

    /// Scatter the per-rank results of a run of [`ForceStep::job`] back
    /// to original body order and derive the step-level aggregates.
    pub fn assemble(&self, outcome: SpmdOutcome<RankReport>) -> StepReport {
        let total_flops: f64 = outcome
            .results
            .iter()
            .map(|r| r.interactions.flops(self.cfg.mac.quadrupole) as f64)
            .sum();
        let makespan = outcome.makespan_s();
        // The zones partition the bodies.
        let n_bodies = self.zones.iter().map(Vec::len).sum();
        let mut acc = vec![[0.0; 3]; n_bodies];
        let mut pot = vec![0.0; n_bodies];
        let mut body_cost = vec![0.0; n_bodies];
        for (zone, report) in self.zones.iter().zip(&outcome.results) {
            for (slot, &orig) in zone.iter().enumerate() {
                acc[orig] = report.acc[slot];
                pot[orig] = report.pot[slot];
                body_cost[orig] = report.body_cost[slot];
            }
        }
        StepReport {
            makespan_s: makespan,
            total_flops,
            gflops: if makespan > 0.0 {
                total_flops / makespan / 1e9
            } else {
                0.0
            },
            acc,
            pot,
            per_rank: outcome.results,
            body_cost,
            comm: outcome.stats,
        }
    }
}

/// Phase 1: agree on the global bounding box (allgather + union).
async fn global_box(comm: &mut Comm, mine: &Bodies) -> BoundingBox {
    let my_box = if !mine.is_empty() {
        let b = BoundingBox::containing(&mine.pos);
        [b.min[0], b.min[1], b.min[2], b.size]
    } else {
        [f64::NAN; 4]
    };
    let boxes = comm
        .allgather_async(mb_cluster::comm::pack_f64s(&my_box))
        .await;
    let mut global_bb: Option<BoundingBox> = None;
    for payload in &boxes {
        let v = mb_cluster::comm::unpack_f64s(payload);
        if v[0].is_nan() {
            continue;
        }
        let b = BoundingBox {
            min: [v[0], v[1], v[2]],
            size: v[3],
        };
        global_bb = Some(match global_bb {
            Some(g) => g.union(&b),
            None => b,
        });
    }
    global_bb.expect("at least one rank owns bodies")
}

/// A rank's zone after the local build: bodies Morton-sorted, the tree
/// (empty zone: no cells) whose `order` maps sorted bodies back to zone
/// slots, and its cells in walkable form ([`flatten`]) for the prune and
/// the walk.
struct LocalTree {
    bodies: Bodies,
    tree: HashedOctTree,
    cells: Vec<Cell>,
}

impl LocalTree {
    /// The tree of zone `mine` in the global key space.
    fn new(mine: &Bodies, global_bb: BoundingBox, cfg: &DistributedConfig) -> LocalTree {
        let mut bodies = mine.clone();
        let tree = build_tree(&mut bodies, global_bb, cfg.leaf_capacity);
        let cells = flatten(&tree, &cfg.mac);
        LocalTree {
            bodies,
            tree,
            cells,
        }
    }
}

/// Phase 2: the local build, charged at `build_flops_per_body_level`.
fn tree_build(
    comm: &mut Comm,
    mine: &Bodies,
    global_bb: BoundingBox,
    cfg: &DistributedConfig,
) -> LocalTree {
    let n_local = mine.len();
    if n_local > 0 {
        let levels = (n_local.max(2) as f64).log2();
        comm.compute(cfg.build_flops_per_body_level * n_local as f64 * levels);
    }
    LocalTree::new(mine, global_bb, cfg)
}

/// Phase 3: publish the adaptive cell frontier of the local tree (see
/// [`DOMAIN_CELL_BUDGET`]); returns every rank's, as corners.
async fn domain_publish(comm: &mut Comm, tree: &HashedOctTree) -> Vec<Vec<Corners>> {
    let mut occ_bytes = Vec::new();
    for k in domain_frontier(tree, DOMAIN_CELL_BUDGET) {
        occ_bytes.extend_from_slice(&k.to_le_bytes());
    }
    let domains = comm.allgather_async(Bytes::from(occ_bytes)).await;
    let corners = |c: &[u8]| {
        let key = Key(u64::from_le_bytes(c.try_into().expect("key")));
        cell_corners(&tree.bb, key)
    };
    domains
        .iter()
        .map(|b| b.chunks_exact(8).map(corners).collect())
        .collect()
}

/// Phase 4, the LET exchange: a pruned skeleton out to every peer, the
/// peers' skeletons in, merged into one forest. The peers' domains and
/// the prune's buffers are freed before the exchange waits: every rank
/// is alive at once, so what one holds across the wait, all hold.
async fn let_exchange(
    comm: &mut Comm,
    local: &LocalTree,
    domains: Vec<Vec<Corners>>,
    mac: &Mac,
) -> ImportedForest {
    let rank = comm.rank();
    let mut outgoing = vec![Bytes::new(); comm.nranks()];
    let mut scratch = PruneScratch::default();
    for (peer, domain) in domains.iter().enumerate() {
        if peer == rank || domain.is_empty() || local.tree.is_empty() {
            continue;
        }
        outgoing[peer] = prune_for_domain(local, domain, mac, &mut scratch);
    }
    drop((domains, scratch));
    let incoming = comm.alltoallv_async(outgoing).await;
    let peers = || {
        incoming
            .iter()
            .enumerate()
            .filter(|(peer, _)| *peer != rank)
    };
    // Sized once: grown peer by peer, the lists would be copied as often.
    let (n_nodes, n_bodies) = peers()
        .map(|(peer, payload)| payload_counts(peer, payload))
        .fold((0, 0), |n, c| (n.0 + c.0, n.1 + c.1));
    let mut foreign = ForeignTree {
        nodes: Vec::with_capacity(n_nodes),
        bodies: Vec::with_capacity(n_bodies),
    };
    for (peer, payload) in peers() {
        deserialize_foreign(peer, payload, &mut foreign);
    }
    merge_foreign(foreign, &local.tree.bb, mac)
}

/// Phase 5: walk every local body over the local tree plus the import
/// forest, charge the flops, and meet the other ranks at the barrier.
/// Both trees are freed before the barrier waits, as in [`let_exchange`].
async fn walk(
    comm: &mut Comm,
    local: LocalTree,
    forest: ImportedForest,
    cfg: &DistributedConfig,
) -> RankReport {
    let n_local = local.bodies.len();
    let mut counts = InteractionCounts::default();
    let mut acc = vec![[0.0; 3]; n_local];
    let mut pot = vec![0.0; n_local];
    let mut body_cost = vec![0.0; n_local];
    let f = Field::new(&cfg.mac, cfg.eps2);
    let mut stack = Vec::new();
    for first in (0..n_local).step_by(LANES) {
        let mut g = Group::load(&local.bodies.pos, first);
        walk_local(&local.cells, &local.bodies, &mut stack, &mut g, &f);
        forest.walk(&mut stack, &mut g, &f);
        for (i, a, phi, c) in g.results() {
            // Scatter: Morton order to the caller's zone slot.
            let slot = local.tree.order[i];
            acc[slot] = a;
            pot[slot] = phi;
            body_cost[slot] = (c.pp + c.pc) as f64;
            counts.add(c);
        }
    }
    comm.compute(counts.flops(cfg.mac.quadrupole) as f64);
    let (imported_cells, imported_bodies) = (forest.imported_cells, forest.bodies.len() as u64);
    drop((local, forest, stack));
    comm.barrier_async().await;
    RankReport {
        rank: comm.rank(),
        n_local,
        interactions: counts,
        imported_cells,
        imported_bodies,
        clock_s: comm.now(),
        acc,
        pot,
        body_cost,
    }
}

/// Under test, how many [`ImportedForest`]s and [`PruneScratch`]es are
/// alive on this thread, and the most that were at once: each carries a
/// [`live::Live`] field, counted in when made and out when dropped. A
/// stackless step polls every rank on the calling thread, so the mark
/// says how many ranks held one at the same instant.
#[cfg(test)]
mod live {
    use std::cell::Cell;

    pub(super) const FOREST: usize = 0;
    pub(super) const SCRATCH: usize = 1;

    thread_local! {
        /// `(live, high-water mark)` per kind.
        static COUNTS: Cell<[(usize, usize); 2]> = const { Cell::new([(0, 0); 2]) };
    }

    #[derive(Debug)]
    pub(super) struct Live<const KIND: usize>;

    impl<const KIND: usize> Live<KIND> {
        fn counted() -> Self {
            COUNTS.with(|c| {
                let mut counts = c.get();
                let (live, high) = &mut counts[KIND];
                *live += 1;
                *high = (*high).max(*live);
                c.set(counts);
            });
            Live
        }
    }

    impl<const KIND: usize> Default for Live<KIND> {
        fn default() -> Self {
            Self::counted()
        }
    }

    impl<const KIND: usize> Clone for Live<KIND> {
        fn clone(&self) -> Self {
            Self::counted()
        }
    }

    impl<const KIND: usize> Drop for Live<KIND> {
        fn drop(&mut self) {
            COUNTS.with(|c| {
                let mut counts = c.get();
                counts[KIND].0 -= 1;
                c.set(counts);
            });
        }
    }

    /// `(live, high-water mark)` of `kind`; the mark restarts from the
    /// live count.
    pub(super) fn take(kind: usize) -> (usize, usize) {
        COUNTS.with(|c| {
            let mut counts = c.get();
            let seen = counts[kind];
            counts[kind].1 = seen.0;
            c.set(counts);
            seen
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hot::Node;
    use mb_cluster::spec::metablade;

    use crate::direct::direct_forces;
    use crate::ic::plummer;

    fn median_err(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
        let mut errs: Vec<f64> = a
            .iter()
            .zip(b)
            .map(|(x, y)| {
                let e =
                    ((x[0] - y[0]).powi(2) + (x[1] - y[1]).powi(2) + (x[2] - y[2]).powi(2)).sqrt();
                let n = (y[0] * y[0] + y[1] * y[1] + y[2] * y[2]).sqrt();
                e / n.max(1e-30)
            })
            .collect();
        errs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        errs[errs.len() / 2]
    }

    #[test]
    fn distributed_forces_match_direct_summation() {
        let mut bodies = plummer(1500, 77);
        let cluster = Cluster::new(metablade().with_nodes(6));
        let cfg = DistributedConfig::default();
        let report = distributed_step(&cluster, &bodies, &cfg);
        direct_forces(&mut bodies, cfg.eps2);
        let err = median_err(&report.acc, &bodies.acc);
        assert!(err < 4e-3, "median error vs direct: {err}");
    }

    #[test]
    fn no_rank_holds_its_forest_or_prune_buffers_across_a_wait() {
        let bodies = plummer(2000, 2002);
        let (cluster, cfg) = (Cluster::new(metablade()), DistributedConfig::default());
        let step = ForceStep::new(cluster.spec().nodes, &bodies, &cfg, None);
        live::take(live::FOREST);
        live::take(live::SCRATCH);
        let report = step.assemble(cluster.run(step.job()));
        assert_eq!(report.per_rank.len(), 24);
        assert!(report.per_rank.iter().all(|r| r.imported_cells > 0));
        // Every rank made one of each, one rank at a time, and freed it.
        assert_eq!(
            live::take(live::FOREST),
            (0, 1),
            "forests (live, most at once)"
        );
        assert_eq!(
            live::take(live::SCRATCH),
            (0, 1),
            "prune scratches (live, most at once)"
        );
    }

    #[test]
    fn distributed_result_is_independent_of_rank_count() {
        let bodies = plummer(800, 3);
        let cfg = DistributedConfig::default();
        let r2 = distributed_step(&Cluster::new(metablade().with_nodes(2)), &bodies, &cfg);
        let r8 = distributed_step(&Cluster::new(metablade().with_nodes(8)), &bodies, &cfg);
        let err = median_err(&r2.acc, &r8.acc);
        assert!(err < 4e-3, "P=2 vs P=8 median divergence {err}");
    }

    #[test]
    fn more_ranks_are_faster_with_reasonable_efficiency() {
        let bodies = plummer(20_000, 5);
        let cfg = DistributedConfig::default();
        let t1 =
            distributed_step(&Cluster::new(metablade().with_nodes(1)), &bodies, &cfg).makespan_s;
        let t8 =
            distributed_step(&Cluster::new(metablade().with_nodes(8)), &bodies, &cfg).makespan_s;
        let speedup = t1 / t8;
        assert!(speedup > 4.0, "speedup {speedup} too low");
        assert!(speedup < 8.0, "speedup {speedup} super-linear?");
    }

    #[test]
    fn tiny_problems_are_communication_bound() {
        // Starve the ranks and efficiency collapses — the drop-off
        // mechanism behind Table 2's "drop in efficiency".
        let bodies = plummer(1000, 6);
        let cfg = DistributedConfig::default();
        let t1 =
            distributed_step(&Cluster::new(metablade().with_nodes(1)), &bodies, &cfg).makespan_s;
        let t16 =
            distributed_step(&Cluster::new(metablade().with_nodes(16)), &bodies, &cfg).makespan_s;
        let eff = t1 / t16 / 16.0;
        assert!(
            eff < 0.6,
            "1000 bodies on 16 ranks should be inefficient, eff {eff}"
        );
    }

    #[test]
    fn single_rank_equals_shared_memory_tree() {
        let bodies = plummer(600, 9);
        let cfg = DistributedConfig::default();
        let report = distributed_step(&Cluster::new(metablade().with_nodes(1)), &bodies, &cfg);
        let bb = BoundingBox::containing(&bodies.pos);
        let mut sorted = bodies.clone();
        let tree = build_tree(&mut sorted, bb, cfg.leaf_capacity);
        crate::traverse::tree_forces(&mut sorted, &tree, &cfg.mac, cfg.eps2);
        use std::collections::HashMap;
        let mut by_pos: HashMap<[u64; 3], usize> = HashMap::new();
        for (i, p) in sorted.pos.iter().enumerate() {
            by_pos.insert([p[0].to_bits(), p[1].to_bits(), p[2].to_bits()], i);
        }
        for (i, p) in bodies.pos.iter().enumerate() {
            let j = by_pos[&[p[0].to_bits(), p[1].to_bits(), p[2].to_bits()]];
            for d in 0..3 {
                let diff = (report.acc[i][d] - sorted.acc[j][d]).abs();
                let scale = sorted.acc[j][d].abs().max(1e-12);
                assert!(
                    diff / scale < 1e-9,
                    "P=1 must equal shared-memory walk: body {i} dim {d}"
                );
            }
        }
    }

    #[test]
    fn import_volume_is_a_small_fraction_of_n() {
        // The LET exchange must ship surface-like volumes, not whole
        // zones (the regression that motivated occupied-cell domains).
        let n = 20_000;
        let bodies = plummer(n, 13);
        let cluster = Cluster::new(metablade().with_nodes(8));
        let r = distributed_step(&cluster, &bodies, &DistributedConfig::default());
        for rr in &r.per_rank {
            assert!(
                (rr.imported_bodies as usize) < n / 2,
                "rank {} imported {} bodies of {}",
                rr.rank,
                rr.imported_bodies,
                n
            );
        }
    }

    #[test]
    fn looser_mac_ships_less() {
        let bodies = plummer(2000, 13);
        let tight = DistributedConfig {
            mac: Mac {
                theta: 0.3,
                quadrupole: true,
            },
            ..Default::default()
        };
        let loose = DistributedConfig {
            mac: Mac {
                theta: 1.0,
                quadrupole: true,
            },
            ..Default::default()
        };
        let cluster = Cluster::new(metablade().with_nodes(8));
        let rt = distributed_step(&cluster, &bodies, &tight);
        let rl = distributed_step(&cluster, &bodies, &loose);
        let t: u64 = rt.per_rank.iter().map(|r| r.imported_bodies).sum();
        let l: u64 = rl.per_rank.iter().map(|r| r.imported_bodies).sum();
        assert!(l < t, "loose {l} !< tight {t}");
    }

    #[test]
    fn gflops_are_positive_and_below_peak() {
        let bodies = plummer(3000, 21);
        let cluster = Cluster::new(metablade());
        let report = distributed_step(&cluster, &bodies, &DistributedConfig::default());
        assert!(report.gflops > 0.0);
        assert!(
            report.gflops <= cluster.spec().peak_gflops(),
            "{} Gflops exceeds peak {}",
            report.gflops,
            cluster.spec().peak_gflops()
        );
    }

    #[test]
    fn traced_step_matches_untraced_and_records_phases() {
        let bodies = plummer(1200, 42);
        let cfg = DistributedConfig::default();
        let cluster = Cluster::new(metablade().with_nodes(4));
        let plain = distributed_step(&cluster, &bodies, &cfg);
        let (traced, trace) = distributed_step_traced(&cluster, &bodies, &cfg, None);
        assert_eq!(
            traced.makespan_s, plain.makespan_s,
            "tracing must not perturb the virtual clock"
        );
        assert_eq!(trace.ranks.len(), 4, "one track per rank");
        use mb_telemetry::trace::SpanKind;
        for (rank, spans) in trace.ranks.iter().enumerate() {
            let phases: Vec<&str> = spans
                .iter()
                .filter(|e| e.kind == SpanKind::Phase)
                .map(|e| e.name)
                .collect();
            assert_eq!(
                phases,
                [
                    "global_box",
                    "tree_build",
                    "domain_publish",
                    "let_exchange",
                    "walk"
                ],
                "rank {rank} phase sequence"
            );
        }
        let json = mb_telemetry::chrome::export(&trace);
        let chrome = mb_telemetry::chrome::validate(&json).expect("valid chrome trace");
        assert_eq!(chrome.tracks, vec![0, 1, 2, 3]);
        assert!(
            (chrome.end_us - plain.makespan_s * 1e6).abs() < 1.0,
            "trace ends at the makespan"
        );
    }

    #[test]
    fn foreign_tree_roundtrips_through_serialization() {
        let nodes = vec![
            (
                Key::ROOT.0,
                ForeignNode {
                    mass: 1.5,
                    com: [0.1, 0.2, 0.3],
                    quad: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                    delta: 0.05,
                    tag: TAG_INTERNAL,
                    child_mask: 0b1010_0001,
                    bodies: (0, 0),
                },
            ),
            (
                Key::ROOT.child(5).0,
                ForeignNode {
                    mass: 0.5,
                    com: [-0.1, 0.0, 0.9],
                    quad: [0.0; 6],
                    delta: 0.0,
                    tag: TAG_BODIES,
                    child_mask: 0,
                    bodies: (0, 2),
                },
            ),
        ];
        let bodies = vec![(0.25, [1.0, 2.0, 3.0]), (0.25, [-1.0, -2.0, -3.0])];
        let bytes = serialize_foreign(&nodes, &bodies);
        assert_eq!(bytes.len(), 4 + 2 * 106 + 4 + 2 * 32, "the wire format");
        let mut t = ForeignTree::default();
        deserialize_foreign(1, &bytes, &mut t);
        assert_eq!(t.nodes.len(), 2);
        assert_eq!(t.bodies, bodies);
        let (key, root) = &t.nodes[0];
        assert_eq!(*key, Key::ROOT.0);
        assert_eq!(root.tag, TAG_INTERNAL);
        assert_eq!(root.child_mask, 0b1010_0001);
        assert_eq!(root.com, [0.1, 0.2, 0.3]);
        let (key, leaf) = &t.nodes[1];
        assert_eq!(*key, Key::ROOT.child(5).0);
        assert_eq!(leaf.tag, TAG_BODIES);
        assert_eq!(leaf.bodies, (0, 2));
        // A second peer's tree lands behind the first, its body ranges
        // offset into the one body list.
        deserialize_foreign(2, &bytes, &mut t);
        assert_eq!(t.nodes.len(), 4);
        assert_eq!(t.nodes[3].1.bodies, (2, 4));
        assert_eq!(t.bodies.len(), 4);
    }

    /// A skeleton piece with recognisable moments: `mass` doubles as the
    /// piece's name in the merge tests.
    fn piece(
        key: Key,
        tag: u8,
        child_mask: u8,
        mass: f64,
        bodies: (u32, u32),
    ) -> (u64, ForeignNode) {
        let node = ForeignNode {
            mass,
            com: [mass, 0.5, 0.25],
            quad: [0.0; 6],
            delta: 0.0,
            tag,
            child_mask,
            bodies,
        };
        (key.0, node)
    }

    fn unit_cube() -> BoundingBox {
        BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        }
    }

    /// Ship each peer's pieces through the wire format and merge them.
    fn merge_peers(peers: &[(Vec<(u64, ForeignNode)>, usize)]) -> ImportedForest {
        let mut foreign = ForeignTree::default();
        for (peer, (nodes, n_bodies)) in peers.iter().enumerate() {
            let bodies = vec![(1.0, [0.5; 3]); *n_bodies];
            deserialize_foreign(peer, &serialize_foreign(nodes, &bodies), &mut foreign);
        }
        merge_foreign(foreign, &unit_cube(), &Mac::standard())
    }

    #[test]
    fn three_peer_import_merges_level_by_level_with_pieces_in_peer_order() {
        let (r, r1, r5) = (Key::ROOT, Key::ROOT.child(1), Key::ROOT.child(5));
        let r52 = r5.child(2);
        // Wire order is the prune's: a cell, then its daughters from the
        // highest down.
        let a = vec![
            piece(r, TAG_INTERNAL, 0b10_0010, 10.0, (0, 0)),
            piece(r5, TAG_INTERNAL, 0b100, 6.0, (0, 0)),
            piece(r52, TAG_BODIES, 0, 6.0, (0, 2)),
            piece(r1, TAG_TERMINAL, 0, 4.0, (0, 0)),
        ];
        let b = vec![
            piece(r, TAG_INTERNAL, 0b10_0010, 20.0, (0, 0)),
            piece(r5, TAG_BODIES, 0, 12.0, (0, 1)),
            piece(r1, TAG_TERMINAL, 0, 8.0, (0, 0)),
        ];
        let c = vec![piece(r, TAG_TERMINAL, 0, 30.0, (0, 0))];
        let forest = merge_peers(&[(a, 2), (b, 1), (c, 0)]);

        assert_eq!(forest.keys, [r.0, r1.0, r5.0, r52.0]);
        assert_eq!(forest.imported_cells, 8);
        assert_eq!(forest.bodies.len(), 3);
        let links: Vec<(u32, u32)> = forest
            .cells
            .iter()
            .map(|n| (n.n_children, n.first_child))
            .collect();
        // Daughters of the root at 1..3, of r5 at 3..4; leaves link past
        // the last cell filed so far and have no daughters to reach.
        assert_eq!(links, [(2, 1), (0, 3), (1, 3), (0, 4)]);
        let masses: Vec<f64> = forest.cells.iter().map(|n| n.mass).collect();
        assert_eq!(masses, [60.0, 12.0, 18.0, 6.0]);
        // r5 is a level-1 cell of the unit cube: edge 0.5.
        let r5_cell = &forest.cells[2];
        let delta = com_offset(&unit_cube(), r5, r5_cell.com);
        assert_eq!(r5_cell.crit2, Mac::standard().crit2(0.5, delta));
        let residents: Vec<Vec<(f64, u32, u32)>> = forest
            .cells
            .iter()
            .map(|n| {
                forest.resident[n.resident.0 as usize..n.resident.1 as usize]
                    .iter()
                    .map(|r| match *r {
                        Resident::Multipole { mass, .. } => (mass, 0, 0),
                        Resident::Group {
                            mass, start, end, ..
                        } => (mass, start, end),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            residents,
            [
                vec![(30.0, 0, 0)],             // peer c's terminal root
                vec![(4.0, 0, 0), (8.0, 0, 0)], // peers a, b: peer order
                vec![(12.0, 2, 3)],             // peer b's bodies, offset
                vec![(6.0, 0, 2)],              // peer a's bodies
            ]
        );
    }

    #[test]
    #[should_panic(expected = "cell 0x1 masks daughter 0xd, which no peer shipped")]
    fn a_masked_daughter_nobody_shipped_is_a_panic_not_lost_mass() {
        let (r, r1) = (Key::ROOT, Key::ROOT.child(1));
        let a = vec![
            piece(r, TAG_INTERNAL, 0b10_0010, 10.0, (0, 0)),
            piece(r1, TAG_TERMINAL, 0, 4.0, (0, 0)),
        ];
        let b = vec![piece(r, TAG_TERMINAL, 0, 20.0, (0, 0))];
        merge_peers(&[(a, 0), (b, 0)]);
    }

    #[test]
    #[should_panic(
        expected = "LET payload from rank 7: length does not match its 1 nodes, 2 bodies"
    )]
    fn a_truncated_payload_is_a_panic_naming_the_sender() {
        let nodes = [piece(Key::ROOT, TAG_BODIES, 0, 2.0, (0, 2))];
        let bytes = serialize_foreign(&nodes, &[(1.0, [0.5; 3]); 2]);
        let short = &bytes[..bytes.len() - 1];
        deserialize_foreign(7, short, &mut ForeignTree::default());
    }

    fn corners(b: &BoundingBox) -> Corners {
        Corners {
            lo: b.min,
            hi: [b.min[0] + b.size, b.min[1] + b.size, b.min[2] + b.size],
        }
    }

    #[test]
    fn branch_free_distances_equal_the_branching_ones_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let check = |a: BoundingBox, b: BoundingBox, p: [f64; 3]| {
            assert_eq!(
                corners(&a).dist2_to_box(&corners(&b)).to_bits(),
                a.dist2_to_box(&b).to_bits(),
                "{a:?} to {b:?}"
            );
            assert_eq!(
                corners(&a).dist2_to_point(p).to_bits(),
                a.dist2_to_point(p).to_bits(),
                "{a:?} to {p:?}"
            );
        };
        let cube = |min: [f64; 3], size: f64| BoundingBox { min, size };
        let unit = unit_cube();
        check(unit, cube([1.0, 0.0, 0.0], 1.0), [1.0, 0.5, 0.5]); // touching; on a face
        check(unit, cube([0.25; 3], 0.5), [0.5; 3]); // containment
        check(cube([0.25; 3], 0.5), unit, [2.0, -1.0, 0.5]);
        check(unit, unit, [0.0; 3]); // coincident; on a corner
        check(cube([-1.0; 3], 1.0), cube([-0.0; 3], 1.0), [-0.0; 3]); // a −0.0 gap
        check(cube([-0.0; 3], 1.0), cube([-1.0; 3], 1.0), [0.0; 3]);
        let mut rng = StdRng::seed_from_u64(2002);
        for i in 0..100_000 {
            // Half on a coarse grid, where faces touch and boxes nest or
            // coincide all the time; half anywhere.
            let mut coord = |scale: f64| {
                let x = (rng.random::<f64>() - 0.5) * scale;
                if i % 2 == 0 {
                    (x * 4.0).round() / 4.0
                } else {
                    x
                }
            };
            let a = cube(
                [coord(4.0), coord(4.0), coord(4.0)],
                coord(2.0).abs() + 0.25,
            );
            let b = cube(
                [coord(4.0), coord(4.0), coord(4.0)],
                coord(2.0).abs() + 0.25,
            );
            check(a, b, [coord(6.0), coord(6.0), coord(6.0)]);
        }
    }

    /// Every zone of `bodies` split `nranks` ways, built in their common
    /// cube, and the domain each would publish — a step's first three
    /// phases without a cluster.
    fn zones_and_domains(
        bodies: &Bodies,
        nranks: usize,
        cfg: &DistributedConfig,
    ) -> (Vec<LocalTree>, Vec<Vec<Corners>>) {
        let bb = BoundingBox::containing(&bodies.pos);
        let zones: Vec<LocalTree> = cost_zones(bodies, &bb, nranks, None)
            .iter()
            .map(|z| LocalTree::new(&bodies.select(z), bb, cfg))
            .collect();
        let domains = zones
            .iter()
            .map(|z| {
                let frontier = domain_frontier(&z.tree, DOMAIN_CELL_BUDGET);
                frontier
                    .iter()
                    .map(|&k| cell_corners(&bb, Key(k)))
                    .collect()
            })
            .collect();
        (zones, domains)
    }

    #[test]
    fn prune_arena_is_truncated_on_pop() {
        // 24 zones of a 20 000-body sphere; three senders prune for every
        // peer. An arena that only grew would hold every requester list
        // ever filed; truncated on pop it holds at most the lists along
        // one root-to-leaf path and their siblings'.
        let cfg = DistributedConfig::default();
        let (zones, domains) = zones_and_domains(&plummer(20_000, 42), 24, &cfg);
        for sender in [0, 11, 23] {
            let local = &zones[sender];
            let mut scratch = PruneScratch::default();
            for (peer, domain) in domains.iter().enumerate().filter(|(p, _)| *p != sender) {
                let bound = 8 * (local.tree.depth() as usize + 1) * domain.len();
                scratch.arena = Vec::with_capacity(bound);
                let room = scratch.arena.capacity();
                prune_for_domain(local, domain, &cfg.mac, &mut scratch);
                assert_eq!(
                    scratch.arena.capacity(),
                    room,
                    "{sender} → {peer}: the arena outgrew {bound} ids"
                );
            }
        }
    }

    /// `prune_for_domain` as it stood before the flat local tree and the
    /// separable distances: the hashed tree's nodes on the stack, one
    /// box–box distance per daughter and requester cell.
    fn prune_per_daughter(local: &LocalTree, domain: &[Corners], mac: &Mac) -> Bytes {
        let (tree, bodies) = (&local.tree, &local.bodies);
        let (mut nodes, mut shipped) = (Vec::new(), Vec::new());
        let mut arena: Vec<u32> = (0..domain.len() as u32).collect();
        let mut stack = vec![(tree.root(), 0, domain.len())];
        while let Some((node, lo, hi)) = stack.pop() {
            arena.truncate(hi);
            let size = tree.bb.cell_size(node.key.level());
            let mut fnode = ForeignNode {
                mass: node.mass,
                com: node.com,
                quad: node.quad,
                delta: node.delta,
                tag: TAG_TERMINAL,
                child_mask: 0,
                bodies: (0, 0),
            };
            let crit = size / mac.theta + node.delta;
            let crit2 = crit * crit;
            let all_accept = node.count > 1
                && arena[lo..hi]
                    .iter()
                    .all(|&c| crit2 < domain[c as usize].dist2_to_point(node.com));
            if lo == hi || all_accept {
                nodes.push((node.key.0, fnode));
                continue;
            }
            match node.kind {
                NodeKind::Leaf { start, end } => {
                    let b0 = shipped.len() as u32;
                    for i in start as usize..end as usize {
                        shipped.push((bodies.mass[i], bodies.pos[i]));
                    }
                    fnode.tag = TAG_BODIES;
                    fnode.bodies = (b0, shipped.len() as u32);
                    nodes.push((node.key.0, fnode));
                }
                NodeKind::Internal { child_mask, .. } => {
                    fnode.tag = TAG_INTERNAL;
                    fnode.child_mask = child_mask;
                    nodes.push((node.key.0, fnode));
                    for child in tree.children(node) {
                        let cb = cell_corners(&tree.bb, child.key);
                        let s = tree.bb.cell_size(child.key.level());
                        let crit = s / mac.theta + s * 0.8660254;
                        let crit2 = crit * crit;
                        let start = arena.len();
                        arena.resize(start + (hi - lo), 0);
                        let (filed, child_req) = arena.split_at_mut(start);
                        let mut kept = 0;
                        for &c in &filed[lo..hi] {
                            child_req[kept] = c;
                            kept += usize::from(domain[c as usize].dist2_to_box(&cb) <= crit2);
                        }
                        arena.truncate(start + kept);
                        stack.push((child, start, start + kept));
                    }
                }
            }
        }
        serialize_foreign(&nodes, &shipped)
    }

    #[test]
    fn pruned_trees_equal_the_per_daughter_prune_byte_for_byte() {
        let cfg = DistributedConfig::default();
        let (zones, domains) = zones_and_domains(&plummer(20_000, 42), 24, &cfg);
        let mut scratch = PruneScratch::default();
        for (sender, local) in zones.iter().enumerate() {
            for (peer, domain) in domains.iter().enumerate().filter(|(p, _)| *p != sender) {
                let shipped = prune_for_domain(local, domain, &cfg.mac, &mut scratch);
                let expected = prune_per_daughter(local, domain, &cfg.mac);
                assert!(shipped == expected, "{sender} → {peer}: payloads differ");
            }
        }
    }

    #[test]
    fn half_gaps_sum_to_the_box_distance_of_every_daughter_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let bb = BoundingBox {
            min: [-2.0, -1.5, -2.5],
            size: 5.0,
        };
        let mut rng = StdRng::seed_from_u64(23);
        for i in 0..10_000 {
            // A sender cell anywhere in the top twelve levels.
            let mut key = Key::ROOT;
            for _ in 0..rng.random_range(0..12u32) {
                key = key.child(rng.random_range(0..8u8));
            }
            let cell = cell_corners(&bb, key);
            // A requester: a third of them tree cells (faces touch, boxes
            // nest — the `−0.0` and `0.0` gaps), a third on a coarse grid,
            // a third anywhere.
            let requester = match i % 3 {
                0 => {
                    let mut k = Key::ROOT;
                    for _ in 0..rng.random_range(0..12u32) {
                        k = k.child(rng.random_range(0..8u8));
                    }
                    cell_corners(&bb, k)
                }
                kind => {
                    let mut coord = |scale: f64| {
                        let x = (rng.random::<f64>() - 0.5) * scale;
                        if kind == 1 {
                            (x * 4.0).round() / 4.0
                        } else {
                            x
                        }
                    };
                    let lo = [coord(6.0), coord(6.0), coord(6.0)];
                    let size = coord(2.0).abs() + 0.125;
                    Corners {
                        lo,
                        hi: [lo[0] + size, lo[1] + size, lo[2] + size],
                    }
                }
            };
            let halves = [
                cell_corners(&bb, key.child(0)),
                cell_corners(&bb, key.child(7)),
            ];
            let g = requester.half_gaps2(&halves);
            for o in 0..8usize {
                let sum = g[o & 1] + g[2 + (o >> 1 & 1)] + g[4 + (o >> 2)];
                let daughter = cell_corners(&bb, key.child(o as u8));
                assert_eq!(
                    sum.to_bits(),
                    requester.dist2_to_box(&daughter).to_bits(),
                    "{key:?} daughter {o} from {requester:?} (its parent: {cell:?})"
                );
            }
        }
    }

    /// A body's running sums: acceleration, potential, counts.
    type Sums = ([f64; 3], f64, InteractionCounts);

    /// `apply_multipole` as it stood: a stand-in node around the moments.
    fn apply_multipole(m: (f64, [f64; 3], [f64; 6]), pos: [f64; 3], f: &Field, sums: &mut Sums) {
        let node = Node {
            key: Key::ROOT,
            kind: NodeKind::Leaf { start: 0, end: 0 },
            count: 2,
            mass: m.0,
            com: m.1,
            quad: m.2,
            delta: 0.0,
        };
        let (a, p) = crate::reference::multipole_field(&node, pos, f.eps2, f.quadrupole);
        for ax in 0..3 {
            sums.0[ax] += a[ax];
        }
        sums.1 += p;
        sums.2.pc += 1;
    }

    /// `walk_forest` as it stood before the group walk: one body, one
    /// `u32` stack, the MAC evaluated per visit. The forest no longer
    /// stores a cell's edge and offset (only the threshold made of them),
    /// so they are recomputed here by the expressions that made them.
    fn walk_forest_one_body(
        forest: &ImportedForest,
        bb: &BoundingBox,
        pos: [f64; 3],
        mac: &Mac,
        eps2: f64,
        sums: &mut Sums,
    ) {
        let f = Field::new(mac, eps2);
        let mut stack = Vec::new();
        if !forest.cells.is_empty() {
            stack.push(0);
        }
        while let Some(at) = stack.pop() {
            let (node, key) = (&forest.cells[at as usize], Key(forest.keys[at as usize]));
            let size = bb.cell_size(key.level());
            let d = [
                node.com[0] - pos[0],
                node.com[1] - pos[1],
                node.com[2] - pos[2],
            ];
            let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if mac.accepts(size, com_offset(bb, key, node.com), dist2) {
                apply_multipole((node.mass, node.com, node.quad), pos, &f, sums);
                continue;
            }
            for r in &forest.resident[node.resident.0 as usize..node.resident.1 as usize] {
                match *r {
                    Resident::Multipole { mass, com, quad } => {
                        // Domain-accepted ⇒ body-accepted: apply directly.
                        apply_multipole((mass, com, quad), pos, &f, sums);
                    }
                    Resident::Group {
                        start,
                        end,
                        mass,
                        com,
                        quad,
                        ..
                    } => {
                        let gd = [com[0] - pos[0], com[1] - pos[1], com[2] - pos[2]];
                        let gdist2 = gd[0] * gd[0] + gd[1] * gd[1] + gd[2] * gd[2];
                        let delta = com_offset(bb, key, com);
                        if end - start > 1 && mac.accepts(size, delta, gdist2) {
                            apply_multipole((mass, com, quad), pos, &f, sums);
                        } else {
                            for &(m, q) in &forest.bodies[start as usize..end as usize] {
                                let dj = [q[0] - pos[0], q[1] - pos[1], q[2] - pos[2]];
                                let r2 = dj[0] * dj[0] + dj[1] * dj[1] + dj[2] * dj[2] + eps2;
                                let rinv = 1.0 / r2.sqrt();
                                let rinv3 = rinv * rinv * rinv;
                                let sfac = m * rinv3;
                                sums.0[0] += sfac * dj[0];
                                sums.0[1] += sfac * dj[1];
                                sums.0[2] += sfac * dj[2];
                                sums.1 -= m * rinv;
                                sums.2.pp += 1;
                            }
                        }
                    }
                }
            }
            // Ascending daughter order, so the highest daughter pops first.
            stack.extend(node.first_child..node.first_child + node.n_children);
        }
    }

    #[test]
    fn local_plus_forest_group_walk_equals_the_body_by_body_walks_bit_for_bit() {
        // Zones of one body (8 on 8), of 8 and 9 (17 on 2), and of a few
        // hundred with short last groups (1500 on 6).
        for (n, nranks) in [(8, 8), (17, 2), (1500, 6)] {
            for (name, ic) in crate::reference::ICS {
                for (theta, quadrupole, eps2) in
                    [(0.3, true, 1e-6), (0.8, false, 1e-6), (0.8, true, 0.0)]
                {
                    let cfg = DistributedConfig {
                        mac: Mac { theta, quadrupole },
                        eps2,
                        ..Default::default()
                    };
                    let what = format!("{name} n={n} P={nranks} θ={theta} quad={quadrupole}");
                    let (zones, domains) = zones_and_domains(&ic(n, 5), nranks, &cfg);
                    let mut scratch = PruneScratch::default();
                    for (rank, local) in zones.iter().enumerate() {
                        let mut foreign = ForeignTree::default();
                        for (peer, sender) in zones.iter().enumerate().filter(|(p, _)| *p != rank) {
                            let payload =
                                prune_for_domain(sender, &domains[rank], &cfg.mac, &mut scratch);
                            deserialize_foreign(peer, &payload, &mut foreign);
                        }
                        let bb = local.tree.bb;
                        let forest = merge_foreign(foreign, &bb, &cfg.mac);
                        let f = Field::new(&cfg.mac, eps2);
                        let mut stack = Vec::new();
                        for first in (0..local.bodies.len()).step_by(LANES) {
                            let mut g = Group::load(&local.bodies.pos, first);
                            walk_local(&local.cells, &local.bodies, &mut stack, &mut g, &f);
                            forest.walk(&mut stack, &mut g, &f);
                            for (i, a, phi, c) in g.results() {
                                let pos = local.bodies.pos[i];
                                let mut sums = crate::reference::walk_one(
                                    &local.tree,
                                    &local.bodies,
                                    pos,
                                    i,
                                    &cfg.mac,
                                    eps2,
                                );
                                walk_forest_one_body(&forest, &bb, pos, &cfg.mac, eps2, &mut sums);
                                let who = format!("{what}: rank {rank} body {i}");
                                assert_eq!(a.map(f64::to_bits), sums.0.map(f64::to_bits), "{who}");
                                assert_eq!(phi.to_bits(), sums.1.to_bits(), "{who}");
                                assert_eq!(c, sums.2, "{who}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Report from a distributed multi-step evolution.
#[derive(Debug, Clone)]
pub struct EvolveReport {
    /// Total virtual wall-clock across all steps, seconds.
    pub total_time_s: f64,
    /// Sustained Gflops over the whole run.
    pub gflops: f64,
    /// Relative total-energy drift |E_end − E_0| / |E_0|.
    pub energy_drift: f64,
    /// Final positions (original body order).
    pub pos: Vec<[f64; 3]>,
    /// Final velocities.
    pub vel: Vec<[f64; 3]>,
}

/// Evolve `bodies` for `steps` leapfrog (KDK) steps with forces computed
/// by the distributed treecode on `cluster` — the full §3.3 "about 1000
/// timesteps" workflow at configurable scale. The decomposition reuses
/// each step's per-body interaction counts as the next step's cost-zone
/// weights, exactly as the production code carries its decomposition
/// between steps. `bodies` is taken by value; results come back in the
/// report.
pub fn distributed_evolve(
    cluster: &Cluster,
    mut bodies: Bodies,
    cfg: &DistributedConfig,
    dt: f64,
    steps: usize,
) -> EvolveReport {
    let n = bodies.len();
    let p = cluster.spec().nodes as f64;
    let rate = cluster.spec().node.cpu.sustained_mflops * 1e6;
    let mut total_time = 0.0;
    let mut total_flops = 0.0;

    // Initial forces + energy.
    let r0 = distributed_step_weighted(cluster, &bodies, cfg, None);
    total_time += r0.makespan_s;
    total_flops += r0.total_flops;
    bodies.pot = r0.pot;
    let e0 = total_energy(&bodies).total();
    let mut acc = r0.acc;
    let mut weights: Option<Vec<f64>> = Some(r0.body_cost);

    for _ in 0..steps {
        // Kick + drift (embarrassingly parallel: charge its virtual time).
        kick(&mut bodies.vel, &acc, dt);
        drift(&mut bodies.pos, &bodies.vel, dt);
        total_time += 9.0 * n as f64 / p / rate;
        // New forces (re-decomposed with cost feedback).
        let r = distributed_step_weighted(cluster, &bodies, cfg, weights.as_deref());
        total_time += r.makespan_s;
        total_flops += r.total_flops;
        weights = Some(r.body_cost);
        kick(&mut bodies.vel, &r.acc, dt);
        total_time += 3.0 * n as f64 / p / rate;
        acc = r.acc;
        bodies.pot = r.pot;
    }
    let e1 = total_energy(&bodies).total();
    EvolveReport {
        total_time_s: total_time,
        gflops: total_flops / total_time / 1e9,
        energy_drift: ((e1 - e0) / e0).abs(),
        pos: bodies.pos,
        vel: bodies.vel,
    }
}

#[cfg(test)]
mod evolve_tests {
    use super::*;
    use crate::ic::{plummer, two_body_circular};
    use mb_cluster::spec::metablade;

    #[test]
    fn distributed_orbit_closes() {
        let bodies = two_body_circular(1.0, 1.0, 1.0);
        let start = bodies.pos.clone();
        let cluster = Cluster::new(metablade().with_nodes(2));
        let cfg = DistributedConfig {
            eps2: 0.0,
            ..Default::default()
        };
        let period = std::f64::consts::TAU / 2f64.sqrt();
        let steps = 600;
        let r = distributed_evolve(&cluster, bodies, &cfg, period / steps as f64, steps);
        for i in 0..2 {
            for d in 0..3 {
                assert!(
                    (r.pos[i][d] - start[i][d]).abs() < 5e-3,
                    "body {i} dim {d}: {} vs {}",
                    r.pos[i][d],
                    start[i][d]
                );
            }
        }
    }

    #[test]
    fn distributed_evolution_conserves_energy() {
        let bodies = plummer(1500, 19);
        let cluster = Cluster::new(metablade().with_nodes(6));
        let cfg = DistributedConfig {
            eps2: 1e-4,
            ..Default::default()
        };
        let r = distributed_evolve(&cluster, bodies, &cfg, 1e-3, 25);
        assert!(r.energy_drift < 5e-3, "energy drift {}", r.energy_drift);
        assert!(r.gflops > 0.0);
        assert!(r.total_time_s > 0.0);
    }
}
