//! The force walk: eight Morton-consecutive bodies at a time over the
//! tree's cells, in key order.
//!
//! A `Group` walks from the root with an explicit stack whose entries
//! carry a `u8` *active mask*. A lane leaves the mask at the first cell
//! it accepts (that cell contributes its multipole field to the lane);
//! only the remaining lanes open the cell — leaves are summed directly,
//! skipping self-interaction — and its daughters are pushed in ascending
//! order under the remaining mask. So *a body's visit sequence is the
//! subsequence of the group's at which its bit is set*: exactly the cells
//! its own depth-first walk would meet, in the same order, with the same
//! operands, and every force is the one a body-by-body walk computes,
//! bit for bit (`reference.rs` keeps that walk as the test oracle).
//!
//! The lanes are independent, so the p–c kernel of `moments.rs` runs over
//! the `[f64; 8]` positions in a loop of its own (`cell_lanes`) that the
//! compiler turns into packed `sqrtpd` / `divpd`; IEEE `+ − × ÷ √` round
//! identically per lane. A lane outside the mask is computed and
//! *discarded* — never multiplied by zero: a masked-off lane may sit
//! exactly on a source and hold `inf` or `NaN`. A sparse mask takes the
//! same kernel lane by lane, and so does the p–p kernel always (its
//! packed form measured no faster than the scalar loop).
//!
//! The serial driver here, the distributed walk and the import-forest
//! walk of `parallel.rs` are all `walk_group`; they differ only in what
//! is resident at an opened cell.

use crate::body::Bodies;
use crate::flops::InteractionCounts;
use crate::hot::{HashedOctTree, Node, NodeKind};
use crate::mac::Mac;
use crate::moments::{multipole_field, point_field};

/// Statistics of one full force evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalkStats {
    /// Interaction counts (convert to flops via
    /// [`InteractionCounts::flops`]).
    pub interactions: InteractionCounts,
}

/// Bodies per group. The active mask is a `u8`, and eight is the leaf
/// capacity: a group spans the bodies of about one leaf, which is what
/// keeps most lanes together on the way down.
pub(crate) const LANES: usize = 8;

/// Masks with fewer lanes than this take a kernel lane by lane: the
/// packed loops cost about four scalar evaluations whatever the mask.
const DENSE: u32 = 4;

/// `mask.count_ones() >= DENSE`, tabulated: the baseline x86-64 target
/// has no population-count instruction.
const IS_DENSE: [bool; 256] = {
    let mut table = [false; 256];
    let mut mask = 0;
    while mask < 256 {
        table[mask] = mask.count_ones() >= DENSE;
        mask += 1;
    }
    table
};

/// One cell of a walkable tree, the local tree's or the import forest's.
/// Cells are in key order, as the tree's [`Node`]s are: the root is cell
/// 0 and the daughters of a cell are `n_children` consecutive cells from
/// `first_child`, in ascending daughter order.
///
/// What every visit reads — `com`, `crit2`, the links — fills the first
/// cache line; the moments, read only by the lanes that accept the cell,
/// the second.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub(crate) struct Cell {
    pub(crate) com: [f64; 3],
    /// [`Mac::crit2`] of the cell: a body farther than this (squared)
    /// from `com` accepts it. `∞` where no body may (a single-body cell
    /// is exactly its body: direct).
    pub(crate) crit2: f64,
    pub(crate) first_child: u32,
    pub(crate) n_children: u32,
    /// What an opened cell holds itself: the body range of a local leaf,
    /// the resident range of an import-forest cell.
    pub(crate) resident: (u32, u32),
    pub(crate) mass: f64,
    pub(crate) quad: [f64; 6],
}

impl Cell {
    /// The `crit2` of `count` bodies with center-of-mass offset `delta`
    /// in a cell of edge `size`.
    pub(crate) fn threshold(mac: &Mac, size: f64, delta: f64, count: u32) -> f64 {
        if count > 1 {
            mac.crit2(size, delta)
        } else {
            f64::INFINITY
        }
    }
}

/// The tree's cells in their walkable form, in the same order.
pub(crate) fn flatten(tree: &HashedOctTree, mac: &Mac) -> Vec<Cell> {
    let cell = |n: &Node| {
        let (first_child, n_children, resident) = match n.kind {
            NodeKind::Leaf { start, end } => (0, 0, (start, end)),
            NodeKind::Internal {
                child_mask,
                first_child,
            } => (first_child, child_mask.count_ones(), (0, 0)),
        };
        Cell {
            com: n.com,
            crit2: Cell::threshold(mac, tree.bb.cell_size(n.key.level()), n.delta, n.count),
            mass: n.mass,
            quad: n.quad,
            first_child,
            n_children,
            resident,
        }
    };
    tree.nodes.iter().map(cell).collect()
}

/// What every interaction of one walk shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    /// Plummer softening².
    pub(crate) eps2: f64,
    /// Evaluate quadrupole terms for accepted cells.
    pub(crate) quadrupole: bool,
}

impl Field {
    pub(crate) fn new(mac: &Mac, eps2: f64) -> Field {
        Field {
            eps2,
            quadrupole: mac.quadrupole,
        }
    }
}

/// Up to eight consecutive bodies of a Morton-sorted array walking
/// together, one per lane, structure-of-arrays.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    /// Sorted index of lane 0's body.
    first: usize,
    /// The lanes that hold a body.
    live: u8,
    pos: [[f64; LANES]; 3],
    /// Accelerations (rows 0–2) and potential (row 3) so far.
    sums: [[f64; LANES]; 4],
    pp: [u32; LANES],
    pc: [u32; LANES],
}

/// The set bits of a mask, ascending.
fn lanes(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// Count one interaction on each lane of `mask`.
fn count(counts: &mut [u32; LANES], mask: u8) {
    for l in 0..LANES {
        counts[l] += u32::from(mask >> l & 1);
    }
}

/// The p–c kernel at all eight positions of `g`, added to the lanes of
/// `mask`. Its own function, over plain arrays: inlined into the walk
/// the loop stays scalar.
#[inline(never)]
fn cell_lanes(g: &mut Group, mask: u8, mass: f64, com: [f64; 3], quad: &[f64; 6], f: &Field) {
    let mut out = [[0.0; LANES]; 4];
    for l in 0..LANES {
        let (a, phi) = multipole_field(mass, com, quad, g.at(l), f.eps2, f.quadrupole);
        (out[0][l], out[1][l], out[2][l], out[3][l]) = (a[0], a[1], a[2], phi);
    }
    g.add(mask, &out);
}

impl Group {
    /// The group of `pos[first..]`, at most eight bodies. Lanes past the
    /// end repeat lane 0's position; they are in no mask, so whatever
    /// they compute is discarded and counted nowhere.
    pub(crate) fn load(pos: &[[f64; 3]], first: usize) -> Group {
        let n = (pos.len() - first).min(LANES);
        let mut g = Group {
            first,
            live: (0xff_u16 >> (LANES - n)) as u8,
            pos: [[0.0; LANES]; 3],
            sums: [[0.0; LANES]; 4],
            pp: [0; LANES],
            pc: [0; LANES],
        };
        for l in 0..LANES {
            let p = pos[first + if l < n { l } else { 0 }];
            (g.pos[0][l], g.pos[1][l], g.pos[2][l]) = (p[0], p[1], p[2]);
        }
        g
    }

    /// Per body of the group: its sorted index, acceleration, potential
    /// and interaction counts.
    pub(crate) fn results(
        &self,
    ) -> impl Iterator<Item = (usize, [f64; 3], f64, InteractionCounts)> + '_ {
        lanes(self.live).map(|l| {
            let counts = InteractionCounts {
                pp: self.pp[l].into(),
                pc: self.pc[l].into(),
            };
            let s = &self.sums;
            (self.first + l, [s[0][l], s[1][l], s[2][l]], s[3][l], counts)
        })
    }

    /// Position of lane `l`.
    #[inline]
    fn at(&self, l: usize) -> [f64; 3] {
        [self.pos[0][l], self.pos[1][l], self.pos[2][l]]
    }

    /// The lanes of `mask` farther than `crit2` (squared) from `com`.
    pub(crate) fn beyond(&self, com: [f64; 3], crit2: f64, mask: u8) -> u8 {
        let mut far = 0;
        for l in 0..LANES {
            let d = [
                com[0] - self.pos[0][l],
                com[1] - self.pos[1][l],
                com[2] - self.pos[2][l],
            ];
            let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            far |= u8::from(crit2 < dist2) << l;
        }
        far & mask
    }

    /// Add `out` to the lanes of `mask`. A lane outside it adds `+0.0` in
    /// place of what `out` holds there — selected bitwise, never
    /// multiplied: that may be `inf` or `NaN` — and keeps its bits, since
    /// `x + 0.0` is `x` for every `x` but `−0.0`, which a sum begun at
    /// `+0.0` never is (rounding to nearest, only `−0.0 + −0.0` gives it).
    #[inline]
    fn add(&mut self, mask: u8, out: &[[f64; LANES]; 4]) {
        for l in 0..LANES {
            let on = 0u64.wrapping_sub(u64::from(mask >> l & 1));
            for k in 0..4 {
                self.sums[k][l] += f64::from_bits(out[k][l].to_bits() & on);
            }
        }
    }

    /// Add one kernel result to lane `l`.
    #[inline]
    fn add_lane(&mut self, l: usize, (a, phi): ([f64; 3], f64)) {
        for k in 0..3 {
            self.sums[k][l] += a[k];
        }
        self.sums[3][l] += phi;
    }

    /// One p–c interaction for each lane of `mask`.
    pub(crate) fn cell(&mut self, mask: u8, mass: f64, com: [f64; 3], quad: &[f64; 6], f: &Field) {
        if IS_DENSE[mask as usize] {
            cell_lanes(self, mask, mass, com, quad, f);
        } else {
            for l in lanes(mask) {
                let field = multipole_field(mass, com, quad, self.at(l), f.eps2, f.quadrupole);
                self.add_lane(l, field);
            }
        }
        count(&mut self.pc, mask);
    }

    /// One p–p interaction with each of `sources` — `(sorted index, mass,
    /// position)` — for each lane of `mask`, except that a lane skips the
    /// source that is its own body. Lane by lane, the sources in order:
    /// the packed form of this kernel measured no faster.
    pub(crate) fn points(
        &mut self,
        mask: u8,
        sources: impl Iterator<Item = (usize, f64, [f64; 3])> + Clone,
        f: &Field,
    ) {
        for l in lanes(mask) {
            let (me, pos) = (self.first + l, self.at(l));
            for (_, m, src) in sources.clone().filter(|s| s.0 != me) {
                self.add_lane(l, point_field(m, src, pos, f.eps2));
                self.pp[l] += 1;
            }
        }
    }
}

/// Walk `g` over `cells` from the root. `open(g, cell, mask)` sums what
/// is resident at a cell the lanes of `mask` did not accept. `stack` is
/// the caller's, reused from group to group.
pub(crate) fn walk_group(
    cells: &[Cell],
    stack: &mut Vec<(u32, u8)>,
    g: &mut Group,
    f: &Field,
    mut open: impl FnMut(&mut Group, &Cell, u8),
) {
    stack.clear();
    if !cells.is_empty() {
        stack.push((0, g.live));
    }
    while let Some((at, mask)) = stack.pop() {
        let cell = &cells[at as usize];
        let far = g.beyond(cell.com, cell.crit2, mask);
        if far != 0 {
            g.cell(far, cell.mass, cell.com, &cell.quad, f);
        }
        let near = mask & !far;
        if near != 0 {
            open(g, cell, near);
            // Ascending daughter order, so the highest daughter pops first.
            let daughters = cell.first_child..cell.first_child + cell.n_children;
            stack.extend(daughters.map(|d| (d, near)));
        }
    }
}

/// Walk `g`, a group of `bodies`, over the cells of the tree of `bodies`:
/// an opened leaf is summed directly, each lane skipping its own body.
pub(crate) fn walk_local(
    cells: &[Cell],
    bodies: &Bodies,
    stack: &mut Vec<(u32, u8)>,
    g: &mut Group,
    f: &Field,
) {
    walk_group(cells, stack, g, f, |g, cell, mask| {
        let leaf = cell.resident.0 as usize..cell.resident.1 as usize;
        g.points(mask, leaf.map(|j| (j, bodies.mass[j], bodies.pos[j])), f);
    });
}

/// Serial force evaluation for every body; fills `bodies.acc`/`pot`.
/// `bodies` must be the Morton-sorted array `tree` was built over.
pub fn tree_forces(bodies: &mut Bodies, tree: &HashedOctTree, mac: &Mac, eps2: f64) -> WalkStats {
    let cells = flatten(tree, mac);
    let f = Field::new(mac, eps2);
    let mut stats = WalkStats::default();
    let mut stack = Vec::new();
    for first in (0..bodies.len()).step_by(LANES) {
        let mut g = Group::load(&bodies.pos, first);
        walk_local(&cells, bodies, &mut stack, &mut g, &f);
        for (i, a, phi, counts) in g.results() {
            bodies.acc[i] = a;
            bodies.pot[i] = phi;
            stats.interactions.add(counts);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_tree;
    use crate::direct::direct_forces;
    use crate::ic::plummer;
    use crate::morton::BoundingBox;
    use crate::reference;

    /// Median relative acceleration error of tree forces vs direct.
    fn median_error(n: usize, mac: &Mac) -> f64 {
        let eps2 = 1e-6;
        let mut tree_b = plummer(n, 123);
        let mut direct_b = tree_b.clone();
        let bb = BoundingBox::containing(&tree_b.pos);
        let tree = build_tree(&mut tree_b, bb, 8);
        tree_forces(&mut tree_b, &tree, mac, eps2);
        direct_forces(&mut direct_b, eps2);
        // Match bodies by position (build_tree sorted tree_b).
        use std::collections::HashMap;
        let mut by_pos: HashMap<[u64; 3], usize> = HashMap::new();
        for (i, p) in direct_b.pos.iter().enumerate() {
            by_pos.insert([p[0].to_bits(), p[1].to_bits(), p[2].to_bits()], i);
        }
        let mut errs: Vec<f64> = tree_b
            .pos
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let j = by_pos[&[p[0].to_bits(), p[1].to_bits(), p[2].to_bits()]];
                let ta = tree_b.acc[i];
                let da = direct_b.acc[j];
                let dn = (da[0] * da[0] + da[1] * da[1] + da[2] * da[2]).sqrt();
                let en =
                    ((ta[0] - da[0]).powi(2) + (ta[1] - da[1]).powi(2) + (ta[2] - da[2]).powi(2))
                        .sqrt();
                en / dn.max(1e-30)
            })
            .collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs[errs.len() / 2]
    }

    #[test]
    fn standard_mac_hits_published_accuracy_band() {
        // θ = 0.8 with quadrupoles: median relative force error in the
        // few-times-10⁻³ band (Barnes–Hut-era published regime).
        let err = median_error(800, &Mac::standard());
        assert!(err < 4e-3, "median rel error {err}");
        let tight = median_error(800, &Mac::accurate());
        assert!(tight < 5e-4, "θ=0.3 median rel error {tight}");
    }

    #[test]
    fn tighter_mac_is_more_accurate() {
        let loose = median_error(
            400,
            &Mac {
                theta: 1.0,
                quadrupole: true,
            },
        );
        let tight = median_error(
            400,
            &Mac {
                theta: 0.4,
                quadrupole: true,
            },
        );
        assert!(tight < loose, "tight {tight} !< loose {loose}");
    }

    #[test]
    fn quadrupole_terms_help() {
        let mono = median_error(
            400,
            &Mac {
                theta: 0.8,
                quadrupole: false,
            },
        );
        let quad = median_error(
            400,
            &Mac {
                theta: 0.8,
                quadrupole: true,
            },
        );
        assert!(quad < mono, "quad {quad} !< mono {mono}");
    }

    /// Every body's `(acc, pot, counts)` from the group walk, beside the
    /// body-by-body oracle's.
    type PerBody = Vec<([f64; 3], f64, InteractionCounts)>;
    fn both_walks(sorted: &Bodies, tree: &HashedOctTree, mac: &Mac, eps2: f64) -> [PerBody; 2] {
        let cells = flatten(tree, mac);
        let f = Field::new(mac, eps2);
        let (mut grouped, mut stack) = (Vec::new(), Vec::new());
        for first in (0..sorted.len()).step_by(LANES) {
            let mut g = Group::load(&sorted.pos, first);
            walk_local(&cells, sorted, &mut stack, &mut g, &f);
            grouped.extend(g.results().map(|(_, a, phi, counts)| (a, phi, counts)));
        }
        let one_by_one = (0..sorted.len())
            .map(|i| reference::walk_one(tree, sorted, sorted.pos[i], i, mac, eps2))
            .collect();
        [grouped, one_by_one]
    }

    fn assert_same_bits(grouped: &PerBody, one_by_one: &PerBody, what: &str) {
        assert_eq!(grouped.len(), one_by_one.len(), "{what}: bodies");
        for (i, (g, r)) in grouped.iter().zip(one_by_one).enumerate() {
            assert_eq!(
                g.0.map(f64::to_bits),
                r.0.map(f64::to_bits),
                "{what}: acc of body {i}"
            );
            assert_eq!(g.1.to_bits(), r.1.to_bits(), "{what}: pot of body {i}");
            assert_eq!(g.2, r.2, "{what}: counts of body {i}");
        }
    }

    #[test]
    fn group_walk_equals_the_body_by_body_walk_bit_for_bit() {
        // A lone body, a short group, a full one, one lane into a second
        // group, and a last group of one after many full ones.
        for n in [1, 7, 8, 9, 8 * 40 + 1] {
            for (name, ic) in crate::reference::ICS {
                for theta in [0.3, 0.8] {
                    for quadrupole in [false, true] {
                        let mac = Mac { theta, quadrupole };
                        let mut b = ic(n, 7 + n as u64);
                        let bb = BoundingBox::containing(&b.pos);
                        let tree = build_tree(&mut b, bb, 8);
                        let [grouped, one_by_one] = both_walks(&b, &tree, &mac, 1e-6);
                        let what = format!("{name} n={n} θ={theta} quad={quadrupole}");
                        assert_same_bits(&grouped, &one_by_one, &what);
                        // The public driver is the same loop.
                        let stats = tree_forces(&mut b, &tree, &mac, 1e-6);
                        let acc: Vec<[f64; 3]> = grouped.iter().map(|g| g.0).collect();
                        assert_eq!(b.acc, acc, "{what}");
                        let total =
                            grouped
                                .iter()
                                .fold(InteractionCounts::default(), |mut t, g| {
                                    t.add(g.2);
                                    t
                                });
                        assert_eq!(stats.interactions, total, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_deep_leaf_of_coincident_bodies_walks_like_any_other() {
        // Twenty bodies on one point cannot be split: the builder stops at
        // MAX_DEPTH with a leaf of twenty, more than a group has lanes, so
        // three groups each sum that leaf and each lane skips only itself.
        let mut b = plummer(150, 3);
        let at = b.pos[17];
        for _ in 0..20 {
            b.push(at, [0.0; 3], 1e-3);
        }
        let bb = BoundingBox::containing(&b.pos);
        let tree = build_tree(&mut b, bb, 8);
        let fat = tree.nodes.iter().filter(|n| n.count > 8).count();
        assert!(tree.depth() == crate::morton::MAX_DEPTH && fat > 0);
        let [grouped, one_by_one] = both_walks(&b, &tree, &Mac::standard(), 1e-6);
        assert_same_bits(&grouped, &one_by_one, "coincident");
    }

    #[test]
    fn unsoftened_walks_agree_too() {
        // With `eps2 = 0` nothing separates a body from a source but the
        // self-skip, and the padded lanes of the short last group sit on
        // body `first`.
        let mut b = plummer(8 * 9 + 3, 11);
        let bb = BoundingBox::containing(&b.pos);
        let tree = build_tree(&mut b, bb, 8);
        let [grouped, one_by_one] = both_walks(&b, &tree, &Mac::standard(), 0.0);
        assert!(grouped
            .iter()
            .all(|g| g.0.iter().all(|a| a.is_finite()) && g.1.is_finite()));
        assert_same_bits(&grouped, &one_by_one, "eps2 = 0");
    }

    #[test]
    fn a_masked_off_lane_on_the_cells_center_is_discarded_not_multiplied_away() {
        // Lane 7 sits exactly on the cell's center of mass and there is no
        // softening: its kernel value is `−m · 0 · inf`, a NaN, which a
        // mask applied by multiplication would add to the lane.
        let pos: Vec<[f64; 3]> = (0..8).map(|l| [l as f64, 0.5, -0.25]).collect();
        let (mass, com, quad) = (2.0, pos[7], [0.3, -0.1, -0.2, 0.05, 0.0, 0.1]);
        let f = Field {
            eps2: 0.0,
            quadrupole: true,
        };
        for mask in [0b0111_1111u8, 0b0000_0101] {
            let mut g = Group::load(&pos, 0);
            g.cell(mask, mass, com, &quad, &f);
            g.cell(mask, mass, com, &quad, &f);
            for (l, a, phi, counts) in g.results() {
                let on = mask >> l & 1 != 0;
                let (a1, p1) = multipole_field(mass, com, &quad, pos[l], 0.0, true);
                assert!((l == 7) != a1[0].is_finite(), "only lane 7 is singular");
                let twice = if on {
                    ([a1[0] + a1[0], a1[1] + a1[1], a1[2] + a1[2]], p1 + p1)
                } else {
                    ([0.0; 3], 0.0)
                };
                assert_eq!((a, phi), twice, "mask {mask:#010b} lane {l}");
                assert_eq!(counts.pc, 2 * u64::from(on));
            }
        }
    }

    #[test]
    fn tiny_tree_single_leaf_is_pure_direct() {
        let mut b = plummer(6, 3);
        let bb = BoundingBox::containing(&b.pos);
        let tree = build_tree(&mut b, bb, 8);
        let mut exact = b.clone();
        direct_forces(&mut exact, 1e-6);
        let stats = tree_forces(&mut b, &tree, &Mac::standard(), 1e-6);
        assert_eq!(stats.interactions.pc, 0, "one leaf: everything is direct");
        assert_eq!(stats.interactions.pp, 30);
        // The same kernel over the same sources in the same order.
        assert_eq!(b.acc, exact.acc);
        assert_eq!(b.pot, exact.pot);
    }

    #[test]
    fn tree_does_far_fewer_interactions_than_direct() {
        let n = 2000;
        let mut b = plummer(n, 5);
        let bb = BoundingBox::containing(&b.pos);
        let tree = build_tree(&mut b, bb, 8);
        let stats = tree_forces(&mut b, &tree, &Mac::standard(), 1e-6);
        let tree_ints = stats.interactions.pp + stats.interactions.pc;
        let direct_ints = (n * (n - 1)) as u64;
        assert!(
            tree_ints * 3 < direct_ints,
            "tree {tree_ints} vs direct {direct_ints}"
        );
    }

    #[test]
    fn interaction_counts_grow_like_n_log_n() {
        let per_body = |n: usize| {
            let mut b = plummer(n, 11);
            let bb = BoundingBox::containing(&b.pos);
            let tree = build_tree(&mut b, bb, 8);
            let s = tree_forces(&mut b, &tree, &Mac::standard(), 1e-6);
            (s.interactions.pp + s.interactions.pc) as f64 / n as f64
        };
        let small = per_body(500);
        let large = per_body(4000);
        // 8× more bodies: per-body work grows, but far slower than 8×.
        assert!(large > small, "per-body work should grow with N");
        assert!(large < 3.0 * small, "growth too fast: {small} → {large}");
    }
}
