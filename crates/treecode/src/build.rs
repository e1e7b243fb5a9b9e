//! Tree construction from Morton-sorted bodies.
//!
//! Because the body array is sorted by key, every cell's population is a
//! contiguous range. The builder writes the cells in key order, level by
//! level: each cell is pushed as a leaf over its range, and one over
//! capacity splits, its daughters' ranges found by binary search and
//! pushed after those of the cell before it. The moments then fill in
//! one reverse pass, which meets every daughter before its cell.
//! O(N log N), no pointer chasing, deterministic.

use crate::body::Bodies;
use crate::hot::{HashedOctTree, Node, NodeKind};
use crate::moments::{combine_moments, leaf_moments};
use crate::morton::{BoundingBox, Key, MAX_DEPTH};

/// Default bodies-per-leaf ceiling (Warren–Salmon codes use O(10)).
pub const DEFAULT_LEAF_CAPACITY: usize = 8;

/// Build a hashed oct-tree over `bodies`, **sorting them in place** by
/// Morton key within `bb`. Returns the tree; leaf ranges index the
/// now-sorted body array.
///
/// ```
/// use mb_treecode::{build_tree, plummer, tree_forces, BoundingBox, Mac};
/// let mut bodies = plummer(500, 42);
/// let bb = BoundingBox::containing(&bodies.pos);
/// let tree = build_tree(&mut bodies, bb, 8);
/// assert_eq!(tree.root().count, 500);
/// let stats = tree_forces(&mut bodies, &tree, &Mac::standard(), 1e-6);
/// assert!(stats.interactions.pp + stats.interactions.pc > 0);
/// ```
pub fn build_tree(bodies: &mut Bodies, bb: BoundingBox, leaf_capacity: usize) -> HashedOctTree {
    assert!(leaf_capacity >= 1);
    let (keys, order) = bodies.sort_by_key(&bb);
    let mut nodes = Vec::new();
    if !bodies.is_empty() {
        nodes.push(unsplit(Key::ROOT, 0, bodies.len()));
    }
    // Cells split in push order, which is key order: each one's
    // daughters land right after those of the cell before it.
    let mut at = 0;
    while let Some(&Node { key, kind, .. }) = nodes.get(at) {
        let NodeKind::Leaf { start, end } = kind else {
            unreachable!("a cell splits only when its turn comes");
        };
        let (lo, hi, level) = (start as usize, end as usize, key.level());
        if hi - lo > leaf_capacity && level < MAX_DEPTH {
            let first_child = nodes.len() as u32;
            let mut child_mask = 0u8;
            let mut start = lo;
            for d in 0..8u8 {
                let daughter = key.child(d);
                // First key beyond this daughter's subtree.
                let end = start
                    + keys[start..hi].partition_point(|k| k.ancestor_at(level + 1) <= daughter);
                if end > start {
                    child_mask |= 1 << d;
                    nodes.push(unsplit(daughter, start, end));
                    start = end;
                }
            }
            debug_assert_eq!(start, hi, "every body belongs to exactly one daughter");
            nodes[at].kind = NodeKind::Internal {
                child_mask,
                first_child,
            };
        }
        at += 1;
    }
    let mut tree = HashedOctTree {
        nodes,
        bb,
        leaf_capacity,
        order,
    };
    // Moments bottom-up: every daughter sits after its cell.
    let mut daughters = Vec::with_capacity(8);
    for at in (0..tree.nodes.len()).rev() {
        let node = &tree.nodes[at];
        let (mass, com, quad) = match node.kind {
            NodeKind::Leaf { start, end } => leaf_moments(bodies, start as usize, end as usize),
            NodeKind::Internal { .. } => {
                daughters.clear();
                let moments = tree.children(node).iter().map(|d| (d.mass, d.com, d.quad));
                daughters.extend(moments);
                combine_moments(&daughters)
            }
        };
        let node = &mut tree.nodes[at];
        (node.mass, node.com, node.quad) = (mass, com, quad);
        node.delta = com_offset(&bb, node.key, com);
    }
    tree
}

/// The cell `key` over sorted bodies `lo..hi`, a leaf until it splits,
/// its moments not yet filled in.
fn unsplit(key: Key, lo: usize, hi: usize) -> Node {
    Node {
        key,
        kind: NodeKind::Leaf {
            start: lo as u32,
            end: hi as u32,
        },
        count: (hi - lo) as u32,
        mass: 0.0,
        com: [0.0; 3],
        quad: [0.0; 6],
        delta: 0.0,
    }
}

/// Distance from a cell's geometric center to a center of mass.
pub(crate) fn com_offset(bb: &BoundingBox, cell: Key, com: [f64; 3]) -> f64 {
    let c = bb.cell_center(cell);
    ((com[0] - c[0]).powi(2) + (com[1] - c[1]).powi(2) + (com[2] - c[2]).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hot::NodeKind;
    use crate::ic::uniform_cube;

    fn build_uniform(n: usize, leaf: usize) -> (Bodies, HashedOctTree) {
        let mut b = uniform_cube(n, 1.0, 42);
        let bb = BoundingBox::containing(&b.pos);
        let t = build_tree(&mut b, bb, leaf);
        (b, t)
    }

    #[test]
    fn root_aggregates_everything() {
        let (b, t) = build_uniform(500, 8);
        let root = t.root();
        assert_eq!(root.count, 500);
        assert!((root.mass - b.total_mass()).abs() < 1e-10);
        let com = b.center_of_mass();
        for d in 0..3 {
            assert!((root.com[d] - com[d]).abs() < 1e-10);
        }
    }

    #[test]
    fn counts_are_consistent_down_the_tree() {
        let (_, t) = build_uniform(300, 4);
        for node in &t.nodes {
            match node.kind {
                NodeKind::Leaf { start, end } => {
                    assert_eq!(node.count, end - start);
                    assert!(node.count as usize <= t.leaf_capacity.max(1));
                }
                NodeKind::Internal { .. } => {
                    let sum: u32 = t.children(node).iter().map(|c| c.count).sum();
                    assert_eq!(sum, node.count, "node {:?}", node.key);
                }
            }
        }
    }

    #[test]
    fn leaf_ranges_partition_the_body_array() {
        let (b, t) = build_uniform(257, 8);
        let mut ranges: Vec<(u32, u32)> = t
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Leaf { start, end } => Some((start, end)),
                _ => None,
            })
            .collect();
        ranges.sort();
        let mut expect = 0;
        for (s, e) in ranges {
            assert_eq!(s, expect, "gap or overlap at body {s}");
            assert!(e > s);
            expect = e;
        }
        assert_eq!(expect as usize, b.len());
    }

    #[test]
    fn bodies_live_inside_their_leaf_cells() {
        let (b, t) = build_uniform(200, 8);
        for node in &t.nodes {
            if let NodeKind::Leaf { start, end } = node.kind {
                let level = node.key.level();
                let c = t.bb.cell_center(node.key);
                let half = t.bb.cell_size(level) / 2.0 * (1.0 + 1e-9);
                for i in start..end {
                    for d in 0..3 {
                        assert!(
                            (b.pos[i as usize][d] - c[d]).abs() <= half,
                            "body {i} outside its leaf"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_body_tree_is_one_leaf() {
        let mut b = Bodies::with_capacity(1);
        b.push([0.5, 0.5, 0.5], [0.0; 3], 2.0);
        let bb = BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        };
        let t = build_tree(&mut b, bb, 8);
        assert_eq!(t.len(), 1);
        let root = t.root();
        assert!(matches!(root.kind, NodeKind::Leaf { start: 0, end: 1 }));
        assert_eq!(root.mass, 2.0);
    }

    #[test]
    fn coincident_bodies_split_until_max_depth() {
        let mut b = Bodies::with_capacity(3);
        for _ in 0..3 {
            b.push([0.25, 0.25, 0.25], [0.0; 3], 1.0);
        }
        let bb = BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        };
        // leaf capacity 1 cannot separate coincident bodies: the builder
        // must stop at MAX_DEPTH with a fat leaf instead of recursing
        // forever.
        let t = build_tree(&mut b, bb, 1);
        assert!(t.depth() <= crate::morton::MAX_DEPTH);
        assert_eq!(t.root().count, 3);
    }

    #[test]
    fn deeper_leaves_with_smaller_capacity() {
        let (_, t8) = build_uniform(400, 8);
        let (_, t1) = build_uniform(400, 1);
        assert!(t1.len() > t8.len());
        assert!(t1.depth() >= t8.depth());
    }
}
