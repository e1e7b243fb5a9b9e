//! The hashed oct-tree: cells named by Morton key, stored in key order.
//!
//! Warren & Salmon's central data structure ("A Parallel Hashed Oct-Tree
//! N-Body Algorithm", SC'93) names every cell by its key instead of by a
//! pointer, which makes the tree trivially mergeable, shippable across
//! ranks, and cheap to prune — the properties the parallel treecode
//! exploits. Their table hashes the key; here the cells sit in one array
//! sorted by key instead. A key carries its level in its sentinel bit, so
//! key order is level by level and Morton within a level: the root is
//! cell 0, the daughters of a cell are consecutive, in daughter order,
//! right after those of the cell before it, and an index and a mask link
//! a cell to them. No cell is ever looked up by key.

use crate::morton::{BoundingBox, Key};

/// Payload of a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// A leaf holding bodies `range.0..range.1` of the Morton-sorted
    /// body array.
    Leaf {
        /// Start body index (inclusive).
        start: u32,
        /// End body index (exclusive).
        end: u32,
    },
    /// An internal cell; bit `d` of the mask is set when daughter `d`
    /// exists.
    Internal {
        /// Daughter-presence bitmask.
        child_mask: u8,
        /// Index of the first daughter; the others follow it.
        first_child: u32,
    },
}

/// One cell of the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// This cell's key.
    pub key: Key,
    /// Leaf or internal.
    pub kind: NodeKind,
    /// Bodies under this cell.
    pub count: u32,
    /// Total mass.
    pub mass: f64,
    /// Center of mass.
    pub com: [f64; 3],
    /// Traceless quadrupole about the center of mass, packed
    /// `(xx, yy, zz, xy, xz, yz)`, `Q_ij = Σ m (3 xᵢxⱼ − r²δᵢⱼ)`.
    pub quad: [f64; 6],
    /// Distance from the cell's geometric center to its center of mass —
    /// the Barnes–Hut "offset" safety term in the opening criterion.
    pub delta: f64,
}

/// The tree: its cells in key order, the bounding cube it was built in,
/// and the Morton sort that ordered its bodies.
#[derive(Debug, Clone)]
pub struct HashedOctTree {
    /// The cells, sorted by key.
    pub nodes: Vec<Node>,
    /// The global bounding cube.
    pub bb: BoundingBox,
    /// Bodies per leaf ceiling used at build time.
    pub leaf_capacity: usize,
    /// `order[i]` is the index, before the sort, of sorted body `i`.
    pub(crate) order: Vec<usize>,
}

impl HashedOctTree {
    /// The root cell (panics on an empty tree).
    pub fn root(&self) -> &Node {
        self.nodes.first().expect("tree has a root")
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no cells exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The daughters of a cell, in daughter order (none for a leaf).
    pub fn children(&self, node: &Node) -> &[Node] {
        match node.kind {
            NodeKind::Internal {
                child_mask,
                first_child,
            } => &self.nodes[first_child as usize..][..child_mask.count_ones() as usize],
            NodeKind::Leaf { .. } => &[],
        }
    }

    /// Depth of the deepest cell (root = 0): the last one's, in key order.
    pub fn depth(&self) -> u32 {
        self.nodes.last().map_or(0, |n| n.key.level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Bodies;
    use crate::build::build_tree;
    use crate::morton::MAX_DEPTH;
    use crate::reference::ICS;

    /// Build over `bodies` and check the form every reader of `nodes`
    /// relies on: keys strictly ascending; the daughters of an internal
    /// cell are `key.child(d)` for the set bits `d` of its mask, ascending,
    /// from its `first_child`, right after those of the cell before it;
    /// the leaves partition the sorted bodies; `order` is the sort.
    fn build_and_check(mut bodies: Bodies, leaf_capacity: usize, what: &str) -> HashedOctTree {
        let unsorted = bodies.clone();
        let bb = BoundingBox::containing(&bodies.pos);
        let tree = build_tree(&mut bodies, bb, leaf_capacity);
        let ascending = tree.nodes.windows(2).all(|w| w[0].key < w[1].key);
        assert!(ascending, "{what}: keys not strictly ascending");
        assert_eq!(tree.root().key, Key::ROOT, "{what}");
        let (mut next, mut leaves) = (1, Vec::new());
        for node in &tree.nodes {
            match node.kind {
                NodeKind::Internal {
                    child_mask,
                    first_child,
                } => {
                    assert_eq!(first_child as usize, next, "{what}: {:?}", node.key);
                    let daughters: Vec<Key> = (0..8)
                        .filter(|d| child_mask >> d & 1 != 0)
                        .map(|d| node.key.child(d))
                        .collect();
                    let linked: Vec<Key> = tree.children(node).iter().map(|c| c.key).collect();
                    assert_eq!(linked, daughters, "{what}: {:?}", node.key);
                    next += daughters.len();
                }
                NodeKind::Leaf { start, end } => leaves.push((start, end)),
            }
        }
        assert_eq!(next, tree.len(), "{what}: a cell no parent links");
        leaves.sort_unstable();
        let mut expect = 0;
        for (start, end) in leaves {
            assert!(start == expect && end > start, "{what}: {start}..{end}");
            expect = end;
        }
        assert_eq!(expect as usize, bodies.len(), "{what}: bodies in no leaf");
        let mut seen = vec![false; bodies.len()];
        for (i, &was) in tree.order.iter().enumerate() {
            assert!(!std::mem::replace(&mut seen[was], true), "{what}: order");
            assert_eq!(bodies.pos[i], unsorted.pos[was], "{what}: body {i}");
        }
        tree
    }

    #[test]
    fn cells_sit_in_key_order_linked_to_their_daughters_and_partition_the_bodies() {
        for (name, ic) in ICS {
            for n in [1, 9, 1000] {
                for leaf_capacity in [1, 8] {
                    let what = format!("{name} n={n} leaf={leaf_capacity}");
                    build_and_check(ic(n, 5 + n as u64), leaf_capacity, &what);
                }
            }
        }
        // Coincident bodies cannot be split: the chain of single
        // daughters stops at MAX_DEPTH in one fat leaf.
        let mut bodies = crate::ic::plummer(40, 3);
        let at = bodies.pos[17];
        for _ in 0..5 {
            bodies.push(at, [0.0; 3], 1e-3);
        }
        let tree = build_and_check(bodies, 1, "coincident");
        assert_eq!(tree.depth(), MAX_DEPTH);
        let fat = |n: &Node| n.count > 1 && n.key.level() == MAX_DEPTH;
        assert!(tree.nodes.iter().any(fat), "coincident: no fat leaf");
    }
}
