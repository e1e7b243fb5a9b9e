//! The hashed oct-tree: a hash table from Morton keys to cells.
//!
//! Warren & Salmon's central data structure ("A Parallel Hashed Oct-Tree
//! N-Body Algorithm", SC'93): instead of pointers, cells are looked up by
//! key, which makes the tree trivially mergeable, shippable across ranks,
//! and cheap to prune — the properties the parallel treecode exploits.
//!
//! What still looks cells up by key: the builder's inserts and the domain
//! frontier of the distributed step (a few thousand probes per rank and
//! step). The gravity walk and the LET prune do not — they descend the
//! table's cells sorted by key and linked by index
//! (`traverse::flatten`), one pass per step.
//!
//! The table hashes a key with one multiply and a fold ([`KeyHasher`]).
//! Warren & Salmon simply mask the key's low bits; SipHash, the standard
//! default, defends against attacker-chosen keys, and Morton keys come
//! from body positions. With no per-process random state, iteration
//! order is the same in every run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::morton::{BoundingBox, Key};

/// Hashes one Morton key: a Fibonacci multiply spreads every key bit
/// into the high bits (the table's control byte), and folding the high
/// half onto the low brings them to the bucket index too — keys of one
/// level differ mostly in their low bits, siblings only there.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("Morton keys hash as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash table keyed by Morton key.
pub type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

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

/// The tree: hash table plus the bounding cube it was built in.
#[derive(Debug, Clone)]
pub struct HashedOctTree {
    /// Key → cell.
    pub nodes: KeyMap<Node>,
    /// The global bounding cube.
    pub bb: BoundingBox,
    /// Bodies per leaf ceiling used at build time.
    pub leaf_capacity: usize,
}

impl HashedOctTree {
    /// Look up a cell.
    pub fn get(&self, key: Key) -> Option<&Node> {
        self.nodes.get(&key.0)
    }

    /// The root cell (panics on an empty tree).
    pub fn root(&self) -> &Node {
        self.get(Key::ROOT).expect("tree has a root")
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no cells exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate existing daughters of an internal node.
    pub fn children<'a>(&'a self, node: &Node) -> impl Iterator<Item = &'a Node> + 'a {
        let (mask, key) = match node.kind {
            NodeKind::Internal { child_mask } => (child_mask, node.key),
            NodeKind::Leaf { .. } => (0, node.key),
        };
        (0..8u8).filter_map(move |d| {
            if mask & (1 << d) != 0 {
                Some(self.get(key.child(d)).expect("masked child exists"))
            } else {
                None
            }
        })
    }

    /// Depth of the deepest cell (root = 0).
    pub fn depth(&self) -> u32 {
        self.nodes
            .values()
            .map(|n| n.key.level())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_tree;
    use crate::ic::plummer;
    use std::collections::BTreeMap;
    use std::hash::BuildHasher;

    #[test]
    fn key_hash_is_not_degenerate_on_morton_keys() {
        // What the table reads of a hash: the top 7 bits (its control
        // byte) and the low bits (its bucket index; 16 of them cover
        // this tree). Random 23-bit tags over ~8 000 keys would collide
        // in about four pairs.
        let mut bodies = plummer(20_000, 2002);
        let bb = BoundingBox::containing(&bodies.pos);
        let tree = build_tree(&mut bodies, bb, 8);
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let mut tags: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        for &key in tree.nodes.keys() {
            let h = hasher.hash_one(key);
            *tags.entry((h >> 57, h & 0xffff)).or_default() += 1;
        }
        let sharing: u32 = tags.values().filter(|&&n| n > 1).sum();
        assert!(tree.len() > 5_000, "{} cells", tree.len());
        assert!(
            sharing <= 24,
            "{sharing} of {} keys share a tag",
            tree.len()
        );
    }
}
