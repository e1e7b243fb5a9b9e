//! Morton (Z-order) keys — the naming scheme of the hashed oct-tree.
//!
//! Following Warren & Salmon, every body and every cell is named by a key:
//! positions are quantized to 21 bits per dimension inside the global
//! bounding cube, the bits are interleaved (x lowest), and a sentinel
//! 1-bit is prepended so keys self-describe their depth. The root is key
//! `1`; a cell's eight daughters are `key·8 + 0..8`; the parent is
//! `key >> 3`. Keys make tree topology pure integer arithmetic, and their
//! numeric order — level by level, Morton within a level — is the order
//! the tree stores its cells in.

/// Bits per dimension (21 × 3 = 63 payload bits + 1 sentinel = 64).
pub const BITS_PER_DIM: u32 = 21;

/// Maximum tree depth (= bits per dimension).
pub const MAX_DEPTH: u32 = BITS_PER_DIM;

/// A hashed-oct-tree key with sentinel bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

impl Key {
    /// The root cell.
    pub const ROOT: Key = Key(1);

    /// Depth of this key below the root (root = 0; body keys =
    /// [`MAX_DEPTH`]).
    pub fn level(self) -> u32 {
        debug_assert!(self.0 >= 1, "key must carry its sentinel bit");
        (63 - self.0.leading_zeros()) / 3
    }

    /// Parent cell key (the root is its own parent).
    pub fn parent(self) -> Key {
        if self == Key::ROOT {
            Key::ROOT
        } else {
            Key(self.0 >> 3)
        }
    }

    /// The `d`-th daughter (0–7).
    pub fn child(self, d: u8) -> Key {
        debug_assert!(d < 8);
        Key((self.0 << 3) | d as u64)
    }

    /// Which daughter of its parent this key is (0–7).
    pub fn daughter_index(self) -> u8 {
        (self.0 & 7) as u8
    }

    /// The ancestor of this key at `level` (≤ this key's level).
    pub fn ancestor_at(self, level: u32) -> Key {
        let my = self.level();
        debug_assert!(level <= my);
        Key(self.0 >> (3 * (my - level)))
    }

    /// True if `self` is an ancestor of (or equal to) `other`.
    pub fn contains(self, other: Key) -> bool {
        let la = self.level();
        let lb = other.level();
        la <= lb && other.ancestor_at(la) == self
    }
}

/// Spread the low 21 bits of `v` so there are two zero bits between each
/// (the classic dilation bit-twiddle).
fn dilate21(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`dilate21`].
fn undilate21(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// An axis-aligned bounding cube.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum corner.
    pub min: [f64; 3],
    /// Edge length (cube).
    pub size: f64,
}

impl BoundingBox {
    /// Smallest cube containing all positions, slightly padded so no
    /// coordinate quantizes exactly onto the upper face.
    pub fn containing(pos: &[[f64; 3]]) -> Self {
        assert!(!pos.is_empty(), "bounding box of nothing");
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in pos {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let mut size = 0.0f64;
        for d in 0..3 {
            size = size.max(hi[d] - lo[d]);
        }
        if size == 0.0 {
            size = 1.0; // all bodies coincide: any cube works
        }
        size *= 1.0 + 1e-12;
        BoundingBox { min: lo, size }
    }

    /// Quantize a position to the full-depth Morton key.
    pub fn key_of(&self, p: [f64; 3]) -> Key {
        let scale = (1u64 << BITS_PER_DIM) as f64 / self.size;
        let mut k = 1u64 << (3 * BITS_PER_DIM); // sentinel
        let max = (1u64 << BITS_PER_DIM) - 1;
        let mut coords = [0u64; 3];
        for d in 0..3 {
            let u = ((p[d] - self.min[d]) * scale).floor();
            coords[d] = (u.max(0.0) as u64).min(max);
        }
        k |= dilate21(coords[0]) | (dilate21(coords[1]) << 1) | (dilate21(coords[2]) << 2);
        Key(k)
    }

    /// Geometric center of the cell named by `key`.
    pub fn cell_center(&self, key: Key) -> [f64; 3] {
        let level = key.level();
        let cell = self.cell_size(level);
        let payload = key.0 & !(1u64 << (3 * key.level()));
        // Left-align the payload to full depth to recover coordinates.
        let shift = 3 * (MAX_DEPTH - level);
        let full = payload << shift;
        let x = undilate21(full);
        let y = undilate21(full >> 1);
        let z = undilate21(full >> 2);
        let unit = self.size / (1u64 << BITS_PER_DIM) as f64;
        [
            self.min[0] + x as f64 * unit + 0.5 * cell,
            self.min[1] + y as f64 * unit + 0.5 * cell,
            self.min[2] + z as f64 * unit + 0.5 * cell,
        ]
    }

    /// Edge length of a cell at `level`.
    pub fn cell_size(&self, level: u32) -> f64 {
        self.size / (1u64 << level) as f64
    }

    /// Squared distance from a point to this box (0 inside) — used by the
    /// domain-level MAC in the LET exchange.
    pub fn dist2_to_point(&self, p: [f64; 3]) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            let lo = self.min[d];
            let hi = self.min[d] + self.size;
            let c = if p[d] < lo {
                lo - p[d]
            } else if p[d] > hi {
                p[d] - hi
            } else {
                0.0
            };
            d2 += c * c;
        }
        d2
    }

    /// Squared distance between two boxes (0 when they touch/overlap).
    pub fn dist2_to_box(&self, other: &BoundingBox) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            let (alo, ahi) = (self.min[d], self.min[d] + self.size);
            let (blo, bhi) = (other.min[d], other.min[d] + other.size);
            let gap = if ahi < blo {
                blo - ahi
            } else if bhi < alo {
                alo - bhi
            } else {
                0.0
            };
            d2 += gap * gap;
        }
        d2
    }

    /// The smallest cube covering both boxes.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        let mut lo = [0.0; 3];
        let mut hi = [0.0f64; 3];
        for d in 0..3 {
            lo[d] = self.min[d].min(other.min[d]);
            hi[d] = (self.min[d] + self.size).max(other.min[d] + other.size);
        }
        let mut size = 0.0f64;
        for d in 0..3 {
            size = size.max(hi[d] - lo[d]);
        }
        BoundingBox { min: lo, size }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dilation_roundtrips() {
        for v in [0u64, 1, 2, 0x15555, 0x1f_ffff, 123_456] {
            assert_eq!(undilate21(dilate21(v)), v, "v = {v:#x}");
        }
    }

    #[test]
    fn root_and_levels() {
        assert_eq!(Key::ROOT.level(), 0);
        assert_eq!(Key::ROOT.child(5).level(), 1);
        assert_eq!(Key::ROOT.child(5).daughter_index(), 5);
        assert_eq!(Key::ROOT.child(5).parent(), Key::ROOT);
        assert_eq!(Key::ROOT.parent(), Key::ROOT);
    }

    #[test]
    fn body_keys_are_max_depth() {
        let bb = BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        };
        let k = bb.key_of([0.3, 0.7, 0.9]);
        assert_eq!(k.level(), MAX_DEPTH);
        assert!(Key::ROOT.contains(k));
    }

    #[test]
    fn ancestor_chain_is_consistent() {
        let bb = BoundingBox {
            min: [-1.0; 3],
            size: 2.0,
        };
        let k = bb.key_of([0.1, -0.5, 0.9]);
        let mut a = k;
        for level in (0..MAX_DEPTH).rev() {
            a = a.parent();
            assert_eq!(a.level(), level);
            assert!(a.contains(k));
            assert_eq!(k.ancestor_at(level), a);
        }
        assert_eq!(a, Key::ROOT);
    }

    #[test]
    fn keys_order_spatially_local_points_together() {
        let bb = BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        };
        // Two nearby points share a deep ancestor; two distant ones do not.
        let a = bb.key_of([0.100, 0.100, 0.100]);
        let b = bb.key_of([0.100001, 0.100001, 0.100001]);
        let c = bb.key_of([0.9, 0.9, 0.9]);
        let shared_ab = (0..=MAX_DEPTH)
            .rev()
            .find(|&l| a.ancestor_at(l) == b.ancestor_at(l))
            .unwrap();
        let shared_ac = (0..=MAX_DEPTH)
            .rev()
            .find(|&l| a.ancestor_at(l) == c.ancestor_at(l))
            .unwrap();
        assert!(shared_ab > shared_ac + 5, "{shared_ab} vs {shared_ac}");
    }

    #[test]
    fn cell_center_contains_its_bodies() {
        let bb = BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        };
        let p = [0.3, 0.7, 0.2];
        let k = bb.key_of(p);
        for level in [1, 3, 8, 15] {
            let cell = k.ancestor_at(level);
            let c = bb.cell_center(cell);
            let half = bb.cell_size(level) / 2.0;
            for d in 0..3 {
                assert!(
                    (p[d] - c[d]).abs() <= half * (1.0 + 1e-9),
                    "level {level} dim {d}: |{} - {}| > {half}",
                    p[d],
                    c[d]
                );
            }
        }
    }

    #[test]
    fn bounding_box_contains_all_and_pads() {
        let pts = vec![[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]];
        let bb = BoundingBox::containing(&pts);
        for p in &pts {
            for d in 0..3 {
                assert!(p[d] >= bb.min[d]);
                assert!(p[d] < bb.min[d] + bb.size);
            }
        }
        assert!(bb.size >= 3.0, "max extent is the z-range 0..3");
    }

    #[test]
    fn degenerate_cloud_still_gets_a_box() {
        let bb = BoundingBox::containing(&[[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]);
        assert!(bb.size > 0.0);
        let k1 = bb.key_of([2.0, 2.0, 2.0]);
        assert_eq!(k1.level(), MAX_DEPTH);
    }

    #[test]
    fn dist2_to_point_cases() {
        let bb = BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        };
        assert_eq!(bb.dist2_to_point([0.5, 0.5, 0.5]), 0.0); // inside
        assert_eq!(bb.dist2_to_point([2.0, 0.5, 0.5]), 1.0); // face
        let corner = bb.dist2_to_point([2.0, 2.0, 2.0]);
        assert!((corner - 3.0).abs() < 1e-12); // corner
    }

    #[test]
    fn union_covers_both() {
        let a = BoundingBox {
            min: [0.0; 3],
            size: 1.0,
        };
        let b = BoundingBox {
            min: [3.0, 0.0, 0.0],
            size: 0.5,
        };
        let u = a.union(&b);
        assert!(u.size >= 3.5);
        assert_eq!(u.dist2_to_point([3.4, 0.2, 0.2]), 0.0);
        assert_eq!(u.dist2_to_point([0.1, 0.9, 0.9]), 0.0);
    }
}
