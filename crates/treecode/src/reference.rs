//! The body-by-body walk of the local tree, as it stood before the group
//! walk of `traverse.rs` replaced it — kept verbatim, its two kernels
//! written out, as the oracle the group walk is held to bit for bit.
//! (The import-forest walk and the prune have theirs beside their private
//! types, in `parallel.rs`'s tests.)

use crate::body::Bodies;
use crate::flops::InteractionCounts;
use crate::hot::{HashedOctTree, Node, NodeKind};
use crate::ic::{cold_disk, plummer, uniform_cube};
use crate::mac::Mac;

/// A seeded initial condition of `n` bodies.
pub(crate) type Ic = fn(usize, u64) -> Bodies;

/// The three mass distributions the oracles run over: centrally
/// concentrated, homogeneous, flat.
pub(crate) const ICS: [(&str, Ic); 3] = [
    ("plummer", plummer),
    ("uniform_cube", |n, seed| uniform_cube(n, 1.0, seed)),
    ("cold_disk", cold_disk),
];

/// The p–c kernel as `moments.rs` had it.
pub(crate) fn multipole_field(
    node: &Node,
    pos: [f64; 3],
    eps2: f64,
    use_quadrupole: bool,
) -> ([f64; 3], f64) {
    let r = [
        pos[0] - node.com[0],
        pos[1] - node.com[1],
        pos[2] - node.com[2],
    ];
    let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + eps2;
    let rinv = 1.0 / r2.sqrt();
    let rinv2 = rinv * rinv;
    let rinv3 = rinv * rinv2;
    let mut acc = [
        -node.mass * r[0] * rinv3,
        -node.mass * r[1] * rinv3,
        -node.mass * r[2] * rinv3,
    ];
    let mut pot = -node.mass * rinv;
    if use_quadrupole {
        let q = &node.quad;
        // Qr⃗ with packed symmetric Q.
        let qr = [
            q[0] * r[0] + q[3] * r[1] + q[4] * r[2],
            q[3] * r[0] + q[1] * r[1] + q[5] * r[2],
            q[4] * r[0] + q[5] * r[1] + q[2] * r[2],
        ];
        let rqr = r[0] * qr[0] + r[1] * qr[1] + r[2] * qr[2];
        let rinv5 = rinv3 * rinv2;
        let rinv7 = rinv5 * rinv2;
        pot -= 0.5 * rqr * rinv5;
        for d in 0..3 {
            acc[d] += qr[d] * rinv5 - 2.5 * rqr * r[d] * rinv7;
        }
    }
    (acc, pot)
}

/// Walk the tree for the body at `pos` with index `self_idx` (used to
/// skip self-interaction in leaves). Returns acceleration, potential and
/// counts.
pub(crate) fn walk_one(
    tree: &HashedOctTree,
    bodies: &Bodies,
    pos: [f64; 3],
    self_idx: usize,
    mac: &Mac,
    eps2: f64,
) -> ([f64; 3], f64, InteractionCounts) {
    let mut acc = [0.0; 3];
    let mut pot = 0.0;
    let mut counts = InteractionCounts::default();
    let mut stack = Vec::with_capacity(64);
    if !tree.is_empty() {
        stack.push(*tree.root());
    }
    while let Some(node) = stack.pop() {
        let d = [
            node.com[0] - pos[0],
            node.com[1] - pos[1],
            node.com[2] - pos[2],
        ];
        let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let size = tree.bb.cell_size(node.key.level());
        // A single-body "cell" is exactly its body: treat as direct.
        let accept = node.count > 1 && mac.accepts(size, node.delta, dist2);
        if accept {
            let (a, p) = multipole_field(&node, pos, eps2, mac.quadrupole);
            for k in 0..3 {
                acc[k] += a[k];
            }
            pot += p;
            counts.pc += 1;
            continue;
        }
        match node.kind {
            NodeKind::Leaf { start, end } => {
                for j in start as usize..end as usize {
                    if j == self_idx {
                        continue;
                    }
                    let dj = [
                        bodies.pos[j][0] - pos[0],
                        bodies.pos[j][1] - pos[1],
                        bodies.pos[j][2] - pos[2],
                    ];
                    let r2 = dj[0] * dj[0] + dj[1] * dj[1] + dj[2] * dj[2] + eps2;
                    let rinv = 1.0 / r2.sqrt();
                    let rinv3 = rinv * rinv * rinv;
                    let s = bodies.mass[j] * rinv3;
                    acc[0] += s * dj[0];
                    acc[1] += s * dj[1];
                    acc[2] += s * dj[2];
                    pot -= bodies.mass[j] * rinv;
                    counts.pp += 1;
                }
            }
            NodeKind::Internal { .. } => {
                for child in tree.children(&node) {
                    stack.push(*child);
                }
            }
        }
    }
    (acc, pot, counts)
}
