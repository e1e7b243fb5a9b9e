//! Node-subset allocation and partitioned runs — the machine-side
//! support for multi-job scheduling (`mb-sched`).
//!
//! A [`NodeSet`] names a concrete subset of a cluster's nodes;
//! [`Cluster::run_on`] runs an SPMD job on exactly that subset, with
//! rank `i` *placed on* node `ids()[i]`. On the star network (every
//! node one link from one switch) placement never affects virtual time
//! — any k nodes behave like a fresh k-node cluster. On hierarchical
//! topologies it does: a job whose nodes span fat-tree switch
//! boundaries pays oversubscribed-uplink costs that a compact placement
//! under one edge switch avoids, which is why the scheduler offers
//! [`NodeSet::alloc_compact`] alongside the classic
//! [`NodeSet::alloc_lowest`]. Callers also keep the concrete ids for
//! occupancy bookkeeping (free lists, failure attribution, per-node
//! trace tracks).

use crate::exec::SpmdBody;
use crate::machine::{Cluster, SpmdOutcome};
use crate::topology::Topology;

/// A sorted, duplicate-free set of node ids within a cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct NodeSet {
    ids: Vec<usize>,
}

impl NodeSet {
    /// Build a set from arbitrary ids (sorted and deduplicated).
    pub fn new(mut ids: Vec<usize>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        NodeSet { ids }
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the set holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The node ids, ascending.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Membership test.
    pub fn contains(&self, node: usize) -> bool {
        self.ids.binary_search(&node).is_ok()
    }

    /// Allocate `want` nodes from a free mask (`free[i]` ⇔ node `i` is
    /// allocatable), lowest ids first. Returns `None` when fewer than
    /// `want` nodes are free. Lowest-first keeps allocation a pure
    /// function of the mask, which the scheduler's determinism contract
    /// relies on.
    pub fn alloc_lowest(free: &[bool], want: usize) -> Option<NodeSet> {
        Self::alloc_lowest_in(free, want, NodeSet::default())
    }

    /// [`NodeSet::alloc_lowest`] into the storage of `reuse`, whose ids
    /// are discarded; it grows to `want` before it is filled.
    pub fn alloc_lowest_in(free: &[bool], want: usize, reuse: NodeSet) -> Option<NodeSet> {
        let mut ids = reuse.ids;
        ids.clear();
        ids.reserve(want);
        let lowest = free.iter().enumerate().filter(|(_, &f)| f).map(|(i, _)| i);
        ids.extend(lowest.take(want));
        (want > 0 && ids.len() == want).then_some(NodeSet { ids })
    }

    /// Allocate `want` nodes preferring topology locality: nodes are
    /// grouped by their innermost shared unit (edge switch for a
    /// fat-tree, first-dimension ring for a torus) and groups with the
    /// most free nodes are drained first, ties going to the lowest
    /// group id — so a job that fits under one edge switch lands there
    /// instead of straddling uplinks. Like [`NodeSet::alloc_lowest`],
    /// a pure function of the free mask (the scheduler's determinism
    /// contract); on the star it degenerates to exactly `alloc_lowest`.
    pub fn alloc_compact(free: &[bool], want: usize, topology: &Topology) -> Option<NodeSet> {
        let Some(size) = group_size(topology) else {
            return Self::alloc_lowest(free, want);
        };
        let mut groups = free_groups(free, size, want)?;
        groups.sort_unstable_by(fullest_first);
        Some(drain(free, size, &groups, want))
    }

    /// Allocate `want` nodes scoring candidates against the in-flight
    /// job mix: `group_load[g]` is the aggregate byte rate other jobs
    /// currently push through edge group `g`'s uplinks (see
    /// [`crate::contention::edge_uplink_loads`]). Two deterministic
    /// candidates are compared — the compact (fullest-group-first)
    /// allocation and a quiet-group-first allocation draining groups by
    /// `(uplink load asc, free desc, id asc)` — by
    /// `(groups spanned, summed load of spanned groups)`, both read off
    /// the groups' free counts, and only the winner is built; the
    /// quiet candidate wins only when strictly better, so **ties fall
    /// back to [`NodeSet::alloc_compact`]** and a zero-load cluster
    /// allocates exactly like `Compact`. A pure function of
    /// `(free mask, want, topology, group loads)` — the loads are
    /// themselves executor-invariant, so the scheduler's determinism
    /// contract holds.
    pub fn alloc_contention_aware(
        free: &[bool],
        want: usize,
        topology: &Topology,
        group_load: &[f64],
    ) -> Option<NodeSet> {
        let Some(size) = group_size(topology) else {
            return Self::alloc_lowest(free, want);
        };
        let load_of = |g: usize| group_load.get(g).copied().unwrap_or(0.0);
        let mut groups = free_groups(free, size, want)?;
        // A drain in `order` spans the groups it reaches before it has
        // `want` nodes; their load is summed in ascending group id.
        let mut reached = Vec::new();
        let mut score = |order: &[(usize, usize)]| -> (usize, f64) {
            let mut have = 0;
            reached.clear();
            for &(n, g) in order {
                if have >= want {
                    break;
                }
                have += n;
                reached.push(g);
            }
            reached.sort_unstable();
            (reached.len(), reached.iter().map(|&g| load_of(g)).sum())
        };
        let quiet_first = |a: &(usize, usize), b: &(usize, usize)| {
            (load_of(a.1).total_cmp(&load_of(b.1)))
                .then(b.0.cmp(&a.0))
                .then(a.1.cmp(&b.1))
        };
        groups.sort_unstable_by(quiet_first);
        let (qg, ql) = score(&groups);
        groups.sort_unstable_by(fullest_first);
        let (cg, cl) = score(&groups);
        if qg < cg || (qg == cg && ql < cl) {
            groups.sort_unstable_by(quiet_first);
        }
        Some(drain(free, size, &groups, want))
    }
}

/// Nodes per locality group: a fat tree's edge switch, a torus's
/// first-dimension ring; `None` on the star.
fn group_size(topology: &Topology) -> Option<usize> {
    match *topology {
        Topology::Star => None,
        Topology::FatTree { radix, .. } => Some(radix),
        Topology::Torus { dims } => Some(dims[0]),
    }
}

/// `(free nodes, group id)` of every group of `size` nodes holding a
/// free node, by group id: the one scan of the mask both allocators
/// make. `None` when `want` is zero or more than the free total.
fn free_groups(free: &[bool], size: usize, want: usize) -> Option<Vec<(usize, usize)>> {
    let counts = free.chunks(size).map(|c| c.iter().filter(|&&f| f).count());
    let groups: Vec<(usize, usize)> = (counts.enumerate())
        .filter(|&(_, n)| n > 0)
        .map(|(g, n)| (n, g))
        .collect();
    (want > 0 && groups.iter().map(|&(n, _)| n).sum::<usize>() >= want).then_some(groups)
}

/// The compact order: most free nodes first, ties to the lowest id.
fn fullest_first(a: &(usize, usize), b: &(usize, usize)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// `want` free nodes, drained group by group in `order`.
fn drain(free: &[bool], size: usize, order: &[(usize, usize)], want: usize) -> NodeSet {
    let mut ids = Vec::with_capacity(want);
    for &(_, g) in order {
        let (lo, hi) = (g * size, ((g + 1) * size).min(free.len()));
        ids.extend((lo..hi).filter(|&i| free[i]).take(want - ids.len()));
    }
    NodeSet::new(ids)
}

impl Cluster {
    /// Run an SPMD job on a subset of this cluster's nodes: rank `i` of
    /// the job executes on node `nodes.ids()[i]`. Inherits the cluster's
    /// profiling switch; the outcome is bit-identical on both body forms,
    /// exactly as [`Cluster::run`].
    ///
    /// The job is simulated as a `nodes.len()`-node sub-cluster whose
    /// ranks keep the real node ids, so per-pair network costs follow
    /// the topology: on the star, which nodes were picked affects
    /// occupancy accounting only (any subset behaves like a fresh
    /// right-sized cluster); on a fat-tree or torus, a placement that
    /// spans switch boundaries genuinely runs slower than a compact one.
    ///
    /// Panics when `nodes` is empty or names a node outside the spec.
    pub fn run_on<R, B: SpmdBody<R>>(&self, nodes: &NodeSet, body: B) -> SpmdOutcome<R> {
        assert!(!nodes.is_empty(), "run_on needs at least one node");
        let max = *nodes.ids().last().expect("non-empty");
        assert!(
            max < self.spec().nodes,
            "node {max} outside spec '{}' ({} nodes)",
            self.spec().name,
            self.spec().nodes
        );
        Cluster::new(self.spec().with_nodes(nodes.len()))
            .with_prof(self.prof())
            .run_mapped(nodes.ids(), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::exec::{threaded, Stackless};
    use crate::spec::metablade;

    #[test]
    fn node_set_sorts_and_dedups() {
        let s = NodeSet::new(vec![7, 2, 7, 0]);
        assert_eq!(s.ids(), &[0, 2, 7]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(2));
        assert!(!s.contains(3));
    }

    #[test]
    fn alloc_lowest_picks_lowest_free_ids() {
        let free = vec![false, true, true, false, true, true];
        let s = NodeSet::alloc_lowest(&free, 3).unwrap();
        assert_eq!(s.ids(), &[1, 2, 4]);
        assert!(NodeSet::alloc_lowest(&free, 5).is_none());
        assert!(NodeSet::alloc_lowest(&free, 0).is_none());
    }

    #[test]
    fn alloc_lowest_in_refills_recycled_storage_as_alloc_lowest_allocates() {
        let free = vec![false, true, true, false, true, true];
        let spare = NodeSet::new(vec![9, 8, 7, 6, 5]);
        let buf = spare.ids().as_ptr();
        let s = NodeSet::alloc_lowest_in(&free, 3, spare).unwrap();
        assert_eq!(Some(&s), NodeSet::alloc_lowest(&free, 3).as_ref());
        assert_eq!(s.ids().as_ptr(), buf, "the storage was not reused");
        for want in [0, 5] {
            assert!(NodeSet::alloc_lowest_in(&free, want, s.clone()).is_none());
        }
    }

    #[test]
    fn alloc_compact_prefers_one_switch_group() {
        let topo = Topology::fat_tree(4, 2, 4.0);
        // Groups of 4: group 0 has 2 free, group 1 has 4 free, group 2
        // has 3 free. A 4-wide job should land entirely in group 1.
        let mut free = vec![true; 12];
        free[0] = false;
        free[3] = false;
        free[8] = false;
        let s = NodeSet::alloc_compact(&free, 4, &topo).unwrap();
        assert_eq!(s.ids(), &[4, 5, 6, 7]);
        // A 6-wide job drains group 1 then the next-fullest (group 2).
        let s = NodeSet::alloc_compact(&free, 6, &topo).unwrap();
        assert_eq!(s.ids(), &[4, 5, 6, 7, 9, 10]);
        // Ties go to the lowest group id: with all 12 free, an 8-wide
        // job takes groups 0 and 1.
        let s = NodeSet::alloc_compact(&[true; 12], 8, &topo).unwrap();
        assert_eq!(s.ids(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        // Infeasible and zero-width requests fail like alloc_lowest.
        assert!(NodeSet::alloc_compact(&free, 10, &topo).is_none());
        assert!(NodeSet::alloc_compact(&free, 0, &topo).is_none());
        // On the star it is exactly alloc_lowest.
        assert_eq!(
            NodeSet::alloc_compact(&free, 4, &Topology::Star),
            NodeSet::alloc_lowest(&free, 4)
        );
    }

    #[test]
    fn alloc_contention_aware_avoids_loaded_groups_and_ties_go_compact() {
        let topo = Topology::fat_tree(4, 2, 4.0);
        let free = vec![true; 16]; // 4 empty groups
                                   // No load anywhere: exactly the compact allocation.
        let quiet = NodeSet::alloc_contention_aware(&free, 6, &topo, &[0.0; 4]).unwrap();
        assert_eq!(
            quiet,
            NodeSet::alloc_compact(&free, 6, &topo).unwrap(),
            "zero load must tie back to compact"
        );
        // Groups 0 and 1 carry uplink traffic: a spanning 6-wide job
        // should land on the quiet groups 2 and 3 instead.
        let load = [500.0, 300.0, 0.0, 0.0];
        let s = NodeSet::alloc_contention_aware(&free, 6, &topo, &load).unwrap();
        assert_eq!(s.ids(), &[8, 9, 10, 11, 12, 13]);
        // A job that fits under one switch still packs (same group
        // count as compact, and compact's fullest-first choice wins
        // unless a quieter whole group exists).
        let s = NodeSet::alloc_contention_aware(&free, 4, &topo, &load).unwrap();
        assert_eq!(s.ids(), &[8, 9, 10, 11]);
        // Never spans more groups than compact just to chase quiet
        // ones: with only fragments free in the quiet groups, the
        // fuller loaded group still wins on group count.
        let mut frag = vec![false; 16];
        for i in [0, 1, 2, 3, 8, 14] {
            frag[i] = true;
        }
        let s = NodeSet::alloc_contention_aware(&frag, 4, &topo, &load).unwrap();
        assert_eq!(s.ids(), &[0, 1, 2, 3]);
        // Star: exactly alloc_lowest, loads ignored.
        assert_eq!(
            NodeSet::alloc_contention_aware(&free, 5, &Topology::Star, &load),
            NodeSet::alloc_lowest(&free, 5)
        );
        // Infeasible requests fail like the other allocators.
        assert!(NodeSet::alloc_contention_aware(&frag, 7, &topo, &load).is_none());
    }

    /// `alloc_contention_aware` as it was before it scored candidates
    /// from group counts: both candidates built, then scored by their
    /// node ids.
    fn contention_aware_reference(
        free: &[bool],
        want: usize,
        topology: &Topology,
        group_load: &[f64],
    ) -> Option<NodeSet> {
        let compact = NodeSet::alloc_compact(free, want, topology)?;
        let group_size = match *topology {
            Topology::Star => return Some(compact),
            Topology::FatTree { radix, .. } => radix,
            Topology::Torus { dims } => dims[0],
        };
        let load_of = |g: usize| group_load.get(g).copied().unwrap_or(0.0);
        let ngroups = free.len().div_ceil(group_size);
        let mut groups: Vec<(f64, usize, usize)> = (0..ngroups)
            .map(|g| {
                let lo = g * group_size;
                let hi = (lo + group_size).min(free.len());
                (load_of(g), free[lo..hi].iter().filter(|&&f| f).count(), g)
            })
            .collect();
        groups.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        let mut ids = Vec::with_capacity(want);
        for &(_, count, g) in &groups {
            if count == 0 || ids.len() == want {
                continue;
            }
            let lo = g * group_size;
            let hi = (lo + group_size).min(free.len());
            ids.extend((lo..hi).filter(|&i| free[i]).take(want - ids.len()));
        }
        if ids.len() != want {
            return Some(compact);
        }
        let quiet = NodeSet::new(ids);
        let score = |s: &NodeSet| -> (usize, f64) {
            let mut gs: Vec<usize> = s.ids().iter().map(|&i| i / group_size).collect();
            gs.dedup(); // ids ascending ⇒ group ids ascending
            let load: f64 = gs.iter().map(|&g| load_of(g)).sum();
            (gs.len(), load)
        };
        let (cg, cl) = score(&compact);
        let (qg, ql) = score(&quiet);
        if qg < cg || (qg == cg && ql < cl) {
            Some(quiet)
        } else {
            Some(compact)
        }
    }

    #[test]
    fn contention_aware_allocates_as_the_reference_that_builds_both_candidates() {
        let shapes = [
            (Topology::fat_tree(16, 2, 4.0), 64usize),
            (Topology::fat_tree(16, 2, 4.0), 1024),
            (Topology::torus([4, 4, 2]), 32),
            (Topology::Star, 24),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for (topo, n) in shapes {
            let group = n.div_ceil(match topo {
                Topology::FatTree { radix, .. } => radix,
                Topology::Torus { dims } => dims[0],
                Topology::Star => 6,
            });
            for case in 0..400 {
                // Masks from nearly empty to nearly full; loads with
                // ties (zeros, repeats) and distinct values.
                let busy = next(101);
                let free: Vec<bool> = (0..n).map(|_| next(100) >= busy).collect();
                let load: Vec<f64> = (0..group)
                    .map(|_| match next(4) {
                        0 => 0.0,
                        1 => 250.0,
                        _ => next(1_000_000) as f64 * 0.37,
                    })
                    .collect();
                // Some loads shorter than the group count read as 0.
                let load = &load[..group - next(2)];
                for want in [0, 1, next(n) + 1, next(3 * n / 2) + 1] {
                    let got = NodeSet::alloc_contention_aware(&free, want, &topo, load);
                    let reference = contention_aware_reference(&free, want, &topo, load);
                    assert_eq!(got, reference, "{} case {case} want {want}", topo.label());
                }
            }
        }
    }

    #[test]
    fn spanning_fat_tree_switches_is_slower_than_compact_placement() {
        let spec = metablade()
            .with_nodes(16)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        let job = |comm: &mut Comm| {
            for _ in 0..3 {
                let _ = comm.allreduce_sum(&[comm.rank() as f64; 32]);
            }
            comm.now()
        };
        let cluster = Cluster::new(spec);
        let compact = cluster.run_on(&NodeSet::new(vec![0, 1, 2, 3]), job);
        let spread = cluster.run_on(&NodeSet::new(vec![0, 4, 8, 12]), job);
        assert!(
            spread.makespan_s() > compact.makespan_s(),
            "spread {} vs compact {}",
            spread.makespan_s(),
            compact.makespan_s()
        );
    }

    #[test]
    fn run_on_subset_matches_equal_sized_cluster() {
        let cluster = Cluster::new(metablade());
        let job = |comm: &mut Comm| {
            comm.compute(1e6 * (comm.rank() + 1) as f64);
            let s = comm.allreduce_sum(&[comm.rank() as f64]);
            (s[0], comm.now())
        };
        // Which ids are held must not matter: {3, 11, 17, 22} behaves
        // exactly like a fresh 4-node MetaBlade.
        let subset = cluster.run_on(&NodeSet::new(vec![22, 3, 17, 11]), job);
        let reference = Cluster::new(metablade().with_nodes(4)).run(job);
        assert_eq!(subset.results, reference.results);
        assert_eq!(subset.clocks, reference.clocks);
    }

    #[test]
    fn run_on_is_exec_policy_invariant() {
        // One slot whatever the policy: the two body forms are what is
        // left to compare.
        let job = Stackless(async |comm: &mut Comm| {
            let n = comm.nranks();
            let rank = comm.rank();
            comm.compute(5e5 * (1 + rank % 3) as f64);
            if n > 1 {
                comm.send_f64s((rank + 1) % n, 9, &[rank as f64]);
                let _ = comm.recv_f64s_async((rank + n - 1) % n, 9).await;
            }
            comm.barrier_async().await;
            comm.now()
        });
        let nodes = NodeSet::new(vec![0, 5, 9, 13, 21]);
        let reference = Cluster::new(metablade()).run_on(&nodes, threaded(job));
        let out = Cluster::new(metablade()).run_on(&nodes, job);
        assert_eq!(out.clocks, reference.clocks);
    }

    #[test]
    fn run_on_inherits_the_clusters_profiling_switch() {
        let job = |comm: &mut Comm| comm.allreduce_sum(&[1.0])[0];
        let nodes = NodeSet::new(vec![0, 1, 2]);
        for on in [true, false] {
            let cluster = Cluster::new(metablade()).with_prof(on);
            assert_eq!(cluster.run(job).exec_report.prof.is_some(), on);
            assert_eq!(
                cluster.run_on(&nodes, job).exec_report.prof.is_some(),
                on,
                "run_on, prof {on}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside spec")]
    fn run_on_rejects_out_of_range_nodes() {
        let cluster = Cluster::new(metablade().with_nodes(4));
        cluster.run_on(&NodeSet::new(vec![0, 4]), |comm: &mut Comm| comm.rank());
    }
}
