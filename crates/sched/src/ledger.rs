//! What running jobs hold: the node pool and, off the star, the links
//! they load and their factors (DESIGN.md §10, §14). The engine names a
//! run by the slot [`Ledger::launch`] returns. Only a *fabric run*, whose
//! traffic without host links still loads a link, can contend: the
//! ledger folds those alone, in launch order, which is the engine's
//! running order and part of the bit contract (the epoch and the uplink
//! loads sum each link's rates run by run in it). A host-only run moves
//! no fold and keeps the literal factor `1.0`. The ledger knows nothing
//! of the queue, the policies, checkpoints or job records.

#![deny(clippy::too_many_lines)]

use std::collections::BTreeMap;

use mb_cluster::contention::{self, ContentionEpoch, JobTraffic, LinkScratch};
use mb_cluster::spec::ClusterSpec;
use mb_cluster::{LinkId, LinkIds, NodeSet, Topology};
use mb_telemetry::{MetricHandle, Registry};

use crate::engine::{Placement, StepProfile};

/// A per-link running total indexed by [`LinkId`]; `None` until the
/// link is first accounted, so the report lists exactly the links the
/// run touched.
type LinkTotals = Vec<Option<f64>>;

fn add_to_link(totals: &mut LinkTotals, id: LinkId, v: f64) {
    *totals[id as usize].get_or_insert(0.0) += v;
}

/// Which nodes are up and free, when failed ones return, and what each
/// run loads on the fabric, per link id (`finish` names the links).
/// A down node is never held (the engine releases a struck run before
/// it fails the node), so held is up and not free, and a repair frees
/// its node; the nodes up are those awaiting no repair.
pub(crate) struct Ledger {
    topo: Topology,
    up: Vec<bool>,
    /// Up and held by no run.
    free: Vec<bool>,
    n_free: usize,
    /// Pending repairs as `(back-up time, node)`.
    repairs: Vec<(f64, usize)>,
    /// Released runs' node-id storage, for `Lowest` launches to refill.
    spare_ids: Vec<NodeSet>,
    /// A run was launched or released since the last `retime`.
    moved: bool,
    /// A fabric run was launched or released since the last `retime`'s
    /// fold and since the last `uplink_loads` refill: the only things
    /// the epoch and the group loads depend on.
    fold_due: bool,
    loads_due: bool,
    /// `None` on the star, which keeps no link state: placements there
    /// are cost-free and host links are never shared, so skipping the
    /// traffic fold keeps star timelines bit-identical to the
    /// pre-contention engine.
    ids: Option<LinkIds>,
    gap_s_per_byte: f64,
    /// Uplink load per fat-tree edge-switch group, the score
    /// contention-aware placement reads. Empty elsewhere: a torus has no
    /// edge uplinks, and all-zero loads place as none.
    group_loads: Vec<f64>,
    bytes: LinkTotals,
    shared_s: LinkTotals,
    rate_series: Vec<Option<MetricHandle>>,
    /// The fabric runs' contention state as of the last fold; its
    /// shared links are charged for each interval as it ends, up to
    /// `shared_t`.
    ep: ContentionEpoch,
    shared_t: f64,
    scratch: LinkScratch,
    /// Traffic tables by run slot; released runs' `free_slots` are
    /// refilled by the next launches.
    traffic: Vec<RunTraffic>,
    free_slots: Vec<usize>,
    /// The fabric runs' slots in launch order, which `ep` folds.
    fabric: Vec<usize>,
    /// What the last `retime` returned: the runs whose factor changed.
    changed: Vec<(usize, f64)>,
}

#[cfg(test)]
thread_local! {
    /// Epochs folded on this thread, which the fold-skip tests count.
    pub(crate) static FOLDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A run's traffic, kept twice: in full for `link_bytes`, and without
/// host links for the epoch and placement. Nodes are held exclusively,
/// so no other job can share a host link (DESIGN.md §14).
#[derive(Default)]
struct RunTraffic {
    full: JobTraffic,
    shareable: JobTraffic,
    /// Virtual time up to which its link bytes are integrated.
    acct_s: f64,
    /// The run's current factor; `1.0` for a host-only run.
    slow: f64,
}

impl RunTraffic {
    /// Integrate the per-link byte rates into `bytes` up to virtual
    /// time `t`. Wall seconds shrink to nominal seconds through the
    /// run's factor (a slowed job moves the same bytes over a longer
    /// wall interval).
    fn account(&mut self, bytes: &mut LinkTotals, t: f64) {
        let dt = (t - self.acct_s).max(0.0);
        if dt > 0.0 {
            let nominal = dt / self.slow;
            for &(id, rate) in self.full.rates() {
                add_to_link(bytes, id, rate * nominal);
            }
        }
        self.acct_s = t;
    }
}

impl Ledger {
    pub(crate) fn new(spec: &ClusterSpec, route_spread: bool) -> Self {
        let (n, topo) = (spec.nodes, spec.network.topology);
        let ways = if route_spread { topo.ecmp_ways() } else { 1 };
        let ids = (topo != Topology::Star).then(|| LinkIds::new(&topo, ways));
        let nlinks = ids.map_or(0, |ids| {
            ids.link_count().expect("only the star is unbounded")
        });
        let ngroups = match topo {
            Topology::FatTree { radix, .. } => n.div_ceil(radix),
            _ => 0,
        };
        Self {
            topo,
            up: vec![true; n],
            free: vec![true; n],
            n_free: n,
            repairs: Vec::new(),
            spare_ids: Vec::new(),
            moved: false,
            fold_due: false,
            loads_due: false,
            ids,
            gap_s_per_byte: spec.network.gap_s_per_byte(),
            group_loads: vec![0.0; ngroups],
            bytes: vec![None; nlinks],
            shared_s: vec![None; nlinks],
            rate_series: vec![None; nlinks],
            ep: ContentionEpoch::default(),
            shared_t: 0.0,
            scratch: LinkScratch::default(),
            traffic: Vec::new(),
            free_slots: Vec::new(),
            fabric: Vec::new(),
            changed: Vec::new(),
        }
    }

    /// Free nodes and up nodes, the counts policies read.
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.n_free, self.up.len() - self.repairs.len())
    }

    pub(crate) fn is_up(&self, nd: usize) -> bool {
        self.up[nd]
    }

    /// Whether a run was launched or released since the last `retime`.
    pub(crate) fn moved(&self) -> bool {
        self.moved
    }

    /// The earliest pending repair, or infinity.
    pub(crate) fn next_repair_s(&self) -> f64 {
        self.repairs.iter().fold(f64::INFINITY, |t, r| t.min(r.0))
    }

    /// Hold `ranks` nodes that `placement` finds in the live free mask
    /// (`ContentionAware` scores groups by the last `uplink_loads`) for a
    /// run that starts at `now`, and return them with the run's slot.
    /// Off the star, `price` is the run's step on those nodes, whose
    /// traffic the slot keeps, ECMP ways salted by the run's `job` id.
    pub(crate) fn launch(
        &mut self,
        placement: Placement,
        ranks: usize,
        job: u64,
        now: f64,
        price: impl FnOnce(&NodeSet) -> StepProfile,
    ) -> Option<(NodeSet, usize)> {
        // Only `Lowest` refills a spare; dropping it keeps spares ≤ runs.
        let spare = self.spare_ids.pop().unwrap_or_default();
        let (free, topo, loads) = (&self.free, &self.topo, &self.group_loads);
        let nodes = match placement {
            Placement::Lowest => NodeSet::alloc_lowest_in(free, ranks, spare),
            Placement::Compact => NodeSet::alloc_compact(free, ranks, topo),
            Placement::ContentionAware => NodeSet::alloc_contention_aware(free, ranks, topo, loads),
        }?;
        self.n_free -= nodes.len();
        nodes.ids().iter().for_each(|&m| self.free[m] = false);
        self.moved = true;
        let Some(ids) = &self.ids else {
            return Some((nodes, 0));
        };
        let p = price(&nodes);
        let slot = self.free_slots.pop().unwrap_or(self.traffic.len());
        (self.traffic).resize_with(self.traffic.len().max(slot + 1), RunTraffic::default);
        let (t, scratch) = (&mut self.traffic[slot], &mut self.scratch);
        contention::job_traffic_with(
            scratch,
            ids,
            &p.stats,
            nodes.ids(),
            p.step_s,
            job,
            &mut t.full,
        );
        t.full.shareable_into(&mut t.shareable);
        (t.acct_s, t.slow) = (now, 1.0);
        if !t.shareable.rates().is_empty() {
            self.fabric.push(slot);
            (self.fold_due, self.loads_due) = (true, true);
        }
        Some((nodes, slot))
    }

    /// Take run `slot` off `nodes` at virtual time `t`, closing its
    /// link-byte integral at its factor. The nodes come free, and their
    /// id storage becomes a spare.
    pub(crate) fn release(&mut self, slot: usize, nodes: NodeSet, t: f64) {
        if self.ids.is_some() {
            self.traffic[slot].account(&mut self.bytes, t);
            if let Some(i) = self.fabric.iter().position(|&s| s == slot) {
                self.fabric.remove(i);
                (self.fold_due, self.loads_due) = (true, true);
            }
            self.free_slots.push(slot);
        }
        self.n_free += nodes.len();
        nodes.ids().iter().for_each(|&m| self.free[m] = true);
        self.spare_ids.push(nodes);
        self.moved = true;
    }

    /// Take free node `nd` down until `back_s`.
    pub(crate) fn fail(&mut self, nd: usize, back_s: f64) {
        (self.up[nd], self.free[nd]) = (false, false);
        self.n_free -= 1;
        self.repairs.push((back_s, nd));
    }

    /// Nodes due back by `now` come up, free.
    pub(crate) fn repair(&mut self, now: f64) {
        for (_, nd) in self.repairs.extract_if(.., |&mut (t, _)| t <= now) {
            (self.up[nd], self.free[nd]) = (true, true);
            self.n_free += 1;
        }
    }

    /// Refill the group loads a `ContentionAware` launch scores against
    /// from the fabric runs' shareable traffic, if one launched or left
    /// since the last refill (a host-only run loads no uplink).
    pub(crate) fn uplink_loads(&mut self) {
        if !self.group_loads.is_empty() && std::mem::take(&mut self.loads_due) {
            self.group_loads.fill(0.0);
            let views = self.fabric.iter().map(|&s| &self.traffic[s].shareable);
            contention::add_edge_uplink_loads(views, &mut self.group_loads);
        }
    }

    /// Charge the interval that ends at `now` to the links it shared.
    /// If a fabric run launched or left since the last call, fold a new
    /// epoch over the fabric runs and close the link-byte integral of
    /// each whose factor changes, at its old factor. Return the runs
    /// whose factor changed, as `(slot, new factor)`. With a `series`
    /// registry (not in a lean run), sample every loaded fabric link's
    /// aggregate rate.
    pub(crate) fn retime(&mut self, now: f64, series: Option<&mut Registry>) -> &[(usize, f64)] {
        self.moved = false;
        self.changed.clear();
        let Some(ids) = self.ids else {
            return &self.changed;
        };
        for &id in &self.ep.shared {
            add_to_link(&mut self.shared_s, id, now - self.shared_t);
        }
        self.shared_t = now;
        if std::mem::take(&mut self.fold_due) {
            #[cfg(test)]
            FOLDS.with(|f| f.set(f.get() + 1));
            let views = self.fabric.iter().map(|&s| &self.traffic[s].shareable);
            let (gap, ep) = (self.gap_s_per_byte, &mut self.ep);
            contention::epoch_with(&mut self.scratch, &self.topo, gap, views, ep);
            for (&slot, &s_new) in self.fabric.iter().zip(&self.ep.factors) {
                let t = &mut self.traffic[slot];
                if s_new != t.slow {
                    t.account(&mut self.bytes, now);
                    t.slow = s_new;
                    self.changed.push((slot, s_new));
                }
            }
        }
        if let Some(registry) = series {
            // Every fabric link an epoch first loads gets its series, in
            // ascending name order among them (an epoch reused has none
            // left); only those links are sampled.
            let mut fresh: Vec<(String, LinkId)> = Vec::new();
            for &(id, _) in &self.ep.agg_rates {
                if self.rate_series[id as usize].is_none() && ids.is_fabric(id) {
                    fresh.push((ids.name(id), id));
                }
            }
            fresh.sort();
            for (name, id) in fresh {
                self.rate_series[id as usize] =
                    Some(registry.series("sched.uplink_rate_Bps", &name));
            }
            for &(id, rate) in &self.ep.agg_rates {
                if let Some(h) = self.rate_series[id as usize] {
                    registry.sample(h, now, rate);
                }
            }
        }
        &self.changed
    }

    /// The whole run's payload bytes and shared seconds per named link;
    /// empty on the star. The only place a link id becomes its name.
    pub(crate) fn finish(&self) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
        let ids = self.ids.unwrap_or_default();
        let named = |totals: &LinkTotals| -> BTreeMap<String, f64> {
            let name = |(id, v): (usize, &Option<f64>)| v.map(|v| (ids.name(id as LinkId), v));
            totals.iter().enumerate().filter_map(name).collect()
        };
        (named(&self.bytes), named(&self.shared_s))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mb_cluster::CommStats;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    impl Ledger {
        /// The pool oracle `dispatch` runs in test builds: recount `up`
        /// and `free` against the counts the engine passes to policies,
        /// and check that the running jobs hold, once each, exactly the
        /// up nodes that are not free.
        pub(crate) fn check<'a>(&self, held_by_runs: impl Iterator<Item = &'a NodeSet>) {
            let count = |v: &[bool]| v.iter().filter(|&&b| b).count();
            assert_eq!(count(&self.up), self.counts().1, "up count");
            assert_eq!(count(&self.free), self.counts().0, "free count");
            let mut held = vec![false; self.up.len()];
            for &m in held_by_runs.flat_map(NodeSet::ids) {
                assert!(!held[m], "node {m} held twice");
                held[m] = true;
            }
            for (m, &h) in held.iter().enumerate() {
                assert_eq!(h, self.up[m] && !self.free[m], "node {m}: held {h}");
            }
        }
    }

    /// A running job as the reference keeps it: its slot and nodes, its
    /// shareable traffic from the pure `contention::job_traffic`, and
    /// the factor the engine would have stored.
    struct Live {
        slot: usize,
        nodes: NodeSet,
        view: JobTraffic,
        slow: f64,
    }

    /// Per-rank counters of a random `width`-rank step: each rank
    /// spends a random share of it communicating and sends random byte
    /// counts to a few random peers.
    fn random_stats(rng: &mut StdRng, width: usize) -> Vec<CommStats> {
        (0..width)
            .map(|rank| {
                let mut s = CommStats {
                    send_busy_s: rng.random::<f64>() * 0.1,
                    recv_busy_s: rng.random::<f64>() * 0.1,
                    wait_s: rng.random::<f64>() * 0.1,
                    ..CommStats::default()
                };
                for _ in 0..rng.random_range(1..=4usize) {
                    let peer = rng.random_range(0..width);
                    if peer != rank {
                        s.peers.entry(peer).bytes_to += rng.random_range(1..3_000_000u64);
                    }
                }
                s
            })
            .collect()
    }

    fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    /// Epochs folded on this thread so far.
    fn folds() -> u64 {
        FOLDS.with(std::cell::Cell::get)
    }

    /// Compare the factors the live jobs hold, the ledger's epoch and
    /// its group loads with the pure `contention::epoch` and
    /// `contention::edge_uplink_loads` over the live jobs' shareable
    /// views, in running order; return how many jobs the epoch slows.
    fn agree_with_the_pure_fold(
        ledger: &mut Ledger,
        running: &[Live],
        ngroups: usize,
        ctx: &str,
    ) -> usize {
        ledger.uplink_loads();
        let l = &*ledger;
        let views: Vec<&JobTraffic> = running.iter().map(|j| &j.view).collect();
        let want = contention::epoch(&l.topo, l.gap_s_per_byte, &views);
        let (got_f, want_f) = (running.iter().map(|j| j.slow), want.factors.iter().copied());
        assert_eq!(bits(got_f), bits(want_f), "{ctx}: factors");
        for j in running.iter().filter(|j| j.view.rates().is_empty()) {
            assert_eq!(j.slow.to_bits(), 1.0f64.to_bits(), "{ctx}: a host-only run");
        }
        assert_eq!(l.ep.shared, want.shared, "{ctx}: shared links");
        let agg = |v: &[(LinkId, f64)]| -> Vec<(LinkId, u64)> {
            v.iter().map(|&(id, r)| (id, r.to_bits())).collect()
        };
        assert_eq!(agg(&l.ep.agg_rates), agg(&want.agg_rates), "{ctx}: rates");
        let loads = contention::edge_uplink_loads(&views, ngroups);
        if l.group_loads.is_empty() {
            assert!(
                loads.iter().all(|&x| x == 0.0),
                "{ctx}: a torus loads no uplink"
            );
        } else {
            let got = l.group_loads.iter().copied();
            assert_eq!(bits(got), bits(loads), "{ctx}: group loads");
        }
        want.factors.iter().filter(|&&f| f > 1.0).count()
    }

    /// One seeded sequence of launches, releases, failures and repairs,
    /// checked after every step: a step folds an epoch exactly when a
    /// fabric run launched or left in it. Return how many jobs epochs
    /// slowed and how many steps moved only host-only runs.
    fn drive(spec: &ClusterSpec, spread: bool, seed: u64, ctx: &str) -> (usize, usize) {
        let (n, topo) = (spec.nodes, spec.network.topology);
        let ways = if spread { topo.ecmp_ways() } else { 1 };
        let ngroups = match topo {
            Topology::FatTree { radix, .. } => n.div_ceil(radix),
            Topology::Torus { dims } => n.div_ceil(dims[0]),
            Topology::Star => unreachable!("the star keeps no links"),
        };
        let placements = [
            Placement::Lowest,
            Placement::Compact,
            Placement::ContentionAware,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ledger = Ledger::new(spec, spread);
        let mut running: Vec<Live> = Vec::new();
        let (mut now, mut jobs, mut slowed, mut quiet) = (0.0, 0u64, 0, 0);
        for step in 0..300 {
            now += rng.random::<f64>() * 4.0;
            ledger.repair(now);
            // Whether a run, and whether a fabric run, moved this step.
            let fabric = |j: &Live| !j.view.rates().is_empty();
            let (moved, fabric_moved) = match rng.random_range(0..20u32) {
                0..=8 => {
                    let placement = placements[rng.random_range(0..3usize)];
                    let width = rng.random_range(1..=12usize);
                    let stats = random_stats(&mut rng, width);
                    let step_s = 0.25 + rng.random::<f64>() * 4.0;
                    // Ids that no slot number shadows.
                    let id = 1000 + 7 * jobs;
                    jobs += 1;
                    let profile = StepProfile {
                        step_s,
                        stats: Arc::new(stats),
                    };
                    let price = |_: &NodeSet| profile.clone();
                    let placed = ledger.launch(placement, width, id, now, price);
                    placed.map_or((false, false), |(nodes, slot)| {
                        let stats = &profile.stats;
                        let full =
                            contention::job_traffic(&topo, stats, nodes.ids(), step_s, id, ways);
                        let (view, slow) = (full.shareable(), 1.0);
                        running.push(Live {
                            slot,
                            nodes,
                            view,
                            slow,
                        });
                        (true, fabric(&running[running.len() - 1]))
                    })
                }
                9..=15 if !running.is_empty() => {
                    let j = running.remove(rng.random_range(0..running.len()));
                    let fabric_left = fabric(&j);
                    ledger.release(j.slot, j.nodes, now);
                    (true, fabric_left)
                }
                16..=17 => {
                    let nd = rng.random_range(0..n);
                    let victim = running.iter().position(|j| j.nodes.contains(nd));
                    let struck = ledger.is_up(nd) && victim.is_some();
                    let mut fabric_struck = false;
                    if let Some(j) = victim.map(|v| running.remove(v)) {
                        fabric_struck = fabric(&j);
                        ledger.release(j.slot, j.nodes, now);
                    }
                    if ledger.is_up(nd) {
                        ledger.fail(nd, now + 1.0 + rng.random::<f64>() * 20.0);
                    }
                    (struck, fabric_struck)
                }
                _ => (false, false),
            };
            ledger.check(running.iter().map(|j| &j.nodes));
            let ctx = format!("{ctx} step {step}");
            assert_eq!(ledger.moved(), moved, "{ctx}: moved");
            let before = folds();
            let changed = ledger.retime(now, None).to_vec();
            assert_eq!(folds() - before, u64::from(fabric_moved), "{ctx}: folds");
            quiet += usize::from(moved && !fabric_moved);
            for (slot, f) in changed {
                let j = running.iter_mut().find(|j| j.slot == slot);
                let j = j.unwrap_or_else(|| panic!("{ctx}: slot {slot} is not live"));
                assert_ne!(
                    j.slow.to_bits(),
                    f.to_bits(),
                    "{ctx}: slot {slot} did not change"
                );
                j.slow = f;
            }
            slowed += agree_with_the_pure_fold(&mut ledger, &running, ngroups, &ctx);
        }
        (slowed, quiet)
    }

    /// Launch a `width`-rank ring — rank `r` sends 1 MB to rank `r + 1`
    /// per one-second step and spends half of it communicating — as
    /// run `job`, and return its nodes and slot.
    fn launch_ring(
        ledger: &mut Ledger,
        placement: Placement,
        width: usize,
        job: u64,
        now: f64,
    ) -> (NodeSet, usize) {
        let ring = |rank| {
            let mut s = CommStats {
                send_busy_s: 0.25,
                recv_busy_s: 0.25,
                ..CommStats::default()
            };
            s.peers.entry((rank + 1) % width).bytes_to = 1_000_000;
            s
        };
        let profile = StepProfile {
            step_s: 1.0,
            stats: Arc::new((0..width).map(ring).collect()),
        };
        let placed = ledger.launch(placement, width, job, now, |_| profile.clone());
        placed.expect("the ring has room")
    }

    #[test]
    fn host_only_moves_fold_nothing_and_keep_the_literal_unit_factor() {
        let spec = mb_cluster::spec::metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let mut ledger = Ledger::new(&spec, false);
        // Retime at `now`: the folds it took and the factors it changed.
        let retime = |ledger: &mut Ledger, now: f64| {
            let before = folds();
            let changed = ledger.retime(now, None).to_vec();
            (folds() - before, changed)
        };
        // A 4-wide ring under switch 0 loads host links only.
        let (a_nodes, a) = launch_ring(&mut ledger, Placement::Compact, 4, 1, 0.0);
        assert_eq!(a_nodes.ids(), &[0, 1, 2, 3]);
        assert_eq!(retime(&mut ledger, 0.0), (0, vec![]));
        // Rings on nodes 4..24 and 24..44 both cross switch 1's uplinks.
        let (b_nodes, b) = launch_ring(&mut ledger, Placement::Lowest, 20, 2, 1.0);
        let (_, c) = launch_ring(&mut ledger, Placement::Lowest, 20, 3, 1.0);
        let (folded, changed) = retime(&mut ledger, 1.0);
        assert_eq!(folded, 1);
        assert_eq!(
            changed.iter().map(|&(slot, _)| slot).collect::<Vec<_>>(),
            [b, c]
        );
        assert!(changed.iter().all(|&(_, f)| f > 1.0), "{changed:?}");
        let c_factor = changed[1].1;
        // Host-only moves: a launch under switch 2, a release, the
        // failure of a free node and its repair fold nothing.
        let (_, d) = launch_ring(&mut ledger, Placement::Lowest, 4, 4, 2.0);
        ledger.release(a, a_nodes, 2.0);
        ledger.fail(60, 2.5);
        assert!(ledger.moved());
        assert_eq!(retime(&mut ledger, 2.0), (0, vec![]));
        ledger.repair(3.0);
        assert_eq!(retime(&mut ledger, 3.0), (0, vec![]));
        assert_eq!(ledger.traffic[d].slow.to_bits(), 1.0f64.to_bits());
        assert_eq!(ledger.traffic[c].slow.to_bits(), c_factor.to_bits());
        // A fabric run leaving folds, and frees its peer.
        ledger.release(b, b_nodes, 4.0);
        assert_eq!(retime(&mut ledger, 4.0), (1, vec![(c, 1.0)]));
    }

    #[test]
    fn the_ledger_folds_the_live_jobs_as_the_pure_epoch_and_uplink_loads() {
        let tree = mb_cluster::spec::metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let torus = mb_cluster::spec::metablade()
            .with_nodes(32)
            .with_topology(Topology::torus([4, 4, 2]));
        for (spec, spread) in [(&tree, false), (&tree, true), (&torus, false)] {
            for seed in [7, 2002, 4242] {
                let ctx = format!(
                    "{} spread {spread} seed {seed}",
                    spec.network.topology.label()
                );
                let (slowed, quiet) = drive(spec, spread, seed, &ctx);
                assert!(slowed > 0, "{ctx}: no job was ever slowed");
                assert!(quiet > 0, "{ctx}: no step moved only host-only runs");
            }
        }
    }
}
