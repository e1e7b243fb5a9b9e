//! Cross-job link contention: per-link virtual load accounting that
//! spans communicators, and the deterministic mean-field slowdown the
//! scheduler charges against it.
//!
//! PR 8's [`crate::topology`] layer prices contention *within* one
//! job's communicator (an oversubscribed uplink serializes that job's
//! bytes at `o ×` the edge gap). This module models the interference
//! *between* concurrently running jobs that share fabric links — the
//! effect that dominates multi-tenant fleet throughput and that the
//! paper's single-job TCO comparison ignores.
//!
//! The model is a fluid (mean-field) approximation, chosen because it
//! keeps the determinism contract intact:
//!
//! * each running job is summarized by its **steady-state byte rate per
//!   link** ([`JobTraffic`], derived from one memoized isolated
//!   step via [`job_traffic`]) and the fraction of a rank-second it
//!   spends communicating;
//! * whenever the running set changes the per-link rates of all running
//!   jobs are summed ([`epoch`]); a link used by **two or more** jobs delays
//!   each of them by the serialization time of the *other* jobs' bytes
//!   — `foreign_rate × eff_gap` extra seconds per second, where
//!   `eff_gap` is the oversubscription-adjusted seconds-per-byte of the
//!   link;
//! * a job's slowdown factor is `1 + comm_frac × worst_link_delay`,
//!   exactly `1.0` when no link is shared (links with a single user
//!   charge nothing, so a lone job — and every job on the star, whose
//!   host links are never shared — reproduces the contention-free
//!   timeline bit for bit).
//!
//! Everything here is a pure function of per-job traffic summaries that
//! are themselves bit-identical under every executor policy, so the
//! scheduler's fingerprints stay executor-invariant (DESIGN.md §14).
//!
//! **Links are integers here.** A [`JobTraffic`] keys its rates by the
//! dense [`LinkId`]s of one [`LinkIds`] space, [`job_traffic`] and
//! [`epoch`] add into flat per-id tables and read back the ids they
//! touched from a bitset in ascending order (so nothing is sorted),
//! and the id's range — not a decoded `Link`, not a name prefix —
//! decides whether a link is a host link, a fabric link (its effective
//! gap) or an edge uplink (its group).
//! Nothing on this path builds, hashes or compares a link name;
//! [`LinkIds::name`] produces one when a report is written. Because
//! `f64` addition does not associate, the *order* of every sum is part
//! of the contract: a link's aggregate is accumulated job by job in the
//! caller's order, and within one job links are visited by ascending id.
//!
//! **Host links are private to a job** when no two jobs hold a node,
//! which is what the scheduler guarantees: a host link then has one
//! user and never slows anyone. Over such disjoint node sets [`epoch`]
//! of the [`JobTraffic::shareable`] views gives the same factors and
//! `shared` links as over the full traffic, and the same `agg_rates` on
//! every other link; [`edge_uplink_loads`] never reads a host link.
//! [`epoch`] itself keeps host links, because two jobs on one node do
//! share them.
//!
//! ```
//! use mb_cluster::contention;
//! use mb_cluster::{CommStats, Topology};
//!
//! // One rank sends 1 MB per one-second step to the other and spends
//! // half the step communicating.
//! let step = |bytes: u64| {
//!     let mut s0 = CommStats {
//!         send_busy_s: 0.5,
//!         ..CommStats::default()
//!     };
//!     s0.peers.entry(1).bytes_to = bytes;
//!     vec![s0, CommStats::default()]
//! };
//! let ft = Topology::fat_tree(4, 2, 4.0);
//! // Two jobs whose flows both leave edge switch 0 for edge switch 1.
//! let a = contention::job_traffic(&ft, &step(1_000_000), &[0, 4], 1.0, 0, 1);
//! let b = contention::job_traffic(&ft, &step(1_000_000), &[1, 5], 1.0, 1, 1);
//! let ep = contention::epoch(&ft, 8e-8, &[&a, &b]);
//! let shared: Vec<String> = ep.shared.iter().map(|&id| a.link_ids().name(id)).collect();
//! assert_eq!(shared, ["up:l1.s0", "down:l1.s1"]);
//! assert!(ep.factors[0] > 1.0 && ep.factors[0] == ep.factors[1]);
//! // A job alone on its links is charged exactly nothing.
//! assert_eq!(contention::epoch(&ft, 8e-8, &[&a]).factors, [1.0]);
//! ```

use crate::comm::CommStats;
use crate::topology::{Link, LinkId, LinkIds, Topology};

/// One running job's steady-state traffic summary: bytes per virtual
/// second on each link it uses (contention identity, including the
/// ECMP way) plus the fraction of a rank-second spent in
/// communication. Derived once per dispatch from the job's memoized
/// isolated step; [`JobTraffic::shareable`] is the same job without
/// its host links.
#[derive(Debug, Clone, Default)]
pub struct JobTraffic {
    /// Ascending by id, one entry per link.
    rates: Vec<(LinkId, f64)>,
    ids: LinkIds,
    /// Mean fraction of a rank's time spent sending/receiving/waiting
    /// in that step, clamped to `[0, 1]`.
    pub comm_frac: f64,
}

impl JobTraffic {
    /// Payload bytes per second per link, from one isolated step:
    /// ascending by [`LinkId`], one entry per link.
    pub fn rates(&self) -> &[(LinkId, f64)] {
        &self.rates
    }

    /// The identity space the rate keys belong to.
    pub fn link_ids(&self) -> &LinkIds {
        &self.ids
    }

    /// This job without its host links: the links a job on other nodes
    /// can share, so the view [`epoch`] and [`edge_uplink_loads`] need
    /// when node sets are disjoint.
    pub fn shareable(&self) -> JobTraffic {
        let mut view = JobTraffic::default();
        self.shareable_into(&mut view);
        view
    }

    /// [`JobTraffic::shareable`] written over `view`, reusing its storage.
    pub fn shareable_into(&self, view: &mut JobTraffic) {
        view.rates.clear();
        (view.rates).extend(self.rates.iter().filter(|&&(id, _)| !self.ids.is_host(id)));
        (view.ids, view.comm_frac) = (self.ids, self.comm_frac);
    }
}

/// Summarize one isolated step of a job as per-link byte rates.
///
/// `stats` are the per-rank counters of the memoized step simulation,
/// `node_ids[rank]` the physical node each rank runs on, `step_s` the
/// step's virtual makespan, `salt` the job id for ECMP spreading over
/// `ways` parallel uplinks (see [`Topology::contention_links`]).
pub fn job_traffic(
    topo: &Topology,
    stats: &[CommStats],
    node_ids: &[usize],
    step_s: f64,
    salt: u64,
    ways: usize,
) -> JobTraffic {
    let (mut out, ids) = (JobTraffic::default(), LinkIds::new(topo, ways));
    let scratch = &mut LinkScratch::default();
    job_traffic_with(scratch, &ids, stats, node_ids, step_s, salt, &mut out);
    out
}

/// [`job_traffic`] in the id space `ids`, over caller-kept scratch,
/// written over `out`: a loop that lowers a job at every launch reuses
/// both the per-link table and the rates' storage.
pub fn job_traffic_with(
    scratch: &mut LinkScratch,
    ids: &LinkIds,
    stats: &[CommStats],
    node_ids: &[usize],
    step_s: f64,
    salt: u64,
    out: &mut JobTraffic,
) {
    assert_eq!(stats.len(), node_ids.len(), "one node per rank");
    assert!(step_s > 0.0, "step must take time");
    // Byte counts are integers, so a link's total does not depend on
    // the order its flows are added in. The tables are indexed by id,
    // and the touched bits are read back in ascending id. The star is
    // unbounded: its ids stop at the job's highest node.
    let star = || 2 * node_ids.iter().max().map_or(0, |&m| m + 1);
    let s = scratch.cover(ids.link_count().unwrap_or_else(star));
    s.received.resize(s.received.len().max(stats.len()), 0);
    s.switches.clear();
    (s.switches).extend(node_ids.iter().map(|&n| ids.switch_of(n)));
    let mut add = |id: LinkId, b: u64| {
        let i = id as usize;
        s.bytes[i] += b;
        s.touched[i / 64] |= 1 << (i % 64);
    };
    // A flow's host links take per-rank sums; only a flow between two
    // switches is routed, link by link.
    let hosts = ids.has_hosts();
    for (rank, st) in stats.iter().enumerate() {
        let (from, mut sent) = (node_ids[rank], 0);
        for (dst, peer) in st.peers.iter().filter(|(_, t)| t.bytes_to > 0) {
            sent += peer.bytes_to;
            s.received[dst] += peer.bytes_to;
            if s.switches[dst] != s.switches[rank] {
                ids.for_each_crossing(from, node_ids[dst], salt, |id| add(id, peer.bytes_to));
            }
        }
        if hosts && sent > 0 {
            add(ids.id(Link::HostUp(from), 0), sent);
        }
    }
    for (&to, got) in node_ids.iter().zip(&mut s.received) {
        let got = std::mem::take(got);
        if hosts && got > 0 {
            add(ids.id(Link::HostDown(to), 0), got);
        }
    }
    out.rates.clear();
    drain_bits(&mut s.touched, |i| {
        (out.rates).push((i as LinkId, std::mem::take(&mut s.bytes[i]) as f64 / step_s));
    });
    let busy: f64 = stats
        .iter()
        .map(|s| s.send_busy_s + s.recv_busy_s + s.wait_s)
        .sum();
    out.comm_frac = (busy / (stats.len() as f64 * step_s)).clamp(0.0, 1.0);
    out.ids = *ids;
}

/// One scheduler epoch's aggregate contention state. Link ids belong
/// to the jobs' shared [`JobTraffic::link_ids`] space.
#[derive(Debug, Clone, Default)]
pub struct ContentionEpoch {
    /// Per-job mean-field slowdown factor (≥ 1.0), in input order.
    /// Exactly `1.0` for a job none of whose links is shared.
    pub factors: Vec<f64>,
    /// Links carrying two or more jobs this epoch, ascending by id.
    pub shared: Vec<LinkId>,
    /// Aggregate bytes-in-flight per second across all jobs, for every
    /// link any job uses, ascending by id.
    pub agg_rates: Vec<(LinkId, f64)>,
}

/// Per-link accumulators [`job_traffic_with`] and [`epoch_with`] reuse
/// from call to call: flat byte and `(aggregate rate, users)` tables
/// indexed by [`LinkId`], one bit per id the current call touched and
/// the bytes each rank receives, all left all-zero between calls; and
/// the switch each rank's node hangs off, which each lowering rewrites.
#[derive(Debug, Default)]
pub struct LinkScratch {
    bytes: Vec<u64>,
    agg: Vec<(f64, u32)>,
    touched: Vec<u64>,
    received: Vec<u64>,
    switches: Vec<usize>,
}

impl LinkScratch {
    /// The tables, grown to cover ids below `n`.
    fn cover(&mut self, n: usize) -> &mut Self {
        if self.bytes.len() < n {
            self.bytes.resize(n, 0);
            self.agg.resize(n, (0.0, 0));
            self.touched.resize(n.div_ceil(64), 0);
        }
        self
    }
}

/// Compute the epoch's aggregate link loads and each job's mean-field
/// slowdown factor. Pure function of the per-job summaries: each
/// link's rates are summed in the order of `jobs`, and a job's delay
/// is the maximum over its own links, so the factors are bit-identical
/// on every host and executor width. All jobs must share one
/// [`LinkIds`] space. A link's effective gap is the edge gap, times
/// the uplink oversubscription on a fat-tree fabric link (the
/// convention [`Topology::path`] charges inside one job).
pub fn epoch(topo: &Topology, gap_s_per_byte: f64, jobs: &[&JobTraffic]) -> ContentionEpoch {
    let (mut out, scratch) = (ContentionEpoch::default(), &mut LinkScratch::default());
    let jobs = jobs.iter().copied();
    epoch_with(scratch, topo, gap_s_per_byte, jobs, &mut out);
    out
}

/// [`epoch`] over caller-kept scratch, written over `out`, so a loop
/// that calls it at every event reuses the per-link table and the
/// epoch's vectors. `jobs` is walked more than once, in one order.
pub fn epoch_with<'a>(
    scratch: &mut LinkScratch,
    topo: &Topology,
    gap_s_per_byte: f64,
    jobs: impl Iterator<Item = &'a JobTraffic> + Clone,
    out: &mut ContentionEpoch,
) {
    out.factors.clear();
    out.shared.clear();
    out.agg_rates.clear();
    let Some(ids) = jobs.clone().next().map(|t| t.ids) else {
        return;
    };
    assert!(
        jobs.clone().all(|t| t.ids == ids),
        "jobs of one epoch must share a link-id space"
    );
    // Rates are ascending by id, so each job's last entry bounds it.
    let len = (jobs.clone().filter_map(|t| t.rates.last()))
        .map(|&(id, _)| id as usize + 1)
        .max()
        .unwrap_or(0);
    let LinkScratch { agg, touched, .. } = scratch.cover(len);
    for t in jobs.clone() {
        for &(id, r) in &t.rates {
            let i = id as usize;
            agg[i].0 += r;
            agg[i].1 += 1;
            touched[i / 64] |= 1 << (i % 64);
        }
    }
    let fabric_gap = match *topo {
        Topology::FatTree {
            uplink_oversubscription: o,
            ..
        } => gap_s_per_byte * o,
        _ => gap_s_per_byte,
    };
    out.factors.extend(jobs.map(|t| {
        let mut worst = 0.0f64;
        for &(id, own) in &t.rates {
            let (total, users) = agg[id as usize];
            if users < 2 {
                continue;
            }
            let gap = if ids.is_fabric(id) {
                fabric_gap
            } else {
                gap_s_per_byte
            };
            let delay = (total - own) * gap;
            if delay > worst {
                worst = delay;
            }
        }
        // A job alone on all its links is untouched: `worst` is the
        // literal 0.0, so the factor is the literal 1.0 and the
        // engine's no-contention arithmetic stays bit-exact.
        if worst == 0.0 {
            1.0
        } else {
            1.0 + t.comm_frac * worst
        }
    }));
    // Touched ids in ascending order, each entry zeroed as it is read.
    drain_bits(touched, |i| {
        let (rate, users) = std::mem::take(&mut agg[i]);
        if users >= 2 {
            out.shared.push(i as LinkId);
        }
        out.agg_rates.push((i as LinkId, rate));
    });
}

/// Visit the indices of the set bits of `words` in ascending order,
/// clearing them.
fn drain_bits(words: &mut [u64], mut visit: impl FnMut(usize)) {
    for (w, word) in words.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Aggregate byte rate per fat-tree *edge group* uplink (tier-1
/// [`Link::Up`] links, any ECMP way, told
/// apart by id range), indexed by edge-switch id — the signal
/// contention-aware placement scores candidate allocations against.
/// Summed in the order of `jobs`, ascending link id within a job.
pub fn edge_uplink_loads(jobs: &[&JobTraffic], ngroups: usize) -> Vec<f64> {
    let mut loads = vec![0.0; ngroups];
    add_edge_uplink_loads(jobs.iter().copied(), &mut loads);
    loads
}

/// [`edge_uplink_loads`] added into caller-kept `loads`, one entry per
/// group, so a loop that scores placements at every event reuses it.
pub fn add_edge_uplink_loads<'a>(jobs: impl Iterator<Item = &'a JobTraffic>, loads: &mut [f64]) {
    for t in jobs {
        for &(id, r) in &t.rates {
            if let Some(sw) = t.ids.edge_uplink(id).filter(|&sw| sw < loads.len()) {
                loads[sw] += r;
            }
        }
    }
}

/// The string-keyed implementation this module replaced, kept as the
/// oracle the integer-id code is differentially tested against: link
/// names as `BTreeMap` keys, prefixes parsed back out of them.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::{drain_bits, LinkScratch};
    use crate::comm::CommStats;
    use crate::topology::{Link, LinkId, LinkIds, Topology};

    #[derive(Debug, Clone, Default)]
    pub struct JobTraffic {
        pub rates: BTreeMap<String, f64>,
        pub comm_frac: f64,
    }

    pub fn contention_links(
        topo: &Topology,
        src: usize,
        dst: usize,
        salt: u64,
        ways: usize,
    ) -> Vec<String> {
        let way = if ways > 1 {
            let mut h = mb_telemetry::Fnv::new();
            h.write_u64(src as u64);
            h.write_u64(dst as u64);
            h.write_u64(salt);
            (h.finish() % ways as u64) as usize
        } else {
            0
        };
        topo.route(src, dst)
            .into_iter()
            .map(|l| match l {
                Link::Up { .. } | Link::Down { .. } if ways > 1 => format!("{l}.w{way}"),
                l => l.to_string(),
            })
            .collect()
    }

    pub fn job_traffic(
        topo: &Topology,
        stats: &[CommStats],
        node_ids: &[usize],
        step_s: f64,
        salt: u64,
        ways: usize,
    ) -> JobTraffic {
        let mut bytes: BTreeMap<String, u64> = BTreeMap::new();
        for (src, s) in stats.iter().enumerate() {
            for (dst, peer) in s.peers.iter() {
                if peer.bytes_to == 0 {
                    continue;
                }
                for link in contention_links(topo, node_ids[src], node_ids[dst], salt, ways) {
                    *bytes.entry(link).or_default() += peer.bytes_to;
                }
            }
        }
        let rates = bytes
            .into_iter()
            .map(|(l, b)| (l, b as f64 / step_s))
            .collect();
        let busy: f64 = stats
            .iter()
            .map(|s| s.send_busy_s + s.recv_busy_s + s.wait_s)
            .sum();
        let comm_frac = (busy / (stats.len() as f64 * step_s)).clamp(0.0, 1.0);
        JobTraffic { rates, comm_frac }
    }

    /// The per-pair lowering `super::job_traffic_with` replaced: every
    /// flow, host links included, routed link by link through
    /// `LinkIds::for_each`.
    pub fn job_traffic_with(
        scratch: &mut LinkScratch,
        ids: &LinkIds,
        stats: &[CommStats],
        node_ids: &[usize],
        step_s: f64,
        salt: u64,
        out: &mut super::JobTraffic,
    ) {
        let star = || 2 * node_ids.iter().max().map_or(0, |&m| m + 1);
        let LinkScratch { bytes, touched, .. } =
            scratch.cover(ids.link_count().unwrap_or_else(star));
        for (src, s) in stats.iter().enumerate() {
            for (dst, peer) in s.peers.iter() {
                if peer.bytes_to == 0 {
                    continue;
                }
                ids.for_each(node_ids[src], node_ids[dst], salt, |id| {
                    let i = id as usize;
                    bytes[i] += peer.bytes_to;
                    touched[i / 64] |= 1 << (i % 64);
                });
            }
        }
        out.rates.clear();
        drain_bits(touched, |i| {
            (out.rates).push((i as LinkId, std::mem::take(&mut bytes[i]) as f64 / step_s));
        });
        let busy: f64 = stats
            .iter()
            .map(|s| s.send_busy_s + s.recv_busy_s + s.wait_s)
            .sum();
        out.comm_frac = (busy / (stats.len() as f64 * step_s)).clamp(0.0, 1.0);
        out.ids = *ids;
    }

    pub fn link_eff_gap(topo: &Topology, gap_s_per_byte: f64, link: &str) -> f64 {
        match *topo {
            Topology::FatTree {
                uplink_oversubscription: o,
                ..
            } if link.starts_with("up:") || link.starts_with("down:") => gap_s_per_byte * o,
            _ => gap_s_per_byte,
        }
    }

    #[derive(Debug, Clone, Default)]
    pub struct ContentionEpoch {
        pub factors: Vec<f64>,
        pub shared: Vec<String>,
        pub agg_rates: BTreeMap<String, f64>,
    }

    pub fn epoch(topo: &Topology, gap_s_per_byte: f64, jobs: &[&JobTraffic]) -> ContentionEpoch {
        let mut agg: BTreeMap<String, (f64, u32)> = BTreeMap::new();
        for t in jobs {
            for (l, r) in &t.rates {
                let e = agg.entry(l.clone()).or_insert((0.0, 0));
                e.0 += r;
                e.1 += 1;
            }
        }
        let factors = jobs
            .iter()
            .map(|t| {
                let mut worst = 0.0f64;
                for (l, own) in &t.rates {
                    let &(total, users) = agg.get(l).expect("own link aggregated");
                    if users < 2 {
                        continue;
                    }
                    let delay = (total - own) * link_eff_gap(topo, gap_s_per_byte, l);
                    if delay > worst {
                        worst = delay;
                    }
                }
                if worst == 0.0 {
                    1.0
                } else {
                    1.0 + t.comm_frac * worst
                }
            })
            .collect();
        let shared = agg
            .iter()
            .filter(|(_, &(_, users))| users >= 2)
            .map(|(l, _)| l.clone())
            .collect();
        let agg_rates = agg.into_iter().map(|(l, (r, _))| (l, r)).collect();
        ContentionEpoch {
            factors,
            shared,
            agg_rates,
        }
    }

    pub fn edge_uplink_loads(jobs: &[&JobTraffic], ngroups: usize) -> Vec<f64> {
        let mut loads = vec![0.0; ngroups];
        for t in jobs {
            for (l, r) in &t.rates {
                let Some(rest) = l.strip_prefix("up:l1.s") else {
                    continue;
                };
                let digits: &str = rest.split_once('.').map_or(rest, |(head, _)| head);
                if let Ok(g) = digits.parse::<usize>() {
                    if g < ngroups {
                        loads[g] += r;
                    }
                }
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::comm::PeerTraffic;
    use crate::topology::seeded_rng as rng;
    use crate::topology::Link;

    fn stats_pair(bytes: u64) -> Vec<CommStats> {
        // Rank 0 sends `bytes` to rank 1 and spends half the step busy.
        let mut s0 = CommStats {
            send_busy_s: 0.5,
            ..CommStats::default()
        };
        *s0.peers.entry(1) = PeerTraffic {
            msgs_to: 1,
            bytes_to: bytes,
            ..PeerTraffic::default()
        };
        vec![s0, CommStats::default()]
    }

    /// A job's rates keyed by report name.
    fn named_rates(t: &JobTraffic) -> BTreeMap<String, f64> {
        t.rates.iter().map(|&(id, r)| (t.ids.name(id), r)).collect()
    }

    #[test]
    fn job_traffic_folds_bytes_over_contention_links() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        // Ranks on nodes 0 and 4: a cross-switch route.
        let t = job_traffic(&ft, &stats_pair(1000), &[0, 4], 2.0, 7, 1);
        let rates = named_rates(&t);
        assert_eq!(rates["host-up:0"], 500.0);
        assert_eq!(rates["up:l1.s0"], 500.0);
        assert_eq!(rates["down:l1.s1"], 500.0);
        assert_eq!(rates["host-down:4"], 500.0);
        // comm_frac: 0.5 busy seconds over 2 ranks × 2 s.
        assert!((t.comm_frac - 0.125).abs() < 1e-12);
        // On the star the ids run up to the job's highest node.
        let star = job_traffic(&Topology::Star, &stats_pair(1000), &[9, 3], 2.0, 7, 1);
        assert_eq!(
            named_rates(&star).keys().collect::<Vec<_>>(),
            ["host-down:3", "host-up:9"]
        );
        // Same-switch placement uses no fabric links.
        let local = job_traffic(&ft, &stats_pair(1000), &[0, 1], 2.0, 7, 1);
        assert!(named_rates(&local).keys().all(|l| l.starts_with("host-")));
    }

    #[test]
    fn lone_jobs_and_disjoint_links_charge_exactly_one() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        let a = job_traffic(&ft, &stats_pair(1000), &[0, 4], 1.0, 0, 1);
        // Alone: factor is the literal 1.0.
        let ep = epoch(&ft, 8e-8, &[&a]);
        assert_eq!(ep.factors, vec![1.0]);
        assert!(ep.shared.is_empty());
        // Two jobs on disjoint switch pairs: still exactly 1.0.
        let b = job_traffic(&ft, &stats_pair(1000), &[8, 12], 1.0, 1, 1);
        let ep = epoch(&ft, 8e-8, &[&a, &b]);
        assert_eq!(ep.factors, vec![1.0, 1.0]);
        // No jobs, no state.
        assert!(epoch(&ft, 8e-8, &[]).factors.is_empty());
    }

    #[test]
    fn shared_uplinks_slow_both_jobs_by_the_foreign_load() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        let gap = 8e-8; // 100 Mb/s edge links
                        // Both jobs cross the same s0→s1 uplink.
        let a = job_traffic(&ft, &stats_pair(1_000_000), &[0, 4], 1.0, 0, 1);
        let b = job_traffic(&ft, &stats_pair(1_000_000), &[1, 5], 1.0, 1, 1);
        let ep = epoch(&ft, gap, &[&a, &b]);
        let uplink = a.ids.id(Link::Up { level: 1, sw: 0 }, 0);
        assert!(ep.shared.contains(&uplink), "{ep:?}");
        // Foreign load 1 MB/s at 4×-oversubscribed gap = 0.32 extra
        // seconds per second, scaled by each job's comm fraction.
        let expect = 1.0 + a.comm_frac * (1_000_000.0 * gap * 4.0);
        assert!((ep.factors[0] - expect).abs() < 1e-9, "{:?}", ep.factors);
        assert_eq!(ep.factors[0], ep.factors[1]);
        assert!(ep.factors[0] > 1.0);
        // Aggregate rate on the shared uplink is the sum of both flows.
        let (_, rate) = ep.agg_rates.iter().find(|&&(id, _)| id == uplink).unwrap();
        assert!((rate - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn ecmp_spreading_can_separate_colliding_flows() {
        let ft = Topology::fat_tree(16, 2, 4.0);
        let ways = ft.ecmp_ways();
        // Many same-pair jobs without spreading all pile onto one
        // uplink name; with spreading they hash across ways.
        let jobs: Vec<JobTraffic> = (0..8)
            .map(|salt| job_traffic(&ft, &stats_pair(1000), &[0, 16], 1.0, salt, ways))
            .collect();
        let refs: Vec<&JobTraffic> = jobs.iter().collect();
        let ep = epoch(&ft, 8e-8, &refs);
        let uplinks: BTreeSet<LinkId> = jobs
            .iter()
            .flat_map(|t| t.rates.iter().map(|&(id, _)| id))
            .filter(|&id| matches!(jobs[0].ids.link(id).0, Link::Up { .. }))
            .collect();
        assert!(uplinks.len() > 1, "{uplinks:?}");
        // Spreading must never slow things down versus one shared pipe.
        let unspread: Vec<JobTraffic> = (0..8)
            .map(|salt| job_traffic(&ft, &stats_pair(1000), &[0, 16], 1.0, salt, 1))
            .collect();
        let urefs: Vec<&JobTraffic> = unspread.iter().collect();
        let uep = epoch(&ft, 8e-8, &urefs);
        for (s, u) in ep.factors.iter().zip(&uep.factors) {
            assert!(s <= u, "spread {s} > unspread {u}");
        }
    }

    #[test]
    fn edge_uplink_loads_index_by_group_and_count_every_way() {
        let ft = Topology::fat_tree(4, 2, 1.0);
        let ids = LinkIds::new(&ft, 4);
        let job = |links: &[(Link, usize, f64)]| {
            let mut rates: Vec<(LinkId, f64)> =
                links.iter().map(|&(l, w, r)| (ids.id(l, w), r)).collect();
            rates.sort_unstable_by_key(|&(id, _)| id);
            JobTraffic {
                rates,
                ids,
                comm_frac: 0.0,
            }
        };
        let a = job(&[
            (Link::Up { level: 1, sw: 0 }, 0, 100.0),
            (Link::Up { level: 1, sw: 2 }, 3, 50.0),
            (Link::Down { level: 1, sw: 1 }, 0, 70.0), // downlinks not counted
            (Link::HostUp(5), 0, 10.0),
        ]);
        let b = job(&[(Link::Up { level: 1, sw: 0 }, 1, 25.0)]);
        assert_eq!(edge_uplink_loads(&[&a, &b], 4), vec![125.0, 0.0, 50.0, 0.0]);
        // Groups past `ngroups` are dropped, not a panic.
        assert_eq!(edge_uplink_loads(&[&a, &b], 2), vec![125.0, 0.0]);
    }

    #[test]
    fn scratch_is_left_clean_between_epochs() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        let mut scratch = LinkScratch::default();
        let clean = |s: &LinkScratch| {
            assert!(s.touched.iter().all(|&w| w == 0));
            assert!(s.bytes.iter().all(|&b| b == 0));
            assert!(s.agg.iter().all(|&e| e == (0.0, 0)));
            assert!(s.received.iter().all(|&b| b == 0));
        };
        // One scratch lowers both jobs into reused tables.
        let (ids, mut a, mut b) = (
            LinkIds::new(&ft, 1),
            JobTraffic::default(),
            JobTraffic::default(),
        );
        let pair = stats_pair(1_000_000);
        job_traffic_with(&mut scratch, &ids, &pair, &[0, 4], 1.0, 0, &mut b);
        job_traffic_with(&mut scratch, &ids, &pair, &[0, 4], 1.0, 0, &mut a);
        job_traffic_with(&mut scratch, &ids, &pair, &[1, 5], 1.0, 1, &mut b);
        clean(&scratch);
        for (t, nodes) in [(&a, [0, 4]), (&b, [1, 5])] {
            let fresh = job_traffic(&ft, &pair, &nodes, 1.0, 0, 1);
            assert_eq!(t.rates, fresh.rates);
            assert_eq!(t.comm_frac.to_bits(), fresh.comm_frac.to_bits());
        }
        // A view written over another job's view is that job's view.
        let mut view = b.shareable();
        a.shareable_into(&mut view);
        assert_eq!(view.rates, a.shareable().rates);
        let mut run = |jobs: &[&JobTraffic], out: &mut ContentionEpoch| {
            epoch_with(&mut scratch, &ft, 8e-8, jobs.iter().copied(), out);
        };
        let (mut first, mut out) = (ContentionEpoch::default(), ContentionEpoch::default());
        run(&[&a, &b], &mut first);
        // A smaller set after a larger one sees none of its residue, in
        // the scratch or in the epoch it writes over.
        run(&[&a, &b], &mut out);
        run(&[&a], &mut out);
        assert_eq!((out.factors.as_slice(), out.shared.len()), (&[1.0][..], 0));
        run(&[], &mut out);
        assert!(out.factors.is_empty() && out.agg_rates.is_empty());
        run(&[&a, &b], &mut out);
        assert_eq!(first.factors, out.factors);
        assert_eq!(first.shared, out.shared);
        assert_eq!(first.agg_rates, out.agg_rates);
        clean(&scratch);
    }

    /// A random job: `width` distinct nodes out of `cap`, each rank
    /// sending a random byte count to a few random peers.
    fn random_job(r: &mut impl FnMut(usize) -> usize, cap: usize) -> (Vec<CommStats>, Vec<usize>) {
        let width = 2 + r(10.min(cap - 1));
        let mut nodes: Vec<usize> = (0..cap).collect();
        for j in 0..width {
            nodes.swap(j, j + r(cap - j));
        }
        nodes.truncate(width);
        (random_stats(r, width), nodes)
    }

    /// Per-rank counters of a random `width`-rank step.
    fn random_stats(r: &mut impl FnMut(usize) -> usize, width: usize) -> Vec<CommStats> {
        (0..width)
            .map(|rank| {
                let mut s = CommStats {
                    send_busy_s: r(1000) as f64 * 1e-4,
                    recv_busy_s: r(1000) as f64 * 1e-4,
                    wait_s: r(1000) as f64 * 1e-4,
                    ..CommStats::default()
                };
                for _ in 0..1 + r(4) {
                    let peer = r(width);
                    if peer != rank {
                        s.peers.entry(peer).bytes_to += 1 + r(3_000_000) as u64;
                    }
                }
                s
            })
            .collect()
    }

    #[test]
    fn integer_ids_agree_with_the_string_keyed_reference_bit_for_bit() {
        let ft16 = Topology::fat_tree(16, 2, 4.0);
        let cases = [
            (ft16, 1),
            (ft16, ft16.ecmp_ways()),
            (Topology::fat_tree(4, 3, 2.0), 1),
            (Topology::fat_tree(4, 3, 2.0), 2),
            (Topology::torus([4, 4, 2]), 1),
        ];
        let gap = 8e-8;
        for (topo, ways) in cases {
            let cap = topo.capacity().unwrap();
            let ngroups = match topo {
                Topology::FatTree { radix, .. } => cap / radix,
                _ => 4,
            };
            let mut scratch = LinkScratch::default();
            let mut reused = ContentionEpoch::default();
            let mut reused_job = JobTraffic::default();
            let mut contended = 0;
            for seed in [1u64, 42, 2002] {
                let mut r = rng(seed);
                for _ in 0..40 {
                    let mix: Vec<(JobTraffic, reference::JobTraffic)> = (0..1 + r(12))
                        .map(|job| {
                            let (stats, nodes) = random_job(&mut r, cap);
                            let step_s = 0.25 + r(4000) as f64 * 1e-3;
                            let salt = job as u64 + 1000 * seed;
                            let fresh = job_traffic(&topo, &stats, &nodes, step_s, salt, ways);
                            // The engine's form: shared scratch, reused output.
                            let ids = LinkIds::new(&topo, ways);
                            job_traffic_with(
                                &mut scratch,
                                &ids,
                                &stats,
                                &nodes,
                                step_s,
                                salt,
                                &mut reused_job,
                            );
                            assert_eq!(reused_job.rates, fresh.rates);
                            assert_eq!(reused_job.comm_frac.to_bits(), fresh.comm_frac.to_bits());
                            (
                                fresh,
                                reference::job_traffic(&topo, &stats, &nodes, step_s, salt, ways),
                            )
                        })
                        .collect();
                    let new: Vec<&JobTraffic> = mix.iter().map(|m| &m.0).collect();
                    let old: Vec<&reference::JobTraffic> = mix.iter().map(|m| &m.1).collect();
                    let ctx = format!("{} ways {ways} seed {seed}", topo.label());
                    // Per-job lowering: same names, same rate bits.
                    let bits = |m: BTreeMap<String, f64>| -> Vec<(String, u64)> {
                        m.into_iter().map(|(l, v)| (l, v.to_bits())).collect()
                    };
                    for (n, o) in new.iter().zip(&old) {
                        assert!(n.rates.windows(2).all(|w| w[0].0 < w[1].0), "{ctx}");
                        assert_eq!(bits(named_rates(n)), bits(o.rates.clone()), "{ctx}");
                        assert_eq!(n.comm_frac.to_bits(), o.comm_frac.to_bits(), "{ctx}");
                    }
                    // The epoch: factors, shared names, aggregate bits.
                    let ids = *new[0].link_ids();
                    let want = reference::epoch(&topo, gap, &old);
                    contended += want.factors.iter().filter(|&&f| f > 1.0).count();
                    epoch_with(&mut scratch, &topo, gap, new.iter().copied(), &mut reused);
                    for got in [epoch(&topo, gap, &new), reused.clone()] {
                        let f = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(f(&got.factors), f(&want.factors), "{ctx}");
                        assert!(got.shared.windows(2).all(|w| w[0] < w[1]), "{ctx}");
                        let mut shared: Vec<String> =
                            got.shared.iter().map(|&id| ids.name(id)).collect();
                        shared.sort();
                        assert_eq!(shared, want.shared, "{ctx}");
                        let agg = got
                            .agg_rates
                            .iter()
                            .map(|&(id, v)| (ids.name(id), v))
                            .collect();
                        assert_eq!(bits(agg), bits(want.agg_rates.clone()), "{ctx}");
                    }
                    // Placement's group loads.
                    let got = edge_uplink_loads(&new, ngroups);
                    let want = reference::edge_uplink_loads(&old, ngroups);
                    assert_eq!(
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{ctx}"
                    );
                }
            }
            assert!(contended > 100, "{}: mixes barely share", topo.label());
        }
    }

    /// The topologies and ECMP ways of the string-keyed differential
    /// test above.
    fn oracle_cases() -> [(Topology, usize); 5] {
        let ft16 = Topology::fat_tree(16, 2, 4.0);
        [
            (ft16, 1),
            (ft16, ft16.ecmp_ways()),
            (Topology::fat_tree(4, 3, 2.0), 1),
            (Topology::fat_tree(4, 3, 2.0), 2),
            (Topology::torus([4, 4, 2]), 1),
        ]
    }

    /// Edge groups placement scores on `topo`.
    fn ngroups(topo: &Topology) -> usize {
        match *topo {
            Topology::FatTree { radix, .. } => topo.capacity().unwrap() / radix,
            _ => 4,
        }
    }

    fn f64_bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn shareable_views_price_jobs_on_disjoint_nodes_as_their_full_traffic() {
        let gap = 8e-8;
        for (topo, ways) in oracle_cases() {
            let cap = topo.capacity().unwrap();
            let mut contended = 0;
            for seed in [3u64, 77, 2002] {
                let mut r = rng(seed);
                for mix in 0..40u64 {
                    // Nodes handed out from one shuffled list, so no two
                    // jobs share one, as the scheduler allocates them.
                    let mut free: Vec<usize> = (0..cap).collect();
                    for j in 0..cap {
                        free.swap(j, j + r(cap - j));
                    }
                    let mut jobs: Vec<JobTraffic> = Vec::new();
                    while jobs.len() < 12 && free.len() >= 2 {
                        let width = 2 + r(10.min(free.len() - 1));
                        let nodes = free.split_off(free.len() - width);
                        let step_s = 0.25 + r(4000) as f64 * 1e-3;
                        let salt = 100 * mix + jobs.len() as u64;
                        let stats = random_stats(&mut r, width);
                        jobs.push(job_traffic(&topo, &stats, &nodes, step_s, salt, ways));
                    }
                    let views: Vec<JobTraffic> = jobs.iter().map(JobTraffic::shareable).collect();
                    let full: Vec<&JobTraffic> = jobs.iter().collect();
                    let shareable: Vec<&JobTraffic> = views.iter().collect();
                    let ids = *jobs[0].link_ids();
                    let ctx = format!("{} ways {ways} seed {seed} mix {mix}", topo.label());
                    for (t, v) in jobs.iter().zip(&views) {
                        let private = |&&(id, _): &&(LinkId, f64)| !ids.is_host(id);
                        let kept: Vec<_> = t.rates.iter().filter(private).copied().collect();
                        assert_eq!(v.rates, kept, "{ctx}");
                        assert_eq!(v.comm_frac.to_bits(), t.comm_frac.to_bits(), "{ctx}");
                    }
                    let (want, got) = (epoch(&topo, gap, &full), epoch(&topo, gap, &shareable));
                    contended += want.factors.iter().filter(|&&f| f > 1.0).count();
                    assert_eq!(f64_bits(got.factors), f64_bits(want.factors), "{ctx}");
                    assert_eq!(got.shared, want.shared, "{ctx}");
                    let off_host = |v: &[(LinkId, f64)]| -> Vec<(LinkId, u64)> {
                        (v.iter().filter(|&&(id, _)| !ids.is_host(id)))
                            .map(|&(id, x)| (id, x.to_bits()))
                            .collect()
                    };
                    assert_eq!(off_host(&got.agg_rates), off_host(&want.agg_rates), "{ctx}");
                    assert_eq!(got.agg_rates.len(), off_host(&got.agg_rates).len(), "{ctx}");
                    assert_eq!(
                        f64_bits(edge_uplink_loads(&shareable, ngroups(&topo))),
                        f64_bits(edge_uplink_loads(&full, ngroups(&topo))),
                        "{ctx}"
                    );
                }
            }
            assert!(contended > 100, "{}: mixes barely share", topo.label());
        }
    }

    #[test]
    fn jobs_on_one_node_share_its_host_links_which_the_views_omit() {
        // The negative control: the views are exact only on disjoint
        // nodes. Two jobs sending out of node 0 under one edge switch
        // share `host-up:0` and nothing else, so the full traffic slows
        // both while the views see no link at all.
        let ft = Topology::fat_tree(4, 2, 4.0);
        let a = job_traffic(&ft, &stats_pair(1_000_000), &[0, 1], 1.0, 0, 1);
        let b = job_traffic(&ft, &stats_pair(1_000_000), &[0, 2], 1.0, 1, 1);
        let full = epoch(&ft, 8e-8, &[&a, &b]);
        assert_eq!(full.shared, [a.ids.id(Link::HostUp(0), 0)]);
        assert!(full.factors.iter().all(|&f| f > 1.0), "{full:?}");
        let (va, vb) = (a.shareable(), b.shareable());
        assert!(va.rates().is_empty() && vb.rates().is_empty());
        assert_eq!(epoch(&ft, 8e-8, &[&va, &vb]).factors, [1.0, 1.0]);
    }

    /// Per-rank counters for the lowering oracle: rows that send to
    /// themselves, rows of zero-byte entries, quiet rows, and
    /// `bytes_sent` left at 0 as hand-built stats leave it.
    fn lowering_stats(r: &mut impl FnMut(usize) -> usize, width: usize) -> Vec<CommStats> {
        (0..width)
            .map(|rank| {
                let mut s = CommStats {
                    send_busy_s: r(1000) as f64 * 1e-4,
                    wait_s: r(1000) as f64 * 1e-4,
                    ..CommStats::default()
                };
                match r(5) {
                    0 => {}
                    1 => {
                        for _ in 0..1 + r(3) {
                            s.peers.entry(r(width)).msgs_to += 1;
                        }
                    }
                    2 => s.peers.entry(rank).bytes_to += 1 + r(5000) as u64,
                    _ => {
                        for _ in 0..1 + r(6) {
                            let b = [0, 1 + r(100), 1 + r(3_000_000)][r(3)];
                            s.peers.entry(r(width)).bytes_to += b as u64;
                        }
                    }
                }
                s
            })
            .collect()
    }

    #[test]
    fn launch_lowering_agrees_with_the_per_pair_reference_bit_for_bit() {
        let (ft16, ft6) = (
            Topology::fat_tree(16, 2, 4.0),
            Topology::fat_tree(6, 2, 2.0),
        );
        assert_eq!(ft6.ecmp_ways(), 3);
        // A torus first: one scratch serves every space in turn, and
        // must come back clean from one that has no host links.
        let cases = [
            (Topology::torus([8, 4, 2]), 1),
            (Topology::Star, 1),
            (ft16, 1),
            (ft16, ft16.ecmp_ways()),
            (Topology::torus([4, 4, 2]), 1),
            (Topology::fat_tree(16, 3, 4.0), 4),
            (ft6, ft6.ecmp_ways()),
        ];
        let (mut scratch, mut got) = (LinkScratch::default(), JobTraffic::default());
        for (case, (topo, ways)) in cases.into_iter().enumerate() {
            let (ids, cap) = (LinkIds::new(&topo, ways), topo.capacity().unwrap_or(48));
            let (mut old, mut want) = (LinkScratch::default(), JobTraffic::default());
            let (mut r, mut fabric, mut host) = (rng(case as u64 + 5), 0, 0);
            for job in 0..400u64 {
                // Distinct nodes, unsorted, from a window that packs
                // them under one switch or spreads them over the tree.
                let width = 1 + r(16.min(cap));
                let span = [width, 2 * width, 16 * width, cap][r(4)].min(cap);
                let offset = r(cap - span + 1);
                let mut window: Vec<usize> = (offset..offset + span).collect();
                for j in 0..width {
                    window.swap(j, j + r(span - j));
                }
                let nodes = &window[..width];
                let stats = lowering_stats(&mut r, width);
                let step_s = 0.25 + r(4000) as f64 * 1e-3;
                job_traffic_with(&mut scratch, &ids, &stats, nodes, step_s, job, &mut got);
                reference::job_traffic_with(&mut old, &ids, &stats, nodes, step_s, job, &mut want);
                let ctx = format!("{} ways {ways} job {job} nodes {nodes:?}", topo.label());
                let bits = |t: &JobTraffic| -> Vec<(LinkId, u64)> {
                    t.rates().iter().map(|&(id, v)| (id, v.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{ctx}");
                assert_eq!(got.comm_frac.to_bits(), want.comm_frac.to_bits(), "{ctx}");
                assert_eq!(got.ids, want.ids, "{ctx}");
                fabric += got
                    .rates()
                    .iter()
                    .filter(|&&(id, _)| !ids.is_host(id))
                    .count();
                host += got
                    .rates()
                    .iter()
                    .filter(|&&(id, _)| ids.is_host(id))
                    .count();
            }
            // Each shape lowers links of the kinds it has.
            let star = topo == Topology::Star;
            let torus = matches!(topo, Topology::Torus { .. });
            assert!((fabric > 500) != star, "{}: {fabric} fabric", topo.label());
            assert!((host > 500) != torus, "{}: {host} host", topo.label());
        }
    }

    #[test]
    #[should_panic(expected = "node 16 is outside the topology")]
    fn lowering_a_node_outside_the_topology_panics() {
        let ft = Topology::fat_tree(4, 2, 4.0);
        job_traffic(&ft, &stats_pair(1000), &[0, 16], 1.0, 0, ft.ecmp_ways());
    }
}
