//! The calibrated closed-form service-cost model.
//!
//! [`mb_sched::ServiceModel`] prices a job by *running* one SPMD step
//! on the simulated cluster — exact, but a real executor pass per
//! distinct `(pattern, node set)`. A 10⁵–10⁶-job open stream cannot
//! afford that on the hot path. [`CostModel`] replaces it with a
//! closed form: each step pattern is reduced to three physical
//! features — critical-path compute seconds, fixed per-message network
//! costs (overheads and hop latencies over the *actual* node pairs the
//! collective touches, via [`mb_cluster::NetworkModel`]), and
//! byte-serialization seconds — and a per-pattern coefficient triple
//! fitted by least squares against executor-measured step times
//! ([`CostModel::calibrate`]). Priced steps are held in one exact
//! table: per `(step key, width)`, the reference prefix `0..w`, and the
//! [route classes](mb_cluster::Topology::route_class) priced so far,
//! compared in full (a class fixes every `path` a price reads). The
//! prefix is known in O(1) — its last id is `w - 1` — and needs no
//! class; any other set is one class lookup, on the star the same one
//! for every set of one width. A miss prices each route profile once per
//! payload size of the step ([`NetworkModel::flight_on`]), however many
//! rank pairs share it; on a fat tree a pair's profile follows from
//! where its nodes' switch ancestors meet, taken once per rank. The
//! synthesized stats read the node set only through its width and the
//! step time only through `wait_s`, so a miss whose step time an entry
//! already holds shares those stats, and any other miss of a priced
//! entry copies them and sets only `wait_s`.
//!
//! Determinism: the calibration measurements are [`ServiceModel`] steps,
//! stackless runs that no executor policy reaches, and the fit itself is
//! a fixed-order computation — so the fitted coefficients (and every
//! price derived from them) are bit-identical on every host and under
//! every executor policy.
//!
//! The step's shape — per-rank flops, ring rounds, closing collective —
//! is [`WorkModel::shape`] and [`WorkModel::flops_for_rank`], the same
//! statement [`WorkModel::run_step`] executes, so the closed form and the
//! measurement it is fitted to cannot drift apart. The messages of that
//! shape are written once, in `exchanges`: the price folds them into
//! per-phase slowest-rank costs, and the synthesized per-rank
//! [`CommStats`], which the contention layer folds over topology routes,
//! into per-peer counters. They follow the ring successor and the
//! all-to-all peers exactly. `exchanges` is also where the model's one
//! approximation lives: an allreduce is recursive-doubling partner pairs,
//! while [`mb_cluster::Comm::allreduce_sum`] is a binomial reduce to rank
//! 0 followed by a broadcast, so from width 4 on its real peers differ.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::iter::successors;
use std::sync::Arc;

use mb_cluster::machine::Cluster;
use mb_cluster::{ClusterSpec, CommStats, ExecPolicy, NetworkModel, NodeSet, Topology};
use mb_sched::job::{StepShape, Tail};
use mb_sched::{ServiceModel, ServiceOracle, StepProfile, WorkModel};

/// The step pattern key the memo and coefficient tables index by.
type StepKey = (u8, u64, u64, u64);

/// One calibration observation: a measured step against its closed-form
/// prediction.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationSample {
    /// Pattern key.
    pub step_key: StepKey,
    /// Job width the step was measured at.
    pub width: usize,
    /// Executor-measured step seconds.
    pub measured_s: f64,
    /// Fitted closed-form step seconds.
    pub predicted_s: f64,
}

/// What a calibration pass produced: every (pattern, width) sample with
/// its post-fit prediction.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    /// All fitted samples.
    pub samples: Vec<CalibrationSample>,
}

impl CalibrationReport {
    /// Worst relative error over all samples.
    pub fn max_rel_error(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| (s.predicted_s - s.measured_s).abs() / s.measured_s)
            .fold(0.0, f64::max)
    }

    /// Mean relative error over all samples.
    pub fn mean_rel_error(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| (s.predicted_s - s.measured_s).abs() / s.measured_s)
            .sum::<f64>()
            / self.samples.len() as f64
    }
}

/// The calibrated closed-form service oracle (see module docs).
pub struct CostModel {
    spec: ClusterSpec,
    net: NetworkModel,
    /// Fitted `[compute, fixed-cost, serialization]` coefficients per
    /// step pattern; patterns never calibrated price at the identity.
    coeffs: HashMap<StepKey, [f64; 3]>,
    /// The price table: `(step key, width)` → its priced steps.
    memo: RefCell<Table<(StepKey, usize), Entry>>,
    /// The route class of the set being priced.
    class: RefCell<Vec<usize>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

type Table<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The steps priced for one `(step key, width)`.
#[derive(Default)]
struct Entry {
    /// One profile per distinct step time.
    profiles: Vec<StepProfile>,
    /// Each route class priced so far → its profile.
    classes: Table<Box<[usize]>, usize>,
    /// The reference prefix's profile, once priced.
    prefix: Option<usize>,
}

impl CostModel {
    /// An uncalibrated model for `spec` (identity coefficients: the raw
    /// closed form with no fit applied).
    pub fn new(spec: ClusterSpec) -> Self {
        let net = NetworkModel::new(spec.network);
        Self {
            spec,
            net,
            coeffs: HashMap::new(),
            memo: RefCell::default(),
            class: RefCell::default(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Calibrate against executor-measured step times
    /// ([`ServiceModel`] runs). `_exec` is not read: every step runs
    /// stackless, whatever the policy, so the fitted coefficients are the
    /// same for any value.
    pub fn calibrate(&mut self, patterns: &[WorkModel], _exec: ExecPolicy) -> CalibrationReport {
        let cluster = Cluster::new(self.spec.clone());
        let service = ServiceModel::new(&cluster);
        let widths: Vec<usize> = [1usize, 2, 3, 4, 6, 8, 12, 16, 24]
            .iter()
            .map(|&w| w.min(self.spec.nodes))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();

        // Group (features, measured) samples by step pattern.
        let mut by_key: HashMap<StepKey, Vec<([f64; 3], f64, usize)>> = HashMap::new();
        let mut keys_in_order: Vec<StepKey> = Vec::new();
        for work in patterns {
            let key = work.step_key();
            if !by_key.contains_key(&key) {
                keys_in_order.push(key);
            }
            let rows = by_key.entry(key).or_default();
            for &w in &widths {
                let nodes = NodeSet::new((0..w).collect());
                let measured = service.step_on(work, &nodes);
                rows.push((self.features(work, &nodes), measured, w));
            }
        }

        let mut report = CalibrationReport::default();
        for key in keys_in_order {
            let rows = &by_key[&key];
            let c = fit_nonneg(rows);
            self.coeffs.insert(key, c);
            for (x, y, w) in rows {
                report.samples.push(CalibrationSample {
                    step_key: key,
                    width: *w,
                    measured_s: *y,
                    predicted_s: dot(&c, x),
                });
            }
        }
        // A recalibration invalidates every memoized price.
        self.memo.borrow_mut().clear();
        report
    }

    /// Memo lookups that found a priced step.
    pub fn memo_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Memo lookups that had to price a fresh step.
    pub fn memo_misses(&self) -> u64 {
        self.misses.get()
    }

    /// Distinct priced steps currently memoized: the classes held.
    pub fn memo_len(&self) -> usize {
        self.memo.borrow().values().map(|e| e.classes.len()).sum()
    }

    /// `read` of the profile of `work` on `nodes`, from the table or
    /// priced into it. Two sets of one width and class share a profile,
    /// because the step's price and its synthesized stats read node ids
    /// only through [`Topology::path`], which the class fixes pair by
    /// pair.
    fn priced<R>(
        &self,
        work: &WorkModel,
        nodes: &NodeSet,
        read: impl FnOnce(&StepProfile) -> R,
    ) -> R {
        assert!(!nodes.is_empty(), "step needs at least one node");
        let w = nodes.len();
        let mut memo = self.memo.borrow_mut();
        let entry = memo.entry((work.step_key(), w)).or_default();
        // Ids ascend and are distinct: `0..w` ends at `w - 1`.
        let prefix = nodes.ids()[w - 1] == w - 1;
        let known = entry.prefix.filter(|_| prefix).or_else(|| {
            let mut class = self.class.borrow_mut();
            class.clear();
            class.extend(self.spec.network.topology.route_class(nodes));
            entry.classes.get(&class[..]).copied()
        });
        let i = known.unwrap_or_else(|| self.price(work, nodes, entry));
        self.hits.set(self.hits.get() + u64::from(known.is_some()));
        if prefix {
            entry.prefix = Some(i);
        }
        read(&entry.profiles[i])
    }

    /// A miss: price `work` on `nodes` into `entry` under the class just
    /// taken, and return the index of its profile. The stats read the
    /// node set only through its width and the step time only through
    /// `wait_s`, so a profile of equal step time is shared and any other
    /// lends its stats.
    fn price(&self, work: &WorkModel, nodes: &NodeSet, entry: &mut Entry) -> usize {
        self.misses.set(self.misses.get() + 1);
        let c = self.coeffs.get(&work.step_key()).unwrap_or(&[1.0; 3]);
        // Floor keeps step_s strictly positive (the contention layer
        // divides by it).
        let step_s = dot(c, &self.features(work, nodes)).max(1.0e-9);
        let same = |p: &StepProfile| p.step_s.to_bits() == step_s.to_bits();
        let profiles = &mut entry.profiles;
        let lend = |st: &CommStats| waited(st.clone(), step_s);
        let i = profiles.iter().position(same).unwrap_or_else(|| {
            let stats = match profiles.first() {
                Some(p) => p.stats.iter().map(lend).collect(),
                None => self.synth_stats(work, nodes, step_s),
            };
            let stats = Arc::new(stats);
            profiles.push(StepProfile { step_s, stats });
            profiles.len() - 1
        });
        entry.classes.insert(self.class.borrow()[..].into(), i);
        i
    }

    /// Compute-rate denominator, flops per second.
    fn flops_rate(&self) -> f64 {
        self.spec.node.cpu.sustained_mflops * 1.0e6
    }

    /// The three closed-form features of one step on one node set:
    /// `[critical-path compute s, fixed message costs s, serialization s]`.
    /// A rank's messages of one [`exchanges`] phase add up, the slowest
    /// rank prices the phase, and the phase counts `weight` times.
    fn features(&self, work: &WorkModel, nodes: &NodeSet) -> [f64; 3] {
        let p = nodes.len();
        let rate = self.flops_rate();
        let compute = (0..p)
            .map(|r| work.flops_for_rank(r) / rate)
            .fold(0.0, f64::max);
        let mut split = self.pricer(nodes.ids());
        let worst = |(af, as_): (f64, f64), (bf, bs): (f64, f64)| (af.max(bf), as_.max(bs));
        let (mut at, mut weight) = ((usize::MAX, 0), 0.0);
        let (mut total, mut slowest, mut sum) = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0));
        let mut fold = |phase, w, r, (f, s): (f64, f64)| {
            if (phase, r) != at {
                slowest = worst(slowest, sum);
                sum = (0.0, 0.0);
                if phase != at.0 {
                    total = (total.0 + weight * slowest.0, total.1 + weight * slowest.1);
                    (slowest, weight) = ((0.0, 0.0), w);
                }
                at = (phase, r);
            }
            sum = (sum.0 + f, sum.1 + s);
        };
        exchanges(work.shape(), p, |phase, w, r, to, _, bytes, _| {
            fold(phase, w, r, split(r, to, bytes));
        });
        // A phase past the last closes it.
        fold(usize::MAX, 0.0, 0, (0.0, 0.0));
        [compute, total.0, total.1]
    }

    /// The full cost of a `bytes`-byte message from rank `i` to rank `j`
    /// of a step on `ids`, split into its zero-byte fixed part and the
    /// remainder, once per route profile and size. A fat-tree pair's
    /// profile is the count of tiers its nodes' switch ancestors (taken
    /// once per rank) differ at; elsewhere it is [`Topology::path`]'s.
    fn pricer<'a>(&'a self, ids: &'a [usize]) -> impl FnMut(usize, usize, u64) -> (f64, f64) + 'a {
        let (net, topo) = (&self.net, self.net.topology());
        let tree = matches!(topo, Topology::FatTree { .. });
        let (mut tiers, mut ancestors, mut profiles) = (0, Vec::new(), Vec::new());
        if let Topology::FatTree { radix, .. } = topo {
            let climb = |n: usize| successors(Some(n / radix), move |&a| Some(a / radix));
            tiers = climb(ids.last().map_or(0, |&n| n))
                .take_while(|&a| a > 0)
                .count();
            ancestors = ids.iter().flat_map(|&n| climb(n).take(tiers)).collect();
            // Nodes 0 and `radix^t` differ at `t` tiers.
            profiles = (0..=tiers)
                .map(|t| topo.path(0, radix.pow(t as u32)))
                .collect();
        }
        let mut splits: Vec<(usize, u64, (f64, f64))> = Vec::new();
        move |i, j, bytes| {
            let route = if tree {
                let at = |r: usize| &ancestors[r * tiers..][..tiers];
                at(i).iter().zip(at(j)).filter(|(x, y)| x != y).count()
            } else {
                let path = topo.path(ids[i], ids[j]);
                (profiles.iter().position(|q| *q == path)).unwrap_or_else(|| {
                    profiles.push(path);
                    profiles.len() - 1
                })
            };
            if let Some(&(.., price)) = splits.iter().find(|s| (s.0, s.1) == (route, bytes)) {
                return price;
            }
            let cost = |bytes| {
                net.send_busy(bytes) + net.flight_on(&profiles[route], bytes) + net.recv_busy(bytes)
            };
            let f = cost(0);
            let price = (f, cost(bytes) - f);
            splits.push((route, bytes, price));
            price
        }
    }

    /// Synthesized per-rank traffic counters for one priced step: the
    /// step's [`exchanges`], with busy times from the network model and
    /// wait as the step-time remainder.
    fn synth_stats(&self, work: &WorkModel, nodes: &NodeSet, step_s: f64) -> Vec<CommStats> {
        let (p, rate) = (nodes.len(), self.flops_rate());
        let mut stats: Vec<CommStats> = (0..p)
            .map(|r| CommStats {
                compute_s: work.flops_for_rank(r) / rate,
                ..CommStats::default()
            })
            .collect();
        exchanges(work.shape(), p, |_, _, r, to, from, bytes, n| {
            let st = &mut stats[r];
            let out = st.peers.entry(to);
            out.msgs_to += n;
            out.bytes_to += bytes * n;
            let back = st.peers.entry(from);
            back.msgs_from += n;
            back.bytes_from += bytes * n;
            st.sends += n;
            st.recvs += n;
            st.bytes_sent += bytes * n;
            st.bytes_recv += bytes * n;
            st.send_busy_s += n as f64 * self.net.send_busy(bytes);
            st.recv_busy_s += n as f64 * self.net.recv_busy(bytes);
        });
        stats.into_iter().map(|st| waited(st, step_s)).collect()
    }
}

/// The messages the model charges for one step of `shape` over `p`
/// ranks, phase by phase and rank by rank: `visit(phase, weight, rank,
/// to, from, bytes, msgs)` says that `rank` sends `msgs` messages of
/// `bytes` to `to` and receives as many from `from`, and that the
/// phase's slowest rank is paid `weight` times. The phases: the ring
/// (`rounds` times, phase 0), each recursive-doubling allreduce level
/// (twice, for reduce plus broadcast; phase `mask`) and the all-to-all
/// (phase 1, peers ascending). The allreduce rule is the model's one
/// approximation of the executor (module docs).
fn exchanges(
    shape: StepShape,
    p: usize,
    mut visit: impl FnMut(usize, f64, usize, usize, usize, u64, u64),
) {
    let (ring, rounds) = (shape.ring_bytes, shape.rounds);
    for r in (0..p).filter(|_| rounds > 0 && p > 1) {
        let (next, prev) = ((r + 1) % p, (r + p - 1) % p);
        visit(0, rounds as f64, r, next, prev, ring, rounds);
    }
    match shape.tail {
        Some(Tail::Allreduce { bytes }) => {
            for mask in successors(Some(1), |m| Some(m << 1)).take_while(|&m| m < p) {
                for r in (0..p).filter(|r| r ^ mask < p) {
                    visit(mask, 2.0, r, r ^ mask, r ^ mask, bytes, 1);
                }
            }
        }
        Some(Tail::Alltoallv { bytes }) => {
            for r in 0..p {
                for d in (0..p).filter(|&d| d != r) {
                    visit(1, 1.0, r, d, d, bytes, 1);
                }
            }
        }
        None => {}
    }
}

/// The table's hasher: one multiply-rotate round per 8-byte word (keys
/// are small integers, and a lookup compares them in full).
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..word.len()].copy_from_slice(word);
            let h = self.0.rotate_left(5) ^ u64::from_le_bytes(w);
            self.0 = h.wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl ServiceOracle for CostModel {
    fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
        self.priced(work, nodes, StepProfile::clone)
    }

    /// A hit is one lookup, and leaves the stats' `Arc` alone.
    fn step_on(&self, work: &WorkModel, nodes: &NodeSet) -> f64 {
        self.priced(work, nodes, |p| p.step_s)
    }
}

/// `st` with its wait: the step time it neither computes nor
/// communicates in.
fn waited(mut st: CommStats, step_s: f64) -> CommStats {
    st.wait_s = (step_s - st.compute_s - st.send_busy_s - st.recv_busy_s).max(0.0);
    st
}

fn dot(c: &[f64; 3], x: &[f64; 3]) -> f64 {
    c[0] * x[0] + c[1] * x[1] + c[2] * x[2]
}

/// Nonnegative least squares over up to three features by active-set
/// elimination: solve the normal equations, and while any coefficient
/// is negative (or the system is singular), drop the worst feature and
/// refit. Deterministic: fixed iteration order, no randomness.
fn fit_nonneg(rows: &[([f64; 3], f64, usize)]) -> [f64; 3] {
    let mut active: Vec<usize> = (0..3)
        .filter(|&i| rows.iter().any(|(x, _, _)| x[i] != 0.0))
        .collect();
    loop {
        if active.is_empty() {
            return [1.0, 1.0, 1.0];
        }
        let k = active.len();
        // Normal equations over the active features.
        let mut a = vec![vec![0.0; k]; k];
        let mut b = vec![0.0; k];
        for (x, y, _) in rows {
            for (i, &fi) in active.iter().enumerate() {
                b[i] += y * x[fi];
                for (j, &fj) in active.iter().enumerate() {
                    a[i][j] += x[fi] * x[fj];
                }
            }
        }
        match solve_dense(a, b) {
            None => {
                // Singular: drop the feature with the least signal.
                let drop = weakest(rows, &active);
                active.retain(|&f| f != drop);
            }
            Some(c) => {
                if let Some(i) = most_negative(&c) {
                    let drop = active[i];
                    active.retain(|&f| f != drop);
                } else {
                    let mut out = [0.0; 3];
                    for (i, &f) in active.iter().enumerate() {
                        out[f] = c[i];
                    }
                    return out;
                }
            }
        }
    }
}

fn weakest(rows: &[([f64; 3], f64, usize)], active: &[usize]) -> usize {
    *active
        .iter()
        .min_by(|&&i, &&j| {
            let si: f64 = rows.iter().map(|(x, _, _)| x[i] * x[i]).sum();
            let sj: f64 = rows.iter().map(|(x, _, _)| x[j] * x[j]).sum();
            si.total_cmp(&sj)
        })
        .expect("non-empty active set")
}

fn most_negative(c: &[f64]) -> Option<usize> {
    c.iter()
        .enumerate()
        .filter(|(_, &v)| v < 0.0)
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

/// Gaussian elimination with partial pivoting; `None` when singular.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    let scale = a
        .iter()
        .flat_map(|row| row.iter().map(|v| v.abs()))
        .fold(0.0, f64::max);
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty system");
        if a[pivot][col].abs() <= 1.0e-14 * scale.max(1.0e-300) {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let m = a[row][col] / a[col][col];
            // Indexed on purpose: `k` reads `a[col]` while writing
            // `a[row]`, which an iterator over `a[row]` cannot borrow.
            #[allow(clippy::needless_range_loop)]
            for k in col..n {
                a[row][k] -= m * a[col][k];
            }
            b[row] -= m * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let s: f64 = (row + 1..n).map(|k| a[row][k] * x[k]).sum();
        x[row] = (b[row] - s) / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::{JobMix, OpenArrivals, SloAdmission, TrafficPattern};
    use mb_cluster::spec::metablade;
    use mb_cluster::PeerTraffic;
    use mb_sched::{
        simulate_stream, ArrivalSource, EasyBackfill, FailureConfig, Fcfs, NpbKernel, Placement,
        SchedConfig, SchedPolicy,
    };

    #[test]
    fn solver_recovers_exact_coefficients() {
        // y = 2·x0 + 0.5·x2 with x1 dead — the fit must zero x1.
        let rows: Vec<([f64; 3], f64, usize)> = (1..=6)
            .map(|i| {
                let x = [i as f64, 0.0, (i * i) as f64];
                (x, 2.0 * x[0] + 0.5 * x[2], i)
            })
            .collect();
        let c = fit_nonneg(&rows);
        assert!((c[0] - 2.0).abs() < 1e-9, "{c:?}");
        assert_eq!(c[1], 0.0);
        assert!((c[2] - 0.5).abs() < 1e-9, "{c:?}");
    }

    #[test]
    fn negative_solutions_are_clamped_to_a_nonneg_fit() {
        // y depends negatively on x1 — NNLS must drop it, not emit a
        // negative price coefficient.
        let rows: Vec<([f64; 3], f64, usize)> = (1..=5)
            .map(|i| {
                let x = [i as f64, (6 - i) as f64, 0.0];
                (x, 3.0 * x[0] - 0.2 * x[1], i)
            })
            .collect();
        let c = fit_nonneg(&rows);
        assert!(c.iter().all(|&v| v >= 0.0), "{c:?}");
    }

    /// Whether `b` is a table hit after `a` on a fresh model of `spec`:
    /// whether the two share an entry.
    fn share(spec: &ClusterSpec, a: (&WorkModel, &NodeSet), b: (&WorkModel, &NodeSet)) -> bool {
        let model = CostModel::new(spec.clone());
        model.step_profile_on(a.0, a.1);
        model.step_profile_on(b.0, b.1);
        model.memo_misses() == 1
    }

    #[test]
    fn node_sets_share_an_entry_exactly_when_key_width_and_class_agree() {
        let ep = WorkModel::Npb {
            kernel: NpbKernel::Ep,
            iters: 1,
        };
        let is = WorkModel::Npb {
            kernel: NpbKernel::Is,
            iters: 1,
        };
        let set = |ids: &[usize]| NodeSet::new(ids.to_vec());
        let (star, a) = (metablade(), set(&[0, 1, 2, 3]));
        assert!(!share(&star, (&ep, &a), (&is, &a)));
        // On the star every pair costs the same: sets of one width share
        // an entry, and the width tells them apart.
        assert!(share(&star, (&ep, &a), (&ep, &set(&[0, 1, 2, 4]))));
        assert!(share(&star, (&ep, &set(&[5, 9, 11, 20])), (&ep, &a)));
        assert!(!share(&star, (&ep, &a), (&ep, &set(&[0, 1, 2]))));
        // Step count is not part of the pattern identity.
        let ep_long = WorkModel::Npb {
            kernel: NpbKernel::Ep,
            iters: 500,
        };
        assert!(share(&star, (&ep, &a), (&ep_long, &a)));
        // On `ft16x2o4` a set that leaves its edge switch is another
        // class; one that only moves to another switch is not.
        let ft = metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let spans = set(&[0, 1, 2, 16]);
        assert!(!share(&ft, (&ep, &a), (&ep, &spans)));
        assert!(!share(&ft, (&ep, &spans), (&ep, &a)));
        assert!(share(&ft, (&ep, &a), (&ep, &set(&[4, 5, 6, 7]))));
        assert!(share(&ft, (&ep, &set(&[20, 21, 22, 23])), (&ep, &a)));
        // `[1, 1, 2]` and `[1, 2, 1]` are two classes.
        assert!(!share(&ft, (&ep, &spans), (&ep, &set(&[0, 1, 16, 17]))));
        assert!(share(&ft, (&ep, &spans), (&ep, &set(&[32, 33, 34, 48]))));
    }

    /// Node sets of `w` distinct ids below `cap`: the lowest, the block
    /// under the second edge switch, spread ids, then seeded draws.
    fn node_sets(r: &mut impl FnMut(usize) -> usize, w: usize, cap: usize) -> Vec<NodeSet> {
        let mut sets = vec![
            NodeSet::new((0..w).collect()),
            NodeSet::new((16..16 + w).map(|n| n % cap).collect()),
            NodeSet::new((0..w).map(|i| i * cap / w).collect()),
        ];
        for _ in 0..3 {
            let mut all: Vec<usize> = (0..cap).collect();
            for j in 0..w {
                all.swap(j, j + r(cap - j));
            }
            all.truncate(w);
            sets.push(NodeSet::new(all));
        }
        sets
    }

    /// The star, `ft16x2o4`, a three-tier tree and a torus, 64 nodes
    /// where bounded.
    fn specs() -> [ClusterSpec; 4] {
        let on = |topo| metablade().with_nodes(64).with_topology(topo);
        [
            metablade(),
            on(Topology::fat_tree(16, 2, 4.0)),
            on(Topology::fat_tree(4, 3, 2.0)),
            on(Topology::torus([8, 4, 2])),
        ]
    }

    /// `CostModel::features` as it priced every message pair by its
    /// node ids, through `flight_between`.
    fn per_pair_features(m: &CostModel, work: &WorkModel, nodes: &NodeSet) -> [f64; 3] {
        let p = nodes.len();
        let ids = nodes.ids();
        let rate = m.flops_rate();
        let compute = (0..p)
            .map(|r| work.flops_for_rank(r) / rate)
            .fold(0.0, f64::max);
        let mut fixed = 0.0;
        let mut ser = 0.0;
        if p > 1 {
            let cost = |src: usize, dst: usize, bytes: u64| {
                m.net.send_busy(bytes)
                    + m.net.flight_between(src, dst, bytes)
                    + m.net.recv_busy(bytes)
            };
            let split = |src: usize, dst: usize, bytes: u64| {
                let f = cost(src, dst, 0);
                (f, cost(src, dst, bytes) - f)
            };
            let worst = |(af, as_): (f64, f64), (bf, bs): (f64, f64)| (af.max(bf), as_.max(bs));
            let shape = work.shape();
            if shape.rounds > 0 {
                let (f, s) = (0..p)
                    .map(|k| split(ids[k], ids[(k + 1) % p], shape.ring_bytes))
                    .fold((0.0, 0.0), worst);
                fixed += shape.rounds as f64 * f;
                ser += shape.rounds as f64 * s;
            }
            match shape.tail {
                Some(Tail::Allreduce { bytes }) => {
                    let mut mask = 1;
                    while mask < p {
                        let (f, s) = (0..p)
                            .filter(|r| r ^ mask < p)
                            .map(|r| split(ids[r], ids[r ^ mask], bytes))
                            .fold((0.0, 0.0), worst);
                        fixed += 2.0 * f;
                        ser += 2.0 * s;
                        mask <<= 1;
                    }
                }
                Some(Tail::Alltoallv { bytes }) => {
                    let (f, s) = (0..p)
                        .map(|r| {
                            (0..p)
                                .filter(|&d| d != r)
                                .fold((0.0_f64, 0.0_f64), |(af, as_), d| {
                                    let (bf, bs) = split(ids[r], ids[d], bytes);
                                    (af + bf, as_ + bs)
                                })
                        })
                        .fold((0.0, 0.0), worst);
                    fixed += f;
                    ser += s;
                }
                None => {}
            }
        }
        [compute, fixed, ser]
    }

    #[test]
    fn features_priced_once_per_route_profile_equal_the_per_pair_form() {
        let mut r = draws(15);
        let mut spanning = 0;
        for spec in specs() {
            let (model, topo) = (CostModel::new(spec.clone()), spec.network.topology);
            for work in JobMix::standard(64).patterns() {
                for w in 1..=16 {
                    for nodes in node_sets(&mut r, w, spec.nodes) {
                        let got = model.features(&work, &nodes).map(f64::to_bits);
                        let want = per_pair_features(&model, &work, &nodes).map(f64::to_bits);
                        assert_eq!(got, want, "{} {work:?} {:?}", topo.label(), nodes.ids());
                        let tree = matches!(topo, Topology::FatTree { .. });
                        spanning += usize::from(tree && topo.route_class(&nodes).any(|v| v > 1));
                    }
                }
            }
        }
        assert!(spanning > 1000, "{spanning} spanning sets on the tree");
    }

    /// Deterministic xorshift draws from `0..n`.
    fn draws(seed: u64) -> impl FnMut(usize) -> usize {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move |n| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        }
    }

    #[test]
    fn same_class_node_sets_price_as_a_fresh_model_prices_them() {
        let ft = metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let mut r = draws(2002);
        for (spec, widths) in [(ft, 64), (metablade(), 24)] {
            let topo = spec.network.topology;
            let model = CostModel::new(spec.clone());
            let mut keys = HashSet::new();
            for work in JobMix::standard(64).patterns() {
                for w in 1..=widths {
                    for draw in 0..3 {
                        // The lowest nodes, then random sets.
                        let mut all: Vec<usize> = (0..widths).collect();
                        for j in (0..w).filter(|_| draw > 0) {
                            all.swap(j, j + r(widths - j));
                        }
                        all.truncate(w);
                        let b = NodeSet::new(all);
                        let class: Vec<usize> = topo.route_class(&b).collect();
                        // The lowest set of that class: a level-2 pair
                        // jumps to the next edge switch.
                        let mut ids = vec![0];
                        for &level in &class {
                            let last = ids[ids.len() - 1];
                            ids.push(if level == 1 {
                                last + 1
                            } else {
                                last / 16 * 16 + 16
                            });
                        }
                        let a = NodeSet::new(if class.is_empty() {
                            (0..w).collect()
                        } else {
                            ids
                        });
                        assert!(topo.route_class(&a).eq(class.iter().copied()));
                        model.step_profile_on(&work, &a);
                        let misses = model.memo_misses();
                        let got = model.step_profile_on(&work, &b);
                        let ctx = format!("{} {work:?} {:?}", topo.label(), b.ids());
                        assert_eq!(model.memo_misses(), misses, "{ctx}: no shared entry");
                        let want = CostModel::new(spec.clone()).step_profile_on(&work, &b);
                        assert_eq!(got.step_s.to_bits(), want.step_s.to_bits(), "{ctx}");
                        assert_eq!(got.stats, want.stats, "{ctx}");
                        keys.insert((work.step_key(), w, class));
                    }
                }
            }
            // One entry per key — and on the tree, more keys than
            // (pattern, width) pairs, so classes really do split entries.
            assert_eq!(model.memo_len(), keys.len());
            let pairs = JobMix::standard(64).patterns().len() * widths;
            assert_eq!(keys.len() > pairs, topo != Topology::Star, "{}", keys.len());
        }
    }

    #[test]
    fn the_reference_prefix_priced_through_the_table_is_a_fresh_models_price() {
        let on = |nodes, topo| metablade().with_nodes(nodes).with_topology(topo);
        let mut r = draws(51);
        for spec in [
            metablade(),
            on(64, Topology::fat_tree(16, 2, 4.0)),
            on(32, Topology::torus([4, 4, 2])),
        ] {
            let model = CostModel::new(spec.clone());
            for work in JobMix::standard(64).patterns() {
                for w in 1..=16 {
                    let prefix = NodeSet::new((0..w).collect());
                    let want = CostModel::new(spec.clone()).step_profile_on(&work, &prefix);
                    // The other sets of this key and width go first, so
                    // the prefix meets a populated entry (a class hit, or
                    // on the torus a miss), and then its own slot.
                    for nodes in node_sets(&mut r, w, spec.nodes).iter().rev() {
                        model.step_profile_on(&work, nodes);
                    }
                    for _ in 0..2 {
                        let got = model.step_profile_on(&work, &prefix);
                        let ctx = format!("{} {work:?} width {w}", spec.name);
                        assert_eq!(got.step_s.to_bits(), want.step_s.to_bits(), "{ctx}");
                        assert_eq!(format!("{:?}", got.stats), format!("{:?}", want.stats));
                        let step_s = model.step_on(&work, &prefix);
                        assert_eq!(step_s.to_bits(), want.step_s.to_bits(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn sets_of_one_entry_with_bit_equal_step_times_share_their_stats() {
        let ft = metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let model = CostModel::new(ft.clone());
        let ring = WorkModel::Synthetic {
            flops_per_step: 1.0e7,
            msg_kib: 4,
            rounds: 2,
            steps: 1,
        };
        // Classes `[1, 1, 2]` and `[1, 2, 1]`: each ring crosses the
        // switches twice, so its slowest rank pays the same.
        let set = |ids: &[usize]| NodeSet::new(ids.to_vec());
        let a = model.step_profile_on(&ring, &set(&[0, 1, 2, 16]));
        let b = model.step_profile_on(&ring, &set(&[0, 1, 16, 17]));
        let c = model.step_profile_on(&ring, &set(&[0, 1, 2, 3]));
        assert_eq!(model.memo_misses(), 3);
        assert_eq!(a.step_s.to_bits(), b.step_s.to_bits());
        assert!(Arc::ptr_eq(&a.stats, &b.stats));
        // A step time of its own gets stats of its own, equal but for
        // `wait_s`.
        assert!(c.step_s < a.step_s && !Arc::ptr_eq(&a.stats, &c.stats));
        assert!(a
            .stats
            .iter()
            .map(counters)
            .eq(c.stats.iter().map(counters)));
        assert!(a
            .stats
            .iter()
            .zip(c.stats.iter())
            .all(|(x, y)| x.wait_s > y.wait_s));
        // Across seeded sets of every pattern: equal step bits share.
        let (mut r, mut shared) = (draws(7), 0);
        for work in JobMix::standard(64).patterns() {
            for w in 2..=16 {
                let profiles: Vec<StepProfile> = (node_sets(&mut r, w, 64).iter())
                    .map(|nodes| model.step_profile_on(&work, nodes))
                    .collect();
                for (i, p) in profiles.iter().enumerate() {
                    for q in &profiles[..i] {
                        let same = p.step_s.to_bits() == q.step_s.to_bits();
                        assert_eq!(Arc::ptr_eq(&p.stats, &q.stats), same, "{work:?} {w}");
                        shared += usize::from(same);
                    }
                }
            }
        }
        assert!(shared > 100, "{shared} pairs share");
    }

    /// Counts every pricing call a stream makes and the distinct
    /// `(step key, width, route class)` keys among them.
    struct Counting<'a> {
        inner: &'a CostModel,
        calls: Cell<u64>,
        keys: RefCell<HashSet<(StepKey, usize, Vec<usize>)>>,
    }

    impl ServiceOracle for Counting<'_> {
        fn spec(&self) -> &ClusterSpec {
            self.inner.spec()
        }

        fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
            self.calls.set(self.calls.get() + 1);
            let class = self.spec().network.topology.route_class(nodes).collect();
            (self.keys.borrow_mut()).insert((work.step_key(), nodes.len(), class));
            self.inner.step_profile_on(work, nodes)
        }
    }

    #[test]
    fn memo_counters_account_for_every_pricing_call_of_a_contended_stream() {
        let spec = metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let mix = JobMix::standard(64);
        let mut cost = CostModel::new(spec);
        // Offered load above the machine's capacity keeps jobs
        // overlapping, so the stream is contended throughout.
        let mut sample =
            OpenArrivals::new(TrafficPattern::Poisson { rate_per_s: 1.0 }, mix, 200, 1);
        let mut demand = 0.0;
        while let Some(a) = sample.next_arrival() {
            demand += a.spec.ranks as f64 * cost.work_s(&a.spec.work, a.spec.ranks) / 200.0;
        }
        let rate_per_s = 1.5 * 64.0 / demand;
        let fail = Some(FailureConfig::accelerated(20_000.0, 5));
        for (policy, failure) in [(&Fcfs as &dyn SchedPolicy, None), (&EasyBackfill, fail)] {
            cost.calibrate(&[], Default::default());
            let counting = Counting {
                inner: &cost,
                calls: Cell::new(0),
                keys: RefCell::new(HashSet::new()),
            };
            let mut src = OpenArrivals::new(TrafficPattern::Poisson { rate_per_s }, mix, 400, 9);
            let mut adm = SloAdmission::standard(64);
            let cfg = SchedConfig {
                lean: true,
                placement: Placement::ContentionAware,
                route_spread: true,
                failure,
                ..SchedConfig::default()
            };
            let (h0, m0) = (cost.memo_hits(), cost.memo_misses());
            let rep = simulate_stream(&counting, policy, &mut src, &mut adm, &cfg);
            let calls = counting.calls.get();
            let (hits, misses) = (cost.memo_hits() - h0, cost.memo_misses() - m0);
            assert!(
                rep.sim.max_contention_factor > 1.0,
                "the stream must contend"
            );
            assert_eq!(hits + misses, calls);
            assert_eq!(cost.memo_len(), counting.keys.borrow().len());
            assert_eq!(misses, cost.memo_len() as u64);
            assert!(hits > misses, "{hits} hits, {misses} misses");
            assert_eq!(rep.sim.failures > 0, failure.is_some());
        }
    }

    #[test]
    fn a_contended_stream_prices_each_admitted_arrival_and_each_launch_once() {
        let spec = metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let (cost, mix) = (CostModel::new(spec), JobMix::standard(64));
        // Offered at 1.5× the machine's capacity, as above.
        let mut sample =
            OpenArrivals::new(TrafficPattern::Poisson { rate_per_s: 1.0 }, mix, 200, 1);
        let mut demand = 0.0;
        while let Some(a) = sample.next_arrival() {
            demand += a.spec.ranks as f64 * cost.work_s(&a.spec.work, a.spec.ranks) / 200.0;
        }
        let pattern = TrafficPattern::Poisson {
            rate_per_s: 1.5 * 64.0 / demand,
        };
        let counting = Counting {
            inner: &cost,
            calls: Cell::new(0),
            keys: RefCell::new(HashSet::new()),
        };
        let cfg = SchedConfig {
            lean: true,
            placement: Placement::ContentionAware,
            route_spread: true,
            failure: Some(FailureConfig::accelerated(20_000.0, 5)),
            ..SchedConfig::default()
        };
        let mut src = OpenArrivals::new(pattern, mix, 400, 9);
        let mut adm = SloAdmission::standard(64);
        let rep = simulate_stream(&counting, &EasyBackfill, &mut src, &mut adm, &cfg);
        let admitted: u64 = rep.classes.iter().map(|c| c.admitted).sum();
        // Every admitted job ran to its end; a requeue launched again.
        assert_eq!(rep.sim.jobs.len() as u64, admitted);
        let launches = admitted + u64::from(rep.sim.requeues);
        assert!(rep.sim.requeues > 0 && rep.sim.max_contention_factor > 1.0);
        assert_eq!(counting.calls.get(), admitted + launches);
    }

    /// Prices through `step_profile_on` alone, so its `step_on` is the
    /// trait's provided method rather than `CostModel`'s override.
    struct ProfileOnly<'a>(&'a CostModel);

    impl ServiceOracle for ProfileOnly<'_> {
        fn spec(&self) -> &ClusterSpec {
            self.0.spec()
        }

        fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
            self.0.step_profile_on(work, nodes)
        }
    }

    #[test]
    fn the_step_on_override_prices_and_counts_as_the_provided_method() {
        let ft = metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let fail = Some(FailureConfig::accelerated(20_000.0, 5));
        let cases = [
            (
                metablade(),
                &Fcfs as &dyn SchedPolicy,
                Placement::Lowest,
                None,
                0.05,
            ),
            (ft, &EasyBackfill, Placement::ContentionAware, fail, 1.0),
        ];
        for (spec, policy, placement, failure, rate_per_s) in cases {
            let cfg = SchedConfig {
                lean: true,
                placement,
                route_spread: placement == Placement::ContentionAware,
                failure,
                ..SchedConfig::default()
            };
            let mix = JobMix::standard(spec.nodes);
            let stream = |oracle: &dyn ServiceOracle| {
                let pattern = TrafficPattern::Poisson { rate_per_s };
                let mut src = OpenArrivals::new(pattern, mix, 300, 17);
                let mut adm = SloAdmission::standard(spec.nodes);
                simulate_stream(oracle, policy, &mut src, &mut adm, &cfg)
            };
            let (direct, inner) = (CostModel::new(spec.clone()), CostModel::new(spec.clone()));
            let counters = |m: &CostModel| (m.memo_hits(), m.memo_misses(), m.memo_len());
            // A cold memo, then a warm one.
            for _ in 0..2 {
                let (d0, w0) = (counters(&direct), counters(&inner));
                let a = stream(&direct);
                let b = stream(&ProfileOnly(&inner));
                assert_eq!(a.stream_fingerprint, b.stream_fingerprint);
                let (d1, w1) = (counters(&direct), counters(&inner));
                let delta = |(h0, m0, l0): (u64, u64, usize), (h1, m1, l1): (u64, u64, usize)| {
                    (h1 - h0, m1 - m0, l1 as i64 - l0 as i64)
                };
                assert_eq!(delta(d0, d1), delta(w0, w1), "{}", spec.name);
                assert!(d1.0 > d0.0, "no memo hit");
            }
            assert!(direct.memo_misses() > 0);
        }
    }

    #[test]
    fn memo_hits_repeat_pricings() {
        let mut model = CostModel::new(metablade());
        let ep = WorkModel::Npb {
            kernel: NpbKernel::Ep,
            iters: 1,
        };
        model.calibrate(&[ep], Default::default());
        let work = WorkModel::Npb {
            kernel: NpbKernel::Ep,
            iters: 7,
        };
        let nodes = NodeSet::new(vec![0, 1, 2, 3]);
        let first = model.step_profile_on(&work, &nodes);
        assert_eq!(model.memo_misses(), 1);
        let again = model.step_profile_on(&work, &nodes);
        assert_eq!(model.memo_hits(), 1);
        assert_eq!(first.step_s.to_bits(), again.step_s.to_bits());
        assert_eq!(model.memo_len(), 1);
    }

    /// Patterns whose synthesized traffic differs from the executor's:
    /// `exchanges` prices their allreduce as recursive doubling, while
    /// `Comm::allreduce_sum` reduces to rank 0 and broadcasts, so from
    /// width 4 on their peers differ (ROADMAP item 6 empties this list).
    fn allreduce_exceptions() -> [WorkModel; 5] {
        let tree = |bodies_per_rank| WorkModel::Treecode {
            bodies_per_rank,
            steps: 1,
        };
        let npb = |kernel| WorkModel::Npb { kernel, iters: 1 };
        [
            tree(600),
            tree(1200),
            tree(2400),
            npb(NpbKernel::Ep),
            npb(NpbKernel::Mg),
        ]
    }

    /// A rank's integer counters: totals and every peer's row.
    fn counters(st: &CommStats) -> ([u64; 4], Vec<(usize, PeerTraffic)>) {
        let totals = [st.sends, st.recvs, st.bytes_sent, st.bytes_recv];
        (totals, st.peers.iter().map(|(p, t)| (p, *t)).collect())
    }

    #[test]
    fn synthesized_traffic_equals_the_executors_but_for_the_listed_allreduces() {
        let ft = metablade()
            .with_nodes(64)
            .with_topology(Topology::fat_tree(16, 2, 4.0));
        let exceptions = allreduce_exceptions().map(|w| w.step_key());
        let (mut equal, mut differ) = (0, Vec::new());
        // The star on its lowest nodes; the tree on even ids, which
        // leave the first edge switch from width 9 on.
        for (spec, stride) in [(metablade(), 1), (ft, 2)] {
            let (model, cluster) = (CostModel::new(spec.clone()), Cluster::new(spec));
            let service = ServiceModel::new(&cluster);
            for work in JobMix::standard(24).patterns() {
                for w in 1..=24 {
                    let nodes = NodeSet::new((0..w).map(|i| i * stride).collect());
                    let got = model.step_profile_on(&work, &nodes).stats;
                    let want = service.step_profile_on(&work, &nodes).stats;
                    assert_eq!(got.len(), w);
                    let same = got.iter().map(counters).eq(want.iter().map(counters));
                    let listed = exceptions.contains(&work.step_key());
                    assert!(same || listed, "{work:?} at width {w}: {got:?} != {want:?}");
                    if same {
                        equal += 1;
                    } else {
                        differ.push((work.step_key(), w));
                    }
                }
            }
        }
        // Every listed pattern differs, and exactly from width 4 on.
        for key in exceptions {
            let widths: Vec<usize> = differ.iter().filter(|d| d.0 == key).map(|d| d.1).collect();
            let from_4: Vec<usize> = (4..=24).chain(4..=24).collect();
            assert_eq!(widths, from_4, "{key:?}");
        }
        assert_eq!((equal, differ.len()), (942, 210));
    }

    #[test]
    fn synthesized_stats_have_pattern_shaped_peers() {
        let model = CostModel::new(metablade());
        let nodes = NodeSet::new(vec![0, 1, 2, 3]);
        // Ring: each rank sends to its successor only.
        let syn = WorkModel::Synthetic {
            flops_per_step: 1.0e7,
            msg_kib: 4,
            rounds: 2,
            steps: 1,
        };
        let prof = model.step_profile_on(&syn, &nodes);
        assert_eq!(prof.stats.len(), 4);
        let st = &prof.stats[1];
        assert_eq!(st.peer(2).msgs_to, 2);
        assert_eq!(st.peer(2).bytes_to, 2 * 4096);
        assert_eq!(st.peer(0).msgs_from, 2);
        assert_eq!(st.sends, 2);
        assert!(st.compute_s > 0.0 && st.send_busy_s > 0.0);
        // All-to-all: every peer hears from every rank.
        let is = WorkModel::Npb {
            kernel: NpbKernel::Is,
            iters: 1,
        };
        let prof = model.step_profile_on(&is, &nodes);
        for st in prof.stats.iter() {
            assert_eq!(st.sends, 3);
            assert_eq!(st.bytes_sent, 3 * 1024);
        }
        // Single rank: pure compute, no traffic, positive step.
        let solo = model.step_profile_on(&is, &NodeSet::new(vec![5]));
        assert_eq!(solo.stats[0].sends, 0);
        assert!(solo.step_s > 0.0);
    }
}
