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
//! ([`CostModel::calibrate`]). Priced steps are memoized under a
//! content-addressed id (FNV-1a over the step key and node ids), so
//! repeat pricing is a hash lookup.
//!
//! Determinism: the calibration measurements are [`ServiceModel`] steps,
//! stackless runs that no executor policy reaches, and the fit itself is
//! a fixed-order computation — so the fitted coefficients (and every
//! price derived from them) are bit-identical on every host and under
//! every `MB_PARALLEL` setting.
//!
//! The step's shape — per-rank flops, ring rounds, closing collective —
//! is [`WorkModel::shape`] and [`WorkModel::flops_for_rank`], the same
//! statement [`WorkModel::run_step`] executes, so the closed form and the
//! measurement it is fitted to cannot drift apart. The synthesized
//! per-rank [`CommStats`], which the contention layer folds over topology
//! routes, follow the ring successor and the all-to-all peers exactly.
//! An allreduce is approximated by recursive-doubling partner pairs;
//! [`mb_cluster::Comm::allreduce_sum`] is in fact a binomial reduce to
//! rank 0 followed by a broadcast, so its real peers differ.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use mb_cluster::machine::Cluster;
use mb_cluster::{
    ClusterSpec, CommStats, ExecPolicy, NetworkModel, NodeSet, PeerTable, PeerTraffic,
};
use mb_sched::job::Tail;
use mb_sched::{ServiceModel, ServiceOracle, StepProfile, WorkModel};
use mb_telemetry::Fnv;

/// The step pattern key the memo and coefficient tables index by.
type StepKey = (u8, u64, u64, u64);

/// Recursive-doubling partner of rank `r` at `mask`, if inside `p`.
fn rd_partner(r: usize, mask: usize, p: usize) -> Option<usize> {
    let q = r ^ mask;
    (q < p).then_some(q)
}

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
    /// FNV-1a digest of every content id's constant prefix: the scheme
    /// tag and the topology label (the routing context).
    cid_prefix: u64,
    /// Fitted `[compute, fixed-cost, serialization]` coefficients per
    /// step pattern; patterns never calibrated price at the identity.
    coeffs: HashMap<StepKey, [f64; 3]>,
    /// Content-addressed step memo: CID → priced profile.
    memo: RefCell<HashMap<u64, StepProfile>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl CostModel {
    /// An uncalibrated model for `spec` (identity coefficients: the raw
    /// closed form with no fit applied).
    pub fn new(spec: ClusterSpec) -> Self {
        let net = NetworkModel::new(spec.network);
        let mut prefix = Fnv::new();
        prefix.write_str("mb-workload/cid/1");
        prefix.write_str(&spec.network.topology.label());
        Self {
            spec,
            net,
            cid_prefix: prefix.finish(),
            coeffs: HashMap::new(),
            memo: RefCell::new(HashMap::new()),
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

    /// Content id of one priced step: pattern key + exact node ids
    /// (the topology label pins the routing context).
    pub fn cid(&self, work: &WorkModel, nodes: &NodeSet) -> u64 {
        let (t, a, b, c) = work.step_key();
        let key = [t as u64, a, b, c, nodes.len() as u64];
        let h = key.into_iter().fold(self.cid_prefix, fnv_u64);
        nodes.ids().iter().fold(h, |h, &id| fnv_u64(h, id as u64))
    }

    /// Memo lookups that found a priced step.
    pub fn memo_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Memo lookups that had to price a fresh step.
    pub fn memo_misses(&self) -> u64 {
        self.misses.get()
    }

    /// Distinct priced steps currently memoized.
    pub fn memo_len(&self) -> usize {
        self.memo.borrow().len()
    }

    /// Compute-rate denominator, flops per second.
    fn flops_rate(&self) -> f64 {
        self.spec.node.cpu.sustained_mflops * 1.0e6
    }

    /// The three closed-form features of one step on one node set:
    /// `[critical-path compute s, fixed message costs s, serialization s]`.
    fn features(&self, work: &WorkModel, nodes: &NodeSet) -> [f64; 3] {
        let p = nodes.len();
        let ids = nodes.ids();
        let rate = self.flops_rate();
        let compute = (0..p)
            .map(|r| work.flops_for_rank(r) / rate)
            .fold(0.0, f64::max);
        let mut fixed = 0.0;
        let mut ser = 0.0;
        if p > 1 {
            // Full cost of one `bytes`-byte message between two nodes,
            // split into its zero-byte fixed part and the remainder.
            let cost = |src: usize, dst: usize, bytes: u64| {
                self.net.send_busy(bytes)
                    + self.net.flight_between(src, dst, bytes)
                    + self.net.recv_busy(bytes)
            };
            let split = |src: usize, dst: usize, bytes: u64| {
                let f = cost(src, dst, 0);
                (f, cost(src, dst, bytes) - f)
            };
            let worst = |(af, as_): (f64, f64), (bf, bs): (f64, f64)| (af.max(bf), as_.max(bs));
            let shape = work.shape();
            if shape.rounds > 0 {
                // One round's critical path: the worst successor link
                // in the ring.
                let (f, s) = (0..p)
                    .map(|k| split(ids[k], ids[(k + 1) % p], shape.ring_bytes))
                    .fold((0.0, 0.0), worst);
                fixed += shape.rounds as f64 * f;
                ser += shape.rounds as f64 * s;
            }
            match shape.tail {
                Some(Tail::Allreduce { bytes }) => {
                    // Recursive-doubling levels, reduce + bcast: each
                    // level costs its worst partner pair.
                    let mut mask = 1;
                    while mask < p {
                        let (f, s) = (0..p)
                            .filter_map(|r| {
                                rd_partner(r, mask, p).map(|q| split(ids[r], ids[q], bytes))
                            })
                            .fold((0.0, 0.0), worst);
                        fixed += 2.0 * f;
                        ser += 2.0 * s;
                        mask <<= 1;
                    }
                }
                Some(Tail::Alltoallv { bytes }) => {
                    // Each rank exchanges with every peer; the critical
                    // path is the worst per-rank total.
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

    /// Synthesized per-rank traffic counters for one priced step:
    /// the shape's peers (ring successor, all-to-all, and for an
    /// allreduce the recursive-doubling partners that approximate it)
    /// with busy times from the network model and wait as the step-time
    /// remainder.
    fn synth_stats(&self, work: &WorkModel, nodes: &NodeSet, step_s: f64) -> Vec<CommStats> {
        let p = nodes.len();
        let rate = self.flops_rate();
        let shape = work.shape();
        // One rank's peers, accumulated by index (an all-to-all revisits
        // every row once per collective), then compacted into the rank's
        // sparse table, which leaves the row zeroed for the next rank.
        let mut row = vec![PeerTraffic::default(); p];
        (0..p)
            .map(|r| {
                let mut st = CommStats {
                    compute_s: work.flops_for_rank(r) / rate,
                    ..CommStats::default()
                };
                let send = |st: &mut CommStats, dst: &mut PeerTraffic, bytes: u64, msgs: u64| {
                    dst.msgs_to += msgs;
                    dst.bytes_to += bytes * msgs;
                    st.sends += msgs;
                    st.bytes_sent += bytes * msgs;
                    st.send_busy_s += msgs as f64 * self.net.send_busy(bytes);
                };
                let recv = |st: &mut CommStats, src: &mut PeerTraffic, bytes: u64, msgs: u64| {
                    src.msgs_from += msgs;
                    src.bytes_from += bytes * msgs;
                    st.recvs += msgs;
                    st.bytes_recv += bytes * msgs;
                    st.recv_busy_s += msgs as f64 * self.net.recv_busy(bytes);
                };
                if p > 1 {
                    if shape.rounds > 0 {
                        let (bytes, rounds) = (shape.ring_bytes, shape.rounds);
                        send(&mut st, &mut row[(r + 1) % p], bytes, rounds);
                        recv(&mut st, &mut row[(r + p - 1) % p], bytes, rounds);
                    }
                    match shape.tail {
                        Some(Tail::Allreduce { bytes }) => {
                            let mut mask = 1;
                            while mask < p {
                                if let Some(q) = rd_partner(r, mask, p) {
                                    send(&mut st, &mut row[q], bytes, 1);
                                    recv(&mut st, &mut row[q], bytes, 1);
                                }
                                mask <<= 1;
                            }
                        }
                        Some(Tail::Alltoallv { bytes }) => {
                            for d in (0..p).filter(|&d| d != r) {
                                send(&mut st, &mut row[d], bytes, 1);
                                recv(&mut st, &mut row[d], bytes, 1);
                            }
                        }
                        None => {}
                    }
                }
                st.peers = PeerTable::take_dense(&mut row);
                st.wait_s = (step_s - st.compute_s - st.send_busy_s - st.recv_busy_s).max(0.0);
                st
            })
            .collect()
    }
}

impl ServiceOracle for CostModel {
    fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    fn step_profile_on(&self, work: &WorkModel, nodes: &NodeSet) -> StepProfile {
        assert!(!nodes.is_empty(), "step needs at least one node");
        let cid = self.cid(work, nodes);
        if let Some(p) = self.memo.borrow().get(&cid) {
            self.hits.set(self.hits.get() + 1);
            return p.clone();
        }
        self.misses.set(self.misses.get() + 1);
        let x = self.features(work, nodes);
        let c = self
            .coeffs
            .get(&work.step_key())
            .copied()
            .unwrap_or([1.0, 1.0, 1.0]);
        // Floor keeps step_s strictly positive (the contention layer
        // divides by it).
        let step_s = dot(&c, &x).max(1.0e-9);
        let profile = StepProfile {
            step_s,
            stats: Arc::new(self.synth_stats(work, nodes, step_s)),
        };
        self.memo.borrow_mut().insert(cid, profile.clone());
        profile
    }
}

/// [`Fnv::write_u64`] resumed from a finished digest `h` (FNV-1a over
/// the little-endian bytes of `v`), which [`Fnv`] itself cannot do.
fn fnv_u64(h: u64, v: u64) -> u64 {
    let fold = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    v.to_le_bytes().into_iter().fold(h, fold)
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
    use super::*;
    use mb_cluster::spec::metablade;
    use mb_sched::NpbKernel;

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

    #[test]
    fn cid_distinguishes_patterns_and_node_sets() {
        let model = CostModel::new(metablade());
        let ep = WorkModel::Npb {
            kernel: NpbKernel::Ep,
            iters: 1,
        };
        let is = WorkModel::Npb {
            kernel: NpbKernel::Is,
            iters: 1,
        };
        let a = NodeSet::new(vec![0, 1, 2, 3]);
        let b = NodeSet::new(vec![0, 1, 2, 4]);
        assert_ne!(model.cid(&ep, &a), model.cid(&is, &a));
        assert_ne!(model.cid(&ep, &a), model.cid(&ep, &b));
        // Step count is not part of the pattern identity.
        let ep_long = WorkModel::Npb {
            kernel: NpbKernel::Ep,
            iters: 500,
        };
        assert_eq!(model.cid(&ep, &a), model.cid(&ep_long, &a));
        // The scheme, spelled out from an empty hasher: the folded
        // prefix must not change any id.
        let mut f = Fnv::new();
        f.write_str("mb-workload/cid/1");
        f.write_str(&metablade().network.topology.label());
        let (t, k1, k2, k3) = ep.step_key();
        for v in [t as u64, k1, k2, k3, 4, 0, 1, 2, 3] {
            f.write_u64(v);
        }
        assert_eq!(model.cid(&ep, &a), f.finish());
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
