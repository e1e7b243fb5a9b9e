//! The cluster runtime: run an SPMD closure over all ranks of a
//! [`ClusterSpec`] and gather results, virtual clocks and statistics.
//!
//! [`Cluster::run_traced`] is the observability entry point: every rank's
//! communicator buffers the spans it emits, so the same job closure
//! additionally yields a [`RunTrace`] ready for Chrome export
//! (`mb_telemetry::chrome::export`) — one track per rank.
//!
//! One rank makes host progress at a time: the calling thread polls the
//! ranks in the order the run's one [`crate::event`] core admits them
//! (see [`crate::exec`]).
//!
//! Each rank holds a [`Comm`] that shares the run's core; the core owns
//! the mailboxes, so setting a run up costs `O(nranks)` and nothing in it
//! is quadratic in rank count. The body's type decides whether ranks have
//! OS threads ([`crate::exec`]): a closure gets one scoped thread per
//! rank, about 30 µs per `clone` on the reference box whatever the stack
//! size (DESIGN.md §9), each resumed by the poller in turn; a
//! [`Stackless`](crate::exec::Stackless) `async` closure gets no thread.
//!
//! **A run never hangs.** A program whose ranks all end up waiting for
//! messages nobody will send comes back from [`Cluster::try_run`] as
//! [`SimError::Deadlock`], naming every blocked receive ([`Cluster::run`]
//! panics with the same text). A rank that panics unwinds out of its
//! poll, every parked rank thread unwinds with it, and the run re-raises
//! the *originating* panic.

use std::fmt;
use std::sync::Arc;

use mb_telemetry::summary::RunSummary;
use mb_telemetry::trace::RunTrace;

use crate::comm::{Comm, CommStats};
use crate::event::{BlockedRecv, EventCore, ExecutorReport};
use crate::exec::{ExecPolicy, SpmdBody};
use crate::network::NetworkModel;
use crate::spec::ClusterSpec;

/// Why an SPMD run produced no outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Every rank that had not finished was waiting for a message and
    /// nobody was left to send one: the blocked receives, by rank.
    Deadlock(Vec<BlockedRecv>),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// Blocked receives spelled out before the rest are only counted.
        const SHOWN: usize = 8;
        let SimError::Deadlock(blocked) = self;
        write!(
            f,
            "SPMD deadlock: {} rank(s) wait for messages nobody will send",
            blocked.len()
        )?;
        for b in blocked.iter().take(SHOWN) {
            write!(
                f,
                "; rank {} awaits (src {}, tag {:#x}) at {:.9} s",
                b.rank, b.src, b.tag, b.clock
            )?;
        }
        if blocked.len() > SHOWN {
            write!(f, "; and {} more", blocked.len() - SHOWN)?;
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

/// Result of one SPMD run.
#[derive(Debug, Clone)]
pub struct SpmdOutcome<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks, seconds.
    pub clocks: Vec<f64>,
    /// Per-rank communication/computation statistics.
    pub stats: Vec<CommStats>,
    /// Executor-core counters for the run. Wall-clock-side observability
    /// only: never part of outcome fingerprints, which cover `results`,
    /// `clocks` and `stats` — the simulated quantities.
    pub exec_report: ExecutorReport,
}

impl<R> SpmdOutcome<R> {
    /// Wall-clock of the parallel job: the slowest rank.
    pub fn makespan_s(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Parallel efficiency versus a given serial time.
    pub fn efficiency(&self, serial_s: f64) -> f64 {
        let p = self.clocks.len() as f64;
        serial_s / (p * self.makespan_s())
    }

    /// Per-rank compute / comm / blocked time split, derived from the
    /// running statistics (available whether or not tracing was on).
    pub fn summary(&self) -> RunSummary {
        RunSummary::new(
            self.stats
                .iter()
                .zip(&self.clocks)
                .map(|(s, &clock)| s.rank_time(clock))
                .collect(),
        )
    }

    /// Load imbalance in `[0, 1)`: `1 − mean(busy) / max(busy)` over
    /// ranks.
    pub fn load_imbalance(&self) -> f64 {
        self.summary().load_imbalance()
    }

    /// The `nranks × nranks` traffic matrix: entry `[src][dst]` is the
    /// payload bytes rank `src` sent to rank `dst`.
    pub fn traffic_matrix(&self) -> Vec<Vec<u64>> {
        let n = self.stats.len();
        self.stats
            .iter()
            .map(|s| {
                let mut row = vec![0; n];
                for (dst, p) in s.peers.iter() {
                    row[dst] = p.bytes_to;
                }
                row
            })
            .collect()
    }
}

/// A simulated cluster ready to run SPMD jobs.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    prof: bool,
}

impl Cluster {
    /// Build a cluster from a spec, with host-time profiling of the
    /// executor from `MB_PROF` (see
    /// [`mb_telemetry::prof::enabled_from_env`]).
    pub fn new(spec: ClusterSpec) -> Self {
        Self {
            spec,
            prof: mb_telemetry::prof::enabled_from_env(),
        }
    }

    /// Accepted and ignored until ROADMAP 1a: every run has one slot
    /// (see [`crate::exec`]), and the benchmark harness still calls this.
    pub fn with_exec(self, _exec: ExecPolicy) -> Self {
        self
    }

    /// Enable (or disable) host-time profiling of the executor core
    /// explicitly, instead of the `MB_PROF` environment default. The
    /// profile comes back on [`SpmdOutcome::exec_report`]'s `prof` field;
    /// simulated outcomes are bit-identical either way (see
    /// `tests/determinism.rs`).
    pub fn with_prof(mut self, on: bool) -> Self {
        self.prof = on;
        self
    }

    /// True when executor host-time profiling is enabled.
    pub fn prof(&self) -> bool {
        self.prof
    }

    /// The spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Run `body` as one SPMD process per node. Each invocation gets a
    /// [`Comm`] that reaches every peer; the body's return values, final
    /// virtual clocks and stats come back indexed by rank.
    ///
    /// The calling thread polls every rank; a closure rank runs on an OS
    /// thread of its own while it holds the turn, a
    /// [`Stackless`](crate::exec::Stackless) rank on none (see
    /// [`crate::exec`]). Either way virtual time stays deterministic
    /// because every receive names its source (see [`crate::comm`]).
    ///
    /// Panics with the [`SimError`] text if the program deadlocks (use
    /// [`Cluster::try_run`] to get the error instead), and re-raises a
    /// rank's own panic if one panics.
    ///
    /// ```
    /// use mb_cluster::machine::Cluster;
    /// use mb_cluster::spec::metablade;
    /// use mb_cluster::Comm;
    /// let cluster = Cluster::new(metablade().with_nodes(4));
    /// let out = cluster.run(|comm: &mut Comm| {
    ///     let sum = comm.allreduce_sum(&[comm.rank() as f64]);
    ///     sum[0]
    /// });
    /// assert_eq!(out.results, vec![6.0; 4]); // 0+1+2+3 on every rank
    /// assert!(out.makespan_s() > 0.0);
    /// ```
    pub fn run<R, B: SpmdBody<R>>(&self, body: B) -> SpmdOutcome<R> {
        self.try_run(body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Cluster::run`], but a deadlocked program — every
    /// unfinished rank blocked in a receive nobody will satisfy — is
    /// returned as [`SimError::Deadlock`] instead of panicking.
    ///
    /// ```
    /// use mb_cluster::machine::{Cluster, SimError};
    /// use mb_cluster::spec::metablade;
    /// use mb_cluster::Comm;
    /// // Both ranks receive first, so neither ever sends.
    /// let err = Cluster::new(metablade().with_nodes(2))
    ///     .try_run(|comm: &mut Comm| comm.recv(1 - comm.rank(), 7))
    ///     .unwrap_err();
    /// let SimError::Deadlock(blocked) = err;
    /// assert_eq!((blocked[0].rank, blocked[0].src), (0, 1));
    /// assert_eq!((blocked[1].rank, blocked[1].src), (1, 0));
    /// ```
    pub fn try_run<R, B: SpmdBody<R>>(&self, body: B) -> Result<SpmdOutcome<R>, SimError> {
        self.run_inner(None, body, false).map(|(out, _)| out)
    }

    /// Like [`Cluster::run`], but rank `r` executes on physical node
    /// `node_ids[r]` — the entry point [`Cluster::run_on`] uses so a
    /// partitioned job's network costs reflect *where* its nodes sit in
    /// the topology (a job spanning fat-tree switch boundaries pays
    /// uplink contention; a compact one does not). On the star this is
    /// indistinguishable from `run`, because star costs are
    /// placement-independent.
    pub(crate) fn run_mapped<R, B: SpmdBody<R>>(
        &self,
        node_ids: &[usize],
        body: B,
    ) -> SpmdOutcome<R> {
        self.run_inner(Some(node_ids), body, false)
            .unwrap_or_else(|e| panic!("{e}"))
            .0
    }

    /// Like [`Cluster::run`], but with span tracing on: every rank buffers
    /// the spans its communicator emits, and they come back as a
    /// [`RunTrace`] (index = rank) alongside the normal outcome. Virtual
    /// clocks are identical to an untraced run — tracing observes the
    /// simulation without perturbing it.
    pub fn run_traced<R, B: SpmdBody<R>>(&self, body: B) -> (SpmdOutcome<R>, RunTrace) {
        self.run_inner(None, body, true)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn run_inner<R, B: SpmdBody<R>>(
        &self,
        node_ids: Option<&[usize]>,
        body: B,
        traced: bool,
    ) -> Result<(SpmdOutcome<R>, RunTrace), SimError> {
        let n = self.spec.nodes;
        assert!(n > 0, "cluster has no nodes");
        let net = NetworkModel::new(self.spec.network);
        let topology = net.topology();
        let nodes: Arc<Vec<usize>> = Arc::new(match node_ids {
            Some(ids) => {
                assert_eq!(ids.len(), n, "one node id per rank");
                ids.to_vec()
            }
            None => (0..n).collect(),
        });
        if let Some(cap) = topology.capacity() {
            let max = nodes.iter().copied().max().unwrap_or(0);
            assert!(
                max < cap,
                "node {max} does not exist on a {} of capacity {cap}",
                topology.label()
            );
        }
        let core = Arc::new(EventCore::new(n).with_profiling(self.prof));
        let mflops = self.spec.node.cpu.sustained_mflops;
        let comms = (0..n)
            .map(|rank| {
                Comm::new(
                    rank,
                    mflops,
                    net,
                    Arc::clone(&nodes),
                    Arc::clone(&core),
                    traced,
                )
            })
            .collect();
        let finished = body.run_ranks(comms)?;
        let mut vals = Vec::with_capacity(n);
        let mut clocks = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        let mut ranks = Vec::with_capacity(n);
        for (v, mut comm) in finished {
            ranks.push(comm.take_spans());
            clocks.push(comm.now());
            stats.push(comm.stats);
            vals.push(v);
        }
        Ok((
            SpmdOutcome {
                results: vals,
                clocks,
                stats,
                exec_report: core.report(),
            },
            RunTrace { ranks },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{pack_f64s, unpack_f64s};
    use crate::exec::{threaded, Stackless};
    use crate::spec::metablade;
    use bytes::Bytes;

    fn small_cluster(n: usize) -> Cluster {
        Cluster::new(metablade().with_nodes(n))
    }

    #[test]
    fn ping_pong_times_are_symmetric_and_positive() {
        let c = small_cluster(2);
        let out = c.run(|comm: &mut Comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Bytes::from_static(b"hello"));
                let r = comm.recv(1, 8);
                assert_eq!(&r[..], b"world");
            } else {
                let r = comm.recv(0, 7);
                assert_eq!(&r[..], b"hello");
                comm.send(0, 8, Bytes::from_static(b"world"));
            }
            comm.now()
        });
        // One round trip ≥ 2 × (latency + overheads).
        assert!(out.makespan_s() > 2.0 * 70e-6, "{}", out.makespan_s());
        assert!(out.makespan_s() < 1e-3);
        assert_eq!(out.stats[0].sends, 1);
        assert_eq!(out.stats[0].recvs, 1);
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let c = small_cluster(8);
        let job = |comm: &mut crate::comm::Comm| {
            let vals = vec![comm.rank() as f64; 16];
            let sum = comm.allreduce_sum(&vals);
            comm.compute(1e6);
            comm.barrier();
            (sum[0], comm.now())
        };
        let a = c.run(job);
        let b = c.run(job);
        for r in 0..8 {
            assert_eq!(a.results[r].0, 28.0);
            assert_eq!(
                a.results[r].1, b.results[r].1,
                "rank {r} clock must be reproducible"
            );
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        let c = small_cluster(5);
        let out = c.run(|comm: &mut Comm| {
            let mine = pack_f64s(&[comm.rank() as f64 * 10.0]);
            comm.allgather(mine)
                .iter()
                .map(|b| unpack_f64s(b)[0])
                .collect::<Vec<_>>()
        });
        for r in out.results {
            assert_eq!(r, vec![0.0, 10.0, 20.0, 30.0, 40.0]);
        }
    }

    #[test]
    fn alltoallv_routes_personalized_payloads() {
        let n = 4;
        let c = small_cluster(n);
        let out = c.run(|comm: &mut Comm| {
            let outgoing: Vec<Bytes> = (0..n)
                .map(|d| pack_f64s(&[(comm.rank() * 100 + d) as f64]))
                .collect();
            comm.alltoallv(outgoing)
                .iter()
                .map(|b| unpack_f64s(b)[0])
                .collect::<Vec<_>>()
        });
        for (rank, incoming) in out.results.iter().enumerate() {
            for (src, &v) in incoming.iter().enumerate() {
                assert_eq!(v, (src * 100 + rank) as f64, "src {src} → dst {rank}");
            }
        }
    }

    #[test]
    fn compute_charges_at_sustained_rate() {
        let c = small_cluster(1);
        let out = c.run(|comm: &mut Comm| {
            comm.compute(87.5e6); // exactly one second at 87.5 Mflops
            comm.now()
        });
        assert!((out.results[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let c = small_cluster(2);
        let out = c.run(|comm: &mut Comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Bytes::from_static(b"first"));
                comm.send(1, 2, Bytes::from_static(b"second"));
                0
            } else {
                // Receive in reverse tag order.
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                assert_eq!(&b[..], b"second");
                assert_eq!(&a[..], b"first");
                1
            }
        });
        assert_eq!(out.results, vec![0, 1]);
    }

    #[test]
    fn barrier_aligns_no_one_before_the_slowest() {
        let c = small_cluster(4);
        let out = c.run(|comm: &mut Comm| {
            if comm.rank() == 3 {
                comm.compute(87.5e6); // 1 virtual second of work
            }
            comm.barrier();
            comm.now()
        });
        for (rank, t) in out.results.iter().enumerate() {
            assert!(*t >= 1.0, "rank {rank} left the barrier at {t}");
        }
    }

    /// A job exercising point-to-point traffic, collectives and skewed
    /// compute, so clocks, stats and results all depend on the full
    /// message schedule.
    fn ring_and_collectives() -> Stackless<impl AsyncFn(&mut Comm) -> (Vec<f64>, f64) + Sync + Copy>
    {
        Stackless(async |comm: &mut Comm| {
            let rank = comm.rank();
            let n = comm.nranks();
            comm.compute(1e6 * (1 + rank % 3) as f64);
            if n > 1 {
                let next = (rank + 1) % n;
                let prev = (rank + n - 1) % n;
                comm.send_f64s(next, 11, &[rank as f64]);
                let got = comm.recv_f64s_async(prev, 11).await;
                assert_eq!(got, vec![prev as f64]);
            }
            let sum = comm.allreduce_sum_async(&[comm.now(), rank as f64]).await;
            comm.barrier_async().await;
            (sum, comm.now())
        })
    }

    #[test]
    fn outcome_is_bit_identical_under_every_exec_policy() {
        // Every run has one slot whatever the policy; what is left to
        // compare is the two body forms.
        let job = ring_and_collectives();
        for n in [1usize, 4, 8, 24] {
            let reference = small_cluster(n).run(threaded(job));
            let out = small_cluster(n).run(job);
            assert_eq!(out.results, reference.results, "{n} ranks");
            assert_eq!(out.clocks, reference.clocks, "{n} ranks");
            assert_eq!(out.stats, reference.stats, "{n} ranks");
        }
    }

    #[test]
    fn topology_outcomes_are_bit_identical_under_every_exec_policy() {
        use crate::topology::Topology;
        let job = ring_and_collectives();
        for topo in [Topology::fat_tree(4, 2, 4.0), Topology::torus([4, 4, 1])] {
            let cluster = Cluster::new(metablade().with_nodes(16).with_topology(topo));
            let reference = cluster.run(threaded(job));
            let out = cluster.run(job);
            assert_eq!(out.results, reference.results, "{topo:?}");
            assert_eq!(out.clocks, reference.clocks, "{topo:?}");
            assert_eq!(out.stats, reference.stats, "{topo:?}");
        }
    }

    #[test]
    fn fat_tree_collectives_are_slower_than_the_star() {
        use crate::topology::Topology;
        let job = |comm: &mut crate::comm::Comm| {
            for _ in 0..4 {
                let _ = comm.allreduce_sum(&[comm.rank() as f64; 64]);
            }
            comm.now()
        };
        let star = Cluster::new(metablade().with_nodes(64)).run(job);
        let ft = Cluster::new(
            metablade()
                .with_nodes(64)
                .with_topology(Topology::fat_tree(8, 2, 4.0)),
        )
        .run(job);
        assert!(
            ft.makespan_s() > star.makespan_s() * 1.05,
            "oversubscribed fat-tree allreduce ({}) not slower than star ({})",
            ft.makespan_s(),
            star.makespan_s()
        );
    }

    #[test]
    fn placement_changes_fat_tree_costs_but_not_star_costs() {
        use crate::topology::Topology;
        let job = |comm: &mut crate::comm::Comm| {
            comm.send_f64s((comm.rank() + 1) % comm.nranks(), 5, &[1.0; 128]);
            let _ = comm.recv_f64s((comm.rank() + comm.nranks() - 1) % comm.nranks(), 5);
            comm.barrier();
            comm.now()
        };
        let ft_spec = metablade()
            .with_nodes(4)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        // Same 4-rank job, nodes all under edge switch 0 vs spread over
        // four different edge switches.
        let compact = Cluster::new(ft_spec.clone()).run_mapped(&[0, 1, 2, 3], job);
        let spread = Cluster::new(ft_spec).run_mapped(&[0, 4, 8, 12], job);
        assert!(
            spread.makespan_s() > compact.makespan_s(),
            "spanning switch boundaries must cost uplink time: {} vs {}",
            spread.makespan_s(),
            compact.makespan_s()
        );
        // On the star, identical placements are indistinguishable.
        let star_spec = metablade().with_nodes(4);
        let a = Cluster::new(star_spec.clone()).run_mapped(&[0, 1, 2, 3], job);
        let b = Cluster::new(star_spec).run_mapped(&[7, 3, 11, 19], job);
        assert_eq!(a.clocks, b.clocks);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn nodes_beyond_topology_capacity_are_rejected() {
        use crate::topology::Topology;
        // 17 nodes cannot be wired onto a 4×2 fat-tree (capacity 16).
        let spec = metablade()
            .with_nodes(17)
            .with_topology(Topology::fat_tree(4, 2, 4.0));
        let _ = Cluster::new(spec).run(|comm: &mut Comm| comm.rank());
    }

    #[test]
    fn bounded_executor_supports_tracing_identically() {
        let job = |comm: &mut crate::comm::Comm| {
            let s = comm.allreduce_sum(&[comm.rank() as f64]);
            comm.compute(2e6);
            comm.barrier();
            s[0]
        };
        let plain = small_cluster(8).run(job);
        let (traced, trace) = small_cluster(8).run_traced(job);
        assert_eq!(plain.clocks, traced.clocks);
        assert_eq!(plain.results, traced.results);
        assert_eq!(trace.ranks.len(), 8);
    }

    #[test]
    fn a_stackless_body_reproduces_its_threaded_twin_spans_included() {
        use crate::topology::Topology;
        // Every async operation, a self-send and a phase, on the star
        // and on a fat-tree.
        let body = Stackless(async |comm: &mut Comm| {
            let (rank, n) = (comm.rank(), comm.nranks());
            comm.begin_phase("exchange");
            comm.compute(1e5 * (1 + rank % 3) as f64);
            comm.send_f64s((rank + 1) % n, 3, &[rank as f64]);
            let got = comm.recv_f64s_async((rank + n - 1) % n, 3).await;
            comm.send(rank, 4, Bytes::from(vec![rank as u8]));
            let me = comm.recv_async(rank, 4).await;
            comm.end_phase();
            let sum = comm.allreduce_sum_async(&[got[0], me[0] as f64]).await;
            let all = comm.allgather_async(pack_f64s(&[rank as f64])).await;
            let out = (0..n).map(|d| pack_f64s(&[(rank * n + d) as f64]));
            let inc = comm.alltoallv_async(out.collect()).await;
            comm.barrier_async().await;
            let gathered: Vec<f64> = all.iter().chain(&inc).map(|b| unpack_f64s(b)[0]).collect();
            (sum, gathered, comm.now())
        });
        for spec in [
            metablade().with_nodes(12),
            metablade()
                .with_nodes(16)
                .with_topology(Topology::fat_tree(4, 2, 4.0)),
        ] {
            let cluster = Cluster::new(spec).with_prof(false);
            let (twin, twin_trace) = cluster.run_traced(threaded(body));
            let (out, trace) = cluster.run_traced(body);
            assert_eq!(out.results, twin.results);
            assert_eq!(out.clocks, twin.clocks);
            assert_eq!(out.stats, twin.stats);
            assert_eq!(trace.ranks, twin_trace.ranks);
            // One poll loop: the same admissions in the same order.
            assert_eq!(out.exec_report, twin.exec_report);
        }
    }

    /// `body` run on `cluster` with the event core admitting ready ranks
    /// in the order `seed` draws (`None`: lowest `(clock, rank)` first),
    /// as text: `{:?}` prints each `f64` in the shortest form that parses
    /// back to the same bits, so equal text is equal bits.
    fn outcome_admitted_by<R: fmt::Debug, B: SpmdBody<R>>(
        cluster: &Cluster,
        body: B,
        seed: Option<u64>,
    ) -> String {
        crate::event::tests::ADMISSION_SEED.set(seed);
        let out = cluster.run(body);
        crate::event::tests::ADMISSION_SEED.set(None);
        format!("{:?}", (out.results, out.clocks, out.stats))
    }

    #[test]
    fn admission_order_cannot_change_an_outcome() {
        use crate::topology::Topology;
        // Compute skew lets ranks run rounds ahead of their receivers, so
        // mailboxes hold several messages of one (source, tag).
        let body = Stackless(async |comm: &mut Comm| {
            let (rank, n) = (comm.rank(), comm.nranks());
            comm.compute(1e5 * (1 + rank % 5) as f64);
            let sum = comm.allreduce_sum_async(&[rank as f64]).await[0];
            let mut got = Vec::new();
            for round in 0..6 {
                comm.compute(2e4 * ((rank * 7 + round) % 11) as f64);
                let mine = [(rank * 6 + round) as f64];
                comm.send_f64s((rank + 1) % n, 5, &mine);
                comm.send_f64s((rank + 2) % n, 5, &mine);
                got.extend(comm.recv_f64s_async((rank + n - 1) % n, 5).await);
                got.extend(comm.recv_f64s_async((rank + n - 2) % n, 5).await);
            }
            let all = comm.allgather_async(pack_f64s(&[sum + rank as f64])).await;
            let out = (0..n).map(|d| pack_f64s(&[(rank * n + d) as f64]));
            let inc = comm.alltoallv_async(out.collect()).await;
            comm.barrier_async().await;
            got.extend(all.iter().chain(&inc).map(|b| unpack_f64s(b)[0]));
            (got, comm.now())
        });
        for spec in [
            metablade().with_nodes(24),
            metablade().with_nodes(256),
            metablade()
                .with_nodes(128)
                .with_topology(Topology::fat_tree(16, 2, 4.0)),
        ] {
            let (n, cluster) = (spec.nodes, Cluster::new(spec));
            let lowest_first = outcome_admitted_by(&cluster, body, None);
            for seed in 1..=8 {
                let shuffled = outcome_admitted_by(&cluster, body, Some(seed));
                assert!(shuffled == lowest_first, "n {n}, seed {seed}");
            }
            // A closure rank goes through the same seeded heap key; its
            // thread handoffs make each run dearer, so fewer seeds.
            for seed in 1..=2 {
                let threads = outcome_admitted_by(&cluster, threaded(body), Some(seed));
                assert!(threads == lowest_first, "n {n}, seed {seed}, threaded");
            }
        }
        let allreduce = Stackless(async |comm: &mut Comm| {
            comm.allreduce_sum_async(&[comm.rank() as f64]).await
        });
        let wide = Cluster::new(metablade().with_nodes(4096));
        let lowest_first = outcome_admitted_by(&wide, allreduce, None);
        for seed in 1..=2 {
            let shuffled = outcome_admitted_by(&wide, allreduce, Some(seed));
            assert!(shuffled == lowest_first, "n 4096, seed {seed}");
        }
    }

    #[test]
    fn sequential_is_one_slot_of_the_event_core() {
        let n = 8;
        let out =
            small_cluster(n).run(|comm: &mut Comm| comm.allreduce_sum(&[comm.rank() as f64])[0]);
        assert_eq!(out.results, vec![28.0; n]);
        let rep = &out.exec_report;
        assert_eq!(rep.nranks, n);
        assert!(rep.admissions >= n as u64, "{rep:?}");
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_carries_host_profile() {
        let job = |comm: &mut crate::comm::Comm| {
            let s = comm.allreduce_sum(&[comm.rank() as f64]);
            comm.compute(1e6);
            comm.barrier();
            s[0]
        };
        let plain = small_cluster(8).with_prof(false).run(job);
        let profiled = small_cluster(8).with_prof(true).run(job);
        // Simulated quantities are bit-identical: profiling reads only
        // the host clock.
        assert_eq!(plain.results, profiled.results);
        assert_eq!(plain.clocks, profiled.clocks);
        assert_eq!(plain.stats, profiled.stats);
        assert!(plain.exec_report.prof.is_none());
        let p = profiled.exec_report.prof.as_ref().expect("profile present");
        assert_eq!(p.busy_ns.count(), profiled.exec_report.admissions);
        assert!(p.idle_ns.p50() <= p.idle_ns.p99());
    }

    #[test]
    fn efficiency_of_embarrassingly_parallel_work_is_high() {
        let serial_flops = 87.5e6 * 8.0;
        let c = small_cluster(8);
        let out = c.run(|comm: &mut Comm| {
            comm.compute(serial_flops / 8.0);
            comm.barrier();
        });
        let serial_s = serial_flops / 87.5e6;
        let eff = out.efficiency(serial_s);
        assert!(eff > 0.95, "efficiency {eff}");
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::spec::metablade;
    use bytes::Bytes;
    use mb_telemetry::chrome;
    use mb_telemetry::json::{parse, Json};
    use mb_telemetry::trace::SpanKind;

    fn ping_pong(comm: &mut Comm) -> f64 {
        comm.begin_phase("ping-pong");
        if comm.rank() == 0 {
            comm.compute(87.5e4); // 10 ms of "work" before the exchange
            comm.send(1, 7, Bytes::from_static(b"ping"));
            let r = comm.recv(1, 8);
            assert_eq!(&r[..], b"pong");
        } else {
            let r = comm.recv(0, 7);
            assert_eq!(&r[..], b"ping");
            comm.send(0, 8, Bytes::from_static(b"pong"));
        }
        comm.end_phase();
        comm.now()
    }

    #[test]
    fn traced_run_matches_untraced_clocks_exactly() {
        let c = Cluster::new(metablade().with_nodes(4));
        let job = |comm: &mut Comm| {
            let s = comm.allreduce_sum(&[comm.rank() as f64]);
            comm.compute(1e6);
            comm.barrier();
            s[0]
        };
        let plain = c.run(job);
        let (traced, trace) = c.run_traced(job);
        assert_eq!(plain.clocks, traced.clocks);
        assert_eq!(plain.results, traced.results);
        assert!(!trace.is_empty());
        assert_eq!(trace.ranks.len(), 4);
    }

    #[test]
    fn trace_spans_account_for_the_stats() {
        let c = Cluster::new(metablade().with_nodes(2));
        let (out, trace) = c.run_traced(ping_pong);
        for (rank, spans) in trace.ranks.iter().enumerate() {
            let s = &out.stats[rank];
            let time = |kind| -> f64 {
                spans
                    .iter()
                    .filter(|e| e.kind == kind)
                    .map(|e| e.dur_s())
                    .sum()
            };
            // Recv spans cover wait + busy; the phase covers the timeline.
            for (kind, want) in [
                (SpanKind::Compute, s.compute_s),
                (SpanKind::Send, s.send_busy_s),
                (SpanKind::Recv, s.wait_s + s.recv_busy_s),
                (SpanKind::Phase, out.clocks[rank]),
            ] {
                assert!((time(kind) - want).abs() < 1e-12, "rank {rank} {kind:?}");
            }
        }
    }

    /// The golden Chrome-exporter test: a 2-rank ping-pong must produce a
    /// trace_event document that parses back, validates (monotonic
    /// timestamps, proper nesting), has one track per rank, and pairs
    /// every send with a recv of the same byte count on the peer track.
    #[test]
    fn ping_pong_chrome_trace_is_valid_and_paired() {
        let c = Cluster::new(metablade().with_nodes(2));
        let (out, trace) = c.run_traced(ping_pong);
        let text = chrome::export(&trace);

        let summary = chrome::validate(&text).expect("exporter output validates");
        assert_eq!(summary.tracks, vec![0, 1], "one track per rank");
        assert!((summary.end_us - out.makespan_s() * 1e6).abs() < 1e-6);

        let doc = parse(&text).unwrap();
        let events = doc.as_arr().unwrap();
        let named = |track: f64, name: &str| -> Vec<&Json> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                .filter(|e| e.get("tid").and_then(Json::as_f64) == Some(track))
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .collect()
        };
        // Each rank sent one 4-byte message and received one.
        for (track, peer) in [(0.0, 1.0), (1.0, 0.0)] {
            let sends = named(track, "send");
            let recvs = named(track, "recv");
            assert_eq!(sends.len(), 1, "track {track} sends");
            assert_eq!(recvs.len(), 1, "track {track} recvs");
            for ev in sends.iter().chain(&recvs) {
                let args = ev.get("args").unwrap();
                assert_eq!(args.get("peer").unwrap().as_f64(), Some(peer));
                assert_eq!(args.get("bytes").unwrap().as_f64(), Some(4.0));
            }
        }
        // Metadata names both tracks.
        let meta: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
    }

    #[test]
    fn per_peer_traffic_is_counted_and_symmetric() {
        let n = 4;
        let c = Cluster::new(metablade().with_nodes(n));
        let out = c.run(|comm: &mut Comm| {
            // Each rank sends (rank+1) 8-byte messages to its successor.
            let next = (comm.rank() + 1) % comm.nranks();
            let prev = (comm.rank() + comm.nranks() - 1) % comm.nranks();
            for i in 0..comm.rank() + 1 {
                comm.send_f64s(next, 3, &[i as f64]);
            }
            for _ in 0..prev + 1 {
                let _ = comm.recv_f64s(prev, 3);
            }
        });
        for src in 0..n {
            let dst = (src + 1) % n;
            let sent = out.stats[src].peer(dst);
            let got = out.stats[dst].peer(src);
            assert_eq!(sent.msgs_to, (src + 1) as u64, "rank {src} msgs to {dst}");
            assert_eq!(sent.bytes_to, 8 * (src + 1) as u64);
            assert_eq!(got.msgs_from, sent.msgs_to, "symmetry {src}→{dst}");
            assert_eq!(got.bytes_from, sent.bytes_to);
            // No traffic to anyone else.
            let other = (src + 2) % n;
            if other != dst {
                assert_eq!(out.stats[src].peer(other).msgs_to, 0);
            }
        }
        // The traffic matrix agrees with the per-rank totals.
        let m = out.traffic_matrix();
        for (src, row) in m.iter().enumerate() {
            assert_eq!(
                row.iter().sum::<u64>(),
                out.stats[src].bytes_sent,
                "row {src} sums to bytes_sent"
            );
        }
    }

    #[test]
    fn summary_reports_imbalance_of_skewed_work() {
        let c = Cluster::new(metablade().with_nodes(4));
        let out = c.run(|comm: &mut Comm| {
            if comm.rank() == 0 {
                comm.compute(87.5e6); // 1 s on rank 0, nothing elsewhere
            }
            comm.barrier();
        });
        let s = out.summary();
        assert_eq!(s.ranks.len(), 4);
        assert!(s.makespan_s >= 1.0);
        // Rank 0 did ~all the busy work: imbalance approaches 0.75.
        assert!(s.load_imbalance() > 0.5, "imbalance {}", s.load_imbalance());
        assert!(s.critical_path_s() >= 1.0);
        let text = s.render();
        assert!(text.contains("load imbalance"));
    }
}
