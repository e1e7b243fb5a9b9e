//! The executor fails loudly instead of hanging, and the core-owned
//! mailboxes keep the communicator's contract. The failure tests run one
//! `async` body both ways a rank runs: polled on the calling thread, and
//! on threads through `threaded`.
//!
//! Every run here sits behind a watchdog: it executes on its own thread
//! and the test waits for the answer with a timeout, so a regression in
//! the executor fails the test instead of holding tier-1 forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use bytes::Bytes;
use mb_cluster::event::BlockedRecv;
use mb_cluster::machine::{SimError, SpmdOutcome};
use mb_cluster::spec::metablade;
use mb_cluster::{threaded, Cluster, Comm, ExecPolicy, PeerTraffic, Stackless};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POLICIES: [ExecPolicy; 4] = [
    ExecPolicy::Sequential,
    ExecPolicy::Parallel { workers: 2 },
    ExecPolicy::Parallel { workers: 8 },
    ExecPolicy::Unbounded,
];

/// Run `job` on its own thread; fail if it has not answered in `secs`.
fn within<T: Send + 'static>(secs: u64, job: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(job());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|e| panic!("no answer from the run within {secs} s: {e}"));
    runner.join().expect("runner answered, so it did not panic");
    out
}

fn cluster(n: usize, policy: ExecPolicy) -> Cluster {
    Cluster::new(metablade().with_nodes(n)).with_exec(policy)
}

/// Which way the ranks of a [`try_run_as`] run.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// Futures polled on the calling thread.
    Stackless,
    /// The same body as a closure, on threads.
    Threaded,
}

fn try_run_as<R: Send, F: AsyncFn(&mut Comm) -> R + Sync>(
    cluster: Cluster,
    form: Form,
    body: Stackless<F>,
) -> Result<SpmdOutcome<R>, SimError> {
    match form {
        Form::Stackless => cluster.try_run(body),
        Form::Threaded => cluster.try_run(threaded(body)),
    }
}

/// The threaded form under every policy, then the stackless form once: it
/// has one slot whatever the policy.
fn policies_and_forms() -> impl Iterator<Item = (ExecPolicy, Form)> {
    POLICIES
        .into_iter()
        .map(|policy| (policy, Form::Threaded))
        .chain([(ExecPolicy::Unbounded, Form::Stackless)])
}

#[test]
fn crossed_receives_are_reported_as_a_deadlock_naming_both_ranks() {
    for (policy, form) in policies_and_forms() {
        // Ranks 0 and 1 both receive before they send; rank 2 has long
        // finished and must not be listed.
        let body = Stackless(async |comm: &mut Comm| {
            if comm.rank() < 2 {
                let peer = 1 - comm.rank();
                comm.compute(87.5e6 * (1 + comm.rank()) as f64);
                let _ = comm.recv_async(peer, 7).await;
                comm.send(peer, 7, Bytes::new());
            }
        });
        let err = within(5, move || try_run_as(cluster(3, policy), form, body))
            .expect_err("nobody ever sends");
        let SimError::Deadlock(blocked) = &err;
        let awaits = |rank, src, clock| BlockedRecv {
            rank,
            src,
            tag: 7,
            clock,
        };
        assert_eq!(
            blocked,
            &[awaits(0, 1, 1.0), awaits(1, 0, 2.0)],
            "{policy:?} {form:?}"
        );
        let text = err.to_string();
        assert!(
            text.contains("rank 1 awaits (src 0, tag 0x7)"),
            "{policy:?} {form:?}: {text}"
        );
    }
}

#[test]
fn run_panics_with_the_deadlock_text() {
    let payload = within(5, || {
        catch_unwind(|| {
            cluster(2, ExecPolicy::Unbounded).run(|comm: &mut Comm| comm.recv(1 - comm.rank(), 3))
        })
        .expect_err("run cannot return an outcome")
    });
    let text = payload.downcast_ref::<String>().expect("formatted panic");
    assert!(text.starts_with("SPMD deadlock: 2 rank(s)"), "{text}");
}

#[test]
fn a_panicking_rank_is_re_raised_while_its_peers_sit_in_a_barrier() {
    for (policy, form) in policies_and_forms() {
        let body = Stackless(async |comm: &mut Comm| {
            if comm.rank() == 3 {
                panic!("rank 3 exploded");
            }
            comm.barrier_async().await;
        });
        let payload = within(5, move || {
            catch_unwind(AssertUnwindSafe(|| {
                try_run_as(cluster(24, policy), form, body)
            }))
            .expect_err("rank 3 panicked")
        });
        // The originating payload, not a peer's `Poisoned` marker.
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"rank 3 exploded"),
            "{policy:?} {form:?}"
        );
    }
}

#[test]
fn a_receive_from_a_rank_that_does_not_exist_is_rejected_not_a_deadlock() {
    for (policy, form) in policies_and_forms() {
        let body = Stackless(async |comm: &mut Comm| {
            if comm.rank() == 1 {
                let _ = comm.recv_async(7, 2).await;
            }
            comm.barrier_async().await;
        });
        let payload = within(5, move || {
            catch_unwind(AssertUnwindSafe(|| {
                try_run_as(cluster(4, policy), form, body)
            }))
            .expect_err("there is no rank 7")
        });
        let text = payload.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(text, "recv from rank 7 of 4", "{policy:?} {form:?}");
    }
}

#[test]
fn a_blocking_call_from_a_stackless_body_panics_instead_of_hanging_the_poller() {
    let payload = within(5, || {
        catch_unwind(|| {
            cluster(4, ExecPolicy::Unbounded).run(Stackless(async |comm: &mut Comm| {
                comm.barrier();
            }))
        })
        .expect_err("a stackless rank has no thread to block")
    });
    let text = payload.downcast_ref::<String>().expect("formatted panic");
    assert!(
        text.starts_with("Comm::barrier blocks the rank's thread")
            && text.contains("comm.barrier_async(..)"),
        "{text}"
    );
}

#[test]
fn a_stackless_rank_pending_on_a_foreign_future_is_named_not_waited_for() {
    let payload = within(5, || {
        catch_unwind(|| {
            cluster(3, ExecPolicy::Unbounded).run(Stackless(async |comm: &mut Comm| {
                if comm.rank() == 1 {
                    std::future::pending::<()>().await;
                }
            }))
        })
        .expect_err("nothing can wake rank 1")
    });
    let text = payload.downcast_ref::<String>().expect("formatted panic");
    assert!(
        text.starts_with("stackless rank 1 awaited something other than a Comm receive"),
        "{text}"
    );
}

#[test]
fn fifo_holds_per_source_and_tag_under_every_policy() {
    // Rank 0 sends tags 9, 7, 9, 7 (payloads 0..4); rank 1 asks for
    // 7, 9, 9, 7 and must see each tag's messages in sending order.
    let body = |comm: &mut Comm| -> Vec<u8> {
        match comm.rank() {
            0 => {
                for (i, tag) in [9, 7, 9, 7].into_iter().enumerate() {
                    comm.send(1, tag, Bytes::from(vec![i as u8; 1 + i]));
                }
                Vec::new()
            }
            _ => {
                comm.compute(1e6);
                [7, 9, 9, 7]
                    .into_iter()
                    .map(|tag| comm.recv(0, tag)[0])
                    .collect()
            }
        }
    };
    let reference = within(5, move || cluster(2, POLICIES[0]).run(body));
    assert_eq!(reference.results[1], [1, 0, 2, 3]);
    for policy in &POLICIES[1..] {
        let policy = *policy;
        let out = within(5, move || cluster(2, policy).run(body));
        assert_eq!(out.results, reference.results, "{policy:?}");
        assert_eq!(out.clocks, reference.clocks, "{policy:?}");
        assert_eq!(out.stats, reference.stats, "{policy:?}");
    }
}

#[test]
fn a_self_send_is_received() {
    let out = within(5, || {
        cluster(2, ExecPolicy::Sequential).run(|comm: &mut Comm| {
            let me = comm.rank();
            comm.send(me, 4, Bytes::from(vec![me as u8 + 10]));
            comm.recv(me, 4)[0]
        })
    });
    assert_eq!(out.results, [10, 11]);
    assert_eq!(out.stats[1].peer(1).msgs_to, 1);
    assert_eq!(out.stats[1].peer(1).msgs_from, 1);
}

#[test]
fn sparse_peer_rows_agree_with_a_dense_reference() {
    let n = 12;
    let mut rng = StdRng::seed_from_u64(2002);
    // A global transfer order every rank walks, so it cannot deadlock.
    let plan: Vec<(usize, usize, usize)> = (0..300)
        .map(|_| {
            let src = rng.random_range(0..n);
            // Keep rank 11 silent and ranks 0..4 busiest.
            let dst = rng.random_range(0..if src < 4 { n - 1 } else { 4 });
            (src, dst, rng.random_range(0..2000usize))
        })
        .filter(|&(src, _, _)| src != n - 1)
        .collect();
    let mut dense = vec![vec![PeerTraffic::default(); n]; n];
    for &(src, dst, bytes) in &plan {
        dense[src][dst].msgs_to += 1;
        dense[src][dst].bytes_to += bytes as u64;
        dense[dst][src].msgs_from += 1;
        dense[dst][src].bytes_from += bytes as u64;
    }
    let walked = plan.clone();
    let out = within(10, move || {
        cluster(n, ExecPolicy::Parallel { workers: 2 }).run(|comm: &mut Comm| {
            for &(src, dst, bytes) in &walked {
                if comm.rank() == src {
                    comm.send(dst, 1, Bytes::from(vec![0u8; bytes]));
                }
                if comm.rank() == dst {
                    assert_eq!(comm.recv(src, 1).len(), bytes);
                }
            }
        })
    });
    for (rank, stats) in out.stats.iter().enumerate() {
        for (peer, want) in dense[rank].iter().enumerate() {
            assert_eq!(stats.peer(peer), *want, "rank {rank} peer {peer}");
        }
        // Only touched peers hold a row, in ascending rank.
        let touched: Vec<usize> = (0..n)
            .filter(|&p| dense[rank][p] != PeerTraffic::default())
            .collect();
        assert_eq!(
            stats.peers.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            touched,
            "rank {rank}"
        );
    }
    assert_eq!(
        out.stats[n - 1].peers.iter().count(),
        0,
        "rank 11 is silent"
    );
    let matrix = out.traffic_matrix();
    assert_eq!(matrix.len(), n);
    for (src, row) in matrix.iter().enumerate() {
        let want: Vec<u64> = dense[src].iter().map(|p| p.bytes_to).collect();
        assert_eq!(row, &want, "row {src} is dense and {n} wide");
    }
}
