//! Star vs oversubscribed fat-tree: how interconnect contention erodes
//! the allreduce at the rank counts of Table 2's scaling story.
//!
//! The paper's MetaBlade hangs every node off one Fast-Ethernet switch
//! (an ideal star: no shared links, no contention). This example runs
//! the bench harness's allreduce microbenchmark on that star and on
//! 4:1-oversubscribed two- and three-tier fat-trees at 128 and 512
//! ranks, printing the virtual makespan and the slowdown the shared
//! uplinks cost. Routes and queueing are deterministic, so the numbers
//! are bit-reproducible on any host (EXPERIMENTS.md, "Topology
//! contention").
//!
//! Run with: `cargo run --release --example topology_contrast`

use metablade::bench::baseline::{allreduce_job, rounds_for};
use metablade::cluster::machine::Cluster;
use metablade::cluster::spec::metablade;
use metablade::cluster::{ExecPolicy, Topology};

fn main() {
    // 128 ranks straddle 8 edge switches of a radix-16 two-tier tree;
    // 512 ranks need a third tier (radix 8), where half the traffic
    // crosses the core.
    let cases = [
        (128usize, Topology::fat_tree(16, 2, 4.0)),
        (512usize, Topology::fat_tree(8, 3, 4.0)),
    ];
    println!(
        "{:>6}  {:<10}{:>14}{:>14}{:>10}",
        "ranks", "fat-tree", "star (s)", "tree (s)", "slowdown"
    );
    for (ranks, ft) in cases {
        assert!(ranks <= ft.capacity().expect("fat-trees are finite"));
        let rounds = rounds_for(64, ranks);
        let job = allreduce_job(rounds);
        let star = Cluster::new(metablade().with_nodes(ranks))
            .with_exec(ExecPolicy::Unbounded)
            .run(job);
        let tree = Cluster::new(metablade().with_nodes(ranks).with_topology(ft))
            .with_exec(ExecPolicy::Unbounded)
            .run(job);
        println!(
            "{:>6}  {:<10}{:>14.4}{:>14.4}{:>9.2}x",
            ranks,
            ft.label(),
            star.makespan_s(),
            tree.makespan_s(),
            tree.makespan_s() / star.makespan_s(),
        );
    }
    println!(
        "\nThe star is the paper's contention-free ideal; every fat-tree row \
         pays 2(k-1) oversubscribed uplink serializations per cross-switch \
         message (DESIGN.md section 13)."
    );
}
