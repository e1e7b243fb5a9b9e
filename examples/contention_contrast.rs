//! Placement policy vs cross-job link contention: Lowest, Compact and
//! ContentionAware on the same seeded comm-heavy stream over a 4:1
//! oversubscribed fat tree.
//!
//! Jobs are ring-exchange synthetics with mixed widths and message
//! sizes, so several run concurrently and their flows meet on the
//! tree's uplinks. The scheduler charges a deterministic mean-field
//! slowdown wherever two jobs share a link (DESIGN.md §14); the
//! contention-aware allocator steers spanning jobs onto the quietest
//! edge groups instead of the fullest ones. Everything is virtual
//! time: the table is bit-reproducible on any host.
//!
//! Run with: `cargo run --release --example contention_contrast [seed]`

use metablade::cluster::{Cluster, ExecPolicy, Topology};
use metablade::sched::engine::Placement;
use metablade::sched::policy::{EasyBackfill, Fcfs, SchedPolicy, Sjf};
use metablade::sched::{comm_heavy, simulate, SchedConfig, ServiceModel};

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        None => 11,
        Some(a) => a.parse().unwrap_or_else(|_| {
            eprintln!("contention_contrast: seed must be a number, got {a:?}");
            std::process::exit(2)
        }),
    };
    let spec = metablade::cluster::spec::metablade()
        .with_nodes(16)
        .with_topology(Topology::fat_tree(4, 2, 4.0));
    let wl = comm_heavy(14, 3, 8, 10.0, seed);
    let policies: [&dyn SchedPolicy; 3] = [&Fcfs, &EasyBackfill, &Sjf];

    println!(
        "contention_contrast: {} jobs (seed {seed}) on {} ({})",
        wl.len(),
        spec.name,
        spec.network.topology.label(),
    );
    println!(
        "\n{:<12} {:<6} {:>10} {:>8} {:>13} {:>13}",
        "placement", "policy", "makespan_s", "jobs/h", "slowdown_p99", "max_factor"
    );
    for placement in [
        Placement::Lowest,
        Placement::Compact,
        Placement::ContentionAware,
    ] {
        let cfg = SchedConfig {
            placement,
            ..SchedConfig::default()
        };
        let cluster = Cluster::new(spec.clone()).with_exec(ExecPolicy::Unbounded);
        let service = ServiceModel::new(&cluster);
        for policy in policies {
            let rep = simulate(&service, policy, &wl, &cfg);
            println!(
                "{:<12} {:<6} {:>10.0} {:>8.2} {:>13.2} {:>13.3}",
                placement.label(),
                rep.policy,
                rep.makespan_s,
                rep.jobs_per_hour,
                rep.slowdown_hist.p99(),
                rep.max_contention_factor,
            );
        }
    }
    println!(
        "\nLowest ignores the topology entirely; Compact packs under the \
         fullest edge switches; ContentionAware packs under the *quietest* \
         ones given the in-flight traffic (ties fall back to Compact)."
    );
}
