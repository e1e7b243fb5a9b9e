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
use metablade::sched::{simulate, JobSpec, SchedConfig, ServiceModel, WorkModel};

/// Seeded comm-heavy stream (mirrors `sched_sim`'s contention
/// workload): mixed widths fragment the groups, mixed message sizes
/// make per-group uplink loads unequal.
fn workload(
    jobs: usize,
    min_ranks: usize,
    max_ranks: usize,
    gap_s: f64,
    seed: u64,
) -> Vec<JobSpec> {
    let mut s = seed | 1;
    let mut next = move |m: u64| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s % m
    };
    let mut t = 0.0;
    (0..jobs)
        .map(|i| {
            let ranks = min_ranks + next((max_ranks - min_ranks + 1) as u64) as usize;
            let steps = 150 + next(150) as u32;
            let msg_kib = 32u32 << (next(3) as u32);
            let spec = JobSpec {
                id: i,
                submit_s: t,
                ranks,
                work: WorkModel::Synthetic {
                    flops_per_step: 1e6,
                    msg_kib,
                    rounds: 8,
                    steps,
                },
            };
            t += gap_s * (0.5 + next(100) as f64 / 100.0);
            spec
        })
        .collect()
}

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
    let wl = workload(14, 3, 8, 10.0, seed);
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
