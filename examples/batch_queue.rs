//! Batch-queue quickstart: generate a small seeded job stream, replay
//! it through the mb-sched workload manager on the simulated MetaBlade
//! under FCFS and EASY backfill, and print the fleet metrics the two
//! policies deliver.
//!
//! Run with: `cargo run --release --example batch_queue`

use metablade::cluster::Cluster;
use metablade::sched::{
    generate, simulate, EasyBackfill, Fcfs, SchedConfig, SchedPolicy, ServiceModel, SimReport,
    WorkloadConfig,
};

fn main() {
    // 1. A seeded workload: 30 jobs, Poisson arrivals, 1-24 ranks wide,
    //    mixing treecode steps, NPB kernels and synthetic flops/comm.
    let wl = WorkloadConfig {
        jobs: 30,
        seed: 11,
        mean_interarrival_s: 150.0,
        max_ranks: 24,
    };
    let jobs = generate(&wl);
    println!(
        "{} jobs (seed {}), widths {}..{} ranks",
        jobs.len(),
        wl.seed,
        jobs.iter().map(|j| j.ranks).min().unwrap(),
        jobs.iter().map(|j| j.ranks).max().unwrap(),
    );

    // 2. The machine: the 24-node MetaBlade. Each distinct job step is
    //    simulated once, every rank polled on this thread.
    let cluster = Cluster::new(metablade::cluster::spec::metablade());
    let service = ServiceModel::new(&cluster);

    // 3. Replay the same stream under two policies. No failure
    //    injection here; see `mb_sched::pins` for the full comparison.
    let cfg = SchedConfig::default();
    let print = |r: &SimReport| {
        println!(
            "  {:<5} makespan {:>7.0} s | utilization {:.3} | mean wait {:>6.0} s | {:.2} jobs/h",
            r.policy, r.makespan_s, r.utilization, r.mean_wait_s, r.jobs_per_hour,
        );
    };
    let fcfs = simulate(&service, &Fcfs, &jobs, &cfg);
    let easy = simulate(&service, &EasyBackfill, &jobs, &cfg);
    println!("policy comparison on {}:", cluster.spec().name);
    print(&fcfs);
    print(&easy);
    println!(
        "{}: recovers {:.1}% of the makespan {} leaves idle",
        EasyBackfill.name(),
        100.0 * (fcfs.makespan_s - easy.makespan_s) / fcfs.makespan_s,
        Fcfs.name(),
    );
}
