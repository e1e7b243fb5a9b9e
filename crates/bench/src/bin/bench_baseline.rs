//! Regenerate the repo-root benchmark baselines: sweep the cluster and
//! treecode suites over executor policies (seq / w2 / w8 / unbounded)
//! and rank counts (1/4/8/24/128/512/1024 for the cluster suite), verify
//! every policy produced a bit-identical outcome, and write
//! `BENCH_cluster.json` and `BENCH_treecode.json` (schema documented in
//! `BENCHMARKS.md`).
//!
//! argv: `[n_bodies] [--smoke] [--ranks R1,R2,...]`
//!
//! * `n_bodies` — Plummer-sphere size for the treecode step (default
//!   20 000).
//! * `--smoke` — the seconds-scale CI configuration
//!   ([`SweepConfig::smoke`](mb_bench::baseline::SweepConfig::smoke)):
//!   4 rounds, 1 000 bodies, single repeats. Smoke documents are
//!   written as `BENCH_cluster_smoke.json` /
//!   `BENCH_treecode_smoke.json` so they gate against the committed
//!   smoke baselines and never clobber the full ones.
//! * `--ranks` — comma-separated rank counts overriding both suites'
//!   sweeps (e.g. `--ranks 128` for the CI scale gate).
//!
//! With `MB_PROF=1` the harness additionally reruns the largest
//! imbalance case host-time-profiled and writes `PROF_cluster.json`
//! (the `executor/*` counters and `prof/*` histograms as JSON).
//!
//! Output directory: `$MB_BENCH_DIR`, or the current directory (the repo
//! root keeps its committed copies there).

fn main() {
    mb_bench::cli::baseline_main()
}
