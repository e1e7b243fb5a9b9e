//! Regenerate the cluster and treecode BENCH documents: sweep both
//! suites over executor policies (seq / w2 / w8 / unbounded) and rank
//! counts (1/4/8/24/128/512/1024 for the cluster suite), verify every
//! policy produced a bit-identical outcome, and write
//! `BENCH_cluster.json` and `BENCH_treecode.json` (schema documented in
//! `BENCHMARKS.md`). The documents hold simulated values only, so a
//! rerun reproduces them byte for byte.
//!
//! argv: `[n_bodies] [--smoke] [--ranks R1,R2,...]`; anything else
//! prints the usage line on stderr and exits with status 2.
//!
//! * `n_bodies` — Plummer-sphere size for the treecode step (default
//!   20 000).
//! * `--smoke` — the seconds-scale configuration
//!   ([`SweepConfig::smoke`](mb_bench::baseline::SweepConfig::smoke)):
//!   4 rounds, 1 000 bodies. Smoke documents are written as
//!   `BENCH_cluster_smoke.json` / `BENCH_treecode_smoke.json` and never
//!   clobber the full ones.
//! * `--ranks` — comma-separated rank counts overriding both suites'
//!   sweeps (`--smoke --ranks 128` produces the committed smoke
//!   documents, which `cargo test` reproduces and compares).
//!
//! With `MB_PROF=1` the harness additionally reruns the largest
//! imbalance case host-time-profiled and writes `PROF_cluster.json`
//! (the `executor/*` counters and `prof/*` histograms as JSON).
//!
//! Output directory: `$MB_TELEMETRY_DIR`, default `./traces`. To refresh
//! the committed copies, run from the repo root with
//! `MB_TELEMETRY_DIR=.`.

fn main() {
    mb_bench::cli::baseline_main()
}
