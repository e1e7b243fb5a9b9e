//! `stream_sim`: streaming open-arrival job traffic at user scale.
//! All logic lives in [`mb_workload::cli`]; run with `--help` for the
//! scenario suite and outputs.

fn main() {
    mb_workload::cli::stream_main()
}
