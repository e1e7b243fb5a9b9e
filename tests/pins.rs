//! The regression gate for the four committed smoke pins: call the
//! suites `metablade pins` calls, at smoke size, and require each
//! document to equal its committed copy leaf for leaf. The documents
//! hold simulated values only, so any line reported here is a changed
//! simulated outcome (or a changed layout), named by file and JSON path;
//! regenerate the committed copies only when that change is intended
//! (BENCHMARKS.md, "Pins"). Each suite's own assertions (executor
//! invariance, EASY > FCFS, the M/G/k bounds, …) run on the way.

use metablade::telemetry::artifact::Pins;
use metablade::telemetry::json::parse;

/// Diff the suite's documents against the committed files and require
/// it to have produced exactly `names`.
fn assert_reproduces(out: Pins, names: &[&str]) {
    let produced: Vec<&str> = out.docs.iter().map(|(name, _)| *name).collect();
    assert_eq!(produced, names);
    let mut lines = Vec::new();
    for (name, doc) in &out.docs {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let committed = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        lines.extend(committed.diff(doc).iter().map(|l| format!("{name}: {l}")));
    }
    assert!(
        lines.is_empty(),
        "committed -> regenerated:\n{}",
        lines.join("\n")
    );
}

#[test]
fn cluster_and_treecode_smoke_pins_reproduce() {
    assert_reproduces(
        metablade::bench::baseline::suite(true),
        &["BENCH_cluster_smoke.json", "BENCH_treecode_smoke.json"],
    );
}

#[test]
fn sched_smoke_pin_reproduces() {
    assert_reproduces(
        metablade::sched::pins::suite(true),
        &["BENCH_sched_smoke.json"],
    );
}

#[test]
fn stream_smoke_pin_reproduces() {
    assert_reproduces(
        metablade::workload::pins::suite(true),
        &["BENCH_stream_smoke.json"],
    );
}
