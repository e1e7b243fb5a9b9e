//! `bench_baseline` driven as a binary: the smoke documents it writes
//! must equal the committed ones leaf for leaf, and bad argv must be a
//! usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mb_telemetry::json::{parse, Json};

/// Run `bench_baseline` writing into a fresh directory of its own.
fn run_into(dir_name: &str, args: &[&str]) -> (PathBuf, Output) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_baseline"))
        .args(args)
        .env("MB_TELEMETRY_DIR", &dir)
        .output()
        .expect("spawn bench_baseline");
    (dir, out)
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The regression gate for `BENCH_{cluster,treecode}_smoke.json`: rerun
/// the producer exactly as the files were made and require document
/// equality. The documents hold simulated values only, so any line
/// reported here is a changed simulated outcome (or a changed layout);
/// regenerate the committed copy only when that change is intended
/// (BENCHMARKS.md, "Pins").
#[test]
fn smoke_documents_reproduce_the_committed_ones() {
    let (dir, out) = run_into("bench_baseline_smoke", &["--smoke", "--ranks", "128"]);
    assert!(out.status.success(), "{out:?}");
    let mut lines = Vec::new();
    for name in ["BENCH_cluster_smoke.json", "BENCH_treecode_smoke.json"] {
        let committed = load(
            &Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(name),
        );
        let regenerated = load(&dir.join(name));
        lines.extend(
            committed
                .diff(&regenerated)
                .iter()
                .map(|l| format!("{name}: {l}")),
        );
    }
    assert!(
        lines.is_empty(),
        "committed -> regenerated:\n{}",
        lines.join("\n")
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Bad argv is status 2 with the usage line on stderr and nothing
/// written — not a silently narrowed sweep, not a backtrace.
#[test]
fn bad_argv_is_a_usage_error() {
    let cases: [&[&str]; 6] = [
        &["--smoke", "--ranks", "128,abc"],
        &["--smoke", "--ranks", "0,128"],
        &["--smoke", "--ranks"],
        &["--smoke", "--bogus"],
        &["--smoke", "lots"],
        &["--smoke", "0"],
    ];
    for args in cases {
        let (dir, out) = run_into("bench_baseline_bad_argv", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: bench_baseline"),
            "{args:?}: {stderr}"
        );
        assert!(!dir.exists(), "{args:?} wrote into {}", dir.display());
    }
}
