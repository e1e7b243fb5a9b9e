//! The repo's benchmark: one command that prints every metric by name
//! with its unit and checks the program's outputs. See `README.md`.
//!
//! ```text
//! metablade-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is the result
//!     object the driver reads (end-to-end metrics with --trace 0,
//!     per-layer metrics with --trace 1)
//! metablade-benchmark [--seed N] [--seconds S] [--trace] [--smoke]
//!     every workload, each in its own child process, then
//!     benchmark/out/results.json
//! metablade-benchmark --compare a.json b.json
//!     the before/after table with the bounds of BENCHMARK.json
//! ```

mod compare;
mod declared;
mod harness;
mod runner;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use mb_telemetry::json::Json;

use declared::Declared;
use harness::Scale;
use runner::Options;

/// Default seed of a full run; it only feeds the benchmark's input
/// generators.
const DEFAULT_SEED: u64 = 2002;
/// `--seconds` of a `--smoke` run: with the smoke sizes every workload,
/// traced and untraced, finishes in about five seconds altogether.
const SMOKE_SECONDS: f64 = 0.2;

const USAGE: &str = "\
usage: metablade-benchmark [--workload NAME] [--seed N] [--seconds S]
                           [--trace [0|1]] [--smoke]
       metablade-benchmark --compare A.json B.json";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                let v = value(&mut it, arg)?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value(&mut it, arg)?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 3600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` by hand.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--compare" => cli.compare = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write an artifact under `benchmark/out/`; a failure is reported and
/// does not fail the run.
fn write_out(name: &str, text: &str) {
    let dir = out_dir();
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn run_one(cli: &Cli, workload: &str, seconds: f64) -> ExitCode {
    let opts = Options {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        scale: if cli.smoke { Scale::Smoke } else { Scale::Full },
    };
    match runner::run(&opts) {
        Ok(result) => {
            if cli.trace {
                write_out(&format!("trace.{workload}.jsonl"), &result.trace_jsonl);
            }
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("metablade-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload in a child process of this binary, echoing its
/// output; returns the parsed result line.
fn run_child(cli: &Cli, workload: &str, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("{workload}: reading output: {e}"))?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("{workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    mb_telemetry::json::parse(&last).map_err(|e| format!("{workload}: result line: {e}"))
}

fn run_all(cli: &Cli, seconds: f64) -> ExitCode {
    let declared = Declared::load();
    let mut doc_workloads = BTreeMap::new();
    let mut all_correct = true;
    for name in &declared.workloads {
        let mut entry = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let result = match run_child(cli, name, seconds, trace) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("metablade-benchmark: {e}");
                    return ExitCode::from(2);
                }
            };
            let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            attempted += num("attempted");
            failed += num("failed");
            let section = if trace { "per_layer" } else { "end_to_end" };
            entry.insert(
                section.to_string(),
                result.get("metrics").cloned().unwrap_or(Json::Null),
            );
        }
        all_correct &= failed == 0.0;
        entry.insert("attempted".to_string(), Json::Num(attempted));
        entry.insert("failed".to_string(), Json::Num(failed));
        entry.insert("correct".to_string(), Json::Bool(failed == 0.0));
        doc_workloads.insert(name.clone(), Json::Obj(entry));
    }

    println!("\n== summary (seed {}, {seconds} s per run)", cli.seed);
    for (name, entry) in declared
        .workloads
        .iter()
        .filter_map(|n| Some((n, doc_workloads.get(n)?)))
    {
        for m in &declared.end_to_end {
            let v = entry
                .get("end_to_end")
                .and_then(|e| e.get(&m.name))
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            println!("  {name:<20} {:<12} {v:>18.4} {}", m.name, m.unit);
        }
        let failed = entry.get("failed").and_then(Json::as_f64).unwrap_or(-1.0);
        let attempted = entry.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        println!("  {name:<20} failed_checks {failed} / {attempted}");
    }
    let doc = Json::obj([
        ("schema", Json::str("metablade-benchmark/1")),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(cli.smoke)),
        ("traced", Json::Bool(cli.trace)),
        ("host_cpus", Json::Num(harness::nproc() as f64)),
        ("workloads", Json::Obj(doc_workloads)),
    ]);
    write_out("results.json", &doc.to_string());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("metablade-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("metablade-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        Declared::load().run_seconds
    });
    match &cli.workload {
        Some(w) => run_one(&cli, w, seconds),
        None => run_all(&cli, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let cli = parse_cli(&args(
            "--workload cms_guest --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("cms_guest"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, Some(10.0), false));
        assert!(parse_cli(&args("--trace 1")).unwrap().trace);
        // Bare --trace, as typed by hand, followed by another flag.
        let cli = parse_cli(&args("--trace --smoke")).unwrap();
        assert!(cli.trace && cli.smoke);
        assert_eq!(cli.seed, DEFAULT_SEED);
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for bad in [
            "--seed x",
            "--seed",
            "--seconds 0",
            "--seconds -3",
            "--seconds nan",
            "--frobnicate",
            "--compare only_one.json",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `--smoke` over every workload, traced and untraced: the runs are
    /// correct, print exactly the declared names, and between them the
    /// workloads measure every declared per-layer metric.
    #[test]
    fn smoke_runs_produce_every_declared_metric_and_no_other() {
        let declared = Declared::load();
        let mut measured: BTreeSet<String> = BTreeSet::new();
        for name in &declared.workloads {
            for trace in [false, true] {
                let opts = Options {
                    workload: name.clone(),
                    seed: DEFAULT_SEED,
                    seconds: SMOKE_SECONDS,
                    trace,
                    scale: Scale::Smoke,
                };
                let r = runner::run(&opts).expect("known workload");
                assert_eq!(r.failed, 0, "{name} trace {trace}: a check failed");
                assert!(r.attempted >= 1);
                let decls = if trace {
                    &declared.per_layer
                } else {
                    &declared.end_to_end
                };
                let printed: Vec<&String> = r.metrics.iter().map(|(n, _, _)| n).collect();
                let wanted: Vec<&String> = decls.iter().map(|d| &d.name).collect();
                assert_eq!(printed, wanted, "{name} trace {trace}");
                if trace {
                    assert!(!r.trace_jsonl.is_empty());
                    measured.extend(
                        r.metrics
                            .iter()
                            .filter(|(_, v, _)| *v != 0.0)
                            .map(|(n, _, _)| n.clone()),
                    );
                } else {
                    // End-to-end metrics are never zero.
                    assert!(
                        r.metrics.iter().all(|(_, v, _)| *v > 0.0),
                        "{:?}",
                        r.metrics
                    );
                }
                // The result line round-trips with exactly the four keys.
                let line = mb_telemetry::json::parse(&r.to_json().to_string()).unwrap();
                let Json::Obj(keys) = &line else {
                    panic!("result line is not an object")
                };
                let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            }
        }
        // Counters that are legitimately zero on these inputs.
        let may_be_zero = [
            "cluster.event.pair_grants",
            "cluster.event.horizon_waits",
            "cluster.event.lookahead_grants",
            "cluster.event.prof.stall_ns_p50",
            "cluster.event.prof.stall_ns_p99",
            "sched.shed",
            "sched.failures",
            "sched.requeues",
            "trace.residual_s",
        ];
        let unmeasured: Vec<&String> = declared
            .per_layer
            .iter()
            .map(|d| &d.name)
            .filter(|n| !measured.contains(*n) && !may_be_zero.contains(&n.as_str()))
            .collect();
        assert!(unmeasured.is_empty(), "no workload measured {unmeasured:?}");
    }
}
