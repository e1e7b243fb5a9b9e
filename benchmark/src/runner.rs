//! One run of one workload: pin, set up, repeat, check, report.
//!
//! With tracing off the run yields the end-to-end metrics: the workload
//! repeats until `seconds` of repeats have been measured, set-up is done
//! [`SETUP_SAMPLES`] times spread through that, and both `units_per_s`
//! and `setup_s` are taken at the lower quartile of their samples (see
//! [`lower_quartile`] for why not the median). With tracing on the run
//! spends part of `seconds` on untraced repeats (the baseline of
//! `host.trace_overhead_ratio` and of every per-layer rate), then one
//! traced repeat and the workload's layer probes yield the per-layer
//! metrics. End-to-end metrics are never taken from a traced repeat.

use std::collections::BTreeMap;
use std::time::Instant;

use mb_telemetry::json::Json;

use crate::declared::{Declared, MetricDecl};
use crate::harness::{
    lower_quartile, median, nproc, peak_rss_mb, ratio, Checks, Metrics, Pin, Repeat, Scale,
    Untraced, Workload,
};
use crate::trace::{Tracer, UNATTRIBUTED};
use crate::workloads;

/// Set-ups per untraced run.
const SETUP_SAMPLES: usize = 5;
/// Fewest timed repeats, however short `seconds` is.
const MIN_REPEATS: usize = 3;
/// Share of `seconds` a traced run gives to its untraced repeats.
const TRACED_BASELINE_SHARE: f64 = 0.4;

/// Span-name prefixes whose summed self time is reported as
/// `trace.self_s.<layer>`.
pub const TRACE_LAYERS: [&str; 8] = [
    "treecode",
    "cluster",
    "sched.engine",
    "sched.policy",
    "workload.arrival",
    "workload.cost",
    "workload.admission",
    "crusoe",
];

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Every declared metric of the run's kind, `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// JSONL of the traced repeat's spans; empty for an untraced run.
    pub trace_jsonl: String,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Build the workload and run its warm-up repeat: one set-up.
fn set_up(opts: &Options) -> Result<(Box<dyn Workload>, f64), String> {
    let t = Instant::now();
    let mut w = workloads::build(&opts.workload, opts.seed, opts.scale)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    // The warm-up fills the program's caches (the cost memo, the
    // allocator), so its cache counters differ from a timed repeat's.
    w.repeat(&mut Tracer::off());
    Ok((w, t.elapsed().as_secs_f64()))
}

/// Fill in every declared metric, zero where the run did not set it,
/// and count names the contract does not know as a failed check.
fn declared_values(
    decls: &[MetricDecl],
    values: &BTreeMap<String, f64>,
    checks: &mut Checks,
) -> Vec<(String, f64, String)> {
    let unknown: Vec<&String> = values
        .keys()
        .filter(|k| !decls.iter().any(|d| &d.name == *k))
        .collect();
    checks.check(
        "report: every metric produced is declared in BENCHMARK.json",
        unknown.is_empty(),
        || format!("undeclared: {unknown:?}"),
    );
    let broken: Vec<&String> = values
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| k)
        .collect();
    checks.check(
        "report: every metric value is finite",
        broken.is_empty(),
        || format!("not finite: {broken:?}"),
    );
    decls
        .iter()
        .map(|d| {
            let v = values.get(&d.name).copied().filter(|v| v.is_finite());
            (d.name.clone(), v.unwrap_or(0.0), d.unit.clone())
        })
        .collect()
}

pub fn run(opts: &Options) -> Result<RunResult, String> {
    let declared = Declared::load();
    let cpus = nproc(); // before pinning narrows it to one
    let pin = Pin::to_one_cpu();
    println!(
        "== {} seed {} {}s trace {} ({}; host: {} cpus, {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.scale == Scale::Smoke {
            "smoke sizes"
        } else {
            "pinned sizes"
        },
        cpus,
        match pin.cpu {
            Some(cpu) => format!("pinned to cpu {cpu}"),
            None => "NOT pinned".to_string(),
        }
    );

    // The first set-up builds the instance every repeat runs on.
    let (mut w, first_setup_s) = set_up(opts)?;
    let mut setup_s = vec![first_setup_s];

    // Untraced repeats. An untraced run takes its other set-up samples
    // in between, each on a throwaway instance built from scratch, at
    // even steps through the budget: the host's slow phases last
    // seconds, and samples taken back to back would all share one.
    let budget = opts.seconds
        * if opts.trace {
            TRACED_BASELINE_SHARE
        } else {
            1.0
        };
    let setups = if opts.trace { 1 } else { SETUP_SAMPLES };
    let mut off = Tracer::off();
    let mut reps: Vec<Repeat> = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < MIN_REPEATS || measured_s < budget {
        let t = Instant::now();
        reps.push(w.repeat(&mut off));
        measured_s += t.elapsed().as_secs_f64();
        if setup_s.len() < setups && measured_s >= budget * setup_s.len() as f64 / setups as f64 {
            setup_s.push(set_up(opts)?.1);
        }
    }
    while setup_s.len() < setups {
        setup_s.push(set_up(opts)?.1);
    }
    println!(
        "  seconds per set-up: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let secs: Vec<f64> = reps.iter().map(Repeat::secs).collect();
    let units = reps[0].units() as f64;
    let untraced = Untraced::from_repeats(&reps);
    let untraced_s = median(&secs);
    let units_per_s = ratio(units, lower_quartile(&secs));
    println!(
        "  {} untraced repeats of {units} {}: median {untraced_s:.4} s, lower quartile {:.4} s",
        reps.len(),
        w.unit(),
        lower_quartile(&secs),
    );
    println!(
        "  seconds per repeat: {}",
        secs.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut checks = Checks::default();
    let drifted: Vec<String> = reps.iter().flat_map(|r| reps[0].exact_diff(r)).collect();
    checks.check(
        "exact: simulated values and counters identical across repeats",
        drifted.is_empty(),
        || format!("differ from the first repeat: {drifted:?}"),
    );
    w.checks(&mut checks);

    let (decls, values, trace_jsonl) = if opts.trace {
        let mut tr = Tracer::on();
        let traced = tr.span("repeat", |tr| w.repeat(tr));
        let root = tr.find("repeat").expect("the root span was just recorded");
        let moved = reps[0].exact_diff(&traced);
        checks.check(
            "exact: traced repeat reproduces the untraced values",
            moved.is_empty(),
            || format!("differ under tracing: {moved:?}"),
        );
        println!("  traced repeat, self time per layer boundary:");
        print!("{}", tr.render_table(root));

        let mut m = Metrics::default();
        w.layers(&untraced, &tr, &pin, &mut m);
        for (name, e) in &traced.exact {
            if let Some(v) = e.value() {
                if declared.per_layer.iter().any(|d| &d.name == name) {
                    m.set(name, v);
                }
            }
        }
        for (name, v) in &traced.counters {
            m.set(name, *v);
        }
        let rows = tr.table(root);
        for layer in TRACE_LAYERS {
            let ns: u64 = rows
                .iter()
                .filter(|r| r.summed && r.name.starts_with(layer))
                .map(|r| r.self_ns)
                .sum();
            m.set(&format!("trace.self_s.{layer}"), ns as f64 / 1e9);
        }
        let residual = rows.iter().find(|r| r.name == UNATTRIBUTED);
        m.set(
            "trace.residual_s",
            residual.map_or(0.0, |r| r.self_ns as f64 / 1e9),
        );
        m.set("trace.wall_s", tr.spans()[root].dur_ns() as f64 / 1e9);
        m.set(
            "host.trace_overhead_ratio",
            ratio(traced.secs(), untraced_s),
        );
        m.set("host.nproc", cpus as f64);
        m.set("host.pinned", f64::from(u8::from(pin.pinned())));
        (
            &declared.per_layer,
            m.0,
            tr.to_jsonl(&opts.workload, reps.len()),
        )
    } else {
        let values = BTreeMap::from([
            ("units_per_s".to_string(), units_per_s),
            ("setup_s".to_string(), lower_quartile(&setup_s)),
            ("peak_rss_mb".to_string(), peak_rss_mb()),
        ]);
        (&declared.end_to_end, values, String::new())
    };
    let metrics = declared_values(decls, &values, &mut checks);
    let result = RunResult {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        trace_jsonl,
    };

    // Layers this workload does not exercise read 0; the result line
    // carries them, the table leaves them out.
    let idle = result.metrics.iter().filter(|m| m.1 == 0.0).count();
    for (name, value, unit) in result.metrics.iter().filter(|m| m.1 != 0.0) {
        println!("  {name:<52} {value:>18.6} {unit}");
    }
    if idle > 0 {
        println!("  ({idle} metrics of layers this workload does not exercise read 0)");
    }
    println!(
        "  failed_checks {} / {} attempted",
        result.failed, result.attempted
    );
    Ok(result)
}
