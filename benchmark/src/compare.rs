//! `--compare a.json b.json`: the before/after table every later perf
//! issue cites. Per (end-to-end metric, workload) it prints both values,
//! how much worse `b` is than `a` as a share of `a`, and the bound from
//! `BENCHMARK.json`; simulated values and exact counters must be equal.

use mb_telemetry::json::Json;

use crate::declared::{is_exact, Declared};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    mb_telemetry::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`; negative when `b`
/// is better.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Print the table; `Ok(true)` when no bound is exceeded and no exact
/// value differs.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let declared = Declared::load();
    let mut ok = true;
    println!("a = {path_a}\nb = {path_b}");
    println!(
        "{:<20} {:<12} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for w in &declared.workloads {
        for m in &declared.end_to_end {
            let (Some(va), Some(vb)) = (
                value(&a, w, "end_to_end", &m.name),
                value(&b, w, "end_to_end", &m.name),
            ) else {
                println!("{w:<20} {:<12} missing from one side", m.name);
                ok = false;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let worse = worsening(va, vb, m.higher_is_better);
            let pass = worse <= bound;
            ok &= pass;
            println!(
                "{w:<20} {:<12} {va:>16.4} {vb:>16.4} {:>8.2}% {:>6.0}%  {}",
                m.name,
                100.0 * worse,
                100.0 * bound,
                if pass { "ok" } else { "EXCEEDS BOUND" }
            );
        }
        for side in [&a, &b] {
            let failed = side
                .get("workloads")
                .and_then(|x| x.get(w))
                .and_then(|x| x.get("failed"))
                .and_then(Json::as_f64);
            if failed != Some(0.0) {
                println!("{w:<20} failed_checks {failed:?} (must be 0)");
                ok = false;
            }
        }
    }

    let seed = |d: &Json| d.get("seed").and_then(Json::as_f64);
    if seed(&a) != seed(&b) {
        println!("seeds differ: simulated values and exact counters not compared");
        return Ok(ok);
    }
    let mut compared = 0;
    for w in &declared.workloads {
        for m in declared.per_layer.iter().filter(|m| is_exact(&m.name)) {
            if let (Some(va), Some(vb)) = (
                value(&a, w, "per_layer", &m.name),
                value(&b, w, "per_layer", &m.name),
            ) {
                compared += 1;
                if va.to_bits() != vb.to_bits() {
                    println!("{w:<20} {} differs: {va} vs {vb}", m.name);
                    ok = false;
                }
            }
        }
    }
    println!(
        "{compared} simulated values and exact counters compared{}",
        if compared == 0 {
            " (run both sides with --trace to record them)"
        } else {
            ""
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_the_metrics_direction() {
        // Throughput down 10 % is 10 % worse; up is better (negative).
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 120.0, true) < 0.0);
        // Seconds up 25 % is 25 % worse.
        assert!((worsening(2.0, 2.5, false) - 0.25).abs() < 1e-12);
        assert!(worsening(2.0, 1.0, false) < 0.0);
    }
}
