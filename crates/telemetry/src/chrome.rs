//! Chrome `trace_event` export.
//!
//! Emits the JSON Array Format understood by `chrome://tracing` and
//! Perfetto: one complete (`"ph":"X"`) event per span with microsecond
//! timestamps, one thread per rank (pid 0, tid = rank), plus metadata
//! events naming each track `rank N`. [`export_with_metrics`]
//! additionally renders a metrics [`Registry`] as counter (`"ph":"C"`)
//! tracks — executor ready-queue depth, worker occupancy, admissions
//! and the like land next to the spans in the same viewer.
//! [`validate`] parses a document back and checks the structural
//! invariants tests rely on: every event well-formed, timestamps
//! monotonic per track, and nesting well-formed (spans on one track
//! must stack, never partially overlap).

use crate::json::{parse, Json};
use crate::metrics::{MetricValue, Registry};
use crate::trace::{RunTrace, SpanEvent};

/// Virtual seconds → trace microseconds.
fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

fn span_to_json(rank: usize, ev: &SpanEvent) -> Json {
    let mut args = std::collections::BTreeMap::new();
    if ev.peer != SpanEvent::NO_PEER {
        args.insert("peer".to_string(), Json::Num(ev.peer as f64));
    }
    if ev.bytes > 0 {
        args.insert("bytes".to_string(), Json::Num(ev.bytes as f64));
    }
    if ev.wait_s > 0.0 {
        args.insert("wait_us".to_string(), Json::Num(us(ev.wait_s)));
    }
    Json::obj([
        ("name", Json::str(ev.name)),
        ("cat", Json::str(ev.kind.label())),
        ("ph", Json::str("X")),
        ("pid", Json::Num(0.0)),
        ("tid", Json::Num(rank as f64)),
        ("ts", Json::Num(us(ev.t0))),
        ("dur", Json::Num(us(ev.dur_s()))),
        ("args", Json::Obj(args)),
    ])
}

fn thread_name(rank: usize) -> Json {
    Json::obj([
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Num(0.0)),
        ("tid", Json::Num(rank as f64)),
        (
            "args",
            Json::obj([("name", Json::str(format!("rank {rank}")))]),
        ),
    ])
}

fn span_events(trace: &RunTrace) -> Vec<Json> {
    let mut events: Vec<Json> = Vec::new();
    for (rank, spans) in trace.ranks.iter().enumerate() {
        events.push(thread_name(rank));
        let mut sorted: Vec<&SpanEvent> = spans.iter().collect();
        sorted.sort_by(|a, b| a.t0.total_cmp(&b.t0).then(b.t1.total_cmp(&a.t1)));
        for ev in sorted {
            events.push(span_to_json(rank, ev));
        }
    }
    events
}

/// Render a whole-run trace as a Chrome trace_event JSON array. Spans
/// within a rank are sorted by start time (ties: longer span first, so
/// enclosing spans precede their children, as the viewer expects).
pub fn export(trace: &RunTrace) -> String {
    Json::Arr(span_events(trace)).to_string()
}

fn counter_event(name: &str, ts_us: f64, args: Vec<(String, f64)>) -> Json {
    let mut map = std::collections::BTreeMap::new();
    for (k, v) in args {
        map.insert(k, Json::Num(v));
    }
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("C")),
        ("pid", Json::Num(0.0)),
        ("ts", Json::Num(ts_us)),
        ("args", Json::Obj(map)),
    ])
}

fn series_key(label: &str) -> String {
    if label.is_empty() {
        "value".to_string()
    } else {
        label.to_string()
    }
}

/// [`export`] plus the contents of a metrics [`Registry`] as counter
/// (`"ph":"C"`) tracks. Counters and gauges become one sample at the
/// trace's end time; sampled series keep their own virtual timestamps;
/// histograms surface as their running mean and observation count. The
/// metric label is the stacked-series key within the named track, so
/// e.g. every `executor/ready_depth` label shares one counter plot.
pub fn export_with_metrics(trace: &RunTrace, metrics: &Registry) -> String {
    let mut events = span_events(trace);
    let end = us(trace.end_s());
    for (name, label, value) in metrics.iter() {
        match value {
            MetricValue::Counter(c) => {
                events.push(counter_event(
                    name,
                    end,
                    vec![(series_key(label), *c as f64)],
                ));
            }
            MetricValue::Gauge(g) => {
                events.push(counter_event(name, end, vec![(series_key(label), *g)]));
            }
            MetricValue::Series(points) => {
                for &(t, v) in points {
                    events.push(counter_event(name, us(t), vec![(series_key(label), v)]));
                }
            }
            MetricValue::Histogram(h) => {
                let key = series_key(label);
                events.push(counter_event(
                    name,
                    end,
                    vec![
                        (format!("{key} mean"), h.mean()),
                        (format!("{key} n"), h.count() as f64),
                    ],
                ));
            }
        }
    }
    Json::Arr(events).to_string()
}

/// Summary of a validated Chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeSummary {
    /// Number of `"X"` duration events.
    pub events: usize,
    /// Number of `"C"` counter samples.
    pub counters: usize,
    /// Distinct tids (tracks), ascending.
    pub tracks: Vec<usize>,
    /// Latest event end, microseconds.
    pub end_us: f64,
}

/// Parse a Chrome trace document and verify structural invariants:
///
/// * the document is a JSON array of objects;
/// * every `"X"` event carries finite `ts >= 0` and `dur >= 0` plus
///   integer `pid`/`tid`;
/// * every `"C"` counter event carries a name, a finite `ts >= 0` and a
///   non-empty `args` object of finite numeric samples;
/// * per track, events sorted by `ts` nest properly — a span starting
///   inside an earlier span must also end inside it (no partial
///   overlap), which is what makes begin/end pairing well-defined;
/// * per track, `ts` is monotonically non-decreasing in document order.
pub fn validate(text: &str) -> Result<ChromeSummary, String> {
    let doc = parse(text)?;
    let items = doc.as_arr().ok_or("trace must be a JSON array")?;
    let mut per_track: std::collections::BTreeMap<usize, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut events = 0usize;
    let mut counters = 0usize;
    let mut end_us = 0.0f64;
    for (i, item) in items.iter().enumerate() {
        let ph = item
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        if ph == "C" {
            item.get("name")
                .and_then(Json::as_str)
                .ok_or(format!("counter {i}: missing name"))?;
            let ts = item
                .get("ts")
                .and_then(Json::as_f64)
                .ok_or(format!("counter {i}: missing ts"))?;
            if !ts.is_finite() || ts < 0.0 {
                return Err(format!("counter {i}: bad ts {ts}"));
            }
            let args = item
                .get("args")
                .and_then(|a| match a {
                    Json::Obj(m) if !m.is_empty() => Some(m),
                    _ => None,
                })
                .ok_or(format!("counter {i}: args must be a non-empty object"))?;
            for (k, v) in args {
                match v.as_f64() {
                    Some(x) if x.is_finite() => {}
                    _ => return Err(format!("counter {i}: sample {k:?} is not finite")),
                }
            }
            counters += 1;
            continue;
        }
        if ph != "X" {
            return Err(format!("event {i}: unsupported ph {ph:?}"));
        }
        item.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        let ts = item
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing ts"))?;
        let dur = item
            .get("dur")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing dur"))?;
        let tid = item
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing tid"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        if !dur.is_finite() || dur < 0.0 {
            return Err(format!("event {i}: bad dur {dur}"));
        }
        if tid.fract() != 0.0 || tid < 0.0 {
            return Err(format!("event {i}: tid {tid} is not a rank"));
        }
        let track = per_track.entry(tid as usize).or_default();
        if let Some(&(prev_ts, _)) = track.last() {
            if ts < prev_ts {
                return Err(format!(
                    "event {i}: ts {ts} precedes previous {prev_ts} on tid {tid}"
                ));
            }
        }
        track.push((ts, ts + dur));
        events += 1;
        end_us = end_us.max(ts + dur);
    }
    // Nesting check: walk each track with a stack of open spans.
    const EPS: f64 = 1e-6; // one picosecond in trace microseconds
    for (tid, spans) in &per_track {
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for &(t0, t1) in spans {
            while let Some(&(_, open_end)) = stack.last() {
                if t0 >= open_end - EPS {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                if t1 > open_end + EPS {
                    return Err(format!(
                        "tid {tid}: span [{t0}, {t1}] partially overlaps [{open_start}, {open_end}]"
                    ));
                }
            }
            stack.push((t0, t1));
        }
    }
    Ok(ChromeSummary {
        events,
        counters,
        tracks: per_track.keys().copied().collect(),
        end_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prof::LogHistogram;
    use crate::trace::SpanKind;

    fn sample_trace() -> RunTrace {
        RunTrace {
            ranks: vec![
                vec![
                    SpanEvent::plain("step", SpanKind::Phase, 0.0, 10e-6),
                    SpanEvent {
                        name: "send",
                        kind: SpanKind::Send,
                        t0: 1e-6,
                        t1: 3e-6,
                        peer: 1,
                        bytes: 64,
                        wait_s: 0.0,
                    },
                    SpanEvent::plain("compute", SpanKind::Compute, 3e-6, 9e-6),
                ],
                vec![SpanEvent {
                    name: "recv",
                    kind: SpanKind::Recv,
                    t0: 0.0,
                    t1: 5e-6,
                    peer: 0,
                    bytes: 64,
                    wait_s: 2e-6,
                }],
            ],
        }
    }

    #[test]
    fn export_validates_with_one_track_per_rank() {
        let trace = sample_trace();
        assert_eq!((trace.len(), trace.end_s()), (4, 10e-6));
        let text = export(&trace);
        let summary = validate(&text).unwrap();
        assert_eq!(summary.tracks, vec![0, 1]);
        assert_eq!(summary.events, 4);
        assert!((summary.end_us - 10.0).abs() < 1e-9);
    }

    #[test]
    fn exported_events_carry_comm_args() {
        let text = export(&sample_trace());
        let doc = parse(&text).unwrap();
        let send = doc
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("send"))
            .expect("send event present");
        let args = send.get("args").unwrap();
        assert_eq!(args.get("peer").unwrap().as_f64(), Some(1.0));
        assert_eq!(args.get("bytes").unwrap().as_f64(), Some(64.0));
    }

    #[test]
    fn enclosing_spans_precede_children() {
        let text = export(&sample_trace());
        let doc = parse(&text).unwrap();
        let names: Vec<&str> = doc
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter(|e| e.get("tid").and_then(Json::as_f64) == Some(0.0))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["step", "send", "compute"]);
    }

    #[test]
    fn metrics_export_emits_counter_tracks() {
        let mut reg = Registry::new();
        reg.count("executor/admissions", "w8", 42);
        reg.record_gauge("executor/max_ready_depth", "w8", 7.0);
        let s = reg.series("power", "cluster");
        reg.sample(s, 1e-6, 90.0);
        reg.sample(s, 2e-6, 110.0);
        let mut h = LogHistogram::new();
        h.observe(0.5);
        h.observe(3.0);
        reg.set_histogram("executor/ready_depth", "w8", &h);

        let text = export_with_metrics(&sample_trace(), &reg);
        let summary = validate(&text).unwrap();
        // Same spans as plain export, plus counter + gauge + 2 series
        // samples + 1 histogram summary.
        assert_eq!(summary.events, 4);
        assert_eq!(summary.counters, 5);

        let doc = parse(&text).unwrap();
        let admissions = doc
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("executor/admissions"))
            .expect("admissions counter present");
        assert_eq!(admissions.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(
            admissions
                .get("args")
                .and_then(|a| a.get("w8"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
    }

    /// One histogram (a zero bucket plus buckets in two octaves) through
    /// both registry exports, pinned to the bytes they have always
    /// written: occupied buckets' upper edges, per-bucket counts with the
    /// trailing empty overflow slot, the exact sum and count, and the
    /// mean.
    #[test]
    fn histogram_exports_keep_their_bytes() {
        let mut h = LogHistogram::new();
        for v in [0.0, 1.2, 1.25, 3.1] {
            h.observe(v);
        }
        let mut reg = Registry::new();
        reg.set_histogram("executor/ready_depth", "w8", &h);
        assert_eq!(
            reg.to_json().to_string(),
            concat!(
                r#"{"executor/ready_depth{w8}":{"bounds":[0,1.25,1.3125,3.125],"#,
                r#""counts":[1,1,1,1,0],"n":4,"sum":5.550000000000001}}"#,
            )
        );
        assert_eq!(
            export_with_metrics(&RunTrace::default(), &reg),
            concat!(
                r#"[{"args":{"w8 mean":1.3875000000000002,"w8 n":4},"#,
                r#""name":"executor/ready_depth","ph":"C","pid":0,"ts":0}]"#,
            )
        );
    }

    #[test]
    fn plain_export_has_no_counters_and_counts_stay_zero() {
        let summary = validate(&export(&sample_trace())).unwrap();
        assert_eq!(summary.counters, 0);
    }

    #[test]
    fn validate_rejects_malformed_counter() {
        let bad = r#"[{"name":"c","ph":"C","pid":0,"ts":0,"args":{}}]"#;
        assert!(validate(bad).unwrap_err().contains("non-empty object"));
        let bad = r#"[{"name":"c","ph":"C","pid":0,"ts":-1,"args":{"v":1}}]"#;
        assert!(validate(bad).unwrap_err().contains("bad ts"));
    }

    #[test]
    fn validate_rejects_partial_overlap() {
        // [0,4] and [2,6] on one track partially overlap: not a stack.
        let bad = r#"[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":4,"args":{}},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":2,"dur":4,"args":{}}
        ]"#;
        assert!(validate(bad).unwrap_err().contains("partially overlaps"));
    }

    #[test]
    fn validate_rejects_backwards_timestamps() {
        let bad = r#"[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":5,"dur":1,"args":{}},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":1,"dur":1,"args":{}}
        ]"#;
        assert!(validate(bad).unwrap_err().contains("precedes"));
    }

    #[test]
    fn validate_rejects_negative_duration() {
        let bad = r#"[{"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":-2,"args":{}}]"#;
        assert!(validate(bad).is_err());
    }

    #[test]
    fn empty_trace_is_valid() {
        let empty = RunTrace::default();
        assert_eq!(
            (empty.len(), empty.end_s(), empty.is_empty()),
            (0, 0.0, true)
        );
        let summary = validate(&export(&empty)).unwrap();
        assert_eq!(summary.events, 0);
        assert!(summary.tracks.is_empty());
    }
}
