//! The metrics registry: counters, gauges, histograms and sampled
//! series, labelled per rank/node.
//!
//! Instrumented code grabs a cheap handle once (an index — no hashing on
//! the hot path) and bumps it as it runs:
//!
//! ```
//! use mb_telemetry::metrics::Registry;
//! let mut reg = Registry::new();
//! let sends = reg.counter("comm.sends", "rank=0");
//! reg.inc(sends, 3);
//! let t = reg.gauge("tcache.hit_rate", "rank=0");
//! reg.set_gauge(t, 0.97);
//! assert_eq!(reg.counter_value("comm.sends", "rank=0"), Some(3));
//! ```
//!
//! Histograms are accumulated elsewhere (a [`crate::prof::LogHistogram`])
//! and installed whole with [`Registry::set_histogram`].

use std::collections::HashMap;

use crate::json::Json;
use crate::prof::LogHistogram;

/// Handle to a registered metric. Obtained from [`Registry::counter`] /
/// [`Registry::gauge`] / [`Registry::series`]; valid only for the
/// registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricHandle(usize);

/// The value side of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Log-bucketed histogram.
    Histogram(LogHistogram),
    /// A sampled time series of `(virtual_seconds, value)` points.
    Series(Vec<(f64, f64)>),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    label: String,
    value: MetricValue,
}

/// The registry proper. One per run (or per subsystem).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: Vec<Entry>,
    index: HashMap<(String, String), usize>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, name: &str, label: &str, mk: impl FnOnce() -> MetricValue) -> usize {
        if let Some(&i) = self.index.get(&(name.to_string(), label.to_string())) {
            return i;
        }
        let i = self.entries.len();
        self.entries.push(Entry {
            name: name.to_string(),
            label: label.to_string(),
            value: mk(),
        });
        self.index.insert((name.to_string(), label.to_string()), i);
        i
    }

    /// Register (or look up) a counter.
    pub fn counter(&mut self, name: &str, label: &str) -> MetricHandle {
        MetricHandle(self.slot(name, label, || MetricValue::Counter(0)))
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str, label: &str) -> MetricHandle {
        MetricHandle(self.slot(name, label, || MetricValue::Gauge(0.0)))
    }

    /// Install a copy of `hist` under `name{label}`, replacing any
    /// previous value in that slot — the one way a histogram enters a
    /// registry.
    pub fn set_histogram(&mut self, name: &str, label: &str, hist: &LogHistogram) -> MetricHandle {
        let i = self.slot(name, label, || MetricValue::Histogram(LogHistogram::new()));
        self.entries[i].value = MetricValue::Histogram(hist.clone());
        MetricHandle(i)
    }

    /// Register (or look up) a sampled series.
    pub fn series(&mut self, name: &str, label: &str) -> MetricHandle {
        MetricHandle(self.slot(name, label, || MetricValue::Series(Vec::new())))
    }

    /// Increment a counter.
    pub fn inc(&mut self, h: MetricHandle, by: u64) {
        if let MetricValue::Counter(c) = &mut self.entries[h.0].value {
            *c += by;
        } else {
            panic!("handle is not a counter");
        }
    }

    /// Set a gauge.
    pub fn set_gauge(&mut self, h: MetricHandle, v: f64) {
        if let MetricValue::Gauge(g) = &mut self.entries[h.0].value {
            *g = v;
        } else {
            panic!("handle is not a gauge");
        }
    }

    /// Append a series sample.
    pub fn sample(&mut self, h: MetricHandle, t_s: f64, v: f64) {
        if let MetricValue::Series(s) = &mut self.entries[h.0].value {
            s.push((t_s, v));
        } else {
            panic!("handle is not a series");
        }
    }

    /// Convenience: register-and-increment in one call (cold paths).
    pub fn count(&mut self, name: &str, label: &str, by: u64) {
        let h = self.counter(name, label);
        self.inc(h, by);
    }

    /// Convenience: register-and-set in one call (cold paths).
    pub fn record_gauge(&mut self, name: &str, label: &str, v: f64) {
        let h = self.gauge(name, label);
        self.set_gauge(h, v);
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str, label: &str) -> Option<u64> {
        self.find(name, label).and_then(|v| match v {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        })
    }

    /// Current value of a gauge, if registered.
    pub fn gauge_value(&self, name: &str, label: &str) -> Option<f64> {
        self.find(name, label).and_then(|v| match v {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        })
    }

    /// The value of any metric, if registered.
    pub fn find(&self, name: &str, label: &str) -> Option<&MetricValue> {
        self.index
            .get(&(name.to_string(), label.to_string()))
            .map(|&i| &self.entries[i].value)
    }

    /// Iterate `(name, label, value)` over every registered metric, in
    /// registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &MetricValue)> {
        self.entries
            .iter()
            .map(|e| (e.name.as_str(), e.label.as_str(), &e.value))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot as JSON: `{ "name{label}": value, ... }` with histograms
    /// and series expanded. A histogram keeps only its occupied buckets:
    /// `bounds` are their exclusive upper edges (a leading `0` carries
    /// the zero bucket), and `counts` ends in an always-empty overflow
    /// slot, since the top bucket is absorbing.
    pub fn to_json(&self) -> Json {
        let mut map = std::collections::BTreeMap::new();
        for e in &self.entries {
            let key = if e.label.is_empty() {
                e.name.clone()
            } else {
                format!("{}{{{}}}", e.name, e.label)
            };
            let val = match &e.value {
                MetricValue::Counter(c) => Json::Num(*c as f64),
                MetricValue::Gauge(g) => Json::Num(*g),
                MetricValue::Histogram(h) => Json::obj([
                    (
                        "bounds",
                        Json::Arr(h.occupied().map(|(_, hi, _)| Json::Num(hi)).collect()),
                    ),
                    (
                        "counts",
                        Json::Arr(
                            (h.occupied().map(|(_, _, c)| c).chain([0]))
                                .map(|c| Json::Num(c as f64))
                                .collect(),
                        ),
                    ),
                    ("sum", Json::Num(h.sum())),
                    ("n", Json::Num(h.count() as f64)),
                ]),
                MetricValue::Series(points) => Json::Arr(
                    points
                        .iter()
                        .map(|&(t, v)| Json::Arr(vec![Json::Num(t), Json::Num(v)]))
                        .collect(),
                ),
            };
            map.insert(key, val);
        }
        Json::Obj(map)
    }
}

/// Standard label for a rank-scoped metric.
pub fn rank_label(rank: usize) -> String {
    format!("rank={rank}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_cheap_to_reuse() {
        let mut r = Registry::new();
        let a = r.counter("x", "rank=0");
        let b = r.counter("x", "rank=0");
        assert_eq!(a, b, "same metric resolves to the same slot");
        r.inc(a, 2);
        r.inc(b, 3);
        assert_eq!(r.counter_value("x", "rank=0"), Some(5));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn labels_separate_metrics() {
        let mut r = Registry::new();
        r.count("bytes", "rank=0", 10);
        r.count("bytes", "rank=1", 20);
        assert_eq!(r.counter_value("bytes", "rank=0"), Some(10));
        assert_eq!(r.counter_value("bytes", "rank=1"), Some(20));
        assert_eq!(r.counter_value("bytes", "rank=2"), None);
    }

    #[test]
    fn json_snapshot_is_parseable() {
        let mut r = Registry::new();
        r.count("sends", "rank=0", 7);
        r.record_gauge("rate", "", 0.5);
        let text = r.to_json().to_string();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(parsed.get("sends{rank=0}").unwrap().as_f64(), Some(7.0));
        assert_eq!(parsed.get("rate").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut r = Registry::new();
        let g = r.gauge("g", "");
        r.inc(g, 1);
    }
}
