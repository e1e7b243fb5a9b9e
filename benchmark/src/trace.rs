//! The benchmark's own span tracer.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! around calls into a crate's public functions, and inside the trait
//! objects and closures the benchmark hands to the program. Nothing in
//! the crates is instrumented. A span is `(name, parent, start, end)`
//! kept in memory and written out as JSONL when the run ends.
//!
//! Boundaries crossed more than ~10⁴ times per repeat (an oracle call
//! per dispatched job, a `Comm` call per message) do not get a span per
//! call: they fold into one [`Agg`] per `(parent, name)` carrying the
//! call count, the total, a [`LogHistogram`] of call durations and the
//! [`SLOWEST_KEPT`] slowest individual calls.
//!
//! A span's **self time** is its duration minus the part its children
//! cover: the union of child-span intervals plus the totals of *serial*
//! folded children (calls made one after another on the traced thread,
//! whose total is exact). *Concurrent* folded children — per-rank
//! `Comm` calls timed on many rank threads at once — overlap each
//! other and include waiting, so they are reported but never
//! subtracted.

use std::time::Instant;

use mb_telemetry::json::Json;
use mb_telemetry::prof::LogHistogram;

/// Slowest individual calls kept per folded boundary.
pub const SLOWEST_KEPT: usize = 100;

/// Monotonic nanoseconds since the tracer was created; `Copy` so the
/// benchmark's wrappers and rank closures can stamp calls themselves.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Many calls across one boundary folded into one record.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub hist: LogHistogram,
    /// `(duration_ns, start_ns)` of the slowest calls, unordered.
    slowest: Vec<(u64, u64)>,
    /// Index of the fastest kept call, valid once `slowest` is full.
    floor_at: usize,
    first_ns: u64,
    last_ns: u64,
}

impl Agg {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one call that started at `start_ns` and took `dur_ns`.
    pub fn record(&mut self, start_ns: u64, dur_ns: u64) {
        if self.count == 0 {
            self.first_ns = start_ns;
        }
        self.first_ns = self.first_ns.min(start_ns);
        self.last_ns = self.last_ns.max(start_ns + dur_ns);
        self.count += 1;
        self.total_ns += dur_ns;
        self.hist.observe(dur_ns as f64);
        self.keep_slowest(dur_ns, start_ns);
    }

    fn keep_slowest(&mut self, dur_ns: u64, start_ns: u64) {
        if self.slowest.len() < SLOWEST_KEPT {
            self.slowest.push((dur_ns, start_ns));
        } else if dur_ns > self.slowest[self.floor_at].0 {
            self.slowest[self.floor_at] = (dur_ns, start_ns);
        } else {
            // The common case on a hot boundary: one comparison.
            return;
        }
        // The kept set changed: find its fastest call again. This gets
        // rare once the buffer holds the tail of the distribution.
        self.floor_at = (0..self.slowest.len())
            .min_by_key(|&i| self.slowest[i].0)
            .expect("a call was just kept");
    }

    /// Time one call through `clock` and record it.
    pub fn time<R>(&mut self, clock: Clock, f: impl FnOnce() -> R) -> R {
        let t0 = clock.now_ns();
        let r = f();
        self.record(t0, clock.now_ns() - t0);
        r
    }

    /// Fold another record of the same boundary (another rank thread's)
    /// into this one.
    pub fn merge(&mut self, other: &Agg) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.first_ns = other.first_ns;
        }
        self.first_ns = self.first_ns.min(other.first_ns);
        self.last_ns = self.last_ns.max(other.last_ns);
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.hist.merge(&other.hist);
        for &(d, s) in &other.slowest {
            self.keep_slowest(d, s);
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Quantile of the call durations, 0 when nothing was recorded.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.hist.is_empty() {
            0.0
        } else {
            self.hist.quantile(q)
        }
    }

    /// The kept slowest calls, slowest first, as `(duration, start)`.
    pub fn slowest(&self) -> Vec<(u64, u64)> {
        let mut v = self.slowest.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }
}

#[derive(Debug, Clone)]
pub enum Kind {
    /// One call.
    Call,
    /// Many calls folded; `concurrent` ones are never subtracted from
    /// their parent (see the module docs).
    Folded { agg: Agg, concurrent: bool },
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub kind: Kind,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub self_ns: u64,
    pub calls: u64,
    /// False for concurrent folded boundaries: shown, not summed.
    pub summed: bool,
}

/// Name of the table row holding the root span's unattributed time.
pub const UNATTRIBUTED: &str = "harness (unattributed)";

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing: [`Tracer::span`] just runs the
    /// closure. End-to-end metrics are measured through this one.
    pub fn off() -> Self {
        Tracer {
            on: false,
            clock: Clock::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Self::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            kind: Kind::Call,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.clock.now_ns();
        r
    }

    /// [`Tracer::span`] that also returns the call's wall seconds,
    /// measured whether or not tracing is on: the per-case timings the
    /// end-to-end metrics are built from.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = self.span(name, f);
        (r, t0.elapsed().as_secs_f64())
    }

    /// Attach a folded boundary to the innermost open span.
    pub fn fold(&mut self, name: &str, agg: Agg, concurrent: bool) {
        if !self.on || agg.count == 0 {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: agg.first_ns,
            end_ns: agg.last_ns,
            kind: Kind::Folded { agg, concurrent },
        });
    }

    /// Record a finished span with explicit bounds. Returns its index.
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            kind: Kind::Call,
        });
        self.spans.len() - 1
    }

    /// Index of the last recorded span with this name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// The folded boundary `name` directly under span `parent`.
    pub fn child_agg(&self, parent: usize, name: &str) -> Option<&Agg> {
        self.spans.iter().find_map(|s| match &s.kind {
            Kind::Folded { agg, .. } if s.parent == Some(parent) && s.name == name => Some(agg),
            _ => None,
        })
    }

    /// Every folded boundary named `name`, wherever it hangs, merged.
    pub fn merged_agg(&self, name: &str) -> Agg {
        let mut all = Agg::new();
        for s in &self.spans {
            if let Kind::Folded { agg, .. } = &s.kind {
                if s.name == name {
                    all.merge(agg);
                }
            }
        }
        all
    }

    /// Self time of span `idx`: duration minus what its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut folded = 0u64;
        for c in self.spans.iter().filter(|c| c.parent == Some(idx)) {
            match &c.kind {
                Kind::Call => {
                    let a = c.start_ns.max(s.start_ns);
                    let b = c.end_ns.min(s.end_ns);
                    if b > a {
                        intervals.push((a, b));
                    }
                }
                Kind::Folded {
                    agg,
                    concurrent: false,
                } => folded += agg.total_ns,
                Kind::Folded { .. } => {}
            }
        }
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (a, b) in intervals {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        s.dur_ns().saturating_sub(covered + folded)
    }

    fn descends_from(&self, mut idx: usize, root: usize) -> bool {
        while let Some(p) = self.spans[idx].parent {
            if p == root {
                return true;
            }
            idx = p;
        }
        false
    }

    /// The self-time table under `root`: one row per span name (self
    /// times summed), slowest first, then [`UNATTRIBUTED`] — the root's
    /// duration not covered by any row — so the summed rows add up to
    /// the root's duration exactly. Concurrent folded boundaries follow
    /// with `summed: false`.
    pub fn table(&self, root: usize) -> Vec<Row> {
        let mut rows: Vec<Row> = Vec::new();
        let mut add = |name: &str, ns: u64, calls: u64, summed: bool| match rows
            .iter_mut()
            .find(|r| r.name == name && r.summed == summed)
        {
            Some(r) => {
                r.self_ns += ns;
                r.calls += calls;
            }
            None => rows.push(Row {
                name: name.to_string(),
                self_ns: ns,
                calls,
                summed,
            }),
        };
        for (i, s) in self.spans.iter().enumerate() {
            if !self.descends_from(i, root) {
                continue;
            }
            match &s.kind {
                Kind::Call => add(&s.name, self.self_ns(i), 1, true),
                Kind::Folded { agg, concurrent } => {
                    add(&s.name, agg.total_ns, agg.count, !concurrent)
                }
            }
        }
        rows.sort_by(|a, b| b.summed.cmp(&a.summed).then(b.self_ns.cmp(&a.self_ns)));
        let attributed: u64 = rows.iter().filter(|r| r.summed).map(|r| r.self_ns).sum();
        let split = rows.iter().position(|r| !r.summed).unwrap_or(rows.len());
        rows.insert(
            split,
            Row {
                name: UNATTRIBUTED.to_string(),
                self_ns: self.spans[root].dur_ns().saturating_sub(attributed),
                calls: 1,
                summed: true,
            },
        );
        rows
    }

    /// Render [`Tracer::table`] for the terminal.
    pub fn render_table(&self, root: usize) -> String {
        let wall = self.spans[root].dur_ns().max(1) as f64;
        let mut out = format!(
            "  {:<44} {:>12} {:>7} {:>10}\n",
            "layer boundary (self time)", "seconds", "share", "calls"
        );
        for r in self.table(root) {
            let secs = r.self_ns as f64 / 1e9;
            if r.summed {
                let share = 100.0 * r.self_ns as f64 / wall;
                out.push_str(&format!(
                    "  {:<44} {secs:>12.6} {share:>6.1}% {:>10}\n",
                    r.name, r.calls
                ));
            } else {
                out.push_str(&format!(
                    "  {:<44} {secs:>12.6} {:>7} {:>10}  summed over rank threads, waits included\n",
                    r.name, "-", r.calls
                ));
            }
        }
        out.push_str(&format!(
            "  {:<44} {:>12.6} {:>6.1}%\n",
            "repeat wall (sum of summed rows)",
            wall / 1e9,
            100.0
        ));
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self, workload: &str, repeat: usize) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("workload", Json::str(workload)),
                ("repeat", Json::Num(repeat as f64)),
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name.clone())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ];
            if let Kind::Folded { agg, concurrent } = &s.kind {
                fields.extend([
                    ("count", Json::Num(agg.count as f64)),
                    ("total_ns", Json::Num(agg.total_ns as f64)),
                    ("p50_ns", Json::Num(agg.quantile_ns(0.50))),
                    ("p99_ns", Json::Num(agg.quantile_ns(0.99))),
                    ("concurrent", Json::Bool(*concurrent)),
                    (
                        "slowest",
                        Json::Arr(
                            agg.slowest()
                                .into_iter()
                                .map(|(d, st)| {
                                    Json::Arr(vec![Json::Num(st as f64), Json::Num(d as f64)])
                                })
                                .collect(),
                        ),
                    ),
                ]);
            }
            out.push_str(&Json::obj(fields).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::on();
        for &(name, parent, a, b) in spans {
            t.record(name, parent, a, b);
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 holding grandchild 20..30; child 70..90.
        let t = tracer_with(&[
            ("root", None, 0, 100),
            ("a", Some(0), 10, 60),
            ("a.inner", Some(1), 20, 30),
            ("b", Some(0), 70, 90),
        ]);
        assert_eq!(t.self_ns(0), 100 - 50 - 20);
        assert_eq!(t.self_ns(1), 50 - 10);
        assert_eq!(t.self_ns(2), 10);
        let rows = t.table(0);
        let summed: u64 = rows.iter().filter(|r| r.summed).map(|r| r.self_ns).sum();
        assert_eq!(summed, 100, "rows must add up to the root: {rows:?}");
        let un = rows.iter().find(|r| r.name == UNATTRIBUTED).unwrap();
        assert_eq!(un.self_ns, 30);
    }

    #[test]
    fn overlapping_children_are_covered_as_a_union() {
        // Two rank-thread spans overlapping on 40..60, one sticking out
        // past the parent's end.
        let t = tracer_with(&[
            ("root", None, 0, 100),
            ("r0", Some(0), 10, 60),
            ("r1", Some(0), 40, 120),
        ]);
        // Union clipped to the parent is 10..100.
        assert_eq!(t.self_ns(0), 10);
    }

    #[test]
    fn serial_folded_children_subtract_their_total_and_concurrent_ones_do_not() {
        let mut t = Tracer::on();
        t.record("root", None, 0, 1_000);
        t.open.push(0);
        let mut serial = Agg::new();
        for i in 0..10 {
            serial.record(i * 50, 20);
        }
        t.fold("oracle", serial, false);
        let mut conc = Agg::new();
        for i in 0..10 {
            conc.record(i * 10, 900);
        }
        t.fold("comm.recv", conc, true);
        assert_eq!(t.self_ns(0), 1_000 - 200);
        let rows = t.table(0);
        let summed: u64 = rows.iter().filter(|r| r.summed).map(|r| r.self_ns).sum();
        assert_eq!(summed, 1_000);
        let recv = rows.iter().find(|r| r.name == "comm.recv").unwrap();
        assert!(!recv.summed);
        assert_eq!((recv.self_ns, recv.calls), (9_000, 10));
    }

    #[test]
    fn folded_histograms_merge_like_one_recorder() {
        let durs: Vec<u64> = (1..=400).map(|i| i * 37 % 1_000 + 1).collect();
        let mut whole = Agg::new();
        let (mut a, mut b) = (Agg::new(), Agg::new());
        for (i, &d) in durs.iter().enumerate() {
            whole.record(i as u64, d);
            let half = if i % 2 == 0 { &mut a } else { &mut b };
            half.record(i as u64, d);
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert_eq!(a.total_ns, whole.total_ns);
        assert_eq!(a.hist, whole.hist);
        assert_eq!(a.quantile_ns(0.99), whole.quantile_ns(0.99));
        // Both keep exactly the 100 slowest calls.
        assert_eq!(a.slowest().len(), SLOWEST_KEPT);
        assert_eq!(a.slowest(), whole.slowest());
        let mut sorted = durs.clone();
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        let kept: Vec<u64> = a.slowest().iter().map(|&(d, _)| d).collect();
        assert_eq!(kept, sorted[..SLOWEST_KEPT]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::off();
        let (v, secs) = t.timed("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_the_span_fields() {
        let mut t = Tracer::on();
        t.span("outer", |t| {
            let mut agg = Agg::new();
            agg.record(1, 5);
            t.fold("inner", agg, false);
        });
        let text = t.to_jsonl("w", 3);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let folded = mb_telemetry::json::parse(lines[1]).unwrap();
        assert_eq!(folded.get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(folded.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(folded.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(folded.get("repeat").and_then(Json::as_f64), Some(3.0));
    }
}
