//! Virtual-time span tracing.
//!
//! A [`SpanEvent`] is a closed interval of one rank's virtual clock with
//! a name, a category and optional payload details. Instrumented code
//! (the cluster communicator, SPMD drivers) emits spans into a
//! [`TraceSink`]; sinks are attached per rank and harvested after the
//! run. When no sink is attached the instrumentation reduces to one
//! `Option` check per operation, so untraced runs stay as fast as the
//! pre-telemetry simulator.

/// What kind of time a span covers. Categories become the `cat` field of
/// Chrome trace events and drive the compute/comm/blocked split of
/// [`crate::summary::RunSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// CPU work charged via `compute`/`advance`.
    Compute,
    /// Sender-side busy time of a point-to-point send.
    Send,
    /// Receive completion: any blocked wait plus receiver busy time.
    Recv,
    /// A collective operation (the whole call, sends/recvs nested
    /// inside).
    Collective,
    /// A named algorithm phase opened by the application (tree build,
    /// force walk, …).
    Phase,
}

impl SpanKind {
    /// Stable lowercase label (Chrome `cat`, summary keys).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::Collective => "collective",
            SpanKind::Phase => "phase",
        }
    }
}

/// One closed span of virtual time on one rank's track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Span name (operation or phase).
    pub name: &'static str,
    /// Category.
    pub kind: SpanKind,
    /// Start, virtual seconds.
    pub t0: f64,
    /// End, virtual seconds (`t1 >= t0`).
    pub t1: f64,
    /// Peer rank for point-to-point operations (`usize::MAX` if n/a).
    pub peer: usize,
    /// Payload bytes for communication spans.
    pub bytes: u64,
    /// Seconds of the span spent blocked waiting (receives).
    pub wait_s: f64,
}

impl SpanEvent {
    /// Sentinel for "no peer".
    pub const NO_PEER: usize = usize::MAX;

    /// A plain span with no communication details.
    pub fn plain(name: &'static str, kind: SpanKind, t0: f64, t1: f64) -> Self {
        SpanEvent {
            name,
            kind,
            t0,
            t1,
            peer: Self::NO_PEER,
            bytes: 0,
            wait_s: 0.0,
        }
    }

    /// Span duration, seconds.
    pub fn dur_s(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Where spans go. Implementations must be cheap: the communicator calls
/// `record` on every traced operation.
pub trait TraceSink {
    /// Record one completed span.
    fn record(&mut self, ev: SpanEvent);

    /// Hand back everything recorded so far, leaving the sink empty.
    /// Sinks that forward spans elsewhere (rather than buffering) return
    /// an empty vector.
    fn drain(&mut self) -> Vec<SpanEvent> {
        Vec::new()
    }
}

/// The standard buffering sink: appends every span to a vector.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<SpanEvent>,
}

impl MemorySink {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorded spans, in emission order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, ev: SpanEvent) {
        self.events.push(ev);
    }

    fn drain(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.events)
    }
}

/// A whole run's trace: one span list per rank, in rank order.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Per-rank spans (index = rank).
    pub ranks: Vec<Vec<SpanEvent>>,
}

impl RunTrace {
    /// Total spans across all ranks.
    pub fn len(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }

    /// True when no rank recorded anything.
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(Vec::is_empty)
    }

    /// Virtual end time of the trace: the latest span end on any rank.
    pub fn end_s(&self) -> f64 {
        self.ranks
            .iter()
            .flatten()
            .map(|e| e.t1)
            .fold(0.0, f64::max)
    }

    /// Seconds rank `rank` spent in spans of `kind`. Nested spans of the
    /// same kind are *not* double-counted for `Compute`/`Send`/`Recv`
    /// (the communicator emits those disjoint); `Phase` and `Collective`
    /// spans may enclose them.
    pub fn kind_time(&self, rank: usize, kind: SpanKind) -> f64 {
        self.ranks
            .get(rank)
            .map(|evs| {
                evs.iter()
                    .filter(|e| e.kind == kind)
                    .map(SpanEvent::dur_s)
                    .sum()
            })
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_buffers_and_drains() {
        let mut sink = MemorySink::new();
        sink.record(SpanEvent::plain("a", SpanKind::Compute, 0.0, 1.0));
        sink.record(SpanEvent::plain("b", SpanKind::Phase, 1.0, 3.0));
        assert_eq!(sink.events().len(), 2);
        let evs = sink.drain();
        assert_eq!(evs.len(), 2);
        assert!(sink.events().is_empty());
        assert_eq!(evs[1].dur_s(), 2.0);
    }

    #[test]
    fn run_trace_kind_time_sums_per_rank() {
        let trace = RunTrace {
            ranks: vec![
                vec![
                    SpanEvent::plain("x", SpanKind::Compute, 0.0, 2.0),
                    SpanEvent::plain("y", SpanKind::Compute, 3.0, 4.0),
                    SpanEvent::plain("s", SpanKind::Send, 2.0, 2.5),
                ],
                vec![SpanEvent::plain("z", SpanKind::Recv, 0.0, 1.0)],
            ],
        };
        assert_eq!(trace.kind_time(0, SpanKind::Compute), 3.0);
        assert_eq!(trace.kind_time(0, SpanKind::Send), 0.5);
        assert_eq!(trace.kind_time(1, SpanKind::Recv), 1.0);
        assert_eq!(trace.kind_time(9, SpanKind::Recv), 0.0);
        assert_eq!(trace.end_s(), 4.0);
        assert_eq!(trace.len(), 4);
    }
}
