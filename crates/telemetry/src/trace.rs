//! Virtual-time span tracing.
//!
//! A [`SpanEvent`] is a closed interval of one rank's virtual clock with
//! a name, a category and optional payload details. The cluster
//! communicator of a traced rank appends every span it emits to a plain
//! buffer; the run collects the buffers into a [`RunTrace`]. An untraced
//! rank pays one `Option` check per operation, so untraced runs stay as
//! fast as the pre-telemetry simulator.

/// What kind of time a span covers. Categories become the `cat` field of
/// Chrome trace events and drive the compute/comm/blocked split of
/// [`crate::summary::RunSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// CPU work charged via `compute`.
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
}
