//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, written out when the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` is 0 for a root span; a session's two legs
/// and its root share `session`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// The session (or device operation) this span belongs to.
    pub session: u64,
    /// Layer-qualified name, e.g. `transport.attest_leg`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
}

/// A per-thread span buffer. Ids are unique across tracers built with
/// distinct `stream` numbers.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start at `stream << 40`.
    pub fn new(origin: Instant, stream: u64) -> Self {
        Tracer { origin, next_id: (stream << 40) + 1, spans: Vec::new() }
    }

    /// A fresh id for a span or session.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span with a pre-allocated id.
    pub fn record_with_id(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        session: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, session, name, start_ns, end_ns });
    }

    /// Records a finished span and returns its id.
    pub fn record(&mut self, name: &'static str, parent: u64, session: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id();
        self.record_with_id(id, name, parent, session, start, end);
        id
    }

    /// Times `f` as one root span of its own session.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.next_id();
        self.record_with_id(id, name, 0, id, start, end);
        (out, (end - start).as_nanos() as u64)
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
}

/// Renders spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"session\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.session, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_share_their_session_and_point_at_their_parent() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 3);
        let session = t.next_id();
        let now = Instant::now();
        t.record_with_id(session, "transport.session", 0, session, now, now);
        let leg = t.record("transport.challenge_leg", session, session, now, now);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].id, leg);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.session == session && s.id >> 40 == 3));
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
