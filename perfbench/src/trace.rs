//! In-memory spans recorded around each call the benchmark makes into a
//! layer's public functions.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! are kept in memory and written out once, at the end of the run. A
//! disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Identifier of a recorded span; `ROOT` is the parent of top-level spans.
pub type SpanId = u32;

/// The parent of spans that no other span caused.
pub const ROOT: SpanId = 0;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    /// The span's wall-clock duration.
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. Times are offsets from the tracer's creation. Every
/// span is recorded on the thread that owns the tracer; requests timed on
/// other threads are handed to [`Tracer::record`] after those threads end.
pub struct Tracer {
    origin: Instant,
    spans: Option<RefCell<Vec<Span>>>,
    /// Next span id.
    next: Cell<SpanId>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: None,
            next: Cell::new(ROOT + 1),
        }
    }

    /// A tracer that records every span.
    pub fn on() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Some(RefCell::new(Vec::new())),
            next: Cell::new(ROOT + 1),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Run `f` inside a span named `name` caused by `parent`. `f` receives
    /// the new span's id so that the calls it makes can be its children.
    pub fn span<T>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        if self.spans.is_none() {
            return f(ROOT);
        }
        let id = self.next_id();
        let start = self.origin.elapsed();
        let out = f(id);
        self.push(id, parent, name, start, self.origin.elapsed());
        out
    }

    /// Record a span measured elsewhere (e.g. a request timed by a load
    /// generator thread), given as instants.
    pub fn record(&self, name: &str, parent: SpanId, start: Instant, end: Instant) {
        if self.spans.is_some() {
            let id = self.next_id();
            let at = |t: Instant| t.saturating_duration_since(self.origin);
            self.push(id, parent, name, at(start), at(end));
        }
    }

    fn next_id(&self) -> SpanId {
        let id = self.next.get();
        self.next.set(id + 1);
        id
    }

    fn push(&self, id: SpanId, parent: SpanId, name: &str, start: Duration, end: Duration) {
        if let Some(spans) = &self.spans {
            spans.borrow_mut().push(Span {
                id,
                parent,
                name: name.to_string(),
                start,
                end,
            });
        }
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = match &self.spans {
            Some(s) => s.borrow().clone(),
            None => Vec::new(),
        };
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Total duration of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> Duration {
    spans.iter().filter(|s| s.name == name).map(Span::len).sum()
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, Duration> {
    let mut children: BTreeMap<SpanId, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<String, Duration> = BTreeMap::new();
    for s in spans {
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut reach = s.start;
        for (a, b) in kids {
            let a = a.max(reach);
            let b = b.min(s.end);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name.clone()).or_default() += s.len().saturating_sub(covered);
    }
    out
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}{sep}",
            s.id,
            s.parent,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, ROOT, "phase", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            span(4, 1, "c", 90, 120),
        ];
        let st = self_times(&spans);
        // Children cover 10..60 and 90..100 inside the parent: 60 ms.
        assert_eq!(st["phase"], Duration::from_millis(40));
        assert_eq!(st["a"], Duration::from_millis(30));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let got = t.span("x", ROOT, |id| id);
        assert_eq!(got, ROOT);
        assert!(t.spans().is_empty());
        let t = Tracer::on();
        let child = t.span("outer", ROOT, |id| t.span("inner", id, |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, child);
        assert_eq!(spans[1].name, "inner");
    }
}
