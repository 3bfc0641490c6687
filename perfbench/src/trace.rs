//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every generator thread owns a [`Tracer`]; spans stay in memory and
//! are merged and written out when the run ends. A disabled tracer
//! records nothing, so the untraced operations of a traced run pay
//! only a branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// Identifies a span within one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Spans of one request or operation share this id.
    pub request: u64,
    pub name: &'static str,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span ids start at `thread << 40`, so tracers of
    /// different threads never collide.
    pub fn new(origin: Instant, thread: u64) -> Self {
        Tracer {
            origin,
            enabled: false,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the tracer
    /// back, with the new span's id, to open child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Tracer, Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, None);
        }
        let id = SpanId(self.next_id);
        self.next_id += 1;
        let start_ns = self.now_ns();
        let out = f(self, Some(id));
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Each span's self time: its duration minus the part of its interval
/// its children cover, counting overlapping children once.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let kids = children.remove(&span.id).unwrap_or_default();
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Self times in milliseconds of every span named `name`.
pub fn self_ms(spans: &[Span], selfs: &BTreeMap<SpanId, u64>, name: &str) -> Samples {
    Samples::new(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[&s.id] as f64 / 1e6)
            .collect(),
    )
}

/// Writes the spans as JSON lines, one span per line after a header
/// line carrying `header` (already-rendered JSON members).
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{{header}}}")?;
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.0.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id.0, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: SpanId(id),
            parent: parent.map(SpanId),
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let selfs = self_times(&[span(1, None, 10, 35)]);
        assert_eq!(selfs[&SpanId(1)], 25);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&SpanId(1)], 70);
        assert_eq!(selfs[&SpanId(2)], 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 40, 45),
        ];
        assert_eq!(self_times(&spans)[&SpanId(1)], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(1, None, 20, 60),
            span(2, Some(1), 0, 30),
            span(3, Some(1), 50, 90),
        ];
        assert_eq!(self_times(&spans)[&SpanId(1)], 20);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_root() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 40),
            span(3, Some(2), 0, 40),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&SpanId(1)], 60);
        assert_eq!(selfs[&SpanId(2)], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), 0);
        let got = tracer.span("x", 1, None, |_, id| id);
        assert_eq!(got, None);
        tracer.set_enabled(true);
        let got = tracer.span("x", 1, None, |t, id| t.span("y", 1, id, |_, child| child));
        assert!(got.is_some());
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
