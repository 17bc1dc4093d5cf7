//! In-memory span recorder for the traced run.
//!
//! The harness records one span around each call into a layer: name,
//! start, end, the span that caused it, and the chunk index every span
//! of one micro-batch shares. Spans stay in memory until the run ends
//! and are then written as JSON lines. A layer's *self time* is its
//! span's duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub chunk: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; the open spans form a stack, so a span
/// entered while another is open is its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, chunk: u64) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            chunk,
        });
    }

    /// Close the innermost open span and return its duration in seconds.
    ///
    /// # Panics
    /// Panics when no span is open.
    pub fn exit(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, chunk: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, chunk);
        let out = f();
        self.exit();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the
/// union of its direct children's intervals (clipped to the span, so
/// overlapping or adjacent children are never counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total seconds per span name.
pub fn seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
    }
    out
}

/// Durations in seconds of every span called `name`, in call order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, (s, own)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\
             \"parent\":{parent},\"chunk\":{}}}",
            s.name, s.start_ns, s.end_ns, s.chunk
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            chunk: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("root", 0, 100, None),
            // Two adjacent children and one apart from them.
            span("a", 10, 30, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 70, 80, Some(0)),
            // A grandchild counts against its parent only.
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), [50, 12, 20, 10, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 90, Some(0)),
            span("inside-a", 20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_by_call_order_and_sums_by_name() {
        let mut tr = Tracer::new();
        tr.enter("run", 0);
        for chunk in 0..3 {
            tr.span("parse", chunk, || std::hint::black_box(chunk));
            tr.enter("batch", chunk);
            tr.span("score", chunk, || ());
            tr.exit();
        }
        tr.exit();
        let spans = &tr.into_spans()[..];
        assert_eq!(spans.len(), 10);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].name, "score");
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].chunk, 0);
        assert_eq!(durations_of(spans, "parse").len(), 3);
        let batch: f64 = durations_of(spans, "batch").iter().sum();
        assert_eq!(seconds_by_name(spans)["batch"], batch);
        // Self times partition the root's duration.
        let own: u64 = self_times_ns(spans).iter().sum();
        assert_eq!(own, spans[0].duration_ns());
        assert_eq!(to_jsonl(spans).lines().count(), 10);
    }
}
