//! In-memory spans and counters recorded around calls into the program's
//! layers.
//!
//! The benchmark opens a span before it calls a layer's public function
//! and closes it when the call returns; nothing inside the program is
//! instrumented. Spans carry a name, start, end and parent, stay in memory
//! while the run is timed, and are written out when it ends. A span's
//! self time is its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `labelpick.select`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created; equals `start` while open.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle to an open span.
#[must_use = "a span must be closed with Tracer::exit"]
pub struct SpanId(usize);

/// Span and counter store for one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let now = self.origin.elapsed().as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans close in nesting order");
        self.spans[span.0].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds `by` to the counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name, in seconds.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_s) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name).or_insert(0.0) += self_s;
        }
        out
    }

    /// Summed self time of spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_seconds_by_name()
            .get(name)
            .copied()
            .unwrap_or(0.0)
            * 1e3
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) * 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span, in seconds: its duration minus the union of
/// its direct children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let spans = vec![
            span("loop", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 5.0, 6.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![6.0, 2.0, 1.0, 1.0]);
        // Self times partition the root's wall time.
        assert_eq!(st.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("x", 2.0, 6.0, Some(0)),
            span("y", 4.0, 8.0, Some(0)),
            span("z", 9.0, 12.0, Some(0)),
        ];
        // Covered: [2,8] and [9,10] → 7 of 10.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        for _ in 0..3 {
            t.span("leaf", || std::hint::black_box(0));
        }
        t.exit(root);
        t.count("rows", 2.0);
        t.count("rows", 3.0);
        assert_eq!(t.spans().len(), 4);
        assert!(t.spans()[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(t.durations_ms("leaf").len(), 3);
        assert_eq!(t.counter("rows"), 5.0);
        assert_eq!(t.counter("missing"), 0.0);
        let by_name = t.self_seconds_by_name();
        let total: f64 = by_name.values().sum();
        let root_s = t.spans()[0].end - t.spans()[0].start;
        assert!((total - root_s).abs() < 1e-12);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "nesting order")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let _inner = t.enter("inner");
        t.exit(outer);
    }
}
