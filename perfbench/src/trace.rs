//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, made from the benchmark's own code:
//! name, start, end, and the span that caused it. Spans stay in memory
//! while the workload runs and are written out once at the end. A disabled
//! tracer reads no clock and records nothing, so the untraced run pays
//! nothing for the calls.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the tracer's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer call name, e.g. `exp.cell.run_cell`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
}

/// Span recorder with an explicit parent stack for same-thread nesting.
/// Spans measured on other threads are added with [`Tracer::record`].
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span. `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start,
            end: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.ns(Instant::now());
        out
    }

    /// Add a span measured elsewhere (another thread), under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                id: self.spans.len(),
                parent: self.stack.last().copied(),
                name,
                start: self.ns(start),
                end: self.ns(end),
            });
        }
    }

    /// Now, in ns since the origin (the span time base).
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Every recorded span, in start-call order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Seconds covered by at least one of `intervals`.
pub fn union_s(intervals: &[(Instant, Instant)]) -> f64 {
    let Some(origin) = intervals.iter().map(|&(s, _)| s).min() else {
        return 0.0;
    };
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut spans: Vec<(u64, u64)> = intervals.iter().map(|&(s, e)| (ns(s), ns(e))).collect();
    let hi = spans.iter().map(|&(_, e)| e).max().unwrap_or(0);
    covered(0, hi, &mut spans) as f64 / 1e9
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children (work on other threads)
/// count once, so self time never goes negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Seconds of `[lo, hi]` (ns) that no root span covers.
pub fn unaccounted(spans: &[Span], lo: u64, hi: u64) -> f64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start, s.end))
        .collect();
    ((hi - lo) - covered(lo, hi, &mut roots)) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Parent 0..100; children 10..50 and 30..70 overlap on 30..50, and
        // a third child 90..120 sticks out past the parent's end.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 120),
        ];
        let own = self_times(&spans);
        // Covered: 10..70 (60) + 90..100 (10) = 70.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 40);
        assert_eq!(own[3], 30);
    }

    #[test]
    fn nested_children_and_grandchildren() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 60),
            span(2, Some(1), 10, 20),
            span(3, Some(0), 60, 100),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![0, 50, 10, 40]);
    }

    #[test]
    fn unaccounted_counts_gaps_between_roots() {
        let spans = vec![span(0, None, 10, 40), span(1, None, 30, 60)];
        let gap = unaccounted(&spans, 0, 100);
        assert!((gap - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn union_counts_overlaps_once() {
        let t = Instant::now();
        let at = |ms: u64| t + std::time::Duration::from_millis(ms);
        let u = union_s(&[(at(0), at(100)), (at(50), at(150)), (at(200), at(250))]);
        assert!((u - 0.2).abs() < 1e-9, "{u}");
        assert_eq!(union_s(&[]), 0.0);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
        let mut off = Tracer::new(false);
        off.span("outer", |t| t.span("inner", |_| ()));
        assert!(off.spans().is_empty());
    }
}
