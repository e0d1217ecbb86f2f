//! The benchmark's own spans, recorded around its calls into each layer.
//! Spans stay in memory and are written out when the run ends. A disabled
//! tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

use crate::stats::{percentile_sorted, sorted};

/// The benchmark's clock. Wall time is what a benchmark measures; it never
/// reaches the outputs the benchmark checks.
pub fn now() -> Instant {
    // lint: wallclock — benchmark timing only; checked outputs never read the clock
    Instant::now()
}

/// One timed call: name, the trip or request it served, the span that
/// caused it, and start and end in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn disabled() -> Self {
        Self { origin: None, spans: Vec::new(), stack: Vec::new() }
    }

    /// An enabled tracer whose clock starts at `origin`; tracers of one run
    /// share an origin so their spans line up after [`Tracer::absorb`].
    pub fn enabled(origin: Instant) -> Self {
        Self { origin: Some(origin), spans: Vec::new(), stack: Vec::new() }
    }

    /// A tracer of the same kind sharing this one's clock (for a worker
    /// thread).
    pub fn sibling(&self) -> Self {
        Self { origin: self.origin, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn is_enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64 // cast-ok: runs last seconds, not centuries
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let Some(origin) = self.origin else { return Open(None) };
        let idx = self.spans.len();
        let start_ns = Self::now_ns(origin);
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` (and anything left open inside it).
    pub fn end(&mut self, open: Open) {
        let (Some(origin), Some(idx)) = (self.origin, open.0) else { return };
        let end_ns = Self::now_ns(origin);
        self.spans[idx].end_ns = end_ns;
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
            self.spans[top].end_ns = end_ns;
        }
    }

    /// Records a span that already finished, as a child of the innermost
    /// open one.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let Some(origin) = self.origin else { return };
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64; // cast-ok: ns
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, id, parent, start_ns: ns(start), end_ns: ns(end) });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Moves another tracer's spans into this one, keeping their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: count, total and self milliseconds, and p50/p99 of
/// span durations.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Value> {
    let selfs = self_times_ns(spans);
    let mut groups: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let g = groups.entry(s.name).or_default();
        g.0.push(s.dur_ns() as f64 / 1e6); // cast-ok: ns span
        g.1 += *self_ns as f64 / 1e6; // cast-ok: ns span
    }
    groups
        .into_iter()
        .map(|(name, (durs, self_ms))| {
            let d = sorted(&durs);
            let v = json!({
                "count": d.len(),
                "total_ms": d.iter().sum::<f64>(),
                "self_ms": self_ms,
                "p50_ms": percentile_sorted(&d, 0.5),
                "p99_ms": percentile_sorted(&d, 0.99),
            });
            (name, v)
        })
        .collect()
}

/// The spans as written to the trace file: per-name totals, then every
/// span with its self time.
pub fn summary_json(spans: &[Span]) -> Value {
    let selfs = self_times_ns(spans);
    let list = spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            json!({
                "name": s.name,
                "id": s.id,
                "parent": s.parent,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_ns,
            })
        })
        .collect();
    let names = by_name(spans).into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    json!({ "by_name": Value::Map(names), "spans": Value::Seq(list) })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span { name, id: 0, parent, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a: 10..60 covered once
            span("c", Some(0), 90, 120), // clipped to the parent's end
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 30, 30, 30]);
    }

    #[test]
    fn nesting_and_absorb_keep_parents() {
        let origin = Instant::now();
        let mut t = Tracer::enabled(origin);
        let outer = t.begin("outer", 1);
        t.span("inner", 1, || ());
        t.end(outer);
        let mut w = t.sibling();
        w.span("worker", 2, || ());
        t.absorb(w);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::disabled();
        let o = off.begin("x", 0);
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
