//! # stmaker-obs — std-only tracing and metrics for the pipeline
//!
//! The paper's Sec. VII / Fig. 12 claims are *performance* claims
//! ("most trajectories can be summarized within tens of milliseconds"),
//! so the reproduction needs to attribute wall-clock to the pipeline
//! stages of Fig. 3. This crate is the measurement substrate:
//!
//! * **[`Recorder`]** — a cheaply clonable handle threaded through
//!   [`SummarizerConfig`](https://docs.rs/stmaker). A *disabled* recorder
//!   (the default) is a true no-op: every call is a single branch on an
//!   `Option`, with no allocation and no locking, so instrumented hot
//!   paths cost nothing when telemetry is off.
//! * **Spans** — hierarchical RAII timers over a monotonic clock
//!   ([`std::time::Instant`]). Re-entering a span name under the same
//!   parent aggregates into one node (call count + total time), so a
//!   400-trip evaluation run produces a compact tree, not 400 copies.
//!   Every span close also feeds a duration histogram under the span's
//!   name.
//! * **[`Journal`]** — an optional bounded ring buffer of the individual
//!   begin/end/instant events (trace id, span id, parent id, monotonic
//!   timestamps, static-str args) behind the same lock; see
//!   [`journal`]. Exported via [`trace_export`] as Chrome trace-event
//!   JSON for `about://tracing` / Perfetto.
//! * **Counters / gauges** — saturating `u64` counters for domain volumes
//!   (DP cells filled, segments scanned, features kept vs. dropped) and
//!   last-write-wins `f64` gauges.
//! * **[`Histogram`]** — fixed-bucket (exponential bounds) histograms with
//!   p50/p95/p99 summaries and saturating bucket counts.
//! * **[`Exemplar`]s** — a top-K reservoir of the slowest per-trip
//!   breakdowns from `summarize_batch`; see [`exemplar`].
//! * **[`WindowSummary`]** — sliding-window counters/histograms for
//!   streaming, keyed by data-derived window index; see [`window`].
//! * **[`Report`]** — a serializable snapshot (`spans`, `counters`,
//!   `gauges`, `histograms`, plus `exemplars`/`windows`) shared by
//!   `stmaker-cli --metrics-json`, `GET /metrics` and the Fig. 12 eval
//!   binary; the [`stats`] module renders the same
//!   data as a human table, and [`diff`](mod@diff) compares two snapshots for the
//!   `stmaker obs diff` regression gate.
//!
//! Std-only by design: the workspace builds with no crates.io access, and
//! a tracing layer must never be the reason the build grows a dependency.
//! The only deps are the vendored `serde`/`serde_json` stubs used for the
//! report schema.
//!
//! ## Example
//!
//! ```
//! use stmaker_obs::Recorder;
//!
//! let obs = Recorder::enabled();
//! {
//!     let _outer = obs.span("summarize");
//!     let _inner = obs.span("partition");
//!     obs.add("partition.dp_cells", 42);
//! }
//! let report = obs.report();
//! assert_eq!(report.spans[0].name, "summarize");
//! assert_eq!(report.spans[0].children[0].name, "partition");
//! assert_eq!(report.counters["partition.dp_cells"], 42);
//! ```
//!
//! Threading: the enabled recorder guards its state with a [`Mutex`], so
//! sharing a handle across threads is safe; span *nesting*, however,
//! follows global open/close order, so give each worker thread its own
//! recorder when per-thread trees matter — and replay worker results on
//! the coordinating thread via [`Recorder::span_observed`] /
//! [`Recorder::replay_span`], which is what keeps the journal's event
//! order (and hence the logical-clock trace bytes) independent of the
//! thread count.

pub mod diff;
pub mod exemplar;
pub mod hist;
pub mod journal;
pub mod report;
pub mod stats;
pub mod trace_export;
pub mod window;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub use diff::{diff, render_deltas, DiffOptions, Finding, Severity};
pub use exemplar::{Exemplar, ExemplarReservoir, DEFAULT_EXEMPLAR_K};
pub use hist::{Histogram, HistogramSummary};
pub use journal::{Arg, ArgValue, Event, EventKind, Journal, DEFAULT_JOURNAL_CAPACITY};
pub use report::{Report, SpanNode};
pub use trace_export::{chrome_trace, validate_chrome_trace, TraceClock, TraceStats};
pub use window::{SlidingWindow, WindowSummary, DEFAULT_WINDOW_CAPACITY};

/// A handle to a telemetry sink, or a no-op when disabled.
///
/// Cloning is cheap (an `Option<Arc>` copy); all clones share the same
/// underlying state, so the handle stored inside a `Summarizer` and the
/// handle the CLI keeps for reporting see the same spans.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// The no-op recorder: every operation is a branch and nothing else.
    /// This is also [`Default`].
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live recorder with empty state and no journal.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(State::default()),
                origin: Instant::now(),
            })),
        }
    }

    /// A live recorder that additionally journals every begin/end/instant
    /// event into a ring buffer of `capacity` events (drop-oldest on
    /// overflow, accounted as `obs.events_dropped` in the report).
    pub fn enabled_with_journal(capacity: usize) -> Self {
        let r = Self::enabled();
        if let Some(inner) = &r.inner {
            inner.state().journal = Some(Journal::new(capacity));
        }
        r
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this handle journals events.
    pub fn has_journal(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.state().journal.is_some(),
        }
    }

    /// Opens a named span; the elapsed time is recorded when the returned
    /// guard drops. Disabled recorders return an inert guard without
    /// allocating or locking.
    #[inline]
    #[must_use = "a span records its duration when the guard drops"]
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(inner) => {
                let idx = inner.open(name, &[]);
                Span {
                    active: Some(ActiveSpan {
                        inner: Arc::clone(inner),
                        idx,
                        start: Instant::now(),
                    }),
                }
            }
        }
    }

    /// Records one already-measured interval as a span under the current
    /// nesting point, feeding the same call/duration aggregates and
    /// histogram as a [`Recorder::span`] guard would. Workers that run
    /// with a disabled recorder measure with `Instant` themselves and the
    /// coordinating thread replays the durations here in deterministic
    /// order, keeping the span tree single-threaded. Journaled replays
    /// lay out end-to-end on the timeline (`end = begin + dur`), so a
    /// batch replayed in input order reads as a sequential trace.
    #[inline]
    pub fn span_observed(&self, name: &str, dur: std::time::Duration) {
        if let Some(inner) = &self.inner {
            let idx = inner.open(name, &[]);
            inner.close(idx, dur.as_nanos(), dur.as_secs_f64() * 1e3, true);
        }
    }

    /// Replays one already-measured interval as a span *with children*:
    /// `f` runs between the open and the close, so any `span_observed` /
    /// `replay_span` / counter calls it makes nest under this span. This
    /// is how `summarize_batch` reconstructs each worker trip's stage
    /// breakdown on the coordinating thread in input order. `args` are
    /// attached to the journaled begin event. With a disabled recorder
    /// `f` still runs (against the same no-op handle).
    pub fn replay_span<F: FnOnce(&Recorder)>(
        &self,
        name: &str,
        dur: std::time::Duration,
        args: &[Arg],
        f: F,
    ) {
        match &self.inner {
            None => f(self),
            Some(inner) => {
                let idx = inner.open(name, args);
                f(self);
                inner.close(idx, dur.as_nanos(), dur.as_secs_f64() * 1e3, true);
            }
        }
    }

    /// Journals a zero-duration marker under the current nesting point.
    /// Only visible in the journal/trace (no aggregate state changes);
    /// a no-op without a journal.
    pub fn instant(&self, name: &str, args: &[Arg]) {
        if let Some(inner) = &self.inner {
            inner.instant(name, args);
        }
    }

    /// Adds `by` to the named counter (saturating).
    #[inline]
    pub fn add(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            let mut s = inner.state();
            let c = s.counters.entry(name.to_owned()).or_insert(0);
            *c = c.saturating_add(by);
        }
    }

    /// Sets the named gauge (last write wins).
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.state().gauges.insert(name.to_owned(), value);
        }
    }

    /// Records one sample (in milliseconds) into the named histogram.
    #[inline]
    pub fn observe_ms(&self, name: &str, ms: f64) {
        if let Some(inner) = &self.inner {
            inner
                .state()
                .histograms
                .entry(name.to_owned())
                .or_insert_with(Histogram::default_ms)
                .record(ms);
        }
    }

    /// Offers one per-trip exemplar to the top-K reservoir surfaced under
    /// the report's `exemplars` key.
    pub fn exemplar(&self, ex: Exemplar) {
        if let Some(inner) = &self.inner {
            inner.state().exemplars.offer(ex);
        }
    }

    /// Replaces the report's sliding-window summaries (the streaming
    /// summarizer snapshots its [`SlidingWindow`] store here).
    pub fn set_windows(&self, windows: Vec<WindowSummary>) {
        if let Some(inner) = &self.inner {
            inner.state().windows = windows;
        }
    }

    /// Snapshot of the journal's retained events in drain order (empty
    /// without a journal).
    pub fn journal_events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.state().journal.as_ref().map(Journal::events).unwrap_or_default(),
        }
    }

    /// Events shed by the journal's drop-oldest overflow so far.
    pub fn journal_dropped(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.state().journal.as_ref().map_or(0, Journal::dropped),
        }
    }

    /// Renders a Chrome trace-event JSON document: the journal's event
    /// stream when one is recorded, otherwise the aggregated span tree as
    /// complete (`X`) events via [`Report::to_chrome_trace`].
    pub fn chrome_trace(&self, clock: TraceClock) -> String {
        if self.has_journal() {
            trace_export::chrome_trace(&self.journal_events(), clock)
        } else {
            self.report().to_chrome_trace()
        }
    }

    /// Snapshots everything recorded so far. Open spans are not included;
    /// a disabled recorder returns an empty report.
    pub fn report(&self) -> Report {
        let Some(inner) = &self.inner else { return Report::default() };
        let s = inner.state();
        let spans = s.roots.iter().filter_map(|&i| s.span_node(i)).collect();
        let mut counters = s.counters.clone();
        if let Some(j) = &s.journal {
            counters.insert("obs.events_dropped".to_owned(), j.dropped());
        }
        Report {
            spans,
            counters,
            gauges: s.gauges.clone(),
            histograms: s
                .histograms
                .iter()
                .filter_map(|(k, h)| h.summary().map(|sum| (k.clone(), sum)))
                .collect(),
            exemplars: s.exemplars.sorted(),
            windows: s.windows.clone(),
        }
    }

    /// Clears all recorded state (the handle stays enabled; a journal
    /// keeps its configured capacity but starts empty).
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            let mut s = inner.state();
            let journal_capacity = s.journal.as_ref().map(Journal::capacity);
            *s = State::default();
            if let Some(capacity) = journal_capacity {
                s.journal = Some(Journal::new(capacity));
            }
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// The journal's time origin; event timestamps are nanoseconds since
    /// this instant, clamped monotone under the lock.
    origin: Instant,
}

impl Inner {
    /// Locks the state; a poisoning panic elsewhere only means telemetry
    /// from that thread is partial, so recording continues.
    fn state(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The next journal timestamp: wall nanoseconds since `origin`,
    /// clamped so timestamps never go backwards (replayed closes can run
    /// ahead of the wall clock).
    fn tick(&self, s: &mut State) -> u64 {
        let now = self.origin.elapsed().as_nanos();
        let now = u64::try_from(now).unwrap_or(u64::MAX);
        let ts = now.max(s.last_ts_ns);
        s.last_ts_ns = ts;
        ts
    }

    /// Opens (or re-enters) the child named `name` under the current span
    /// and returns its node index. Journals a begin event carrying `args`.
    fn open(&self, name: &str, args: &[Arg]) -> usize {
        let mut s = self.state();
        let parent = s.stack.last().map(|o| o.node);
        let siblings = match parent {
            Some(p) => &s.nodes[p].children,
            None => &s.roots,
        };
        let existing = siblings.iter().copied().find(|&i| s.nodes[i].name == name);
        let idx = match existing {
            Some(i) => i,
            None => {
                let idx = s.nodes.len();
                s.nodes.push(Node {
                    name: name.to_owned(),
                    children: Vec::new(),
                    calls: 0,
                    total_ns: 0,
                });
                match parent {
                    Some(p) => s.nodes[p].children.push(idx),
                    None => s.roots.push(idx),
                }
                idx
            }
        };
        let parent_span_id = s.stack.last().map_or(0, |o| o.span_id);
        s.next_span_id += 1;
        let span_id = s.next_span_id;
        let ts = self.tick(&mut s);
        if let Some(j) = &mut s.journal {
            j.push(EventKind::Begin, name, span_id, parent_span_id, ts, args);
        }
        s.stack.push(OpenSpan { node: idx, span_id, begin_ts_ns: ts });
        idx
    }

    /// Journals an instant marker under the current span (journal-only).
    fn instant(&self, name: &str, args: &[Arg]) {
        let mut s = self.state();
        let parent_span_id = s.stack.last().map_or(0, |o| o.span_id);
        let ts = self.tick(&mut s);
        if let Some(j) = &mut s.journal {
            j.push(EventKind::Instant, name, 0, parent_span_id, ts, args);
        }
    }

    /// Closes the span at `idx` with the measured duration. Tolerates
    /// out-of-order guard drops by unwinding the stack down to `idx`
    /// (journaling synthesized end events for the unwound orphans, so
    /// exported traces stay balanced). A close whose stack entry was
    /// already unwound only updates the aggregates — its end event was
    /// synthesized when the parent closed.
    ///
    /// `replayed` closes (from [`Recorder::span_observed`] /
    /// [`Recorder::replay_span`]) place the end event at
    /// `begin + dur` on the journal timeline instead of "now", so a
    /// sequence of replays lays out as a contiguous sequential trace.
    fn close(&self, idx: usize, dur_ns: u128, ms: f64, replayed: bool) {
        let mut s = self.state();
        let unwound: Vec<OpenSpan> = match s.stack.iter().rposition(|o| o.node == idx) {
            Some(pos) => s.stack.drain(pos..).collect(),
            None => Vec::new(),
        };
        if let Some(own) = unwound.first() {
            let close_ts = if replayed {
                let dur = u64::try_from(dur_ns).unwrap_or(u64::MAX);
                let ts = own.begin_ts_ns.saturating_add(dur).max(s.last_ts_ns);
                s.last_ts_ns = ts;
                ts
            } else {
                self.tick(&mut s)
            };
            let state = &mut *s;
            if let Some(j) = &mut state.journal {
                // Orphans closed innermost-first keep B/E pairs balanced.
                for orphan in unwound.iter().skip(1).rev() {
                    let name = state.nodes[orphan.node].name.as_str();
                    j.push(EventKind::End, name, orphan.span_id, 0, close_ts, &[]);
                }
                let name = state.nodes[own.node].name.as_str();
                j.push(EventKind::End, name, own.span_id, 0, close_ts, &[]);
            }
        }
        let name = {
            let node = &mut s.nodes[idx];
            node.calls = node.calls.saturating_add(1);
            node.total_ns = node.total_ns.saturating_add(dur_ns);
            node.name.clone()
        };
        s.histograms.entry(name).or_insert_with(Histogram::default_ms).record(ms);
    }
}

/// One entry of the open-span stack.
struct OpenSpan {
    /// Aggregate node index in the arena.
    node: usize,
    /// Journal span instance id (unique per open, even for re-entries of
    /// the same aggregate node).
    span_id: u64,
    /// Journal timestamp of the begin event.
    begin_ts_ns: u64,
}

/// Aggregated span-tree state plus the scalar metric stores.
#[derive(Default)]
struct State {
    /// Arena of aggregated span nodes.
    nodes: Vec<Node>,
    /// Indices of top-level spans, in first-seen order.
    roots: Vec<usize>,
    /// Currently open spans, innermost last.
    stack: Vec<OpenSpan>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Optional event journal (see [`journal`]).
    journal: Option<Journal>,
    /// High-water timestamp keeping journal time monotone.
    last_ts_ns: u64,
    /// Journal span-instance id source (0 = "no span").
    next_span_id: u64,
    /// Top-K slowest per-trip breakdowns.
    exemplars: ExemplarReservoir,
    /// Sliding-window summaries from the streaming path.
    windows: Vec<WindowSummary>,
}

impl State {
    /// Builds the reported subtree at `idx`; `None` when the span (and
    /// every descendant) is still open and has nothing to report yet.
    fn span_node(&self, idx: usize) -> Option<SpanNode> {
        let node = &self.nodes[idx];
        let children: Vec<SpanNode> =
            node.children.iter().filter_map(|&c| self.span_node(c)).collect();
        if node.calls == 0 && children.is_empty() {
            return None;
        }
        Some(SpanNode {
            name: node.name.clone(),
            calls: node.calls,
            total_ms: node.total_ns as f64 / 1e6, // cast-ok: ns precision beyond f64 is irrelevant at ms scale
            children,
        })
    }
}

/// One aggregated node: all calls to the same span name under the same
/// parent share a node.
struct Node {
    name: String,
    children: Vec<usize>,
    calls: u64,
    total_ns: u128,
}

/// RAII guard for an open span; records the elapsed time on drop.
/// Inert (zero state) when produced by a disabled recorder.
#[must_use = "a span records its duration when the guard drops"]
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    inner: Arc<Inner>,
    idx: usize,
    start: Instant,
}

impl Span {
    /// Whether this guard will record anything (false for disabled
    /// recorders).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let elapsed = active.start.elapsed();
            // cast-ok: sub-ns precision is irrelevant at ms scale
            active.inner.close(active.idx, elapsed.as_nanos(), elapsed.as_secs_f64() * 1e3, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_observed_aggregates_like_a_guard() {
        let obs = Recorder::enabled();
        obs.span_observed("stage", std::time::Duration::from_millis(3));
        {
            let _outer = obs.span("outer");
            obs.span_observed("stage.child", std::time::Duration::from_millis(2));
            obs.span_observed("stage.child", std::time::Duration::from_millis(5));
        }
        let report = obs.report();
        let stage = report.spans.iter().find(|s| s.name == "stage").expect("root span");
        assert_eq!(stage.calls, 1);
        assert!(stage.total_ms >= 2.9);
        let outer = report.spans.iter().find(|s| s.name == "outer").expect("outer span");
        let child = outer.children.iter().find(|s| s.name == "stage.child").expect("child");
        assert_eq!(child.calls, 2);
        assert!(child.total_ms >= 6.9);
        assert!(report.histograms.contains_key("stage.child"));
        // The disabled recorder stays inert.
        Recorder::disabled().span_observed("stage", std::time::Duration::from_millis(1));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let obs = Recorder::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.has_journal());
        let span = obs.span("anything");
        assert!(!span.is_recording());
        drop(span);
        obs.add("c", 1);
        obs.gauge("g", 1.0);
        obs.observe_ms("h", 1.0);
        obs.instant("marker", &[]);
        obs.exemplar(Exemplar { id: "x".into(), total_ms: 1.0, stages: BTreeMap::new() });
        obs.set_windows(vec![WindowSummary::default()]);
        let mut ran = false;
        obs.replay_span("r", std::time::Duration::from_millis(1), &[], |_| ran = true);
        assert!(ran, "replay closure still runs when disabled");
        let report = obs.report();
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert!(report.histograms.is_empty());
        assert!(report.exemplars.is_empty());
        assert!(report.windows.is_empty());
        assert!(obs.journal_events().is_empty());
        assert_eq!(obs.journal_dropped(), 0);
        assert_eq!(format!("{obs:?}"), "Recorder { enabled: false }");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_aggregate_by_name() {
        let obs = Recorder::enabled();
        for _ in 0..3 {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
            }
            {
                let _inner = obs.span("inner");
            }
        }
        let report = obs.report();
        assert_eq!(report.spans.len(), 1);
        let outer = &report.spans[0];
        assert_eq!((outer.name.as_str(), outer.calls), ("outer", 3));
        assert_eq!(outer.children.len(), 1, "same-name children aggregate");
        let inner = &outer.children[0];
        assert_eq!((inner.name.as_str(), inner.calls), ("inner", 6));
        assert!(outer.total_ms >= inner.total_ms, "parent time includes children");
        // Span closes feed the histograms under the span's name.
        assert_eq!(report.histograms["outer"].count, 3);
        assert_eq!(report.histograms["inner"].count, 6);
    }

    #[test]
    fn sibling_spans_stay_distinct() {
        let obs = Recorder::enabled();
        {
            let _root = obs.span("root");
            let _a = obs.span("a");
            drop(_a);
            let _b = obs.span("b");
        }
        let report = obs.report();
        let names: Vec<&str> = report.spans[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_the_tree() {
        let obs = Recorder::enabled();
        let outer = obs.span("outer");
        let inner = obs.span("inner");
        drop(outer); // parent first: stack unwinds through the child
        drop(inner);
        let _next = obs.span("next");
        drop(_next);
        let report = obs.report();
        let roots: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(roots, ["outer", "next"], "next must not nest under a dead span");
    }

    #[test]
    fn counters_saturate_and_gauges_overwrite() {
        let obs = Recorder::enabled();
        obs.add("c", u64::MAX - 1);
        obs.add("c", 5);
        obs.gauge("g", 1.0);
        obs.gauge("g", 2.5);
        let report = obs.report();
        assert_eq!(report.counters["c"], u64::MAX);
        assert_eq!(report.gauges["g"], 2.5);
    }

    #[test]
    fn reset_clears_state_but_stays_enabled() {
        let obs = Recorder::enabled();
        obs.add("c", 1);
        let _s = obs.span("s");
        drop(_s);
        obs.reset();
        assert!(obs.is_enabled());
        let report = obs.report();
        assert!(report.spans.is_empty() && report.counters.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let obs = Recorder::enabled();
        let clone = obs.clone();
        clone.add("shared", 7);
        assert_eq!(obs.report().counters["shared"], 7);
    }

    #[test]
    fn open_spans_are_excluded_from_the_report() {
        let obs = Recorder::enabled();
        let _open = obs.span("open");
        let report = obs.report();
        assert!(report.spans.is_empty(), "unclosed spans must not appear");
    }

    #[test]
    fn journal_records_begin_end_with_ids_and_monotone_time() {
        let obs = Recorder::enabled_with_journal(64);
        assert!(obs.has_journal());
        {
            let _outer = obs.span("outer");
            obs.instant("marker", &[("k", ArgValue::Str("v"))]);
            let _inner = obs.span("inner");
        }
        let events = obs.journal_events();
        let shape: Vec<(EventKind, &str)> =
            events.iter().map(|e| (e.kind, e.name.as_str())).collect();
        assert_eq!(
            shape,
            [
                (EventKind::Begin, "outer"),
                (EventKind::Instant, "marker"),
                (EventKind::Begin, "inner"),
                (EventKind::End, "inner"),
                (EventKind::End, "outer"),
            ]
        );
        // Parent/child ids line up.
        assert_eq!(events[0].parent_id, 0);
        assert_eq!(events[1].parent_id, events[0].span_id, "instant under outer");
        assert_eq!(events[2].parent_id, events[0].span_id);
        assert_eq!(events[3].span_id, events[2].span_id);
        assert_eq!(events[4].span_id, events[0].span_id);
        // Timestamps never go backwards.
        for pair in events.windows(2) {
            assert!(pair[1].ts_ns >= pair[0].ts_ns);
        }
        // The report surfaces the drop counter (0 here).
        assert_eq!(obs.report().counters["obs.events_dropped"], 0);
    }

    #[test]
    fn journal_overflow_drops_oldest_and_reports_it() {
        let obs = Recorder::enabled_with_journal(4);
        for _ in 0..10 {
            obs.span_observed("s", std::time::Duration::from_micros(5));
        }
        let events = obs.journal_events();
        assert_eq!(events.len(), 4, "capacity bound holds");
        assert_eq!(obs.journal_dropped(), 16, "20 pushed, 4 retained");
        assert_eq!(obs.report().counters["obs.events_dropped"], 16);
        // Reset keeps the journal (and its capacity), empty again.
        obs.reset();
        assert!(obs.has_journal());
        assert!(obs.journal_events().is_empty());
        assert_eq!(obs.journal_dropped(), 0);
    }

    #[test]
    fn out_of_order_drop_synthesizes_balanced_end_events() {
        let obs = Recorder::enabled_with_journal(64);
        let outer = obs.span("outer");
        let inner = obs.span("inner");
        drop(outer); // unwinds through inner: its end is synthesized
        drop(inner); // aggregate-only; must NOT journal a second end
        let events = obs.journal_events();
        let shape: Vec<(EventKind, &str)> =
            events.iter().map(|e| (e.kind, e.name.as_str())).collect();
        assert_eq!(
            shape,
            [
                (EventKind::Begin, "outer"),
                (EventKind::Begin, "inner"),
                (EventKind::End, "inner"),
                (EventKind::End, "outer"),
            ]
        );
        let text = chrome_trace(&events, TraceClock::Logical);
        validate_chrome_trace(&text).expect("balanced trace");
    }

    #[test]
    fn replay_span_nests_children_and_lays_out_sequentially() {
        let obs = Recorder::enabled_with_journal(64);
        for trip in 0..2u64 {
            obs.replay_span(
                "summarize_batch.trip",
                std::time::Duration::from_millis(4),
                &[("trip", ArgValue::U64(trip))],
                |o| {
                    o.span_observed("partition", std::time::Duration::from_millis(3));
                    o.span_observed("render", std::time::Duration::from_millis(1));
                },
            );
        }
        let report = obs.report();
        let trip = &report.spans[0];
        assert_eq!((trip.name.as_str(), trip.calls), ("summarize_batch.trip", 2));
        let kids: Vec<&str> = trip.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["partition", "render"]);
        let events = obs.journal_events();
        assert_eq!(events.len(), 12, "2 trips x (1 trip span + 2 stages) x B/E");
        assert_eq!(events[0].args, vec![("trip", ArgValue::U64(0))]);
        // Replayed closes advance the timeline: trip 1 begins at or after
        // trip 0's replayed end (begin + 4ms).
        let t0_end = events[0].ts_ns + 4_000_000;
        assert!(events[6].ts_ns >= t0_end, "{} < {t0_end}", events[6].ts_ns);
        validate_chrome_trace(&chrome_trace(&events, TraceClock::Logical)).expect("valid");
    }

    #[test]
    fn exemplars_surface_in_the_report_sorted() {
        let obs = Recorder::enabled();
        for (id, ms) in [("a", 1.0), ("b", 9.0), ("c", 4.0)] {
            obs.exemplar(Exemplar { id: id.into(), total_ms: ms, stages: BTreeMap::new() });
        }
        let report = obs.report();
        let ids: Vec<&str> = report.exemplars.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, ["b", "c", "a"]);
    }

    #[test]
    fn windows_surface_in_the_report() {
        let obs = Recorder::enabled();
        let mut w = SlidingWindow::new(4);
        w.add(0, "stream.window.points", 3);
        obs.set_windows(w.summaries());
        let report = obs.report();
        assert_eq!(report.windows.len(), 1);
        assert_eq!(report.windows[0].counters["stream.window.points"], 3);
    }

    #[test]
    fn recorder_without_journal_reports_no_drop_counter() {
        let obs = Recorder::enabled();
        obs.add("c", 1);
        assert!(!obs.report().counters.contains_key("obs.events_dropped"));
    }
}
