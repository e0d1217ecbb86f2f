//! Online summarization of a live GPS stream.
//!
//! The paper's first application (Sec. I) embeds summarization "in GPS
//! modules of cars" — which receive points one at a time, not as a finished
//! trajectory. [`StreamingSummarizer`] is a sample buffer and refresh
//! policy over a trained [`Summarizer`]: push points as they arrive, and a
//! fresh summary of the trip-so-far is produced whenever enough new travel
//! has accumulated.
//!
//! The stream does not borrow its summarizer; each [`StreamingSummarizer::
//! try_push`] and [`StreamingSummarizer::finish`] takes the one to use. A
//! long-lived owner (the server's `/ingest` session table) can therefore
//! keep a stream across model hot-swaps: the buffer and refresh bookkeeping
//! carry over, and the next refresh runs under whichever model is passed.
//!
//! Each refresh re-runs the full pipeline over the buffered prefix. That is
//! the honest cost model — calibration and partitioning are global
//! optimizations, so a changed suffix can legitimately re-partition the
//! whole trip — and at Fig. 12's per-summary cost (single-digit
//! milliseconds) a refresh every few hundred metres is negligible for an
//! embedded device.
//!
//! Live feeds are not clean: retransmitted packets arrive late and receiver
//! glitches serialize as NaN. [`StreamingSummarizer::try_push`] therefore
//! never panics — defective samples are dropped and counted (the default
//! [`OutOfOrderPolicy::Drop`]) or surfaced as a typed [`StreamError`]
//! ([`OutOfOrderPolicy::Reject`]).

use crate::summarize::{SummarizeError, Summarizer, Summary};
use stmaker_obs::{ArgValue, SlidingWindow, WindowSummary, DEFAULT_WINDOW_CAPACITY};
use stmaker_trajectory::{RawPoint, TrajectoryError};

/// What to do with a sample that arrives out of time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutOfOrderPolicy {
    /// Drop the late sample and count it ([`StreamingSummarizer::dropped`]
    /// and the `stream.out_of_order_dropped` counter). The default: streams
    /// are time-ordered by definition, so a late sample is transport noise,
    /// not data.
    #[default]
    Drop,
    /// Return [`StreamError::OutOfOrder`] and leave the buffer untouched.
    /// Use when the transport guarantees ordering and a violation means an
    /// upstream bug worth failing loudly on.
    Reject,
}

/// Refresh policy for the stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Re-summarize after at least this much new travel, metres.
    pub refresh_distance_m: f64,
    /// …or after this much elapsed time since the last refresh, seconds
    /// (whichever comes first). Covers a car stuck in a jam: no distance
    /// accumulates, but the stay-point count is growing.
    pub refresh_interval_s: i64,
    /// How late samples are handled by [`StreamingSummarizer::try_push`].
    pub out_of_order: OutOfOrderPolicy,
    /// Width of one metrics window, in *stream* seconds. Window indices
    /// are derived from sample timestamps relative to the first accepted
    /// sample — never from wall clock — so the `stream.window.*` series
    /// is a pure function of the input and survives the determinism
    /// contract.
    pub window_secs: i64,
    /// How many trailing windows of metrics to retain; older windows are
    /// evicted oldest-first (and counted).
    pub window_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            refresh_distance_m: 500.0,
            refresh_interval_s: 120,
            out_of_order: OutOfOrderPolicy::Drop,
            window_secs: 60,
            window_capacity: DEFAULT_WINDOW_CAPACITY,
        }
    }
}

impl StreamConfig {
    /// Checks the refresh thresholds: the distance must be positive and
    /// finite, the interval and window width positive, the window
    /// retention non-zero.
    pub fn validate(&self) -> Result<(), StreamError> {
        if !(self.refresh_distance_m > 0.0) || !self.refresh_distance_m.is_finite() {
            return Err(StreamError::InvalidConfig {
                what: "refresh_distance_m must be positive and finite",
            });
        }
        if self.refresh_interval_s <= 0 {
            return Err(StreamError::InvalidConfig { what: "refresh_interval_s must be positive" });
        }
        if self.window_secs <= 0 {
            return Err(StreamError::InvalidConfig { what: "window_secs must be positive" });
        }
        if self.window_capacity == 0 {
            return Err(StreamError::InvalidConfig { what: "window_capacity must be non-zero" });
        }
        Ok(())
    }
}

/// Why a streaming operation was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamError {
    /// The [`StreamConfig`] is unusable.
    InvalidConfig {
        /// Which constraint failed.
        what: &'static str,
    },
    /// A sample arrived out of order under [`OutOfOrderPolicy::Reject`].
    OutOfOrder {
        /// Timestamp of the newest buffered sample, seconds.
        last_t: i64,
        /// Timestamp of the rejected sample, seconds.
        got_t: i64,
    },
    /// A sample carried a defective coordinate under
    /// [`OutOfOrderPolicy::Reject`].
    InvalidPoint(TrajectoryError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::InvalidConfig { what } => write!(f, "invalid stream config: {what}"),
            StreamError::OutOfOrder { last_t, got_t } => {
                write!(f, "out-of-order sample: t={got_t} after t={last_t}")
            }
            StreamError::InvalidPoint(e) => write!(f, "invalid sample: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Incremental summarization over an arriving point stream.
pub struct StreamingSummarizer {
    cfg: StreamConfig,
    buffer: Vec<RawPoint>,
    current: Option<Summary>,
    dist_since_refresh: f64,
    last_refresh_t: Option<i64>,
    dropped_out_of_order: u64,
    dropped_invalid: u64,
    /// Timestamp of the first accepted sample — the origin the window
    /// index is measured from.
    first_t: Option<i64>,
    windows: SlidingWindow,
}

impl StreamingSummarizer {
    /// An empty stream, after checking that `cfg`'s refresh thresholds are
    /// positive.
    pub fn try_new(cfg: StreamConfig) -> Result<Self, StreamError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            buffer: Vec::new(),
            current: None,
            dist_since_refresh: 0.0,
            last_refresh_t: None,
            dropped_out_of_order: 0,
            dropped_invalid: 0,
            first_t: None,
            windows: SlidingWindow::new(cfg.window_capacity),
        })
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether no samples have arrived yet.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// The latest summary of the trip-so-far, if one has been produced.
    pub fn current(&self) -> Option<&Summary> {
        self.current.as_ref()
    }

    /// Samples dropped so far as `(out_of_order, invalid_coordinate)` under
    /// [`OutOfOrderPolicy::Drop`] — the stream's own sanitize report.
    pub fn dropped(&self) -> (u64, u64) {
        (self.dropped_out_of_order, self.dropped_invalid)
    }

    /// The retained metric windows (oldest first) — the same series that
    /// is published into the recorder's report on every refresh and on
    /// [`StreamingSummarizer::finish`].
    pub fn windows(&self) -> Vec<WindowSummary> {
        self.windows.summaries()
    }

    /// Window index of stream time `t`, measured from the first accepted
    /// sample (window 0 before anything was accepted, or for a late `t`).
    fn window_index(&self, t: i64) -> u64 {
        let dt = t.saturating_sub(self.first_t.unwrap_or(t)).max(0);
        dt as u64 / self.cfg.window_secs.max(1) as u64
    }

    /// Publishes the retained windows and the current window index into
    /// `summarizer`'s recorder.
    fn publish_windows(&self, summarizer: &Summarizer<'_>, w: u64) {
        let obs = summarizer.recorder();
        obs.gauge("stream.window.index", w as f64); // cast-ok: window index
        obs.set_windows(self.windows.summaries());
    }

    /// Feeds one sample. Returns `Ok(Some)` with a *fresh* summary when the
    /// refresh policy fired and the prefix was summarizable; the refresh
    /// runs under `summarizer`, and the drop counters and refresh events go
    /// to its recorder.
    ///
    /// Never panics: an out-of-order or defective sample is dropped and
    /// counted under [`OutOfOrderPolicy::Drop`] (returning `Ok(None)`), or
    /// reported as a [`StreamError`] under [`OutOfOrderPolicy::Reject`] —
    /// in both cases the buffered prefix stays intact and the stream
    /// remains usable.
    pub fn try_push(
        &mut self,
        summarizer: &Summarizer<'_>,
        point: RawPoint,
    ) -> Result<Option<&Summary>, StreamError> {
        // A defective sample must not enter the buffer, or `finish` would
        // reject the whole otherwise-good trip.
        if let Err(e) = point.check(self.buffer.len()) {
            return match self.cfg.out_of_order {
                OutOfOrderPolicy::Drop => {
                    self.dropped_invalid += 1;
                    summarizer.recorder().add("stream.invalid_dropped", 1);
                    let w = self.window_index(point.t.0);
                    self.windows.add(w, "stream.window.dropped", 1);
                    Ok(None)
                }
                OutOfOrderPolicy::Reject => Err(StreamError::InvalidPoint(e)),
            };
        }
        if let Some(last) = self.buffer.last() {
            if point.t < last.t {
                return match self.cfg.out_of_order {
                    OutOfOrderPolicy::Drop => {
                        self.dropped_out_of_order += 1;
                        summarizer.recorder().add("stream.out_of_order_dropped", 1);
                        let w = self.window_index(point.t.0);
                        self.windows.add(w, "stream.window.dropped", 1);
                        Ok(None)
                    }
                    OutOfOrderPolicy::Reject => {
                        Err(StreamError::OutOfOrder { last_t: last.t.0, got_t: point.t.0 })
                    }
                };
            }
            self.dist_since_refresh += last.point.haversine_m(&point.point);
        }
        self.buffer.push(point);
        let t = point.t.0;
        if self.first_t.is_none() {
            self.first_t = Some(t);
        }
        let w = self.window_index(t);
        self.windows.add(w, "stream.window.points", 1);
        let due_dist = self.dist_since_refresh >= self.cfg.refresh_distance_m;
        let due_time =
            self.last_refresh_t.map(|t0| t - t0 >= self.cfg.refresh_interval_s).unwrap_or(true);
        if self.buffer.len() < 2 || (!due_dist && !due_time) {
            return Ok(None);
        }
        // lint: wallclock — refresh cost feeds the window metrics only, never the summary
        let t0 = std::time::Instant::now();
        let refreshed = self.refresh(summarizer);
        let refresh_ms = t0.elapsed().as_secs_f64() * 1e3;
        if refreshed {
            self.windows.add(w, "stream.window.refreshes", 1);
            self.windows.observe_ms(w, "stream.window.refresh_ms", refresh_ms);
            summarizer.recorder().instant("stream.refresh", &[("window", ArgValue::U64(w))]);
            self.publish_windows(summarizer, w);
            self.dist_since_refresh = 0.0;
            self.last_refresh_t = Some(t);
            Ok(self.current.as_ref())
        } else {
            // The prefix did not calibrate: keep the refresh debt so the
            // very next sample retries, and do not hand back the stale
            // previous summary as if it were fresh.
            Ok(None)
        }
    }

    /// Re-summarizes the buffered prefix; returns whether a fresh summary
    /// was produced. Summarizes the buffer in place ([`Summarizer::
    /// summarize`] takes a sample slice) — cloning it here would cost
    /// O(n²) allocation over a trip's worth of refreshes.
    fn refresh(&mut self, summarizer: &Summarizer<'_>) -> bool {
        match summarizer.summarize(&self.buffer, None) {
            Ok(summary) => {
                self.current = Some(summary);
                true
            }
            Err(_) => false,
        }
    }

    /// Finalizes the trip: summarizes everything buffered, regardless of the
    /// refresh policy. Equivalent to `summarizer` batch-summarizing the
    /// same samples, whichever summarizers the earlier refreshes used.
    pub fn finish(self, summarizer: &Summarizer<'_>) -> Result<Summary, SummarizeError> {
        if let Some(last) = self.buffer.last() {
            // Final publication, so the report carries the windows even
            // when the trip ended between refreshes.
            self.publish_windows(summarizer, self.window_index(last.t.0));
        }
        // Fewer than two samples is `SummarizeError::Input` from the
        // summarizer's own validation.
        summarizer.summarize(&self.buffer, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_is_fallible() {
        assert!(StreamConfig::default().validate().is_ok());
        let bad = StreamConfig { refresh_distance_m: 0.0, ..StreamConfig::default() };
        assert!(matches!(bad.validate(), Err(StreamError::InvalidConfig { .. })));
        let bad = StreamConfig { refresh_distance_m: f64::NAN, ..StreamConfig::default() };
        assert!(matches!(bad.validate(), Err(StreamError::InvalidConfig { .. })));
        let bad = StreamConfig { refresh_interval_s: 0, ..StreamConfig::default() };
        let msg = bad.validate().expect_err("invalid").to_string();
        assert!(msg.contains("refresh_interval_s"), "{msg}");
        let bad = StreamConfig { window_secs: 0, ..StreamConfig::default() };
        let msg = bad.validate().expect_err("invalid").to_string();
        assert!(msg.contains("window_secs"), "{msg}");
        let bad = StreamConfig { window_capacity: 0, ..StreamConfig::default() };
        let msg = bad.validate().expect_err("invalid").to_string();
        assert!(msg.contains("window_capacity"), "{msg}");
    }

    #[test]
    fn stream_error_messages_are_actionable() {
        let e = StreamError::OutOfOrder { last_t: 100, got_t: 40 };
        assert_eq!(e.to_string(), "out-of-order sample: t=40 after t=100");
        let e = StreamError::InvalidPoint(TrajectoryError::NonFiniteCoordinate { index: 7 });
        assert!(e.to_string().contains("non-finite"), "{e}");
    }
}
