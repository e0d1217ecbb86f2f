//! The benchmark's contract: workloads and metrics, mirrored one-for-one in
//! `BENCHMARK.json` at the repository root (a test keeps the two in sync).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Relative change from `base` to `new`, signed so that positive means
    /// worse: `+0.1` is a 10% regression in either direction convention.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }

    /// Whether `new` reads strictly better than `base`.
    pub fn improves(self, base: f64, new: f64) -> bool {
        match self {
            Better::Lower => new < base,
            Better::Higher => new > base,
        }
    }
}

/// One metric: name, unit, direction, and (end-to-end only) the share of
/// the parent's median by which it may worsen before a change regresses.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// The workloads, with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "batch-dense",
        "600 densely sampled trips summarized in STC batches on one thread (two-thread output checked, not timed): calibration and map matching do almost all the work",
    ),
    (
        "serve-hub",
        "short hub-to-hub trips POSTed to the server in 20-trip batches and one per connection at 1000 req/s: parse, queueing, route cache and the summary tail take their largest share",
    ),
    (
        "train",
        "2000 training trips in 400-trip shards, each decoded, trained, encoded and decoded: the write side of popular routes, feature map and model codec",
    ),
];

/// Metrics a user of the system sees, reported by every untraced run.
///
/// `setup_s` carries the largest bound: its median moved by up to 14%
/// between two back-to-back sets of ten runs of the same code, with the
/// host alone to blame (see `README.md`).
pub const END_TO_END: &[Metric] =
    &[e2e("setup_s", "s", Better::Lower, 0.25), e2e("peak_rss_mb", "MB", Better::Lower, 0.05)];

/// End-to-end numbers a user sees that are reported among the diagnostics
/// and not gated: on the shared host their run-to-run spread is wider than
/// a 10% bound (see `README.md`). `compare` still applies the gain rule to
/// them, and the traced run reports their tracing overhead.
pub const UNGATED: &[Metric] = &[layer("trip_ms", "ms", Better::Lower)];

/// Single-layer metrics, reported by every traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("generator.world_ms", "ms", Better::Lower),
    layer("io.trips_decode_us", "us", Better::Lower),
    layer("io.csv_parse_us", "us", Better::Lower),
    layer("io.model_decode_ms", "ms", Better::Lower),
    layer("io.model_encode_ms", "ms", Better::Lower),
    layer("io.model_bytes", "bytes", Better::Lower),
    layer("trajectory.validate_us", "us", Better::Lower),
    layer("calibration.calibrate_ms_p50", "ms", Better::Lower),
    layer("calibration.calibrate_ms_p99", "ms", Better::Lower),
    layer("calibration.candidates", "count", Better::Lower),
    layer("calibration.anchor_yield", "share", Better::Higher),
    layer("geo.nodes_visited", "count", Better::Lower),
    layer("mapmatch.match_ms_p50", "ms", Better::Lower),
    layer("mapmatch.match_ms_p99", "ms", Better::Lower),
    layer("mapmatch.points", "count", Better::Lower),
    layer("mapmatch.matched_share", "share", Better::Higher),
    layer("core.extract_self_ms", "ms", Better::Lower),
    layer("core.summarize_prepared_us", "us", Better::Lower),
    layer("core.partition_us", "us", Better::Lower),
    layer("routes.popular_route_us", "us", Better::Lower),
    layer("routes.popular_route_hit_share", "share", Better::Higher),
    layer("routes.popular_build_ms", "ms", Better::Lower),
    layer("cache.hit_rate", "share", Better::Higher),
    layer("cache.cold_hit_rate", "share", Better::Higher),
    layer("exec.parallel_efficiency", "share", Better::Higher),
    layer("server.overhead_us", "us", Better::Lower),
    layer("server.connect_us", "us", Better::Lower),
    layer("server.cpu_busy_share", "share", Better::Lower),
    layer("server.rejected", "count", Better::Lower),
    layer("obs.recorder_overhead_pct", "%", Better::Lower),
    layer("pipeline.trip_ms_p50", "ms", Better::Lower),
    layer("pipeline.trip_ms_p99", "ms", Better::Lower),
    layer("pipeline.calibrate_match_share", "share", Better::Lower),
    layer("trace_overhead.setup_s", "%", Better::Lower),
    layer("trace_overhead.trip_ms", "%", Better::Lower),
    layer("trace_overhead.peak_rss_mb", "%", Better::Lower),
];

/// Whether `name` is a workload of this benchmark.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}
