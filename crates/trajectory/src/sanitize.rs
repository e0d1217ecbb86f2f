//! Ingest hardening: audit and repair raw GPS point streams.
//!
//! The paper assumes clean `(lat, lon, t)` input (Definition 1, Table I);
//! production feeds do not cooperate. Real GPS uploads contain non-finite
//! coordinates (receiver glitches serialized as NaN), duplicated and
//! out-of-order timestamps (retransmits, clock steps), and teleport spikes
//! (multipath fixes kilometres off the route). Any of these used to panic
//! the pipeline or silently poison feature values; this module quarantines
//! them *before* a [`RawTrajectory`](crate::RawTrajectory) ever exists.
//!
//! The defect taxonomy:
//!
//! | defect | detection | Strict | Repair | DropBad |
//! |---|---|---|---|---|
//! | non-finite coordinate | `!lat.is_finite()` etc. | error | drop point | drop point |
//! | out-of-range coordinate | `\|lat\| > 90`, `\|lon\| > 180` | error | drop point | drop point |
//! | out-of-order timestamp | `t < running max t` | error | stable re-sort by `t` | drop late point |
//! | duplicate timestamp | consecutive equal `t` | error | keep first | keep first |
//! | teleport spike | hop speed over [`SanitizeConfig::max_speed_mps`] | error | split segment | split segment |
//! | long time gap | hop `dt` over [`SanitizeConfig::max_gap_secs`] | allowed | split segment | split segment |
//! | too few points | `< 2` samples (whole input or a split product) | error | drop segment | drop segment |
//!
//! [`sanitize`] returns the surviving point runs as separate segments
//! (splitting is how a teleport spike or a multi-hour parking gap is
//! neutralised without inventing data) plus a [`SanitizeReport`] counting
//! every repair, which can be [`SanitizeReport::record_into`] any
//! `stmaker-obs` recorder for fleet-level telemetry.

use crate::raw::RawPoint;
use stmaker_obs::Recorder;

/// Why a point buffer is not (or could not be made into) a valid trajectory.
///
/// Returned by the fallible constructors
/// ([`RawTrajectory::try_new`](crate::RawTrajectory::try_new),
/// [`RawView::try_new`](crate::RawView::try_new)) for the structural
/// defects, and by [`sanitize`] under [`SanitizePolicy::Strict`] for the
/// full taxonomy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrajectoryError {
    /// Fewer than two samples: no segment, no duration, nothing to describe.
    TooFewPoints {
        /// Number of samples supplied.
        got: usize,
    },
    /// A coordinate is NaN or ±infinity.
    NonFiniteCoordinate {
        /// Index of the offending sample.
        index: usize,
    },
    /// A coordinate is finite but outside `[-90, 90]` × `[-180, 180]`.
    OutOfRangeCoordinate {
        /// Index of the offending sample.
        index: usize,
        /// The latitude found.
        lat: f64,
        /// The longitude found.
        lon: f64,
    },
    /// A timestamp decreases relative to an earlier sample.
    OutOfOrderTimestamp {
        /// Index of the late sample.
        index: usize,
        /// The largest timestamp seen before it, seconds.
        prev_t: i64,
        /// The late sample's timestamp, seconds.
        got_t: i64,
    },
    /// Two samples share a timestamp (zero-duration hop). Only reported by
    /// [`sanitize`] under [`SanitizePolicy::Strict`]; repeated timestamps
    /// are otherwise legal in a [`RawTrajectory`](crate::RawTrajectory).
    DuplicateTimestamp {
        /// Index of the repeating sample.
        index: usize,
        /// The repeated timestamp, seconds.
        t: i64,
    },
    /// A hop implies an implausible speed (GPS teleport). Only reported by
    /// [`sanitize`] under [`SanitizePolicy::Strict`].
    Teleport {
        /// Index of the sample the spike lands on.
        index: usize,
        /// The implied speed, metres per second.
        speed_mps: f64,
        /// The configured gate, metres per second.
        limit_mps: f64,
    },
}

impl std::fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrajectoryError::TooFewPoints { got } => {
                write!(f, "a trajectory needs at least two samples, got {got}")
            }
            TrajectoryError::NonFiniteCoordinate { index } => {
                write!(f, "sample {index} has a non-finite coordinate")
            }
            TrajectoryError::OutOfRangeCoordinate { index, lat, lon } => {
                write!(f, "sample {index} is out of range: lat {lat}, lon {lon}")
            }
            TrajectoryError::OutOfOrderTimestamp { index, prev_t, got_t } => {
                write!(
                    f,
                    "timestamps must be non-decreasing: sample {index} at t={got_t} \
                     follows t={prev_t}"
                )
            }
            TrajectoryError::DuplicateTimestamp { index, t } => {
                write!(f, "sample {index} repeats timestamp t={t}")
            }
            TrajectoryError::Teleport { index, speed_mps, limit_mps } => {
                write!(
                    f,
                    "sample {index} implies {speed_mps:.0} m/s, over the {limit_mps:.0} m/s \
                     teleport gate"
                )
            }
        }
    }
}

impl std::error::Error for TrajectoryError {}

/// What to do with a defective input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizePolicy {
    /// Reject on the first defect with a typed [`TrajectoryError`]. Use at
    /// trusted boundaries where a defect means an upstream bug.
    Strict,
    /// Fix what can be fixed without inventing data: re-sort out-of-order
    /// samples, drop non-finite/duplicate points, split on teleports and
    /// gaps. The default for untrusted feeds.
    #[default]
    Repair,
    /// Like [`SanitizePolicy::Repair`] but never reorders: late samples are
    /// dropped instead of re-sorted. Use when sample order carries meaning
    /// (e.g. sequence numbers from a device under test).
    DropBad,
}

impl std::str::FromStr for SanitizePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "strict" => Ok(SanitizePolicy::Strict),
            "repair" => Ok(SanitizePolicy::Repair),
            "drop" | "dropbad" | "drop-bad" => Ok(SanitizePolicy::DropBad),
            other => Err(format!("unknown sanitize policy {other:?} (strict|repair|drop-bad)")),
        }
    }
}

impl std::fmt::Display for SanitizePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SanitizePolicy::Strict => "strict",
            SanitizePolicy::Repair => "repair",
            SanitizePolicy::DropBad => "drop-bad",
        })
    }
}

/// Tunables for [`sanitize`].
#[derive(Debug, Clone, Copy)]
pub struct SanitizeConfig {
    /// How defects are handled.
    pub policy: SanitizePolicy,
    /// Hops faster than this are teleports, metres per second. `70` (252
    /// km/h) comfortably clears any road vehicle while catching multipath
    /// jumps. Non-positive or non-finite disables the gate.
    pub max_speed_mps: f64,
    /// Hops longer than this split the stream into separate trips, seconds
    /// (the device parked, lost power, or left coverage). Non-positive
    /// disables gap splitting.
    pub max_gap_secs: i64,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        Self { policy: SanitizePolicy::Repair, max_speed_mps: 70.0, max_gap_secs: 1800 }
    }
}

impl SanitizeConfig {
    /// The default gates under `policy`.
    #[must_use]
    pub fn with_policy(policy: SanitizePolicy) -> Self {
        Self { policy, ..Self::default() }
    }
}

/// Counts per defect class from one [`sanitize`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Samples supplied.
    pub points_in: usize,
    /// Samples surviving into the output segments.
    pub points_out: usize,
    /// Output segments (0 when nothing survived).
    pub segments_out: usize,
    /// Samples dropped for NaN/±inf coordinates.
    pub non_finite: usize,
    /// Samples dropped for finite but out-of-range coordinates.
    pub out_of_range: usize,
    /// Samples observed behind the running timestamp maximum (re-sorted
    /// under Repair, dropped under DropBad).
    pub out_of_order: usize,
    /// Samples dropped for repeating the previous timestamp.
    pub duplicate_t: usize,
    /// Segment splits forced by the teleport speed gate.
    pub teleports: usize,
    /// Segment splits forced by long time gaps.
    pub gap_splits: usize,
    /// Split products dropped for having fewer than two samples.
    pub short_segments_dropped: usize,
}

impl SanitizeReport {
    /// Total defective samples/hops (gap splits are not defects — a parked
    /// car is not an error — but they do appear in [`std::fmt::Display`]).
    pub fn defects(&self) -> usize {
        self.non_finite + self.out_of_range + self.out_of_order + self.duplicate_t + self.teleports
    }

    /// Whether the input needed no repair at all.
    pub fn is_clean(&self) -> bool {
        self.defects() == 0 && self.gap_splits == 0 && self.short_segments_dropped == 0
    }

    /// Accumulates the counts into `obs` under the `sanitize.*` namespace,
    /// so fleet ingest dashboards see per-defect-class rates.
    pub fn record_into(&self, obs: &Recorder) {
        // cast-ok below: sample counts.
        obs.add("sanitize.points_in", self.points_in as u64);
        obs.add("sanitize.points_out", self.points_out as u64);
        obs.add("sanitize.segments_out", self.segments_out as u64);
        for (name, n) in [
            ("sanitize.non_finite", self.non_finite),
            ("sanitize.out_of_range", self.out_of_range),
            ("sanitize.out_of_order", self.out_of_order),
            ("sanitize.duplicate_t", self.duplicate_t),
            ("sanitize.teleports", self.teleports),
            ("sanitize.gap_splits", self.gap_splits),
            ("sanitize.short_segments_dropped", self.short_segments_dropped),
        ] {
            if n > 0 {
                obs.add(name, n as u64); // cast-ok: defect count
            }
        }
    }
}

impl std::fmt::Display for SanitizeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sanitize: {} defect(s) in {} point(s) -> {} point(s) in {} segment(s) \
             [non-finite {}, out-of-range {}, out-of-order {}, duplicate-t {}, \
             teleports {}, gap-splits {}, short-dropped {}]",
            self.defects(),
            self.points_in,
            self.points_out,
            self.segments_out,
            self.non_finite,
            self.out_of_range,
            self.out_of_order,
            self.duplicate_t,
            self.teleports,
            self.gap_splits,
            self.short_segments_dropped,
        )
    }
}

/// The outcome of a successful [`sanitize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sanitized {
    /// The surviving point runs, each individually a valid trajectory
    /// (≥ 2 samples, finite in-range coordinates, non-decreasing unique
    /// timestamps, no hop over the speed gate). Ordered as encountered.
    pub segments: Vec<Vec<RawPoint>>,
    /// Counts per defect class.
    pub report: SanitizeReport,
}

impl Sanitized {
    /// The longest surviving segment — the usual choice when a caller wants
    /// "the trip" out of a noisy upload.
    pub fn longest(&self) -> Option<&[RawPoint]> {
        self.segments.iter().max_by_key(|s| s.len()).map(|s| s.as_slice())
    }
}

/// Audits (and under Repair/DropBad, repairs) a raw point stream.
///
/// Under [`SanitizePolicy::Strict`] the first defect returns its typed
/// [`TrajectoryError`] and a clean input comes back as one segment. Under
/// the lenient policies the function never errors: defective points are
/// dropped or reordered, teleports and long gaps split the stream, and
/// split products with fewer than two samples are discarded — so every
/// returned segment is accepted by [`RawView::try_new`](crate::RawView::try_new).
pub fn sanitize(points: &[RawPoint], cfg: &SanitizeConfig) -> Result<Sanitized, TrajectoryError> {
    let strict = cfg.policy == SanitizePolicy::Strict;
    let mut report = SanitizeReport { points_in: points.len(), ..SanitizeReport::default() };

    if strict && points.len() < 2 {
        return Err(TrajectoryError::TooFewPoints { got: points.len() });
    }

    // Pass 1 — per-point validity, preserving original indices for error
    // reporting.
    let mut kept: Vec<(usize, RawPoint)> = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        if !p.point.lat.is_finite() || !p.point.lon.is_finite() {
            if strict {
                return Err(TrajectoryError::NonFiniteCoordinate { index: i });
            }
            report.non_finite += 1;
            continue;
        }
        if !(-90.0..=90.0).contains(&p.point.lat) || !(-180.0..=180.0).contains(&p.point.lon) {
            if strict {
                return Err(TrajectoryError::OutOfRangeCoordinate {
                    index: i,
                    lat: p.point.lat,
                    lon: p.point.lon,
                });
            }
            report.out_of_range += 1;
            continue;
        }
        kept.push((i, *p));
    }

    // Pass 2 — temporal ordering. Count samples observed behind the running
    // maximum, then repair per policy.
    let mut max_t = i64::MIN;
    for (i, p) in &kept {
        if p.t.0 < max_t {
            if strict {
                return Err(TrajectoryError::OutOfOrderTimestamp {
                    index: *i,
                    prev_t: max_t,
                    got_t: p.t.0,
                });
            }
            report.out_of_order += 1;
        } else {
            max_t = p.t.0;
        }
    }
    if report.out_of_order > 0 {
        match cfg.policy {
            // Stable by-timestamp sort: same-t samples keep arrival order,
            // so the later duplicate pass is deterministic.
            SanitizePolicy::Repair => kept.sort_by(|a, b| a.1.t.cmp(&b.1.t)),
            SanitizePolicy::DropBad => {
                let mut max_t = i64::MIN;
                kept.retain(|(_, p)| {
                    let ok = p.t.0 >= max_t;
                    if ok {
                        max_t = p.t.0;
                    }
                    ok
                });
            }
            SanitizePolicy::Strict => {} // unreachable: strict returned above
        }
    }

    // Pass 3 — duplicate timestamps: keep the first sample of each run.
    // Zero-duration hops otherwise feed division-hazard dt=0 into speed
    // features and defeat the teleport gate below.
    let mut dedup: Vec<(usize, RawPoint)> = Vec::with_capacity(kept.len());
    for (i, p) in kept {
        if let Some((_, last)) = dedup.last() {
            if last.t == p.t {
                if strict {
                    return Err(TrajectoryError::DuplicateTimestamp { index: i, t: p.t.0 });
                }
                report.duplicate_t += 1;
                continue;
            }
        }
        dedup.push((i, p));
    }

    // Pass 4 — teleport gate and gap splitting. A lone spike point becomes
    // its own 1-sample segment (split on the way in *and* out) and is then
    // discarded by the short-segment filter: outlier removal by splitting,
    // never by inventing replacement fixes.
    let speed_gated = cfg.max_speed_mps > 0.0 && cfg.max_speed_mps.is_finite();
    let gap_gated = cfg.max_gap_secs > 0;
    let mut segments: Vec<Vec<RawPoint>> = Vec::new();
    let mut cur: Vec<RawPoint> = Vec::new();
    let mut close = |cur: &mut Vec<RawPoint>, report: &mut SanitizeReport| {
        if cur.len() >= 2 {
            segments.push(std::mem::take(cur));
        } else {
            if !cur.is_empty() {
                report.short_segments_dropped += 1;
            }
            cur.clear();
        }
    };
    let mut prev: Option<(usize, RawPoint)> = None;
    for (i, p) in dedup {
        if let Some((_, a)) = prev {
            let dt = a.t.delta_secs(&p.t); // > 0 after the duplicate pass
            let dist = a.point.haversine_m(&p.point);
            let speed = dist / dt as f64;
            if speed_gated && speed > cfg.max_speed_mps {
                if strict {
                    return Err(TrajectoryError::Teleport {
                        index: i,
                        speed_mps: speed,
                        limit_mps: cfg.max_speed_mps,
                    });
                }
                report.teleports += 1;
                close(&mut cur, &mut report);
            } else if !strict && gap_gated && dt > cfg.max_gap_secs {
                report.gap_splits += 1;
                close(&mut cur, &mut report);
            }
        }
        cur.push(p);
        prev = Some((i, p));
    }
    close(&mut cur, &mut report);

    report.points_out = segments.iter().map(Vec::len).sum();
    report.segments_out = segments.len();
    Ok(Sanitized { segments, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{RawView, Timestamp};
    use stmaker_geo::GeoPoint;

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    /// One point every 10 s, 100 m apart (36 km/h — well under the gate).
    fn clean(n: usize) -> Vec<RawPoint> {
        (0..n)
            .map(|i| RawPoint {
                point: base().destination(90.0, 100.0 * i as f64),
                t: Timestamp(10 * i as i64),
            })
            .collect()
    }

    fn repair() -> SanitizeConfig {
        SanitizeConfig::default()
    }

    fn strict() -> SanitizeConfig {
        SanitizeConfig::with_policy(SanitizePolicy::Strict)
    }

    #[test]
    fn clean_input_passes_every_policy_untouched() {
        let pts = clean(10);
        for policy in [SanitizePolicy::Strict, SanitizePolicy::Repair, SanitizePolicy::DropBad] {
            let out = sanitize(&pts, &SanitizeConfig::with_policy(policy)).expect("clean");
            assert!(out.report.is_clean(), "{policy}: {}", out.report);
            assert_eq!(out.segments, vec![pts.clone()], "{policy}");
            assert_eq!(out.report.points_out, 10);
            assert_eq!(out.report.segments_out, 1);
        }
    }

    #[test]
    fn strict_rejects_every_defect_class_with_typed_errors() {
        // NaN coordinate.
        let mut pts = clean(5);
        pts[2].point.lat = f64::NAN;
        assert_eq!(
            sanitize(&pts, &strict()).unwrap_err(),
            TrajectoryError::NonFiniteCoordinate { index: 2 }
        );
        // Out-of-range coordinate.
        let mut pts = clean(5);
        pts[3].point.lon = 231.0;
        assert!(matches!(
            sanitize(&pts, &strict()).unwrap_err(),
            TrajectoryError::OutOfRangeCoordinate { index: 3, .. }
        ));
        // Out-of-order timestamp.
        let mut pts = clean(5);
        pts.swap(1, 3);
        assert!(matches!(
            sanitize(&pts, &strict()).unwrap_err(),
            TrajectoryError::OutOfOrderTimestamp { .. }
        ));
        // Duplicate timestamp.
        let mut pts = clean(5);
        pts[2].t = pts[1].t;
        assert_eq!(
            sanitize(&pts, &strict()).unwrap_err(),
            TrajectoryError::DuplicateTimestamp { index: 2, t: pts[1].t.0 }
        );
        // Teleport spike.
        let mut pts = clean(5);
        pts[2].point = base().destination(0.0, 50_000.0);
        assert!(matches!(sanitize(&pts, &strict()).unwrap_err(), TrajectoryError::Teleport { .. }));
        // Too few points.
        assert_eq!(
            sanitize(&clean(1), &strict()).unwrap_err(),
            TrajectoryError::TooFewPoints { got: 1 }
        );
    }

    #[test]
    fn repair_drops_non_finite_and_out_of_range_points() {
        let mut pts = clean(6);
        pts[1].point.lat = f64::NAN;
        pts[4].point.lon = -191.0;
        let out = sanitize(&pts, &repair()).expect("repairable");
        assert_eq!(out.report.non_finite, 1);
        assert_eq!(out.report.out_of_range, 1);
        assert_eq!(out.report.points_out, 4);
        assert_eq!(out.segments.len(), 1);
        RawView::try_new(&out.segments[0]).expect("repaired segment is valid");
        // A single bad point out of eight leaves one 7-sample segment.
        let mut pts = clean(8);
        pts[2].point.lat = f64::NAN;
        let out = sanitize(&pts, &repair()).expect("repairable");
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.segments[0].len(), 7);
        assert_eq!(out.report.points_out, 7);
        RawView::try_new(&out.segments[0]).expect("repaired segment is valid");
    }

    #[test]
    fn repair_reorders_but_dropbad_drops_late_samples() {
        let mut pts = clean(6);
        pts.swap(2, 4); // two inversions relative to the running max
        let repaired = sanitize(&pts, &repair()).expect("repairable");
        assert!(repaired.report.out_of_order > 0);
        assert_eq!(repaired.segments, vec![clean(6)], "repair restores the original order");

        let dropped = sanitize(&pts, &SanitizeConfig::with_policy(SanitizePolicy::DropBad))
            .expect("droppable");
        assert!(dropped.report.out_of_order > 0);
        assert_eq!(dropped.report.points_out + dropped.report.out_of_order, 6);
        // Never reordered: surviving timestamps strictly increase in arrival
        // order.
        for seg in &dropped.segments {
            assert!(seg.windows(2).all(|w| w[0].t < w[1].t));
        }
    }

    #[test]
    fn repair_dedupes_equal_timestamps_keeping_first() {
        let mut pts = clean(5);
        pts[2].t = pts[1].t; // same t, different place
        let out = sanitize(&pts, &repair()).expect("repairable");
        assert_eq!(out.report.duplicate_t, 1);
        let seg = &out.segments[0];
        assert!(seg.windows(2).all(|w| w[0].t < w[1].t), "unique timestamps after dedupe");
        assert_eq!(seg[1].point, pts[1].point, "first of the duplicate run wins");
    }

    #[test]
    fn teleport_spike_is_amputated_by_splitting() {
        let mut pts = clean(9);
        pts[4].point = base().destination(0.0, 80_000.0); // 80 km off-route
        let out = sanitize(&pts, &repair()).expect("repairable");
        assert_eq!(out.report.teleports, 2, "split on the way in and out of the spike");
        assert_eq!(out.report.short_segments_dropped, 1, "the lone spike point is discarded");
        assert_eq!(out.segments.len(), 2);
        for seg in &out.segments {
            let v = RawView::try_new(seg).expect("valid");
            // No residual teleport hop inside any segment.
            for w in v.points().windows(2) {
                let dt = w[0].t.delta_secs(&w[1].t) as f64;
                assert!(w[0].point.haversine_m(&w[1].point) / dt <= 70.0);
            }
        }
        assert_eq!(out.longest().map(<[RawPoint]>::len), Some(4));
    }

    #[test]
    fn long_gap_splits_into_separate_trips() {
        let mut pts = clean(4);
        let mut second: Vec<RawPoint> = clean(4)
            .into_iter()
            .map(|mut p| {
                p.t = Timestamp(p.t.0 + 10_000); // 10 000 s later, same place
                p
            })
            .collect();
        pts.append(&mut second);
        let out = sanitize(&pts, &repair()).expect("repairable");
        assert_eq!(out.report.gap_splits, 1);
        assert_eq!(out.segments.len(), 2);
        assert_eq!(out.report.points_out, 8);
        // Strict treats a parked car as legal: same input, no error.
        let strict_out = sanitize(&pts, &strict()).expect("gaps are not defects");
        assert_eq!(strict_out.segments.len(), 1);
    }

    #[test]
    fn lenient_policies_never_error_even_on_garbage() {
        let mut pts = clean(3);
        pts[0].point.lat = f64::INFINITY;
        pts[1].point.lon = 500.0;
        pts[2].point.lat = f64::NAN;
        for policy in [SanitizePolicy::Repair, SanitizePolicy::DropBad] {
            let out = sanitize(&pts, &SanitizeConfig::with_policy(policy)).expect("never errors");
            assert!(out.segments.is_empty());
            assert_eq!(out.report.points_out, 0);
            assert_eq!(out.report.segments_out, 0);
        }
        // Empty input, ditto.
        let out = sanitize(&[], &repair()).expect("empty is not an error when repairing");
        assert!(out.segments.is_empty());
    }

    #[test]
    fn report_renders_and_records_into_obs() {
        let mut pts = clean(6);
        pts[1].point.lat = f64::NAN;
        pts[3].t = pts[2].t;
        let out = sanitize(&pts, &repair()).expect("repairable");
        assert_eq!(out.report.defects(), 2);
        let line = out.report.to_string();
        assert!(line.contains("2 defect(s)"), "{line}");
        assert!(line.contains("non-finite 1"), "{line}");
        assert!(line.contains("duplicate-t 1"), "{line}");

        let obs = Recorder::enabled();
        out.report.record_into(&obs);
        let report = obs.report();
        assert_eq!(report.counters.get("sanitize.points_in"), Some(&6));
        assert_eq!(report.counters.get("sanitize.non_finite"), Some(&1));
        assert_eq!(report.counters.get("sanitize.duplicate_t"), Some(&1));
        assert_eq!(report.counters.get("sanitize.out_of_range"), None, "zero counts stay absent");
    }

    #[test]
    fn policy_parses_from_cli_spellings() {
        for (s, want) in [
            ("strict", SanitizePolicy::Strict),
            ("Repair", SanitizePolicy::Repair),
            ("drop", SanitizePolicy::DropBad),
            ("drop-bad", SanitizePolicy::DropBad),
            ("dropbad", SanitizePolicy::DropBad),
        ] {
            assert_eq!(s.parse::<SanitizePolicy>(), Ok(want), "{s}");
        }
        assert!("fix-everything".parse::<SanitizePolicy>().is_err());
    }
}
