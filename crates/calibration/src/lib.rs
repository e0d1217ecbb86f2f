//! Anchor-based trajectory calibration: raw → symbolic.
//!
//! Sec. II-A of the paper: raw trajectories "are not directly usable for
//! summarization" because different sampling strategies over the same route
//! produce very different point sequences (the paper's Fig. 2). The fix —
//! taken from the authors' earlier SIGMOD'13 work \[31\] — is to rewrite each
//! raw trajectory onto a stable, trajectory-independent set of anchor points
//! (the landmarks), yielding a [`SymbolicTrajectory`].
//!
//! The geometric procedure implemented here:
//!
//! 1. collect candidate landmarks within [`CalibrationParams::radius_m`] of
//!    the raw polyline (one corridor query against the registry's R-tree);
//! 2. project each candidate onto the polyline and keep those whose
//!    projection distance is within the radius;
//! 3. order accepted landmarks by arc length along the polyline and assign
//!    each the linearly interpolated timestamp at its projection;
//! 4. collapse consecutive duplicates and landmarks that project onto
//!    (nearly) the same spot.
//!
//! Because steps 1–4 depend only on the *shape* of the polyline, two raw
//! trajectories sampled differently from the same route calibrate to the
//! same symbolic trajectory — the invariance the paper needs, which our
//! property tests assert.

use stmaker_geo::{LocalFrame, SpatialStats};
use stmaker_poi::{LandmarkId, LandmarkRegistry};
use stmaker_trajectory::{RawTrajectory, RawView, SymbolicPoint, SymbolicTrajectory, Timestamp};

/// Tunables for calibration.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationParams {
    /// A landmark anchors the trajectory if its distance to the polyline is
    /// at most this, metres.
    pub radius_m: f64,
    /// Landmarks projecting within this arc-length distance of one another
    /// are duplicates; the geometrically closer one wins. Metres.
    pub min_spacing_m: f64,
    /// When duplicate anchors' projection distances differ by less than
    /// this (i.e. within GPS noise), the more *significant* landmark wins
    /// instead — people anchor descriptions at the Times Square, not at the
    /// equally-near unnamed crossing (cf. the paper's Sec. IV discussion).
    /// Metres.
    pub tie_margin_m: f64,
}

impl Default for CalibrationParams {
    fn default() -> Self {
        Self { radius_m: 120.0, min_spacing_m: 60.0, tie_margin_m: 20.0 }
    }
}

impl CalibrationParams {
    /// Checks the tunables: the radius must be positive and finite, the
    /// spacing and tie margin non-negative and finite. NaN fails every
    /// comparison, so each check catches it too.
    pub fn validate(&self) -> Result<(), CalibrationError> {
        if !(self.radius_m > 0.0) || !self.radius_m.is_finite() {
            return Err(CalibrationError::InvalidParams("radius_m must be positive and finite"));
        }
        if !(self.min_spacing_m >= 0.0) || !self.min_spacing_m.is_finite() {
            return Err(CalibrationError::InvalidParams(
                "min_spacing_m must be non-negative and finite",
            ));
        }
        if !(self.tie_margin_m >= 0.0) || !self.tie_margin_m.is_finite() {
            return Err(CalibrationError::InvalidParams(
                "tie_margin_m must be non-negative and finite",
            ));
        }
        Ok(())
    }
}

/// Why calibration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrationError {
    /// Fewer than two landmarks anchor the trajectory; no symbolic form
    /// exists. Carries the number found.
    TooFewLandmarks(usize),
    /// The [`CalibrationParams`] are unusable; carries which constraint
    /// failed.
    InvalidParams(&'static str),
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::TooFewLandmarks(n) => {
                write!(f, "only {n} landmark(s) within calibration radius; need at least 2")
            }
            CalibrationError::InvalidParams(what) => {
                write!(f, "invalid calibration params: {what}")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// An accepted anchor before timestamping (exposed for diagnostics/tests).
#[derive(Debug, Clone, Copy)]
struct Anchor {
    landmark: LandmarkId,
    arc_m: f64,
    distance_m: f64,
}

/// Calibrates a raw trajectory onto the landmark registry.
pub fn calibrate(
    raw: &RawTrajectory,
    registry: &LandmarkRegistry,
    params: CalibrationParams,
) -> Result<SymbolicTrajectory, CalibrationError> {
    calibrate_view(raw.view(), registry, params)
}

/// [`calibrate`] over a borrowed sample buffer (zero-copy entry point used
/// by streaming and batch callers).
pub fn calibrate_view(
    raw: RawView<'_>,
    registry: &LandmarkRegistry,
    params: CalibrationParams,
) -> Result<SymbolicTrajectory, CalibrationError> {
    let mut stats = SpatialStats::default();
    calibrate_view_traced(raw, registry, params, &mut stats)
}

/// [`calibrate_view`] that also accumulates spatial index work counters
/// (`spatial.*` obs metrics) into `stats`.
pub fn calibrate_view_traced(
    raw: RawView<'_>,
    registry: &LandmarkRegistry,
    params: CalibrationParams,
    stats: &mut SpatialStats,
) -> Result<SymbolicTrajectory, CalibrationError> {
    params.validate()?;
    let poly = raw.polyline();
    let frame = LocalFrame::new(raw.start().point);

    // 1. Candidate collection: sample the polyline densely enough that no
    //    landmark within `radius_m` of the route can be missed, then ask the
    //    registry for everything within the corridor in one query (the R-tree
    //    walks one padded rect per chunk of probes).
    let probe = poly.resample(params.radius_m.max(1.0));
    let mut candidates: Vec<LandmarkId> = Vec::new();
    registry.candidates_along(probe.points(), params.radius_m * 1.5, &mut candidates, stats);

    // 2–3. Precise projection filter + arc ordering.
    let mut anchors: Vec<Anchor> = candidates
        .into_iter()
        .filter_map(|id| {
            let proj = poly.project(&frame, &registry.get(id).point);
            (proj.distance_m <= params.radius_m).then_some(Anchor {
                landmark: id,
                arc_m: proj.arc_m,
                distance_m: proj.distance_m,
            })
        })
        .collect();
    // total_cmp: projections of finite points are finite, but a total order
    // keeps the sort deterministic (NaN last) instead of panicking if an
    // upstream geometry bug ever produces one.
    anchors.sort_by(|a, b| {
        a.arc_m
            .total_cmp(&b.arc_m)
            .then(a.distance_m.total_cmp(&b.distance_m))
            .then(a.landmark.cmp(&b.landmark))
    });

    // 4. Spacing-based dedup: within a `min_spacing_m` run, keep the
    //    closest; distance ties within `tie_margin_m` resolve towards the
    //    more significant landmark.
    let better = |a: &Anchor, b: &Anchor| -> bool {
        if (a.distance_m - b.distance_m).abs() <= params.tie_margin_m {
            let sa = registry.get(a.landmark).significance;
            let sb = registry.get(b.landmark).significance;
            sa > sb || (sa == sb && a.distance_m < b.distance_m)
        } else {
            a.distance_m < b.distance_m
        }
    };
    // Each dedup run is anchored at the arc of its *first* anchor, so which
    // candidate wins within the run cannot stretch the run's reach.
    let mut kept: Vec<Anchor> = Vec::with_capacity(anchors.len());
    let mut run_start_arc = f64::NEG_INFINITY;
    for a in anchors {
        // Within a run there is always a kept representative (the run opener
        // pushed one); the `if let` keeps that invariant panic-free.
        if let Some(last) =
            kept.last_mut().filter(|_| a.arc_m - run_start_arc < params.min_spacing_m)
        {
            if better(&a, last) {
                *last = a;
            }
        } else {
            run_start_arc = a.arc_m;
            kept.push(a);
        }
    }
    // Collapse consecutive repeats of the same landmark (possible when a
    // noisy route wiggles around one anchor).
    kept.dedup_by_key(|a| a.landmark);

    if kept.len() < 2 {
        return Err(CalibrationError::TooFewLandmarks(kept.len()));
    }

    // Timestamp each anchor by interpolating time at its arc position.
    let times = arc_to_time_table(raw);
    let mut points: Vec<SymbolicPoint> = kept
        .iter()
        .map(|a| SymbolicPoint { landmark: a.landmark, t: time_at_arc(&times, a.arc_m) })
        .collect();
    // Arc ordering guarantees non-decreasing times up to floating error;
    // clamp defensively so SymbolicTrajectory's invariant always holds.
    for i in 1..points.len() {
        if points[i].t < points[i - 1].t {
            points[i].t = points[i - 1].t;
        }
    }
    Ok(SymbolicTrajectory::new(points))
}

/// Cumulative `(arc_m, timestamp)` pairs per raw sample.
fn arc_to_time_table(raw: RawView<'_>) -> Vec<(f64, Timestamp)> {
    let mut out = Vec::with_capacity(raw.len());
    let mut acc = 0.0;
    let pts = raw.points();
    out.push((0.0, pts[0].t));
    for w in pts.windows(2) {
        acc += w[0].point.haversine_m(&w[1].point);
        out.push((acc, w[1].t));
    }
    out
}

/// Linearly interpolated timestamp at arc position `arc_m`.
fn time_at_arc(table: &[(f64, Timestamp)], arc_m: f64) -> Timestamp {
    if arc_m <= 0.0 {
        return table[0].1;
    }
    let last = table[table.len() - 1];
    if arc_m >= last.0 {
        return last.1;
    }
    let i = table.partition_point(|(a, _)| *a <= arc_m) - 1;
    let (a0, t0) = table[i];
    let (a1, t1) = table[i + 1];
    let span = a1 - a0;
    if span <= 0.0 {
        return t0;
    }
    let frac = (arc_m - a0) / span;
    Timestamp(t0.0 + ((t1.0 - t0.0) as f64 * frac).round() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmaker_geo::GeoPoint;
    use stmaker_poi::{Landmark, LandmarkKind};
    use stmaker_trajectory::RawPoint;

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    fn lm(point: GeoPoint, name: &str) -> Landmark {
        Landmark {
            id: LandmarkId(0), // reassigned by from_landmarks
            point,
            name: name.into(),
            kind: LandmarkKind::TurningPoint,
            significance: 0.5,
        }
    }

    /// Landmarks every 500 m along an east route, plus one far-away decoy.
    fn registry_along_route() -> LandmarkRegistry {
        let mut lms: Vec<Landmark> = (0..5)
            .map(|i| {
                lm(
                    base().destination(90.0, 500.0 * i as f64).destination(0.0, 20.0),
                    &format!("L{i}"),
                )
            })
            .collect();
        lms.push(lm(base().destination(0.0, 5_000.0), "FarAway"));
        LandmarkRegistry::from_landmarks(lms)
    }

    fn east_trajectory(step_m: f64, total_m: f64, secs_per_step: i64) -> RawTrajectory {
        let n = (total_m / step_m) as usize;
        RawTrajectory::new(
            (0..=n)
                .map(|i| RawPoint {
                    point: base().destination(90.0, step_m * i as f64),
                    t: Timestamp(secs_per_step * i as i64),
                })
                .collect(),
        )
    }

    #[test]
    fn params_validation_is_fallible() {
        assert!(CalibrationParams::default().validate().is_ok());
        let bad = CalibrationParams { radius_m: 0.0, ..CalibrationParams::default() };
        assert_eq!(
            bad.validate(),
            Err(CalibrationError::InvalidParams("radius_m must be positive and finite"))
        );
        let bad = CalibrationParams { radius_m: f64::NAN, ..CalibrationParams::default() };
        assert!(bad.validate().is_err(), "NaN radius must fail");
        let bad = CalibrationParams { min_spacing_m: -1.0, ..CalibrationParams::default() };
        assert!(bad.validate().is_err());
        let bad = CalibrationParams { tie_margin_m: f64::INFINITY, ..CalibrationParams::default() };
        assert!(bad.validate().is_err());
        // calibrate_view surfaces the same error instead of asserting.
        let raw = east_trajectory(100.0, 2_000.0, 10);
        let registry = registry_along_route();
        let bad = CalibrationParams { radius_m: -5.0, ..CalibrationParams::default() };
        assert!(matches!(calibrate(&raw, &registry, bad), Err(CalibrationError::InvalidParams(_))));
    }

    #[test]
    fn nan_anchor_sorts_last_without_panic() {
        // Regression: the anchor ordering used `partial_cmp(..).unwrap()` and
        // panicked on NaN. total_cmp must keep it total, with the NaN entry
        // deterministically last.
        let a = |id: u32, arc_m: f64, distance_m: f64| Anchor {
            landmark: LandmarkId(id),
            arc_m,
            distance_m,
        };
        let mut anchors =
            vec![a(0, 900.0, 3.0), a(1, f64::NAN, 1.0), a(2, 100.0, 2.0), a(3, 100.0, 1.0)];
        anchors.sort_by(|a, b| {
            a.arc_m
                .total_cmp(&b.arc_m)
                .then(a.distance_m.total_cmp(&b.distance_m))
                .then(a.landmark.cmp(&b.landmark))
        });
        let ids: Vec<u32> = anchors.iter().map(|a| a.landmark.0).collect();
        assert_eq!(ids, [3, 2, 0, 1], "NaN arc must sort last, ties by distance");
    }

    #[test]
    fn picks_up_landmarks_in_order() {
        let reg = registry_along_route();
        let raw = east_trajectory(100.0, 2000.0, 10);
        let sym = calibrate(&raw, &reg, CalibrationParams::default()).unwrap();
        assert_eq!(sym.size(), 5);
        let names: Vec<&str> =
            sym.points().iter().map(|p| reg.get(p.landmark).name.as_str()).collect();
        assert_eq!(names, vec!["L0", "L1", "L2", "L3", "L4"]);
        // Timestamps increase with arc position.
        assert!(sym.points().windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn far_landmark_excluded() {
        let reg = registry_along_route();
        let raw = east_trajectory(100.0, 2000.0, 10);
        let sym = calibrate(&raw, &reg, CalibrationParams::default()).unwrap();
        assert!(sym.points().iter().all(|p| reg.get(p.landmark).name != "FarAway"));
    }

    #[test]
    fn sampling_rate_invariance() {
        // The paper's Fig. 2 motivation: same route, different sampling
        // strategies, same symbolic trajectory.
        let reg = registry_along_route();
        let dense = east_trajectory(25.0, 2000.0, 2);
        let sparse = east_trajectory(250.0, 2000.0, 20);
        let s1 = calibrate(&dense, &reg, CalibrationParams::default()).unwrap();
        let s2 = calibrate(&sparse, &reg, CalibrationParams::default()).unwrap();
        assert_eq!(s1.landmark_seq(), s2.landmark_seq());
    }

    #[test]
    fn timestamps_reflect_travel_speed() {
        let reg = registry_along_route();
        // 100 m per 10 s → 500 m between landmarks ≈ 50 s.
        let raw = east_trajectory(100.0, 2000.0, 10);
        let sym = calibrate(&raw, &reg, CalibrationParams::default()).unwrap();
        let dt = sym.points()[0].t.delta_secs(&sym.points()[1].t);
        assert!((dt - 50).abs() <= 5, "dt = {dt}");
    }

    #[test]
    fn too_few_landmarks_is_an_error() {
        let reg = LandmarkRegistry::from_landmarks(vec![lm(base(), "only")]);
        let raw = east_trajectory(100.0, 1000.0, 10);
        match calibrate(&raw, &reg, CalibrationParams::default()) {
            Err(CalibrationError::TooFewLandmarks(n)) => assert_eq!(n, 1),
            other => panic!("expected TooFewLandmarks, got {other:?}"),
        }
    }

    #[test]
    fn near_duplicate_anchors_resolved_by_distance() {
        // Two landmarks projecting to nearly the same arc; the closer to the
        // route must win.
        let lms = vec![
            lm(base().destination(0.0, 15.0), "Near"),
            lm(base().destination(0.0, 90.0), "Farther"),
            lm(base().destination(90.0, 1000.0), "End"),
        ];
        let reg = LandmarkRegistry::from_landmarks(lms);
        let raw = east_trajectory(100.0, 1000.0, 10);
        let sym = calibrate(&raw, &reg, CalibrationParams::default()).unwrap();
        let names: Vec<&str> =
            sym.points().iter().map(|p| reg.get(p.landmark).name.as_str()).collect();
        assert_eq!(names, vec!["Near", "End"]);
    }

    #[test]
    fn gps_noise_does_not_change_sequence() {
        let reg = registry_along_route();
        // Deterministic "noise": alternate ±12 m lateral offsets.
        let n = 80;
        let pts: Vec<RawPoint> = (0..=n)
            .map(|i| {
                let along = base().destination(90.0, 25.0 * i as f64);
                let off: f64 = if i % 2 == 0 { 12.0 } else { -12.0 };
                RawPoint {
                    point: along.destination(if off > 0.0 { 0.0 } else { 180.0 }, off.abs()),
                    t: Timestamp(2 * i as i64),
                }
            })
            .collect();
        let noisy = RawTrajectory::new(pts);
        let clean = east_trajectory(25.0, 2000.0, 2);
        let s_noisy = calibrate(&noisy, &reg, CalibrationParams::default()).unwrap();
        let s_clean = calibrate(&clean, &reg, CalibrationParams::default()).unwrap();
        assert_eq!(s_noisy.landmark_seq(), s_clean.landmark_seq());
    }
}
