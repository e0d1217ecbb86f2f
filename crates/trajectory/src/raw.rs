//! Raw trajectories: Definition 1 of the paper.

use crate::sanitize::TrajectoryError;
use serde::{Deserialize, Serialize};
use stmaker_geo::{GeoPoint, Polyline};

/// A point in time, in whole seconds since an arbitrary epoch.
///
/// The pipeline only ever needs durations and orderings, so a plain second
/// counter is sufficient and keeps the stack free of external datetime
/// dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Seconds elapsed from `self` to `later` (may be negative).
    pub fn delta_secs(&self, later: &Timestamp) -> i64 {
        later.0 - self.0
    }

    /// A timestamp at `day` days plus `hour` hours after the epoch.
    pub fn at(day: i64, hour: f64) -> Timestamp {
        Timestamp(day * 86_400 + (hour * 3600.0) as i64)
    }
}

/// One GPS sample: location plus timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RawPoint {
    pub point: GeoPoint,
    pub t: Timestamp,
}

/// Definition 1: "A trajectory T is a finite sequence of locations sampled
/// from the original route of a moving object and their associated
/// time-stamps."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawTrajectory {
    points: Vec<RawPoint>,
}

impl RawTrajectory {
    /// Creates a trajectory, validating temporal ordering.
    ///
    /// Prefer [`RawTrajectory::try_new`] for untrusted input — this
    /// constructor is for data whose validity is already established (test
    /// fixtures, the trip generator, sanitized segments).
    ///
    /// # Panics
    /// Panics if fewer than two samples are supplied, timestamps decrease,
    /// or a coordinate is non-finite.
    pub fn new(points: Vec<RawPoint>) -> Self {
        RawView::validate(&points);
        Self { points }
    }

    /// Fallible construction: full invariant check (≥ 2 samples, finite
    /// in-range coordinates, non-decreasing timestamps) with a typed
    /// [`TrajectoryError`] instead of a panic.
    pub fn try_new(points: Vec<RawPoint>) -> Result<Self, TrajectoryError> {
        RawView::check(&points)?;
        Ok(Self { points })
    }

    /// A zero-copy borrowed view over this trajectory's samples. All
    /// read-only trajectory operations live on [`RawView`]; the owning
    /// methods below delegate to it.
    pub fn view(&self) -> RawView<'_> {
        RawView { points: &self.points }
    }

    /// The GPS samples.
    pub fn points(&self) -> &[RawPoint] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Never true (construction requires ≥ 2 samples); kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First sample.
    pub fn start(&self) -> &RawPoint {
        &self.points[0]
    }

    /// Last sample.
    pub fn end(&self) -> &RawPoint {
        self.points.last().expect("non-empty by construction")
    }

    /// Total elapsed time in seconds.
    pub fn duration_secs(&self) -> i64 {
        self.view().duration_secs()
    }

    /// Total geometric length in metres.
    pub fn length_m(&self) -> f64 {
        self.view().length_m()
    }

    /// Spatial shape of the trajectory.
    pub fn polyline(&self) -> Polyline {
        self.view().polyline()
    }

    /// The half-open index range of samples with timestamps in `[t0, t1]`.
    ///
    /// Used to attribute raw samples to a symbolic segment when extracting
    /// its moving features. The range is empty if no samples fall inside.
    pub fn time_range_indices(&self, t0: Timestamp, t1: Timestamp) -> (usize, usize) {
        self.view().time_range_indices(t0, t1)
    }
}

/// A borrowed, zero-copy view of a raw trajectory: the same invariants as
/// [`RawTrajectory`] (≥ 2 samples, non-decreasing timestamps) over a slice
/// someone else owns. `Copy`, so it passes through pipelines by value.
///
/// This lets streaming and batch callers summarize straight out of a sample
/// buffer without cloning it into an owned `RawTrajectory` first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawView<'a> {
    points: &'a [RawPoint],
}

impl<'a> RawView<'a> {
    /// Creates a view, validating temporal ordering.
    ///
    /// Prefer [`RawView::try_new`] for untrusted input.
    ///
    /// # Panics
    /// Panics if fewer than two samples are supplied, timestamps decrease,
    /// or a coordinate is non-finite.
    pub fn new(points: &'a [RawPoint]) -> Self {
        Self::validate(points);
        Self { points }
    }

    /// Fallible construction: [`RawView::check`] with a typed error instead
    /// of a panic.
    pub fn try_new(points: &'a [RawPoint]) -> Result<Self, TrajectoryError> {
        Self::check(points)?;
        Ok(Self { points })
    }

    /// Shared invariant check for owned and borrowed construction
    /// (panicking form, kept for the trusted constructors).
    fn validate(points: &[RawPoint]) {
        assert!(points.len() >= 2, "a trajectory needs at least two samples");
        assert!(points.windows(2).all(|w| w[0].t <= w[1].t), "timestamps must be non-decreasing");
        assert!(
            points.iter().all(|p| p.point.lat.is_finite() && p.point.lon.is_finite()),
            "coordinates must be finite"
        );
    }

    /// The full construction invariant as a typed verdict: ≥ 2 samples,
    /// every coordinate finite and within `[-90, 90]` × `[-180, 180]`,
    /// timestamps non-decreasing. This is the acceptance test a sanitized
    /// segment must pass (see [`sanitize`](mod@crate::sanitize)).
    pub fn check(points: &[RawPoint]) -> Result<(), TrajectoryError> {
        if points.len() < 2 {
            return Err(TrajectoryError::TooFewPoints { got: points.len() });
        }
        for (index, p) in points.iter().enumerate() {
            if !p.point.lat.is_finite() || !p.point.lon.is_finite() {
                return Err(TrajectoryError::NonFiniteCoordinate { index });
            }
            if !(-90.0..=90.0).contains(&p.point.lat) || !(-180.0..=180.0).contains(&p.point.lon) {
                return Err(TrajectoryError::OutOfRangeCoordinate {
                    index,
                    lat: p.point.lat,
                    lon: p.point.lon,
                });
            }
        }
        for (i, w) in points.windows(2).enumerate() {
            if w[1].t < w[0].t {
                return Err(TrajectoryError::OutOfOrderTimestamp {
                    index: i + 1,
                    prev_t: w[0].t.0,
                    got_t: w[1].t.0,
                });
            }
        }
        Ok(())
    }

    /// The GPS samples.
    pub fn points(&self) -> &'a [RawPoint] {
        self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Never true (construction requires ≥ 2 samples); kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First sample.
    pub fn start(&self) -> &'a RawPoint {
        &self.points[0]
    }

    /// Last sample.
    pub fn end(&self) -> &'a RawPoint {
        self.points.last().expect("non-empty by construction")
    }

    /// Total elapsed time in seconds.
    pub fn duration_secs(&self) -> i64 {
        self.start().t.delta_secs(&self.end().t)
    }

    /// Total geometric length in metres.
    pub fn length_m(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].point.haversine_m(&w[1].point)).sum()
    }

    /// Spatial shape of the trajectory.
    pub fn polyline(&self) -> Polyline {
        Polyline::new(self.points.iter().map(|p| p.point).collect())
    }

    /// The half-open index range of samples with timestamps in `[t0, t1]`.
    pub fn time_range_indices(&self, t0: Timestamp, t1: Timestamp) -> (usize, usize) {
        let lo = self.points.partition_point(|p| p.t < t0);
        let hi = self.points.partition_point(|p| p.t <= t1);
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    /// Straight-east trajectory: one point every 10 s, 100 m apart (36 km/h).
    fn east_line(n: usize) -> RawTrajectory {
        RawTrajectory::new(
            (0..n)
                .map(|i| RawPoint {
                    point: base().destination(90.0, 100.0 * i as f64),
                    t: Timestamp(10 * i as i64),
                })
                .collect(),
        )
    }

    #[test]
    fn basic_accessors() {
        let t = east_line(11);
        assert_eq!(t.len(), 11);
        assert_eq!(t.duration_secs(), 100);
        assert!((t.length_m() - 1000.0).abs() < 1.0);
        assert_eq!(t.start().t, Timestamp(0));
        assert_eq!(t.end().t, Timestamp(100));
    }

    #[test]
    fn time_range_indices_select_inclusive_window() {
        let t = east_line(11);
        assert_eq!(t.time_range_indices(Timestamp(20), Timestamp(50)), (2, 6)); // t = 20 … 50
        let (lo, hi) = t.time_range_indices(Timestamp(101), Timestamp(200));
        assert_eq!(lo, hi);
    }

    #[test]
    fn view_matches_owned_behaviour() {
        let t = east_line(11);
        let v = t.view();
        assert_eq!(v.len(), t.len());
        assert_eq!(v.duration_secs(), t.duration_secs());
        assert_eq!(v.length_m(), t.length_m());
        assert_eq!(
            v.time_range_indices(Timestamp(20), Timestamp(50)),
            t.time_range_indices(Timestamp(20), Timestamp(50))
        );
        // Views are Copy: both copies stay usable.
        let v2 = v;
        assert_eq!(v.start().t, v2.start().t);
        // A view can also be built straight from a borrowed buffer.
        let buf: Vec<RawPoint> = t.points().to_vec();
        let direct = RawView::new(&buf);
        assert_eq!(direct.polyline().len(), t.polyline().len());
    }

    #[test]
    fn try_new_returns_typed_errors() {
        use crate::sanitize::TrajectoryError;
        // Too few points.
        let one = vec![RawPoint { point: base(), t: Timestamp(0) }];
        assert_eq!(
            RawTrajectory::try_new(one.clone()).unwrap_err(),
            TrajectoryError::TooFewPoints { got: 1 }
        );
        assert_eq!(RawView::try_new(&one).unwrap_err(), TrajectoryError::TooFewPoints { got: 1 });
        // Non-finite coordinate.
        let mut pts = east_line(3).points().to_vec();
        pts[1].point.lon = f64::NAN;
        assert_eq!(
            RawView::try_new(&pts).unwrap_err(),
            TrajectoryError::NonFiniteCoordinate { index: 1 }
        );
        // Out-of-range coordinate.
        let mut pts = east_line(3).points().to_vec();
        pts[2].point.lat = 97.0;
        assert!(matches!(
            RawTrajectory::try_new(pts).unwrap_err(),
            TrajectoryError::OutOfRangeCoordinate { index: 2, .. }
        ));
        // Out-of-order timestamps.
        let mut pts = east_line(3).points().to_vec();
        pts[2].t = Timestamp(-5);
        assert_eq!(
            RawView::try_new(&pts).unwrap_err(),
            TrajectoryError::OutOfOrderTimestamp { index: 2, prev_t: 10, got_t: -5 }
        );
        // Valid input round-trips; duplicate timestamps stay legal.
        let t = east_line(4);
        assert_eq!(RawTrajectory::try_new(t.points().to_vec()).expect("valid"), t);
        let dup = vec![
            RawPoint { point: base(), t: Timestamp(0) },
            RawPoint { point: base(), t: Timestamp(0) },
        ];
        assert!(RawView::try_new(&dup).is_ok());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn new_panics_on_non_finite_coordinates() {
        // NaN coordinates cannot come from GeoPoint::new (it asserts), but
        // serde deserialization and direct field writes bypass it.
        RawTrajectory::new(vec![
            RawPoint { point: GeoPoint { lat: f64::NAN, lon: 116.4 }, t: Timestamp(0) },
            RawPoint { point: base(), t: Timestamp(5) },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn view_rejects_single_sample() {
        let p = [RawPoint { point: base(), t: Timestamp(0) }];
        RawView::new(&p);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        RawTrajectory::new(vec![
            RawPoint { point: base(), t: Timestamp(10) },
            RawPoint { point: base(), t: Timestamp(5) },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_sample() {
        RawTrajectory::new(vec![RawPoint { point: base(), t: Timestamp(0) }]);
    }
}
