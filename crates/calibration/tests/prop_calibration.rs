//! Property-based tests for calibration — above all the paper's Fig. 2
//! motivation: the symbolic trajectory must not depend on how the route was
//! sampled.

use proptest::prelude::*;
use stmaker_calibration::{calibrate, CalibrationParams};
use stmaker_geo::{GeoPoint, Polyline};
use stmaker_poi::{Landmark, LandmarkId, LandmarkKind, LandmarkRegistry};
use stmaker_trajectory::{RawPoint, RawTrajectory, Timestamp};

fn base() -> GeoPoint {
    GeoPoint::new(39.9, 116.4)
}

/// A random Manhattan-style route: axis-aligned legs of 300–1500 m.
fn route(legs: &[(u8, f64)]) -> Polyline {
    let mut last = base();
    let mut pts = vec![last];
    for (dir, len) in legs {
        let bearing = match dir % 4 {
            0 => 0.0,
            1 => 90.0,
            2 => 90.0, // bias east/north so the route rarely self-crosses
            _ => 0.0,
        };
        last = last.destination(bearing, *len);
        pts.push(last);
    }
    Polyline::new(pts)
}

/// Landmarks every ~400 m along the route, offset 20 m sideways.
fn registry_for(poly: &Polyline) -> LandmarkRegistry {
    let mut lms = Vec::new();
    let total = poly.length_m();
    let mut arc = 0.0;
    let mut i = 0;
    while arc <= total {
        let p = poly.point_at(arc).destination(45.0, 20.0);
        lms.push(Landmark {
            id: LandmarkId(0),
            point: p,
            name: format!("L{i}"),
            kind: LandmarkKind::TurningPoint,
            significance: 0.3 + 0.05 * (i % 10) as f64,
        });
        arc += 400.0;
        i += 1;
    }
    LandmarkRegistry::from_landmarks(lms)
}

/// Samples the route into a raw trajectory at fixed arc spacing and speed.
fn sample(poly: &Polyline, spacing_m: f64, speed_mps: f64) -> RawTrajectory {
    let rs = poly.resample(spacing_m);
    let mut t = 0.0;
    let mut pts = Vec::new();
    let mut last: Option<GeoPoint> = None;
    for p in rs.points() {
        if let Some(prev) = last {
            t += prev.haversine_m(p) / speed_mps;
        }
        pts.push(RawPoint { point: *p, t: Timestamp(t as i64) });
        last = Some(*p);
    }
    RawTrajectory::new(pts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampling_rate_invariance(
        legs in prop::collection::vec((0u8..4, 300.0f64..1500.0), 2..6),
        fine in 10.0f64..40.0,
        coarse in 120.0f64..300.0,
        speed in 5.0f64..25.0,
    ) {
        let poly = route(&legs);
        let reg = registry_for(&poly);
        let params = CalibrationParams::default();
        let a = calibrate(&sample(&poly, fine, speed), &reg, params);
        let b = calibrate(&sample(&poly, coarse, speed), &reg, params);
        match (a, b) {
            (Ok(sa), Ok(sb)) => {
                prop_assert_eq!(
                    sa.landmark_seq(),
                    sb.landmark_seq(),
                    "fine ({} m) vs coarse ({} m) sampling disagree",
                    fine,
                    coarse
                );
            }
            (Err(_), Err(_)) => {} // both degenerate: fine
            (a, b) => prop_assert!(false, "one sampling calibrated, the other did not: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn symbolic_timestamps_are_plausible(
        legs in prop::collection::vec((0u8..4, 400.0f64..1200.0), 2..5),
        speed in 5.0f64..25.0,
    ) {
        let poly = route(&legs);
        let reg = registry_for(&poly);
        let raw = sample(&poly, 25.0, speed);
        if let Ok(sym) = calibrate(&raw, &reg, CalibrationParams::default()) {
            // Non-decreasing, inside the raw time span.
            prop_assert!(sym.points().windows(2).all(|w| w[0].t <= w[1].t));
            prop_assert!(sym.points()[0].t >= raw.start().t);
            prop_assert!(sym.points().last().unwrap().t <= raw.end().t);
            // Segment durations consistent with constant speed (±50% for
            // geometry slack).
            for seg in sym.segments() {
                let a = reg.get(seg.from.landmark).point;
                let b = reg.get(seg.to.landmark).point;
                let d = a.haversine_m(&b);
                let expect = d / speed;
                let got = seg.duration_secs() as f64;
                prop_assert!(got >= expect * 0.4 - 5.0 && got <= expect * 2.5 + 5.0,
                    "segment {} s vs expected ~{expect:.0} s over {d:.0} m", got);
            }
        }
    }

    #[test]
    fn anchors_are_within_radius(
        legs in prop::collection::vec((0u8..4, 400.0f64..1200.0), 2..5),
    ) {
        let poly = route(&legs);
        let reg = registry_for(&poly);
        let raw = sample(&poly, 30.0, 12.0);
        let params = CalibrationParams::default();
        if let Ok(sym) = calibrate(&raw, &reg, params) {
            let frame = stmaker_geo::LocalFrame::new(base());
            let traj_poly = raw.polyline();
            for p in sym.points() {
                let lm = reg.get(p.landmark).point;
                let proj = traj_poly.project(&frame, &lm);
                prop_assert!(proj.distance_m <= params.radius_m + 1.0,
                    "anchor {} m off the route", proj.distance_m);
            }
        }
    }
}
