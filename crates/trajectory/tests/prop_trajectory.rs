//! Property-based tests for trajectory invariants: stay points, U-turns and
//! speed extraction.

use proptest::prelude::*;
use stmaker_geo::GeoPoint;
use stmaker_trajectory::{
    average_speed_kmh, detect_stay_points, detect_u_turns, speed_profile_kmh, RawPoint,
    RawTrajectory, StayPointParams, Timestamp, UTurnParams,
};

fn base() -> GeoPoint {
    GeoPoint::new(39.9, 116.4)
}

/// A drive composed of random legs `(bearing_choice, length_m, dwell_s)`:
/// after each leg the vehicle may dwell in place.
fn build_trip(legs: &[(u8, f64, i64)], speed_mps: f64) -> RawTrajectory {
    let mut pts = Vec::new();
    let mut pos = base();
    let mut t = 0i64;
    pts.push(RawPoint { point: pos, t: Timestamp(t) });
    for (dir, len, dwell) in legs {
        let bearing = (*dir % 8) as f64 * 45.0;
        let steps = (*len / 50.0).ceil().max(1.0) as usize;
        for _ in 0..steps {
            pos = pos.destination(bearing, len / steps as f64);
            t += ((len / steps as f64) / speed_mps).ceil() as i64;
            pts.push(RawPoint { point: pos, t: Timestamp(t) });
        }
        if *dwell > 0 {
            let reps = (*dwell / 20).max(1);
            for _ in 0..reps {
                t += 20;
                pts.push(RawPoint { point: pos, t: Timestamp(t) });
            }
        }
    }
    RawTrajectory::new(pts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stay_points_never_overlap_and_respect_thresholds(
        legs in prop::collection::vec((0u8..8, 100.0f64..1500.0, 0i64..500), 1..8),
        speed in 4.0f64..25.0,
    ) {
        let traj = build_trip(&legs, speed);
        let params = StayPointParams::default();
        let stays = detect_stay_points(&traj, params);
        for s in &stays {
            prop_assert!(s.duration_secs() >= params.min_duration_s);
            prop_assert!(s.first_index <= s.last_index);
            // Every member sample is within the anchor radius of the first.
            let anchor = traj.points()[s.first_index].point;
            for p in &traj.points()[s.first_index..=s.last_index] {
                prop_assert!(anchor.haversine_m(&p.point) <= params.max_radius_m + 1e-6);
            }
        }
        for w in stays.windows(2) {
            prop_assert!(w[0].last_index < w[1].first_index, "stays overlap");
        }
    }

    #[test]
    fn long_dwells_are_always_found(
        pre in 200.0f64..2000.0,
        dwell in 150i64..900,
        post in 200.0f64..2000.0,
    ) {
        let traj = build_trip(&[(2, pre, dwell), (2, post, 0)], 12.0);
        let stays = detect_stay_points(&traj, StayPointParams::default());
        prop_assert!(!stays.is_empty(), "a {dwell}-second dwell must be detected");
        let total: i64 = stays.iter().map(|s| s.duration_secs()).sum();
        prop_assert!(total >= dwell - 40, "detected {total} s of {dwell} s dwell");
    }

    #[test]
    fn straight_drives_yield_no_events(
        len in 1_000.0f64..10_000.0,
        speed in 5.0f64..30.0,
    ) {
        let traj = build_trip(&[(2, len, 0)], speed);
        prop_assert!(detect_stay_points(&traj, StayPointParams::default()).is_empty());
        prop_assert!(detect_u_turns(&traj, UTurnParams::default()).is_empty());
    }

    #[test]
    fn out_and_back_always_has_a_u_turn(
        out in 400.0f64..3000.0,
        back in 400.0f64..3000.0,
        dir in 0u8..8,
    ) {
        let traj = build_trip(&[(dir, out, 0), (dir + 4, back, 0)], 12.0);
        let turns = detect_u_turns(&traj, UTurnParams::default());
        prop_assert_eq!(turns.len(), 1, "expected exactly one U-turn");
        // The pivot is near the turnaround point.
        let apex = base().destination((dir % 8) as f64 * 45.0, out);
        prop_assert!(turns[0].point.haversine_m(&apex) < 150.0);
    }

    #[test]
    fn speed_profile_is_consistent_with_average(
        legs in prop::collection::vec((0u8..8, 100.0f64..1200.0, 0i64..100), 1..6),
        speed in 4.0f64..25.0,
    ) {
        let traj = build_trip(&legs, speed);
        let profile = speed_profile_kmh(traj.points());
        prop_assert!(profile.iter().all(|v| *v >= 0.0 && v.is_finite()));
        let avg = average_speed_kmh(traj.points());
        let max = profile.iter().fold(0.0f64, |m, v| m.max(*v));
        // The distance-weighted average cannot exceed the fastest hop.
        prop_assert!(avg <= max + 1e-9, "avg {avg} > max hop {max}");
    }

    #[test]
    fn time_range_indices_partition_the_samples(
        legs in prop::collection::vec((0u8..8, 100.0f64..800.0, 0i64..60), 1..5),
        cut_frac in 0.1f64..0.9,
    ) {
        let traj = build_trip(&legs, 10.0);
        let t0 = traj.start().t;
        let t1 = traj.end().t;
        let cut = Timestamp(t0.0 + ((t1.0 - t0.0) as f64 * cut_frac) as i64);
        let (l_lo, l_hi) = traj.time_range_indices(t0, cut);
        let (r_lo, r_hi) = traj.time_range_indices(Timestamp(cut.0 + 1), t1);
        // The two ranges are adjacent and together cover every sample.
        prop_assert_eq!(l_lo, 0);
        prop_assert_eq!(l_hi, r_lo);
        prop_assert_eq!(r_hi, traj.len());
    }
}
