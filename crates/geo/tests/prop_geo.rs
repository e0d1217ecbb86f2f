//! Property-based tests for the geodesy primitives.

use proptest::prelude::*;
use stmaker_geo::{heading_diff_deg, GeoPoint, LocalFrame, Polyline, RTree};

/// Latitudes/longitudes inside a generous city-scale band (avoids poles and
/// the antimeridian, which the stack deliberately does not support).
fn city_point() -> impl Strategy<Value = GeoPoint> {
    (30.0f64..50.0, 100.0f64..130.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

/// Bearing/distance offsets from a shared origin; distances are drawn from a
/// small integer lattice so duplicate coordinates actually occur.
fn lattice_offsets(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(
        (prop::sample::select(vec![0.0f64, 90.0, 180.0, 270.0]), 0u32..12),
        1..max_len,
    )
    .prop_map(|v| v.into_iter().map(|(b, d)| (b, 250.0 * d as f64)).collect())
}

/// Brute-force (distance, id)-sorted hits within `radius` under the tree's
/// own planar frame — the reference all R-tree query results must match.
fn brute_hits(
    tree: &RTree<u32>,
    segs: &[(u32, GeoPoint, GeoPoint)],
    q: &GeoPoint,
    radius: f64,
) -> Vec<(u32, f64)> {
    let frame = tree.frame();
    let mut hits: Vec<(u32, f64)> = segs
        .iter()
        .map(|(id, a, b)| (*id, frame.project_onto_segment(q, a, b).1))
        .filter(|(_, d)| *d <= radius)
        .collect();
    hits.sort_unstable_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
    hits
}

proptest! {
    #[test]
    fn destination_inverts_haversine(p in city_point(),
                                     bearing in 0.0f64..360.0,
                                     dist in 1.0f64..50_000.0) {
        let q = p.destination(bearing, dist);
        let measured = p.haversine_m(&q);
        prop_assert!((measured - dist).abs() < dist * 1e-3 + 0.5,
                     "asked {dist}, measured {measured}");
    }

    #[test]
    fn bearing_points_toward_destination(p in city_point(),
                                         bearing in 0.0f64..360.0,
                                         dist in 100.0f64..20_000.0) {
        let q = p.destination(bearing, dist);
        let measured = p.bearing_deg(&q);
        prop_assert!(heading_diff_deg(measured, bearing) < 0.5,
                     "asked {bearing}, measured {measured}");
    }

    #[test]
    fn haversine_triangle_inequality(a in city_point(), b in city_point(), c in city_point()) {
        let ab = a.haversine_m(&b);
        let bc = b.haversine_m(&c);
        let ac = a.haversine_m(&c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn heading_diff_bounds_and_symmetry(a in -720.0f64..720.0, b in -720.0f64..720.0) {
        let d = heading_diff_deg(a, b);
        prop_assert!((0.0..=180.0).contains(&d));
        prop_assert!((heading_diff_deg(b, a) - d).abs() < 1e-9);
        prop_assert!(heading_diff_deg(a, a) < 1e-9);
    }

    #[test]
    fn local_frame_round_trip(origin in city_point(),
                              dx in -20_000.0f64..20_000.0,
                              dy in -20_000.0f64..20_000.0) {
        let frame = LocalFrame::new(origin);
        let p = frame.to_geo(dx, dy);
        let (x2, y2) = frame.to_xy(&p);
        prop_assert!((x2 - dx).abs() < 1e-6);
        prop_assert!((y2 - dy).abs() < 1e-6);
    }

    #[test]
    fn polyline_point_at_is_monotone_along_arc(
        origin in city_point(),
        legs in prop::collection::vec((0.0f64..360.0, 50.0f64..2_000.0), 1..8),
        f1 in 0.0f64..1.0,
        f2 in 0.0f64..1.0,
    ) {
        let mut pts = vec![origin];
        for (b, d) in &legs {
            let last = *pts.last().unwrap();
            pts.push(last.destination(*b, *d));
        }
        let pl = Polyline::new(pts);
        let total = pl.length_m();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let p_lo = pl.point_at(lo * total);
        let p_hi = pl.point_at(hi * total);
        // Arc position of the returned points is consistent with the request.
        let frame = LocalFrame::new(origin);
        let a_lo = pl.project(&frame, &p_lo).arc_m;
        let a_hi = pl.project(&frame, &p_hi).arc_m;
        prop_assert!(a_lo <= a_hi + 1.0, "arc order violated: {a_lo} > {a_hi}");
    }

    #[test]
    fn resample_preserves_endpoints_and_length(
        origin in city_point(),
        legs in prop::collection::vec((0.0f64..360.0, 50.0f64..2_000.0), 1..6),
        step in 20.0f64..500.0,
    ) {
        let mut pts = vec![origin];
        for (b, d) in &legs {
            let last = *pts.last().unwrap();
            pts.push(last.destination(*b, *d));
        }
        let pl = Polyline::new(pts);
        let rs = pl.resample(step);
        prop_assert_eq!(rs.points()[0], pl.points()[0]);
        prop_assert!(rs.points().last().unwrap().haversine_m(pl.points().last().unwrap()) < 0.01);
        // Resampling cannot lengthen a polyline beyond interpolation error
        // (point_at lerps in lat/lon while lengths are haversine), and
        // shortens it only by corner cutting (bounded by step per corner).
        let budget = step * legs.len() as f64 * 2.0 + 1.0;
        prop_assert!(rs.length_m() <= pl.length_m() * (1.0 + 1e-4) + 0.01);
        prop_assert!(rs.length_m() >= pl.length_m() - budget);
    }
}

proptest! {
    // R-tree queries must match brute force exactly (same planar frame, same
    // float arithmetic) for random point sets with duplicate coordinates and
    // queries that may sit far outside the tree's bounding box.
    #[test]
    fn rtree_point_queries_match_brute_force(
        origin in city_point(),
        offsets in lattice_offsets(40),
        q_bearing in 0.0f64..360.0,
        q_dist in 0.0f64..60_000.0,
        radius in 50.0f64..4_000.0,
        k in 1usize..8,
    ) {
        let segs: Vec<(u32, GeoPoint, GeoPoint)> = offsets
            .iter()
            .enumerate()
            .map(|(i, (b, d))| {
                let p = origin.destination(*b, *d);
                (i as u32, p, p) // cast-ok: test sizes
            })
            .collect();
        let tree = RTree::build_points(segs.iter().map(|(id, p, _)| (*id, *p)));
        let q = origin.destination(q_bearing, q_dist);

        let brute = brute_hits(&tree, &segs, &q, radius);
        prop_assert_eq!(tree.within_radius(&q, radius), brute.clone());

        let all = brute_hits(&tree, &segs, &q, f64::INFINITY);
        prop_assert_eq!(tree.nearest(&q), all.first().copied());
        prop_assert_eq!(
            tree.k_nearest_within(&q, k, f64::INFINITY),
            all[..k.min(all.len())].to_vec()
        );
        prop_assert_eq!(
            tree.k_nearest_within(&q, k, radius),
            brute[..k.min(brute.len())].to_vec()
        );
    }

    // Same contract for segment entries, including degenerate (zero-length)
    // segments mixed in with real ones.
    #[test]
    fn rtree_segment_queries_match_brute_force(
        origin in city_point(),
        offsets in lattice_offsets(25),
        seg_bearing in 0.0f64..360.0,
        seg_lens in prop::collection::vec(0.0f64..2_000.0, 25),
        q_bearing in 0.0f64..360.0,
        q_dist in 0.0f64..60_000.0,
        radius in 50.0f64..4_000.0,
        k in 1usize..6,
    ) {
        let segs: Vec<(u32, GeoPoint, GeoPoint)> = offsets
            .iter()
            .enumerate()
            .map(|(i, (b, d))| {
                let a = origin.destination(*b, *d);
                // Every third segment is degenerate (a == b).
                let len = if i % 3 == 0 { 0.0 } else { seg_lens[i % seg_lens.len()] };
                let bb = if len == 0.0 { a } else { a.destination(seg_bearing, len) };
                (i as u32, a, bb) // cast-ok: test sizes
            })
            .collect();
        let tree = RTree::build_segments(segs.iter().copied());
        let q = origin.destination(q_bearing, q_dist);

        let brute = brute_hits(&tree, &segs, &q, radius);
        prop_assert_eq!(tree.within_radius(&q, radius), brute.clone());

        let all = brute_hits(&tree, &segs, &q, f64::INFINITY);
        prop_assert_eq!(tree.nearest(&q), all.first().copied());
        prop_assert_eq!(
            tree.k_nearest_within(&q, k, f64::INFINITY),
            all[..k.min(all.len())].to_vec()
        );
    }
}
