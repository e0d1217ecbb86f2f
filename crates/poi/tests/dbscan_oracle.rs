//! `dbscan` against the `GridIndex` DBSCAN it replaced.
//!
//! The reference asks a `GridIndex` for every ε-neighbourhood and collects
//! each answer into a fresh `Vec`. The flat-grid implementation must give
//! every point the same label and find the same number of clusters, since
//! the labels decide which POIs merge into which landmark.

use proptest::prelude::*;
use stmaker_geo::{BoundingBox, GeoPoint, GridIndex, LocalFrame};
use stmaker_poi::cluster::Assignment;
use stmaker_poi::{dbscan, DbscanParams};

/// The `GridIndex` DBSCAN, kept only as an oracle.
fn reference_dbscan(points: &[GeoPoint], params: DbscanParams) -> (Vec<Assignment>, usize) {
    let n = points.len();
    if n == 0 {
        return (Vec::new(), 0);
    }

    let index = GridIndex::build(points.iter().copied().enumerate(), params.eps_m);

    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;
    let mut label = vec![UNVISITED; n];
    let mut cluster = 0usize;

    for i in 0..n {
        if label[i] != UNVISITED {
            continue;
        }
        let neighbours: Vec<usize> =
            index.within_radius(&points[i], params.eps_m).into_iter().map(|(id, _)| id).collect();
        if neighbours.len() < params.min_pts {
            label[i] = NOISE;
            continue;
        }
        label[i] = cluster;
        let mut queue: Vec<usize> = neighbours;
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            if label[j] == NOISE {
                label[j] = cluster;
            }
            if label[j] != UNVISITED {
                continue;
            }
            label[j] = cluster;
            let nbrs: Vec<usize> = index
                .within_radius(&points[j], params.eps_m)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            if nbrs.len() >= params.min_pts {
                queue.extend(nbrs);
            }
        }
        cluster += 1;
    }

    let assignments = label
        .into_iter()
        .map(|l| if l == NOISE || l == UNVISITED { None } else { Some(l) })
        .collect();
    (assignments, cluster)
}

const EPS: [f64; 4] = [40.0, 150.0, 333.3, 1_000.0];

fn base() -> GeoPoint {
    GeoPoint::new(39.9, 116.4)
}

/// Points scattered over a few ε around `base`, each repeated 1–3 times
/// (duplicates), plus a ring of points at ε·(1 ± 0.1%) from one of them so
/// the `<= ε` boundary and border-point claims are exercised.
fn case_strategy() -> impl Strategy<Value = (Vec<GeoPoint>, DbscanParams)> {
    (
        prop::collection::vec((0.0f64..360.0, 0.0f64..6.0, 1usize..4), 0..80),
        0usize..EPS.len(),
        1usize..6,
        0usize..6,
    )
        .prop_map(|(offsets, e, min_pts, ring)| {
            let eps_m = EPS[e];
            let mut pts = Vec::new();
            for (bearing, dist, copies) in offsets {
                let p = base().destination(bearing, dist * eps_m);
                pts.extend(std::iter::repeat_n(p, copies));
            }
            if let Some(&centre) = pts.first() {
                for k in 0..ring {
                    let scale = if k % 2 == 0 { 0.999 } else { 1.001 };
                    pts.push(centre.destination(60.0 * k as f64, eps_m * scale));
                }
            }
            (pts, DbscanParams { eps_m, min_pts })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_grid_index_reference((pts, params) in case_strategy()) {
        prop_assert_eq!(dbscan(&pts, params), reference_dbscan(&pts, params));
    }
}

#[test]
fn matches_reference_on_a_lattice_exactly_eps_apart() {
    // Neighbours sit at exactly ε in the planar frame (to rounding), so the
    // inclusive test decides every edge; both sides must decide alike.
    for &eps_m in &EPS {
        let pts: Vec<GeoPoint> = (0..100)
            .map(|i| {
                base()
                    .destination(90.0, eps_m * (i % 10) as f64)
                    .destination(0.0, eps_m * (i / 10) as f64)
            })
            .collect();
        for min_pts in 1..6 {
            let params = DbscanParams { eps_m, min_pts };
            assert_eq!(
                dbscan(&pts, params),
                reference_dbscan(&pts, params),
                "eps {eps_m} min_pts {min_pts}"
            );
        }
    }
}

#[test]
fn matches_reference_when_eps_is_exactly_a_pair_distance() {
    // eps set to a pair's planar distance in the grid's own frame, so the
    // inclusive `<=` decides whether that pair are neighbours.
    let pts: Vec<GeoPoint> =
        (0..12).map(|i| base().destination(37.0 * i as f64, 90.0 + 13.0 * i as f64)).collect();
    let bbox = BoundingBox::enclosing(&pts).expect("points").inflate(1e-4);
    let frame = LocalFrame::new(bbox.center());
    for j in 1..pts.len() {
        let eps_m = frame.dist_m(&pts[0], &pts[j]);
        for min_pts in [2, 3] {
            let params = DbscanParams { eps_m, min_pts };
            assert_eq!(dbscan(&pts, params), reference_dbscan(&pts, params), "pair 0-{j}");
        }
    }
}
