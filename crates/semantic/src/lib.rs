//! Semantic (annotated) trajectories — the baseline representation the paper
//! argues against.
//!
//! Sec. I: "researchers have proposed several models by associating GPS
//! locations with semantic entities such as POIs, roads, regions, resulting
//! in semantic trajectories or annotated trajectories \[38\], \[30\].
//! Nevertheless semantic trajectories have their disadvantages in terms of
//! expressiveness and data volume. … Essentially a semantic trajectory is an
//! enriched version of the raw trajectory, i.e., each space-time point is
//! attached with a set of semantic attributes. Therefore the volume of
//! semantic trajectories can be excessive for storage, processing and
//! communication."
//!
//! This crate implements that baseline faithfully — every sample annotated
//! with its matched road (name/grade/width/direction) and nearby POIs — so
//! the paper's data-volume claim can be *measured* rather than asserted:
//! `exp_volume` in `stmaker-eval` compares bytes(raw) vs bytes(semantic) vs
//! bytes(summary) on the same trips.

use serde::{Deserialize, Serialize};
use stmaker_mapmatch::{MapMatcher, MatchParams};
use stmaker_poi::LandmarkRegistry;
use stmaker_road::RoadNetwork;
use stmaker_trajectory::RawTrajectory;

/// The semantic attributes attached to one GPS sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointAnnotation {
    /// Matched road name, if map matching found one.
    pub road: Option<String>,
    /// The paper's grade code (1 = highway … 7 = feeder).
    pub road_grade: Option<u8>,
    /// Road width in metres.
    pub road_width_m: Option<f64>,
    /// Traffic-direction code (1 = two-way, 2 = one-way).
    pub direction: Option<u8>,
    /// Names of landmarks within the annotation radius, nearest first.
    pub nearby: Vec<String>,
}

/// One annotated space-time point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemanticPoint {
    pub lat: f64,
    pub lon: f64,
    pub t: i64,
    pub annotation: PointAnnotation,
}

/// A semantic trajectory: "an enriched version of the raw trajectory".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemanticTrajectory {
    pub points: Vec<SemanticPoint>,
}

/// Annotation controls.
#[derive(Debug, Clone, Copy)]
pub struct AnnotateParams {
    /// Landmarks within this radius of a sample are attached, metres.
    pub nearby_radius_m: f64,
    /// At most this many nearby landmarks per sample.
    pub max_nearby: usize,
    /// Map-matching parameters.
    pub matching: MatchParams,
}

impl Default for AnnotateParams {
    fn default() -> Self {
        Self { nearby_radius_m: 120.0, max_nearby: 3, matching: MatchParams::default() }
    }
}

/// Builds the semantic trajectory for `raw`: every sample map-matched and
/// annotated with road attributes and nearby landmarks.
pub fn annotate(
    raw: &RawTrajectory,
    net: &RoadNetwork,
    registry: &LandmarkRegistry,
    params: AnnotateParams,
) -> SemanticTrajectory {
    let matcher = MapMatcher::new(net, params.matching);
    let matched = matcher.match_hmm(raw.points());
    let points = raw
        .points()
        .iter()
        .zip(&matched)
        .map(|(p, edge)| {
            let (road, road_grade, road_width_m, direction) = match edge {
                Some(e) => {
                    let e = net.edge(*e);
                    (
                        Some(e.name.clone()),
                        Some(e.grade.code()),
                        Some(e.width_m),
                        Some(e.direction.code()),
                    )
                }
                None => (None, None, None, None),
            };
            // Bounded kNN with a radius cap: dense registries stop
            // materializing every in-radius hit, while the ordering
            // (`total_cmp` distance, then id) is unchanged.
            let nearby = registry
                .k_nearest_within(&p.point, params.max_nearby, params.nearby_radius_m)
                .into_iter()
                .map(|(id, _)| registry.get(id).name.clone())
                .collect();
            SemanticPoint {
                lat: p.point.lat,
                lon: p.point.lon,
                t: p.t.0,
                annotation: PointAnnotation { road, road_grade, road_width_m, direction, nearby },
            }
        })
        .collect();
    SemanticTrajectory { points }
}

impl SemanticTrajectory {
    /// Serialized size in bytes (compact JSON) — the storage/communication
    /// cost the paper's data-volume argument is about.
    pub fn json_bytes(&self) -> usize {
        serde_json::to_string(self).expect("plain data serializes").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmaker_geo::GeoPoint;
    use stmaker_poi::{Landmark, LandmarkId, LandmarkKind};
    use stmaker_road::{Direction, RoadGrade};
    use stmaker_trajectory::{RawPoint, Timestamp};

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    fn fixture() -> (RoadNetwork, LandmarkRegistry, RawTrajectory) {
        let mut net = RoadNetwork::new();
        let a = net.add_node(base());
        let b = net.add_node(base().destination(90.0, 2_000.0));
        net.add_edge(a, b, RoadGrade::Express, 22.0, Direction::TwoWay, "East Expy");
        let registry = LandmarkRegistry::from_landmarks(vec![Landmark {
            id: LandmarkId(0),
            point: base().destination(90.0, 500.0).destination(0.0, 40.0),
            name: "Midway Mall".into(),
            kind: LandmarkKind::PoiCluster { size: 5 },
            significance: 0.9,
        }]);
        let raw = RawTrajectory::new(
            (0..=20)
                .map(|i| RawPoint {
                    point: base().destination(90.0, 100.0 * i as f64),
                    t: Timestamp(10 * i),
                })
                .collect(),
        );
        (net, registry, raw)
    }

    #[test]
    fn every_sample_is_annotated() {
        let (net, registry, raw) = fixture();
        let sem = annotate(&raw, &net, &registry, AnnotateParams::default());
        assert_eq!(sem.points.len(), raw.len());
        assert!(sem.points.iter().all(|p| p.annotation.road.as_deref() == Some("East Expy")));
        assert!(sem.points.iter().all(|p| p.annotation.road_grade == Some(2)));
        // The mall is near samples 4–6 only.
        let with_mall = sem
            .points
            .iter()
            .filter(|p| p.annotation.nearby.contains(&"Midway Mall".to_string()))
            .count();
        assert!((1..=4).contains(&with_mall), "mall annotated on {with_mall} samples");
    }

    #[test]
    fn semantic_volume_exceeds_raw_volume() {
        // The paper's data-volume claim, in miniature: the enriched form is
        // strictly larger than the raw CSV it annotates.
        let (net, registry, raw) = fixture();
        let sem = annotate(&raw, &net, &registry, AnnotateParams::default());
        let raw_bytes = raw.len() * "39.900000,116.400000,200\n".len();
        assert!(
            sem.json_bytes() > 2 * raw_bytes,
            "semantic {} vs raw {raw_bytes}",
            sem.json_bytes()
        );
    }

    #[test]
    fn unmatched_samples_annotate_as_none() {
        let (net, registry, _) = fixture();
        let far = base().destination(0.0, 50_000.0);
        let raw = RawTrajectory::new(vec![
            RawPoint { point: far, t: Timestamp(0) },
            RawPoint { point: far.destination(90.0, 100.0), t: Timestamp(10) },
        ]);
        let sem = annotate(&raw, &net, &registry, AnnotateParams::default());
        assert!(sem.points.iter().all(|p| p.annotation.road.is_none()));
        assert!(sem.points.iter().all(|p| p.annotation.nearby.is_empty()));
    }

    #[test]
    fn nearby_lookup_keeps_distance_then_id_ordering() {
        // Regression for the k_nearest_within switch: a dense ring of
        // landmarks (including exact distance ties) must annotate with the
        // same names, in the same order, as the old within_radius + sort +
        // take(max_nearby) lookup.
        let mut net = RoadNetwork::new();
        let a = net.add_node(base());
        let b = net.add_node(base().destination(90.0, 1_000.0));
        net.add_edge(a, b, RoadGrade::County, 9.0, Direction::TwoWay, "Ring Rd");
        let lm = |i: u32, p: GeoPoint| Landmark {
            id: LandmarkId(i),
            point: p,
            name: format!("L{i}"),
            kind: LandmarkKind::TurningPoint,
            significance: 0.5,
        };
        // Two landmarks at the identical point (a distance tie broken by id),
        // plus a ring of close ones.
        let tie = base().destination(0.0, 80.0);
        let mut lms = vec![lm(0, tie), lm(1, tie)];
        for i in 0..12 {
            lms.push(lm(2 + i, base().destination(30.0 * i as f64, 60.0 + 5.0 * i as f64)));
        }
        let registry = LandmarkRegistry::from_landmarks(lms);
        let raw = RawTrajectory::new(vec![
            RawPoint { point: base(), t: Timestamp(0) },
            RawPoint { point: base().destination(90.0, 10.0), t: Timestamp(10) },
        ]);
        let params = AnnotateParams::default();

        let reference = {
            let mut hits = registry.within_radius(&base(), params.nearby_radius_m);
            hits.sort_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
            hits.into_iter()
                .take(params.max_nearby)
                .map(|(id, _)| registry.get(id).name.clone())
                .collect::<Vec<_>>()
        };
        let sem = annotate(&raw, &net, &registry, params);
        assert_eq!(sem.points[0].annotation.nearby, reference);
    }

    #[test]
    fn round_trips_through_json() {
        let (net, registry, raw) = fixture();
        let sem = annotate(&raw, &net, &registry, AnnotateParams::default());
        let json = serde_json::to_string(&sem).unwrap();
        let back: SemanticTrajectory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sem);
    }
}
