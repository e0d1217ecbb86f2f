//! The landmark dataset: POI-cluster centroids merged with turning points.
//!
//! Definition 2 of the paper: "A landmark l is a geographical point in the
//! space, which is stable and independent of trajectories. A landmark can be
//! either a Point Of Interest (POI) or a turning point of the road network."

use crate::cluster::{centroids, dbscan, DbscanParams};
use crate::poi::Poi;
use serde::{Deserialize, Serialize};
use stmaker_geo::{GeoPoint, RTree, SpatialStats};

/// Index of a [`Landmark`] within its [`LandmarkRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LandmarkId(pub u32);

/// What a landmark was built from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LandmarkKind {
    /// Centroid of a DBSCAN cluster of POIs.
    PoiCluster {
        /// Number of POIs merged into this landmark.
        size: usize,
    },
    /// Road-network turning point (intersection).
    TurningPoint,
}

/// A landmark: a stable, trajectory-independent anchor point (Definition 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Landmark {
    pub id: LandmarkId,
    pub point: GeoPoint,
    /// Display name used in summaries ("the Haidian Hospital", "Suzhou Road").
    pub name: String,
    pub kind: LandmarkKind,
    /// Significance `l.s ∈ [0, 1]` — how familiar the landmark is to average
    /// people (Sec. IV-B). Assigned by the HITS pass; 0 until then.
    pub significance: f64,
}

/// The registry's spatial index: a packed STR R-tree over landmark points.
fn build_index(landmarks: &[Landmark]) -> RTree<LandmarkId> {
    RTree::build_points(landmarks.iter().map(|l| (l.id, l.point)))
}

/// The merged landmark dataset with spatial lookup.
#[derive(Debug, Clone)]
pub struct LandmarkRegistry {
    landmarks: Vec<Landmark>,
    index: RTree<LandmarkId>,
    /// Maps each input POI to the landmark its cluster produced (noise POIs
    /// map to `None`). Needed to transfer check-ins onto landmarks.
    poi_to_landmark: Vec<Option<LandmarkId>>,
}

impl LandmarkRegistry {
    /// Builds the registry exactly as Sec. VII-A describes: DBSCAN the POIs,
    /// take cluster centroids as landmarks, then add every road turning
    /// point. `turning_points` are `(point, name)` pairs.
    pub fn build(
        pois: &[Poi],
        params: DbscanParams,
        turning_points: impl IntoIterator<Item = (GeoPoint, String)>,
    ) -> Self {
        let points: Vec<GeoPoint> = pois.iter().map(|p| p.point).collect();
        let (assign, k) = dbscan(&points, params);
        let cents = centroids(&points, &assign, k);

        let mut landmarks = Vec::with_capacity(k);
        // Name each cluster after its most popular member POI.
        let mut best_per_cluster: Vec<Option<usize>> = vec![None; k];
        let mut sizes = vec![0usize; k];
        for (i, a) in assign.iter().enumerate() {
            if let Some(c) = a {
                sizes[*c] += 1;
                let better = match best_per_cluster[*c] {
                    None => true,
                    Some(b) => pois[i].popularity > pois[b].popularity,
                };
                if better {
                    best_per_cluster[*c] = Some(i);
                }
            }
        }
        for c in 0..k {
            let name = best_per_cluster[c]
                .map(|i| pois[i].name.clone())
                .unwrap_or_else(|| format!("Cluster {c}"));
            landmarks.push(Landmark {
                id: LandmarkId(landmarks.len() as u32),
                point: cents[c],
                name,
                kind: LandmarkKind::PoiCluster { size: sizes[c] },
                significance: 0.0,
            });
        }

        let cluster_to_landmark: Vec<LandmarkId> = (0..k).map(|c| LandmarkId(c as u32)).collect();
        let poi_to_landmark = assign.iter().map(|a| a.map(|c| cluster_to_landmark[c])).collect();

        for (point, name) in turning_points {
            landmarks.push(Landmark {
                id: LandmarkId(landmarks.len() as u32),
                point,
                name,
                kind: LandmarkKind::TurningPoint,
                significance: 0.0,
            });
        }

        let index = build_index(&landmarks);
        Self { landmarks, index, poi_to_landmark }
    }

    /// A registry from pre-made landmarks (used by tests and the generator).
    pub fn from_landmarks(mut landmarks: Vec<Landmark>) -> Self {
        for (i, l) in landmarks.iter_mut().enumerate() {
            l.id = LandmarkId(i as u32);
        }
        let index = build_index(&landmarks);
        Self { landmarks, index, poi_to_landmark: Vec::new() }
    }

    /// All landmarks.
    pub fn landmarks(&self) -> &[Landmark] {
        &self.landmarks
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Landmark accessor.
    pub fn get(&self, id: LandmarkId) -> &Landmark {
        &self.landmarks[id.0 as usize]
    }

    /// The landmark produced by POI `poi_idx`'s cluster, if it was not noise.
    /// Only meaningful for registries built with [`LandmarkRegistry::build`].
    pub fn landmark_of_poi(&self, poi_idx: usize) -> Option<LandmarkId> {
        self.poi_to_landmark.get(poi_idx).copied().flatten()
    }

    /// Nearest landmark to `p`.
    pub fn nearest(&self, p: &GeoPoint) -> Option<(LandmarkId, f64)> {
        self.index.nearest(p)
    }

    /// Landmarks within `radius_m` of `p`, sorted by `(distance, id)`.
    pub fn within_radius(&self, p: &GeoPoint, radius_m: f64) -> Vec<(LandmarkId, f64)> {
        self.index.within_radius(p, radius_m)
    }

    /// The `k` landmarks nearest to `p` among those within `radius_m`,
    /// sorted by `(distance, id)`.
    pub fn k_nearest_within(
        &self,
        p: &GeoPoint,
        k: usize,
        radius_m: f64,
    ) -> Vec<(LandmarkId, f64)> {
        self.index.k_nearest_within(p, k, radius_m)
    }

    /// Ids of all landmarks within `max_dist_m` of at least one point of
    /// `path`, sorted and deduplicated — calibration's corridor query,
    /// answered with one padded-rect traversal plus exact refinement.
    pub fn candidates_along(
        &self,
        path: &[GeoPoint],
        max_dist_m: f64,
        out: &mut Vec<LandmarkId>,
        stats: &mut SpatialStats,
    ) {
        self.index.along_into(path, max_dist_m, out, stats);
    }

    /// Sets landmark significances (parallel to [`Self::landmarks`] order).
    ///
    /// # Panics
    /// Panics if the slice length mismatches or any value is outside [0, 1].
    pub fn set_significances(&mut self, sig: &[f64]) {
        assert_eq!(sig.len(), self.landmarks.len(), "significance vector length mismatch");
        for (l, s) in self.landmarks.iter_mut().zip(sig) {
            assert!((0.0..=1.0).contains(s), "significance {s} out of [0,1]");
            l.significance = *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poi::{PoiCategory, PoiId};

    fn poi(i: u32, p: GeoPoint, name: &str, pop: f64) -> Poi {
        Poi {
            id: PoiId(i),
            point: p,
            name: name.into(),
            category: PoiCategory::Mall,
            popularity: pop,
        }
    }

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    fn sample_registry() -> LandmarkRegistry {
        // Two POI blobs and two turning points.
        let b2 = base().destination(90.0, 4_000.0);
        let mut pois = Vec::new();
        for i in 0..5 {
            pois.push(poi(
                i,
                base().destination(i as f64 * 72.0, 50.0),
                &format!("MallA{i}"),
                i as f64,
            ));
        }
        for i in 0..5 {
            pois.push(poi(
                5 + i,
                b2.destination(i as f64 * 72.0, 50.0),
                &format!("MallB{i}"),
                10.0 - i as f64,
            ));
        }
        let tps = vec![
            (base().destination(0.0, 2_000.0), "Crossing 1".to_string()),
            (base().destination(0.0, 3_000.0), "Crossing 2".to_string()),
        ];
        LandmarkRegistry::build(&pois, DbscanParams::default(), tps)
    }

    #[test]
    fn build_merges_clusters_and_turning_points() {
        let reg = sample_registry();
        assert_eq!(reg.len(), 4); // 2 clusters + 2 turning points
        let clusters = reg
            .landmarks()
            .iter()
            .filter(|l| matches!(l.kind, LandmarkKind::PoiCluster { .. }))
            .count();
        assert_eq!(clusters, 2);
    }

    #[test]
    fn cluster_named_after_most_popular_poi() {
        let reg = sample_registry();
        let names: Vec<&str> = reg.landmarks().iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"MallA4"), "blob A named by max popularity: {names:?}");
        assert!(names.contains(&"MallB0"), "blob B named by max popularity: {names:?}");
    }

    #[test]
    fn poi_to_landmark_mapping_is_consistent() {
        let reg = sample_registry();
        let l0 = reg.landmark_of_poi(0).unwrap();
        for i in 1..5 {
            assert_eq!(reg.landmark_of_poi(i), Some(l0));
        }
        let l5 = reg.landmark_of_poi(5).unwrap();
        assert_ne!(l0, l5);
    }

    #[test]
    fn nearest_and_radius_queries() {
        let reg = sample_registry();
        let (id, d) = reg.nearest(&base()).unwrap();
        assert!(d < 60.0);
        assert!(matches!(reg.get(id).kind, LandmarkKind::PoiCluster { .. }));
        let hits = reg.within_radius(&base(), 2_500.0);
        assert_eq!(hits.len(), 2); // cluster A + Crossing 1
    }

    #[test]
    fn set_significances_updates_all() {
        let mut reg = sample_registry();
        let sig: Vec<f64> = (0..reg.len()).map(|i| i as f64 / 10.0).collect();
        reg.set_significances(&sig);
        for (l, s) in reg.landmarks().iter().zip(&sig) {
            assert_eq!(l.significance, *s);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_significances_rejects_wrong_len() {
        let mut reg = sample_registry();
        reg.set_significances(&[0.5]);
    }

    #[test]
    fn index_queries_agree_with_each_other() {
        let reg = sample_registry();
        let probes: Vec<GeoPoint> =
            (0..6).map(|i| base().destination(40.0, 700.0 * i as f64)).collect();

        let all = reg.within_radius(&base(), 4_500.0);
        assert!(all.windows(2).all(|w| (w[0].1, w[0].0) <= (w[1].1, w[1].0)));
        assert_eq!(reg.nearest(&base()), all.first().copied());
        let knn = reg.k_nearest_within(&base(), 3, 4_500.0);
        assert_eq!(knn, all[..3.min(all.len())]);

        let mut cand = Vec::new();
        let mut stats = SpatialStats::default();
        reg.candidates_along(&probes, 2_200.0, &mut cand, &mut stats);
        assert!(stats.nodes_visited > 0);
        assert!(!cand.is_empty());
        let mut want: Vec<LandmarkId> =
            probes.iter().flat_map(|p| reg.within_radius(p, 2_200.0)).map(|(id, _)| id).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(cand, want);
    }

    #[test]
    fn from_landmarks_reindexes() {
        let lms = vec![
            Landmark {
                id: LandmarkId(99),
                point: base(),
                name: "X".into(),
                kind: LandmarkKind::TurningPoint,
                significance: 0.0,
            },
            Landmark {
                id: LandmarkId(42),
                point: base().destination(90.0, 100.0),
                name: "Y".into(),
                kind: LandmarkKind::TurningPoint,
                significance: 0.0,
            },
        ];
        let reg = LandmarkRegistry::from_landmarks(lms);
        assert_eq!(reg.get(LandmarkId(0)).name, "X");
        assert_eq!(reg.get(LandmarkId(1)).name, "Y");
    }
}
