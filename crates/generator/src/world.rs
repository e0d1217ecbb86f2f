//! The synthetic world: city + POIs + landmarks + check-ins + significance.
//!
//! Assembly follows Sec. VII-A step by step: build the map, extract turning
//! points, place POIs, DBSCAN-cluster them into landmarks, generate LBSN
//! check-ins and car visits, and run the HITS significance pass.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use stmaker_poi::{DbscanParams, LandmarkId, LandmarkRegistry, Poi, PoiCategory, PoiId};
use stmaker_road::{build_city, NodeId, PathCost, RoadNetwork, SynthCityConfig};
use stmaker_significance::{compute_significance, HitsConfig, Visit};

/// Configuration for [`World::generate`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// City layout.
    pub city: SynthCityConfig,
    /// Number of raw POIs to scatter along the roads.
    pub n_pois: usize,
    /// Number of LBSN users generating check-ins.
    pub n_users: usize,
    /// Check-ins per user.
    pub checkins_per_user: usize,
    /// Number of synthetic car routes contributing landmark *visits* to the
    /// significance computation (the paper uses both check-ins and car
    /// trajectories).
    pub n_visit_routes: usize,
    /// Master seed (independent sub-seeds are derived from it).
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            city: SynthCityConfig::default(),
            n_pois: 3_000,
            n_users: 400,
            checkins_per_user: 25,
            n_visit_routes: 300,
            seed: 0xBEE5,
        }
    }
}

impl WorldConfig {
    /// A small, fast world for unit tests.
    pub fn small(seed: u64) -> Self {
        Self {
            city: SynthCityConfig::small(seed),
            n_pois: 400,
            n_users: 80,
            checkins_per_user: 12,
            n_visit_routes: 60,
            seed,
        }
    }
}

/// A fully assembled synthetic world.
pub struct World {
    pub net: RoadNetwork,
    pub pois: Vec<Poi>,
    pub registry: LandmarkRegistry,
    /// Nodes adjacent to the most significant POI-cluster landmarks; trip
    /// generation biases sources/destinations here so that popular corridors
    /// emerge (taxis concentrate at stations and malls).
    pub hot_nodes: Vec<NodeId>,
    /// Every POI-cluster landmark with its nearest junction and sampling
    /// weight (significance-proportional) — the taxi demand distribution.
    cluster_hubs: Vec<(NodeId, LandmarkId)>,
    /// Cumulative weights parallel to `cluster_hubs`.
    cluster_cum: Vec<f64>,
    cfg: WorldConfig,
}

impl World {
    /// Deterministically generates a world from `cfg`.
    pub fn generate(cfg: WorldConfig) -> Self {
        let net = build_city(&cfg.city);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);

        // --- POIs: placed near road nodes, denser towards the city centre,
        // popularity = category prior × long-tailed site factor.
        let nodes = net.nodes();
        let n_nodes = nodes.len();
        let mut pois = Vec::with_capacity(cfg.n_pois);
        for i in 0..cfg.n_pois {
            let node = &nodes[rng.random_range(0..n_nodes)];
            let bearing = rng.random_range(0.0..360.0);
            let offset = rng.random_range(10.0..180.0);
            let point = node.point.destination(bearing, offset);
            let category = PoiCategory::ALL[rng.random_range(0..PoiCategory::ALL.len())];
            // Pareto-ish site factor: a few famous places, many obscure ones.
            let u: f64 = rng.random_range(0.0_f64..1.0).max(1e-9);
            let site_factor = u.powf(-0.6); // heavy tail
            pois.push(Poi {
                id: PoiId(i as u32),
                point,
                name: format!("{} {}", synth_place_name(&mut rng), category.noun()),
                category,
                popularity: category.base_attractiveness() * site_factor,
            });
        }

        // --- Landmarks: DBSCAN POI clusters + every road turning point.
        let turning_points = nodes.iter().map(|n| (n.point, format!("Junction {}", n.id.0)));
        let registry = LandmarkRegistry::build(&pois, DbscanParams::default(), turning_points);

        // --- Visits: LBSN check-ins (popularity-weighted POI choice) plus
        // car routes touching turning points.
        let mut visits: Vec<Visit> = Vec::new();
        let cum = cumulative_weights(pois.iter().map(|p| p.popularity));
        for user in 0..cfg.n_users {
            for _ in 0..cfg.checkins_per_user {
                let poi_idx = sample_cumulative(&cum, &mut rng);
                if let Some(lm) = registry.landmark_of_poi(poi_idx) {
                    visits.push(Visit {
                        user: stmaker_significance::UserId(user as u32),
                        landmark: lm,
                    });
                }
            }
        }
        // --- Pass 1: significance from check-ins alone identifies the hot
        // POI clusters, whose nearest junctions become the taxi hubs.
        let checkin_hits = compute_significance(registry.len(), &visits, HitsConfig::default());
        let mut clusters: Vec<(LandmarkId, f64)> = registry
            .landmarks()
            .iter()
            .filter(|l| matches!(l.kind, stmaker_poi::LandmarkKind::PoiCluster { .. }))
            .map(|l| (l.id, checkin_hits.significance[l.id.0 as usize]))
            .collect();
        clusters.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let node_index = net.node_index(300.0);
        let mut hot_nodes: Vec<NodeId> = Vec::new();
        for (l, _) in clusters.iter().take(20) {
            if let Some((node, _)) = node_index.nearest(&registry.get(*l).point) {
                hot_nodes.push(node);
            }
        }
        hot_nodes.sort_unstable();
        hot_nodes.dedup();
        if hot_nodes.is_empty() {
            hot_nodes.push(nodes[0].id);
        }

        // --- Pass 2: car visits. Taxi demand concentrates at the hubs (as
        // it does at real stations and malls), so half the visit routes are
        // anchored there; a passing car "visits" every landmark within
        // sight of its route — junctions *and* roadside POI clusters. The
        // shared visits keep the HITS graph one connected community, so
        // hub-adjacent and arterial junctions earn real significance
        // instead of losing all eigenvector mass to the check-in clusters
        // (the classic tightly-knit-community effect).
        let node_visible: Vec<Vec<LandmarkId>> = nodes
            .iter()
            .map(|n| {
                let mut v: Vec<LandmarkId> =
                    registry.within_radius(&n.point, 150.0).into_iter().map(|(id, _)| id).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let pick_node = |rng: &mut StdRng| -> NodeId {
            if rng.random_bool(0.5) {
                hot_nodes[rng.random_range(0..hot_nodes.len())]
            } else {
                nodes[rng.random_range(0..n_nodes)].id
            }
        };
        for r in 0..cfg.n_visit_routes {
            let src = pick_node(&mut rng);
            let dst = pick_node(&mut rng);
            if src == dst {
                continue;
            }
            if let Some(path) =
                stmaker_road::pathfind::shortest_path(&net, src, dst, PathCost::TravelTime)
            {
                let user = stmaker_significance::UserId((cfg.n_users + r) as u32);
                for node in &path.nodes {
                    for lm in &node_visible[node.0 as usize] {
                        visits.push(Visit { user, landmark: *lm });
                    }
                }
            }
        }

        let hits = compute_significance(registry.len(), &visits, HitsConfig::default());
        let mut registry = registry;
        registry.set_significances(&hits.significance);

        // --- Taxi demand distribution: every cluster, weighted by its final
        // significance (plus a floor so obscure places still see trips).
        let mut cluster_hubs: Vec<(NodeId, LandmarkId)> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for l in registry.landmarks() {
            if matches!(l.kind, stmaker_poi::LandmarkKind::PoiCluster { .. }) {
                if let Some((node, _)) = node_index.nearest(&l.point) {
                    cluster_hubs.push((node, l.id));
                    weights.push(l.significance.powf(2.0) + 0.003);
                }
            }
        }
        let cluster_cum = cumulative_weights(weights.into_iter());

        Self { net, pois, registry, hot_nodes, cluster_hubs, cluster_cum, cfg }
    }

    /// Samples a taxi demand endpoint: a cluster landmark (∝ significance)
    /// and the junction serving it. `None` when the world has no clusters.
    pub fn sample_demand_endpoint(&self, rng: &mut StdRng) -> Option<(NodeId, LandmarkId)> {
        if self.cluster_hubs.is_empty() {
            return None;
        }
        let idx = sample_cumulative(&self.cluster_cum, rng);
        Some(self.cluster_hubs[idx])
    }

    /// The generating configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }
}

/// Cumulative weight table for O(log n) weighted sampling.
fn cumulative_weights(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut cum = Vec::new();
    let mut acc = 0.0;
    for w in weights {
        acc += w.max(0.0);
        cum.push(acc);
    }
    cum
}

/// Samples an index proportionally to the weights behind `cum`.
fn sample_cumulative(cum: &[f64], rng: &mut StdRng) -> usize {
    let total = *cum.last().expect("non-empty weights");
    let x = rng.random_range(0.0..total);
    cum.partition_point(|c| *c <= x).min(cum.len() - 1)
}

/// A deterministic two-token place name ("Golden Lotus", "West Harbor", …).
fn synth_place_name(rng: &mut StdRng) -> String {
    const FIRST: [&str; 16] = [
        "Golden", "Jade", "West", "East", "North", "South", "Grand", "Silver", "Lucky", "Royal",
        "Spring", "Autumn", "Harmony", "Dragon", "Phoenix", "Lotus",
    ];
    const SECOND: [&str; 16] = [
        "Garden", "Plaza", "Gate", "Bridge", "Harbor", "Hill", "Lake", "Court", "Square", "Palace",
        "Valley", "Crossing", "View", "Grove", "Spring", "Terrace",
    ];
    format!(
        "{} {}",
        FIRST[rng.random_range(0..FIRST.len())],
        SECOND[rng.random_range(0..SECOND.len())]
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmaker_poi::LandmarkKind;

    fn small_world() -> World {
        World::generate(WorldConfig::small(11))
    }

    #[test]
    fn world_has_all_components() {
        let w = small_world();
        assert_eq!(w.net.node_count(), 64);
        assert_eq!(w.pois.len(), 400);
        // Landmarks = clusters + 64 turning points.
        assert!(w.registry.len() > 64, "registry has {} landmarks", w.registry.len());
        let clusters = w
            .registry
            .landmarks()
            .iter()
            .filter(|l| matches!(l.kind, LandmarkKind::PoiCluster { .. }))
            .count();
        assert!(clusters > 0, "POIs must cluster into some landmarks");
        assert!(!w.hot_nodes.is_empty());
    }

    #[test]
    fn significance_is_long_tailed_and_bounded() {
        let w = small_world();
        let sigs: Vec<f64> = w.registry.landmarks().iter().map(|l| l.significance).collect();
        assert!(sigs.iter().all(|s| (0.0..=1.0).contains(s)));
        assert!(sigs.iter().any(|s| *s > 0.0), "someone must be visited");
        // Long tail: mean well below max.
        let mean = sigs.iter().sum::<f64>() / sigs.len() as f64;
        assert!(mean < 0.5, "mean significance {mean} should be far below the max 1.0");
    }

    #[test]
    fn deterministic_across_builds() {
        let a = World::generate(WorldConfig::small(5));
        let b = World::generate(WorldConfig::small(5));
        assert_eq!(a.pois.len(), b.pois.len());
        for (x, y) in a.pois.iter().zip(&b.pois) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.popularity, y.popularity);
        }
        for (x, y) in a.registry.landmarks().iter().zip(b.registry.landmarks()) {
            assert_eq!(x.significance, y.significance, "landmark {:?}", x.id);
        }
        assert_eq!(a.hot_nodes, b.hot_nodes);
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::small(5));
        let b = World::generate(WorldConfig::small(6));
        let differ =
            a.pois.iter().zip(&b.pois).any(|(x, y)| x.name != y.name || x.point != y.point);
        assert!(differ);
    }

    #[test]
    fn turning_points_carry_significance_from_car_visits() {
        let w = small_world();
        let tp_sig: Vec<f64> = w
            .registry
            .landmarks()
            .iter()
            .filter(|l| matches!(l.kind, LandmarkKind::TurningPoint))
            .map(|l| l.significance)
            .collect();
        assert!(tp_sig.iter().any(|s| *s > 0.0), "car routes must make some junctions significant");
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let cum = cumulative_weights([1.0, 0.0, 9.0].into_iter());
        let mut counts = [0usize; 3];
        for _ in 0..5_000 {
            counts[sample_cumulative(&cum, &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 5, "{counts:?}");
    }
}
