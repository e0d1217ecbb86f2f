//! Map matching: attributing GPS samples to road edges.
//!
//! The routing features of Sec. III-A (grade of road, road width, traffic
//! direction) "can be extracted from the digital map we have" — which
//! presupposes knowing *which road* each part of a trajectory travelled.
//! This crate supplies that substrate with two matchers:
//!
//! * [`MapMatcher::match_nearest`] — per-point nearest-edge assignment, exact and fast
//!   when GPS noise is small relative to block size;
//! * [`MapMatcher::match_hmm`] — a Viterbi matcher in the spirit of Newson & Krumm
//!   (SIGSPATIAL'09, the paper's reference \[24\]): Gaussian emission on
//!   point-to-edge distance, transitions preferring to stay on the same
//!   edge or move to a topologically connected one. Robust to noise spikes
//!   that flip nearest-edge assignments across parallel roads.
//!
//! [`dominant_edge`] reduces a sample run to the single edge carrying most
//! of it — the edge whose attributes become the segment's routing features.

use std::collections::HashMap;

use stmaker_geo::{LocalFrame, RTree, SpatialIndexKind};
use stmaker_road::{EdgeId, RoadNetwork};
use stmaker_trajectory::RawPoint;

/// Tunables for both matchers.
#[derive(Debug, Clone, Copy)]
pub struct MatchParams {
    /// Candidate edges are searched within this radius of each sample, m.
    pub candidate_radius_m: f64,
    /// Gaussian emission sigma (GPS noise scale), metres.
    pub sigma_m: f64,
    /// Log-penalty for transitioning between unconnected edges.
    pub jump_penalty: f64,
    /// Log-penalty for transitioning between distinct but connected edges.
    pub switch_penalty: f64,
}

impl Default for MatchParams {
    fn default() -> Self {
        Self { candidate_radius_m: 200.0, sigma_m: 15.0, jump_penalty: 14.0, switch_penalty: 1.5 }
    }
}

/// A reusable matcher holding the network's spatial index.
pub struct MapMatcher<'a> {
    net: &'a RoadNetwork,
    /// One segment entry per edge-geometry leg; only a superset pre-filter,
    /// since `candidates()` refines every hit against the edge's geometry.
    index: RTree<EdgeId>,
    /// Radius of the pre-filter query, metres: the candidate radius plus a
    /// pad. The tree measures in its own frame (centred on the network) and
    /// the refine step in the trip's frame, so an edge just inside the
    /// candidate radius in the trip's frame can read slightly farther in
    /// the tree's; the pad keeps every such edge in the superset.
    query_radius_m: f64,
    params: MatchParams,
}

impl<'a> MapMatcher<'a> {
    /// Builds a matcher, indexing the network's edge geometry once.
    pub fn new(net: &'a RoadNetwork, params: MatchParams) -> Self {
        let r = params.candidate_radius_m;
        let query_radius_m = r + (r / 4.0).clamp(25.0, 100.0) / 2.0;
        Self { net, index: net.edge_segment_rtree(), query_radius_m, params }
    }

    /// [`MapMatcher::new`], kept only because the benchmark driver names it (ROADMAP item 5).
    pub fn with_index(net: &'a RoadNetwork, params: MatchParams, _kind: SpatialIndexKind) -> Self {
        Self::new(net, params)
    }

    /// The underlying network.
    pub fn network(&self) -> &RoadNetwork {
        self.net
    }

    /// Distance from `p` to edge `e`'s geometry, metres.
    fn dist_to_edge(&self, frame: &LocalFrame, p: &RawPoint, e: EdgeId) -> f64 {
        self.net.edge(e).geometry.project(frame, &p.point).distance_m
    }

    /// Candidate edges near `p` with their true geometric distances.
    fn candidates(&self, frame: &LocalFrame, p: &RawPoint) -> Vec<(EdgeId, f64)> {
        let mut seen: Vec<(EdgeId, f64)> = Vec::new();
        let mut hits: Vec<EdgeId> = self
            .index
            .within_radius(&p.point, self.query_radius_m)
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        hits.sort_unstable();
        hits.dedup();
        for e in hits {
            let d = self.dist_to_edge(frame, p, e);
            if d <= self.params.candidate_radius_m {
                seen.push((e, d));
            }
        }
        seen
    }

    /// A local frame anchored at the sample centroid, halving the maximum
    /// equirectangular distortion across a long trajectory compared to
    /// anchoring at the first sample.
    fn frame_for(points: &[RawPoint]) -> LocalFrame {
        let n = points.len() as f64;
        let lat = points.iter().map(|p| p.point.lat).sum::<f64>() / n;
        let lon = points.iter().map(|p| p.point.lon).sum::<f64>() / n;
        LocalFrame::new(stmaker_geo::GeoPoint::new(lat, lon))
    }

    /// Per-point nearest-edge matching. `None` where no edge is within the
    /// candidate radius.
    pub fn match_nearest(&self, points: &[RawPoint]) -> Vec<Option<EdgeId>> {
        if points.is_empty() {
            return Vec::new();
        }
        let frame = Self::frame_for(points);
        points
            .iter()
            .map(|p| {
                self.candidates(&frame, p)
                    .into_iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .map(|(e, _)| e)
            })
            .collect()
    }

    /// Viterbi HMM matching. `None` where no candidates exist; the Viterbi
    /// chain restarts after such gaps.
    pub fn match_hmm(&self, points: &[RawPoint]) -> Vec<Option<EdgeId>> {
        if points.is_empty() {
            return Vec::new();
        }
        let frame = Self::frame_for(points);
        let mut out: Vec<Option<EdgeId>> = vec![None; points.len()];

        // Per-point candidate sets.
        let cands: Vec<Vec<(EdgeId, f64)>> =
            points.iter().map(|p| self.candidates(&frame, p)).collect();

        let sigma2 = 2.0 * self.params.sigma_m * self.params.sigma_m;
        let emission = |d: f64| d * d / sigma2; // negative log-likelihood

        let mut i = 0;
        while i < points.len() {
            if cands[i].is_empty() {
                i += 1;
                continue;
            }
            // Run one Viterbi chain over the maximal candidate-bearing run
            // starting at i.
            let mut run_end = i;
            while run_end + 1 < points.len() && !cands[run_end + 1].is_empty() {
                run_end += 1;
            }
            self.viterbi_run(&cands[i..=run_end], &mut out[i..=run_end], emission);
            i = run_end + 1;
        }
        out
    }

    fn viterbi_run(
        &self,
        cands: &[Vec<(EdgeId, f64)>],
        out: &mut [Option<EdgeId>],
        emission: impl Fn(f64) -> f64,
    ) {
        let n = cands.len();
        // cost[t][k], backpointer[t][k]
        let mut cost: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(n);
        cost.push(cands[0].iter().map(|(_, d)| emission(*d)).collect());
        back.push(vec![0; cands[0].len()]);

        for t in 1..n {
            let mut c_t = Vec::with_capacity(cands[t].len());
            let mut b_t = Vec::with_capacity(cands[t].len());
            for (e, d) in &cands[t] {
                let mut best = f64::INFINITY;
                let mut arg = 0;
                for (k, (pe, _)) in cands[t - 1].iter().enumerate() {
                    let trans = if pe == e {
                        0.0
                    } else if self.edges_connected(*pe, *e) {
                        self.params.switch_penalty
                    } else {
                        self.params.jump_penalty
                    };
                    let c = cost[t - 1][k] + trans;
                    if c < best {
                        best = c;
                        arg = k;
                    }
                }
                c_t.push(best + emission(*d));
                b_t.push(arg);
            }
            cost.push(c_t);
            back.push(b_t);
        }

        // Backtrack from the best terminal state.
        let mut k = cost[n - 1]
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        for t in (0..n).rev() {
            out[t] = Some(cands[t][k].0);
            k = back[t][k];
        }
    }

    fn edges_connected(&self, a: EdgeId, b: EdgeId) -> bool {
        let ea = self.net.edge(a);
        let eb = self.net.edge(b);
        ea.from == eb.from || ea.from == eb.to || ea.to == eb.from || ea.to == eb.to
    }
}

/// The edge carrying the plurality of matched samples, if any sample matched.
/// Ties break towards the lower edge id for determinism.
pub fn dominant_edge(matches: &[Option<EdgeId>]) -> Option<EdgeId> {
    let mut counts: HashMap<EdgeId, usize> = HashMap::new();
    for e in matches.iter().flatten() {
        *counts.entry(*e).or_insert(0) += 1;
    }
    // lint: ordered — max_by applies a total order (count, then lower edge id) so the reduction is order-free
    counts.into_iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0))).map(|(e, _)| e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmaker_geo::GeoPoint;
    use stmaker_road::{Direction, RoadGrade};
    use stmaker_trajectory::Timestamp;

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    /// Two parallel east-west roads 200 m apart plus a connector.
    fn parallel_roads() -> (RoadNetwork, EdgeId, EdgeId, EdgeId) {
        let mut net = RoadNetwork::new();
        let a0 = net.add_node(base());
        let a1 = net.add_node(base().destination(90.0, 2000.0));
        let b0 = net.add_node(base().destination(0.0, 200.0));
        let b1 = net.add_node(base().destination(0.0, 200.0).destination(90.0, 2000.0));
        let south = net.add_edge(a0, a1, RoadGrade::National, 16.0, Direction::TwoWay, "South Rd");
        let north = net.add_edge(b0, b1, RoadGrade::County, 9.0, Direction::TwoWay, "North Rd");
        let conn = net.add_edge(a1, b1, RoadGrade::Feeder, 4.5, Direction::TwoWay, "Connector");
        (net, south, north, conn)
    }

    fn pts_along(
        from: GeoPoint,
        bearing: f64,
        n: usize,
        step_m: f64,
        lateral: &[f64],
    ) -> Vec<RawPoint> {
        (0..n)
            .map(|i| {
                let on_road = from.destination(bearing, step_m * i as f64);
                let off = lateral[i % lateral.len()];
                let p = if off == 0.0 {
                    on_road
                } else {
                    on_road.destination(if off > 0.0 { 0.0 } else { 180.0 }, off.abs())
                };
                RawPoint { point: p, t: Timestamp(10 * i as i64) }
            })
            .collect()
    }

    #[test]
    fn nearest_matches_points_on_road() {
        let (net, south, _, _) = parallel_roads();
        let m = MapMatcher::new(&net, MatchParams::default());
        let pts = pts_along(base(), 90.0, 10, 200.0, &[0.0]);
        let got = m.match_nearest(&pts);
        assert!(got.iter().all(|e| *e == Some(south)));
    }

    #[test]
    fn nearest_returns_none_far_from_roads() {
        let (net, _, _, _) = parallel_roads();
        let m = MapMatcher::new(&net, MatchParams::default());
        let far = base().destination(180.0, 3_000.0);
        let pts = pts_along(far, 90.0, 5, 100.0, &[0.0]);
        let got = m.match_nearest(&pts);
        assert!(got.iter().all(|e| e.is_none()));
    }

    #[test]
    fn hmm_smooths_noise_spikes_nearest_cannot() {
        let (net, south, north, _) = parallel_roads();
        let m = MapMatcher::new(&net, MatchParams::default());
        // Drive along the south road, but one sample is shoved 120 m north —
        // past the midpoint between roads, so nearest-edge flips to North Rd
        // (80 m vs 120 m), while for the HMM the emission gap is smaller
        // than two jump penalties and the chain stays put.
        let mut pts = pts_along(base(), 90.0, 15, 120.0, &[0.0]);
        let spiked = pts[7].point.destination(0.0, 120.0);
        pts[7].point = spiked;
        let nearest = m.match_nearest(&pts);
        assert_eq!(nearest[7], Some(north), "sanity: the spike fools nearest-edge");
        let hmm = m.match_hmm(&pts);
        assert!(
            hmm.iter().all(|e| *e == Some(south)),
            "HMM must keep the chain on the south road: {hmm:?}"
        );
    }

    #[test]
    fn hmm_allows_switch_at_connected_corner() {
        let (net, south, _, conn) = parallel_roads();
        let m = MapMatcher::new(&net, MatchParams::default());
        // East along South Rd to its end, then north up the connector.
        let mut pts = pts_along(base(), 90.0, 10, 220.0, &[0.0]);
        let corner = base().destination(90.0, 2000.0);
        for i in 1..=3 {
            pts.push(RawPoint {
                point: corner.destination(0.0, 60.0 * i as f64),
                t: Timestamp(1000 + 10 * i as i64),
            });
        }
        let got = m.match_hmm(&pts);
        assert_eq!(got[0], Some(south));
        assert_eq!(*got.last().unwrap(), Some(conn));
    }

    #[test]
    fn hmm_restarts_after_gap() {
        let (net, south, north, _) = parallel_roads();
        let m = MapMatcher::new(&net, MatchParams::default());
        let mut pts = pts_along(base(), 90.0, 5, 150.0, &[0.0]);
        // A burst of off-map samples (tunnel), then resume on the north road.
        let off_map = base().destination(180.0, 2_000.0);
        for i in 0..3 {
            pts.push(RawPoint { point: off_map, t: Timestamp(500 + i * 10) });
        }
        let north_start = base().destination(0.0, 200.0);
        pts.extend(pts_along(north_start, 90.0, 5, 150.0, &[0.0]).into_iter().map(|mut p| {
            p.t = Timestamp(p.t.0 + 600);
            p
        }));
        let got = m.match_hmm(&pts);
        assert!(got[0..5].iter().all(|e| *e == Some(south)));
        assert!(got[5..8].iter().all(|e| e.is_none()));
        assert!(got[8..].iter().all(|e| *e == Some(north)));
    }

    #[test]
    fn dominant_edge_plurality_and_empty() {
        let (_, south, north, _) = parallel_roads();
        let ms = vec![Some(south), Some(south), Some(north), None, Some(south)];
        assert_eq!(dominant_edge(&ms), Some(south));
        assert_eq!(dominant_edge(&[]), None);
        assert_eq!(dominant_edge(&[None, None]), None);
    }

    #[test]
    fn empty_input_matches_empty() {
        let (net, _, _, _) = parallel_roads();
        let m = MapMatcher::new(&net, MatchParams::default());
        assert!(m.match_nearest(&[]).is_empty());
        assert!(m.match_hmm(&[]).is_empty());
    }

    #[test]
    fn candidates_match_a_scan_of_every_edge() {
        let (net, _, _, _) = parallel_roads();
        // A noisy drive that puts samples near both roads (the north road
        // sits right at the default 200 m radius from the south one), the
        // connector corner, and off the map.
        let mut pts = pts_along(base(), 90.0, 20, 160.0, &[0.0, 40.0, -30.0, 90.0]);
        pts.push(RawPoint { point: base().destination(180.0, 3_000.0), t: Timestamp(10_000) });
        let frame = MapMatcher::frame_for(&pts);
        // Radii below, at and above both ends of the pad's clamp.
        for radius in [60.0, 170.0, 200.0, 230.0, 500.0] {
            let params = MatchParams { candidate_radius_m: radius, ..MatchParams::default() };
            let m = MapMatcher::new(&net, params);
            for p in &pts {
                let want: Vec<(EdgeId, f64)> = net
                    .edges()
                    .iter()
                    .map(|e| (e.id, m.dist_to_edge(&frame, p, e.id)))
                    .filter(|&(_, d)| d <= radius)
                    .collect();
                assert_eq!(m.candidates(&frame, p), want, "radius {radius}");
            }
        }
    }
}
