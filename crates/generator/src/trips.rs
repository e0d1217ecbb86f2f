//! The taxi-trip simulator.
//!
//! Drives a vehicle over the synthetic city second by second and samples GPS
//! points from the true motion, so every downstream extractor (stay points,
//! U-turns, speeds, map matching, calibration) sees data with exactly the
//! artefacts real trajectories have: noise, variable sampling rates, dwell
//! jitter and heterogeneous speeds.
//!
//! Each injected anomaly is recorded in [`GroundTruth`], which the simulated
//! reader study (Fig. 11) uses as the reference for what a good summary
//! ought to mention.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stmaker_geo::GeoPoint;
use stmaker_road::{NodeId, PathCost, RoadGrade};
use stmaker_trajectory::{RawPoint, RawTrajectory, Timestamp};

use crate::traffic::TrafficModel;
use crate::world::World;

/// Tunables for trip synthesis.
#[derive(Debug, Clone, Copy)]
pub struct TripConfig {
    /// Minimum geometric trip length; shorter src/dst draws are rejected.
    pub min_trip_m: f64,
    /// Probability that a trip endpoint is drawn from the hot-node set
    /// (stations, malls) instead of uniformly — concentrates traffic so
    /// popular corridors emerge.
    pub hub_bias: f64,
    /// Per-trip GPS sampling interval is drawn uniformly from this range
    /// (seconds) — the heterogeneous sampling the calibration step must
    /// survive (paper Fig. 2).
    pub sample_interval_s: (i64, i64),
    /// GPS noise sigma, metres.
    pub gps_sigma_m: f64,
}

impl Default for TripConfig {
    fn default() -> Self {
        Self { min_trip_m: 1_500.0, hub_bias: 0.7, sample_interval_s: (3, 12), gps_sigma_m: 6.0 }
    }
}

/// What was deliberately injected into a trip — the reference answer key for
/// the simulated reader study.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Injected stays: `(location, dwell seconds)`, only dwells long enough
    /// to count as stay points (≥ 120 s).
    pub stays: Vec<(GeoPoint, i64)>,
    /// Injected U-turn pivot locations.
    pub u_turns: Vec<GeoPoint>,
    /// Whether an abnormal slowdown (beyond regime congestion) was injected.
    pub slowdown: bool,
    /// Whether the driver deviated from the fastest (popular) route.
    pub detoured: bool,
    /// The node sequence actually driven.
    pub route_nodes: Vec<NodeId>,
    /// Departure hour of day.
    pub depart_hour: f64,
}

/// A synthesized trip: the sampled raw trajectory plus its answer key.
#[derive(Debug, Clone)]
pub struct GeneratedTrip {
    pub raw: RawTrajectory,
    pub truth: GroundTruth,
}

/// One leg of the internal drive plan.
enum PlanItem {
    /// Drive from `from` to `to` at `speed_kmh`.
    Drive { from: GeoPoint, to: GeoPoint, speed_kmh: f64 },
    /// Dwell at `at` for `secs` (jittered when sampled).
    Dwell { at: GeoPoint, secs: i64 },
}

/// Simulates taxi trips over a [`World`].
pub struct TripGenerator<'w> {
    world: &'w World,
    traffic: TrafficModel,
    cfg: TripConfig,
}

impl<'w> TripGenerator<'w> {
    /// Creates a generator.
    pub fn new(world: &'w World, cfg: TripConfig) -> Self {
        Self { world, traffic: TrafficModel, cfg }
    }

    /// The world being driven over.
    pub fn world(&self) -> &World {
        self.world
    }

    /// Samples a departure hour with realistic taxi activity: rush and day
    /// hours dominate, nights are quiet but present.
    fn sample_depart_hour(&self, rng: &mut StdRng) -> f64 {
        let x: f64 = rng.random_range(0.0..1.0);
        if x < 0.40 {
            // Rush: morning or evening.
            if rng.random_bool(0.5) {
                rng.random_range(6.0..10.0)
            } else {
                rng.random_range(16.0..20.0)
            }
        } else if x < 0.80 {
            if rng.random_bool(0.75) {
                rng.random_range(10.0..16.0)
            } else {
                rng.random_range(20.0..22.0)
            }
        } else {
            let h = rng.random_range(22.0..30.0);
            if h >= 24.0 {
                h - 24.0
            } else {
                h
            }
        }
    }

    /// Generates one trip departing at `hour` on `day`. Returns `None` when
    /// no suitable src/dst pair is found (rare; bounded retries).
    pub fn generate_at(&self, day: i64, hour: f64, rng: &mut StdRng) -> Option<GeneratedTrip> {
        let net = &self.world.net;
        let nodes = net.nodes();

        // --- Endpoints & route.
        let mut route = None;
        let mut doors: (Option<GeoPoint>, Option<GeoPoint>) = (None, None);
        for _ in 0..25 {
            let (src, src_door) = self.pick_endpoint(rng);
            let (dst, dst_door) = self.pick_endpoint(rng);
            if src == dst {
                continue;
            }
            if let Some(p) =
                stmaker_road::pathfind::shortest_path(net, src, dst, PathCost::TravelTime)
            {
                if p.length_m(net) >= self.cfg.min_trip_m {
                    route = Some(p);
                    doors = (src_door, dst_door);
                    break;
                }
            }
        }
        let fastest = route?;

        // --- Detour: reroute through a random off-route waypoint.
        let mut detoured = false;
        let mut drive_nodes = fastest.nodes.clone();
        if rng.random_bool(self.traffic.detour_prob(hour)) {
            let src = fastest.nodes[0];
            let dst = *fastest.nodes.last().expect("route non-empty");
            for _ in 0..10 {
                let via = nodes[rng.random_range(0..nodes.len())].id;
                if fastest.nodes.contains(&via) {
                    continue;
                }
                let (Some(a), Some(b)) = (
                    stmaker_road::pathfind::shortest_path(net, src, via, PathCost::TravelTime),
                    stmaker_road::pathfind::shortest_path(net, via, dst, PathCost::TravelTime),
                ) else {
                    continue;
                };
                let mut joined = a.nodes.clone();
                joined.extend_from_slice(&b.nodes[1..]);
                // A usable detour is loop-free and actually different.
                if joined != fastest.nodes && is_loop_free(&joined) {
                    drive_nodes = joined;
                    detoured = true;
                    break;
                }
            }
        }

        // --- Per-leg speeds.
        let vehicle_factor = rng.random_range(0.92..1.06);
        let regime_factor = self.traffic.speed_factor(hour);
        let slowdown = rng.random_bool(self.traffic.slowdown_prob(hour));
        let n_legs = drive_nodes.len() - 1;
        // Slowdown affects a contiguous stretch of the route.
        let (slow_lo, slow_hi) = if slowdown && n_legs >= 2 {
            let span = (n_legs / 2).max(1);
            let lo = rng.random_range(0..=(n_legs - span));
            (lo, lo + span)
        } else {
            (usize::MAX, usize::MAX)
        };

        let mut plan: Vec<PlanItem> = Vec::new();
        let mut truth_stays: Vec<(GeoPoint, i64)> = Vec::new();
        let mut truth_uturns: Vec<GeoPoint> = Vec::new();

        // Demand trips begin at the POI cluster's door, not the intersection
        // centre — a slow approach leg from the door to the first junction
        // (and symmetrically at the destination). This is what real pickup/
        // drop-off points look like and is what lets calibration anchor the
        // trip at the significant landmark (Fig. 9).
        let usable_door = |door: Option<GeoPoint>, node: NodeId| -> Option<GeoPoint> {
            door.filter(|p| {
                let d = p.haversine_m(&self.world.net.node(node).point);
                (15.0..400.0).contains(&d)
            })
        };
        if let Some(door) = usable_door(doors.0, drive_nodes[0]) {
            let first = net.node(drive_nodes[0]).point;
            plan.push(PlanItem::Drive { from: door, to: first, speed_kmh: 18.0 });
        }

        // U-turn: at one interior route node, drive a spur and come back.
        let uturn_at = if rng.random_bool(self.traffic.u_turn_prob(hour)) && drive_nodes.len() > 3 {
            Some(rng.random_range(1..drive_nodes.len() - 1))
        } else {
            None
        };

        for i in 0..n_legs {
            let a = net.node(drive_nodes[i]).point;
            let b = net.node(drive_nodes[i + 1]).point;
            let grade = self.leg_grade(drive_nodes[i], drive_nodes[i + 1]);
            let mut speed = grade.free_flow_kmh()
                * regime_factor
                * vehicle_factor
                * rng.random_range(0.92..1.08);
            if (slow_lo..slow_hi).contains(&i) {
                speed *= 0.45;
            }
            let speed = speed.max(3.0);

            // Congestion stops: expected stops_per_km × leg length. The leg
            // is split at each stop position so the driven path never jumps
            // backwards (a dwell appended after the whole leg would teleport
            // the vehicle from the far node back to the stop and forward
            // again — phantom motion that reads as fake U-turns).
            let leg_km = a.haversine_m(&b) / 1000.0;
            let expect = self.traffic.stops_per_km(hour) * leg_km;
            let n_stops = (expect.floor() as usize)
                + usize::from(rng.random_bool((expect.fract()).clamp(0.0, 1.0)));
            let mut fracs: Vec<f64> = (0..n_stops).map(|_| rng.random_range(0.2..0.8)).collect();
            fracs.sort_by(f64::total_cmp);
            let mut cursor = a;
            for frac in fracs {
                let at = a.lerp(&b, frac);
                plan.push(PlanItem::Drive { from: cursor, to: at, speed_kmh: speed });
                let secs = rng.random_range(60..420);
                plan.push(PlanItem::Dwell { at, secs });
                if secs >= 120 {
                    truth_stays.push((at, secs));
                }
                cursor = at;
            }
            plan.push(PlanItem::Drive { from: cursor, to: b, speed_kmh: speed });

            // U-turn spur after reaching node i+1.
            if uturn_at == Some(i + 1) {
                let pivot_node = drive_nodes[i + 1];
                if let Some(&(_, spur_to)) = net.neighbors(pivot_node).iter().find(|(_, n)| {
                    *n != drive_nodes[i] && Some(*n) != drive_nodes.get(i + 2).copied()
                }) {
                    let p = net.node(pivot_node).point;
                    let q_full = net.node(spur_to).point;
                    let spur_m = p.haversine_m(&q_full).min(250.0);
                    let q = p.destination(p.bearing_deg(&q_full), spur_m);
                    let spur_speed = 0.6 * grade.free_flow_kmh() * regime_factor;
                    plan.push(PlanItem::Drive { from: p, to: q, speed_kmh: spur_speed });
                    plan.push(PlanItem::Drive { from: q, to: p, speed_kmh: spur_speed });
                    truth_uturns.push(q);
                }
            }
        }
        if let Some(door) = usable_door(doors.1, *drive_nodes.last().expect("route non-empty")) {
            let last = net.node(*drive_nodes.last().expect("route non-empty")).point;
            plan.push(PlanItem::Drive { from: last, to: door, speed_kmh: 18.0 });
        }

        // --- Walk the plan second by second.
        let depart = Timestamp::at(day, hour);
        let mut true_path: Vec<(GeoPoint, i64)> = vec![(
            match &plan[0] {
                PlanItem::Drive { from, .. } => *from,
                PlanItem::Dwell { at, .. } => *at,
            },
            0,
        )];
        let mut t = 0i64;
        for item in &plan {
            match item {
                PlanItem::Drive { from, to, speed_kmh } => {
                    let len = from.haversine_m(to);
                    let mps = speed_kmh / 3.6;
                    let secs = (len / mps).ceil().max(1.0) as i64;
                    for s in 1..=secs {
                        let frac = (s as f64 / secs as f64).min(1.0);
                        t += 1;
                        true_path.push((from.lerp(to, frac), t));
                    }
                }
                PlanItem::Dwell { at, secs } => {
                    for _ in 0..*secs {
                        t += 1;
                        true_path.push((*at, t));
                    }
                }
            }
        }

        // --- Sample with noise at this trip's interval.
        let interval =
            rng.random_range(self.cfg.sample_interval_s.0..=self.cfg.sample_interval_s.1);
        let mut samples: Vec<RawPoint> = Vec::new();
        let mut next = 0i64;
        for (p, ts) in &true_path {
            if *ts >= next {
                samples.push(RawPoint { point: self.jitter(*p, rng), t: Timestamp(depart.0 + ts) });
                next = ts + interval;
            }
        }
        // Always include the trip end.
        let (last_p, last_t) = *true_path.last().expect("path non-empty");
        if samples.last().map(|s| s.t.0 != depart.0 + last_t).unwrap_or(true) {
            samples.push(RawPoint {
                point: self.jitter(last_p, rng),
                t: Timestamp(depart.0 + last_t),
            });
        }
        if samples.len() < 2 {
            return None;
        }

        Some(GeneratedTrip {
            raw: RawTrajectory::new(samples),
            truth: GroundTruth {
                stays: truth_stays,
                u_turns: truth_uturns,
                slowdown,
                detoured,
                route_nodes: drive_nodes,
                depart_hour: hour,
            },
        })
    }

    /// Generates `n` trips with activity-weighted departure hours.
    pub fn generate_corpus(&self, n: usize, seed: u64) -> Vec<GeneratedTrip> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        let mut day = 0i64;
        while out.len() < n {
            let hour = self.sample_depart_hour(&mut rng);
            if let Some(trip) = self.generate_at(day, hour, &mut rng) {
                out.push(trip);
            }
            day = (day + 1) % 90; // spread over the paper's three months
        }
        out
    }

    /// Picks a trip endpoint: with probability `hub_bias`, taxi demand — a
    /// POI cluster sampled proportionally to its significance (returning its
    /// junction and door location); otherwise a uniformly random junction.
    fn pick_endpoint(&self, rng: &mut StdRng) -> (NodeId, Option<GeoPoint>) {
        if rng.random_bool(self.cfg.hub_bias) {
            if let Some((node, lm)) = self.world.sample_demand_endpoint(rng) {
                return (node, Some(self.world.registry.get(lm).point));
            }
        }
        let nodes = self.world.net.nodes();
        (nodes[rng.random_range(0..nodes.len())].id, None)
    }

    /// Grade of the edge between two adjacent nodes (Feeder when the pair is
    /// not directly connected, which cannot happen on Dijkstra output).
    fn leg_grade(&self, a: NodeId, b: NodeId) -> RoadGrade {
        self.world
            .net
            .neighbors(a)
            .iter()
            .find(|(_, n)| *n == b)
            .map(|(e, _)| self.world.net.edge(*e).grade)
            .unwrap_or(RoadGrade::Feeder)
    }

    fn jitter(&self, p: GeoPoint, rng: &mut StdRng) -> GeoPoint {
        let (dx, dy) = gaussian_pair(rng, self.cfg.gps_sigma_m);
        p.destination(90.0, dx).destination(0.0, dy)
    }
}

/// A pair of independent N(0, sigma²) draws via Box–Muller.
fn gaussian_pair(rng: &mut StdRng, sigma: f64) -> (f64, f64) {
    let u1: f64 = rng.random_range(1e-12_f64..1.0);
    let u2: f64 = rng.random_range(0.0_f64..1.0);
    let r = (-2.0 * u1.ln()).sqrt() * sigma;
    let th = 2.0 * std::f64::consts::PI * u2;
    (r * th.cos(), r * th.sin())
}

fn is_loop_free(nodes: &[NodeId]) -> bool {
    let mut seen: Vec<NodeId> = nodes.to_vec();
    seen.sort_unstable();
    seen.windows(2).all(|w| w[0] != w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};
    use stmaker_trajectory::{detect_stay_points, detect_u_turns, StayPointParams, UTurnParams};

    fn world() -> World {
        World::generate(WorldConfig::small(3))
    }

    #[test]
    fn trips_are_valid_and_deterministic() {
        let w = world();
        let g = TripGenerator::new(&w, TripConfig::default());
        let a = g.generate_corpus(5, 42);
        let b = g.generate_corpus(5, 42);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.raw, y.raw);
            assert_eq!(x.truth.route_nodes, y.truth.route_nodes);
        }
        for t in &a {
            assert!(t.raw.len() >= 2);
            assert!(t.raw.duration_secs() > 0);
            assert!(t.raw.length_m() >= 1_000.0, "trip too short: {}", t.raw.length_m());
        }
    }

    #[test]
    fn night_trips_are_faster_than_rush_trips() {
        let w = world();
        let g = TripGenerator::new(&w, TripConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let avg = |hour: f64, rng: &mut StdRng| {
            let mut speeds = Vec::new();
            for _ in 0..15 {
                if let Some(t) = g.generate_at(0, hour, rng) {
                    speeds.push(t.raw.length_m() / t.raw.duration_secs().max(1) as f64 * 3.6);
                }
            }
            speeds.iter().sum::<f64>() / speeds.len() as f64
        };
        let night = avg(2.0, &mut rng);
        let rush = avg(8.0, &mut rng);
        assert!(night > rush * 1.3, "night {night:.1} km/h vs rush {rush:.1} km/h");
    }

    #[test]
    fn injected_stays_are_detectable() {
        let w = world();
        let g = TripGenerator::new(&w, TripConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        let mut found = 0;
        let mut injected = 0;
        for _ in 0..20 {
            let Some(t) = g.generate_at(0, 8.5, &mut rng) else { continue };
            injected += t.truth.stays.len();
            let det = detect_stay_points(&t.raw, StayPointParams::default());
            for (loc, _) in &t.truth.stays {
                if det.iter().any(|s| s.centroid.haversine_m(loc) < 120.0) {
                    found += 1;
                }
            }
        }
        assert!(injected > 0, "rush-hour trips must inject stays");
        assert!(
            found as f64 >= 0.8 * injected as f64,
            "only {found}/{injected} injected stays detected"
        );
    }

    #[test]
    fn injected_u_turns_are_detectable() {
        let w = world();
        let g = TripGenerator::new(&w, TripConfig::default());
        let mut rng = StdRng::seed_from_u64(13);
        let mut found = 0;
        let mut injected = 0;
        for _ in 0..40 {
            let Some(t) = g.generate_at(0, 8.5, &mut rng) else { continue };
            injected += t.truth.u_turns.len();
            let det = detect_u_turns(&t.raw, UTurnParams::default());
            for loc in &t.truth.u_turns {
                if det.iter().any(|u| u.point.haversine_m(loc) < 200.0) {
                    found += 1;
                }
            }
        }
        assert!(injected > 0, "rush-hour trips must inject U-turns");
        assert!(
            found as f64 >= 0.7 * injected as f64,
            "only {found}/{injected} injected U-turns detected"
        );
    }

    #[test]
    fn detours_happen_and_are_loop_free() {
        let w = world();
        let g = TripGenerator::new(&w, TripConfig::default());
        let mut rng = StdRng::seed_from_u64(17);
        let mut detoured = 0;
        for _ in 0..40 {
            if let Some(t) = g.generate_at(0, 8.0, &mut rng) {
                if t.truth.detoured {
                    detoured += 1;
                }
                assert!(is_loop_free(&t.truth.route_nodes) || !t.truth.detoured);
            }
        }
        assert!(detoured > 0, "rush hours must produce some detours");
    }

    #[test]
    fn sampling_interval_is_heterogeneous() {
        let w = world();
        let g = TripGenerator::new(&w, TripConfig::default());
        let corpus = g.generate_corpus(10, 99);
        let mut intervals = std::collections::HashSet::new();
        for t in &corpus {
            let pts = t.raw.points();
            if pts.len() >= 3 {
                intervals.insert(pts[1].t.0 - pts[0].t.0);
            }
        }
        assert!(intervals.len() >= 2, "sampling intervals should vary: {intervals:?}");
    }

    #[test]
    fn gaussian_pair_is_centered() {
        let mut rng = StdRng::seed_from_u64(1);
        let (mut sx, mut sy, n) = (0.0, 0.0, 2_000);
        for _ in 0..n {
            let (x, y) = gaussian_pair(&mut rng, 5.0);
            sx += x;
            sy += y;
        }
        assert!((sx / n as f64).abs() < 0.5);
        assert!((sy / n as f64).abs() < 0.5);
    }
}
