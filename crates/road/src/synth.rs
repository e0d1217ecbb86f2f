//! Synthetic hierarchical city builder.
//!
//! Stands in for the paper's commercial Beijing map (DESIGN.md §3). The city
//! is a Manhattan-style grid with a realistic road hierarchy:
//!
//! * a **ring highway** (grade 1) around the perimeter,
//! * **express arterials** (grade 2) every `arterial_every` rows/columns,
//! * ordinary streets graded 3–5, better grades nearer the centre,
//! * minor roads (grades 5–7) on the remaining links, a configurable
//!   fraction of which are one-way.
//!
//! All randomness comes from a seeded [`StdRng`], so a given config always
//! produces byte-identical cities — every experiment in the repository is
//! reproducible.

use crate::network::RoadNetwork;
use crate::types::{Direction, RoadGrade};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use stmaker_geo::GeoPoint;

/// Configuration for [`build_city`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthCityConfig {
    /// South-west corner of the city.
    pub origin: GeoPoint,
    /// Number of grid columns of intersections (≥ 2).
    pub cols: usize,
    /// Number of grid rows of intersections (≥ 2).
    pub rows: usize,
    /// Block edge length in metres.
    pub block_m: f64,
    /// Every `arterial_every`-th row/column is an express arterial.
    pub arterial_every: usize,
    /// Fraction of minor (grade ≥ 5) roads made one-way, `[0, 1]`.
    pub one_way_fraction: f64,
    /// RNG seed; equal seeds give byte-identical cities.
    pub seed: u64,
}

impl Default for SynthCityConfig {
    fn default() -> Self {
        Self {
            origin: GeoPoint::new(39.80, 116.25), // SW Beijing-ish
            cols: 16,
            rows: 16,
            block_m: 500.0,
            arterial_every: 4,
            one_way_fraction: 0.12,
            seed: 0x57_4D_41_4B, // "STMAK"
        }
    }
}

impl SynthCityConfig {
    /// A small city for unit tests (fast, still hierarchical).
    pub fn small(seed: u64) -> Self {
        Self { cols: 8, rows: 8, arterial_every: 3, seed, ..Self::default() }
    }
}

/// English ordinal ("1st", "2nd", "3rd", "4th", …) for road names.
fn ordinal(n: usize) -> String {
    let suffix = match (n % 10, n % 100) {
        (1, 11) | (2, 12) | (3, 13) => "th",
        (1, _) => "st",
        (2, _) => "nd",
        (3, _) => "rd",
        _ => "th",
    };
    format!("{n}{suffix}")
}

/// Deterministically builds a city road network from `cfg`.
///
/// Intersections are laid out on a `rows × cols` grid with `block_m` spacing;
/// every link between adjacent intersections becomes a [`RoadEdge`](crate::RoadEdge) whose
/// grade, width, direction and name follow the hierarchy described in the
/// module docs.
pub fn build_city(cfg: &SynthCityConfig) -> RoadNetwork {
    assert!(cfg.cols >= 2 && cfg.rows >= 2, "city needs at least a 2x2 grid");
    assert!(cfg.block_m > 0.0, "block size must be positive");
    assert!((0.0..=1.0).contains(&cfg.one_way_fraction), "one_way_fraction in [0,1]");
    assert!(cfg.arterial_every >= 1, "arterial_every must be at least 1");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut net = RoadNetwork::new();

    // Lay out intersections. Small positional jitter (< 6 m) keeps geometry
    // from being perfectly axis-aligned without disturbing the topology.
    let mut ids = Vec::with_capacity(cfg.rows * cfg.cols);
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            let east = cfg.block_m * c as f64 + rng.random_range(-6.0..6.0);
            let north = cfg.block_m * r as f64 + rng.random_range(-6.0..6.0);
            let p = cfg.origin.destination(90.0, east).destination(0.0, north);
            ids.push(net.add_node(p));
        }
    }
    let at = |r: usize, c: usize| ids[r * cfg.cols + c];

    let center_r = (cfg.rows - 1) as f64 / 2.0;
    let center_c = (cfg.cols - 1) as f64 / 2.0;
    let max_rad = center_r.hypot(center_c).max(1.0);

    let grade_for = |is_ring: bool, is_arterial: bool, r: f64, c: f64, rng: &mut StdRng| {
        if is_ring {
            return RoadGrade::Highway;
        }
        if is_arterial {
            return RoadGrade::Express;
        }
        // Streets: closer to the centre → better grade, with jitter.
        let rad = ((r - center_r).hypot(c - center_c)) / max_rad; // 0 centre, 1 corner
        let noise: f64 = rng.random_range(-0.18..0.18);
        let v = (rad + noise).clamp(0.0, 1.0);
        match v {
            v if v < 0.22 => RoadGrade::National,
            v if v < 0.45 => RoadGrade::Provincial,
            v if v < 0.68 => RoadGrade::County,
            v if v < 0.86 => RoadGrade::Village,
            _ => RoadGrade::Feeder,
        }
    };

    let add_link = |net: &mut RoadNetwork,
                    a: (usize, usize),
                    b: (usize, usize),
                    name: String,
                    is_ring: bool,
                    is_arterial: bool,
                    rng: &mut StdRng| {
        let mid_r = (a.0 + b.0) as f64 / 2.0;
        let mid_c = (a.1 + b.1) as f64 / 2.0;
        let grade = grade_for(is_ring, is_arterial, mid_r, mid_c, rng);
        let width = grade.typical_width_m() * rng.random_range(0.85..1.15);
        let direction = if grade >= RoadGrade::County && rng.random_bool(cfg.one_way_fraction) {
            Direction::OneWay
        } else {
            Direction::TwoWay
        };
        // Randomize one-way orientation by occasionally swapping endpoints.
        let (from, to) = if direction == Direction::OneWay && rng.random_bool(0.5) {
            (at(b.0, b.1), at(a.0, a.1))
        } else {
            (at(a.0, a.1), at(b.0, b.1))
        };
        net.add_edge(from, to, grade, width, direction, name);
    };

    // Horizontal links.
    for r in 0..cfg.rows {
        let is_ring = r == 0 || r == cfg.rows - 1;
        let is_arterial = !is_ring && r % cfg.arterial_every == 0;
        for c in 0..cfg.cols - 1 {
            let name = if is_ring {
                if r == 0 {
                    "S Ring Expressway".to_string()
                } else {
                    "N Ring Expressway".to_string()
                }
            } else if is_arterial {
                format!("E {} Avenue", ordinal(r))
            } else {
                format!("Street {}-{}", r, c)
            };
            add_link(&mut net, (r, c), (r, c + 1), name, is_ring, is_arterial, &mut rng);
        }
    }
    // Vertical links.
    for c in 0..cfg.cols {
        let is_ring = c == 0 || c == cfg.cols - 1;
        let is_arterial = !is_ring && c % cfg.arterial_every == 0;
        for r in 0..cfg.rows - 1 {
            let name = if is_ring {
                if c == 0 {
                    "W Ring Expressway".to_string()
                } else {
                    "E Ring Expressway".to_string()
                }
            } else if is_arterial {
                format!("N {} Avenue", ordinal(c))
            } else {
                format!("Lane {}-{}", r, c)
            };
            add_link(&mut net, (r, c), (r + 1, c), name, is_ring, is_arterial, &mut rng);
        }
    }

    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathfind::{PathCost, PathSearch};

    #[test]
    fn city_has_expected_topology() {
        let cfg = SynthCityConfig::small(7);
        let net = build_city(&cfg);
        assert_eq!(net.node_count(), 64);
        // Grid of R x C has R*(C-1) + C*(R-1) links.
        assert_eq!(net.edge_count(), 8 * 7 * 2);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = SynthCityConfig::small(42);
        let a = build_city(&cfg);
        let b = build_city(&cfg);
        assert_eq!(a.edge_count(), b.edge_count());
        for (x, y) in a.edges().iter().zip(b.edges()) {
            assert_eq!(x.grade, y.grade);
            assert_eq!(x.direction, y.direction);
            assert_eq!(x.width_m, y.width_m);
            assert_eq!(x.name, y.name);
        }
        let c = build_city(&SynthCityConfig::small(43));
        let differs = a
            .edges()
            .iter()
            .zip(c.edges())
            .any(|(x, y)| x.grade != y.grade || x.width_m != y.width_m);
        assert!(differs, "different seeds should differ somewhere");
    }

    #[test]
    fn ring_is_highway_and_interior_arterials_express() {
        let cfg = SynthCityConfig::small(7);
        let net = build_city(&cfg);
        let ring: Vec<_> = net.edges().iter().filter(|e| e.name.contains("Ring")).collect();
        assert!(!ring.is_empty());
        assert!(ring.iter().all(|e| e.grade == RoadGrade::Highway));
        let avenues: Vec<_> = net.edges().iter().filter(|e| e.name.contains("Avenue")).collect();
        assert!(!avenues.is_empty());
        assert!(avenues.iter().all(|e| e.grade == RoadGrade::Express));
    }

    #[test]
    fn grade_mix_is_hierarchical() {
        let net = build_city(&SynthCityConfig::default());
        let mut counts = [0usize; 8];
        for e in net.edges() {
            counts[e.grade.code() as usize] += 1;
        }
        // Every grade is represented in the default city.
        for g in RoadGrade::ALL {
            assert!(counts[g.code() as usize] > 0, "missing grade {g:?}");
        }
        // Minor roads outnumber highways.
        assert!(counts[5] + counts[6] + counts[7] > counts[1]);
    }

    #[test]
    fn one_way_fraction_roughly_respected() {
        let cfg = SynthCityConfig { one_way_fraction: 0.5, ..SynthCityConfig::default() };
        let net = build_city(&cfg);
        let minor: Vec<_> = net.edges().iter().filter(|e| e.grade >= RoadGrade::County).collect();
        let one_way = minor.iter().filter(|e| e.direction == Direction::OneWay).count();
        let frac = one_way as f64 / minor.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "one-way fraction {frac}");
        // Graded < County roads are never one-way.
        assert!(net
            .edges()
            .iter()
            .filter(|e| e.grade < RoadGrade::County)
            .all(|e| e.direction == Direction::TwoWay));
    }

    #[test]
    fn city_is_mostly_strongly_connected() {
        // One-way minor roads may strand a handful of nodes, but the bulk of
        // the city must be mutually reachable or the generator cannot route.
        let net = build_city(&SynthCityConfig::small(123));
        let mut search = PathSearch::new(&net, PathCost::Distance);
        let src = net.nodes()[0].id;
        let reachable =
            net.nodes().iter().filter(|n| search.shortest_path(src, n.id).is_some()).count();
        assert!(
            reachable as f64 >= 0.95 * net.node_count() as f64,
            "only {reachable}/{} reachable",
            net.node_count()
        );
    }

    #[test]
    fn widths_jitter_around_grade_typical() {
        let net = build_city(&SynthCityConfig::default());
        for e in net.edges() {
            let t = e.grade.typical_width_m();
            assert!(e.width_m >= t * 0.85 - 1e-9 && e.width_m <= t * 1.15 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "2x2")]
    fn degenerate_grid_rejected() {
        let cfg = SynthCityConfig { cols: 1, ..SynthCityConfig::default() };
        build_city(&cfg);
    }
}
