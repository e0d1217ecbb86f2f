//! Pins the bytes of generated worlds.
//!
//! Every world-dependent artefact (models, summaries, the benchmark's golden
//! digests) starts from `World::generate`, so any change to how a world is
//! built must leave these digests alone. The digest covers each POI, each
//! landmark (id, coordinate bits, name, kind and size, significance bits),
//! the POI→landmark map, the hot nodes and 1,000 taxi-demand draws from a
//! fixed-seed RNG.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stmaker_generator::{World, WorldConfig};
use stmaker_poi::LandmarkKind;

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn world_digest(cfg: WorldConfig) -> u64 {
    let w = World::generate(cfg);
    let mut h = Fnv::new();
    h.u64(w.pois.len() as u64);
    for p in &w.pois {
        h.u64(u64::from(p.id.0));
        h.f64(p.point.lat);
        h.f64(p.point.lon);
        h.str(&p.name);
        h.str(p.category.noun());
        h.f64(p.popularity);
    }
    h.u64(w.registry.len() as u64);
    for l in w.registry.landmarks() {
        h.u64(u64::from(l.id.0));
        h.f64(l.point.lat);
        h.f64(l.point.lon);
        h.str(&l.name);
        match l.kind {
            LandmarkKind::PoiCluster { size } => {
                h.u64(1);
                h.u64(size as u64);
            }
            LandmarkKind::TurningPoint => h.u64(2),
        }
        h.f64(l.significance);
    }
    for i in 0..w.pois.len() {
        h.u64(w.registry.landmark_of_poi(i).map_or(u64::MAX, |l| u64::from(l.0)));
    }
    h.u64(w.hot_nodes.len() as u64);
    for n in &w.hot_nodes {
        h.u64(u64::from(n.0));
    }
    let mut rng = StdRng::seed_from_u64(0xD16E57);
    for _ in 0..1_000 {
        match w.sample_demand_endpoint(&mut rng) {
            Some((node, lm)) => {
                h.u64(u64::from(node.0));
                h.u64(u64::from(lm.0));
            }
            None => h.u64(u64::MAX),
        }
    }
    h.0
}

#[test]
fn small_world_5_digest_is_pinned() {
    assert_eq!(world_digest(WorldConfig::small(5)), 13_077_656_380_731_625_374);
}

#[test]
fn small_world_11_digest_is_pinned() {
    assert_eq!(world_digest(WorldConfig::small(11)), 10_588_742_358_010_305_160);
}

#[test]
fn default_world_digest_is_pinned() {
    assert_eq!(world_digest(WorldConfig::default()), 16_383_074_703_099_683_733);
}

#[test]
fn default_world_seed_99_digest_is_pinned() {
    assert_eq!(
        world_digest(WorldConfig { seed: 99, ..WorldConfig::default() }),
        8_834_913_670_199_275_732
    );
}
