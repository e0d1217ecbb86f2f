//! Pins the bytes of generated summaries.
//!
//! A summary is a deterministic function of (model, registry, trip), so
//! any change to how trips or models are decoded, or to how a summary is
//! computed, must leave these digests alone unless it means to change what
//! a summary says. Each digest covers the summaries of one seeded trip
//! family (default sampling, dense sampling, hub-to-hub) at the default
//! granularity and at k = 1..4, for the trips decoded from CSV and from
//! STC1. The digest is the same whether the model is the one training
//! produced or its STC1 round trip.

use stmaker_generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_io::{
    read_model_stc, read_trajectory_csv, read_trips_stc, write_model_stc, write_trajectory_csv,
    write_trips_stc,
};
use stmaker_suite::{standard_features, FeatureWeights, Summarizer, SummarizerConfig, Summary};
use stmaker_trajectory::RawTrajectory;

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

    /// Everything a summary reports: its text, its partitions and, per
    /// selected feature, the rate, observation and historical value that
    /// earned it a place.
    fn summary(&mut self, s: &Summary) {
        self.str(&s.text);
        self.u64(s.symbolic_len as u64);
        self.f64(s.potential);
        self.u64(s.partitions.len() as u64);
        for p in &s.partitions {
            self.u64(p.span.seg_start as u64);
            self.u64(p.span.seg_end as u64);
            self.u64(u64::from(p.from.0));
            self.u64(u64::from(p.to.0));
            self.u64(p.selected.len() as u64);
            for f in &p.selected {
                self.str(&f.key);
                self.f64(f.irregular_rate);
                self.f64(f.observed);
                self.f64(f.regular.unwrap_or(f64::NAN));
            }
        }
    }
}

/// The three trip families: default sampling, dense (1–3 s) sampling,
/// and sparse hub-to-hub trips.
fn families() -> [(&'static str, TripConfig, u64); 3] {
    let default = TripConfig::default();
    [
        ("default", default, 3_001),
        ("dense", TripConfig { sample_interval_s: (1, 3), ..default }, 3_002),
        ("hub", TripConfig { sample_interval_s: (20, 40), hub_bias: 0.95, ..default }, 3_003),
    ]
}

/// The digest of every summary of `trips`, read back from CSV and from
/// STC1, at the default granularity and at k = 1..4, and how many of those
/// summaries succeeded.
fn digest(summarizer: &Summarizer<'_>, trips: &[RawTrajectory]) -> (u64, usize) {
    let from_csv: Vec<RawTrajectory> = trips
        .iter()
        .map(|t| read_trajectory_csv(&write_trajectory_csv(t)).expect("own CSV decodes"))
        .collect();
    let from_stc = read_trips_stc(&write_trips_stc(trips)).expect("own STC1 decodes");
    let mut h = Fnv::new();
    let mut ok = 0;
    for decoded in [&from_csv, &from_stc] {
        for trip in decoded {
            for k in [None, Some(1), Some(2), Some(3), Some(4)] {
                match summarizer.summarize(trip.points(), k) {
                    Ok(s) => {
                        ok += 1;
                        h.summary(&s);
                    }
                    Err(e) => h.str(&e.to_string()),
                }
            }
        }
    }
    (h.0, ok)
}

#[test]
fn summaries_match_pinned_digests() {
    let world = World::generate(WorldConfig::small(41));
    let train: Vec<RawTrajectory> = TripGenerator::new(&world, TripConfig::default())
        .generate_corpus(80, 4_242)
        .into_iter()
        .map(|t| t.raw)
        .collect();
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let trained = Summarizer::train(
        &world.net,
        &world.registry,
        &train,
        features.clone(),
        weights.clone(),
        SummarizerConfig::default(),
    );
    let revived = Summarizer::try_from_model(
        &world.net,
        &world.registry,
        read_model_stc(&write_model_stc(trained.model())).expect("own model decodes"),
        features,
        weights,
        SummarizerConfig::default(),
    )
    .expect("registry matches");

    let mut got = Vec::new();
    for (name, cfg, seed) in families() {
        let trips: Vec<RawTrajectory> = TripGenerator::new(&world, cfg)
            .generate_corpus(6, seed)
            .into_iter()
            .map(|t| t.raw)
            .collect();
        let (d, ok) = digest(&trained, &trips);
        // 6 trips × 2 decodes × 5 granularities.
        assert!(ok >= 48, "{name}: only {ok} of 60 summaries succeeded");
        assert_eq!(digest(&revived, &trips), (d, ok), "{name}: STC1 model summaries diverged");
        got.push((name, d));
    }
    assert_eq!(
        got,
        [
            ("default", 0x1d2d_3988_abdc_0497),
            ("dense", 0x12d1_290d_a7a2_4618),
            ("hub", 0x288d_638f_c4b7_3538),
        ],
        "summary bytes drifted"
    );
}
