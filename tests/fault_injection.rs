//! Fault-injection suite: corrupt valid trajectories in controlled ways and
//! assert the ingest-hardening contract — `Strict` rejects with a typed
//! error, `Repair`/`DropBad` always produce valid segments, and the full
//! pipeline (sanitize → summarize, streaming, mixed batches) never panics
//! no matter what arrives.

use stmaker_generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_geo::GeoPoint;
use stmaker_suite::{
    standard_features, FeatureWeights, OutOfOrderPolicy, StreamConfig, StreamingSummarizer,
    SummarizeError, Summarizer, SummarizerConfig,
};
use stmaker_trajectory::{
    sanitize, RawPoint, RawTrajectory, RawView, SanitizeConfig, SanitizePolicy, TrajectoryError,
};

/// One shared small world + trip corpus for all tests in this file.
struct Harness {
    world: World,
}

impl Harness {
    fn new() -> Self {
        Self { world: World::generate(WorldConfig::small(77)) }
    }

    fn corpus(&self, n: usize, seed: u64) -> Vec<Vec<RawPoint>> {
        let gen = TripGenerator::new(&self.world, TripConfig::default());
        gen.generate_corpus(n, seed).into_iter().map(|t| t.raw.points().to_vec()).collect()
    }

    fn summarizer<'w>(&'w self, train: &[RawTrajectory]) -> Summarizer<'w> {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        Summarizer::train(
            &self.world.net,
            &self.world.registry,
            train,
            features,
            weights,
            SummarizerConfig::default(),
        )
    }
}

/// Deterministic pseudo-random stream (LCG) so every corruption variant is
/// reproducible without threading a seed through the test framework.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Corruption {
    InjectNan,
    OutOfRange,
    DuplicatePoint,
    ShuffleWindow,
    TeleportSpike,
}

const ALL_CORRUPTIONS: [Corruption; 5] = [
    Corruption::InjectNan,
    Corruption::OutOfRange,
    Corruption::DuplicatePoint,
    Corruption::ShuffleWindow,
    Corruption::TeleportSpike,
];

/// Applies one corruption to `pts` at an interior position chosen by `rng`.
fn corrupt(pts: &mut Vec<RawPoint>, c: Corruption, rng: &mut Lcg) {
    let i = 1 + rng.below(pts.len().saturating_sub(3));
    match c {
        Corruption::InjectNan => {
            // Struct literal: GeoPoint::new asserts, but serde and direct
            // field writes are how NaN actually arrives.
            pts[i].point = GeoPoint { lat: f64::NAN, lon: pts[i].point.lon };
        }
        Corruption::OutOfRange => {
            pts[i].point = GeoPoint { lat: 95.0, lon: pts[i].point.lon };
        }
        Corruption::DuplicatePoint => {
            let p = pts[i];
            pts.insert(i, p);
        }
        Corruption::ShuffleWindow => {
            // Reverse a 3-sample window: strictly increasing timestamps
            // become locally decreasing.
            if i + 2 < pts.len() {
                pts.swap(i, i + 2);
            }
        }
        Corruption::TeleportSpike => {
            // ~200 km jump and back within one sampling interval.
            pts[i].point = GeoPoint::new(41.5, 118.9);
        }
    }
}

/// Whether `pts` are strictly increasing in time (a `ShuffleWindow` on
/// plateaued timestamps would otherwise be a no-op corruption).
fn strictly_increasing(pts: &[RawPoint]) -> bool {
    pts.windows(2).all(|w| w[0].t < w[1].t)
}

#[test]
fn strict_rejects_every_corruption_class_with_typed_errors() {
    let h = Harness::new();
    let trips = h.corpus(10, 4242);
    let cfg = SanitizeConfig::with_policy(SanitizePolicy::Strict);
    let mut rng = Lcg(0xFA57);
    let mut checked = 0;
    for (ti, base) in trips.iter().enumerate() {
        if !strictly_increasing(base) || base.len() < 8 {
            continue;
        }
        for (ci, c) in ALL_CORRUPTIONS.iter().enumerate() {
            let mut pts = base.clone();
            corrupt(&mut pts, *c, &mut Lcg(rng.next() ^ (ti * 31 + ci) as u64));
            let err = sanitize(&pts, &cfg).expect_err("strict must reject the corruption");
            match c {
                Corruption::InjectNan => {
                    assert!(matches!(err, TrajectoryError::NonFiniteCoordinate { .. }), "{err:?}")
                }
                Corruption::OutOfRange => {
                    assert!(matches!(err, TrajectoryError::OutOfRangeCoordinate { .. }), "{err:?}")
                }
                Corruption::DuplicatePoint => {
                    assert!(matches!(err, TrajectoryError::DuplicateTimestamp { .. }), "{err:?}")
                }
                Corruption::ShuffleWindow => {
                    assert!(matches!(err, TrajectoryError::OutOfOrderTimestamp { .. }), "{err:?}")
                }
                Corruption::TeleportSpike => {
                    assert!(matches!(err, TrajectoryError::Teleport { .. }), "{err:?}")
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 25, "only {checked} strict rejections exercised");
}

#[test]
fn repair_round_trips_and_pipeline_never_panics_over_many_variants() {
    let h = Harness::new();
    let trips = h.corpus(30, 9091);
    let train: Vec<RawTrajectory> =
        h.corpus(40, 1001).into_iter().map(RawTrajectory::new).collect();
    let summarizer = h.summarizer(&train);

    let mut rng = Lcg(0xC0FFEE);
    let mut variants = 0;
    let mut summarized = 0;
    for round in 0..5 {
        for (ti, base) in trips.iter().enumerate() {
            if base.len() < 8 {
                continue;
            }
            let mut pts = base.clone();
            // 1–3 stacked corruptions per variant.
            let n_corruptions = 1 + (round + ti) % 3;
            for _ in 0..n_corruptions {
                let c = ALL_CORRUPTIONS[rng.below(ALL_CORRUPTIONS.len())];
                corrupt(&mut pts, c, &mut rng);
            }
            variants += 1;

            for policy in [SanitizePolicy::Repair, SanitizePolicy::DropBad] {
                let cleaned = sanitize(&pts, &SanitizeConfig::with_policy(policy))
                    .expect("lenient policies never error");
                // Round-trip: every surviving segment is a valid trajectory.
                for seg in &cleaned.segments {
                    RawView::try_new(seg).expect("sanitized segment must validate");
                }
                assert!(
                    cleaned.report.points_out <= cleaned.report.points_in,
                    "sanitization must never invent samples"
                );
                // End-to-end: summarizing the repaired trip must not panic —
                // failure is allowed (a heavily shredded trip may not
                // calibrate), but only as a typed error.
                if policy == SanitizePolicy::Repair {
                    if let Some(longest) = cleaned.longest() {
                        if summarizer.summarize(longest, None).is_ok() {
                            summarized += 1;
                        }
                    }
                }
            }
            // The un-sanitized corrupt buffer must also be a typed error (or
            // a fluke success), never a panic.
            let _ = summarizer.summarize(&pts, None);
        }
    }
    assert!(variants >= 100, "only {variants} corruption variants exercised");
    assert!(summarized >= variants / 2, "repair salvaged only {summarized}/{variants} variants");
}

#[test]
fn streaming_try_push_never_panics_and_counts_drops() {
    let h = Harness::new();
    let train: Vec<RawTrajectory> =
        h.corpus(40, 1001).into_iter().map(RawTrajectory::new).collect();
    let summarizer = h.summarizer(&train);
    let trips = h.corpus(4, 777);
    let base = trips.iter().max_by_key(|t| t.len()).expect("corpus is non-empty");

    let mut pts = base.clone();
    let mut rng = Lcg(0x5EED);
    for c in ALL_CORRUPTIONS {
        corrupt(&mut pts, c, &mut rng);
    }

    // Drop policy: every defective sample is shed and counted, the stream
    // survives to a finishable state.
    let mut stream =
        StreamingSummarizer::try_new(StreamConfig::default()).expect("default config validates");
    for p in &pts {
        let _ = stream.try_push(&summarizer, *p).expect("drop policy never errors");
    }
    let (late, invalid) = stream.dropped();
    assert!(invalid >= 1, "the injected NaN must be counted, got {invalid}");
    assert!(late >= 1, "the shuffled window must shed a late sample, got {late}");
    assert!(stream.len() < pts.len(), "defective samples must not be buffered");
    stream.finish(&summarizer).expect("the surviving prefix must summarize");

    // Reject policy: defects surface as typed errors and the stream remains
    // usable afterwards.
    let reject_cfg =
        StreamConfig { out_of_order: OutOfOrderPolicy::Reject, ..StreamConfig::default() };
    let mut stream = StreamingSummarizer::try_new(reject_cfg).expect("config validates");
    let mut errors = 0;
    for p in &pts {
        if stream.try_push(&summarizer, *p).is_err() {
            errors += 1;
        }
    }
    assert!(errors >= 2, "reject policy must surface the defects, got {errors}");
    assert_eq!(stream.dropped(), (0, 0), "reject mode reports, it does not silently drop");
    stream.finish(&summarizer).expect("the stream must stay usable after rejections");
}

#[test]
fn mixed_batch_is_deterministic_and_degrades_per_trip() {
    let h = Harness::new();
    let train: Vec<RawTrajectory> =
        h.corpus(40, 1001).into_iter().map(RawTrajectory::new).collect();
    let mut batch = h.corpus(8, 3131);
    // Corrupt every odd-indexed trip beyond repair-free summarization.
    let mut rng = Lcg(0xBA7C4);
    for (i, pts) in batch.iter_mut().enumerate() {
        if i % 2 == 1 {
            corrupt(pts, Corruption::InjectNan, &mut rng);
        }
    }
    batch.push(Vec::new()); // empty buffer: TooFewPoints
    batch.push(batch[0][..1].to_vec()); // single sample: TooFewPoints

    let run = |threads: usize| -> Vec<Result<String, String>> {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        let summarizer = Summarizer::train(
            &h.world.net,
            &h.world.registry,
            &train,
            features,
            weights,
            SummarizerConfig::default().with_threads(threads),
        );
        summarizer
            .summarize_batch(&batch, None)
            .into_iter()
            .map(|r| r.map(|s| s.text).map_err(|e| e.to_string()))
            .collect()
    };

    let single = run(1);
    assert_eq!(single.len(), batch.len());
    for (i, r) in single.iter().enumerate() {
        if i % 2 == 1 && i < batch.len() - 2 {
            let e = r.as_ref().expect_err("corrupt trips must fail");
            assert!(e.contains("invalid trajectory input"), "{e}");
        }
    }
    // The two trailing degenerate buffers are Input errors, not panics.
    for r in &single[batch.len() - 2..] {
        assert!(r.as_ref().expect_err("degenerate buffer").contains("at least two"));
    }
    // PR 3's byte-identity contract holds for the fallible batch path too.
    for threads in [2, 4] {
        assert_eq!(run(threads), single, "results diverged at {threads} threads");
    }
}

#[test]
fn summarize_points_is_fallible_not_panicking() {
    let h = Harness::new();
    let train: Vec<RawTrajectory> =
        h.corpus(40, 1001).into_iter().map(RawTrajectory::new).collect();
    let summarizer = h.summarizer(&train);

    let err = summarizer.summarize(&[], None).expect_err("empty buffer");
    assert!(matches!(err, SummarizeError::Input(TrajectoryError::TooFewPoints { got: 0 })));

    let mut pts = h.corpus(1, 55).remove(0);
    pts[2].point = GeoPoint { lat: f64::INFINITY, lon: pts[2].point.lon };
    let err = summarizer.summarize(&pts, None).expect_err("inf coordinate");
    assert!(matches!(
        err,
        SummarizeError::Input(TrajectoryError::NonFiniteCoordinate { index: 2 })
    ));
}
