//! Cross-crate integration tests: the full STMaker pipeline over a generated
//! world — generate, train, summarize, and check structural invariants.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stmaker_generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_suite::{
    mentioned_keys, standard_features, summary_mentions, FeatureWeights, Summarizer,
    SummarizerConfig,
};
use stmaker_trajectory::RawTrajectory;

/// One shared small world + trained summarizer for all tests in this file.
struct Harness {
    world: World,
}

impl Harness {
    fn new() -> Self {
        Self { world: World::generate(WorldConfig::small(77)) }
    }

    fn corpora(&self, n_train: usize, n_test: usize) -> (Vec<RawTrajectory>, Vec<RawTrajectory>) {
        let gen = TripGenerator::new(&self.world, TripConfig::default());
        let train: Vec<RawTrajectory> =
            gen.generate_corpus(n_train, 1001).into_iter().map(|t| t.raw).collect();
        let test: Vec<RawTrajectory> =
            gen.generate_corpus(n_test, 2002).into_iter().map(|t| t.raw).collect();
        (train, test)
    }
}

#[test]
fn full_pipeline_produces_summaries() {
    let h = Harness::new();
    let (train, test) = h.corpora(60, 10);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );
    assert!(summarizer.model().n_trained >= 50, "most training trips should calibrate");

    let mut summarized = 0;
    for raw in &test {
        let Ok(summary) = summarizer.summarize(raw.points(), None) else { continue };
        summarized += 1;
        // Structural invariants.
        assert!(!summary.partitions.is_empty());
        assert!(!summary.text.is_empty());
        assert!(summary.text.starts_with("The car started from the "), "{}", summary.text);
        // Definition 5: every segment covered exactly once.
        let n_segs = summary.symbolic_len - 1;
        assert_eq!(summary.partitions[0].span.seg_start, 0);
        assert_eq!(summary.partitions.last().unwrap().span.seg_end, n_segs - 1);
        for w in summary.partitions.windows(2) {
            assert_eq!(w[0].span.seg_end + 1, w[1].span.seg_start);
            // Partition chaining: each partition starts where the last ended.
            assert_eq!(w[0].to, w[1].from);
        }
        // Every sentence ends with a period and mentions its endpoints.
        for p in &summary.partitions {
            assert!(p.sentence.ends_with('.'));
            assert!(p.sentence.contains(&p.from_name), "{}", p.sentence);
        }
    }
    assert!(summarized >= 8, "only {summarized}/10 test trips summarized");
}

#[test]
fn summaries_are_deterministic() {
    let h = Harness::new();
    let (train, test) = h.corpora(40, 5);
    let make = || {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        Summarizer::train(
            &h.world.net,
            &h.world.registry,
            &train,
            features,
            weights,
            SummarizerConfig::default(),
        )
    };
    let s1 = make();
    let s2 = make();
    for raw in &test {
        let a = s1.summarize(raw.points(), None).map(|s| s.text).unwrap_or_default();
        let b = s2.summarize(raw.points(), None).map(|s| s.text).unwrap_or_default();
        assert_eq!(a, b);
    }
}

#[test]
fn k_granularity_is_monotone_in_detail() {
    let h = Harness::new();
    let (train, test) = h.corpora(60, 20);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );

    let mut checked = 0;
    for raw in &test {
        let Ok(prepared) = summarizer.prepare(raw) else { continue };
        if prepared.symbolic.segment_count() < 3 {
            continue;
        }
        let s1 = summarizer.summarize_prepared(&prepared, Some(1)).unwrap();
        let s2 = summarizer.summarize_prepared(&prepared, Some(2)).unwrap();
        let s3 = summarizer.summarize_prepared(&prepared, Some(3)).unwrap();
        assert_eq!(s1.partitions.len(), 1);
        assert_eq!(s2.partitions.len(), 2);
        assert_eq!(s3.partitions.len(), 3);
        // The k-constrained potential can only improve as k approaches the
        // unconstrained optimum's partition count — and the k = |segments|
        // and k = 1 extremes must both be feasible.
        let max_k = prepared.symbolic.segment_count();
        assert!(summarizer.summarize_prepared(&prepared, Some(max_k)).is_ok());
        assert!(summarizer.summarize_prepared(&prepared, Some(max_k + 1)).is_err());
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} trips long enough for k-sweep");
}

#[test]
fn injected_events_surface_in_summaries() {
    let h = Harness::new();
    let gen = TripGenerator::new(&h.world, TripConfig::default());
    let train: Vec<RawTrajectory> =
        gen.generate_corpus(80, 3003).into_iter().map(|t| t.raw).collect();
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );

    // Rush-hour test trips carry injected stays; the summaries must mention
    // stay points for a solid majority of trips that actually had them.
    let mut rng = StdRng::seed_from_u64(4004);
    let mut with_stays = 0;
    let mut mentioned = 0;
    for _ in 0..40 {
        let Some(trip) = gen.generate_at(1, 8.5, &mut rng) else { continue };
        if trip.truth.stays.is_empty() {
            continue;
        }
        let Ok(summary) = summarizer.summarize(trip.raw.points(), None) else { continue };
        with_stays += 1;
        if summary_mentions(&summary, stmaker_suite::keys::STAY_POINTS) {
            mentioned += 1;
        }
    }
    assert!(with_stays >= 10, "need enough stay-bearing trips, got {with_stays}");
    // A single stay inside a long partition legitimately dilutes below η —
    // the paper itself observes that "irregular moving features of the
    // partial partition may not be significant enough for a long partition"
    // (Fig. 10(b) discussion) — so we require a solid plurality, not all.
    assert!(
        mentioned as f64 >= 0.3 * with_stays as f64,
        "stays mentioned in only {mentioned}/{with_stays} summaries"
    );
}

#[test]
fn night_trips_read_smoother_than_rush_trips() {
    let h = Harness::new();
    let gen = TripGenerator::new(&h.world, TripConfig::default());
    let train: Vec<RawTrajectory> =
        gen.generate_corpus(80, 5005).into_iter().map(|t| t.raw).collect();
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );

    let mut rng = StdRng::seed_from_u64(6006);
    let avg_mentions = |hour: f64, rng: &mut StdRng| {
        let mut total = 0usize;
        let mut n = 0usize;
        for _ in 0..25 {
            let Some(trip) = gen.generate_at(2, hour, rng) else { continue };
            let Ok(summary) = summarizer.summarize(trip.raw.points(), None) else { continue };
            total += mentioned_keys(&summary).len();
            n += 1;
        }
        total as f64 / n.max(1) as f64
    };
    let rush = avg_mentions(8.0, &mut rng);
    let night = avg_mentions(2.5, &mut rng);
    assert!(
        rush > night,
        "rush summaries should carry more irregular features: rush {rush:.2} vs night {night:.2}"
    );
}

#[test]
fn group_summarization_aggregates_rush_hour_corridor() {
    let h = Harness::new();
    let gen = TripGenerator::new(&h.world, TripConfig::default());
    let train: Vec<RawTrajectory> =
        gen.generate_corpus(60, 7007).into_iter().map(|t| t.raw).collect();
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );

    // A rush-hour group: anomalies must recur.
    let mut rng = StdRng::seed_from_u64(8008);
    let mut rush: Vec<RawTrajectory> = Vec::new();
    while rush.len() < 25 {
        if let Some(t) = gen.generate_at(4, 8.3, &mut rng) {
            rush.push(t.raw);
        }
    }
    let group = summarizer.summarize_group(&rush, 0.15).expect("summarizable group");
    assert_eq!(group.n_trajectories, 25);
    assert!(group.n_summarized >= 20);
    assert!(!group.recurring.is_empty(), "rush-hour groups have recurring anomalies");
    assert!(group.text.starts_with("Across "), "{}", group.text);
    assert!(group.text.contains('%'), "{}", group.text);
    for r in &group.recurring {
        assert!((0.15..=1.0).contains(&r.fraction));
    }
    // Fractions sorted descending.
    assert!(group.recurring.windows(2).all(|w| w[0].fraction >= w[1].fraction));

    // A night group over the same world: fewer (often zero) recurrences.
    let mut night: Vec<RawTrajectory> = Vec::new();
    while night.len() < 25 {
        if let Some(t) = gen.generate_at(4, 2.3, &mut rng) {
            night.push(t.raw);
        }
    }
    let night_group = summarizer.summarize_group(&night, 0.15).expect("summarizable group");
    // Routing flags (route-vs-popular) are time-independent; the moving
    // anomalies are what rush hours add, so compare those.
    let moving_mass = |g: &stmaker_suite::GroupSummary| -> f64 {
        g.recurring
            .iter()
            .filter(|r| {
                [
                    stmaker_suite::keys::SPEED,
                    stmaker_suite::keys::STAY_POINTS,
                    stmaker_suite::keys::U_TURNS,
                ]
                .contains(&r.key.as_str())
            })
            .map(|r| r.fraction)
            .sum()
    };
    let rush_flags = moving_mass(&group);
    let night_flags = moving_mass(&night_group);
    assert!(
        rush_flags > night_flags,
        "rush corridor must look worse than night: {rush_flags:.2} vs {night_flags:.2}"
    );
}

#[test]
fn model_persistence_round_trips_summaries() {
    let h = Harness::new();
    let (train, test) = h.corpora(40, 6);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let trained = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );

    // Save → load → summaries byte-identical, file canonical.
    let dir = std::env::temp_dir().join(format!("stmaker-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.stc");
    stmaker_io::write_model_file(&path, trained.model()).unwrap();
    let bytes_a = std::fs::read(&path).unwrap();

    let loaded = stmaker_io::read_model_file(&path).unwrap();
    assert_eq!(loaded.n_trained, trained.model().n_trained);
    let features2 = standard_features();
    let weights2 = FeatureWeights::uniform(&features2);
    let revived = Summarizer::try_from_model(
        &h.world.net,
        &h.world.registry,
        loaded,
        features2,
        weights2,
        SummarizerConfig::default(),
    )
    .expect("registry matches");
    for raw in &test {
        let a = trained.summarize(raw.points(), None).map(|s| s.text).unwrap_or_default();
        let b = revived.summarize(raw.points(), None).map(|s| s.text).unwrap_or_default();
        assert_eq!(a, b);
    }
    // Canonical encoding: saving the revived model reproduces the file.
    assert_eq!(stmaker_io::write_model_stc(revived.model()), bytes_a);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_summarizer_converges_to_batch() {
    use stmaker_suite::{StreamConfig, StreamingSummarizer};
    let h = Harness::new();
    let (train, _) = h.corpora(40, 1);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );

    let gen = TripGenerator::new(&h.world, TripConfig::default());
    let mut rng = StdRng::seed_from_u64(9009);
    let trip = (0..60).find_map(|_| gen.generate_at(2, 8.5, &mut rng)).expect("rush trip");

    let mut stream = StreamingSummarizer::try_new(StreamConfig::default()).expect("valid config");
    let mut refreshes = 0;
    let mut lengths = Vec::new();
    for p in trip.raw.points() {
        if let Ok(Some(summary)) = stream.try_push(&summarizer, *p) {
            refreshes += 1;
            lengths.push(summary.symbolic_len);
        }
    }
    assert_eq!(stream.dropped(), (0, 0), "a clean trip must not shed samples");
    assert!(refreshes >= 3, "a multi-km trip must refresh several times, got {refreshes}");
    // The live summary covers more and more of the trip.
    assert!(lengths.windows(2).all(|w| w[1] >= w[0]), "coverage must grow: {lengths:?}");
    assert_eq!(stream.len(), trip.raw.len());

    // Finalizing equals batch summarization of the same samples.
    let live = stream.finish(&summarizer).expect("summarizable");
    let batch = summarizer.summarize(trip.raw.points(), None).expect("summarizable");
    assert_eq!(live.text, batch.text);
}

#[test]
fn recorder_sees_every_pipeline_stage() {
    use stmaker_suite::Recorder;
    let h = Harness::new();
    let (train, test) = h.corpora(40, 5);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let obs = Recorder::enabled();
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default().with_recorder(obs.clone()),
    );

    let mut summarized = 0u64;
    for raw in &test {
        if summarizer.summarize(raw.points(), None).is_ok() {
            summarized += 1;
        }
    }
    assert!(summarized >= 1, "at least one test trip must summarize");

    let report = obs.report();
    let names = report.span_names();
    for stage in
        ["train", "summarize", "calibrate", "partition", "select", "popular_route", "render"]
    {
        assert!(names.contains(stage), "missing span `{stage}` in {names:?}");
    }
    // The root summarize span is called once per successful summarize (failed
    // calibrations still open the root span, so >=).
    let root_calls =
        report.spans.iter().find(|s| s.name == "summarize").map(|s| s.calls).unwrap_or(0);
    assert!(root_calls >= summarized, "summarize span calls {root_calls} < {summarized}");
    assert!(report.counters.get("partition.dp_cells").is_some_and(|&c| c > 0));
    assert!(report.counters.get("train.trajectories_ingested").is_some_and(|&c| c >= 30));

    // The JSON the CLI / eval binaries write round-trips through the
    // schema validator used by `cargo xtask obs-schema` and CI.
    let json = report.to_json_pretty();
    let validated = stmaker_suite::obs::report::validate_json(&json).expect("schema-valid report");
    assert!(validated.contains("partition"));

    // A disabled recorder stays silent end to end.
    let silent = Recorder::disabled();
    assert!(!silent.is_enabled());
    let empty = silent.report();
    assert!(empty.spans.is_empty() && empty.counters.is_empty());
}

#[test]
fn training_is_byte_identical_across_thread_counts() {
    let h = Harness::new();
    let (train, _) = h.corpora(80, 0);
    let make = |threads: usize| {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        let s = Summarizer::train(
            &h.world.net,
            &h.world.registry,
            &train,
            features,
            weights,
            SummarizerConfig::default().with_threads(threads),
        );
        stmaker_io::write_model_stc(s.model())
    };
    // The determinism contract (DESIGN.md §10): shard structure is a
    // function of corpus size only and partials merge in shard order, so
    // the trained model cannot depend on the worker count.
    let reference = make(1);
    for threads in [2, 3, 4, 8] {
        assert_eq!(make(threads), reference, "threads={threads} diverged from threads=1");
    }
}

#[test]
fn calibration_candidates_match_a_scan_of_every_landmark() {
    use stmaker_suite::geo::RTree;
    let h = Harness::new();
    let (train, test) = h.corpora(60, 15);
    let registry = &h.world.registry;
    // The registry's tree measures in a frame that depends only on the
    // landmark set; a tree over the same points has the same frame.
    let tree = RTree::build_points(registry.landmarks().iter().map(|l| (l.id, l.point)));
    let frame = tree.frame();

    // Calibration's corridor query: the raw polyline resampled at the
    // calibration radius, swept at 1.5 × that radius. Every landmark is
    // tested against every probe, as the tree's refine step tests them.
    let params = stmaker_suite::calibration::CalibrationParams::default();
    let sweep_m = params.radius_m * 1.5;
    for (i, raw) in train.iter().chain(&test).enumerate() {
        let probe = raw.polyline().resample(params.radius_m.max(1.0));
        let mut got = Vec::new();
        let mut stats = stmaker_suite::SpatialStats::default();
        registry.candidates_along(probe.points(), sweep_m, &mut got, &mut stats);
        let want: Vec<_> = registry
            .landmarks()
            .iter()
            .filter(|l| {
                probe
                    .points()
                    .iter()
                    .any(|q| frame.project_onto_segment(q, &l.point, &l.point).1 <= sweep_m)
            })
            .map(|l| l.id)
            .collect();
        assert!(!want.is_empty(), "trip {i} must pass near some landmark");
        assert_eq!(got, want, "trip {i} candidate set");
        assert!(stats.nodes_visited > 0);
    }
}

#[test]
fn summarize_batch_matches_individual_summaries() {
    let h = Harness::new();
    let (train, test) = h.corpora(60, 12);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default().with_threads(4),
    );

    for k in [None, Some(2)] {
        let batch = summarizer.summarize_batch(&test, k);
        assert_eq!(batch.len(), test.len(), "results are index-aligned with the input");
        for (raw, batched) in test.iter().zip(&batch) {
            match (batched, summarizer.summarize(raw.points(), k)) {
                (Ok(b), Ok(s)) => assert_eq!(b.text, s.text, "k = {k:?}"),
                (Err(b), Err(s)) => assert_eq!(b.to_string(), s.to_string(), "k = {k:?}"),
                (b, s) => panic!(
                    "batch {:?} vs individual {:?} disagree on success at k = {k:?}",
                    b.is_ok(),
                    s.is_ok()
                ),
            }
        }
    }
}

#[test]
fn summaries_identical_with_and_without_cache() {
    let h = Harness::new();
    let (train, test) = h.corpora(60, 15);
    let make = |threads: usize, route_cache: usize| {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        Summarizer::train(
            &h.world.net,
            &h.world.registry,
            &train,
            features,
            weights,
            SummarizerConfig::default().with_threads(threads).with_route_cache(route_cache),
        )
    };

    // The reference: no cache, one thread.
    let reference: Vec<Option<String>> = make(1, 0)
        .summarize_batch(&test, None)
        .into_iter()
        .map(|r| r.ok().map(|s| s.text))
        .collect();
    assert!(reference.iter().flatten().count() >= 10, "most test trips must summarize");

    // The cache memoizes pure functions of the trained model (DESIGN.md
    // §12), so summaries must be byte-identical at every thread count and
    // cache size — including a 2-route cache small enough that the batch
    // evicts constantly.
    for threads in [1, 2, 4] {
        for capacity in [256, 2] {
            let s = make(threads, capacity);
            let results = s.summarize_batch(&test, None);
            // Each partition makes exactly one `PR` lookup, and the cache
            // memoizes nothing else.
            let lookups: usize = results.iter().flatten().map(|s| s.partitions.len()).sum();
            let got: Vec<Option<String>> =
                results.into_iter().map(|r| r.ok().map(|s| s.text)).collect();
            assert_eq!(
                got, reference,
                "cache (cap {capacity}) at {threads} thread(s) changed summary bytes"
            );
            let stats = s.route_cache_stats().expect("cache enabled");
            assert!(stats.hits + stats.misses > 0, "batch must exercise the cache");
            assert_eq!(
                stats.hits + stats.misses,
                lookups as u64, // cast-ok: partition count
                "cache (cap {capacity}) at {threads} thread(s) counted non-route lookups"
            );
            if capacity == 2 {
                assert!(stats.evictions > 0, "a 2-route cache must evict on this corpus");
            } else {
                // A second pass over the same trips is answered from the
                // warm cache and still renders the same bytes.
                let warm: Vec<Option<String>> = s
                    .summarize_batch(&test, None)
                    .into_iter()
                    .map(|r| r.ok().map(|s| s.text))
                    .collect();
                assert_eq!(warm, reference, "warm cache at {threads} thread(s) changed bytes");
                let warm_stats = s.route_cache_stats().expect("cache enabled").since(&stats);
                assert!(warm_stats.hit_rate() >= 0.9, "warm hit rate {}", warm_stats.hit_rate());
            }
        }
    }
}

#[test]
fn single_trip_summaries_report_their_route_cache_lookups() {
    use stmaker_suite::Recorder;
    let h = Harness::new();
    let (train, test) = h.corpora(40, 8);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let obs = Recorder::enabled();
    let s = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default().with_route_cache(64).with_recorder(obs.clone()),
    );
    let before = s.route_cache_stats().expect("cache enabled");
    let counter = |name: &str| obs.report().counters.get(name).copied().unwrap_or(0);
    let (hits0, misses0) = (counter("cache.hits"), counter("cache.misses"));
    // Twice over the trips, at both granularities, so the second pass
    // hits what the first one missed.
    for _ in 0..2 {
        for (i, trip) in test.iter().enumerate() {
            let _ = s.summarize(trip.points(), (i % 2 == 1).then_some(2));
        }
    }
    let delta = s.route_cache_stats().expect("cache enabled").since(&before);
    assert!(delta.hits > 0 && delta.misses > 0, "the trips must both hit and miss: {delta:?}");
    assert_eq!(counter("cache.hits") - hits0, delta.hits);
    assert_eq!(counter("cache.misses") - misses0, delta.misses);
}

#[test]
fn batch_telemetry_reports_per_trip_spans() {
    use stmaker_suite::Recorder;
    let h = Harness::new();
    let (train, test) = h.corpora(40, 6);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let obs = Recorder::enabled();
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default().with_threads(2).with_recorder(obs.clone()),
    );
    let batch = summarizer.summarize_batch(&test, None);

    let report = obs.report();
    let names = report.span_names();
    assert!(names.contains("train.shard"), "missing per-shard train spans in {names:?}");
    assert!(names.contains("summarize_batch"), "missing batch root span in {names:?}");
    assert!(report.gauges.contains_key("exec.threads"));
    assert!(report.counters.contains_key("exec.tasks_stolen"));
    let trip_calls = report
        .spans
        .iter()
        .find(|s| s.name == "summarize_batch")
        .map(|s| {
            s.children
                .iter()
                .filter(|c| c.name == "summarize_batch.trip")
                .map(|c| c.calls)
                .sum::<u64>()
        })
        .unwrap_or(0);
    assert_eq!(trip_calls as usize, test.len(), "one trip span per input");
    let ok = report.counters.get("batch.summaries_ok").copied().unwrap_or(0);
    let failed = report.counters.get("batch.summaries_failed").copied().unwrap_or(0);
    assert_eq!((ok + failed) as usize, batch.len());
}

#[test]
fn batch_report_carries_exemplars_stage_merge_and_stable_bytes() {
    use stmaker_suite::Recorder;
    let h = Harness::new();
    let (train, test) = h.corpora(40, 8);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let obs = Recorder::enabled();
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default().with_threads(2).with_recorder(obs.clone()),
    );
    let batch = summarizer.summarize_batch(&test, None);
    let n_ok = batch.iter().filter(|r| r.is_ok()).count();
    assert!(n_ok > 0, "corpus must summarize for this test to bite");

    let report = obs.report();
    // Top-K slowest successful trips surface as exemplars with a full
    // stage breakdown, slowest first.
    let expect = n_ok.min(stmaker_obs::DEFAULT_EXEMPLAR_K);
    assert_eq!(report.exemplars.len(), expect, "{:?}", report.exemplars);
    for pair in report.exemplars.windows(2) {
        assert!(pair[0].total_ms >= pair[1].total_ms, "exemplars sorted slowest-first");
    }
    for e in &report.exemplars {
        assert!(e.id.starts_with("trip_"), "{}", e.id);
        for stage in ["calibrate", "extract", "partition", "select", "render"] {
            assert!(e.stages.contains_key(stage), "{} missing {stage}", e.id);
        }
    }
    // Worker-side stage counters are merged into the shared recorder
    // instead of being lost with the per-trip private recorders.
    assert!(report.counters.get("partition.segments_scanned").copied().unwrap_or(0) > 0);
    assert!(report.counters.get("calibrate.landmarks_matched").copied().unwrap_or(0) > 0);
    // The replayed trip spans carry the stage breakdown as children.
    let trip = report
        .spans
        .iter()
        .find(|s| s.name == "summarize_batch")
        .and_then(|s| s.children.iter().find(|c| c.name == "summarize_batch.trip"))
        .expect("trip span present");
    assert!(trip.children.iter().any(|c| c.name == "partition"), "{:?}", trip.children);
    // Exemplar replays surface as their own spans too.
    assert!(report.span_names().contains("exemplar.trip"), "{:?}", report.span_names());
    // Serialization is byte-stable and schema-valid.
    let json = report.to_json_pretty();
    assert_eq!(json, obs.report().to_json_pretty(), "same state renders to identical bytes");
    stmaker_obs::report::validate_json(&json).expect("report validates");
}

#[test]
fn logical_trace_is_byte_identical_across_thread_counts() {
    use stmaker_suite::Recorder;
    let h = Harness::new();
    let (train, test) = h.corpora(40, 6);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let run = |threads: usize| {
        let obs = Recorder::enabled_with_journal(stmaker_obs::DEFAULT_JOURNAL_CAPACITY);
        let summarizer = Summarizer::train(
            &h.world.net,
            &h.world.registry,
            &train,
            features.clone(),
            weights.clone(),
            SummarizerConfig::default().with_threads(threads).with_recorder(obs.clone()),
        );
        let _ = summarizer.summarize_batch(&test, None);
        obs.chrome_trace(stmaker_obs::TraceClock::Logical)
    };
    let reference = run(1);
    let stats = stmaker_obs::validate_chrome_trace(&reference).expect("trace validates");
    for stage in ["calibrate", "partition", "select", "popular_route", "render", "train.shard"] {
        assert!(stats.names.contains(stage), "trace missing {stage}: {:?}", stats.names);
    }
    assert!(stats.names.contains("exemplar.trip"), "{:?}", stats.names);
    for threads in [2, 4] {
        assert_eq!(run(threads), reference, "threads={threads} changed the logical trace bytes");
    }
}

#[test]
fn obs_diff_flags_regressions_and_passes_identical_runs() {
    use stmaker_obs::{diff, DiffOptions, Severity};
    use stmaker_suite::Recorder;
    let h = Harness::new();
    let (train, test) = h.corpora(30, 4);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let run = || {
        let obs = Recorder::enabled();
        let summarizer = Summarizer::train(
            &h.world.net,
            &h.world.registry,
            &train,
            features.clone(),
            weights.clone(),
            SummarizerConfig::default().with_threads(1).with_recorder(obs.clone()),
        );
        let _ = summarizer.summarize_batch(&test, None);
        obs.report()
    };
    let base = run();
    let new = run();
    // Identical pipelines: no structural findings, and with an absurdly
    // generous threshold no timing findings either.
    let opts = DiffOptions { threshold: 1e6, min_base_ms: 0.0 };
    assert_eq!(diff(&base, &new, &opts), vec![], "identical runs must diff clean");
    // Perturbation: dropping a counter is a hard regression.
    let mut broken = new.clone();
    broken.counters.remove("batch.summaries_ok");
    let findings = diff(&base, &broken, &opts);
    assert!(
        findings
            .iter()
            .any(|f| f.severity == Severity::Hard && f.message.contains("batch.summaries_ok")),
        "{findings:?}"
    );
}

#[test]
fn streaming_windows_key_on_stream_time_and_surface_in_report() {
    use stmaker_suite::{OutOfOrderPolicy, Recorder, StreamConfig, StreamingSummarizer};
    let h = Harness::new();
    let (train, test) = h.corpora(40, 4);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let obs = Recorder::enabled();
    let summarizer = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default().with_recorder(obs.clone()),
    );
    let cfg = StreamConfig {
        refresh_distance_m: 200.0,
        window_secs: 30,
        window_capacity: 4,
        out_of_order: OutOfOrderPolicy::Drop,
        ..StreamConfig::default()
    };
    let mut stream = StreamingSummarizer::try_new(cfg).expect("valid config");
    let trip = &test[0];
    let mut late = None;
    for p in trip.points() {
        let _ = stream.try_push(&summarizer, *p).expect("drop policy never errors");
        late = Some(*p);
    }
    // An out-of-order sample lands in the dropped counter of its window.
    if let Some(mut p) = late {
        p.t.0 -= 10_000;
        let _ = stream.try_push(&summarizer, p).expect("dropped, not an error");
    }
    let windows = stream.windows();
    assert!(!windows.is_empty() && windows.len() <= 4, "{windows:?}");
    let points: u64 = windows.iter().filter_map(|w| w.counters.get("stream.window.points")).sum();
    assert!(points > 0, "accepted samples counted: {windows:?}");
    // Window indices are data-derived and strictly increasing.
    for pair in windows.windows(2) {
        assert!(pair[0].index < pair[1].index, "{windows:?}");
    }
    let _ = stream.finish(&summarizer);
    let report = obs.report();
    assert_eq!(report.windows, windows, "finish publishes the retained windows");
    assert!(report.gauges.contains_key("stream.window.index"));
    // The whole round trip survives serialization.
    stmaker_obs::report::validate_json(&report.to_json_pretty()).expect("validates");
}

#[test]
fn stc_model_round_trip_is_byte_identical_across_thread_counts() {
    // The contract for the columnar model format: a model pushed through
    // STC1 encode → decode re-encodes to the identical bytes and gives
    // byte-identical summaries to the in-memory trained model at every
    // thread count — the encoding must be invisible to the pipeline's
    // output.
    use stmaker_io::{read_model_stc, read_trips_stc, write_model_stc, write_trips_stc};
    let h = Harness::new();
    let (train, test) = h.corpora(60, 12);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let trained = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );
    let bytes = write_model_stc(trained.model());
    let revived_model = read_model_stc(&bytes).expect("own encoding decodes");
    // Double round-trip: the decoded model re-encodes to the same bytes.
    assert_eq!(write_model_stc(&revived_model), bytes, "STC encoding must be deterministic");

    // Trips too: the columnar container is exact, so summaries of decoded
    // trips match summaries of the originals byte for byte.
    let trip_bytes = write_trips_stc(&test);
    let revived_test = read_trips_stc(&trip_bytes).expect("own encoding decodes");
    assert_eq!(revived_test, test);

    let texts = |s: &Summarizer<'_>, trips: &[RawTrajectory]| -> Vec<Option<String>> {
        s.summarize_batch(trips, None).into_iter().map(|r| r.ok().map(|s| s.text)).collect()
    };
    let reference = texts(&trained, &test);
    assert!(reference.iter().flatten().count() >= 8, "most test trips must summarize");

    for threads in [1usize, 2, 4] {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        let stc_path = Summarizer::try_from_model(
            &h.world.net,
            &h.world.registry,
            read_model_stc(&bytes).expect("decodes"),
            features,
            weights,
            SummarizerConfig::default().with_threads(threads),
        )
        .expect("registry matches");
        assert_eq!(
            texts(&stc_path, &test),
            reference,
            "STC-loaded model diverged at {threads} thread(s)"
        );
        assert_eq!(
            texts(&stc_path, &revived_test),
            reference,
            "STC-decoded trips diverged at {threads} thread(s)"
        );
    }
}

/// FNV-1a (64-bit) over `bytes`: a dependency-free digest for pinning
/// encodings across builds.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn model_encodings_match_pinned_digests() {
    // The model encoding is a file format: a seeded small-world model
    // must encode to exactly these bytes in every build. Round-trip tests
    // compare one build against itself; this pins the bytes across
    // builds, so an in-memory layout change cannot drift the format.
    use stmaker_io::write_model_stc;
    let h = Harness::new();
    let (train, _) = h.corpora(60, 0);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let trained = Summarizer::train(
        &h.world.net,
        &h.world.registry,
        &train,
        features,
        weights,
        SummarizerConfig::default(),
    );
    let stc = write_model_stc(trained.model());
    assert_eq!(
        (fnv1a(&stc), stc.len()),
        (0x4334_d97d_3053_e894, 157_288),
        "model encoding drifted"
    );
}

#[test]
fn model_landmarks_past_the_registry_are_rejected() {
    // Landmark ids index the registry, so a model naming an id at or past
    // its end must not load, whichever column holds it, even after an
    // STC1 round trip; the unedited model still loads.
    use stmaker_io::{read_model_stc, stc::section_range, write_model_stc, StcError};
    use stmaker_poi::LandmarkId;
    use stmaker_routes::{
        FeatureMapParts, HistoricalFeatureMap, PopularRoutes, PopularRoutesParts,
    };
    use stmaker_suite::{SummarizeError, TrainedModel};

    let h = Harness::new();
    let (train, _) = h.corpora(20, 0);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let cfg = SummarizerConfig::default();
    let trained =
        Summarizer::train(&h.world.net, &h.world.registry, &train, features, weights, cfg);
    let n = h.world.registry.len();
    let past = LandmarkId(n as u32);
    let (fm, pr) = (trained.model().featmap.parts(), trained.model().popular.parts());
    assert!(!fm.num_to.is_empty() && !fm.cat_to.is_empty() && !pr.win_ids.is_empty());

    type Edit = fn(&mut FeatureMapParts, &mut PopularRoutesParts, LandmarkId);
    // Each edit keeps the columns' own layout valid: a last key grows, an
    // unordered id column changes in place.
    let cases: [(&str, Edit); 6] = [
        ("featmap numeric keys", |f, _, id| *f.num_to.last_mut().expect("a row") = id),
        ("featmap categorical keys", |f, _, id| *f.cat_to.last_mut().expect("a row") = id),
        ("popular corpus", |_, p, id| p.corpus_ids[0] = id),
        ("popular pairs", |_, p, id| p.pair_keys.last_mut().expect("a pair").1 = id),
        ("popular transfers", |_, p, id| p.tr_dst[0] = id),
        ("popular winners", |_, p, id| p.win_ids[0] = id),
    ];
    let load = |model: TrainedModel| {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        let cfg = SummarizerConfig::default();
        Summarizer::try_from_model(&h.world.net, &h.world.registry, model, features, weights, cfg)
            .err()
    };
    let model = |f: &FeatureMapParts, p: &PopularRoutesParts| TrainedModel {
        popular: PopularRoutes::from_parts(p.clone()).expect("edited columns stay valid"),
        featmap: HistoricalFeatureMap::from_parts(f.clone()).expect("edited columns stay valid"),
        n_trained: trained.model().n_trained,
        registry_len: n,
    };
    let out_of_range = |column: &str, err: Option<SummarizeError>| match err {
        Some(SummarizeError::LandmarkOutOfRange { column: c, id, registry }) => {
            assert_eq!((c, id, registry), (column, past.0, n));
        }
        other => panic!("{column}: expected LandmarkOutOfRange, got {other:?}"),
    };
    assert!(load(model(fm, pr)).is_none(), "the unedited model loads");
    for (column, edit) in cases {
        let (mut f, mut p) = (fm.clone(), pr.clone());
        edit(&mut f, &mut p, past);
        let stc = read_model_stc(&write_model_stc(&model(&f, &p))).expect("STC decodes");
        out_of_range(column, load(stc));
    }

    // Supports and winners are keyed by the pairs in memory, but STC1
    // stores a key section pair for each table. Set the `to` half of the
    // last key past the registry in the support keys alone, in the winner
    // keys alone, or in all three tables. With the default min_support
    // every pair has a winner, so the last winner key is the last pair key.
    const PAIR_TO: u32 = 0x33;
    const SUP_TO: u32 = 0x3D;
    const WIN_TO: u32 = 0x40;
    let bytes = write_model_stc(trained.model());
    let patched = |tags: &[u32]| {
        let mut b = bytes.clone();
        for &tag in tags {
            let s = section_range(&b, tag).expect("section present");
            b[s.end - 4..s.end].copy_from_slice(&past.0.to_le_bytes());
        }
        read_model_stc(&b)
    };
    let (pairs, winners) = (pr.pair_keys.len(), pr.win_offsets.windows(2).count());
    assert_eq!(pairs, winners, "every pair has a winner");
    assert_eq!(patched(&[SUP_TO]).err(), Some(StcError::SupportKeyMismatch { index: pairs - 1 }));
    assert_eq!(patched(&[WIN_TO]).err(), Some(StcError::WinnerKeyMissing { index: winners - 1 }));
    let all = patched(&[PAIR_TO, SUP_TO, WIN_TO]).expect("consistent keys decode");
    out_of_range("popular pairs", load(all));
}
