//! The traced breakdown pass: walks a workload's trips one at a time
//! through the leaf functions of each layer, single-threaded, with a span
//! around every call, and derives the per-layer metrics from those spans.
//!
//! Calibration and map matching run inside `Summarizer::prepare` where the
//! benchmark cannot reach them, so they are also called on their own before
//! `prepare`; extraction's own time is what `prepare` takes beyond the two.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use serde_json::Value;
use stmaker::similarity::consecutive_similarities;
use stmaker::{optimal_partition, standard_features, FeatureWeights, Recorder, SpatialStats};
use stmaker::{SummarizerConfig, TrainedModel};
use stmaker_calibration::{calibrate_view, calibrate_view_traced};
use stmaker_exec::Executor;
use stmaker_generator::World;
use stmaker_io::{
    read_model_stc, read_raw_trips_stc, read_trajectory_csv, write_model_stc, write_trajectory_csv,
    write_trips_stc,
};
use stmaker_mapmatch::MapMatcher;
use stmaker_routes::PopularRoutes;
use stmaker_trajectory::{RawTrajectory, RawView};

use crate::http;
use crate::inputs;
use crate::procfs::cpu_seconds;
use crate::serve::{counter, expected_reply, reply_ok, Server, ROUTE_CACHE};
use crate::stats::{mean, median, percentile};
use crate::trace::{self, now, Tracer};
use crate::workload::{Inputs, RunOpts};

/// Repetitions of the cheap whole-input timings (world, codecs).
const REPEATS: usize = 5;
/// Interleaved rounds of the A/B timings (threads, recorder).
const ROUNDS: usize = 3;

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` inside a span and returns its result with the milliseconds it
/// took.
fn timed<T>(tr: &mut Tracer, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = tr.span(name, id, f);
    (out, ms(t0))
}

/// Median milliseconds of `REPEATS` calls of `f`.
fn repeated(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..REPEATS as u64).map(|i| timed(tr, name, i, &mut f).1).collect();
    median(&v)
}

/// Runs the breakdown for one workload; returns the per-layer metrics and
/// the spans it recorded.
pub fn run(
    workload: &str,
    inp: &Inputs,
    opts: &RunOpts,
) -> Result<(BTreeMap<String, f64>, Value), String> {
    let n = if workload == "serve-hub" {
        inp.trips.len()
    } else {
        opts.scale.breakdown_trips.min(inp.trips.len())
    };
    let trips = &inp.trips[..n];
    let model = || read_model_stc(&inp.model_stc).map_err(|e| e.to_string());
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_owned(), v);
    };
    let mut tr = Tracer::enabled(now());

    // --- generator and io, over whole inputs.
    put(
        "generator.world_ms",
        repeated(&mut tr, "generator.world", || {
            black_box(World::generate(inp.world_cfg.clone()));
        }),
    );
    let stc = write_trips_stc(trips);
    let decode_ms = repeated(&mut tr, "io.trips_decode", || {
        black_box(read_raw_trips_stc(&stc).map(|r| r.len()).unwrap_or(0));
    });
    put("io.trips_decode_us", decode_ms * 1e3 / n as f64); // cast-ok: trip count
    let csvs: Vec<String> = trips.iter().map(write_trajectory_csv).collect();
    let parse_ms = repeated(&mut tr, "io.csv_parse", || {
        for c in &csvs {
            black_box(read_trajectory_csv(c).map(|t| t.len()).unwrap_or(0));
        }
    });
    put("io.csv_parse_us", parse_ms * 1e3 / n as f64); // cast-ok: trip count
    let decoded = model()?;
    put(
        "io.model_encode_ms",
        repeated(&mut tr, "io.model_encode", || {
            black_box(write_model_stc(&decoded).len());
        }),
    );
    put(
        "io.model_decode_ms",
        repeated(&mut tr, "io.model_decode", || {
            black_box(read_model_stc(&inp.model_stc).map(|m| m.n_trained).unwrap_or(0));
        }),
    );
    put("io.model_bytes", inp.model_stc.len() as f64); // cast-ok: size

    // --- one trip at a time through every layer.
    pipeline(&mut tr, &inp.world, decoded, trips, &mut put)?;

    // --- popular-route build over the calibrated training corpus.
    let cfg = SummarizerConfig::default();
    let symbolics: Vec<_> = inp
        .corpus
        .iter()
        .filter_map(|t| calibrate_view(t.view(), &inp.world.registry, cfg.calibration).ok())
        .collect();
    let (_, build_ms) = timed(&mut tr, "routes.popular_build", 0, || {
        black_box(PopularRoutes::build_with(&symbolics, cfg.popular, &Executor::new(1)))
    });
    put("routes.popular_build_ms", build_ms);

    // --- route cache: the workload's trips in order through a cold cache,
    // then once more. Every workload repeats its trips (passes, cycled
    // request bodies), so the second pass is the steady state; the first
    // shows how often distinct trips share a landmark pair.
    let cached =
        inputs::summarizer(&inp.world, model()?, cfg.clone().with_route_cache(ROUTE_CACHE))?;
    let mut rates = [0.0; 2];
    for rate in &mut rates {
        let before = cached.route_cache_stats().unwrap_or_default();
        for t in trips {
            black_box(cached.summarize_points(t.points()).is_ok());
        }
        *rate = cached.route_cache_stats().map(|s| s.since(&before).hit_rate()).unwrap_or(0.0);
    }
    put("cache.cold_hit_rate", rates[0]);
    put("cache.hit_rate", rates[1]);

    // --- exec: two threads against one, and the obs recorder on against off.
    let one = inputs::summarizer(&inp.world, model()?, cfg.clone().with_threads(1))?;
    let two = inputs::summarizer(&inp.world, model()?, cfg.clone().with_threads(2))?;
    let points: Vec<Vec<_>> = trips.iter().map(|t| t.points().to_vec()).collect();
    let on =
        inputs::summarizer(&inp.world, model()?, cfg.clone().with_recorder(Recorder::enabled()))?;
    let (mut w1, mut w2, mut off_ms, mut on_ms) = (vec![], vec![], vec![], vec![]);
    for round in 0..ROUNDS as u64 {
        w1.push(
            timed(&mut tr, "exec.batch_1_thread", round, || one.summarize_batch_points(&points)).1,
        );
        w2.push(
            timed(&mut tr, "exec.batch_2_threads", round, || two.summarize_batch_points(&points)).1,
        );
        off_ms.push(timed(&mut tr, "obs.recorder_off", round, || each(&one, trips)).1);
        on_ms.push(timed(&mut tr, "obs.recorder_on", round, || each(&on, trips)).1);
    }
    put("exec.parallel_efficiency", median(&w1) / (2.0 * median(&w2)));
    put("obs.recorder_overhead_pct", (median(&on_ms) / median(&off_ms) - 1.0) * 100.0);

    // --- server: the same trips POSTed one after another.
    server_leg(&mut tr, inp, opts, &csvs, &mut put)?;
    Ok((m, trace::summary_json(tr.spans())))
}

/// Summarizes every trip alone (the single-request path).
fn each(s: &stmaker::Summarizer<'_>, trips: &[RawTrajectory]) -> usize {
    trips.iter().filter(|t| s.summarize_points(t.points()).is_ok()).count()
}

/// Per-trip calls into validate, calibrate, match, prepare, the summary
/// tail, partition and popular-route lookup.
fn pipeline(
    tr: &mut Tracer,
    world: &World,
    model: TrainedModel,
    trips: &[RawTrajectory],
    put: &mut impl FnMut(&str, f64),
) -> Result<(), String> {
    let cfg = SummarizerConfig::default().with_threads(1);
    let (ca, calibration) = (cfg.ca, cfg.calibration);
    let matcher = MapMatcher::with_index(&world.net, cfg.matching, cfg.spatial_index);
    let weights = FeatureWeights::uniform(&standard_features());
    let s = inputs::summarizer(world, model, cfg)?;
    let n = trips.len() as f64; // cast-ok: trip count
    let (mut validate, mut cal, mut mat, mut extract, mut tail, mut part, mut total) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut candidates, mut nodes, mut anchors, mut points, mut matched) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut route_us, mut route_hits) = (vec![], 0u64);
    for (i, t) in trips.iter().enumerate() {
        let id = i as u64; // cast-ok: trip index
        let root = tr.begin("breakdown.trip", id);
        let (ok, v_ms) =
            timed(tr, "trajectory.validate", id, || RawView::try_new(t.points()).is_ok());
        validate.push(v_ms * 1e3);
        if !ok {
            tr.end(root);
            continue;
        }
        let mut stats = SpatialStats::default();
        let (sym, c_ms) = timed(tr, "calibration.calibrate", id, || {
            calibrate_view_traced(t.view(), &world.registry, calibration, &mut stats)
        });
        let (edges, m_ms) = timed(tr, "mapmatch.match", id, || matcher.match_hmm(t.points()));
        let (prepared, p_ms) = timed(tr, "core.prepare", id, || s.prepare(t));
        cal.push(c_ms);
        mat.push(m_ms);
        extract.push(p_ms - c_ms - m_ms);
        candidates += stats.candidates_refined;
        nodes += stats.nodes_visited;
        anchors += sym.map(|s| s.size() as u64).unwrap_or(0); // cast-ok: landmark count
        points += edges.len() as u64; // cast-ok: point count
        matched += edges.iter().filter(|e| e.is_some()).count() as u64; // cast-ok: point count
        let mut s_ms = 0.0;
        if let Ok(p) = &prepared {
            let (summary, tail_ms) =
                timed(tr, "core.summarize_prepared", id, || s.summarize_prepared(p, None));
            s_ms = tail_ms;
            tail.push(tail_ms * 1e3);
            let (_, part_ms) = timed(tr, "core.partition", id, || {
                let sims = consecutive_similarities(&p.seg_values, &weights);
                let pts = p.symbolic.points();
                let sigs: Vec<f64> = (1..p.seg_values.len())
                    .map(|b| world.registry.get(pts[b].landmark).significance)
                    .collect();
                black_box(optimal_partition(&sims, &sigs, ca))
            });
            part.push(part_ms * 1e3);
            for q in summary.iter().flat_map(|sum| &sum.partitions) {
                let (hit, q_ms) = timed(tr, "routes.popular_route", id, || {
                    s.model().popular.popular_route(q.from, q.to).is_some()
                });
                route_us.push(q_ms * 1e3);
                route_hits += u64::from(hit);
            }
        }
        total.push(v_ms + p_ms + s_ms);
        tr.end(root);
    }
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 }; // cast-ok: counts
    put("trajectory.validate_us", mean(&validate));
    put("calibration.calibrate_ms_p50", percentile(&cal, 0.5));
    put("calibration.calibrate_ms_p99", percentile(&cal, 0.99));
    put("calibration.candidates", candidates as f64 / n); // cast-ok: count
    put("calibration.anchor_yield", share(anchors, candidates));
    put("geo.nodes_visited", nodes as f64 / n); // cast-ok: count
    put("mapmatch.match_ms_p50", percentile(&mat, 0.5));
    put("mapmatch.match_ms_p99", percentile(&mat, 0.99));
    put("mapmatch.points", points as f64 / n); // cast-ok: count
    put("mapmatch.matched_share", share(matched, points));
    put("core.extract_self_ms", mean(&extract));
    put("core.summarize_prepared_us", mean(&tail));
    put("core.partition_us", mean(&part));
    put("routes.popular_route_us", mean(&route_us));
    put("routes.popular_route_hit_share", share(route_hits, route_us.len() as u64)); // cast-ok: count
    put("pipeline.trip_ms_p50", percentile(&total, 0.5));
    put("pipeline.trip_ms_p99", percentile(&total, 0.99));
    let blocking: f64 = cal.iter().chain(&mat).sum();
    put("pipeline.calibrate_match_share", blocking / total.iter().sum::<f64>());
    Ok(())
}

/// Passes over the trips in each of the two legs of the server
/// comparison; each trip's fastest pass counts, with warm caches on both
/// sides.
const SERVER_PASSES: usize = 3;

/// Posts each trip to a fresh server, one request at a time, and compares
/// the client's latency with the same parse + summarize in process, trip by
/// trip.
fn server_leg(
    tr: &mut Tracer,
    inp: &Inputs,
    opts: &RunOpts,
    csvs: &[String],
    put: &mut impl FnMut(&str, f64),
) -> Result<(), String> {
    let cfg = SummarizerConfig::default()
        .with_route_cache(ROUTE_CACHE)
        .with_recorder(Recorder::enabled());
    let model = read_model_stc(&inp.model_stc).map_err(|e| e.to_string())?;
    let local = inputs::summarizer(&inp.world, model, cfg)?;
    let mut in_process = vec![f64::INFINITY; csvs.len()];
    let mut expected = Vec::new();
    for pass in 0..SERVER_PASSES {
        for (i, c) in csvs.iter().enumerate() {
            let t0 = now();
            let want = expected_reply(&local, c.as_bytes());
            in_process[i] = in_process[i].min(ms(t0) * 1e3);
            if pass == 0 {
                expected.push(want);
            }
        }
    }

    let (server, _) = Server::start(&opts.cli, &opts.work_dir)?;
    let c0 = cpu_seconds(Some(server.pid())).map_err(|e| e.to_string())?;
    let w0 = now();
    let (mut client, mut connect, mut wrong) =
        (vec![f64::INFINITY; csvs.len()], Vec::new(), 0usize);
    for pass in 0..SERVER_PASSES {
        for (i, (c, want)) in csvs.iter().zip(&expected).enumerate() {
            let id = (pass * csvs.len() + i) as u64; // cast-ok: request index
            let t0 = now();
            let open = tr.begin("server.request", id);
            let reply = http::request(server.addr, "POST", "/summarize", c.as_bytes());
            if let Ok(r) = &reply {
                tr.record("server.connect", id, t0, r.connected);
                connect.push(r.connected.duration_since(t0).as_secs_f64() * 1e6);
            }
            tr.end(open);
            client[i] = client[i].min(ms(t0) * 1e3);
            wrong += usize::from(!reply_ok(&reply, want));
        }
    }
    let busy = (cpu_seconds(Some(server.pid())).map_err(|e| e.to_string())? - c0)
        / w0.elapsed().as_secs_f64();
    let report = http::request(server.addr, "GET", "/metrics", b"")
        .ok()
        .and_then(|r| serde_json::from_str::<Value>(&String::from_utf8_lossy(&r.body)).ok())
        .unwrap_or_default();
    server.stop()?;
    if wrong > 0 {
        return Err(format!("breakdown: {wrong} server replies were wrong"));
    }
    let overhead: Vec<f64> = client.iter().zip(&in_process).map(|(c, p)| c - p).collect();
    put("server.overhead_us", median(&overhead));
    put("server.connect_us", median(&connect));
    put("server.cpu_busy_share", busy);
    put(
        "server.rejected",
        counter(&report, "serve.rejected_busy") + counter(&report, "serve.rejected_unavailable"),
    );
    Ok(())
}
