//! `train`: passes over the seed's training corpus in shards of
//! [`SHARD_TRIPS`] trips, each shard decode → `Summarizer::train` → model
//! encode → model decode. This is the write side of the popular-route and
//! feature-map layers and of the model codec.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};
use stmaker::SummarizerConfig;
use stmaker_generator::{World, WorldConfig};
use stmaker_io::{read_model_stc, read_trips_stc, write_model_stc, write_trips_stc};
use stmaker_trajectory::RawTrajectory;

use crate::digest::Fnv;
use crate::inputs;
use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::trace::{self, now, Tracer};
use crate::workload::{
    pass_outcome, read, run_workers, setup_round, timed_s, write, Inputs, Outcome, RunOpts,
    PASS_THREADS,
};

/// Passes every run makes however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Trips per trained model, the timed unit: about 250 ms of training.
///
/// One model of the whole corpus takes over a second, and a second free of
/// interference is rare on the shared host, so the fastest whole pass
/// spreads widely between runs. Each shard is a complete training run over
/// a fifth of the corpus, through every layer of the write side. Over ten
/// seeds, peak memory spread by 8.7% with 200-trip shards (some crossed a
/// hash-table capacity step, some did not), 4.2% with 250, 2.9% with 500
/// and 1.9% with 400.
pub const SHARD_TRIPS: usize = 400;

/// The corpus shards, in corpus order.
fn shards(corpus: &[RawTrajectory]) -> std::slice::Chunks<'_, RawTrajectory> {
    corpus.chunks(SHARD_TRIPS)
}

fn reference_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.model.stc"))
}

/// Parent side. Trains each shard's reference model with two threads and
/// again with one; the two must agree byte for byte, and the worker
/// compares every model it trains with the reference.
pub fn run(inp: &Inputs, opts: &RunOpts) -> Result<Outcome, String> {
    let encode = |threads: usize, shard: &[RawTrajectory]| {
        let cfg = SummarizerConfig::default().with_threads(threads);
        write_model_stc(inputs::train(&inp.world, shard, cfg).model())
    };
    let (mut digest, mut model_bytes, mut differ) = (Fnv::default(), 0usize, 0u64);
    for (k, shard) in shards(&inp.corpus).enumerate() {
        let two = encode(2, shard);
        differ += u64::from(encode(1, shard) != two);
        digest.update(&two);
        model_bytes += two.len();
        write(&reference_path(&opts.work_dir, k), &two)?;
    }

    let reps = run_workers("train", opts)?;
    let mut o = pass_outcome(&reps, inp.corpus.len(), digest.finish())?;
    // Each cross-thread comparison is one more checked operation.
    o.attempted += shards(&inp.corpus).len() as u64; // cast-ok: shard count
    o.failed += differ;
    o.diagnostics.insert("model_bytes".into(), model_bytes as f64); // cast-ok: size
    Ok(o)
}

/// Worker side: a measured process. Set-up is `World::generate` alone
/// (landmark clustering, significance and the spatial indexes). For
/// `seconds` it alternates a round of set-ups with a pass over the shards.
pub fn worker(dir: &Path, seconds: f64, traced: bool) -> Result<Value, String> {
    let world_cfg: WorldConfig =
        serde_json::from_str(&String::from_utf8_lossy(&read(&dir.join("world.json"))?))
            .map_err(|e| format!("bad world.json: {e}"))?;
    let corpus = read_trips_stc(&read(&dir.join("trips.stc"))?).map_err(|e| e.to_string())?;
    let shard_stc: Vec<Vec<u8>> = shards(&corpus).map(write_trips_stc).collect();
    drop(corpus);
    let references: Vec<Vec<u8>> =
        (0..shard_stc.len()).map(|k| read(&reference_path(dir, k))).collect::<Result<_, _>>()?;
    let setup = || {
        timed_s(|| {
            black_box(World::generate(world_cfg.clone()));
            Ok(())
        })
    };

    let cfg = SummarizerConfig::default().with_threads(PASS_THREADS);
    let mut tr = if traced { Tracer::enabled(now()) } else { Tracer::disabled() };
    let (mut setup_s, mut pass_ms, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut best_ms = vec![f64::INFINITY; shard_stc.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = now();
    while pass_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        setup_round(&mut setup_s, &setup)?;
        // Built after the round, so that peak memory never holds two.
        let world = World::generate(world_cfg.clone());
        let pass = pass_ms.len() as u64; // cast-ok: pass index
        let c0 = cpu_seconds(None).map_err(|e| e.to_string())?;
        let t0 = now();
        let open = tr.begin("train.pass", pass);
        for ((shard, reference), best) in shard_stc.iter().zip(&references).zip(&mut best_ms) {
            let u0 = now();
            let trips = tr.span("io.decode", pass, || read_trips_stc(shard));
            let trips = trips.map_err(|e| e.to_string())?;
            let trained =
                tr.span("core.train", pass, || inputs::train(&world, &trips, cfg.clone()));
            let bytes = tr.span("io.model_encode", pass, || write_model_stc(trained.model()));
            let back = tr.span("io.model_decode", pass, || read_model_stc(&bytes));
            let back = back.map_err(|e| e.to_string())?;
            *best = best.min(u0.elapsed().as_secs_f64() * 1e3);
            // The model must match the reference and re-encode byte for
            // byte after the round trip.
            attempted += 1;
            failed += u64::from(bytes != *reference || write_model_stc(&back) != bytes);
        }
        tr.end(open);
        pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        cpu_s.push(cpu_seconds(None).map_err(|e| e.to_string())? - c0);
    }
    Ok(json!({
        "setup_s": setup_s,
        "pass_ms": pass_ms,
        "unit_best_ms": best_ms,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(None).map_err(|e| e.to_string())?,
        "attempted": attempted,
        "failed": failed,
        "spans": trace::summary_json(tr.spans()),
    }))
}
