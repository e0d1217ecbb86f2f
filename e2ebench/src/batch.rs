//! `batch-dense`: densely sampled trips in STC buffers of
//! [`CHUNK_TRIPS`] trips each, decoded, summarized with
//! `summarize_batch_points` and rendered into one output buffer per pass.
//! Calibration and map matching do almost all the work.

use std::hint::black_box;
use std::path::Path;

use serde_json::{json, Value};
use stmaker::{SummarizeError, Summarizer, SummarizerConfig, Summary};
use stmaker_generator::{World, WorldConfig};
use stmaker_io::{read_model_stc, read_raw_trips_stc, read_trips_stc, write_trips_stc};
use stmaker_trajectory::RawPoint;

use crate::digest::fnv1a;
use crate::inputs;
use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::trace::{self, now, Tracer};
use crate::workload::{
    pass_outcome, read, run_workers, setup_round, timed_s, write, Inputs, Outcome, RunOpts,
    PASS_THREADS,
};

/// Passes every run makes however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Trips per timed batch: about 45 ms of work, short enough that each
/// batch's fastest repeat over a run falls in a quiet moment of the host.
pub const CHUNK_TRIPS: usize = 20;

/// Appends results to the batch output: one summary (or error) per line.
pub fn render_into(
    out: &mut Vec<u8>,
    results: impl IntoIterator<Item = Result<Summary, SummarizeError>>,
) {
    for r in results {
        match r {
            Ok(s) => out.extend_from_slice(s.text.as_bytes()),
            Err(e) => out.extend_from_slice(format!("error: {e}").as_bytes()),
        }
        out.push(b'\n');
    }
}

/// The batch output of `results`.
pub fn render(results: impl IntoIterator<Item = Result<Summary, SummarizeError>>) -> Vec<u8> {
    let mut out = Vec::new();
    render_into(&mut out, results);
    out
}

/// Lines of `got` that differ from `want`, plus any missing or extra lines.
pub fn mismatched_lines(got: &[u8], want: &[u8]) -> u64 {
    let lines = |b: &[u8]| -> Vec<Vec<u8>> {
        b.strip_suffix(b"\n").unwrap_or(b).split(|c| *c == b'\n').map(<[u8]>::to_vec).collect()
    };
    let (g, w) = (lines(got), lines(want));
    let differ = g.iter().zip(&w).filter(|(a, b)| a != b).count();
    (differ + g.len().abs_diff(w.len())) as u64 // cast-ok: line count
}

/// Parent side: computes the single-threaded reference, checks the
/// untimed two-thread batch against it, then measures the worker
/// processes.
pub fn run(inp: &Inputs, opts: &RunOpts) -> Result<Outcome, String> {
    let model = || read_model_stc(&inp.model_stc).map_err(|e| e.to_string());
    let reference = inputs::summarizer(&inp.world, model()?, SummarizerConfig::default())?;
    let expected = render(inp.trips.iter().map(|t| reference.summarize_points(t.points())));
    write(&opts.work_dir.join("expected.txt"), &expected)?;
    let two = SummarizerConfig::default().with_threads(2);
    let two = inputs::summarizer(&inp.world, model()?, two)?;
    let points: Vec<Vec<RawPoint>> = inp.trips.iter().map(|t| t.points().to_vec()).collect();
    let two_thread_failed =
        mismatched_lines(&render(two.summarize_batch_points(&points)), &expected);
    drop((reference, two, points));

    let reps = run_workers("batch-dense", opts)?;
    // The workers checked every output line against `expected`, so with no
    // failures this is also the digest of what they produced.
    let mut o = pass_outcome(&reps, inp.trips.len(), fnv1a(&expected))?;
    o.attempted += inp.trips.len() as u64; // cast-ok: trip count
    o.failed += two_thread_failed;
    Ok(o)
}

/// Worker side: a measured process. Reads only the files the parent wrote,
/// then for `seconds` alternates a round of set-ups with a pass over every
/// batch.
pub fn worker(dir: &Path, seconds: f64, traced: bool) -> Result<Value, String> {
    let world_cfg: WorldConfig =
        serde_json::from_str(&String::from_utf8_lossy(&read(&dir.join("world.json"))?))
            .map_err(|e| format!("bad world.json: {e}"))?;
    let model_bytes = read(&dir.join("model.stc"))?;
    let expected = read(&dir.join("expected.txt"))?;
    let trips = read_trips_stc(&read(&dir.join("trips.stc"))?).map_err(|e| e.to_string())?;
    let chunks: Vec<Vec<u8>> = trips.chunks(CHUNK_TRIPS).map(write_trips_stc).collect();
    drop(trips);
    let cfg = SummarizerConfig::default().with_threads(PASS_THREADS);
    let model = || read_model_stc(&model_bytes).map_err(|e| e.to_string());
    let setup = || {
        timed_s(|| {
            let world = World::generate(world_cfg.clone());
            black_box(inputs::summarizer(&world, model()?, cfg.clone())?);
            Ok(())
        })
    };

    let mut tr = if traced { Tracer::enabled(now()) } else { Tracer::disabled() };
    let (mut setup_s, mut pass_ms, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut best_ms = vec![f64::INFINITY; chunks.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = now();
    while pass_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        setup_round(&mut setup_s, &setup)?;
        // Built after the round, so that peak memory never holds two.
        let world = World::generate(world_cfg.clone());
        let s: Summarizer<'_> = inputs::summarizer(&world, model()?, cfg.clone())?;
        let pass = pass_ms.len() as u64; // cast-ok: pass index
        let c0 = cpu_seconds(None).map_err(|e| e.to_string())?;
        let t0 = now();
        let open = tr.begin("batch.pass", pass);
        let mut out = Vec::with_capacity(expected.len());
        for (chunk, best) in chunks.iter().zip(&mut best_ms) {
            let u0 = now();
            let runs = tr.span("io.decode", pass, || read_raw_trips_stc(chunk));
            let runs = runs.map_err(|e| e.to_string())?;
            let results = tr.span("exec.summarize_batch", pass, || s.summarize_batch_points(&runs));
            tr.span("io.render", pass, || render_into(&mut out, results));
            *best = best.min(u0.elapsed().as_secs_f64() * 1e3);
            attempted += runs.len() as u64; // cast-ok: trip count
        }
        tr.end(open);
        pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        cpu_s.push(cpu_seconds(None).map_err(|e| e.to_string())? - c0);
        failed += mismatched_lines(&out, &expected);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_per_line() {
        assert_eq!(mismatched_lines(b"a\nb\n", b"a\nb\n"), 0);
        assert_eq!(mismatched_lines(b"a\nx\n", b"a\nb\n"), 1);
        assert_eq!(mismatched_lines(b"a\n", b"a\nb\n"), 1);
    }
}
