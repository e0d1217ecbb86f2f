//! Runs one workload end to end: builds its inputs from the seed, measures
//! the program under test in a process of its own, and checks every output.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;
use stmaker::SummarizerConfig;
use stmaker_generator::{World, WorldConfig};
use stmaker_io::{write_model_stc, write_trips_stc};
use stmaker_trajectory::RawTrajectory;

use crate::digest::check_golden;
use crate::inputs::{self, Scale};
use crate::spec;
use crate::stats::median;

/// Worker threads of the timed batch and training passes, and of the
/// server's batch requests.
///
/// One, not two: on the 2-vCPU host this benchmark targets, two busy
/// threads made pass times swing by up to 23% between runs of the same
/// seed (the vCPUs slow each other down), against 7% for one thread. The
/// two-thread paths are still checked: `batch-dense` runs one untimed
/// two-thread batch, `train` compares its models with two-thread models,
/// and the traced run measures `exec.parallel_efficiency`.
pub const PASS_THREADS: usize = 1;

/// Set-ups per round. A round runs before each pass (or serving segment),
/// so the set-ups sample the whole measured phase, and `setup_s` is the
/// median of them all.
pub const SETUPS_PER_ROUND: usize = 5;

/// The smallest value (`inf` for none).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seconds each measured phase runs for.
    pub seconds: f64,
    pub scale: Scale,
    /// The `stmaker-cli` binary serving `serve-hub`.
    pub cli: PathBuf,
    /// This benchmark's own binary, re-run as the measured worker process.
    pub worker: PathBuf,
    /// Scratch directory for the workload's input files.
    pub work_dir: PathBuf,
    pub traced: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Numbers printed for diagnosis but not gated.
    pub diagnostics: BTreeMap<String, f64>,
    /// FNV-1a over every output the run checked.
    pub digest: u64,
    /// Coarse spans (traced runs only), as written to the trace file.
    pub spans: Value,
}

/// The inputs every workload starts from.
pub struct Inputs {
    pub world_cfg: WorldConfig,
    pub world: World,
    pub corpus: Vec<RawTrajectory>,
    /// The model trained on `corpus`, STC1-encoded.
    pub model_stc: Vec<u8>,
    /// The trips this workload summarizes (the corpus for `train`).
    pub trips: Vec<RawTrajectory>,
}

impl Inputs {
    pub fn build(workload: &str, seed: u64, scale: Scale) -> Inputs {
        let world_cfg = scale.world();
        let world = World::generate(world_cfg.clone());
        let corpus = inputs::corpus(&world, seed, scale.corpus_trips);
        let cfg = SummarizerConfig::default().with_threads(2);
        let model_stc = write_model_stc(inputs::train(&world, &corpus, cfg).model());
        let trips = match workload {
            "batch-dense" => inputs::dense_trips(&world, seed, scale.dense_trips),
            "serve-hub" => inputs::hub_trips(&world, seed, scale.hub_trips),
            _ => corpus.clone(),
        };
        Inputs { world_cfg, world, corpus, model_stc, trips }
    }

    /// Writes the files the measured process reads: `world.json` (the world
    /// config, as `stmaker-cli serve --dir` expects it), `model.stc` and
    /// `trips.stc`.
    pub fn write_to(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let world = serde_json::to_string_pretty(&self.world_cfg).map_err(|e| e.to_string())?;
        write(&dir.join("world.json"), world.as_bytes())?;
        write(&dir.join("model.stc"), &self.model_stc)?;
        write(&dir.join("trips.stc"), &write_trips_stc(&self.trips))
    }
}

pub fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Runs `workload` once with tracing as `opts.traced` says.
pub fn run(workload: &str, inputs: &Inputs, opts: &RunOpts) -> Result<Outcome, String> {
    inputs.write_to(&opts.work_dir)?;
    match workload {
        "batch-dense" => crate::batch::run(inputs, opts),
        "serve-hub" => crate::serve::run(inputs, opts),
        "train" => crate::train::run(inputs, opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Measured processes per run, one after another, each for an equal share
/// of the measured phase (`serve-hub` starts a server per segment instead).
///
/// Now and then a process runs about twice as slowly as its neighbours
/// from start to end, while processes started seconds before and after
/// run at full speed; in one set of ten runs two of them were such. With
/// several processes per run, each unit's fastest repeat comes from a
/// process that was not.
pub const PROCESSES: usize = 3;

/// Runs [`PROCESSES`] measured worker processes (`stmaker-bench worker
/// ...`) in turn and parses the JSON report each prints.
pub fn run_workers(workload: &str, opts: &RunOpts) -> Result<Vec<Value>, String> {
    let seconds = opts.seconds / PROCESSES as f64; // cast-ok: small count
    (0..PROCESSES)
        .map(|_| {
            let out = Command::new(&opts.worker)
                .arg("worker")
                .args(["--workload", workload])
                .arg("--dir")
                .arg(&opts.work_dir)
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if opts.traced { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("cannot run worker {}: {e}", opts.worker.display()))?;
            if !out.status.success() {
                return Err(format!(
                    "{workload} worker failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or("");
            serde_json::from_str(last)
                .map_err(|e| format!("{workload} worker printed no report: {e}"))
        })
        .collect()
}

/// The run's verdict: whether every output matched and each digest agrees
/// with its golden value. Returns the reasons when it does not.
pub fn verdict<'a>(
    results: impl IntoIterator<Item = (&'a str, &'a Outcome)>,
    seed: u64,
    golden: &str,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (w, o) in results {
        if o.failed > 0 {
            problems.push(format!("{w}: {} of {} operations failed", o.failed, o.attempted));
        }
        if o.attempted == 0 {
            problems.push(format!("{w}: no operation completed"));
        }
        if let Err(e) = check_golden(golden, w, seed, o.digest) {
            problems.push(e);
        }
        for m in spec::END_TO_END {
            match o.metrics.get(m.name) {
                Some(v) if v.is_finite() && *v > 0.0 => {}
                other => problems.push(format!("{w}: metric {} reads {other:?}", m.name)),
            }
        }
    }
    problems
}

/// One round of set-ups: runs `setup` [`SETUPS_PER_ROUND`] times and
/// appends the seconds each run returns to `setup_s`.
pub fn setup_round(
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    for _ in 0..SETUPS_PER_ROUND {
        setup_s.push(setup()?);
    }
    Ok(())
}

/// Runs `f` and returns the seconds it took.
pub fn timed_s(f: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let t0 = crate::trace::now();
    f().map(|()| t0.elapsed().as_secs_f64())
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v[key].as_f64().ok_or_else(|| format!("worker report lacks {key}"))
}

fn nums(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    v[key]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .filter(|a: &Vec<f64>| !a.is_empty())
        .ok_or_else(|| format!("worker report lacks {key}"))
}

/// `key`'s list from every report, concatenated.
fn all_nums(reps: &[Value], key: &str) -> Result<Vec<f64>, String> {
    reps.iter().map(|r| nums(r, key)).collect::<Result<Vec<_>, _>>().map(|v| v.concat())
}

/// The outcome of the worker reports of a pass-based workload
/// (`batch-dense`, `train`).
///
/// A pass is a sequence of timed units (`batch-dense`: batches of
/// [`crate::batch::CHUNK_TRIPS`] trips; `train`: models of
/// [`crate::train::SHARD_TRIPS`] trips). The diagnostic `trip_ms` is the
/// sum of each unit's fastest repeat in any of the processes, per trip:
/// interference on a shared host only ever adds time, so short units timed
/// at their fastest are the steadiest time this benchmark has, though not
/// steady enough to gate (see `README.md`).
pub fn pass_outcome(reps: &[Value], trips: usize, digest: u64) -> Result<Outcome, String> {
    let trips = trips as f64; // cast-ok: trip count
    let pass_ms = all_nums(reps, "pass_ms")?;
    let mut unit_best: Vec<f64> = Vec::new();
    for r in reps {
        let best = nums(r, "unit_best_ms")?;
        unit_best.resize(best.len(), f64::INFINITY);
        for (u, b) in unit_best.iter_mut().zip(best) {
            *u = u.min(b);
        }
    }
    let best_ms: f64 = unit_best.iter().sum();
    let least_cpu = fastest(&all_nums(reps, "cpu_s")?);
    let mut o = Outcome {
        digest,
        spans: Value::Seq(reps.iter().map(|r| r["spans"].clone()).collect()),
        ..Outcome::default()
    };
    let mut peak: f64 = 0.0;
    for r in reps {
        o.attempted += num(r, "attempted")? as u64; // cast-ok: count
        o.failed += num(r, "failed")? as u64; // cast-ok: count
        peak = peak.max(num(r, "peak_rss_mb")?);
    }
    let setups = all_nums(reps, "setup_s")?;
    o.metrics.insert("setup_s".into(), median(&setups));
    o.metrics.insert("peak_rss_mb".into(), peak);
    o.diagnostics.insert("setup_s_fastest".into(), fastest(&setups));
    o.diagnostics.insert("trip_ms".into(), best_ms / trips);
    o.diagnostics.insert("cpu_us_per_trip".into(), least_cpu * 1e6 / trips);
    o.diagnostics.insert("trip_ms_fastest_pass".into(), fastest(&pass_ms) / trips);
    o.diagnostics.insert("trip_ms_median_pass".into(), median(&pass_ms) / trips);
    o.diagnostics.insert("trips_per_s".into(), trips * 1e3 / best_ms);
    o.diagnostics.insert("passes".into(), pass_ms.len() as f64); // cast-ok: count
    o.diagnostics.insert("trips_per_pass".into(), trips);
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(digest: u64) -> Outcome {
        let mut o = Outcome { attempted: 10, digest, ..Outcome::default() };
        for m in spec::END_TO_END {
            o.metrics.insert(m.name.to_owned(), 1.0);
        }
        o
    }

    #[test]
    fn a_golden_digest_mismatch_fails_the_run() {
        let golden = "train 1 00000000000000aa\n";
        let ok = outcome(0xaa);
        assert!(verdict([("train", &ok)], 1, golden).is_empty());
        let bad = outcome(0xab);
        let problems = verdict([("train", &bad)], 1, golden);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("golden"));
        // Other seeds are not pinned.
        assert!(verdict([("train", &bad)], 2, golden).is_empty());
    }

    #[test]
    fn wrong_outputs_and_missing_metrics_fail_the_run() {
        let mut o = outcome(0);
        o.failed = 1;
        assert_eq!(verdict([("train", &o)], 1, "").len(), 1);
        let mut o = outcome(0);
        o.metrics.remove("peak_rss_mb");
        assert_eq!(verdict([("train", &o)], 1, "").len(), 1);
    }
}
