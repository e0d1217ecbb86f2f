//! `stmaker-cli` — drive the whole stack from a shell.
//!
//! Because the reproduction has no real map, trajectories only make sense
//! relative to a *world*; `gen` therefore writes a `world.json` config next
//! to the exported trips, and every other subcommand deterministically
//! regenerates that exact world (same seed → byte-identical landmarks and
//! history) before summarizing.
//!
//! ```text
//! stmaker-cli gen --dir /tmp/demo --trips 20 --seed 7
//! stmaker-cli train --dir /tmp/demo --out /tmp/demo/model.stc
//! stmaker-cli summarize --dir /tmp/demo --trip trip_003.csv --k 3
//! stmaker-cli group --dir /tmp/demo
//! stmaker-cli search --dir /tmp/demo --query "u-turn station"
//! stmaker-cli demo
//! ```
//!
//! The global `--trace` flag prints a per-stage span tree after any
//! subcommand, and `--metrics-json PATH` writes the full telemetry report
//! (spans, counters, gauges, histograms) as JSON.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stmaker::{
    standard_features, FeatureWeights, Recorder, SummarizeError, Summarizer, SummarizerConfig,
    TrainedModel,
};
use stmaker_generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_io::{
    decode_runs, decode_trip, decode_trips, read_model_file, summary_to_geojson, write_model_file,
    write_point_runs_stc, write_trajectory_csv_to, write_trajectory_jsonl_to, write_trips_stc,
    DecodeError, DecodedTrip, TripFormat,
};
use stmaker_obs::TraceClock;
use stmaker_server::{ServeConfig, Server};
use stmaker_textmine::InvertedIndex;
use stmaker_trajectory::{sanitize, RawTrajectory, SanitizeConfig, SanitizePolicy};

/// Global observability options, stripped from the argument list before
/// subcommand dispatch so every subcommand accepts them in any position.
struct Obs {
    recorder: Recorder,
    trace: bool,
    metrics_json: Option<PathBuf>,
    /// Worker threads for training/batch stages; 0 = auto
    /// (`STMAKER_THREADS` env, else available parallelism).
    threads: usize,
    /// Ingest-hardening policy for trip files (`--sanitize POLICY`); `None`
    /// means strict parsing with no repair.
    sanitize: Option<SanitizePolicy>,
    /// Capacity of the read-through route cache on the serving path
    /// (`--route-cache N`); 0 = disabled. Purely a latency knob — results
    /// are byte-identical either way.
    route_cache: usize,
    /// Write a Chrome trace-event JSON of the event journal here
    /// (`--trace-out FILE`); loads in `about://tracing` / Perfetto.
    trace_out: Option<PathBuf>,
    /// Timestamp source for the exported trace (`--trace-clock`):
    /// `logical` (the default — drain order, byte-identical across thread
    /// counts) or `wall` (real microseconds).
    trace_clock: TraceClock,
}

impl Obs {
    /// Extracts `--trace` / `--metrics-json PATH` / `--trace-out FILE` /
    /// `--trace-clock SRC` / `--threads N` / `--sanitize POLICY` /
    /// `--route-cache N` from `args` (removing them) and builds the
    /// matching recorder: journal-backed if `--trace-out` is present,
    /// enabled if another tracing flag is, the zero-cost no-op otherwise.
    fn extract(args: &mut Vec<String>) -> Result<Self, String> {
        let mut trace = false;
        let mut metrics_json = None;
        let mut threads = 0usize;
        let mut sanitize = None;
        let mut route_cache = 0usize;
        let mut trace_out = None;
        let mut trace_clock = TraceClock::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--trace" => {
                    trace = true;
                    args.remove(i);
                }
                "--metrics-json" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("missing path after --metrics-json".to_owned());
                    }
                    metrics_json = Some(PathBuf::from(args.remove(i)));
                }
                "--trace-out" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("missing path after --trace-out".to_owned());
                    }
                    trace_out = Some(PathBuf::from(args.remove(i)));
                }
                "--trace-clock" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("missing source after --trace-clock".to_owned());
                    }
                    let v = args.remove(i);
                    trace_clock = TraceClock::parse(&v)
                        .ok_or_else(|| format!("bad value for --trace-clock: {v:?}"))?;
                }
                "--threads" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("missing count after --threads".to_owned());
                    }
                    let v = args.remove(i);
                    threads = v.parse().map_err(|_| format!("bad value for --threads: {v:?}"))?;
                }
                "--sanitize" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("missing policy after --sanitize".to_owned());
                    }
                    let v = args.remove(i);
                    sanitize = Some(v.parse::<SanitizePolicy>()?);
                }
                "--route-cache" => {
                    args.remove(i);
                    if i >= args.len() {
                        return Err("missing capacity after --route-cache".to_owned());
                    }
                    let v = args.remove(i);
                    route_cache =
                        v.parse().map_err(|_| format!("bad value for --route-cache: {v:?}"))?;
                }
                _ => i += 1,
            }
        }
        let recorder = if trace_out.is_some() {
            Recorder::enabled_with_journal(stmaker_obs::DEFAULT_JOURNAL_CAPACITY)
        } else if trace || metrics_json.is_some() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        Ok(Self {
            recorder,
            trace,
            metrics_json,
            threads,
            sanitize,
            route_cache,
            trace_out,
            trace_clock,
        })
    }

    /// Renders/writes the collected telemetry after the subcommand ran.
    fn finish(&self) -> Result<(), String> {
        if !self.trace && self.metrics_json.is_none() && self.trace_out.is_none() {
            return Ok(());
        }
        let report = self.recorder.report();
        if self.trace {
            eprintln!("\n{}", stmaker_obs::stats::render(&report));
        }
        if let Some(path) = &self.metrics_json {
            report.write_json(path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote metrics to {}", path.display());
        }
        if let Some(path) = &self.trace_out {
            let text = self.recorder.chrome_trace(self.trace_clock);
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "wrote trace to {} (open in about://tracing or ui.perfetto.dev)",
                path.display()
            );
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `obs` is a pure report/trace tool: it takes no world or recorder and
    // owns its exit codes (1 = timing regression, 2 = structural loss or
    // unreadable input), so it dispatches before the global-flag parse.
    if args.first().map(|s| s.as_str()) == Some("obs") {
        return cmd_obs(&args[1..]);
    }
    let result = Obs::extract(&mut args).and_then(|obs| {
        let r = match args.first().map(|s| s.as_str()) {
            Some("demo") => cmd_demo(&args[1..], &obs),
            Some("gen") => cmd_gen(&args[1..], &obs),
            Some("convert") => cmd_convert(&args[1..], &obs),
            Some("train") => cmd_train(&args[1..], &obs),
            Some("summarize") => cmd_summarize(&args[1..], &obs),
            Some("sanitize") => cmd_sanitize(&args[1..], &obs),
            Some("group") => cmd_group(&args[1..], &obs),
            Some("search") => cmd_search(&args[1..], &obs),
            Some("serve") => cmd_serve(&args[1..], &obs),
            Some("help") | Some("--help") | Some("-h") | None => {
                print_usage();
                Ok(())
            }
            Some(other) => Err(format!("unknown subcommand {other:?}; try `stmaker-cli help`")),
        };
        r.and_then(|()| obs.finish())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "stmaker-cli — trajectory summarization (ICDE'15 reproduction)\n\n\
         USAGE:\n  stmaker-cli <subcommand> [options]\n\n\
         SUBCOMMANDS:\n  \
         demo       [--seed N] [--hour H] [--k K] [--trip FILE] [--repeat N]\n  \
         \x20                                          one-shot world+trip demo; --repeat\n  \
         \x20                                          re-summarizes the trip as an N-copy\n  \
         \x20                                          batch and prints the cache hit rate\n  \
         gen        --dir DIR [--trips N] [--seed N] export trips as CSV + world.json\n  \
         convert    [--in FILE | --dir DIR] [--out FILE | --out-dir DIR]\n  \
         \x20          [--to stc|csv|jsonl]               re-encode trips between the text\n  \
         \x20                                          formats and columnar STC1\n  \
         train      --dir DIR [--out FILE] [--n-train N] save a trained model as STC1\n  \
         \x20                                          (default DIR/model.stc)\n  \
         summarize  --dir DIR --trip FILE [--k K] [--model FILE] [--geojson FILE]\n  \
         sanitize   --trip FILE [--max-speed M] [--max-gap S] [--out FILE]\n  \
         \x20                                          audit/repair a trip file\n  \
         group      --dir DIR [--min-share F]       group summary of every trip in DIR\n  \
         search     --dir DIR --query \"...\" [--top K] keyword search over summaries\n  \
         serve      --dir DIR [--addr HOST:PORT] [--workers N] [--queue N]\n  \
         \x20          [--model FILE] [--n-train N]     std-only HTTP server: /summarize,\n  \
         \x20                                          /summarize_batch, /ingest, /model\n  \
         \x20                                          (GET + hot-swap POST), /healthz,\n  \
         \x20                                          /metrics, /shutdown\n  \
         obs diff   BASE.json NEW.json [--threshold X] [--min-base-ms MS]\n  \
         \x20          [--timing-warn-only]             compare two --metrics-json reports;\n  \
         \x20                                          exit 1 on timing regression, 2 on\n  \
         \x20                                          missing metrics\n  \
         obs top    TRACE.json [--depth N]           aggregate a --trace-out file into a\n  \
         \x20                                          flamegraph-style text tree\n  \
         help                                        this message\n\n\
         EXIT CODES:\n  \
         0   success (including warn-only timing findings)\n  \
         1   any error outside `obs` (bad or missing arguments, an unknown\n  \
         \x20    subcommand, unreadable input), or an `obs diff` timing\n  \
         \x20    regression\n  \
         2   `obs diff` hard key-loss only (a metric/span present in BASE\n  \
         \x20    is missing from NEW)\n  \
         64  `obs` usage error (EX_USAGE): bad or missing `obs` arguments,\n  \
         \x20    or a report or trace file that cannot be read or parsed\n\n\
         GLOBAL OPTIONS:\n  \
         --trace                print a per-stage span/counter table on exit\n  \
         --metrics-json PATH    write the telemetry report as JSON\n  \
         --trace-out PATH       write the event journal as Chrome trace-event\n  \
         \x20                      JSON (open in about://tracing or Perfetto)\n  \
         --trace-clock SRC      trace timestamps: logical (default; drain\n  \
         \x20                      order, byte-identical across thread counts)\n  \
         \x20                      or wall (real microseconds)\n  \
         --threads N            worker threads for train/batch stages\n  \
         \x20                      (0 = auto; also via STMAKER_THREADS; results\n  \
         \x20                      are identical for every thread count)\n  \
         --sanitize POLICY      ingest hardening for trip files: strict |\n  \
         \x20                      repair | drop (defects counted to stderr;\n  \
         \x20                      without the flag, parsing is strict and\n  \
         \x20                      defective files are rejected with an error)\n  \
         --route-cache N        read-through serving cache holding N routes\n  \
         \x20                      (0 = off, the default; summaries are\n  \
         \x20                      byte-identical with and without it)"
    );
}

/// Tiny `--key value` parser; flags may appear in any order.
struct Opts<'a> {
    args: &'a [String],
}

impl<'a> Opts<'a> {
    /// Every subcommand option is a `--key value` pair whose key is in
    /// `known`. An unknown key, or a key given last with no value, is an
    /// error rather than an option silently left unset.
    fn new(args: &'a [String], known: &[&str]) -> Result<Self, String> {
        for pair in args.chunks(2) {
            let key = pair[0].as_str();
            if !known.contains(&key) {
                return Err(format!("unknown option {key:?}; try `stmaker-cli help`"));
            }
            if pair.len() < 2 {
                return Err(format!("missing value after {key}"));
            }
        }
        Ok(Self { args })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.args.chunks(2).find(|pair| pair[0] == key).map(|pair| pair[1].as_str())
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v:?}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required option {key}"))
    }
}

/// World + trained summarizer assembly shared by the subcommands.
struct Stack {
    world: World,
    recorder: Recorder,
    threads: usize,
    route_cache: usize,
}

/// A model read from a `--model` file, with the path its errors name.
struct LoadedModel<'p> {
    path: &'p str,
    model: TrainedModel,
}

impl Stack {
    fn from_config(cfg: WorldConfig, obs: &Obs) -> Self {
        Self::build(cfg, obs.recorder.clone(), obs)
    }

    /// Builds the world of `cfg`, timed as `startup.world` on `recorder`.
    fn build(cfg: WorldConfig, recorder: Recorder, obs: &Obs) -> Self {
        eprintln!("building world (seed {})…", cfg.seed);
        let span = recorder.span("startup.world");
        let world = World::generate(cfg);
        drop(span);
        Self { world, recorder, threads: obs.threads, route_cache: obs.route_cache }
    }

    /// Reads and checks `DIR/world.json`, then builds its world on this
    /// thread while a second thread reads the `model` file, if one was
    /// given: the two do not depend on each other. A bad `world.json` is
    /// reported before the model is touched, and a model that does not
    /// load (or a loader thread that panics) after the world is built.
    /// The loader times itself and the read is recorded here, after the
    /// join, as `startup.model_read`, so the span tree does not depend on
    /// which thread finished first.
    fn start<'p>(
        dir: &Path,
        model: Option<&'p str>,
        recorder: Recorder,
        obs: &Obs,
    ) -> Result<(Self, Option<LoadedModel<'p>>), String> {
        let cfg = load_world_config(dir)?;
        std::thread::scope(|s| {
            let loader = model.map(|path| {
                eprintln!("loading model {path}…");
                let read = s.spawn(move || {
                    let t0 = Instant::now();
                    (read_model_file(path), t0.elapsed())
                });
                (path, read)
            });
            let stack = Self::build(cfg, recorder, obs);
            let Some((path, read)) = loader else { return Ok((stack, None)) };
            let (model, took) = read
                .join()
                .map_err(|p| format!("cannot load model {path}: {}", panic_message(&*p)))?;
            stack.recorder.span_observed("startup.model_read", took);
            let model = model.map_err(|e| format!("cannot load model {path}: {e}"))?;
            Ok((stack, Some(LoadedModel { path, model })))
        })
    }

    /// The default pipeline config with this stack's recorder, thread
    /// count and route cache attached.
    fn config(&self) -> SummarizerConfig {
        SummarizerConfig::default()
            .with_recorder(self.recorder.clone())
            .with_threads(self.threads)
            .with_route_cache(self.route_cache)
    }

    fn train(&self, n_train: usize) -> Summarizer<'_> {
        eprintln!("training on {n_train} historical trips…");
        let gen = TripGenerator::new(&self.world, TripConfig::default());
        let training: Vec<RawTrajectory> =
            gen.generate_corpus(n_train, 0x7EA1).into_iter().map(|t| t.raw).collect();
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        Summarizer::train(
            &self.world.net,
            &self.world.registry,
            &training,
            features,
            weights,
            self.config(),
        )
    }

    /// The summarizer over a loaded model, or over one trained fresh on
    /// `n_train` trips when `--model` was not given; timed as
    /// `startup.summarizer`.
    fn summarizer(
        &self,
        model: Option<LoadedModel<'_>>,
        n_train: usize,
    ) -> Result<Summarizer<'_>, String> {
        let _span = self.recorder.span("startup.summarizer");
        let Some(LoadedModel { path, model }) = model else { return Ok(self.train(n_train)) };
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        Summarizer::try_from_model(
            &self.world.net,
            &self.world.registry,
            model,
            features,
            weights,
            self.config(),
        )
        .map_err(|e| match e {
            SummarizeError::ModelMismatch { model, registry } => format!(
                "model {path} was trained against a different world \
                 ({model} landmarks vs this world's {registry}); retrain with `train` \
                 or point --dir at the world the model came from"
            ),
            e => format!("model {path}: {e}"),
        })
    }
}

/// What a panic on the model loader thread reports, with its message if
/// it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    match message {
        Some(m) => format!("the loader thread panicked: {m}"),
        None => "the loader thread panicked".to_owned(),
    }
}

fn load_world_config(dir: &Path) -> Result<WorldConfig, String> {
    let path = dir.join("world.json");
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} (run `gen` first)", path.display()))?;
    let cfg: WorldConfig =
        serde_json::from_str(&body).map_err(|e| format!("bad world.json: {e}"))?;
    cfg.validate().map_err(|e| format!("bad world.json: {e}"))?;
    Ok(cfg)
}

fn trip_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().map(|x| x == "csv").unwrap_or(false)
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("trip_"))
                    .unwrap_or(false)
        })
        .collect();
    files.sort();
    Ok(files)
}

fn read_trip_bytes(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// A trip file's decode error, prefixed with its path; a container with
/// the wrong trip count also says how to split it.
fn decode_failed(path: &Path, e: &DecodeError) -> String {
    let hint = match e {
        DecodeError::TripCount { .. } => " (split it with `convert --out-dir`)",
        _ => "",
    };
    format!("{}: {e}{hint}", path.display())
}

/// The trajectory of one decoded trip, its sanitize report printed and
/// recorded; a refused trip is an error prefixed with `what`.
fn accept(decoded: DecodedTrip, what: &str, obs: &Obs) -> Result<RawTrajectory, String> {
    if let Some(report) = &decoded.report {
        eprintln!("{report}");
        report.record(&obs.recorder);
    }
    decoded.trip.map_err(|e| format!("{what}: {e}"))
}

/// Loads the one trip of a trip file (CSV, JSON-lines, or a single-trip
/// STC1 container).
fn load_trip(path: &Path, obs: &Obs) -> Result<RawTrajectory, String> {
    let bytes = read_trip_bytes(path)?;
    let decoded = decode_trip(&bytes, TripFormat::of_path(path), obs.sanitize)
        .map_err(|e| decode_failed(path, &e))?;
    accept(decoded, &path.display().to_string(), obs)
}

/// Loads every trip of a trip file; an STC1 container may hold many, and
/// a refused one is named by its index.
fn load_trips(path: &Path, obs: &Obs) -> Result<Vec<RawTrajectory>, String> {
    let bytes = read_trip_bytes(path)?;
    decode_trips(&bytes, TripFormat::of_path(path), obs.sanitize)
        .map_err(|e| decode_failed(path, &e))?
        .into_iter()
        .enumerate()
        .map(|(i, d)| accept(d, &format!("{}: trip {i}", path.display()), obs))
        .collect()
}

/// Writes one trajectory in the encoding named by the path's extension,
/// through a `BufWriter` so text rows don't pay a syscall per line.
fn write_trip_file(path: &Path, traj: &RawTrajectory) -> Result<(), String> {
    write_trip_as(path, traj, TripFormat::of_path(path))
}

/// [`write_trip_file`] with an explicit encoding (for `convert --to`,
/// where the target may disagree with the output extension).
fn write_trip_as(path: &Path, traj: &RawTrajectory, fmt: TripFormat) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    match fmt {
        TripFormat::Stc => {
            std::fs::write(path, write_point_runs_stc([traj.points()])).map_err(fail)
        }
        text => {
            let mut w = BufWriter::new(std::fs::File::create(path).map_err(fail)?);
            match text {
                TripFormat::Jsonl => write_trajectory_jsonl_to(&mut w, traj).map_err(fail)?,
                _ => write_trajectory_csv_to(&mut w, traj).map_err(fail)?,
            }
            w.flush().map_err(fail)
        }
    }
}

fn cmd_demo(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts = Opts::new(args, &["--seed", "--hour", "--k", "--trip", "--repeat"])?;
    let seed: u64 = opts.parse("--seed", 2024)?;
    let hour: f64 = opts.parse("--hour", 8.5)?;
    let k = Some(opts.parse::<usize>("--k", 0)?).filter(|&k| k > 0);
    let repeat: usize = opts.parse("--repeat", 1)?;

    // `--trip FILE` summarizes a file against the demo world instead of a
    // generated trip — the smoke path for ingest hardening (the file must
    // come from the same seed's world for calibration to anchor). Loaded
    // before the world build so a bad file fails fast.
    let file_trip = opts.get("--trip").map(|file| load_trip(Path::new(file), obs)).transpose()?;

    let stack = Stack::from_config(WorldConfig::small(seed), obs);
    let summarizer = stack.train(150);

    if let Some(raw) = file_trip {
        println!("trip: {} samples", raw.len());
        let summary = summarizer.summarize(raw.points(), k).map_err(|e| e.to_string())?;
        println!("\n{}", summary.text);
        return Ok(());
    }

    let gen = TripGenerator::new(&stack.world, TripConfig::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE60);
    let trip = (0..100)
        .find_map(|_| gen.generate_at(0, hour, &mut rng))
        .ok_or("could not generate a trip")?;
    println!(
        "trip: {} samples, {:.1} km, departing {:02}:{:02}",
        trip.raw.len(),
        trip.raw.length_m() / 1000.0,
        hour as u32,
        ((hour % 1.0) * 60.0) as u32,
    );
    let summary = summarizer.summarize(trip.raw.points(), k).map_err(|e| e.to_string())?;
    println!("\n{}", summary.text);

    // `--repeat N` re-summarizes the same trip as an N-copy batch: every
    // copy after the first hits the warm route cache (when enabled), so
    // the printed hit rate shows what a repeated-pair serving workload
    // gets out of `--route-cache`.
    if repeat > 1 {
        let trips = vec![trip.raw.points(); repeat];
        let t0 = std::time::Instant::now();
        let results = summarizer.summarize_batch(&trips, k);
        let elapsed = t0.elapsed();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        eprintln!("\nre-summarized {repeat} copies in {elapsed:.1?} ({ok} ok)");
        match summarizer.route_cache_stats() {
            Some(s) => eprintln!(
                "route cache: {} of {} lookups hit ({:.1}% hit rate), {} evictions",
                s.hits,
                s.hits + s.misses,
                100.0 * s.hit_rate(),
                s.evictions
            ),
            None => eprintln!("route cache disabled (enable with --route-cache N)"),
        }
    }
    Ok(())
}

/// Audits (and under repair/drop policies, repairs) a trip file without
/// summarizing it: prints the defect report, per-segment sizes, and
/// optionally writes the longest surviving segment back out as CSV.
fn cmd_sanitize(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts = Opts::new(args, &["--trip", "--max-speed", "--max-gap", "--out"])?;
    let file = PathBuf::from(opts.require("--trip")?);
    let max_speed: f64 = opts.parse("--max-speed", 70.0)?;
    let max_gap: i64 = opts.parse("--max-gap", 1800)?;

    let bytes = read_trip_bytes(&file)?;
    let runs =
        decode_runs(&bytes, TripFormat::of_path(&file)).map_err(|e| decode_failed(&file, &e))?;
    let [pts] = &runs[..] else {
        return Err(decode_failed(&file, &DecodeError::TripCount { got: runs.len() }));
    };

    let cfg = SanitizeConfig {
        policy: obs.sanitize.unwrap_or_default(),
        max_speed_mps: max_speed,
        max_gap_secs: max_gap,
    };
    let cleaned = sanitize(pts, &cfg).map_err(|e| format!("{}: {e}", file.display()))?;
    cleaned.report.record(&obs.recorder);
    println!("{}", cleaned.report);
    for (i, seg) in cleaned.segments.iter().enumerate() {
        println!(
            "  segment {i}: {} samples, t={}..{}",
            seg.len(),
            seg[0].t.0,
            seg[seg.len() - 1].t.0
        );
    }
    if let Some(out) = opts.get("--out") {
        let longest = cleaned
            .longest()
            .ok_or_else(|| format!("{}: no usable segment to write", file.display()))?;
        let traj = RawTrajectory::try_new(longest.to_vec()).map_err(|e| e.to_string())?;
        write_trip_file(Path::new(out), &traj)?;
        eprintln!("wrote repaired trajectory ({} samples) to {out}", traj.len());
    }
    Ok(())
}

fn cmd_gen(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts = Opts::new(args, &["--dir", "--trips", "--seed"])?;
    let dir = PathBuf::from(opts.require("--dir")?);
    let trips: usize = opts.parse("--trips", 20)?;
    let seed: u64 = opts.parse("--seed", 2024)?;

    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cfg = WorldConfig::small(seed);
    std::fs::write(
        dir.join("world.json"),
        serde_json::to_string_pretty(&cfg).expect("config serializes"),
    )
    .map_err(|e| e.to_string())?;

    let stack = Stack::from_config(cfg, obs);
    let gen = TripGenerator::new(&stack.world, TripConfig::default());
    let corpus = gen.generate_corpus(trips, seed ^ 0x6E6);
    for (i, trip) in corpus.iter().enumerate() {
        let path = dir.join(format!("trip_{i:03}.csv"));
        write_trip_file(&path, &trip.raw)?;
    }
    println!("wrote {} trips and world.json to {}", corpus.len(), dir.display());
    Ok(())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Re-encodes trips between the text formats and STC1.
///
/// ```text
/// convert --dir DIR --out trips.stc                    bundle a corpus
/// convert --in trips.stc --out-dir DIR --to csv        split it back out
/// convert --in trip_000.csv --out trip_000.jsonl       single trip
/// ```
///
/// `--sanitize` applies the usual repair policy per input trip before
/// writing. Emits the `io.*` counters (DESIGN.md §13.4) into the global
/// recorder.
fn cmd_convert(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts = Opts::new(args, &["--in", "--dir", "--out", "--out-dir", "--to"])?;
    let out = opts.get("--out").map(PathBuf::from);
    let out_dir = opts.get("--out-dir").map(PathBuf::from);
    if out.is_some() == out_dir.is_some() {
        return Err("convert takes exactly one of --out FILE or --out-dir DIR".to_owned());
    }
    let target = match opts.get("--to") {
        Some(t) => t.parse::<TripFormat>()?,
        None => out
            .as_ref()
            .and_then(|p| p.extension().and_then(|x| x.to_str()))
            .and_then(|x| x.parse::<TripFormat>().ok())
            .ok_or("cannot infer the target encoding; pass --to stc|csv|jsonl")?,
    };

    let inputs: Vec<PathBuf> = if let Some(dir) = opts.get("--dir") {
        let dir = Path::new(dir);
        let files = trip_files(dir)?;
        if files.is_empty() {
            return Err(format!("no trip_*.csv files in {}", dir.display()));
        }
        files
    } else {
        vec![PathBuf::from(opts.require("--in")?)]
    };

    // Load every trip; an `.stc` input may carry many per file.
    let mut trips: Vec<RawTrajectory> = Vec::new();
    let mut bytes_read = 0u64;
    for path in &inputs {
        bytes_read += file_len(path);
        trips.extend(load_trips(path, obs)?);
    }
    let points_read: u64 = trips.iter().map(|t| t.len() as u64).sum();
    obs.recorder.add("io.trips_read", trips.len() as u64);
    obs.recorder.add("io.points_read", points_read);
    obs.recorder.add("io.bytes_read", bytes_read);

    let mut outputs: Vec<PathBuf> = Vec::new();
    match (target, &out, &out_dir) {
        (TripFormat::Stc, Some(path), _) => {
            std::fs::write(path, write_trips_stc(&trips))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            outputs.push(path.clone());
        }
        (TripFormat::Stc, None, _) => {
            return Err("--to stc writes one container; pass --out FILE".to_owned());
        }
        (fmt, Some(path), _) => {
            let [trip] = &trips[..] else {
                return Err(format!(
                    "{} trips to write; pass --out-dir DIR for one file per trip",
                    trips.len()
                ));
            };
            write_trip_as(path, trip, fmt)?;
            outputs.push(path.clone());
        }
        (fmt, None, Some(dir)) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            for (i, trip) in trips.iter().enumerate() {
                let path = dir.join(format!("trip_{i:03}.{fmt}"));
                write_trip_as(&path, trip, fmt)?;
                outputs.push(path);
            }
        }
        (_, None, None) => unreachable!("out xor out_dir checked above"),
    }
    let bytes_written: u64 = outputs.iter().map(|p| file_len(p)).sum();
    obs.recorder.add("io.trips_written", trips.len() as u64);
    obs.recorder.add("io.points_written", points_read);
    obs.recorder.add("io.bytes_written", bytes_written);
    println!(
        "converted {} trips ({points_read} points, {bytes_read} bytes in) to {} file(s) \
         ({bytes_written} bytes out)",
        trips.len(),
        outputs.len(),
    );
    Ok(())
}

fn cmd_train(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts = Opts::new(args, &["--dir", "--out", "--n-train"])?;
    let dir = PathBuf::from(opts.require("--dir")?);
    let n_train: usize = opts.parse("--n-train", 300)?;
    let out = opts.get("--out").map(PathBuf::from).unwrap_or_else(|| dir.join("model.stc"));

    let stack = Stack::from_config(load_world_config(&dir)?, obs);
    let summarizer = stack.train(n_train);
    write_model_file(&out, summarizer.model())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("trained on {} trips; model saved to {}", summarizer.model().n_trained, out.display());
    Ok(())
}

fn cmd_summarize(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts = Opts::new(args, &["--dir", "--trip", "--k", "--model", "--geojson"])?;
    let dir = PathBuf::from(opts.require("--dir")?);
    let trip_file = opts.require("--trip")?;
    let k = Some(opts.parse::<usize>("--k", 0)?).filter(|&k| k > 0);

    let raw = load_trip(&dir.join(trip_file), obs)?;

    let (stack, model) = Stack::start(&dir, opts.get("--model"), obs.recorder.clone(), obs)?;
    let summarizer = stack.summarizer(model, 300)?;
    let summary = summarizer.summarize(raw.points(), k).map_err(|e| e.to_string())?;

    println!("{}", summary.text);
    if let Some(out) = opts.get("--geojson") {
        let gj = summary_to_geojson(&summary, &stack.world.registry);
        std::fs::write(out, serde_json::to_string_pretty(&gj).expect("geojson serializes"))
            .map_err(|e| e.to_string())?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

fn cmd_group(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts = Opts::new(args, &["--dir", "--min-share", "--model"])?;
    let dir = PathBuf::from(opts.require("--dir")?);
    let min_share: f64 = opts.parse("--min-share", 0.15)?;

    let files = trip_files(&dir)?;
    if files.is_empty() {
        return Err(format!("no trip_*.csv files in {}", dir.display()));
    }
    // Unparsable files are skipped with a warning — one corrupt upload must
    // not take the whole corridor report down.
    let mut trips: Vec<RawTrajectory> = Vec::new();
    for p in &files {
        match load_trip(p, obs) {
            Ok(t) => trips.push(t),
            Err(e) => eprintln!("warning: skipping {e}"),
        }
    }
    if trips.is_empty() {
        return Err("no readable trips in the directory".to_owned());
    }

    let (stack, model) = Stack::start(&dir, opts.get("--model"), obs.recorder.clone(), obs)?;
    let summarizer = stack.summarizer(model, 300)?;
    let group = summarizer.summarize_group(&trips, min_share).map_err(|e| e.to_string())?;
    println!("{}", group.text);
    println!(
        "\n({} of {} trips summarized; drill-down below)",
        group.n_summarized, group.n_trajectories
    );
    for (i, m) in group.members.iter().enumerate() {
        println!("  [{i:02}] {}", m.text);
    }
    Ok(())
}

fn cmd_search(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts = Opts::new(args, &["--dir", "--query", "--top", "--model"])?;
    let dir = PathBuf::from(opts.require("--dir")?);
    let query = opts.require("--query")?;
    let top: usize = opts.parse("--top", 5)?;

    let files = trip_files(&dir)?;
    if files.is_empty() {
        return Err(format!("no trip_*.csv files in {}", dir.display()));
    }
    let (stack, model) = Stack::start(&dir, opts.get("--model"), obs.recorder.clone(), obs)?;
    let summarizer = stack.summarizer(model, 300)?;

    let mut names = Vec::new();
    let mut texts = Vec::new();
    for p in &files {
        let raw = match load_trip(p, obs) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("warning: skipping {e}");
                continue;
            }
        };
        if let Ok(s) = summarizer.summarize(raw.points(), None) {
            names.push(p.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_owned());
            texts.push(s.text);
        }
    }
    let index = InvertedIndex::build(&texts);
    let hits = index.search(query, top);
    if hits.is_empty() {
        println!("no summaries match {query:?}");
        return Ok(());
    }
    println!("top matches for {query:?}:");
    for (doc, score) in hits {
        println!("  {:.3}  {}  {}", score, names[doc], texts[doc]);
    }
    Ok(())
}

/// Serves the summarization stack over HTTP until `POST /shutdown`.
fn cmd_serve(args: &[String], obs: &Obs) -> Result<(), String> {
    let opts =
        Opts::new(args, &["--dir", "--addr", "--workers", "--queue", "--n-train", "--model"])?;
    let dir = PathBuf::from(opts.require("--dir")?);
    let addr = opts.get("--addr").unwrap_or("127.0.0.1:8080").to_owned();
    let workers: usize = opts.parse("--workers", 0)?;
    let queue_depth: usize = opts.parse("--queue", 64)?;
    let n_train: usize = opts.parse("--n-train", 300)?;

    // A serving process always publishes `/metrics`: without the global
    // `--trace`/`--metrics-json` flags the CLI recorder is disabled, so
    // force one on rather than serving an empty report. It is on before
    // the world is built, so `/metrics` shows the start-up spans.
    let recorder =
        if obs.recorder.is_enabled() { obs.recorder.clone() } else { Recorder::enabled() };
    let (stack, model) = Stack::start(&dir, opts.get("--model"), recorder, obs)?;
    let summarizer = stack.summarizer(model, n_train)?;
    let cfg = ServeConfig {
        addr,
        workers,
        queue_depth,
        sanitize: obs.sanitize,
        ..ServeConfig::default()
    };
    let server = Server::from_summarizer(summarizer, cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "serving on http://{} ({} workers, queue {queue_depth}); POST /shutdown to drain",
        server.local_addr(),
        server.worker_count(),
    );
    server.run();
    eprintln!("drained");
    Ok(())
}

// ---------------------------------------------------------------------------
// `obs` — offline report/trace tooling. No world, no recorder; reads the
// files that `--metrics-json` / `--trace-out` wrote.
//
// Exit-code contract (documented in `print_usage`, covered by the
// exit_codes integration tests):
//   0  — clean, or findings downgraded by `--timing-warn-only`
//   1  — timing regression (`obs diff`), or any error outside `obs`
//   2  — hard structural loss ONLY: the new report dropped metrics/spans
//        the base had (`obs diff`)
//   64 — usage error (EX_USAGE): bad/missing flags or arguments, or an
//        unreadable/unparseable report/trace input file. Distinct from 2
//        so CI can tell "the pipeline lost telemetry" from "the diff was
//        invoked wrong / fed a bad file".

/// EX_USAGE from BSD sysexits: the command line (or an input file named on
/// it) was unusable — not a verdict about the data being compared.
const EXIT_USAGE: u8 = 64;

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(EXIT_USAGE)
}

fn cmd_obs(args: &[String]) -> ExitCode {
    match args.first().map(|s| s.as_str()) {
        Some("diff") => cmd_obs_diff(&args[1..]),
        Some("top") => cmd_obs_top(&args[1..]),
        _ => usage_error(
            "usage: stmaker-cli obs <diff BASE.json NEW.json [--threshold X] \
             [--min-base-ms MS] [--timing-warn-only] | top TRACE.json [--depth N]>",
        ),
    }
}

fn load_report(path: &str) -> Result<stmaker_obs::Report, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    stmaker_obs::Report::from_json(&body).map_err(|e| format!("{path}: {e}"))
}

/// Compares two `--metrics-json` reports. Exit codes: 0 = clean (or
/// timing findings under `--timing-warn-only`), 1 = timing regression,
/// 2 = structural loss (missing metric/span), 64 = usage error including
/// a missing/unparseable report file — an unreadable input is not a
/// regression verdict.
fn cmd_obs_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<&str> = Vec::new();
    let mut opts = stmaker_obs::DiffOptions::default();
    let mut timing_warn_only = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timing-warn-only" => {
                timing_warn_only = true;
                i += 1;
            }
            key @ ("--threshold" | "--min-base-ms") => {
                let Some(v) = args.get(i + 1) else {
                    return usage_error(&format!("missing value after {key}"));
                };
                let Ok(parsed) = v.parse::<f64>() else {
                    return usage_error(&format!("bad value for {key}: {v:?}"));
                };
                if key == "--threshold" {
                    opts.threshold = parsed;
                } else {
                    opts.min_base_ms = parsed;
                }
                i += 2;
            }
            p => {
                paths.push(p);
                i += 1;
            }
        }
    }
    let [base_path, new_path] = paths[..] else {
        return usage_error("usage: stmaker-cli obs diff BASE.json NEW.json");
    };
    // An input that cannot be read or parsed is a usage error, NOT exit 2:
    // 2 is the "hard key-loss" verdict, and conflating the two would let a
    // typo'd path masquerade as a telemetry regression in CI.
    let (base, new) = match (load_report(base_path), load_report(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    print!("{}", stmaker_obs::render_deltas(&base, &new));
    let findings = stmaker_obs::diff(&base, &new, &opts);
    let hard = findings.iter().filter(|f| f.severity == stmaker_obs::Severity::Hard).count();
    let soft = findings.len() - hard;
    for f in &findings {
        let tag = match f.severity {
            stmaker_obs::Severity::Hard => "HARD",
            stmaker_obs::Severity::Soft => "soft",
        };
        println!("{tag}: {}", f.message);
    }
    if hard > 0 {
        eprintln!("{hard} structural regression(s): {new_path} lost metrics {base_path} had");
        ExitCode::from(2)
    } else if soft > 0 && !timing_warn_only {
        eprintln!("{soft} timing regression(s) past {}x", opts.threshold);
        ExitCode::FAILURE
    } else {
        if soft > 0 {
            eprintln!("{soft} timing regression(s) — reported as warnings (--timing-warn-only)");
        } else {
            println!("no regressions");
        }
        ExitCode::SUCCESS
    }
}

/// One aggregated node of the `obs top` tree.
#[derive(Default)]
struct TopNode {
    calls: u64,
    total_us: u64,
    children: std::collections::BTreeMap<String, TopNode>,
}

/// Adds one completed span at `path` (root-to-leaf names).
fn top_record(root: &mut TopNode, path: &[&str], dur_us: u64) {
    let mut node = root;
    for seg in path {
        node = node.children.entry((*seg).to_owned()).or_default();
    }
    node.calls += 1;
    node.total_us += dur_us;
}

/// Aggregates a Chrome trace-event file into a flamegraph-style text
/// tree: per-(pid, tid) begin/end stacks, call paths summed across the
/// run, children sorted slowest-first.
fn top_tree(body: &str, max_depth: usize) -> Result<String, String> {
    let v: serde_json::Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let events = v.get("traceEvents").and_then(|e| e.as_array()).ok_or("no traceEvents array")?;
    let mut root = TopNode::default();
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<(String, u64)>> =
        std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("");
        let key = (
            e.get("pid").and_then(|p| p.as_u64()).unwrap_or(0),
            e.get("tid").and_then(|t| t.as_u64()).unwrap_or(0),
        );
        let ts = e.get("ts").and_then(|t| t.as_u64()).unwrap_or(0);
        let stack = stacks.entry(key).or_default();
        match ph {
            "B" => stack.push((name.to_owned(), ts)),
            "E" => {
                if let Some((opened, begin_ts)) = stack.pop() {
                    let path: Vec<&str> =
                        stack.iter().map(|(n, _)| n.as_str()).chain([opened.as_str()]).collect();
                    top_record(&mut root, &path, ts.saturating_sub(begin_ts));
                }
            }
            "X" | "i" => {
                let dur = e.get("dur").and_then(|d| d.as_u64()).unwrap_or(0);
                let path: Vec<&str> = stack.iter().map(|(n, _)| n.as_str()).chain([name]).collect();
                top_record(&mut root, &path, dur);
            }
            _ => {}
        }
    }
    let mut out = String::new();
    render_top(&root, 0, max_depth, &mut out);
    if out.is_empty() {
        out.push_str("(no spans in trace)\n");
    }
    Ok(out)
}

fn render_top(node: &TopNode, depth: usize, max_depth: usize, out: &mut String) {
    if depth >= max_depth {
        return;
    }
    let mut kids: Vec<(&String, &TopNode)> = node.children.iter().collect();
    kids.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
    for (name, child) in kids {
        let ms = child.total_us as f64 / 1e3; // cast-ok: µs total for display
        out.push_str(&format!(
            "{}{name}  calls {}  total {ms:.3} ms\n",
            "  ".repeat(depth),
            child.calls,
        ));
        render_top(child, depth + 1, max_depth, out);
    }
}

/// Prints the aggregated span tree of a `--trace-out` file.
fn cmd_obs_top(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut depth = usize::MAX;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--depth" => {
                let Some(v) = args.get(i + 1) else {
                    return usage_error("missing value after --depth");
                };
                let Ok(parsed) = v.parse::<usize>() else {
                    return usage_error(&format!("bad value for --depth: {v:?}"));
                };
                depth = parsed;
                i += 2;
            }
            p => {
                path = Some(p.to_owned());
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        return usage_error("usage: stmaker-cli obs top TRACE.json [--depth N]");
    };
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
    };
    match top_tree(&body, depth) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => usage_error(&format!("{path}: {e}")),
    }
}
