//! `stmaker-bench` command line.
//!
//! ```text
//! stmaker-bench run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                       [--out FILE] [--cli PATH] [--smoke]
//! stmaker-bench trace   (as run, with --trace 1 and --out trace.json by default)
//! stmaker-bench compare A.json... -- B.json...
//! ```
//!
//! The last line `run` prints is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exit codes: 0 when every output
//! was correct, 1 on a wrong output or a failed run, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use stmaker_e2ebench::digest::GOLDEN;
use stmaker_e2ebench::inputs::Scale;
use stmaker_e2ebench::report::{self, WorkloadResult};
use stmaker_e2ebench::workload::{self, Inputs, RunOpts};
use stmaker_e2ebench::{batch, breakdown, compare, spec, train};

/// Seconds each measured phase runs for unless `--seconds` says otherwise
/// (the `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  stmaker-bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--out FILE] [--cli PATH] [--smoke]\n  stmaker-bench trace [same options; --out \
         defaults to trace.json]\n  stmaker-bench compare A.json... -- B.json...\n\nworkloads: {}",
        spec::WORKLOADS.iter().map(|(w, _)| *w).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

/// Options of `run`, `trace` and `worker`.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: Option<PathBuf>,
    cli: Option<PathBuf>,
    dir: Option<PathBuf>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        out: None,
        cli: None,
        dir: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("missing value after {flag}"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" if spec::is_workload(value) => a.workload = Some(value.clone()),
            "--workload" => return Err(bad()),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = Some(value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                a.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            "--cli" => a.cli = Some(PathBuf::from(value)),
            "--dir" => a.dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag} {value}")),
        }
    }
    Ok(a)
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Left in place while another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(a: Args) -> Result<ExitCode, String> {
    let scale = if a.smoke { Scale::SMOKE } else { Scale::FULL };
    let seconds = a.seconds.unwrap_or(if a.smoke { 0.2 } else { DEFAULT_SECONDS });
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let cli = a.cli.clone().unwrap_or_else(|| exe.with_file_name("stmaker-cli"));
    let work = WorkDir(PathBuf::from(".bench_work").join(std::process::id().to_string()));
    let opts =
        RunOpts { seconds, scale, cli, worker: exe, work_dir: work.0.clone(), traced: false };
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|(w, _)| *w).collect(),
    };
    let mut results = Vec::new();
    for name in names {
        eprintln!("{name}: generating inputs (seed {})", a.seed);
        let inputs = Inputs::build(name, a.seed, scale);
        eprintln!("{name}: measuring for {seconds} s per phase");
        let untraced = workload::run(name, &inputs, &opts)?;
        let traced = if a.traced {
            eprintln!("{name}: traced repeat and breakdown pass");
            let traced_opts = RunOpts { traced: true, ..opts.clone() };
            let t = workload::run(name, &inputs, &traced_opts)?;
            let (layers, spans) = breakdown::run(name, &inputs, &opts)?;
            Some((t, layers, spans))
        } else {
            None
        };
        results.push(WorkloadResult { name: name.to_owned(), untraced, traced });
    }
    // The golden digests pin the full-scale inputs only.
    let golden = if a.smoke { "" } else { GOLDEN };
    let problems =
        workload::verdict(results.iter().map(|r| (r.name.as_str(), &r.untraced)), a.seed, golden);
    for p in &problems {
        eprintln!("error: {p}");
    }
    if let Some(path) = &a.out {
        let doc = report::out_file(a.seed, seconds, &results, &problems);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        workload::write(path, text.as_bytes())?;
        eprintln!("wrote {}", path.display());
    }
    print!("{}", report::human(a.seed, &results));
    let line = report::result_line(&results, problems.is_empty(), a.traced);
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The measured process of `batch-dense` and `train`: prints one JSON
/// report line.
fn worker(a: Args) -> Result<ExitCode, String> {
    let dir = a.dir.ok_or("worker needs --dir")?;
    let seconds = a.seconds.ok_or("worker needs --seconds")?;
    let report = match a.workload.as_deref() {
        Some("batch-dense") => batch::worker(&dir, seconds, a.traced)?,
        Some("train") => train::worker(&dir, seconds, a.traced)?,
        other => return Err(format!("no worker for {other:?}")),
    };
    println!("{}", serde_json::to_string(&report).map_err(|e| e.to_string())?);
    Ok(ExitCode::SUCCESS)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let split =
        args.iter().position(|a| a == "--").ok_or("compare needs A.json... -- B.json...")?;
    let load = |paths: &[String]| -> Result<Vec<serde_json::Value>, String> {
        paths
            .iter()
            .map(|p| {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                serde_json::from_str(&text).map_err(|e| format!("{p} is not a result file: {e}"))
            })
            .collect()
    };
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one run on each side".to_owned());
    }
    let (text, regressed) = compare::compare(&a, &b);
    print!("{text}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "compare" => compare_cmd(rest),
        "run" | "trace" | "worker" => match parse(rest) {
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
            Ok(mut a) => match cmd.as_str() {
                "worker" => worker(a),
                "trace" => {
                    a.traced = true;
                    a.out.get_or_insert_with(|| PathBuf::from("trace.json"));
                    run(a)
                }
                _ => run(a),
            },
        },
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
