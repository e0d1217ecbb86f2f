//! `cargo xtask` — repo-local static analysis driver for the stmaker
//! workspace.
//!
//! Subcommands:
//!
//! * `lint [--root <dir>] [--strict] [--json <path>]` — run the token-aware
//!   L1–L7 lint engine (see `stmaker_xtask::layers` and DESIGN.md §13).
//!   `--strict` promotes hygiene warnings (unused allowlist entries) to
//!   errors; `--json` additionally writes the machine-readable report.
//! * `lint-schema <report.json>` — validate a report written by
//!   `lint --json`: required keys, full L1–L7 layer coverage, and count
//!   consistency.
//! * `obs-schema <report.json> [--require-stages a,b,c]
//!   [--require-counters a,b] [--require-positive a,b]` — validate a
//!   telemetry report produced by `stmaker-cli --metrics-json`, the
//!   server's `GET /metrics`, or the Fig. 12 eval binary:
//!   the file must be a JSON object with the `spans` / `counters` /
//!   `gauges` / `histograms` top-level keys, and (optionally) must contain
//!   a span for every named pipeline stage, every named counter, and a
//!   strictly positive value for every named gauge.
//!
//! Run via the `.cargo/config.toml` alias: `cargo xtask lint`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use stmaker_xtask::engine::{self, LintOptions};

const USAGE: &str =
    "usage: cargo xtask lint [--root <workspace-dir>] [--strict] [--json <path>]\n       \
                     cargo xtask lint-schema <report.json>\n       \
                     cargo xtask obs-schema <report.json> [--require-stages a,b,c]\n           \
                     [--require-counters a,b,c] [--require-positive gauge-a,gauge-b]\n           \
                     [--require-exemplars N] [--require-windows N]\n       \
                     cargo xtask trace-schema <trace.json> [--require-names a,b,c]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("lint-schema") => cmd_lint_schema(&args[1..]),
        Some("obs-schema") => cmd_obs_schema(&args[1..]),
        Some("trace-schema") => cmd_trace_schema(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut strict = false;
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--strict" => strict = true,
            "--json" => match it.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    let report = match engine::run_lint(&LintOptions { root, strict }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    let per_layer: Vec<String> = report
        .layer_counts
        .iter()
        .filter(|(_, (e, w))| e + w > 0)
        .map(|(l, (e, w))| format!("{l}: {e}E/{w}W"))
        .collect();
    println!(
        "xtask lint: {} file(s) scanned, {} error(s), {} warning(s){}",
        report.files_scanned,
        report.errors,
        report.warnings,
        if per_layer.is_empty() { String::new() } else { format!(" [{}]", per_layer.join(", ")) }
    );
    if let Some(path) = json_out {
        let json = engine::report_to_json(&report);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("xtask lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("xtask lint: JSON report written to {}", path.display());
    }
    if report.errors > 0 {
        eprintln!("xtask lint: {} error(s)", report.errors);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_lint_schema(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("lint-schema needs exactly one report path\n{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask lint-schema: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match engine::validate_report_json(&text) {
        Ok(summary) => {
            println!("xtask lint-schema: {path} ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask lint-schema: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a `stmaker-obs` telemetry report file: required top-level
/// keys, structural shape, and (optionally) presence of named stage
/// spans, named counters, and strictly positive named gauges.
fn cmd_obs_schema(args: &[String]) -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut required: Vec<String> = Vec::new();
    let mut required_counters: Vec<String> = Vec::new();
    let mut required_positive: Vec<String> = Vec::new();
    let mut min_exemplars: Option<usize> = None;
    let mut min_windows: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require-stages" => match it.next() {
                Some(list) => {
                    required.extend(
                        list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from),
                    );
                }
                None => {
                    eprintln!("--require-stages needs a comma-separated list");
                    return ExitCode::from(2);
                }
            },
            "--require-counters" => match it.next() {
                Some(list) => {
                    required_counters.extend(
                        list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from),
                    );
                }
                None => {
                    eprintln!("--require-counters needs a comma-separated list");
                    return ExitCode::from(2);
                }
            },
            "--require-positive" => match it.next() {
                Some(list) => {
                    required_positive.extend(
                        list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from),
                    );
                }
                None => {
                    eprintln!("--require-positive needs a comma-separated list of gauges");
                    return ExitCode::from(2);
                }
            },
            "--require-exemplars" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => min_exemplars = Some(n),
                _ => {
                    eprintln!("--require-exemplars needs a minimum count");
                    return ExitCode::from(2);
                }
            },
            "--require-windows" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => min_windows = Some(n),
                _ => {
                    eprintln!("--require-windows needs a minimum count");
                    return ExitCode::from(2);
                }
            },
            other if path.is_none() => path = Some(PathBuf::from(other)),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("obs-schema needs a report path\n{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask obs-schema: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let span_names = match stmaker_obs::report::validate_json(&text) {
        Ok(names) => names,
        Err(e) => {
            eprintln!("xtask obs-schema: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let missing: Vec<&String> = required.iter().filter(|s| !span_names.contains(*s)).collect();
    if !missing.is_empty() {
        eprintln!(
            "xtask obs-schema: {}: missing required stage span(s): {}",
            path.display(),
            missing.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::FAILURE;
    }
    if !required_counters.is_empty()
        || !required_positive.is_empty()
        || min_exemplars.is_some()
        || min_windows.is_some()
    {
        // The structural validation above accepted the shape; a full parse
        // gives us counter/gauge values for the presence checks.
        let report = match stmaker_obs::Report::from_json(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xtask obs-schema: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if let Some(min) = min_exemplars {
            if report.exemplars.len() < min {
                eprintln!(
                    "xtask obs-schema: {}: {} exemplar(s), need at least {min}",
                    path.display(),
                    report.exemplars.len()
                );
                return ExitCode::FAILURE;
            }
        }
        if let Some(min) = min_windows {
            if report.windows.len() < min {
                eprintln!(
                    "xtask obs-schema: {}: {} metric window(s), need at least {min}",
                    path.display(),
                    report.windows.len()
                );
                return ExitCode::FAILURE;
            }
        }
        let missing: Vec<&String> =
            required_counters.iter().filter(|c| !report.counters.contains_key(*c)).collect();
        if !missing.is_empty() {
            eprintln!(
                "xtask obs-schema: {}: missing required counter(s): {}",
                path.display(),
                missing.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
            );
            return ExitCode::FAILURE;
        }
        for gauge in &required_positive {
            match report.gauges.get(gauge) {
                Some(v) if *v > 0.0 => {}
                Some(v) => {
                    eprintln!(
                        "xtask obs-schema: {}: gauge `{gauge}` must be positive, got {v}",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!(
                        "xtask obs-schema: {}: missing required gauge `{gauge}`",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "xtask obs-schema: {} ok ({} span name(s){})",
        path.display(),
        span_names.len(),
        if required.is_empty() && required_counters.is_empty() && required_positive.is_empty() {
            String::new()
        } else {
            format!(
                ", {} stage(s) / {} counter(s) / {} positive gauge(s) checked",
                required.len(),
                required_counters.len(),
                required_positive.len()
            )
        }
    );
    ExitCode::SUCCESS
}

/// Validates a Chrome trace-event file written by `--trace-out`:
/// structural shape (known phases, monotone timestamps, stable pid/tid,
/// balanced begin/end pairs) plus, optionally, presence of named spans.
fn cmd_trace_schema(args: &[String]) -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut required: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--require-names" => match it.next() {
                Some(list) => {
                    required.extend(
                        list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from),
                    );
                }
                None => {
                    eprintln!("--require-names needs a comma-separated list");
                    return ExitCode::from(2);
                }
            },
            other if path.is_none() => path = Some(PathBuf::from(other)),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("trace-schema needs a trace path\n{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask trace-schema: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let stats = match stmaker_obs::validate_chrome_trace(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask trace-schema: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let missing: Vec<&String> = required.iter().filter(|n| !stats.names.contains(*n)).collect();
    if !missing.is_empty() {
        eprintln!(
            "xtask trace-schema: {}: missing required span name(s): {}",
            path.display(),
            missing.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::FAILURE;
    }
    println!(
        "xtask trace-schema: {} ok ({} event(s), {} name(s){})",
        path.display(),
        stats.events,
        stats.names.len(),
        if required.is_empty() {
            String::new()
        } else {
            format!(", {} required name(s) present", required.len())
        }
    );
    ExitCode::SUCCESS
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}
