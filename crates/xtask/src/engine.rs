//! The lint engine: file collection, layer dispatch, allowlist and
//! ratchet enforcement, and the machine-readable JSON report.

use crate::allowlist::{Allowlist, ALLOWLIST_FILE};
use crate::layers::{self, FileCtx, Finding, Level, Severity};
use crate::lexer::{lex, Lexed};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Crates whose library code must be panic-free (L2) and fully strict.
pub const STRICT_CRATES: &[&str] =
    &["core", "calibration", "trajectory", "road", "routes", "obs", "exec", "server"];

/// Crates/groups linted in report-only mode: findings print as warnings
/// and do not fail the run. `__root__` is the workspace-root
/// `stmaker-suite` package; `__examples__` / `__experiments__` are the
/// non-crate report-only lanes.
pub const REPORT_ONLY_CRATES: &[&str] =
    &["eval", "xtask", "__root__", "__examples__", "__experiments__"];

/// DP hot-path files subject to the L3 cast rule (workspace-relative).
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/partition.rs",
    "crates/core/src/similarity.rs",
    "crates/core/src/irregular.rs",
    "crates/core/src/select.rs",
];

/// The ratchet file holding per-layer finding baselines, workspace-relative.
pub const RATCHET_FILE: &str = "lint-ratchet.txt";

/// Layers subject to the ratchet (count may only go down).
const RATCHETED_LAYERS: &[&str] = &["L5", "L6"];

/// All layer keys, in report order.
pub const ALL_LAYERS: &[&str] = &["L1", "L2", "L3", "L4", "L5", "L6", "L7"];

#[derive(Debug, Clone)]
pub struct LintOptions {
    pub root: PathBuf,
    /// Promote hygiene warnings (unused allowlist entries) to errors.
    pub strict: bool,
}

#[derive(Debug)]
pub struct LintReport {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    /// Layer (or `allowlist`/`ratchet`) → (errors, warnings).
    pub layer_counts: BTreeMap<String, (usize, usize)>,
    pub errors: usize,
    pub warnings: usize,
    pub strict: bool,
}

pub fn crate_level(crate_key: &str) -> Level {
    if STRICT_CRATES.contains(&crate_key) {
        Level::Strict
    } else if REPORT_ONLY_CRATES.contains(&crate_key) {
        Level::Report
    } else {
        Level::Workspace
    }
}

struct SourceFile {
    crate_key: String,
    rel: String,
    src: String,
}

/// Recursively collects `.rs` files under `dir` as workspace-relative paths.
fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_key: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // groups without sources (e.g. experiments/) scan empty
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(entry.map_err(|e| e.to_string())?.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, root, crate_key, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            out.push(SourceFile { crate_key: crate_key.to_string(), rel, src });
        }
    }
    Ok(())
}

fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut sources = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    let mut crate_names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.path().join("Cargo.toml").is_file() {
            if let Some(name) = entry.file_name().to_str() {
                crate_names.push(name.to_string());
            }
        }
    }
    crate_names.sort();
    for name in &crate_names {
        collect_rs(&crates_dir.join(name).join("src"), root, name, &mut sources)?;
    }
    // The root `stmaker-suite` package's library, plus the report-only
    // lanes over examples/ and experiments/.
    collect_rs(&root.join("src"), root, "__root__", &mut sources)?;
    collect_rs(&root.join("examples"), root, "__examples__", &mut sources)?;
    collect_rs(&root.join("experiments"), root, "__experiments__", &mut sources)?;
    Ok(sources)
}

/// Parses `lint-ratchet.txt`: `layer <count>` lines, `#` comments.
fn parse_ratchet(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(layer), Some(count), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!("{RATCHET_FILE}:{}: expected `<layer> <count>`", i + 1));
        };
        let count: usize =
            count.parse().map_err(|_| format!("{RATCHET_FILE}:{}: bad count `{count}`", i + 1))?;
        out.insert(layer.to_string(), count);
    }
    Ok(out)
}

/// Runs the full L1–L7 lint over the workspace at `opts.root`.
pub fn run_lint(opts: &LintOptions) -> Result<LintReport, String> {
    let root = &opts.root;
    let allow_text = std::fs::read_to_string(root.join(ALLOWLIST_FILE)).unwrap_or_default();
    let allow = Allowlist::parse(&allow_text)?;
    let design_text = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let registry = layers::obs_names::ObsRegistry::from_markdown(&design_text);
    let ratchet_text = std::fs::read_to_string(root.join(RATCHET_FILE)).ok();
    let ratchet = match &ratchet_text {
        Some(t) => Some(parse_ratchet(t)?),
        None => None,
    };

    let sources = collect_sources(root)?;
    let lexed: Vec<Lexed<'_>> = sources.iter().map(|s| lex(&s.src)).collect();
    let ctxs: Vec<FileCtx<'_>> = sources
        .iter()
        .zip(&lexed)
        .map(|(s, lx)| {
            let hot = HOT_PATH_FILES.contains(&s.rel.as_str());
            FileCtx::new(&s.crate_key, &s.rel, lx, crate_level(&s.crate_key), hot)
        })
        .collect();

    let mut findings: Vec<Finding> = Vec::new();

    // Per-file layers.
    for ctx in &ctxs {
        findings.extend(layers::nan::scan(ctx));
        findings.extend(layers::panics::scan(ctx, &allow));
        findings.extend(layers::casts::scan(ctx));
        findings.extend(layers::determinism::scan(ctx));
        findings.extend(layers::locks::scan(ctx));
        findings.extend(layers::obs_names::scan(ctx, &registry));
    }
    // L4 is cross-file per crate.
    let mut by_crate: BTreeMap<&str, Vec<&FileCtx<'_>>> = BTreeMap::new();
    for ctx in &ctxs {
        by_crate.entry(ctx.crate_key).or_default().push(ctx);
    }
    for (crate_key, files) in &by_crate {
        let severity = layers::severity_for(crate_level(crate_key));
        findings.extend(layers::errors::scan(files, severity));
    }

    // Centralized allowlist filter for layers that don't consult it inline
    // (L2 already did, so its entries are marked used by now; checking
    // again here is a no-op for suppressed findings).
    let ctx_by_rel: BTreeMap<&str, &FileCtx<'_>> = ctxs.iter().map(|c| (c.rel, c)).collect();
    findings.retain(|f| {
        let code_line = ctx_by_rel.get(f.path.as_str()).map_or("", |c| c.code_line(f.line));
        !allow.allows(f.rule, &f.path, code_line)
    });

    // Allowlist hygiene: ambiguous suffixes are always errors; unused
    // entries warn (error under --strict).
    let scanned_paths: Vec<String> = sources.iter().map(|s| s.rel.clone()).collect();
    for (e, hits) in allow.ambiguous(&scanned_paths) {
        findings.push(Finding {
            severity: Severity::Error,
            rule: "allowlist",
            path: ALLOWLIST_FILE.to_string(),
            line: e.src_line,
            message: format!(
                "path-suffix `{}` is ambiguous: matches {} files ({}); qualify it",
                e.path_suffix,
                hits.len(),
                hits.join(", ")
            ),
        });
    }
    for e in allow.unused() {
        findings.push(Finding {
            severity: if opts.strict { Severity::Error } else { Severity::Warning },
            rule: "allowlist",
            path: ALLOWLIST_FILE.to_string(),
            line: e.src_line,
            message: format!(
                "unused entry `{} | {} | {}` ({})",
                e.layer, e.path_suffix, e.needle, e.justification
            ),
        });
    }
    if !registry.present {
        findings.push(Finding {
            severity: Severity::Warning,
            rule: "L7",
            path: "DESIGN.md".to_string(),
            line: 0,
            message: "no instrumentation tables found (backticked names in markdown \
                      table rows); L7 membership checks were skipped"
                .to_string(),
        });
    }

    // Per-layer counts (before ratchet findings, which are derived).
    let mut layer_counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for l in ALL_LAYERS.iter().chain(&["allowlist", "ratchet"]) {
        layer_counts.insert((*l).to_string(), (0, 0));
    }
    for f in &findings {
        let slot = layer_counts.entry(f.rule.to_string()).or_insert((0, 0));
        match f.severity {
            Severity::Error => slot.0 += 1,
            Severity::Warning => slot.1 += 1,
        }
    }

    // Ratchet: L5/L6 totals may not exceed the committed baseline.
    if let Some(baselines) = &ratchet {
        for layer in RATCHETED_LAYERS {
            let (e, w) = layer_counts.get(*layer).copied().unwrap_or((0, 0));
            let current = e + w;
            let Some(&baseline) = baselines.get(*layer) else {
                findings.push(Finding {
                    severity: Severity::Warning,
                    rule: "ratchet",
                    path: RATCHET_FILE.to_string(),
                    line: 0,
                    message: format!("no `{layer}` baseline committed; add `{layer} {current}`"),
                });
                continue;
            };
            if current > baseline {
                findings.push(Finding {
                    severity: Severity::Error,
                    rule: "ratchet",
                    path: RATCHET_FILE.to_string(),
                    line: 0,
                    message: format!(
                        "{layer} findings regressed: {current} > committed baseline {baseline}"
                    ),
                });
            } else if current < baseline {
                findings.push(Finding {
                    severity: Severity::Warning,
                    rule: "ratchet",
                    path: RATCHET_FILE.to_string(),
                    line: 0,
                    message: format!(
                        "{layer} findings dropped to {current}; tighten {RATCHET_FILE} \
                         from {baseline}"
                    ),
                });
            }
        }
        // Recount with ratchet findings included.
        for f in findings.iter().filter(|f| f.rule == "ratchet") {
            let slot = layer_counts.entry("ratchet".to_string()).or_insert((0, 0));
            match f.severity {
                Severity::Error => slot.0 += 1,
                Severity::Warning => slot.1 += 1,
            }
        }
    }

    findings.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    let errors = findings.iter().filter(|f| f.severity == Severity::Error).count();
    let warnings = findings.len() - errors;
    Ok(LintReport {
        files_scanned: sources.len(),
        findings,
        layer_counts,
        errors,
        warnings,
        strict: opts.strict,
    })
}

/// Serializes a report to the machine-readable JSON consumed by
/// `cargo xtask lint-schema` and CI.
pub fn report_to_json(report: &LintReport) -> String {
    let layers = serde_json::Value::Map(
        report
            .layer_counts
            .iter()
            .map(|(k, (e, w))| (k.clone(), serde_json::json!({ "errors": *e, "warnings": *w })))
            .collect(),
    );
    let findings: Vec<serde_json::Value> = report
        .findings
        .iter()
        .map(|f| {
            serde_json::json!({
                "layer": f.rule,
                "severity": match f.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                },
                "path": f.path,
                "line": f.line,
                "message": f.message,
            })
        })
        .collect();
    let v = serde_json::json!({
        "tool": "stmaker-xtask-lint",
        "version": 2,
        "strict": report.strict,
        "files_scanned": report.files_scanned,
        "errors": report.errors,
        "warnings": report.warnings,
        "layers": layers,
        "findings": findings,
    });
    serde_json::to_string_pretty(&v).unwrap_or_else(|_| "{}".to_string())
}

/// Validates a lint JSON report: required keys, full layer coverage, and
/// count consistency. Returns a one-line summary on success.
pub fn validate_report_json(text: &str) -> Result<String, String> {
    use serde_json::Value;
    let v: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    v.as_object().ok_or("top level must be a JSON object")?;
    if v.get("tool").and_then(Value::as_str) != Some("stmaker-xtask-lint") {
        return Err("`tool` must be \"stmaker-xtask-lint\"".to_string());
    }
    if v.get("version").and_then(Value::as_u64) != Some(2) {
        return Err("`version` must be 2".to_string());
    }
    let get_u64 = |key: &str| -> Result<u64, String> {
        v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing or non-integer `{key}`"))
    };
    let files_scanned = get_u64("files_scanned")?;
    let errors = get_u64("errors")?;
    let warnings = get_u64("warnings")?;
    let layers = v.get("layers").ok_or("missing `layers` object")?;
    let layer_entries = layers.as_object().ok_or("`layers` must be an object")?;
    for required in ALL_LAYERS.iter().chain(&["allowlist", "ratchet"]) {
        let entry =
            layers.get(required).ok_or_else(|| format!("`layers` must cover `{required}`"))?;
        for k in ["errors", "warnings"] {
            entry
                .get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("`layers.{required}.{k}` must be an integer"))?;
        }
    }
    let findings = v.get("findings").and_then(Value::as_array).ok_or("missing `findings` array")?;
    let mut counted_errors = 0u64;
    let mut counted_warnings = 0u64;
    for (i, f) in findings.iter().enumerate() {
        f.as_object().ok_or_else(|| format!("findings[{i}] must be an object"))?;
        let layer = f
            .get("layer")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("findings[{i}].layer must be a string"))?;
        if layers.get(layer).is_none() {
            return Err(format!("findings[{i}].layer `{layer}` not in `layers`"));
        }
        for k in ["path", "message", "severity"] {
            f.get(k)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("findings[{i}].{k} must be a string"))?;
        }
        f.get("line")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("findings[{i}].line must be an integer"))?;
        match f.get("severity").and_then(Value::as_str) {
            Some("error") => counted_errors += 1,
            Some("warning") => counted_warnings += 1,
            other => return Err(format!("findings[{i}].severity bad: {other:?}")),
        }
    }
    if counted_errors != errors || counted_warnings != warnings {
        return Err(format!(
            "count mismatch: top-level says {errors} error(s)/{warnings} warning(s), \
             findings hold {counted_errors}/{counted_warnings}"
        ));
    }
    let layer_errors: u64 =
        layer_entries.iter().filter_map(|(_, l)| l.get("errors").and_then(Value::as_u64)).sum();
    let layer_warnings: u64 =
        layer_entries.iter().filter_map(|(_, l)| l.get("warnings").and_then(Value::as_u64)).sum();
    if layer_errors != errors || layer_warnings != warnings {
        return Err(format!(
            "layer count mismatch: layers sum to {layer_errors}/{layer_warnings}, \
             top-level says {errors}/{warnings}"
        ));
    }
    Ok(format!(
        "{files_scanned} file(s), {errors} error(s), {warnings} warning(s), \
         {} finding(s), all layers covered",
        findings.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratchet_parses_and_rejects_garbage() {
        let r = parse_ratchet("# c\nL5 3\nL6 0\n").expect("parses");
        assert_eq!(r.get("L5"), Some(&3));
        assert_eq!(r.get("L6"), Some(&0));
        assert!(parse_ratchet("L5 x\n").is_err());
        assert!(parse_ratchet("L5 1 2\n").is_err());
    }

    #[test]
    fn json_roundtrip_validates() {
        let report = LintReport {
            files_scanned: 3,
            findings: vec![Finding {
                severity: Severity::Warning,
                rule: "L2",
                path: "crates/eval/src/x.rs".to_string(),
                line: 7,
                message: "test".to_string(),
            }],
            layer_counts: {
                let mut m = BTreeMap::new();
                for l in ALL_LAYERS.iter().chain(&["allowlist", "ratchet"]) {
                    m.insert((*l).to_string(), (0, 0));
                }
                m.insert("L2".to_string(), (0, 1));
                m
            },
            errors: 0,
            warnings: 1,
            strict: false,
        };
        let json = report_to_json(&report);
        let summary = validate_report_json(&json).expect("validates");
        assert!(summary.contains("3 file(s)"), "{summary}");
    }

    #[test]
    fn validation_rejects_inconsistent_reports() {
        assert!(validate_report_json("not json").is_err());
        assert!(validate_report_json("{}").is_err());
        let bad_counts = r#"{"tool":"stmaker-xtask-lint","version":2,"strict":false,
            "files_scanned":1,"errors":5,"warnings":0,
            "layers":{"L1":{"errors":0,"warnings":0},"L2":{"errors":0,"warnings":0},
                "L3":{"errors":0,"warnings":0},"L4":{"errors":0,"warnings":0},
                "L5":{"errors":0,"warnings":0},"L6":{"errors":0,"warnings":0},
                "L7":{"errors":0,"warnings":0},"allowlist":{"errors":0,"warnings":0},
                "ratchet":{"errors":0,"warnings":0}},
            "findings":[]}"#;
        let err = validate_report_json(bad_counts).unwrap_err();
        assert!(err.contains("count mismatch"), "{err}");
    }
}
