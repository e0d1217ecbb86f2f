//! Result rendering: the human table, the one-line JSON result the last line
//! of standard output carries, and the `--out` file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::{json, Value};

use crate::spec::{Metric, END_TO_END, PER_LAYER, UNGATED};
use crate::workload::Outcome;

/// One workload's results.
pub struct WorkloadResult {
    pub name: String,
    pub untraced: Outcome,
    /// Traced runs only: the traced repeat, and the per-layer metrics.
    pub traced: Option<(Outcome, BTreeMap<String, f64>, Value)>,
}

impl WorkloadResult {
    /// Per-layer metrics including the tracing overhead on each
    /// end-to-end metric, gated or not (traced minus untraced, in % of
    /// untraced).
    pub fn per_layer(&self) -> BTreeMap<String, f64> {
        let Some((traced, layers, _)) = &self.traced else { return BTreeMap::new() };
        let mut out = layers.clone();
        let (u, t) = (&self.untraced, traced);
        let gated = END_TO_END.iter().map(|m| (m, &u.metrics, &t.metrics));
        let ungated = UNGATED.iter().map(|m| (m, &u.diagnostics, &t.diagnostics));
        for (m, before, after) in gated.chain(ungated) {
            if let (Some(a), Some(b)) = (before.get(m.name), after.get(m.name)) {
                out.insert(format!("trace_overhead.{}", m.name), (b / a - 1.0) * 100.0);
            }
        }
        out
    }
}

fn metrics_json(
    table: &[Metric],
    values: &BTreeMap<String, f64>,
    prefix: &str,
) -> Vec<(String, Value)> {
    table
        .iter()
        .filter_map(|m| {
            let v = values.get(m.name)?;
            Some((format!("{prefix}{}", m.name), json!({ "value": v, "unit": m.unit })))
        })
        .collect()
}

fn as_map(values: &BTreeMap<String, f64>) -> Value {
    Value::Map(values.iter().map(|(k, v)| (k.clone(), json!(v))).collect())
}

/// The result line: `correct`, `attempted`, `failed` and `metrics` —
/// the end-to-end metrics of an untraced run, the per-layer metrics of a
/// traced one. With several workloads, metric names get a `workload.`
/// prefix.
pub fn result_line(results: &[WorkloadResult], correct: bool, traced: bool) -> Value {
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for r in results {
        let prefix = if single { String::new() } else { format!("{}.", r.name) };
        if traced {
            metrics.extend(metrics_json(PER_LAYER, &r.per_layer(), &prefix));
        } else {
            metrics.extend(metrics_json(END_TO_END, &r.untraced.metrics, &prefix));
        }
    }
    json!({
        "correct": correct,
        "attempted": results.iter().map(|r| r.untraced.attempted).sum::<u64>(),
        "failed": results.iter().map(|r| r.untraced.failed).sum::<u64>(),
        "metrics": Value::Map(metrics),
    })
}

/// Everything a run measured, for `--out` and for `compare`.
pub fn out_file(seed: u64, seconds: f64, results: &[WorkloadResult], problems: &[String]) -> Value {
    let workloads = results
        .iter()
        .map(|r| {
            let o = &r.untraced;
            let mut w = vec![
                ("correct".to_owned(), json!(o.failed == 0)),
                ("attempted".to_owned(), json!(o.attempted)),
                ("failed".to_owned(), json!(o.failed)),
                ("digest".to_owned(), json!(format!("{:016x}", o.digest))),
                ("metrics".to_owned(), Value::Map(metrics_json(END_TO_END, &o.metrics, ""))),
                ("diagnostics".to_owned(), as_map(&o.diagnostics)),
            ];
            if let Some((t, _, breakdown)) = &r.traced {
                w.push((
                    "per_layer".to_owned(),
                    Value::Map(metrics_json(PER_LAYER, &r.per_layer(), "")),
                ));
                w.push(("traced_metrics".to_owned(), as_map(&t.metrics)));
                w.push(("traced_diagnostics".to_owned(), as_map(&t.diagnostics)));
                w.push(("coarse_spans".to_owned(), t.spans.clone()));
                w.push(("breakdown_spans".to_owned(), breakdown.clone()));
            }
            (r.name.clone(), Value::Map(w))
        })
        .collect();
    json!({
        "seed": seed,
        "seconds": seconds,
        "problems": problems,
        "workloads": Value::Map(workloads),
    })
}

/// The human-readable table: every metric with its name and unit.
pub fn human(seed: u64, results: &[WorkloadResult]) -> String {
    let mut s = String::new();
    for r in results {
        let o = &r.untraced;
        let _ = writeln!(
            s,
            "{} (seed {seed}): {} of {} operations correct",
            r.name,
            o.attempted - o.failed.min(o.attempted),
            o.attempted
        );
        for m in END_TO_END {
            if let Some(v) = o.metrics.get(m.name) {
                let _ = writeln!(s, "  {:<34} {v:>14.6} {}", m.name, m.unit);
            }
        }
        for (k, v) in &o.diagnostics {
            let _ = writeln!(s, "  {:<34} {v:>14.6}   (diagnostic)", k);
        }
        let layers = r.per_layer();
        for m in PER_LAYER {
            if let Some(v) = layers.get(m.name) {
                let _ = writeln!(s, "  {:<34} {v:>14.6} {}", m.name, m.unit);
            }
        }
    }
    s
}
