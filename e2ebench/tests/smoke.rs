//! The driver end to end at smoke scale, and its contract with
//! `BENCHMARK.json`.

use std::process::Command;

use serde_json::Value;
use stmaker_e2ebench::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

/// Runs `stmaker-bench run --smoke --workload W` and returns the exit
/// status and the JSON object on the last line of standard output.
fn smoke(workload: &str) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_stmaker-bench"))
        .args(["run", "--smoke", "--workload", workload])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line: Value = serde_json::from_str(last).unwrap_or_else(|e| {
        panic!("last line is not JSON ({e}): {last:?}\n{}", String::from_utf8_lossy(&out.stderr))
    });
    (out.status.success(), line)
}

fn assert_result_line(workload: &str) {
    let (ok, line) = smoke(workload);
    assert!(ok, "{workload} smoke run failed: {line}");
    let keys: Vec<&str> =
        line.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line["correct"], true);
    assert_eq!(line["failed"].as_u64(), Some(0));
    assert!(line["attempted"].as_u64().unwrap_or(0) >= 1);
    for m in END_TO_END {
        let v = line["metrics"][m.name]["value"].as_f64();
        assert!(v.is_some_and(|v| v > 0.0), "{workload}: {} = {v:?}", m.name);
        assert_eq!(line["metrics"][m.name]["unit"], m.unit);
    }
}

#[test]
fn batch_dense_smoke_run_checks_outputs_and_reports_every_metric() {
    assert_result_line("batch-dense");
}

#[test]
fn train_smoke_run_checks_outputs_and_reports_every_metric() {
    assert_result_line("train");
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_stmaker-bench"))
        .args(["run", "--workload", "nope"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result on a usage error");
}

fn metric_json(m: &Metric) -> Value {
    let better = m.better.as_str();
    match m.bound {
        Some(b) => {
            serde_json::json!({ "name": m.name, "unit": m.unit, "better": better, "bound": b })
        }
        None => serde_json::json!({ "name": m.name, "unit": m.unit, "better": better }),
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|(name, why)| serde_json::json!({ "name": name, "why": why }))
        .collect();
    assert_eq!(doc["workloads"], Value::Seq(workloads));
    assert_eq!(doc["end_to_end"], Value::Seq(END_TO_END.iter().map(metric_json).collect()));
    assert_eq!(doc["per_layer"], Value::Seq(PER_LAYER.iter().map(metric_json).collect()));
    assert_eq!(doc["paths"], serde_json::json!(["e2ebench"]));
}
