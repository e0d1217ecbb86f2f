//! The machine-readable telemetry snapshot and its schema checks.
//!
//! One schema serves every producer — `stmaker-cli --metrics-json`, the
//! server's `GET /metrics` and the Fig. 12 eval binary — so any two
//! reports can be diffed. The top level is always an object
//! with the four keys in [`REQUIRED_KEYS`] (plus the optional `exemplars`
//! and `windows` arrays added by observability v2); [`validate_json`] is
//! the single gate used by `cargo xtask obs-schema` and CI.
//!
//! Serialization is **byte-stable**: counters/gauges/histograms are
//! ordered maps already, and [`Report::to_json_pretty`] additionally
//! sorts span trees by name, exemplars by duration, and windows by index
//! before writing — two runs over identical inputs (and a
//! parse → re-serialize round trip) produce identical bytes, which is
//! what lets `stmaker obs diff` and CI compare reports textually.

use crate::exemplar::Exemplar;
use crate::hist::HistogramSummary;
use crate::window::WindowSummary;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The top-level keys every report JSON must carry.
pub const REQUIRED_KEYS: [&str; 4] = ["spans", "counters", "gauges", "histograms"];

/// A snapshot of everything a [`Recorder`](crate::Recorder) collected.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Aggregated span trees, in first-seen order (sorted by name when
    /// serialized).
    pub spans: Vec<SpanNode>,
    /// Saturating event counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries (empty histograms are omitted).
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Top-K slowest per-trip breakdowns (absent in pre-v2 reports).
    #[serde(default)]
    pub exemplars: Vec<Exemplar>,
    /// Sliding-window summaries from the streaming path (absent in
    /// pre-v2 reports).
    #[serde(default)]
    pub windows: Vec<WindowSummary>,
}

/// One aggregated span: every entry of the same name under the same
/// parent folds into a single node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanNode {
    /// Span name (stage name in the pipeline schema).
    pub name: String,
    /// Times the span was entered and closed.
    pub calls: u64,
    /// Total wall-clock across all calls, milliseconds.
    pub total_ms: f64,
    /// Child spans, in first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Mean wall-clock per call, milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            // cast-ok: call count precision beyond 2^53 is irrelevant for a mean
            self.total_ms / self.calls as f64
        }
    }
}

fn sort_spans(spans: &mut [SpanNode]) {
    spans.sort_by(|a, b| a.name.cmp(&b.name));
    for s in spans {
        sort_spans(&mut s.children);
    }
}

impl Report {
    /// A clone with every collection in canonical order: span trees
    /// sorted by name at every level, exemplars by duration (then id),
    /// windows by index. Maps are `BTreeMap`s and need no work.
    pub fn normalized(&self) -> Report {
        let mut out = self.clone();
        sort_spans(&mut out.spans);
        out.exemplars
            .sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms).then_with(|| a.id.cmp(&b.id)));
        out.windows.sort_by_key(|w| w.index);
        out
    }

    /// Serializes to pretty JSON (the `--metrics-json` / `GET /metrics`
    /// format), in canonical order — byte-stable for
    /// identical recorded state.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.normalized()).unwrap_or_else(|_| "{}".to_owned())
    }

    /// Parses a report back from JSON. Reports written before
    /// observability v2 (no `exemplars`/`windows` keys) parse with empty
    /// defaults.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Writes the pretty JSON form to `path`.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut body = self.to_json_pretty();
        body.push('\n');
        std::fs::write(path, body)
    }

    /// Every span name appearing anywhere in the tree.
    pub fn span_names(&self) -> BTreeSet<String> {
        fn walk(nodes: &[SpanNode], out: &mut BTreeSet<String>) {
            for n in nodes {
                out.insert(n.name.clone());
                walk(&n.children, out);
            }
        }
        let mut out = BTreeSet::new();
        walk(&self.spans, &mut out);
        out
    }
}

/// Validates that `text` is a report-shaped JSON document: a top-level
/// object with all [`REQUIRED_KEYS`], `spans` an array and the other
/// three objects; when the optional `exemplars`/`windows` keys are
/// present they must be arrays of the right shape. Returns the set of
/// span names found (for stage-presence checks). This is deliberately
/// structural, not a full deserialization, so it also guards against a
/// future producer drifting the schema.
pub fn validate_json(text: &str) -> Result<BTreeSet<String>, String> {
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let serde_json::Value::Map(entries) = &value else {
        return Err("top level must be a JSON object".to_owned());
    };
    for key in REQUIRED_KEYS {
        let Some(v) = entries.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
            return Err(format!("missing required top-level key `{key}`"));
        };
        let ok = match key {
            "spans" => matches!(v, serde_json::Value::Seq(_)),
            _ => matches!(v, serde_json::Value::Map(_)),
        };
        if !ok {
            let want = if key == "spans" { "array" } else { "object" };
            return Err(format!("top-level key `{key}` must be a JSON {want}"));
        }
    }
    let mut names = BTreeSet::new();
    if let Some(spans) = value.get("spans") {
        collect_span_names(spans, &mut names)?;
    }
    if let Some(exemplars) = entries.iter().find(|(k, _)| k == "exemplars").map(|(_, v)| v) {
        validate_exemplars(exemplars)?;
    }
    if let Some(windows) = entries.iter().find(|(k, _)| k == "windows").map(|(_, v)| v) {
        validate_windows(windows)?;
    }
    Ok(names)
}

fn collect_span_names(spans: &serde_json::Value, out: &mut BTreeSet<String>) -> Result<(), String> {
    let serde_json::Value::Seq(items) = spans else {
        return Err("`spans`/`children` must be arrays".to_owned());
    };
    for item in items {
        let Some(name) = item.get("name").and_then(|n| n.as_str()) else {
            return Err("every span needs a string `name`".to_owned());
        };
        out.insert(name.to_owned());
        if let Some(children) = item.get("children") {
            collect_span_names(children, out)?;
        }
    }
    Ok(())
}

fn validate_exemplars(exemplars: &serde_json::Value) -> Result<(), String> {
    let serde_json::Value::Seq(items) = exemplars else {
        return Err("`exemplars` must be an array".to_owned());
    };
    for item in items {
        if item.get("id").and_then(|v| v.as_str()).is_none() {
            return Err("every exemplar needs a string `id`".to_owned());
        }
        if item.get("total_ms").and_then(|v| v.as_f64()).is_none() {
            return Err("every exemplar needs a numeric `total_ms`".to_owned());
        }
        if !matches!(item.get("stages"), Some(serde_json::Value::Map(_))) {
            return Err("every exemplar needs a `stages` object".to_owned());
        }
    }
    Ok(())
}

fn validate_windows(windows: &serde_json::Value) -> Result<(), String> {
    let serde_json::Value::Seq(items) = windows else {
        return Err("`windows` must be an array".to_owned());
    };
    for item in items {
        if item.get("index").and_then(|v| v.as_u64()).is_none() {
            return Err("every window needs a non-negative integer `index`".to_owned());
        }
        if !matches!(item.get("counters"), Some(serde_json::Value::Map(_))) {
            return Err("every window needs a `counters` object".to_owned());
        }
        if !matches!(item.get("histograms"), Some(serde_json::Value::Map(_))) {
            return Err("every window needs a `histograms` object".to_owned());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_report() -> Report {
        let obs = Recorder::enabled();
        {
            let _root = obs.span("summarize");
            let _stage = obs.span("partition");
        }
        obs.add("partition.dp_cells", 99);
        obs.gauge("k", 3.0);
        obs.observe_ms("summarize", 1.5);
        obs.report()
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = report.to_json_pretty();
        let back = Report::from_json(&json).expect("round-trips");
        assert_eq!(back.counters["partition.dp_cells"], 99);
        assert_eq!(back.spans[0].name, "summarize");
        assert_eq!(back.spans[0].children[0].name, "partition");
        assert_eq!(back.span_names(), report.span_names());
        assert!(back.exemplars.is_empty() && back.windows.is_empty());
    }

    #[test]
    fn serialization_is_byte_stable() {
        let report = sample_report();
        assert_eq!(report.to_json_pretty(), report.to_json_pretty(), "same state, same bytes");
        // A parse → re-serialize round trip is also byte-identical.
        let json = report.to_json_pretty();
        let back = Report::from_json(&json).expect("round-trips");
        assert_eq!(back.to_json_pretty(), json);
    }

    #[test]
    fn serialization_sorts_spans_by_name_recursively() {
        let obs = Recorder::enabled();
        {
            let _z = obs.span("zeta");
        }
        {
            let _a = obs.span("alpha");
            {
                let _d = obs.span("delta");
            }
            {
                let _b = obs.span("beta");
            }
        }
        let json = obs.report().to_json_pretty();
        let back = Report::from_json(&json).expect("round-trips");
        let roots: Vec<&str> = back.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(roots, ["alpha", "zeta"]);
        let kids: Vec<&str> = back.spans[0].children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(kids, ["beta", "delta"]);
    }

    #[test]
    fn pre_v2_reports_without_new_keys_still_parse() {
        let legacy = r#"{"spans": [], "counters": {"c.x": 1}, "gauges": {}, "histograms": {}}"#;
        let report = Report::from_json(legacy).expect("legacy parses");
        assert!(report.exemplars.is_empty() && report.windows.is_empty());
        assert!(validate_json(legacy).is_ok());
    }

    #[test]
    fn validate_accepts_real_reports_and_returns_span_names() {
        let json = sample_report().to_json_pretty();
        let names = validate_json(&json).expect("valid");
        assert!(names.contains("summarize") && names.contains("partition"), "{names:?}");
    }

    #[test]
    fn validate_rejects_missing_keys_and_wrong_shapes() {
        assert!(validate_json("[1, 2]").unwrap_err().contains("object"));
        assert!(validate_json("{not json").unwrap_err().contains("not valid JSON"));
        let err = validate_json(r#"{"spans": [], "counters": {}, "gauges": {}}"#).unwrap_err();
        assert!(err.contains("histograms"), "{err}");
        let err = validate_json(r#"{"spans": {}, "counters": {}, "gauges": {}, "histograms": {}}"#)
            .unwrap_err();
        assert!(err.contains("array"), "{err}");
        let err = validate_json(
            r#"{"spans": [{"calls": 1}], "counters": {}, "gauges": {}, "histograms": {}}"#,
        )
        .unwrap_err();
        assert!(err.contains("name"), "{err}");
    }

    #[test]
    fn validate_checks_exemplar_and_window_shapes() {
        let base = r#"{"spans": [], "counters": {}, "gauges": {}, "histograms": {}"#;
        let bad = format!(r#"{base}, "exemplars": {{}}}}"#);
        assert!(validate_json(&bad).unwrap_err().contains("exemplars"), "{bad}");
        let bad = format!(r#"{base}, "exemplars": [{{"id": "t"}}]}}"#);
        assert!(validate_json(&bad).unwrap_err().contains("total_ms"));
        let bad = format!(r#"{base}, "exemplars": [{{"id": "t", "total_ms": 1.0}}]}}"#);
        assert!(validate_json(&bad).unwrap_err().contains("stages"));
        let ok = format!(
            r#"{base}, "exemplars": [{{"id": "t", "total_ms": 1.0, "stages": {{"p": 0.5}}}}]}}"#
        );
        assert!(validate_json(&ok).is_ok(), "{ok}");
        let bad = format!(r#"{base}, "windows": [{{"counters": {{}}}}]}}"#);
        assert!(validate_json(&bad).unwrap_err().contains("index"));
        let ok = format!(
            r#"{base}, "windows": [{{"index": 3, "counters": {{}}, "histograms": {{}}}}]}}"#
        );
        assert!(validate_json(&ok).is_ok(), "{ok}");
    }

    #[test]
    fn exemplars_and_windows_round_trip() {
        let obs = Recorder::enabled();
        let mut stages = BTreeMap::new();
        stages.insert("partition".to_owned(), 2.0);
        obs.exemplar(Exemplar { id: "trip_3".into(), total_ms: 2.5, stages });
        let mut w = crate::SlidingWindow::new(2);
        w.add(1, "stream.window.points", 4);
        obs.set_windows(w.summaries());
        let json = obs.report().to_json_pretty();
        assert!(validate_json(&json).is_ok(), "{json}");
        let back = Report::from_json(&json).expect("round-trips");
        assert_eq!(back.exemplars.len(), 1);
        assert_eq!(back.exemplars[0].id, "trip_3");
        assert_eq!(back.exemplars[0].stages["partition"], 2.0);
        assert_eq!(back.windows.len(), 1);
        assert_eq!(back.windows[0].counters["stream.window.points"], 4);
    }

    #[test]
    fn empty_report_is_valid() {
        let names = validate_json(&Report::default().to_json_pretty()).expect("valid");
        assert!(names.is_empty());
    }

    #[test]
    fn mean_ms_handles_zero_calls() {
        let node = SpanNode { name: "x".into(), calls: 0, total_ms: 0.0, children: vec![] };
        assert_eq!(node.mean_ms(), 0.0);
        let node = SpanNode { name: "x".into(), calls: 4, total_ms: 10.0, children: vec![] };
        assert_eq!(node.mean_ms(), 2.5);
    }
}
