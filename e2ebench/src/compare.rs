//! `stmaker-bench compare A.json… -- B.json…`: the acceptance rule for a
//! claimed gain, applied to interleaved runs of a parent (A) and a change
//! (B). `A[i]` and `B[i]` form a pair.

use std::fmt::Write as _;

use serde_json::Value;

use crate::spec::{Better, Metric, END_TO_END, UNGATED, WORKLOADS};
use crate::stats::{median, quartiles, relative_iqr};

/// Pairs a gain must rest on.
pub const MIN_PAIRS: usize = 10;

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At least [`MIN_PAIRS`] pairs, B better in 9 of 10 of them, and the
    /// medians differ by more than A's inter-quartile distance.
    Win,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, so "no regression"
    /// cannot be shown (unless every B run beats every A run).
    Unresolved,
    /// No claimable gain, and no regression beyond the bound.
    WithinBound,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Win => "win",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::WithinBound => "within bound",
        }
    }
}

/// Applies the rule to one metric's paired samples.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let (q1a, q3a) = quartiles(a);
    let wins = a.iter().zip(b).filter(|(x, y)| better.improves(**x, **y)).count();
    let enough = pairs >= MIN_PAIRS && wins * 10 >= pairs * 9;
    if enough && better.improves(ma, mb) && (mb - ma).abs() > q3a - q1a {
        return Verdict::Win;
    }
    if better.worsening(ma, mb) > bound {
        return Verdict::Regression;
    }
    let b_beats_all = b.iter().all(|y| a.iter().all(|x| better.improves(*x, *y)));
    if relative_iqr(a).max(relative_iqr(b)) > bound && !b_beats_all {
        return Verdict::Unresolved;
    }
    Verdict::WithinBound
}

/// One metric's values across runs, read from `--out` files: a gated
/// metric, or else a diagnostic of that name.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            let w = &r["workloads"][workload];
            w["metrics"][metric]["value"].as_f64().or_else(|| w["diagnostics"][metric].as_f64())
        })
        .collect()
}

/// Failed operations over attempted ones, summed across runs.
fn error_rate(runs: &[Value], workload: &str) -> Option<f64> {
    let sum =
        |k: &str| -> f64 { runs.iter().filter_map(|r| r["workloads"][workload][k].as_f64()).sum() };
    let attempted = sum("attempted");
    (attempted > 0.0).then(|| sum("failed") / attempted)
}

fn row(out: &mut String, w: &str, m: &Metric, a: &[f64], b: &[f64], v: Verdict) {
    let (qa1, qa3) = quartiles(a);
    let (qb1, qb3) = quartiles(b);
    let _ = writeln!(
        out,
        "{w:<12} {:<16} {:>6} | A {:>12.6} [{:.6}, {:.6}] | B {:>12.6} [{:.6}, {:.6}] | {}",
        m.name,
        m.unit,
        median(a),
        qa1,
        qa3,
        median(b),
        qb1,
        qb3,
        v.as_str()
    );
}

/// Compares parent runs `a` with change runs `b`; returns the report and
/// whether any metric regressed.
pub fn compare(a: &[Value], b: &[Value]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    for (w, _) in WORKLOADS {
        let (ea, eb) = (error_rate(a, w), error_rate(b, w));
        let (Some(ea), Some(eb)) = (ea, eb) else { continue };
        let runs = |v: &[Value]| v.iter().filter(|r| !r["workloads"][*w].is_null()).count();
        let _ = writeln!(
            out,
            "{w}: {} parent run(s) vs {} change run(s); median [q1, q3] per side",
            runs(a),
            runs(b)
        );
        let more_failures = eb > ea;
        // An ungated metric has no bound: it can show a gain, never a
        // regression.
        for m in END_TO_END.iter().chain(UNGATED) {
            let (va, vb) = (values(a, w, m.name), values(b, w, m.name));
            let mut v = verdict(m.better, m.bound.unwrap_or(f64::INFINITY), &va, &vb);
            // A gain does not count when more operations fail.
            if v == Verdict::Win && more_failures {
                v = Verdict::WithinBound;
            }
            regressed |= v == Verdict::Regression;
            row(&mut out, w, m, &va, &vb, v);
        }
        let v = if more_failures { "REGRESSION" } else { "ok" };
        regressed |= more_failures;
        let _ = writeln!(
            out,
            "{w:<12} {:<16} {:>6} | A {ea:.6} | B {eb:.6} | {v}",
            "error_rate", "share"
        );
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10).map(|i| center + jitter * (f64::from(i) - 4.5) / 4.5).collect()
    }

    #[test]
    fn clear_gain_is_a_win() {
        let a = around(10.0, 0.2);
        let b = around(8.0, 0.2);
        assert_eq!(verdict(Better::Lower, 0.1, &a, &b), Verdict::Win);
        assert_eq!(verdict(Better::Higher, 0.1, &b, &a), Verdict::Win);
    }

    #[test]
    fn too_few_pairs_cannot_win() {
        let a = around(10.0, 0.2);
        let b = around(8.0, 0.2);
        assert_eq!(verdict(Better::Lower, 0.1, &a[..9], &b[..9]), Verdict::WithinBound);
    }

    #[test]
    fn gain_smaller_than_the_parents_spread_is_not_a_win() {
        // B is lower in every pair, but by less than A's quartile spread.
        let a = around(10.0, 0.4);
        let b: Vec<f64> = a.iter().map(|x| x - 0.05).collect();
        assert_eq!(verdict(Better::Lower, 0.1, &a, &b), Verdict::WithinBound);
    }

    #[test]
    fn worsening_beyond_the_bound_regresses() {
        let a = around(10.0, 0.1);
        let b = around(11.5, 0.1);
        assert_eq!(verdict(Better::Lower, 0.1, &a, &b), Verdict::Regression);
        assert_eq!(verdict(Better::Higher, 0.1, &b, &a), Verdict::Regression);
        let b = around(10.5, 0.1);
        assert_eq!(verdict(Better::Lower, 0.1, &a, &b), Verdict::WithinBound);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = around(10.0, 3.0);
        let b = around(10.2, 3.0);
        assert_eq!(verdict(Better::Lower, 0.1, &a, &b), Verdict::Unresolved);
    }

    #[test]
    fn reads_out_files_and_flags_more_failures() {
        let run = |setup_s: f64, trip_ms: f64, failed: u64| {
            let metrics: Vec<(String, Value)> = END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "setup_s" { setup_s } else { 1.0 };
                    (m.name.to_owned(), serde_json::json!({ "value": v, "unit": m.unit }))
                })
                .collect();
            serde_json::json!({ "workloads": { "train": {
                "attempted": 100, "failed": failed, "metrics": Value::Map(metrics),
                "diagnostics": { "trip_ms": trip_ms }
            } } })
        };
        let step = |i: i32| f64::from(i) * 0.01;
        let a: Vec<Value> = (0..10).map(|i| run(10.0 + step(i), 2.0 + step(i), 0)).collect();
        let b: Vec<Value> = (0..10).map(|i| run(8.0 + step(i), 1.5 + step(i), 0)).collect();
        let (report, regressed) = compare(&a, &b);
        assert!(!regressed, "{report}");
        for name in ["setup_s", "trip_ms"] {
            let line = report.lines().find(|l| l.contains(name)).unwrap_or_default();
            assert!(line.ends_with("win"), "{report}");
        }
        // A much slower trip is no regression of an ungated metric; a
        // slower set-up is.
        let slow: Vec<Value> = (0..10).map(|i| run(10.0 + step(i), 9.0 + step(i), 0)).collect();
        let (report, regressed) = compare(&a, &slow);
        assert!(!regressed, "{report}");
        let slow: Vec<Value> = (0..10).map(|i| run(13.0 + step(i), 2.0 + step(i), 0)).collect();
        assert!(compare(&a, &slow).1);
        let worse: Vec<Value> = (0..10).map(|i| run(8.0 + step(i), 1.5 + step(i), 1)).collect();
        let (report, regressed) = compare(&a, &worse);
        assert!(regressed, "{report}");
        assert!(!report.contains(" win"), "no gain counts with more failures: {report}");
    }
}
