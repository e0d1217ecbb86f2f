//! Fig. 12 — average summarization time cost vs |T| (a) and k (b).
//!
//! The paper reports "most trajectories can be summarized within tens of
//! milliseconds. With the increasing of |T| and k, the time cost increase
//! slightly." We time the full pipeline (calibration + extraction +
//! partition + selection + rendering) on generated trips bucketed by their
//! symbolic size and across k ∈ 1..=7.
//!
//! The run also collects per-stage telemetry (spans + counters +
//! histograms) through `stmaker-obs` and writes it to
//! `experiments/out/fig12_obs.json` next to the timing table (override the
//! path with `STMAKER_OBS_OUT`), the same schema the CLI's
//! `--metrics-json` emits.

use serde::Serialize;
use stmaker::{standard_features, FeatureWeights, SummarizerConfig};
use stmaker_eval::report::{ms, print_table, write_json};
use stmaker_eval::timing::{time_by_k, time_by_symbolic_len};
use stmaker_eval::{threads_from_args, ExperimentScale, Harness};
use stmaker_obs::Recorder;

#[derive(Serialize)]
struct Fig12Out {
    by_len: Vec<(usize, f64, usize)>,
    by_k: Vec<(usize, f64, usize)>,
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Fig. 12 — summarization time cost (scale: {})", scale.label);
    let h = Harness::new(scale);
    // Journal-backed so the report carries exemplars from the batch leg
    // and the obs.events_dropped counter.
    let obs = Recorder::enabled_with_journal(stmaker_obs::DEFAULT_JOURNAL_CAPACITY);
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = h.train_summarizer(
        features,
        weights,
        SummarizerConfig::default().with_recorder(obs.clone()).with_threads(threads_from_args()),
    );
    let trips: Vec<_> = h.test.iter().map(|t| t.raw.clone()).collect();

    // (a) time vs |T|. Bucket centres scale with the city (quick-scale trips
    // are shorter than the paper's 20–120 landmark range; the growth trend
    // is what matters).
    let buckets: Vec<usize> = if h.scale.label == "full" {
        vec![10, 20, 30, 40, 50, 60]
    } else {
        vec![5, 10, 15, 20, 25, 30]
    };
    let by_len = time_by_symbolic_len(&summarizer, &trips, &buckets, 2);
    let rows: Vec<Vec<String>> = by_len
        .iter()
        .map(|(b, c)| vec![format!("|T| ≈ {b}"), ms(c.mean_ms), c.n.to_string()])
        .collect();
    print_table("Fig. 12(a): time vs trajectory size", &["|T|", "mean time", "n"], &rows);

    // (b) time vs k over a fixed trip set.
    let ks: Vec<usize> = (1..=7).collect();
    let by_k = time_by_k(&summarizer, &trips[..trips.len().min(150)], &ks);
    let rows: Vec<Vec<String>> = by_k
        .iter()
        .map(|(k, c)| vec![format!("k = {k}"), ms(c.mean_ms), c.n.to_string()])
        .collect();
    print_table("Fig. 12(b): time vs partition size k", &["k", "mean time", "n"], &rows);

    let max_ms = by_len
        .iter()
        .map(|(_, c)| c.mean_ms)
        .chain(by_k.iter().map(|(_, c)| c.mean_ms))
        .filter(|m| m.is_finite())
        .fold(0.0f64, f64::max);
    println!(
        "\nmax mean time: {} — paper reports tens of milliseconds {}",
        ms(max_ms),
        if max_ms < 100.0 { "✓" } else { "(slower environment)" }
    );

    let out = Fig12Out {
        by_len: by_len.iter().map(|(b, c)| (*b, c.mean_ms, c.n)).collect(),
        by_k: by_k.iter().map(|(k, c)| (*k, c.mean_ms, c.n)).collect(),
    };
    if let Ok(p) = write_json("fig12_time_cost", &out) {
        println!("wrote {}", p.display());
    }

    // A batch leg populates the batch-only series (per-trip replayed
    // spans, merged worker counters, top-K slowest-trip exemplars) so
    // this binary emits the full report schema.
    let batch: Vec<_> = trips.iter().take(40).cloned().collect();
    let batch_ok = summarizer.summarize_batch(&batch).iter().filter(|r| r.is_ok()).count();
    println!("batch leg: {batch_ok}/{} trips ok", batch.len());

    // Per-stage telemetry for the whole run (training + every timed
    // summarization), in the shared stmaker-obs report schema.
    let report = obs.report();
    println!("\n{}", stmaker_obs::stats::render(&report));
    let obs_path = std::env::var("STMAKER_OBS_OUT")
        .unwrap_or_else(|_| "experiments/out/fig12_obs.json".to_owned());
    match report.write_json(&obs_path) {
        Ok(()) => println!("wrote {obs_path}"),
        Err(e) => eprintln!("warning: cannot write {obs_path}: {e}"),
    }
}
