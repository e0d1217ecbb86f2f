//! Ablations beyond the paper: sensitivity of the pipeline to its three main
//! design knobs.
//!
//! 1. **η (selection threshold)** — Sec. V says "only features with higher
//!    irregular rate than a user specified threshold η will be covered"; we
//!    sweep η and report FF plus mean selected-features-per-summary.
//! 2. **Ca (significance weight)** — Eq. (2)'s cut-vs-merge balance; we
//!    sweep Ca and report the unconstrained partition-count distribution.
//! 3. **Map matching** — HMM (default) vs plain nearest-edge: how much of
//!    the routing-feature signal survives the cheaper matcher?

use serde::Serialize;
use stmaker::{keys, FeatureWeights, SummarizerConfig};
use stmaker_eval::ff::feature_frequency;
use stmaker_eval::report::{ff, print_table, write_json};
use stmaker_eval::{ExperimentScale, Harness};

#[derive(Serialize)]
struct AblationOut {
    eta_sweep: Vec<(f64, std::collections::BTreeMap<String, f64>, f64)>,
    ca_sweep: Vec<(f64, f64)>,
    matching: Vec<(String, std::collections::BTreeMap<String, f64>)>,
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Ablations (scale: {})", scale.label);
    let n_trips = if scale.label == "full" { 600 } else { 200 };
    let h = Harness::new(scale);
    let keys6 =
        [keys::GRADE, keys::WIDTH, keys::DIRECTION, keys::SPEED, keys::STAY_POINTS, keys::U_TURNS];

    // --- 1. η sweep.
    let mut eta_rows = Vec::new();
    let mut eta_out = Vec::new();
    for eta in [0.1, 0.2, 0.3, 0.4] {
        let features = stmaker::standard_features();
        let weights = FeatureWeights::uniform(&features);
        let cfg = SummarizerConfig { eta, ..SummarizerConfig::default() };
        let s = h.train_summarizer(features, weights, cfg);
        let summaries: Vec<_> = h
            .test
            .iter()
            .take(n_trips)
            .filter_map(|t| s.summarize(t.raw.points(), None).ok())
            .collect();
        let ffs = feature_frequency(&summaries, &keys6);
        let mean_sel: f64 = summaries
            .iter()
            .map(|su| su.partitions.iter().map(|p| p.selected.len()).sum::<usize>())
            .sum::<usize>() as f64
            / summaries.len().max(1) as f64;
        let mut row = vec![format!("η = {eta}")];
        for k in &keys6 {
            row.push(ff(ffs[*k]));
        }
        row.push(format!("{mean_sel:.2}"));
        eta_rows.push(row);
        eta_out.push((eta, ffs, mean_sel));
    }
    print_table(
        "η sweep: FF and mean selected features per summary",
        &["η", "GR", "RW", "TD", "Spe", "Stay", "U-turn", "mean sel"],
        &eta_rows,
    );
    let monotone = eta_out.windows(2).all(|w| w[1].2 <= w[0].2 + 1e-9);
    println!("mean selections fall as η rises: {}", if monotone { "✓" } else { "NO" });

    // --- 2. Ca sweep: unconstrained partition counts.
    let mut ca_rows = Vec::new();
    let mut ca_out = Vec::new();
    for ca in [0.1, 0.5, 1.0, 1.5, 2.0] {
        let features = stmaker::standard_features();
        let weights = FeatureWeights::uniform(&features);
        let cfg = SummarizerConfig { ca, ..SummarizerConfig::default() };
        let s = h.train_summarizer(features, weights, cfg);
        let counts: Vec<usize> = h
            .test
            .iter()
            .take(n_trips)
            .filter_map(|t| s.summarize(t.raw.points(), None).ok())
            .map(|su| su.partitions.len())
            .collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
        ca_rows.push(vec![format!("Ca = {ca}"), format!("{mean:.2}")]);
        ca_out.push((ca, mean));
    }
    print_table("Ca sweep: mean unconstrained partition count", &["Ca", "mean k"], &ca_rows);
    let rising = ca_out.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9);
    println!("partition count rises with Ca: {}", if rising { "✓" } else { "NO" });
    println!(
        "note: with non-negative features S ≥ 0.5 always (cos ≥ 0), so Ca ≤ 0.5 \
         can never cut — the paper's default Ca = 0.5 yields k = 1 unless a \
         boundary has S < Ca·l.s, which explains mean k ≈ 1 at small Ca."
    );

    // --- 3. HMM vs nearest-edge matching.
    let mut match_rows = Vec::new();
    let mut match_out = Vec::new();
    for (label, hmm) in [("HMM (default)", true), ("nearest-edge", false)] {
        let features = stmaker::standard_features();
        let weights = FeatureWeights::uniform(&features);
        let mut cfg = SummarizerConfig::default();
        cfg.extraction.hmm_matching = hmm;
        let s = h.train_summarizer(features, weights, cfg);
        let summaries: Vec<_> = h
            .test
            .iter()
            .take(n_trips)
            .filter_map(|t| s.summarize(t.raw.points(), None).ok())
            .collect();
        let ffs = feature_frequency(&summaries, &keys6);
        let mut row = vec![label.to_string()];
        for k in &keys6 {
            row.push(ff(ffs[*k]));
        }
        match_rows.push(row);
        match_out.push((label.to_string(), ffs));
    }
    print_table(
        "matching ablation: FF under each matcher",
        &["matcher", "GR", "RW", "TD", "Spe", "Stay", "U-turn"],
        &match_rows,
    );

    let out = AblationOut { eta_sweep: eta_out, ca_sweep: ca_out, matching: match_out };
    if let Ok(p) = write_json("ablation", &out) {
        println!("\nwrote {}", p.display());
    }
}
