//! Fig. 10(a) — effect of the feature weight.
//!
//! The paper tunes the Spe (speed) feature's weight from 0.5 to 4 while
//! keeping the others at 1, summarizes 1000 random trajectories per setting,
//! and observes that "FF of the Spe feature increases gradually when the
//! weight increases".

use serde::Serialize;
use stmaker::{keys, FeatureWeights, SummarizerConfig};
use stmaker_eval::ff::feature_frequency;
use stmaker_eval::report::{ff, print_table, write_json};
use stmaker_eval::{ExperimentScale, Harness};

#[derive(Serialize)]
struct Fig10aOut {
    weights: Vec<f64>,
    ff_by_weight: Vec<std::collections::BTreeMap<String, f64>>,
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Fig. 10(a) — effect of feature weight (scale: {})", scale.label);
    let n_trips = if scale.label == "full" { 1000 } else { 200 };

    let h = Harness::new(scale);
    let keys6 =
        [keys::GRADE, keys::WIDTH, keys::DIRECTION, keys::SPEED, keys::STAY_POINTS, keys::U_TURNS];
    let sweep = [0.5, 1.0, 2.0, 3.0, 4.0];

    // The trained model is weight-independent (weights only steer
    // partitioning and selection), so train once and swap weights per
    // setting via set_weights — the knob the API exposes for exactly this
    // experiment.
    let features = stmaker::standard_features();
    let weights = FeatureWeights::uniform(&features);
    let mut summarizer = h.train_summarizer(features, weights, SummarizerConfig::default());

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for w_spe in sweep {
        let features = stmaker::standard_features();
        let weights = FeatureWeights::uniform(&features).with(&features, keys::SPEED, w_spe);
        summarizer.set_weights(weights);
        let summaries: Vec<_> = h
            .test
            .iter()
            .take(n_trips)
            .filter_map(|t| summarizer.summarize(t.raw.points(), None).ok())
            .collect();
        let ffs = feature_frequency(&summaries, &keys6);
        let mut row = vec![format!("w_Spe = {w_spe}")];
        for k in &keys6 {
            row.push(ff(ffs[*k]));
        }
        rows.push(row);
        results.push(ffs);
    }

    let headers = ["weight", "GR", "RW", "TD", "Spe", "Stay", "U-turn"];
    print_table("FF vs speed-feature weight", &headers, &rows);

    let spe_series: Vec<f64> = results.iter().map(|r| r[keys::SPEED]).collect();
    let monotone = spe_series.windows(2).all(|w| w[1] >= w[0] - 0.02);
    println!(
        "\nSpe FF series: {:?}  {}",
        spe_series.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>(),
        if monotone { "(increasing ✓)" } else { "(NOT MONOTONE)" }
    );

    let out = Fig10aOut { weights: sweep.to_vec(), ff_by_weight: results };
    if let Ok(p) = write_json("fig10a_weight_sweep", &out) {
        println!("wrote {}", p.display());
    }
}
