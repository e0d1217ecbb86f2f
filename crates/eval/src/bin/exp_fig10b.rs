//! Fig. 10(b) — effect of the partition size k.
//!
//! The paper summarizes 1000 random trajectories at every k ∈ 1..=7 using
//! all seven features (the six standard ones plus the SpeC custom feature)
//! and observes: "as k increases, the FF of routing features (GR, RW and
//! TD) decrease while those of moving features (Spe, Stay, U-turn and SpeC)
//! increase" — longer partitions deviate more from the popular route, while
//! localized moving anomalies dilute inside them.

use serde::Serialize;
use stmaker::{keys, FeatureKind, FeatureWeights, SummarizerConfig};
use stmaker_eval::ff::feature_frequency;
use stmaker_eval::report::{ff, print_table, write_json};
use stmaker_eval::{ExperimentScale, Harness};

#[derive(Serialize)]
struct Fig10bOut {
    ks: Vec<usize>,
    ff_by_k: Vec<std::collections::BTreeMap<String, f64>>,
    n_by_k: Vec<usize>,
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Fig. 10(b) — effect of partition size k (scale: {})", scale.label);
    let n_trips = if scale.label == "full" { 1000 } else { 250 };

    let h = Harness::new(scale);
    let features = stmaker::extended_features();
    let weights = FeatureWeights::uniform(&features);
    let mut cfg = SummarizerConfig::default();
    if let Ok(ms) = std::env::var("STMAKER_MIN_SUPPORT") {
        cfg.popular.min_support = ms.parse().expect("STMAKER_MIN_SUPPORT must be an integer");
        println!("min_support override: {}", cfg.popular.min_support);
    }
    let summarizer = h.train_summarizer(features, weights, cfg);
    let keys7 = [
        keys::GRADE,
        keys::WIDTH,
        keys::DIRECTION,
        keys::SPEED,
        keys::STAY_POINTS,
        keys::U_TURNS,
        keys::SPEED_CHANGE,
    ];

    // Prepare once, summarize at each k (trips shorter than k are skipped,
    // as in the paper where all sampled trajectories were long enough).
    let prepared: Vec<_> = h
        .test
        .iter()
        .take(n_trips)
        .filter_map(|t| summarizer.prepare(&t.raw).ok())
        .filter(|p| p.symbolic.segment_count() >= 7)
        .collect();
    println!("{} trips with ≥ 7 segments", prepared.len());

    let ks: Vec<usize> = (1..=7).collect();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    let mut ns = Vec::new();
    for &k in &ks {
        let summaries: Vec<_> = prepared
            .iter()
            .filter_map(|p| summarizer.summarize_prepared(p, Some(k)).ok())
            .collect();
        let ffs = feature_frequency(&summaries, &keys7);
        let mut row = vec![format!("k = {k}")];
        for key in &keys7 {
            row.push(ff(ffs[*key]));
        }
        row.push(summaries.len().to_string());
        ns.push(summaries.len());
        rows.push(row);
        results.push(ffs);
    }

    let headers = ["k", "GR", "RW", "TD", "Spe", "Stay", "U-turn", "SpeC", "n"];
    print_table("FF vs partition size k", &headers, &rows);

    // Trend check: routing features fall, moving features rise (first → last).
    println!();
    let feats = stmaker::extended_features();
    for key in &keys7 {
        let first = results[0][*key];
        let last = results[6][*key];
        let kind = feats.get(feats.index_of(key).expect("keys7 are extended-feature keys")).kind();
        let expect_fall = kind == FeatureKind::Routing;
        let ok = if expect_fall { last <= first + 0.02 } else { last >= first - 0.02 };
        println!(
            "{key:<18} k=1 {} → k=7 {}  expected {}  {}",
            ff(first),
            ff(last),
            if expect_fall { "fall" } else { "rise" },
            if ok { "✓" } else { "NOT REPRODUCED" }
        );
    }

    let out = Fig10bOut { ks, ff_by_k: results, n_by_k: ns };
    if let Ok(p) = write_json("fig10b_k_sweep", &out) {
        println!("wrote {}", p.display());
    }
}
