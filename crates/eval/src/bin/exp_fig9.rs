//! Fig. 9 — usage frequency of landmarks by significance decile.
//!
//! The paper sorts landmarks by significance into ten groups and measures
//! how often each group appears as partition endpoints in the summary
//! dataset: "the usage frequency versus the landmark significance follows a
//! long-tail distribution … the landmarks in top-10%-high-significance group
//! appear about 40% in the summary dataset", with ~60% covered by the top
//! three deciles.

use serde::Serialize;
use stmaker_eval::landmark_usage::usage_by_significance_decile;
use stmaker_eval::report::{ff, print_table, write_json};
use stmaker_eval::{ExperimentScale, Harness};

#[derive(Serialize)]
struct Fig9Out {
    usage: [f64; 10],
    top1: f64,
    top3: f64,
    n_summaries: usize,
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Fig. 9 — landmark usage by significance decile (scale: {})", scale.label);
    let h = Harness::new(scale);
    let summarizer = h.train_default();

    let summaries: Vec<_> =
        h.test.iter().filter_map(|t| summarizer.summarize(t.raw.points(), None).ok()).collect();
    println!("summarized {} of {} test trips", summaries.len(), h.test.len());

    let usage = usage_by_significance_decile(&h.world.registry, &summaries);
    let rows: Vec<Vec<String>> = usage
        .iter()
        .enumerate()
        .map(|(d, u)| {
            vec![
                format!("top {}-{}%", d * 10, d * 10 + 10),
                ff(*u),
                "#".repeat((u * 60.0).round() as usize),
            ]
        })
        .collect();
    print_table("landmark usage frequency", &["significance group", "usage", ""], &rows);

    let top1 = usage[0];
    let top3 = usage[0] + usage[1] + usage[2];
    println!("\ntop-10% group usage: {} (paper: ≈ 0.40)", ff(top1));
    println!("top-30% group usage: {} (paper: ≈ 0.60)", ff(top3));
    println!(
        "long tail: {}",
        if usage[0] > usage[9] && top3 > 0.45 { "yes ✓" } else { "NOT REPRODUCED" }
    );

    let out = Fig9Out { usage, top1, top3, n_summaries: summaries.len() };
    if let Ok(p) = write_json("fig9_landmark_usage", &out) {
        println!("wrote {}", p.display());
    }
}
