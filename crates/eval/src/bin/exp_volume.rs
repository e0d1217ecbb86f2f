//! Data-volume comparison — quantifying the paper's Sec. I claims.
//!
//! The introduction motivates summarization with two representation
//! arguments: semantic trajectories are "excessive for storage, processing
//! and communication" (each point carries attached attributes), while "the
//! output text is lightweight and easy to store and communicate". This
//! experiment measures all three representations on the same test trips:
//!
//! * raw — the Table I CSV form;
//! * semantic — every sample annotated with road attributes + nearby
//!   landmarks (the `stmaker-semantic` baseline, compact JSON);
//! * summary — the generated text.

use serde::Serialize;
use stmaker_eval::report::{print_table, write_json};
use stmaker_eval::{ExperimentScale, Harness};
use stmaker_io::write_trajectory_csv;
use stmaker_semantic::{annotate, AnnotateParams};

#[derive(Serialize)]
struct VolumeOut {
    n_trips: usize,
    raw_bytes: usize,
    semantic_bytes: usize,
    summary_bytes: usize,
    semantic_over_raw: f64,
    raw_over_summary: f64,
    semantic_over_summary: f64,
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Data-volume comparison (scale: {})", scale.label);
    let n_trips = if scale.label == "full" { 300 } else { 100 };

    let h = Harness::new(scale);
    let summarizer = h.train_default();

    let mut raw_bytes = 0usize;
    let mut semantic_bytes = 0usize;
    let mut summary_bytes = 0usize;
    let mut n = 0usize;
    for trip in h.test.iter().take(n_trips) {
        let Ok(summary) = summarizer.summarize(trip.raw.points(), None) else { continue };
        raw_bytes += write_trajectory_csv(&trip.raw).len();
        semantic_bytes +=
            annotate(&trip.raw, &h.world.net, &h.world.registry, AnnotateParams::default())
                .json_bytes();
        summary_bytes += summary.text.len();
        n += 1;
    }

    let rows = vec![
        vec!["raw (Table I CSV)".to_string(), fmt_kb(raw_bytes), per(raw_bytes, n)],
        vec![
            "semantic (annotated JSON)".to_string(),
            fmt_kb(semantic_bytes),
            per(semantic_bytes, n),
        ],
        vec!["summary (generated text)".to_string(), fmt_kb(summary_bytes), per(summary_bytes, n)],
    ];
    print_table(
        &format!("storage volume over {n} trips"),
        &["representation", "total", "per trip"],
        &rows,
    );

    let out = VolumeOut {
        n_trips: n,
        raw_bytes,
        semantic_bytes,
        summary_bytes,
        semantic_over_raw: ratio(semantic_bytes, raw_bytes),
        raw_over_summary: ratio(raw_bytes, summary_bytes),
        semantic_over_summary: ratio(semantic_bytes, summary_bytes),
    };
    println!(
        "\nsemantic / raw      = {:.1}×  (paper: semantic volume \"can be excessive\")",
        out.semantic_over_raw
    );
    println!("raw      / summary  = {:.1}×", out.raw_over_summary);
    println!(
        "semantic / summary  = {:.1}×  (paper: \"the output text is lightweight\")",
        out.semantic_over_summary
    );
    let ok = out.semantic_over_raw > 1.5 && out.raw_over_summary > 5.0;
    println!("claims hold: {}", if ok { "✓" } else { "NOT REPRODUCED" });

    if let Ok(p) = write_json("volume_comparison", &out) {
        println!("wrote {}", p.display());
    }
}

fn fmt_kb(bytes: usize) -> String {
    format!("{:.1} KiB", bytes as f64 / 1024.0)
}

fn per(bytes: usize, n: usize) -> String {
    format!("{:.0} B", bytes as f64 / n.max(1) as f64)
}

fn ratio(a: usize, b: usize) -> f64 {
    a as f64 / b.max(1) as f64
}
