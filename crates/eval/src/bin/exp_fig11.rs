//! Fig. 11 — reader understanding study (simulated).
//!
//! The paper: 450 randomly selected summaries, thirty volunteers reading
//! fifteen each, grading understanding 1–4; "nearly 55% of randomly selected
//! 450 summaries are marked at grade 4, and nearly 80% (grade 3 and 4)
//! summaries can give users an intuitive view of the raw trajectories."
//!
//! Our simulated readers grade each summary against the generator's ground
//! truth (see `stmaker_eval::reader` and DESIGN.md §3 for the substitution
//! argument).

use serde::Serialize;
use stmaker_eval::reader::LEVELS;
use stmaker_eval::report::{ff, print_table, write_json};
use stmaker_eval::{simulate_reader_study, ExperimentScale, Harness};

#[derive(Serialize)]
struct Fig11Out {
    counts: [usize; 4],
    fractions: [f64; 4],
    at_least_3: f64,
    pool: usize,
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Fig. 11 — simulated reader study (scale: {})", scale.label);
    let h = Harness::new(scale);
    let summarizer = h.train_default();

    // Build the (summary, ground truth) pool from test trips.
    let pool: Vec<_> = h
        .test
        .iter()
        .filter_map(|t| {
            summarizer.summarize(t.raw.points(), None).ok().map(|s| (s, t.truth.clone()))
        })
        .collect();
    println!("pool: {} graded summaries", pool.len());

    // The paper's protocol: 30 readers × 15 summaries = 450 gradings.
    let result = simulate_reader_study(&pool, 30, 15, 0xF11);

    let rows: Vec<Vec<String>> = (1..=4)
        .map(|g| {
            vec![
                LEVELS[g - 1].to_string(),
                result.counts[g - 1].to_string(),
                ff(result.fraction(g)),
                "#".repeat((result.fraction(g) * 50.0).round() as usize),
            ]
        })
        .collect();
    print_table("understanding levels", &["level", "count", "fraction", ""], &rows);

    println!("\ngrade-4 fraction:      {} (paper: ≈ 0.55)", ff(result.fraction(4)));
    println!("grade-≥3 fraction:     {} (paper: ≈ 0.80)", ff(result.fraction_at_least_3()));

    let out = Fig11Out {
        counts: result.counts,
        fractions: [result.fraction(1), result.fraction(2), result.fraction(3), result.fraction(4)],
        at_least_3: result.fraction_at_least_3(),
        pool: pool.len(),
    };
    if let Ok(p) = write_json("fig11_reader_study", &out) {
        println!("wrote {}", p.display());
    }
}
