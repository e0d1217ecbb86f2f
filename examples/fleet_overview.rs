//! Fleet overview — text processing over summaries (Sec. VI-C).
//!
//! "After summarizing the trajectories using text, many text processing
//! techniques … can be directly applied on the summaries. For example,
//! applying the text clustering method on summaries of all the trajectories
//! in a certain region at a specific time period, we can have a quick
//! overview about the traffic condition."
//!
//! This example summarizes a whole fleet's morning and plots (as text) which
//! anomaly keywords dominate each hour — a traffic-condition dashboard built
//! purely from the summary corpus, never touching raw GPS again.
//!
//! Run with: `cargo run --example fleet_overview`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use stmaker_suite::generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_suite::{standard_features, FeatureWeights, Summarizer, SummarizerConfig};

/// The anomaly keywords a dispatcher cares about, with the summary phrases
/// that express them (plain keyword search over the generated text — the
/// point of Sec. VI-C is that summaries are just text).
const KEYWORDS: [(&str, &str); 4] = [
    ("slower than usual", "congestion"),
    ("staying point", "stops"),
    ("U-turn", "U-turns"),
    ("while most drivers choose", "detours"),
];

fn main() {
    let world = World::generate(WorldConfig::small(4242));
    let gen = TripGenerator::new(&world, TripConfig::default());
    let training: Vec<_> = gen.generate_corpus(150, 5).into_iter().map(|t| t.raw).collect();
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    let summarizer = Summarizer::train(
        &world.net,
        &world.registry,
        &training,
        features,
        weights,
        SummarizerConfig::default(),
    );

    // Summarize the fleet's trips per hour, 05:00–12:00.
    let mut rng = StdRng::seed_from_u64(808);
    let mut per_hour: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for hour in 5..12 {
        let texts = per_hour.entry(hour).or_default();
        let mut made = 0;
        while made < 25 {
            let Some(trip) = gen.generate_at(3, hour as f64 + 0.5, &mut rng) else { continue };
            if let Ok(summary) = summarizer.summarize(trip.raw.points(), None) {
                texts.push(summary.text);
            }
            made += 1;
        }
    }

    println!("fleet traffic overview (25 vehicles per hour)\n");
    println!("{:<8}{:<14}{:<10}{:<10}{:<10}", "hour", "congestion", "stops", "U-turns", "detours");
    for (hour, texts) in &per_hour {
        let mut counts = [0usize; 4];
        for t in texts {
            for (i, (needle, _)) in KEYWORDS.iter().enumerate() {
                if t.contains(needle) {
                    counts[i] += 1;
                }
            }
        }
        let bar = |c: usize| format!("{:<2} {}", c, "▍".repeat(c.min(12)));
        println!(
            "{:02}:00   {:<14}{:<10}{:<10}{:<10}",
            hour,
            bar(counts[0]),
            bar(counts[1]),
            bar(counts[2]),
            bar(counts[3])
        );
    }
    println!("\nreading: the rush-hour rows (≥ 06:00) should light up relative to 05:00.");
}
