//! Quickstart: raw GPS triples in, a readable paragraph out.
//!
//! Mirrors the paper's motivating contrast (Table I vs Fig. 1(b)): a raw
//! trajectory is an opaque wall of `⟨lat, lon, timestamp⟩` triples; STMaker
//! turns it into one short, human-readable description.
//!
//! Run with: `cargo run --example quickstart`

use stmaker_suite::generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_suite::{standard_features, FeatureWeights, Summarizer, SummarizerConfig};

fn main() {
    // 1. A world to drive in. Real deployments would load a road network,
    //    a POI/landmark dataset and a historical trajectory corpus; here the
    //    synthetic generator supplies all three, deterministically.
    println!("building the city, landmarks and check-ins…");
    let world = World::generate(WorldConfig::small(2024));

    // 2. Historical knowledge: train on a corpus of past trips. This mines
    //    popular routes and per-road average behaviour.
    println!("training on 120 historical trips…");
    let gen = TripGenerator::new(&world, TripConfig::default());
    let training: Vec<_> = gen.generate_corpus(120, 7).into_iter().map(|t| t.raw).collect();
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

    // 3. A fresh trajectory arrives (a morning rush-hour trip).
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    let trip = (0..50)
        .find_map(|_| gen.generate_at(0, 8.5, &mut rng))
        .expect("the generator produces rush-hour trips");

    // This is what the database sees (the paper's Table I):
    println!("\nraw trajectory ({} samples):", trip.raw.len());
    println!("    latitude   longitude   timestamp");
    for p in trip.raw.points().iter().take(4) {
        println!(
            "    {:.4}    {:.4}    t+{}s",
            p.point.lat,
            p.point.lon,
            p.t.0 - trip.raw.start().t.0
        );
    }
    println!("    …          …           …");

    // 4. And this is what a person gets (the paper's Fig. 1(b)):
    let summary = summarizer.summarize(trip.raw.points(), None).expect("trip calibrates");
    println!("\nsummary:\n    {}", summary.text);

    // Want more or less detail? Ask for a specific number of partitions.
    if let Ok(fine) = summarizer.summarize(trip.raw.points(), Some(3)) {
        println!("\nsummary at k = 3:\n    {}", fine.text);
    }
}
