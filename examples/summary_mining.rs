//! Summary mining — Sec. VI-C end to end with the `stmaker-textmine` crate.
//!
//! Once trajectories are summarized as text, "many text processing
//! techniques, e.g., text indexing, … can be directly applied on the
//! summaries." This example summarizes a fleet and then answers a
//! dispatcher's keyword queries with the tf-idf inverted index.
//!
//! Run with: `cargo run --example summary_mining`

use rand::rngs::StdRng;
use rand::SeedableRng;
use stmaker_suite::generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_suite::textmine::InvertedIndex;
use stmaker_suite::{standard_features, FeatureWeights, Summarizer, SummarizerConfig};

fn main() {
    let world = World::generate(WorldConfig::small(1313));
    let gen = TripGenerator::new(&world, TripConfig::default());
    let training: Vec<_> = gen.generate_corpus(150, 3).into_iter().map(|t| t.raw).collect();
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

    // Summarize a morning's fleet activity (mixed hours, so both smooth and
    // eventful trips appear).
    let mut rng = StdRng::seed_from_u64(77);
    let mut texts: Vec<String> = Vec::new();
    for hour in [7.0, 8.0, 9.0, 11.0, 13.0] {
        for _ in 0..12 {
            if let Some(trip) = gen.generate_at(1, hour, &mut rng) {
                if let Ok(s) = summarizer.summarize(&trip.raw) {
                    texts.push(s.text);
                }
            }
        }
    }
    println!("{} summaries collected\n", texts.len());

    // Keyword queries over the corpus.
    let index = InvertedIndex::build(&texts);
    println!("## Dispatcher queries");
    for query in ["u-turn", "staying points", "slower than usual highway"] {
        let hits = index.search(query, 2);
        println!("query {query:?}: {} match(es)", hits.len());
        for (doc, score) in hits {
            println!("    {score:.3}  {}", texts[doc]);
        }
    }
}
