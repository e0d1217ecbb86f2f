//! Travel diary — the paper's second application sketch.
//!
//! "During traveling, an automatically generated trajectory summary is a
//! good travel diary, which can be shared to friends via Twitter or
//! Facebook." (Sec. I)
//!
//! This example follows one driver through a day (commute in, lunch run,
//! commute home) and assembles the three trip summaries into a shareable
//! diary, with a finer-grained retelling (k = 3) for the eventful leg.
//!
//! Run with: `cargo run --example travel_diary`

use rand::rngs::StdRng;
use rand::SeedableRng;
use stmaker_suite::generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_suite::{standard_features, FeatureWeights, Summarizer, SummarizerConfig};

fn main() {
    let world = World::generate(WorldConfig::small(888));
    let gen = TripGenerator::new(&world, TripConfig::default());
    let training: Vec<_> = gen.generate_corpus(150, 21).into_iter().map(|t| t.raw).collect();
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

    let mut rng = StdRng::seed_from_u64(31);
    let legs = [
        ("08:10 — the commute in", 8.17),
        ("12:40 — lunch run", 12.67),
        ("18:05 — heading home", 18.08),
    ];

    println!("# My day on the road\n");
    let mut most_eventful: Option<(
        usize,
        stmaker_suite::Summary,
        stmaker_suite::trajectory::RawTrajectory,
    )> = None;
    for (title, hour) in legs.iter() {
        let Some(trip) = (0..50).find_map(|_| gen.generate_at(2, *hour, &mut rng)) else {
            continue;
        };
        let Ok(summary) = summarizer.summarize(trip.raw.points(), None) else { continue };
        println!("## {title}");
        println!("{}\n", summary.text);

        let events: usize = summary.partitions.iter().map(|p| p.selected.len()).sum();
        let replace = most_eventful.as_ref().map(|(best, _, _)| events > *best).unwrap_or(true);
        if replace {
            most_eventful = Some((events, summary, trip.raw.clone()));
        }
    }

    // Retell the most eventful leg in more detail for the curious reader.
    if let Some((_, _, raw)) = most_eventful {
        if let Ok(fine) = summarizer.summarize(raw.points(), Some(3)) {
            println!("## The eventful one, in detail");
            println!("{}", fine.text);
        }
    }
}
