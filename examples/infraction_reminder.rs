//! Infraction reminder — the paper's first application sketch.
//!
//! "By embedding the trajectory summarization technique in GPS modules of
//! cars and cells, an infraction reminder can be created. Every time some
//! driving infractions occur, the driver can receive the infraction travel
//! summary." (Sec. I)
//!
//! This example watches a stream of completed trips and, whenever a summary
//! reports a U-turn or a severe speed anomaly, prints the driver-facing
//! reminder with the offending sentence.
//!
//! Run with: `cargo run --example infraction_reminder`

use rand::rngs::StdRng;
use rand::SeedableRng;
use stmaker_suite::generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_suite::{keys, standard_features, FeatureWeights, Summarizer, SummarizerConfig};

fn main() {
    let world = World::generate(WorldConfig::small(555));
    let gen = TripGenerator::new(&world, TripConfig::default());
    let training: Vec<_> = gen.generate_corpus(150, 11).into_iter().map(|t| t.raw).collect();
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

    println!("monitoring the evening shift…\n");
    let mut rng = StdRng::seed_from_u64(2718);
    let mut trip_no = 0;
    let mut reminders = 0;
    while trip_no < 20 {
        let Some(trip) = gen.generate_at(1, 17.5, &mut rng) else { continue };
        trip_no += 1;
        let Ok(summary) = summarizer.summarize(trip.raw.points(), None) else { continue };

        // An "infraction" is any partition whose selected features include a
        // U-turn (possibly illegal) or a strong speed anomaly (≥ 15 km/h off
        // the usual speed — speeding or obstructing traffic).
        let mut flagged: Vec<&str> = Vec::new();
        for p in &summary.partitions {
            for f in &p.selected {
                let speeding = f.key == keys::SPEED
                    && f.regular.map(|r| (f.observed - r).abs() >= 15.0).unwrap_or(false);
                if f.key == keys::U_TURNS || speeding {
                    flagged.push(p.sentence.as_str());
                }
            }
        }
        flagged.dedup();

        if flagged.is_empty() {
            println!("trip {trip_no:>2}: ok");
        } else {
            reminders += 1;
            println!("trip {trip_no:>2}: ⚠ INFRACTION REMINDER");
            for sentence in flagged {
                println!("          {sentence}");
            }
        }
    }
    println!("\n{reminders} of {trip_no} trips triggered a reminder.");
}
