//! Fig. 8 — feature frequency (FF) per two-hour bucket across the day.
//!
//! The paper classifies test trajectories into twelve two-hour categories by
//! departure time and reports each feature's FF per category, finding "all
//! the features have a conspicuously higher FF during daytime (6:00–18:00)
//! than those at night", with speed peaking in the rush buckets.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use stmaker::keys;
use stmaker_eval::ff::{FfByBucket, DAY_BUCKETS, NIGHT_BUCKETS};
use stmaker_eval::report::{ff, print_table, write_json};
use stmaker_eval::{ExperimentScale, Harness};

#[derive(Serialize)]
struct Fig8Out {
    buckets: Vec<String>,
    counts: Vec<usize>,
    ff: Vec<std::collections::BTreeMap<String, f64>>,
    day_vs_night: std::collections::BTreeMap<String, (f64, f64)>,
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Fig. 8 — FF by time of day (scale: {})", scale.label);
    let per_bucket = if scale.label == "full" { 160 } else { 40 };

    let h = Harness::new(scale);
    let summarizer = h.train_default();
    let gen = h.generator();
    let keys6 =
        [keys::GRADE, keys::WIDTH, keys::DIRECTION, keys::SPEED, keys::STAY_POINTS, keys::U_TURNS];

    // Generate test trips per bucket (controlled hours) and summarize.
    let mut rng = StdRng::seed_from_u64(0xF18);
    let mut items = Vec::new();
    for bucket in 0..12 {
        let mut made = 0;
        let mut attempts = 0;
        while made < per_bucket && attempts < per_bucket * 6 {
            attempts += 1;
            let hour = bucket as f64 * 2.0 + rng.random_range(0.0..2.0);
            let Some(trip) = gen.generate_at((attempts % 30) as i64, hour, &mut rng) else {
                continue;
            };
            let Ok(summary) = summarizer.summarize(trip.raw.points(), None) else { continue };
            items.push((hour, summary));
            made += 1;
        }
    }

    let by = FfByBucket::compute(&items, &keys6);

    let headers: Vec<&str> =
        std::iter::once("bucket").chain(["GR", "RW", "TD", "Spe", "Stay", "U-turn", "n"]).collect();
    let rows: Vec<Vec<String>> = (0..12)
        .map(|b| {
            let mut row = vec![format!("{:02}:00-{:02}:00", b * 2, b * 2 + 2)];
            for k in &keys6 {
                row.push(ff(by.ff[b][*k]));
            }
            row.push(by.counts[b].to_string());
            row
        })
        .collect();
    print_table("FF per two-hour bucket", &headers, &rows);

    // Day vs night contrast (the paper's headline observation).
    let mut contrast = std::collections::BTreeMap::new();
    println!();
    for k in &keys6 {
        let day = by.mean_over(k, &DAY_BUCKETS);
        let night = by.mean_over(k, &NIGHT_BUCKETS);
        println!(
            "{k:<18} day {} vs night {}  {}",
            ff(day),
            ff(night),
            if day > night { "(day higher ✓)" } else { "(UNEXPECTED)" }
        );
        contrast.insert(k.to_string(), (day, night));
    }

    let out = Fig8Out {
        buckets: (0..12).map(|b| format!("{:02}:00-{:02}:00", b * 2, b * 2 + 2)).collect(),
        counts: by.counts.clone(),
        ff: by.ff.clone(),
        day_vs_night: contrast,
    };
    if let Ok(p) = write_json("fig8_ff_by_time", &out) {
        println!("\nwrote {}", p.display());
    }
}
