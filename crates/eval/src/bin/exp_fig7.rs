//! Fig. 7 — the STMaker UI, as a standalone HTML report.
//!
//! The paper's Fig. 7 is a screenshot of the demo system: raw trajectory
//! data in one pane, the summary in another, the map behind. This binary
//! renders the same composition for one eventful generated trip into
//! `experiments/out/fig7_trip_report.html` — open it in any browser.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stmaker_eval::render::render_trip_report;
use stmaker_eval::{ExperimentScale, Harness};

fn main() {
    let scale = ExperimentScale::from_env();
    println!("# Fig. 7 stand-in — HTML trip report (scale: {})", scale.label);
    let h = Harness::new(scale);
    let summarizer = h.train_default();
    let gen = h.generator();

    // An eventful rush-hour trip renders the most interesting report.
    let mut rng = StdRng::seed_from_u64(0xF17);
    let mut best: Option<(usize, _, _)> = None;
    for _ in 0..120 {
        let Some(trip) = gen.generate_at(2, 8.4, &mut rng) else { continue };
        let Ok(summary) = summarizer.summarize(trip.raw.points(), None) else { continue };
        let events: usize = summary.partitions.iter().map(|p| p.selected.len()).sum();
        if best.as_ref().map(|(b, _, _)| events > *b).unwrap_or(true) {
            best = Some((events, trip, summary));
        }
    }
    let Some((events, trip, summary)) = best else {
        eprintln!("no summarizable trip found");
        std::process::exit(1);
    };

    let html = render_trip_report(
        &h.world.net,
        &h.world.registry,
        &trip.raw,
        &summary,
        "STMaker trip report",
    );
    std::fs::create_dir_all("experiments/out").expect("writable working directory");
    let path = "experiments/out/fig7_trip_report.html";
    std::fs::write(path, &html).expect("report written");
    println!("summary: {}", summary.text);
    println!("({events} selected features) wrote {path} — open in a browser");
}
