//! Summarization time-cost measurement (Fig. 12).
//!
//! The paper reports average per-trajectory summarization time while varying
//! the trajectory size `|T|` (Fig. 12a) and the partition count `k`
//! (Fig. 12b), observing "most trajectories can be summarized within tens of
//! milliseconds" with mild growth in both parameters.

use std::time::Instant;

use stmaker::Summarizer;
use stmaker_trajectory::RawTrajectory;

/// Mean wall-clock time and sample count for one measurement cell.
#[derive(Debug, Clone, Copy)]
pub struct TimingCell {
    /// Mean time per summarization, milliseconds.
    pub mean_ms: f64,
    /// Trajectories measured.
    pub n: usize,
}

/// Measures mean end-to-end summarization time, bucketing trajectories by
/// their symbolic size `|T̄|`. `buckets` are bucket centres; a trajectory
/// falls into the nearest centre within `±tolerance`.
pub fn time_by_symbolic_len(
    summarizer: &Summarizer<'_>,
    trips: &[RawTrajectory],
    buckets: &[usize],
    tolerance: usize,
) -> Vec<(usize, TimingCell)> {
    let mut sums = vec![0.0f64; buckets.len()];
    let mut counts = vec![0usize; buckets.len()];
    for raw in trips {
        // Size the trajectory first (untimed), then time the full pipeline.
        let Ok(prepared) = summarizer.prepare(raw) else { continue };
        let size = prepared.symbolic.size();
        let Some(bi) = buckets.iter().position(|c| size.abs_diff(*c) <= tolerance) else {
            continue;
        };
        // lint: wallclock — timing harness: measured durations are the experiment's output by design
        let t0 = Instant::now();
        let _ = summarizer.summarize(raw.points(), None);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        sums[bi] += dt;
        counts[bi] += 1;
    }
    buckets
        .iter()
        .zip(sums.iter().zip(&counts))
        .map(|(b, (s, c))| {
            (*b, TimingCell { mean_ms: if *c > 0 { s / *c as f64 } else { f64::NAN }, n: *c })
        })
        .collect()
}

/// Measures mean summarization time versus the requested partition count `k`
/// over a fixed trip set (trips too short for a given `k` are skipped).
pub fn time_by_k(
    summarizer: &Summarizer<'_>,
    trips: &[RawTrajectory],
    ks: &[usize],
) -> Vec<(usize, TimingCell)> {
    ks.iter()
        .map(|&k| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for raw in trips {
                // lint: wallclock — timing harness: measured durations are the experiment's output by design
                let t0 = Instant::now();
                if summarizer.summarize(raw.points(), Some(k)).is_ok() {
                    sum += t0.elapsed().as_secs_f64() * 1e3;
                    n += 1;
                }
            }
            (k, TimingCell { mean_ms: if n > 0 { sum / n as f64 } else { f64::NAN }, n })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ExperimentScale, Harness};

    #[test]
    fn timing_produces_finite_means() {
        let mut scale = ExperimentScale::quick();
        scale.n_train = 40;
        scale.n_test = 20;
        let h = Harness::new(scale);
        let s = h.train_default();
        let trips: Vec<_> = h.test.iter().map(|t| t.raw.clone()).collect();

        let by_k = time_by_k(&s, &trips[..10], &[1, 2]);
        assert_eq!(by_k.len(), 2);
        for (_, cell) in &by_k {
            assert!(cell.n > 0);
            assert!(cell.mean_ms.is_finite() && cell.mean_ms > 0.0);
        }

        // Wide buckets so every trip lands somewhere.
        let by_len = time_by_symbolic_len(&s, &trips, &[5, 15, 25, 45], 100);
        assert!(by_len.iter().any(|(_, c)| c.n > 0));
    }
}
