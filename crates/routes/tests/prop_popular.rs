//! Brute-force oracle for [`PopularRoutes`]: on random small corpora,
//! every ordered landmark pair is answered exactly as enumerating every
//! sub-sequence of every trajectory says it should be, with no pair index,
//! no precomputed tables and no transfer-graph walk of the miner's own.
//!
//! * `support` is the number of distinct trajectories with an occurrence
//!   `from … to` spanning at most `max_indexed_span` hops;
//! * at or above `min_support`, `popular_route` is the most frequent such
//!   sub-route — by count, then shorter, then lexicographically smaller;
//! * below it, the answer is a path over observed hops joining the
//!   endpoints whose product of `p(next | cur)` is the largest over every
//!   simple such path, and `None` exactly when no such path exists;
//! * the columns survive `from_parts` and the JSON encoding unchanged, and
//!   the build is the same at every thread count.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use stmaker_exec::Executor;
use stmaker_poi::LandmarkId;
use stmaker_routes::{PopularRouteConfig, PopularRoutes};
use stmaker_trajectory::{SymbolicPoint, SymbolicTrajectory, Timestamp};

/// Landmarks the corpus draws from; one more id is probed but never seen.
const LANDMARKS: u32 = 6;

/// A trajectory from a start landmark and steps that never repeat the
/// previous landmark (calibration collapses consecutive duplicates).
fn trajectory((start, steps): &(u32, Vec<u32>)) -> Vec<LandmarkId> {
    let mut ids = vec![LandmarkId(*start)];
    for step in steps {
        let prev = ids[ids.len() - 1].0;
        ids.push(LandmarkId((prev + step) % LANDMARKS));
    }
    ids
}

fn symbolic(ids: &[LandmarkId]) -> SymbolicTrajectory {
    SymbolicTrajectory::new(
        ids.iter()
            .enumerate()
            .map(|(i, &landmark)| SymbolicPoint { landmark, t: Timestamp(60 * i as i64) })
            .collect(),
    )
}

/// Every sub-route `from … to` within `span` hops, with the number of
/// distinct trajectories holding at least one.
fn enumerate(
    seqs: &[Vec<LandmarkId>],
    span: usize,
    from: LandmarkId,
    to: LandmarkId,
) -> (usize, Vec<Vec<LandmarkId>>) {
    let mut support = 0;
    let mut subs = Vec::new();
    for seq in seqs {
        let before = subs.len();
        for i in 0..seq.len() {
            for j in i + 1..seq.len().min(i + span + 1) {
                if seq[i] == from && seq[j] == to {
                    subs.push(seq[i..=j].to_vec());
                }
            }
        }
        support += usize::from(subs.len() > before);
    }
    (support, subs)
}

/// The most frequent sub-route: by count, then shorter, then
/// lexicographically smaller.
fn most_frequent(mut subs: Vec<Vec<LandmarkId>>) -> Option<Vec<LandmarkId>> {
    subs.sort();
    subs.chunk_by(|a, b| a == b)
        .max_by(|x, y| {
            x.len().cmp(&y.len()).then(y[0].len().cmp(&x[0].len())).then(y[0].cmp(&x[0]))
        })
        .map(|run| run[0].clone())
}

/// `ln p(next | cur)` for every observed direct hop: the hop's count over
/// the share of all hops leaving `cur`.
fn hop_log_p(seqs: &[Vec<LandmarkId>]) -> BTreeMap<(LandmarkId, LandmarkId), f64> {
    let mut counts: BTreeMap<(LandmarkId, LandmarkId), usize> = BTreeMap::new();
    let mut out: BTreeMap<LandmarkId, usize> = BTreeMap::new();
    for w in seqs.iter().flat_map(|s| s.windows(2)) {
        *counts.entry((w[0], w[1])).or_default() += 1;
        *out.entry(w[0]).or_default() += 1;
    }
    counts.into_iter().map(|(k, n)| (k, (n as f64 / out[&k.0] as f64).ln())).collect()
}

/// The largest `Σ ln p` over every simple path of observed hops from
/// `cur` to `to`, found by trying them all; `None` when there is none.
fn best_log_p(
    log_p: &BTreeMap<(LandmarkId, LandmarkId), f64>,
    cur: LandmarkId,
    to: LandmarkId,
    seen: &mut BTreeSet<LandmarkId>,
) -> Option<f64> {
    if cur == to {
        return Some(0.0);
    }
    seen.insert(cur);
    let mut best: Option<f64> = None;
    for (&(_, next), &lp) in log_p.range((cur, LandmarkId(0))..=(cur, LandmarkId(u32::MAX))) {
        if !seen.contains(&next) {
            if let Some(rest) = best_log_p(log_p, next, to, seen) {
                best = Some(best.map_or(lp + rest, |b| b.max(lp + rest)));
            }
        }
    }
    seen.remove(&cur);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_pair_matches_the_enumeration_oracle(
        trips in prop::collection::vec((0u32..LANDMARKS, prop::collection::vec(1u32..LANDMARKS, 1..8)), 0..12),
        min_support in 1usize..4,
        max_indexed_span in 1usize..9,
    ) {
        let seqs: Vec<Vec<LandmarkId>> = trips.iter().map(trajectory).collect();
        let corpus: Vec<SymbolicTrajectory> = seqs.iter().map(|s| symbolic(s)).collect();
        let cfg = PopularRouteConfig { min_support, max_indexed_span };
        let pr = PopularRoutes::build(&corpus, cfg);
        let log_p = hop_log_p(&seqs);

        for a in (0..=LANDMARKS).map(LandmarkId) {
            for b in (0..=LANDMARKS).map(LandmarkId) {
                let (support, subs) = enumerate(&seqs, max_indexed_span, a, b);
                prop_assert_eq!(pr.support(a, b), support, "support {:?}", (a, b));
                let route = pr.popular_route(a, b);
                if a == b {
                    prop_assert_eq!(route, Some(vec![a]));
                } else if support >= min_support {
                    prop_assert_eq!(route, most_frequent(subs), "trusted pair {:?}", (a, b));
                } else {
                    let best = best_log_p(&log_p, a, b, &mut BTreeSet::new());
                    let Some(r) = route else {
                        prop_assert!(support == 0 && best.is_none(), "missed {:?}", (a, b));
                        continue;
                    };
                    prop_assert_eq!((r[0], r[r.len() - 1]), (a, b), "endpoints of {:?}", r);
                    let score = r.windows(2).map(|w| log_p.get(&(w[0], w[1]))).sum::<Option<f64>>();
                    let (score, best) = (score.expect("observed hops"), best.expect("a path"));
                    prop_assert!((score - best).abs() < 1e-9, "{:?}: {} < {}", r, score, best);
                }
            }
        }

        let rebuilt = PopularRoutes::from_parts(pr.parts().clone()).expect("own columns validate");
        prop_assert_eq!(&rebuilt, &pr);
        let json = serde_json::to_string(&pr).expect("serializes");
        let back: PopularRoutes = serde_json::from_str(&json).expect("own JSON parses");
        prop_assert_eq!(&back, &pr);
        prop_assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
        let parallel = PopularRoutes::build_with(&corpus, cfg, &Executor::new(3));
        prop_assert_eq!(&parallel, &pr);
    }
}
