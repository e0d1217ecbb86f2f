//! `compute_significance` against the straightforward HITS it replaced.
//!
//! The reference aggregates visits through a `BTreeMap` and sweeps
//! `Vec<Vec<_>>` adjacency lists. The flat-array implementation must agree
//! with it bit for bit — significance, hub scores and iteration count —
//! because landmark significance feeds every model and summary.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use stmaker_significance::{compute_significance, HitsConfig, HitsResult, Visit};

/// The `BTreeMap` / `Vec<Vec<_>>` HITS, kept only as an oracle.
fn reference_significance(n_landmarks: usize, visits: &[Visit], cfg: HitsConfig) -> HitsResult {
    let mut user_index: HashMap<u32, usize> = HashMap::new();
    let mut weights: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for v in visits {
        let lm = v.landmark.0 as usize;
        assert!(lm < n_landmarks, "visit references landmark {} out of range", lm);
        let next = user_index.len();
        let u = *user_index.entry(v.user.0).or_insert(next);
        *weights.entry((u, lm)).or_insert(0.0) += 1.0;
    }
    let n_users = user_index.len();

    if n_users == 0 || n_landmarks == 0 {
        return HitsResult {
            significance: vec![0.0; n_landmarks],
            hub_scores: vec![0.0; n_landmarks],
            iterations: 0,
        };
    }

    let mut by_user: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_users];
    let mut by_landmark: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_landmarks];
    for (&(u, l), &w) in &weights {
        by_user[u].push((l, w));
        by_landmark[l].push((u, w));
    }

    let mut auth = vec![1.0f64; n_users];
    let mut hub = vec![1.0f64; n_landmarks];
    let mut iterations = 0;

    for it in 0..cfg.max_iters {
        iterations = it + 1;
        for (u, links) in by_user.iter().enumerate() {
            auth[u] = links.iter().map(|(l, w)| hub[*l] * w).sum();
        }
        l2_normalize(&mut auth);
        let mut new_hub = vec![0.0f64; n_landmarks];
        for (l, links) in by_landmark.iter().enumerate() {
            new_hub[l] = links.iter().map(|(u, w)| auth[*u] * w).sum();
        }
        l2_normalize(&mut new_hub);
        let delta: f64 = new_hub.iter().zip(&hub).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt();
        hub = new_hub;
        if delta < cfg.tolerance {
            break;
        }
    }

    let visited_scores: Vec<f64> =
        (0..n_landmarks).filter(|l| !by_landmark[*l].is_empty()).map(|l| hub[l]).collect();
    let (lo, hi) = visited_scores
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let significance = (0..n_landmarks)
        .map(|l| {
            if by_landmark[l].is_empty() {
                0.0
            } else if hi == lo {
                1.0
            } else {
                (hub[l] - lo) / span
            }
        })
        .collect();

    HitsResult { significance, hub_scores: hub, iterations }
}

fn l2_normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_identical(n_landmarks: usize, visits: &[Visit], cfg: HitsConfig) {
    let got = compute_significance(n_landmarks, visits, cfg);
    let want = reference_significance(n_landmarks, visits, cfg);
    assert_eq!(bits(&got.significance), bits(&want.significance), "significance");
    assert_eq!(bits(&got.hub_scores), bits(&want.hub_scores), "hub scores");
    assert_eq!(got.iterations, want.iterations, "iterations");
}

/// Visits as `(user slot, landmark, repeats)` in arbitrary order. Slots map
/// to scattered raw ids, so first-appearance compaction differs from
/// sorting by raw id. Landmarks past `visited` are never visited.
fn visits_strategy(visited: u32) -> impl Strategy<Value = (Vec<Visit>, u32)> {
    (prop::collection::vec((0u32..25, 0u32..visited, 1usize..4), 0..250), 0u32..u32::MAX).prop_map(
        |(triples, salt)| {
            let mut visits = Vec::new();
            for (slot, lm, repeats) in triples {
                let user = slot.wrapping_mul(2_654_435_761).wrapping_add(salt);
                for _ in 0..repeats {
                    visits.push(Visit::new(user, lm));
                }
            }
            (visits, salt)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_reference_bit_for_bit((visits, _) in visits_strategy(30)) {
        // 40 landmarks: at least 10 are never visited.
        assert_identical(40, &visits, HitsConfig::default());
    }

    #[test]
    fn matches_reference_under_loose_and_capped_iteration((visits, salt) in visits_strategy(12)) {
        let cfg = HitsConfig { max_iters: 1 + (salt % 7) as usize, tolerance: 1e-3 };
        assert_identical(12, &visits, cfg);
    }
}

#[test]
fn matches_reference_on_degenerate_graphs() {
    assert_identical(0, &[], HitsConfig::default());
    assert_identical(5, &[], HitsConfig::default());
    assert_identical(3, &[Visit::new(u32::MAX, 2)], HitsConfig::default());
    let one_user: Vec<Visit> = (0..6).map(|i| Visit::new(9, i % 3)).collect();
    assert_identical(4, &one_user, HitsConfig::default());
    let star: Vec<Visit> = (0..50).map(|u| Visit::new(1_000 - u, 0)).collect();
    assert_identical(2, &star, HitsConfig::default());
}

/// A raw user who comes back after another user's run (A, B, A, ...) must
/// keep the compact id of their first run: the last-user shortcut falls
/// back to the map, and both runs' visits merge into the same links.
#[test]
fn users_in_separated_runs_keep_their_first_compact_id() {
    let (a, b, c) = (7_000_000, 42, u32::MAX);
    let mut visits = Vec::new();
    for (user, landmarks) in [
        (a, &[3, 1, 1][..]),
        (b, &[1, 2][..]),
        (a, &[1, 4, 3][..]),
        (c, &[0][..]),
        (b, &[2, 2, 0][..]),
        (a, &[4][..]),
    ] {
        for &l in landmarks {
            visits.push(Visit::new(user, l));
        }
    }
    assert_identical(6, &visits, HitsConfig::default());
    assert_identical(6, &visits, HitsConfig { max_iters: 2, tolerance: 0.0 });
    // The same visits with each user's runs joined give the same links.
    let mut joined = visits.clone();
    joined.sort_by_key(|v| [a, b, c].iter().position(|&u| u == v.user.0));
    let (x, y) = (
        compute_significance(6, &visits, HitsConfig::default()),
        compute_significance(6, &joined, HitsConfig::default()),
    );
    assert_eq!(bits(&x.hub_scores), bits(&y.hub_scores));
}
