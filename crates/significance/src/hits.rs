//! Weighted HITS power iteration on the visit graph.

use crate::visits::Visit;
use std::collections::HashMap;

/// Convergence controls for the power iteration.
#[derive(Debug, Clone, Copy)]
pub struct HitsConfig {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Stop when the L2 change of the hub vector drops below this.
    pub tolerance: f64,
}

impl Default for HitsConfig {
    fn default() -> Self {
        Self { max_iters: 100, tolerance: 1e-9 }
    }
}

/// Output of [`compute_significance`].
#[derive(Debug, Clone)]
pub struct HitsResult {
    /// Per-landmark significance, min–max normalized into `[0, 1]`.
    /// Landmarks with no visits score 0 — as does the least-visited
    /// landmark, which min–max maps to the same floor; callers that must
    /// distinguish the two should consult `hub_scores`.
    pub significance: Vec<f64>,
    /// Raw (L2-normalized) hub scores before min–max normalization.
    pub hub_scores: Vec<f64>,
    /// Iterations actually run.
    pub iterations: usize,
}

/// Runs the HITS-like significance computation of Sec. IV-B.
///
/// Travellers are authorities, landmarks are hubs, visits are hyperlinks.
/// Repeated visits by the same traveller to the same landmark strengthen the
/// link (edge weights are visit counts). The returned significance vector is
/// indexed by `LandmarkId` and normalized to `[0, 1]`.
pub fn compute_significance(n_landmarks: usize, visits: &[Visit], cfg: HitsConfig) -> HitsResult {
    let graph = VisitGraph::build(n_landmarks, visits);
    let n_users = graph.user_off.len() - 1;

    if n_users == 0 || n_landmarks == 0 {
        return HitsResult {
            significance: vec![0.0; n_landmarks],
            hub_scores: vec![0.0; n_landmarks],
            iterations: 0,
        };
    }

    let mut auth = vec![1.0f64; n_users];
    let mut hub = vec![1.0f64; n_landmarks];
    let mut next_hub = vec![0.0f64; n_landmarks];
    let mut iterations = 0;

    for it in 0..cfg.max_iters {
        iterations = it + 1;
        // a(u) = Σ_l h(l) · w(u,l)
        for (u, a) in auth.iter_mut().enumerate() {
            *a = graph.links_of_user(u).iter().map(|(l, w)| hub[*l] * w).sum();
        }
        l2_normalize(&mut auth);
        // h(l) = Σ_u a(u) · w(u,l)
        for (l, h) in next_hub.iter_mut().enumerate() {
            *h = graph.links_of_landmark(l).iter().map(|(u, w)| auth[*u] * w).sum();
        }
        l2_normalize(&mut next_hub);
        let delta: f64 =
            next_hub.iter().zip(&hub).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt();
        std::mem::swap(&mut hub, &mut next_hub);
        if delta < cfg.tolerance {
            break;
        }
    }

    // Min–max normalize over visited landmarks; unvisited stay at exactly 0.
    let visited = |l: usize| !graph.links_of_landmark(l).is_empty();
    let (lo, hi) = (0..n_landmarks)
        .filter(|l| visited(*l))
        .map(|l| hub[l])
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| (lo.min(s), hi.max(s)));
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let significance = (0..n_landmarks)
        .map(|l| {
            if !visited(l) {
                0.0
            } else if hi == lo {
                1.0 // every visited landmark equally significant
            } else {
                (hub[l] - lo) / span
            }
        })
        .collect();

    HitsResult { significance, hub_scores: hub, iterations }
}

/// The weighted traveller–landmark graph in compressed sparse row form,
/// one copy per sweep direction.
///
/// Users are compacted to `0..n_users` in order of first appearance. Each
/// user's links are sorted by landmark and each landmark's links by user,
/// so both sweeps add their terms in `(user, landmark)` order — the order
/// that fixes every floating-point sum, and with it the significance bits.
struct VisitGraph {
    /// User `u`'s links are `user_links[user_off[u]..user_off[u + 1]]`.
    user_off: Vec<usize>,
    /// `(landmark, visit count)`, landmarks ascending within a user.
    user_links: Vec<(usize, f64)>,
    /// Landmark `l`'s links are `lm_links[lm_off[l]..lm_off[l + 1]]`.
    lm_off: Vec<usize>,
    /// `(user, visit count)`, users ascending within a landmark.
    lm_links: Vec<(usize, f64)>,
}

impl VisitGraph {
    fn build(n_landmarks: usize, visits: &[Visit]) -> Self {
        // Compact users in order of first appearance. Visits come in
        // per-user runs, so the map is consulted only when the raw user
        // changes. `by_user[u + 1]` and `by_lm[l + 1]` count visits.
        let mut user_index: HashMap<u32, u32> = HashMap::new();
        let mut last: Option<(u32, u32)> = None;
        let mut users: Vec<u32> = Vec::with_capacity(visits.len());
        let mut by_user: Vec<usize> = vec![0];
        let mut by_lm = vec![0usize; n_landmarks + 1];
        for v in visits {
            let lm = v.landmark.0 as usize;
            assert!(lm < n_landmarks, "visit references landmark {} out of range", lm);
            let u = match last {
                Some((raw, u)) if raw == v.user.0 => u,
                _ => {
                    let next = user_index.len() as u32;
                    let u = *user_index.entry(v.user.0).or_insert(next);
                    if u == next {
                        by_user.push(0);
                    }
                    last = Some((v.user.0, u));
                    u
                }
            };
            users.push(u);
            by_user[u as usize + 1] += 1;
            by_lm[lm + 1] += 1;
        }
        drop(user_index);
        let n_users = by_user.len() - 1;
        prefix_sum(&mut by_user);
        prefix_sum(&mut by_lm);

        // Two stable counting passes order the visits by `(user, landmark)`:
        // users grouped by landmark, then landmarks grouped by user.
        let mut lm_users = vec![0u32; visits.len()];
        let mut cursor = by_lm.clone();
        for (v, &u) in visits.iter().zip(&users) {
            let l = v.landmark.0 as usize;
            lm_users[cursor[l]] = u;
            cursor[l] += 1;
        }
        drop(users);
        let mut user_lms = vec![0u32; visits.len()];
        let mut cursor = by_user.clone();
        for l in 0..n_landmarks {
            for &u in &lm_users[by_lm[l]..by_lm[l + 1]] {
                user_lms[cursor[u as usize]] = l as u32;
                cursor[u as usize] += 1;
            }
        }
        drop(lm_users);

        // A run of equal landmarks within a user is one link weighted by
        // its length. Offsets start as per-row link counts and become
        // prefix sums.
        let runs = |u: usize| user_lms[by_user[u]..by_user[u + 1]].chunk_by(|a, b| a == b);
        let n_links = (0..n_users).map(|u| runs(u).count()).sum();
        let mut user_off = vec![0usize; n_users + 1];
        let mut lm_off = by_lm;
        lm_off.fill(0);
        let mut user_links: Vec<(usize, f64)> = Vec::with_capacity(n_links);
        for u in 0..n_users {
            for run in runs(u) {
                let l = run[0] as usize;
                user_links.push((l, run.len() as f64));
                user_off[u + 1] += 1;
                lm_off[l + 1] += 1;
            }
        }
        drop(user_lms);
        prefix_sum(&mut user_off);
        prefix_sum(&mut lm_off);

        // Counting sort by landmark; scanning users in ascending order keeps
        // each landmark's users ascending.
        let mut cursor = lm_off.clone();
        let mut lm_links = vec![(0usize, 0.0f64); user_links.len()];
        for u in 0..n_users {
            for &(l, w) in &user_links[user_off[u]..user_off[u + 1]] {
                lm_links[cursor[l]] = (u, w);
                cursor[l] += 1;
            }
        }
        Self { user_off, user_links, lm_off, lm_links }
    }

    fn links_of_user(&self, u: usize) -> &[(usize, f64)] {
        &self.user_links[self.user_off[u]..self.user_off[u + 1]]
    }

    fn links_of_landmark(&self, l: usize) -> &[(usize, f64)] {
        &self.lm_links[self.lm_off[l]..self.lm_off[l + 1]]
    }
}

/// Turns per-row counts in `off[1..]` into CSR offsets.
fn prefix_sum(off: &mut [usize]) {
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
}

fn l2_normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visits::Visit;

    #[test]
    fn hub_landmark_dominates() {
        // Landmark 0 is visited by 10 users; landmarks 1..=3 by one user each.
        let mut visits = Vec::new();
        for u in 0..10 {
            visits.push(Visit::new(u, 0));
        }
        visits.push(Visit::new(0, 1));
        visits.push(Visit::new(1, 2));
        visits.push(Visit::new(2, 3));
        let r = compute_significance(4, &visits, HitsConfig::default());
        assert_eq!(r.significance[0], 1.0);
        for l in 1..4 {
            assert!(r.significance[l] < 0.5, "l{l} = {}", r.significance[l]);
        }
    }

    #[test]
    fn unvisited_landmarks_score_zero() {
        let visits = vec![Visit::new(0, 0), Visit::new(1, 0)];
        let r = compute_significance(3, &visits, HitsConfig::default());
        assert_eq!(r.significance[1], 0.0);
        assert_eq!(r.significance[2], 0.0);
        assert_eq!(r.significance[0], 1.0);
    }

    #[test]
    fn repeat_visits_strengthen_links() {
        // Same user count, but landmark 1 gets 5 visits from each user.
        let mut visits = Vec::new();
        for u in 0..4 {
            visits.push(Visit::new(u, 0));
            for _ in 0..5 {
                visits.push(Visit::new(u, 1));
            }
        }
        let r = compute_significance(2, &visits, HitsConfig::default());
        assert!(r.significance[1] > r.significance[0]);
    }

    #[test]
    fn empty_inputs() {
        let r = compute_significance(5, &[], HitsConfig::default());
        assert_eq!(r.significance, vec![0.0; 5]);
        let r = compute_significance(0, &[], HitsConfig::default());
        assert!(r.significance.is_empty());
    }

    #[test]
    fn uniform_graph_gives_uniform_scores() {
        // Every user visits every landmark once: all equally significant.
        let mut visits = Vec::new();
        for u in 0..3 {
            for l in 0..4 {
                visits.push(Visit::new(u, l));
            }
        }
        let r = compute_significance(4, &visits, HitsConfig::default());
        assert!(r.significance.iter().all(|s| (*s - 1.0).abs() < 1e-12), "{:?}", r.significance);
    }

    #[test]
    fn converges_quickly_on_small_graphs() {
        let visits = vec![Visit::new(0, 0), Visit::new(0, 1), Visit::new(1, 1)];
        let r = compute_significance(2, &visits, HitsConfig::default());
        assert!(r.iterations < 100, "took {} iterations", r.iterations);
    }

    #[test]
    fn deterministic() {
        let visits: Vec<Visit> = (0..50).map(|i| Visit::new(i % 7, (i * i) % 11)).collect();
        let a = compute_significance(11, &visits, HitsConfig::default());
        let b = compute_significance(11, &visits, HitsConfig::default());
        assert_eq!(a.significance, b.significance);
    }

    #[test]
    fn scores_bounded_in_unit_interval() {
        let visits: Vec<Visit> = (0..200).map(|i| Visit::new(i % 13, (i * 3) % 17)).collect();
        let r = compute_significance(17, &visits, HitsConfig::default());
        assert!(r.significance.iter().all(|s| (0.0..=1.0).contains(s)));
        // Extremes attained.
        assert!(r.significance.contains(&1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn visit_out_of_range_panics() {
        compute_significance(2, &[Visit::new(0, 5)], HitsConfig::default());
    }
}
