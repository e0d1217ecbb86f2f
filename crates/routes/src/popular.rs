//! Mining the most popular route `PR` between two landmarks.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use stmaker_exec::Executor;
use stmaker_poi::LandmarkId;
use stmaker_trajectory::SymbolicTrajectory;

/// Tunables for popular-route mining.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PopularRouteConfig {
    /// Minimum number of historical traversals for the exact most-frequent
    /// sub-route to be trusted; below this the transfer-graph fallback runs.
    pub min_support: usize,
    /// Cap on sub-route length (in landmarks) indexed per trajectory; guards
    /// the O(n²) pair index on pathological inputs.
    pub max_indexed_span: usize,
}

impl Default for PopularRouteConfig {
    fn default() -> Self {
        // min_support = 1: prefer an actually-observed route whenever any
        // historical trajectory covered the pair, falling back to the
        // transfer-graph walk only for never-co-traversed pairs. Empirically
        // this is what keeps short partitions' routing features quiet when
        // the driven route IS the popular route (EXPERIMENTS.md, Fig. 10(b)).
        Self { min_support: 1, max_indexed_span: 64 }
    }
}

/// One indexed occurrence of a `(from, to)` landmark pair.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Occurrence {
    traj: u32,
    start: u32,
    end: u32,
}

/// The popular-route miner: indexes a historical symbolic-trajectory corpus
/// and answers `PR(lᵢ, lⱼ)` queries.
#[derive(Serialize, Deserialize)]
pub struct PopularRoutes {
    corpus: Vec<Vec<LandmarkId>>,
    /// All occurrences of each ordered landmark pair in the corpus.
    #[serde(with = "crate::serde_vecmap")]
    pairs: HashMap<(LandmarkId, LandmarkId), Vec<Occurrence>>,
    /// Transfer counts of *direct* hops, for the probability fallback.
    #[serde(with = "crate::serde_vecmap")]
    transfers: HashMap<LandmarkId, Vec<(LandmarkId, f64)>>,
    /// Distinct-trajectory support per pair, precomputed at build time so
    /// [`PopularRoutes::support`] is a single lookup.
    #[serde(with = "crate::serde_vecmap")]
    supports: HashMap<(LandmarkId, LandmarkId), u32>,
    /// Precomputed winning route per pair whose support reaches
    /// `min_support`, so the common serving-path query is a single map
    /// probe instead of re-hashing every occurrence slice.
    #[serde(with = "crate::serde_vecmap")]
    winners: HashMap<(LandmarkId, LandmarkId), Vec<LandmarkId>>,
    cfg: PopularRouteConfig,
}

/// Plain-data, canonical (key-sorted) image of a [`PopularRoutes`] miner —
/// the exchange type between the miner and external codecs. Produced by
/// [`PopularRoutes::to_parts`], consumed by [`PopularRoutes::from_parts`].
#[derive(Debug, Clone, Default)]
pub struct PopularRoutesParts {
    /// Mining tunables the miner was built with.
    pub cfg: PopularRouteConfig,
    /// Landmark sequence of every indexed trajectory, in corpus order.
    pub corpus: Vec<Vec<LandmarkId>>,
    /// Key-sorted `(from, to) → (traj, start, end)` occurrence triples;
    /// each list in ascending trajectory order, exactly as stored.
    pub pairs: Vec<((LandmarkId, LandmarkId), Vec<(u32, u32, u32)>)>,
    /// Key-sorted per-source direct-hop transition lists.
    pub transfers: Vec<(LandmarkId, Vec<(LandmarkId, f64)>)>,
    /// Key-sorted distinct-trajectory support per pair.
    pub supports: Vec<((LandmarkId, LandmarkId), u32)>,
    /// Key-sorted precomputed winning route per trusted pair.
    pub winners: Vec<((LandmarkId, LandmarkId), Vec<LandmarkId>)>,
}

impl PopularRoutes {
    /// Builds the miner from a historical corpus (single-threaded).
    pub fn build<'a>(
        corpus: impl IntoIterator<Item = &'a SymbolicTrajectory>,
        cfg: PopularRouteConfig,
    ) -> Self {
        Self::build_with(corpus, cfg, &Executor::new(1))
    }

    /// Builds the miner on `exec`'s workers: each corpus shard indexes its
    /// own pair/hop maps, and the partials merge in ascending shard order.
    /// Shard order equals trajectory order, so every occurrence list comes
    /// out in ascending trajectory order and hop counts (integer-valued,
    /// exactly representable) sum identically — the result is the same for
    /// every thread count, byte-for-byte.
    pub fn build_with<'a>(
        corpus: impl IntoIterator<Item = &'a SymbolicTrajectory>,
        cfg: PopularRouteConfig,
        exec: &Executor,
    ) -> Self {
        let seqs: Vec<Vec<LandmarkId>> = corpus.into_iter().map(|t| t.landmark_seq()).collect();

        /// Per-shard slice of the pair/hop indexes.
        struct Shard {
            pairs: HashMap<(LandmarkId, LandmarkId), Vec<Occurrence>>,
            hop_counts: HashMap<(LandmarkId, LandmarkId), f64>,
        }

        let partials = exec.shard_partials(&seqs, |_, base, shard| {
            let mut pairs: HashMap<(LandmarkId, LandmarkId), Vec<Occurrence>> = HashMap::new();
            let mut hop_counts: HashMap<(LandmarkId, LandmarkId), f64> = HashMap::new();
            for (off, seq) in shard.iter().enumerate() {
                let ti = base + off;
                let n = seq.len();
                for i in 0..n {
                    let max_j = (i + cfg.max_indexed_span).min(n - 1);
                    for j in (i + 1)..=max_j {
                        pairs.entry((seq[i], seq[j])).or_default().push(Occurrence {
                            traj: ti as u32,
                            start: i as u32,
                            end: j as u32,
                        });
                    }
                }
                for w in seq.windows(2) {
                    *hop_counts.entry((w[0], w[1])).or_insert(0.0) += 1.0;
                }
            }
            Shard { pairs, hop_counts }
        });

        let mut pairs: HashMap<(LandmarkId, LandmarkId), Vec<Occurrence>> = HashMap::new();
        let mut hop_counts: HashMap<(LandmarkId, LandmarkId), f64> = HashMap::new();
        for p in partials {
            // lint: ordered — one entry per key per partial; per-key appends land in the fixed shard order of the outer loop
            for (k, mut occ) in p.pairs {
                pairs.entry(k).or_default().append(&mut occ);
            }
            // lint: ordered — per-key addition is commutative; one contribution per key per partial
            for (k, c) in p.hop_counts {
                *hop_counts.entry(k).or_insert(0.0) += c;
            }
        }

        // Normalize hop counts into per-source transition lists.
        let mut transfers: HashMap<LandmarkId, Vec<(LandmarkId, f64)>> = HashMap::new();
        // lint: ordered — (a, b) keys are unique, so each list gets one entry per target; the sort below canonicalizes
        for (&(a, b), &c) in &hop_counts {
            transfers.entry(a).or_default().push((b, c));
        }
        // lint: ordered — each list is sorted in place; the visit order of values is irrelevant
        for list in transfers.values_mut() {
            list.sort_by_key(|(l, _)| *l); // deterministic order
        }

        let supports: HashMap<(LandmarkId, LandmarkId), u32> =
            // lint: ordered — pure per-key transform collected back into a keyed map
            pairs.iter().map(|(&k, occ)| (k, distinct_trajs(occ))).collect();

        // Resolve each trusted pair's winner once, at build time. Serving
        // queries for these pairs become a single probe; only
        // below-min_support pairs ever reach the occurrence scan again.
        let winners: HashMap<(LandmarkId, LandmarkId), Vec<LandmarkId>> = pairs
            // lint: ordered — per-key resolution; most_frequent_exact is itself order-free
            .iter()
            .filter(|(k, _)| supports.get(*k).copied().unwrap_or(0) as usize >= cfg.min_support)
            .filter_map(|(&k, occ)| most_frequent_exact(&seqs, occ).map(|w| (k, w)))
            .collect();

        Self { corpus: seqs, pairs, transfers, supports, winners, cfg }
    }

    /// Number of indexed historical trajectories.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Exports the miner as a plain-data, key-sorted image. Together with
    /// [`PopularRoutes::from_parts`] this is the columnar storage boundary:
    /// the binary model codec in `stmaker-io` reads/writes these vectors
    /// without touching the private index layout. Occurrence and winner
    /// *lists* keep their stored order (it is semantically meaningful —
    /// occurrences are in ascending trajectory order); only the map keys
    /// are sorted, the same canonical order `serde_vecmap` uses.
    pub fn to_parts(&self) -> PopularRoutesParts {
        let mut pairs: Vec<((LandmarkId, LandmarkId), Vec<(u32, u32, u32)>)> = self
            .pairs
            // lint: ordered — entries are key-sorted below before being returned
            .iter()
            .map(|(&k, occ)| (k, occ.iter().map(|o| (o.traj, o.start, o.end)).collect()))
            .collect();
        pairs.sort_by_key(|(k, _)| *k);
        let mut transfers: Vec<(LandmarkId, Vec<(LandmarkId, f64)>)> = self
            .transfers
            // lint: ordered — entries are key-sorted below before being returned
            .iter()
            .map(|(&k, outs)| (k, outs.clone()))
            .collect();
        transfers.sort_by_key(|(k, _)| *k);
        let mut supports: Vec<((LandmarkId, LandmarkId), u32)> =
            // lint: ordered — entries are key-sorted below before being returned
            self.supports.iter().map(|(&k, &v)| (k, v)).collect();
        supports.sort_by_key(|(k, _)| *k);
        let mut winners: Vec<((LandmarkId, LandmarkId), Vec<LandmarkId>)> =
            // lint: ordered — entries are key-sorted below before being returned
            self.winners.iter().map(|(&k, w)| (k, w.clone())).collect();
        winners.sort_by_key(|(k, _)| *k);
        PopularRoutesParts {
            cfg: self.cfg,
            corpus: self.corpus.clone(),
            pairs,
            transfers,
            supports,
            winners,
        }
    }

    /// Rebuilds a miner from a [`PopularRoutesParts`] image. The rebuilt
    /// miner serializes byte-identically to the one `to_parts` was called
    /// on: map insertion order is irrelevant (serialization sorts keys),
    /// and list order is preserved verbatim.
    pub fn from_parts(parts: PopularRoutesParts) -> Self {
        Self {
            corpus: parts.corpus,
            pairs: parts
                .pairs
                // lint: ordered — map insertion order is irrelevant (serialization sorts keys)
                .into_iter()
                .map(|(k, occ)| {
                    (
                        k,
                        occ.into_iter()
                            .map(|(traj, start, end)| Occurrence { traj, start, end })
                            .collect(),
                    )
                })
                .collect(),
            // lint: ordered — map insertion order is irrelevant (serialization sorts keys)
            transfers: parts.transfers.into_iter().collect(),
            // lint: ordered — map insertion order is irrelevant (serialization sorts keys)
            supports: parts.supports.into_iter().collect(),
            // lint: ordered — map insertion order is irrelevant (serialization sorts keys)
            winners: parts.winners.into_iter().collect(),
            cfg: parts.cfg,
        }
    }

    /// How many *distinct* historical trajectories traverse `from … to` (in
    /// order). A looping trajectory that covers the pair several times
    /// counts once. O(1): precomputed at build time.
    pub fn support(&self, from: LandmarkId, to: LandmarkId) -> usize {
        self.supports.get(&(from, to)).copied().unwrap_or(0) as usize
    }

    /// The most popular historical route from `from` to `to`, inclusive of
    /// both endpoints. Returns `None` when the corpus gives no basis at all
    /// (no exact support *and* no transfer-graph path).
    pub fn popular_route(&self, from: LandmarkId, to: LandmarkId) -> Option<Vec<LandmarkId>> {
        if from == to {
            return Some(vec![from]);
        }
        // Common case: the winner for every pair at/above min_support is
        // resolved at build time — one map probe, no occurrence re-hash.
        if let Some(winner) = self.winners.get(&(from, to)) {
            return Some(winner.clone());
        }
        // No precomputed winner: the pair is below min_support.
        self.max_probability_route(from, to).or_else(|| {
            // Last resort: any exact occurrence, even below min_support.
            self.pairs.get(&(from, to)).and_then(|occ| most_frequent_exact(&self.corpus, occ))
        })
    }

    /// Maximum-probability walk on the transfer graph: Dijkstra on
    /// `−ln p(next | cur)` edge costs.
    fn max_probability_route(&self, from: LandmarkId, to: LandmarkId) -> Option<Vec<LandmarkId>> {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            node: LandmarkId,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // total_cmp: a real total order for the heap (see pathfind.rs).
                other.cost.total_cmp(&self.cost).then_with(|| other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut dist: HashMap<LandmarkId, f64> = HashMap::new();
        let mut prev: HashMap<LandmarkId, LandmarkId> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(from, 0.0);
        heap.push(Entry { cost: 0.0, node: from });

        while let Some(Entry { cost, node }) = heap.pop() {
            if cost > *dist.get(&node).unwrap_or(&f64::INFINITY) {
                continue;
            }
            if node == to {
                break;
            }
            let Some(outs) = self.transfers.get(&node) else { continue };
            let total: f64 = outs.iter().map(|(_, c)| c).sum();
            for (next, c) in outs {
                let p = c / total;
                let nd = cost - p.ln();
                if nd < *dist.get(next).unwrap_or(&f64::INFINITY) {
                    dist.insert(*next, nd);
                    prev.insert(*next, node);
                    heap.push(Entry { cost: nd, node: *next });
                }
            }
        }

        if !dist.contains_key(&to) {
            return None;
        }
        let mut route = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[&cur];
            route.push(cur);
        }
        route.reverse();
        Some(route)
    }
}

/// Among the occurrences, the most frequent concrete landmark sequence
/// (`None` only for an empty occurrence list, which the pair index never
/// stores). Ties break by count, then shorter, then lexicographically
/// smaller — a total order, so builds are reproducible.
fn most_frequent_exact(corpus: &[Vec<LandmarkId>], occ: &[Occurrence]) -> Option<Vec<LandmarkId>> {
    let mut counts: HashMap<&[LandmarkId], usize> = HashMap::new();
    for o in occ {
        let seq = &corpus[o.traj as usize][o.start as usize..=o.end as usize];
        *counts.entry(seq).or_insert(0) += 1;
    }
    counts
        // lint: ordered — max_by applies a total order (count, length, lexicographic) so the reduction is order-free
        .into_iter()
        .max_by(|a, b| {
            a.1.cmp(&b.1).then_with(|| b.0.len().cmp(&a.0.len())).then_with(|| b.0.cmp(a.0))
        })
        .map(|(seq, _)| seq.to_vec())
}

/// Distinct trajectory ids in an occurrence list. Occurrences are inserted
/// in ascending trajectory order, so counting runs suffices — no sort.
fn distinct_trajs(occ: &[Occurrence]) -> u32 {
    let mut count = 0u32;
    let mut last = None;
    for o in occ {
        if last != Some(o.traj) {
            count += 1;
            last = Some(o.traj);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmaker_trajectory::{SymbolicPoint, Timestamp};

    fn traj(ids: &[u32]) -> SymbolicTrajectory {
        SymbolicTrajectory::new(
            ids.iter()
                .enumerate()
                .map(|(i, l)| SymbolicPoint {
                    landmark: LandmarkId(*l),
                    t: Timestamp(60 * i as i64),
                })
                .collect(),
        )
    }

    fn l(i: u32) -> LandmarkId {
        LandmarkId(i)
    }

    #[test]
    fn exact_majority_route_wins() {
        // 0→1→2 three times, 0→3→2 once.
        let corpus = vec![traj(&[0, 1, 2]), traj(&[0, 1, 2]), traj(&[0, 1, 2]), traj(&[0, 3, 2])];
        let pr = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        assert_eq!(pr.support(l(0), l(2)), 4);
        assert_eq!(pr.popular_route(l(0), l(2)).unwrap(), vec![l(0), l(1), l(2)]);
    }

    #[test]
    fn sub_routes_are_indexed() {
        let corpus = vec![traj(&[5, 6, 7, 8, 9]); 3];
        let pr = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        assert_eq!(pr.popular_route(l(6), l(8)).unwrap(), vec![l(6), l(7), l(8)]);
        assert_eq!(pr.support(l(5), l(9)), 3);
    }

    #[test]
    fn fallback_stitches_transfer_graph() {
        // No single trajectory goes 0→4, but hops 0→1→2 and 2→3→4 exist.
        let corpus = vec![traj(&[0, 1, 2]), traj(&[0, 1, 2]), traj(&[2, 3, 4]), traj(&[2, 3, 4])];
        let pr = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        assert_eq!(pr.support(l(0), l(4)), 0);
        assert_eq!(pr.popular_route(l(0), l(4)).unwrap(), vec![l(0), l(1), l(2), l(3), l(4)]);
    }

    #[test]
    fn fallback_prefers_frequent_transitions() {
        // From 0: to 1 nine times, to 2 once; both reach 3.
        let mut corpus = vec![traj(&[0, 2, 3])];
        for _ in 0..9 {
            corpus.push(traj(&[0, 1]));
        }
        corpus.push(traj(&[1, 3]));
        corpus.push(traj(&[1, 3]));
        // Support for (0,3) is 1 (< min_support 3) → probability fallback.
        let cfg = PopularRouteConfig { min_support: 3, ..PopularRouteConfig::default() };
        let pr = PopularRoutes::build(&corpus, cfg);
        let route = pr.popular_route(l(0), l(3)).unwrap();
        // p(1|0) = 0.9, p(3|1) = 1.0 → 0.9; p(2|0) = 0.1, p(3|2) = 1.0 → 0.1.
        assert_eq!(route, vec![l(0), l(1), l(3)]);
    }

    #[test]
    fn below_min_support_single_occurrence_still_returned_when_no_path() {
        // One lone trajectory 7→8 with landmark 8 having no other appearances:
        // transfer fallback *also* finds 7→8 (it is a direct hop), so check a
        // disconnected pair instead.
        let corpus = vec![traj(&[7, 8]), traj(&[1, 2])];
        let pr = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        assert_eq!(pr.popular_route(l(7), l(8)).unwrap(), vec![l(7), l(8)]);
        assert!(pr.popular_route(l(8), l(7)).is_none());
        assert!(pr.popular_route(l(7), l(2)).is_none());
    }

    #[test]
    fn same_endpoint_is_trivial() {
        let corpus = vec![traj(&[0, 1])];
        let pr = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        assert_eq!(pr.popular_route(l(0), l(0)).unwrap(), vec![l(0)]);
    }

    #[test]
    fn deterministic_tie_break() {
        // Two routes with equal frequency; result must be stable across builds.
        let corpus = vec![traj(&[0, 1, 2]), traj(&[0, 3, 2]), traj(&[0, 1, 2]), traj(&[0, 3, 2])];
        let a = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        let b = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        assert_eq!(a.popular_route(l(0), l(2)), b.popular_route(l(0), l(2)));
    }

    #[test]
    fn looping_trajectory_counts_once_in_support() {
        // One trajectory covering 0→1 twice (it loops back), plus a second
        // plain traversal: distinct-trajectory support is 2, not 3.
        let corpus = vec![traj(&[0, 1, 2, 0, 1]), traj(&[0, 1])];
        let pr = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        assert_eq!(pr.support(l(0), l(1)), 2);
        assert_eq!(pr.support(l(1), l(0)), 1);
        assert_eq!(pr.support(l(2), l(1)), 1); // 2→0→1 via the loop
        assert_eq!(pr.support(l(9), l(0)), 0);
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        let corpus: Vec<SymbolicTrajectory> = (0..150)
            .map(|i| {
                let ids: Vec<u32> = (0..6).map(|j| (i * 7 + j * 3) % 40).collect();
                traj(&ids)
            })
            .collect();
        let seq =
            serde_json::to_string(&PopularRoutes::build(&corpus, PopularRouteConfig::default()))
                .expect("serializes");
        for threads in [2, 4, 8] {
            let par = serde_json::to_string(&PopularRoutes::build_with(
                &corpus,
                PopularRouteConfig::default(),
                &Executor::new(threads),
            ))
            .expect("serializes");
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    /// Brute-force oracle for [`PopularRoutes::popular_route`] and
    /// [`PopularRoutes::support`]: enumerates every occurrence of
    /// `(from, to)` straight from the landmark sequences, with no pair
    /// index and no precomputed tables. Only the transfer-graph walk is
    /// shared with the miner under test.
    fn oracle(
        pr: &PopularRoutes,
        seqs: &[Vec<LandmarkId>],
        from: LandmarkId,
        to: LandmarkId,
    ) -> (usize, Option<Vec<LandmarkId>>) {
        let mut counts: Vec<(Vec<LandmarkId>, usize)> = Vec::new();
        let mut support = 0;
        for seq in seqs {
            let mut covered = false;
            for i in (0..seq.len()).filter(|&i| seq[i] == from) {
                let last = (i + pr.cfg.max_indexed_span).min(seq.len() - 1);
                for j in (i + 1..=last).filter(|&j| seq[j] == to) {
                    covered = true;
                    let sub = seq[i..=j].to_vec();
                    match counts.iter_mut().find(|(s, _)| *s == sub) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((sub, 1)),
                    }
                }
            }
            support += usize::from(covered);
        }
        // Most frequent, then shorter, then lexicographically smaller.
        let exact = counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.len().cmp(&a.0.len())).then(b.0.cmp(&a.0)))
            .map(|(s, _)| s);
        let route = if from == to {
            Some(vec![from])
        } else if support >= pr.cfg.min_support && exact.is_some() {
            exact
        } else {
            pr.max_probability_route(from, to).or(exact)
        };
        (support, route)
    }

    #[test]
    fn every_probe_matches_the_occurrence_oracle() {
        // Pseudo-random walks over 12 landmarks: they revisit landmarks, so
        // distinct-trajectory support differs from the occurrence count,
        // and a span cap of 3 cuts some occurrences off.
        let mut state = 0x2545_f491_u64;
        let corpus: Vec<SymbolicTrajectory> = (0..60)
            .map(|_| {
                let mut ids = vec![0u32];
                for _ in 1..8 {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let prev = ids[ids.len() - 1];
                    ids.push((prev + 1 + (state >> 33) as u32 % 11) % 12);
                }
                traj(&ids)
            })
            .collect();
        let seqs: Vec<Vec<LandmarkId>> = corpus.iter().map(|t| t.landmark_seq()).collect();
        for cfg in [
            PopularRouteConfig::default(),
            PopularRouteConfig { min_support: 4, max_indexed_span: 3 },
        ] {
            let pr = PopularRoutes::build(&corpus, cfg);
            for a in 0..13 {
                for b in 0..13 {
                    let (support, route) = oracle(&pr, &seqs, l(a), l(b));
                    if a != b {
                        assert_eq!(pr.support(l(a), l(b)), support, "support ({a},{b}) {cfg:?}");
                    }
                    assert_eq!(pr.popular_route(l(a), l(b)), route, "route ({a},{b}) {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn winners_respect_min_support() {
        let cfg = PopularRouteConfig { min_support: 2, ..PopularRouteConfig::default() };
        let corpus = vec![traj(&[0, 1, 2]), traj(&[0, 1, 2]), traj(&[5, 6])];
        let pr = PopularRoutes::build(&corpus, cfg);
        assert!(pr.winners.contains_key(&(l(0), l(2))));
        assert!(!pr.winners.contains_key(&(l(5), l(6))));
        // The below-threshold pair is still answered via the fallback.
        assert_eq!(pr.popular_route(l(5), l(6)).unwrap(), vec![l(5), l(6)]);
    }

    #[test]
    fn max_indexed_span_caps_pair_index() {
        let cfg = PopularRouteConfig { min_support: 1, max_indexed_span: 2 };
        let corpus = vec![traj(&[0, 1, 2, 3, 4])];
        let pr = PopularRoutes::build(&corpus, cfg);
        // Span-2 pair is indexed…
        assert_eq!(pr.support(l(0), l(2)), 1);
        // …span-4 pair is not, but the transfer fallback still answers.
        assert_eq!(pr.support(l(0), l(4)), 0);
        assert_eq!(pr.popular_route(l(0), l(4)).unwrap(), vec![l(0), l(1), l(2), l(3), l(4)]);
    }
}
