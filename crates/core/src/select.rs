//! Feature selection (Sec. V): compute every feature's irregular rate on a
//! partition and keep those above the threshold η.

use crate::cached_routes::CachedRoutes;
use crate::feature::{FeatureKind, FeatureScale, FeatureSet, FeatureWeights};
use crate::irregular::{moving_irregular_rate, routing_irregular_rate_with, EditScratch};
use stmaker_poi::LandmarkId;
use stmaker_routes::HistoricalFeatureMap;

/// A feature chosen to appear in a partition's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedFeature {
    /// Feature key (dimension key in the [`FeatureSet`]).
    pub key: String,
    /// Human-readable label.
    pub label: String,
    /// Routing or moving.
    pub kind: FeatureKind,
    /// The irregular rate Γ_f(TP) that earned selection.
    pub irregular_rate: f64,
    /// Partition-level observed aggregate: mean for numeric features, mode
    /// for categorical ones.
    pub observed: f64,
    /// Historical regular aggregate on the partition's route, if known.
    pub regular: Option<f64>,
}

/// Inputs for selecting features on one partition.
pub struct SelectionInput<'a> {
    /// The feature set in dimension order.
    pub features: &'a FeatureSet,
    /// Per-feature weights `w_f`.
    pub weights: &'a FeatureWeights,
    /// Selection threshold η.
    pub eta: f64,
    /// Per-segment feature value vectors for the partition's segments.
    pub seg_values: &'a [Vec<f64>],
    /// The partition's landmark hops: `hops[t] = (l_t, l_{t+1})`.
    pub hops: &'a [(LandmarkId, LandmarkId)],
    /// The popular route `PR` between the partition's endpoints, if mined.
    pub popular_route: Option<&'a [LandmarkId]>,
    /// Historical per-hop feature statistics.
    pub featmap: &'a HistoricalFeatureMap,
    /// Optional read-through memo for the popular route's per-hop value
    /// sequences (shared across batch workers); `None` computes per call.
    pub route_cache: Option<&'a CachedRoutes>,
}

/// Reusable buffers for [`select_features_with`]: the per-feature value
/// vectors plus the edit-distance scratch. Selection runs per partition
/// per trip; holding one of these per worker thread (the batch path keeps
/// one in a thread-local) removes every per-feature heap allocation that
/// reaches steady-state capacity.
#[derive(Debug, Default)]
pub struct SelectScratch {
    pub(crate) edit: EditScratch,
    pub(crate) tp_values: Vec<f64>,
    pub(crate) regulars: Vec<Option<f64>>,
    pub(crate) known: Vec<f64>,
    pub(crate) deviating: Vec<f64>,
}

/// Computes Γ_f for every feature and returns those with Γ_f > η, most
/// irregular first. This is Sec. V end to end: routing features compare
/// against the popular route, moving features against the historical
/// feature map.
pub fn select_features(input: &SelectionInput<'_>) -> Vec<SelectedFeature> {
    select_features_with(input, &mut SelectScratch::default())
}

/// [`select_features`] with caller-provided scratch buffers (the batch
/// serving path holds one per worker thread).
pub fn select_features_with(
    input: &SelectionInput<'_>,
    scratch: &mut SelectScratch,
) -> Vec<SelectedFeature> {
    let mut out = Vec::new();
    for (idx, f) in input.features.features().iter().enumerate() {
        let w = input.weights.get(idx);
        scratch.tp_values.clear();
        scratch.tp_values.extend(input.seg_values.iter().map(|v| v[idx]));

        // The popular-route value sequence lives either in the shared memo
        // (an `Arc` slice, no copy) or in a per-call vector; both borrows
        // must outlive `pr_values` below, hence the two deferred locals.
        let cached_vals;
        let computed_vals;
        let (gamma, regular) = match f.kind() {
            FeatureKind::Routing => {
                let Some(pr) = input.popular_route else { continue };
                let pr_values: &[f64] = match input.route_cache {
                    Some(cache) => {
                        cached_vals = cache.route_values(
                            input.featmap,
                            pr,
                            f.key(),
                            f.scale(),
                            idx as u32, // cast-ok: feature index, tiny
                        );
                        match &cached_vals {
                            Some(v) => v,
                            // Some PR hop has no history for this feature
                            // (possible when a custom feature was added
                            // after training): comparing against a
                            // truncated sequence would read as a spurious
                            // length mismatch, so skip the feature instead.
                            None => continue,
                        }
                    }
                    None => {
                        computed_vals = popular_route_values(input.featmap, pr, f.key(), f.scale());
                        match &computed_vals {
                            Some(v) => v,
                            None => continue,
                        }
                    }
                };
                if pr_values.is_empty() {
                    continue; // single-landmark popular route: nothing to compare
                }
                let gamma = routing_irregular_rate_with(
                    &scratch.tp_values,
                    pr_values,
                    f.scale(),
                    w,
                    &mut scratch.edit,
                );
                (gamma, aggregate(pr_values, f.scale()))
            }
            FeatureKind::Moving => {
                scratch.regulars.clear();
                scratch.regulars.extend(input.hops.iter().map(|(a, b)| match f.scale() {
                    FeatureScale::Numeric => input.featmap.regular_value(*a, *b, f.key()),
                    FeatureScale::Categorical => {
                        // cast-ok: small category code
                        input.featmap.regular_category(*a, *b, f.key()).map(|c| c as f64)
                    }
                }));
                let gamma = moving_irregular_rate(&scratch.tp_values, &scratch.regulars, w);
                scratch.known.clear();
                scratch.known.extend(scratch.regulars.iter().flatten().copied());
                (gamma, aggregate(&scratch.known, f.scale()))
            }
        };

        // Count features describe events; zero events is smooth driving, not
        // something to phrase (Table V templates only state positive counts).
        if f.count_like() && scratch.tp_values.iter().sum::<f64>() == 0.0 {
            continue;
        }

        // Categorical presentation guard: a route-length mismatch alone can
        // push the edit distance over η even when every driven category
        // equals the usual one — and "through two-way road while most
        // drivers prefer two-way road" says nothing. A segment *deviates*
        // when its category differs from the usual category of its own hop
        // (falling back to the route-level regular where the hop has no
        // history); the phrased value is the modal deviating category
        // (Sec. III-A: "if an object moves along a one-way road, then one of
        // the most distinctive information of the trajectory is 'moving
        // along a one-way road'"). With no deviating segment the feature is
        // skipped.
        // The reference a segment deviates *from* depends on the family:
        // routing features compare against the popular route's modal
        // category (the whole point of Sec. V-A is route-vs-popular-route —
        // a driven hop's own history is the same physical road and would
        // never differ); moving categorical features compare against their
        // own hop's historical mode.
        let observed = match (f.scale(), regular) {
            (FeatureScale::Categorical, Some(reg)) => {
                scratch.deviating.clear();
                scratch.deviating.extend(
                    scratch
                        .tp_values
                        .iter()
                        .zip(input.hops)
                        .filter(|(v, (a, b))| {
                            let reference = match f.kind() {
                                FeatureKind::Routing => reg,
                                FeatureKind::Moving => input
                                    .featmap
                                    .regular_category(*a, *b, f.key())
                                    .map(|c| c as f64) // cast-ok: small category code
                                    .unwrap_or(reg),
                            };
                            **v != reference
                        })
                        .map(|(v, _)| *v),
                );
                match aggregate(&scratch.deviating, FeatureScale::Categorical) {
                    Some(v) => v,
                    None => continue, // every segment matches its reference category
                }
            }
            _ => aggregate(&scratch.tp_values, f.scale()).unwrap_or(0.0),
        };

        crate::invariant::check_irregular_rate(f.key(), gamma);
        if gamma > input.eta {
            out.push(SelectedFeature {
                key: f.key().to_owned(),
                label: f.label().to_owned(),
                kind: f.kind(),
                irregular_rate: gamma,
                observed,
                regular,
            });
        }
    }
    out.sort_by(|a, b| {
        desc_nan_last(a.irregular_rate, b.irregular_rate).then_with(|| a.key.cmp(&b.key))
    });
    out
}

/// Descending float comparator with a total order: larger values sort first
/// and NaN — which `partial_cmp(..).unwrap()` would panic on — sorts
/// deterministically last. Shared by every "most irregular first" ranking.
pub fn desc_nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Per-hop values of a routing feature along the popular route, read from
/// history. Returns `None` when any hop lacks history for the feature —
/// every hop of a mined route was observed during training, so a gap means
/// the feature key post-dates the model and the comparison is meaningless.
pub fn popular_route_values(
    featmap: &HistoricalFeatureMap,
    route: &[LandmarkId],
    key: &str,
    scale: FeatureScale,
) -> Option<Vec<f64>> {
    route
        .windows(2)
        .map(|w| match scale {
            FeatureScale::Numeric => featmap.regular_value(w[0], w[1], key),
            FeatureScale::Categorical => {
                featmap.regular_category(w[0], w[1], key).map(|c| c as f64) // cast-ok: small category code
            }
        })
        .collect()
}

/// Partition-level aggregate: mean for numeric values, mode for categorical
/// codes (ties towards the smaller code). `None` for empty input.
pub fn aggregate(values: &[f64], scale: FeatureScale) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    match scale {
        // cast-ok: value count, exact well below 2^53
        FeatureScale::Numeric => Some(values.iter().sum::<f64>() / values.len() as f64),
        FeatureScale::Categorical => {
            let mut counts: std::collections::BTreeMap<i64, usize> = Default::default();
            for v in values {
                *counts.entry(v.round() as i64).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(code, _)| code as f64) // cast-ok: small category code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::{keys, standard_features};
    use stmaker_routes::FeatureMapBuilder;

    fn l(i: u32) -> LandmarkId {
        LandmarkId(i)
    }

    /// A 3-segment partition over landmarks 0→1→2→3 with handcrafted values:
    /// [grade, width, direction, speed, stays, u-turns] per segment.
    struct Fixture {
        features: FeatureSet,
        weights: FeatureWeights,
        seg_values: Vec<Vec<f64>>,
        hops: Vec<(LandmarkId, LandmarkId)>,
        featmap: HistoricalFeatureMap,
        route: Vec<LandmarkId>,
    }

    fn fixture() -> Fixture {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        // The trip drives grade-5 roads where history drives grade-2; speed
        // dips on the middle segment; one stay on segment 1.
        let seg_values = vec![
            vec![5.0, 9.0, 1.0, 60.0, 0.0, 0.0],
            vec![5.0, 9.0, 1.0, 15.0, 1.0, 0.0],
            vec![5.0, 9.0, 1.0, 60.0, 0.0, 0.0],
        ];
        let hops = vec![(l(0), l(1)), (l(1), l(2)), (l(2), l(3))];
        let route = vec![l(0), l(4), l(3)]; // popular route goes elsewhere
        let mut featmap = FeatureMapBuilder::new();
        // History on the popular route's hops: express road, 22 m, two-way.
        for w in route.windows(2) {
            featmap.add_categorical_observation(w[0], w[1], keys::GRADE, 2);
            featmap.add_observation(w[0], w[1], keys::WIDTH, 22.0);
            featmap.add_categorical_observation(w[0], w[1], keys::DIRECTION, 1);
        }
        // History on the trip's own hops: steady 60 km/h, no stays/U-turns.
        for (a, b) in &hops {
            featmap.add_observation(*a, *b, keys::SPEED, 60.0);
            featmap.add_observation(*a, *b, keys::STAY_POINTS, 0.1);
            featmap.add_observation(*a, *b, keys::U_TURNS, 0.05);
        }
        Fixture { features, weights, seg_values, hops, featmap: featmap.finish(), route }
    }

    fn run(fx: &Fixture, eta: f64) -> Vec<SelectedFeature> {
        select_features(&SelectionInput {
            features: &fx.features,
            weights: &fx.weights,
            eta,
            seg_values: &fx.seg_values,
            hops: &fx.hops,
            popular_route: Some(&fx.route),
            featmap: &fx.featmap,
            route_cache: None,
        })
    }

    #[test]
    fn irregular_features_are_selected() {
        let fx = fixture();
        let sel = run(&fx, 0.2);
        let keys_sel: Vec<&str> = sel.iter().map(|s| s.key.as_str()).collect();
        assert!(keys_sel.contains(&keys::GRADE), "grade deviates from PR: {keys_sel:?}");
        assert!(keys_sel.contains(&keys::SPEED), "mid-segment slowdown: {keys_sel:?}");
        assert!(keys_sel.contains(&keys::STAY_POINTS), "stay occurred: {keys_sel:?}");
        // Direction matches history (both two-way) → not selected.
        assert!(!keys_sel.contains(&keys::DIRECTION));
        // No U-turns happened → count guard keeps it out.
        assert!(!keys_sel.contains(&keys::U_TURNS));
    }

    #[test]
    fn selection_sorted_by_irregularity() {
        let fx = fixture();
        let sel = run(&fx, 0.2);
        assert!(sel.windows(2).all(|w| w[0].irregular_rate >= w[1].irregular_rate));
    }

    #[test]
    fn high_eta_selects_nothing() {
        let fx = fixture();
        // Weighted rates are all ≤ 1 with unit weights.
        assert!(run(&fx, 1.0).is_empty());
    }

    #[test]
    fn weights_push_features_over_threshold() {
        let mut fx = fixture();
        // Speed's unit-weight irregular rate is 0.25, below η = 0.5…
        assert!(!run(&fx, 0.5).iter().any(|s| s.key == keys::SPEED));
        // …but weighting speed 4× (the Fig. 10(a) experiment) brings it in.
        fx.weights.set(&fx.features, keys::SPEED, 4.0);
        let sel = run(&fx, 0.5);
        assert!(sel.iter().any(|s| s.key == keys::SPEED), "{sel:?}");
    }

    #[test]
    fn missing_popular_route_skips_routing_features() {
        let fx = fixture();
        let sel = select_features(&SelectionInput {
            features: &fx.features,
            weights: &fx.weights,
            eta: 0.2,
            seg_values: &fx.seg_values,
            hops: &fx.hops,
            popular_route: None,
            featmap: &fx.featmap,
            route_cache: None,
        });
        assert!(sel.iter().all(|s| s.kind == FeatureKind::Moving));
    }

    #[test]
    fn observed_and_regular_aggregates_are_sane() {
        let fx = fixture();
        let sel = run(&fx, 0.2);
        let speed = sel.iter().find(|s| s.key == keys::SPEED).unwrap();
        assert!((speed.observed - 45.0).abs() < 1e-9); // mean(60, 15, 60)
        assert_eq!(speed.regular, Some(60.0));
        let grade = sel.iter().find(|s| s.key == keys::GRADE).unwrap();
        assert_eq!(grade.observed, 5.0); // modal observed grade
        assert_eq!(grade.regular, Some(2.0)); // modal PR grade
    }

    #[test]
    fn categorical_moving_features_are_selectable() {
        // Regression: a categorical Moving feature's regulars come from the
        // categorical history store; reading the numeric store would leave
        // every regular None and Γ permanently 0.
        struct SignalState;
        impl crate::feature::Feature for SignalState {
            fn key(&self) -> &str {
                "signal_state"
            }
            fn kind(&self) -> FeatureKind {
                FeatureKind::Moving
            }
            fn scale(&self) -> FeatureScale {
                FeatureScale::Categorical
            }
            fn extract(&self, _: &crate::context::SegmentContext<'_>) -> f64 {
                0.0
            }
        }
        let features = FeatureSet::new().with(std::sync::Arc::new(SignalState));
        let weights = FeatureWeights::uniform(&features);
        let hops = vec![(l(0), l(1)), (l(1), l(2))];
        let mut featmap = FeatureMapBuilder::new();
        for (a, b) in &hops {
            featmap.add_categorical_observation(*a, *b, "signal_state", 1);
        }
        let featmap = featmap.finish();
        // Trip observes code 3 everywhere while history says 1.
        let seg_values = vec![vec![3.0], vec![3.0]];
        let sel = select_features(&SelectionInput {
            features: &features,
            weights: &weights,
            eta: 0.2,
            seg_values: &seg_values,
            hops: &hops,
            popular_route: None,
            featmap: &featmap,
            route_cache: None,
        });
        assert_eq!(sel.len(), 1, "{sel:?}");
        assert_eq!(sel[0].key, "signal_state");
        assert_eq!(sel[0].observed, 3.0);
        assert_eq!(sel[0].regular, Some(1.0));
    }

    #[test]
    fn nan_rates_rank_last_without_panic() {
        // Regression: this sort used `partial_cmp(..).unwrap()` and panicked
        // on NaN. The comparator must stay total (no panic) and rank a NaN
        // entry deterministically last.
        let mk = |key: &str, rate: f64| SelectedFeature {
            key: key.into(),
            label: key.into(),
            kind: FeatureKind::Moving,
            irregular_rate: rate,
            observed: 0.0,
            regular: None,
        };
        let mut sel =
            vec![mk("a", 0.3), mk("b", f64::NAN), mk("c", 0.9), mk("d", f64::NAN), mk("e", 0.5)];
        sel.sort_by(|a, b| {
            desc_nan_last(a.irregular_rate, b.irregular_rate).then_with(|| a.key.cmp(&b.key))
        });
        let keys: Vec<String> = sel.iter().map(|s| s.key.clone()).collect();
        assert_eq!(keys, ["c", "e", "a", "b", "d"], "NaN entries must sort last");
        // Deterministic: resorting a rotation gives the same order.
        sel.rotate_left(2);
        sel.sort_by(|a, b| {
            desc_nan_last(a.irregular_rate, b.irregular_rate).then_with(|| a.key.cmp(&b.key))
        });
        assert_eq!(sel.iter().map(|s| s.key.clone()).collect::<Vec<_>>(), keys);
    }

    #[test]
    fn desc_nan_last_orders_descending() {
        let mut v = vec![0.1, f64::NAN, 0.7, f64::NEG_INFINITY, 0.4];
        v.sort_by(|a, b| desc_nan_last(*a, *b));
        assert_eq!(&v[..4], &[0.7, 0.4, 0.1, f64::NEG_INFINITY]);
        assert!(v[4].is_nan());
    }

    #[test]
    fn aggregate_mode_and_mean() {
        assert_eq!(aggregate(&[2.0, 2.0, 5.0], FeatureScale::Categorical), Some(2.0));
        assert_eq!(aggregate(&[2.0, 5.0], FeatureScale::Categorical), Some(2.0)); // tie → smaller
        assert_eq!(aggregate(&[2.0, 4.0], FeatureScale::Numeric), Some(3.0));
        assert_eq!(aggregate(&[], FeatureScale::Numeric), None);
    }
}
