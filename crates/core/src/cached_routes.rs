//! Read-through memoization of the serving path's pure route queries.
//!
//! Real workloads repeat landmark pairs constantly (commuter corridors —
//! the motivation in ISSUE/Sec. IV): every `summarize` call re-derives
//! `PR(from, to)` and, per routing feature, the popular route's per-hop
//! regular value sequence. Both are **pure functions of the trained
//! model**: `PopularRoutes::popular_route` depends only on `(from, to)`
//! and the model, and the per-hop sequence only on `(from, to, feature)`
//! — so memoizing them can change latency but never output bytes. That
//! is the determinism argument (DESIGN.md §12) behind the e2e guarantee
//! that summaries with and without the cache are byte-identical at any
//! thread count.
//!
//! Values are stored as `Arc` slices so a hit is a probe plus a
//! refcount bump — no `Vec` clone on the hot path.
//!
//! **One cache, one model.** The purity argument above holds only against
//! a single immutable [`crate::TrainedModel`]: entries are keyed by
//! landmark pair, *not* by model identity, and negative answers (`None`
//! routes/values) are memoized too. A `CachedRoutes` must therefore live
//! and die with exactly one model generation — the model-swap paths
//! (`Summarizer::swap_model`, `set_config`, the serving layer's hot-swap
//! slot) install a fresh cache in the same step as the new model, so a
//! swapped-in model can never be answered from the previous model's
//! entries. See DESIGN.md §15.

use std::sync::Arc;

use stmaker_cache::{CacheStats, ShardedCache};
use stmaker_poi::LandmarkId;
use stmaker_routes::{HistoricalFeatureMap, PopularRoutes};

use crate::feature::FeatureScale;
use crate::select::popular_route_values;

/// How many per-route value sequences to keep per cached route: one per
/// feature of the standard set, rounded up — custom feature sets with
/// more features simply share the budget.
const VALUES_PER_ROUTE: usize = 8;

/// Memo for [`PopularRoutes::popular_route`] and the per-hop regular
/// value sequences along each popular route. Shared across
/// `summarize_batch` workers via `Arc`; see the module docs for the
/// purity/determinism contract.
pub struct CachedRoutes {
    /// `(from, to) → PR(from, to)` (including negative answers: pairs the
    /// corpus gives no basis for are cached as `None`).
    routes: ShardedCache<(LandmarkId, LandmarkId), Option<Arc<[LandmarkId]>>>,
    /// `(from, to, feature idx) → per-hop regular values along
    /// `PR(from, to)``. Keyed by endpoints, not the route itself, because
    /// the route is a pure function of the endpoints.
    values: ShardedCache<(LandmarkId, LandmarkId, u32), Option<Arc<[f64]>>>,
}

impl CachedRoutes {
    /// A cache bounded at `capacity` routes (plus up to
    /// `capacity × VALUES_PER_ROUTE` value sequences alongside).
    pub fn new(capacity: usize) -> Self {
        Self {
            routes: ShardedCache::new(capacity),
            values: ShardedCache::new(capacity.saturating_mul(VALUES_PER_ROUTE)),
        }
    }

    /// Read-through `PR(from, to)` against `model`.
    pub fn popular_route(
        &self,
        model: &PopularRoutes,
        from: LandmarkId,
        to: LandmarkId,
    ) -> Option<Arc<[LandmarkId]>> {
        self.routes.get_or_insert_with(&(from, to), || model.popular_route(from, to).map(Arc::from))
    }

    /// Read-through per-hop regular values of feature `feat_idx` (with key
    /// `key` and scale `scale`) along `route`, which must be the popular
    /// route of its own endpoints — the memo key is `(first, last,
    /// feat_idx)`.
    pub fn route_values(
        &self,
        featmap: &HistoricalFeatureMap,
        route: &[LandmarkId],
        key: &str,
        scale: FeatureScale,
        feat_idx: u32,
    ) -> Option<Arc<[f64]>> {
        let (Some(&from), Some(&to)) = (route.first(), route.last()) else {
            return popular_route_values(featmap, route, key, scale).map(Arc::from);
        };
        self.values.get_or_insert_with(&(from, to, feat_idx), || {
            popular_route_values(featmap, route, key, scale).map(Arc::from)
        })
    }

    /// Combined counters of the route and value caches (the
    /// `cache.hits`/`cache.misses`/`cache.evictions` numbers the batch
    /// entry points report).
    pub fn stats(&self) -> CacheStats {
        self.routes.stats().combined(&self.values.stats())
    }

    /// Capacity of the route cache alone (what `--route-cache N` sized;
    /// reported as the `route_cache.capacity` gauge).
    pub fn route_capacity(&self) -> usize {
        self.routes.capacity()
    }
}

impl std::fmt::Debug for CachedRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedRoutes")
            .field("routes", &self.routes)
            .field("values", &self.values)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmaker_routes::{FeatureMapBuilder, PopularRouteConfig};
    use stmaker_trajectory::{SymbolicPoint, SymbolicTrajectory, Timestamp};

    fn l(i: u32) -> LandmarkId {
        LandmarkId(i)
    }

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

    #[test]
    fn cached_routes_match_uncached() {
        let corpus = vec![traj(&[0, 1, 2]), traj(&[0, 1, 2]), traj(&[2, 3, 4])];
        let pr = PopularRoutes::build(&corpus, PopularRouteConfig::default());
        let cache = CachedRoutes::new(8);
        for &(a, b) in &[(0, 2), (0, 4), (2, 4), (9, 9), (5, 6), (0, 2), (0, 4)] {
            let direct = pr.popular_route(l(a), l(b));
            let cached = cache.popular_route(&pr, l(a), l(b));
            assert_eq!(direct.as_deref(), cached.as_deref().map(|r| &r[..]), "({a},{b})");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn cached_values_match_uncached() {
        let mut featmap = FeatureMapBuilder::new();
        featmap.add_observation(l(0), l(1), "speed", 50.0);
        featmap.add_observation(l(1), l(2), "speed", 60.0);
        let featmap = featmap.finish();
        let route = [l(0), l(1), l(2)];
        let cache = CachedRoutes::new(4);
        let direct = popular_route_values(&featmap, &route, "speed", FeatureScale::Numeric);
        for _ in 0..3 {
            let cached = cache.route_values(&featmap, &route, "speed", FeatureScale::Numeric, 3);
            assert_eq!(direct.as_deref(), cached.as_deref().map(|v| &v[..]));
        }
        // Unknown-history routes memoize their negative answer too.
        let none = cache.route_values(&featmap, &[l(7), l(8)], "speed", FeatureScale::Numeric, 3);
        assert!(none.is_none());
        assert!(cache.stats().hits >= 2);
    }

    #[test]
    fn empty_route_is_computed_not_cached() {
        let featmap = HistoricalFeatureMap::new();
        let cache = CachedRoutes::new(4);
        let got = cache.route_values(&featmap, &[], "speed", FeatureScale::Numeric, 0);
        assert_eq!(got.as_deref().map(|v| v.len()), Some(0));
        assert_eq!(cache.stats().misses, 0);
    }
}
