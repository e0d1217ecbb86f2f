//! A bounded read-through memo of the popular route `PR(from, to)`.
//!
//! The summary tail asks the trained model for one popular route per
//! partition (Sec. V-A), and serving workloads repeat the same landmark
//! pairs. [`RouteMemo`] remembers the answers, negative ones included, for
//! one [`Summarizer`](crate::Summarizer) and one model.
//!
//! One `Mutex` guards the map, the insertion-order queue and the counters,
//! so a [`RouteMemo::stats`] snapshot is one lock and always coherent. A
//! miss computes its route *outside* the lock: a slow fill (a Dijkstra over
//! the transfer graph) never blocks other lookups. A full memo evicts its
//! oldest entry (FIFO).
//!
//! ## Determinism
//!
//! The memoized function is pure, so eviction affects latency only: a
//! memoized and an unmemoized run return byte-identical summaries at any
//! thread count (DESIGN.md §12). Under concurrency two racing fills of one
//! key may both run; the first to land stays resident, and both are equal.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use stmaker_poi::LandmarkId;

/// A memo key: the partition's source and destination landmarks.
type Pair = (LandmarkId, LandmarkId);

/// `PR(from, to)`, with `None` for pairs the corpus gives no basis for.
/// Routes are `Arc` slices so a hit is a probe and a refcount bump.
pub(crate) type Route = Option<Arc<[LandmarkId]>>;

/// A point-in-time snapshot of the route memo's counters and occupancy.
///
/// Counters are cumulative since construction; [`CacheStats::since`]
/// subtracts an earlier snapshot to get per-window deltas (what the
/// summarizer reports per batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to the model.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Entries resident right now.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the memo; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            // cast-ok: counter magnitudes, precise enough for a rate
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas relative to an `earlier` snapshot of the same memo
    /// (saturating, so a stale snapshot can never underflow). `len` and
    /// `capacity` stay absolute — they are occupancy, not counters.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            len: self.len,
            capacity: self.capacity,
        }
    }
}

/// Everything behind the memo's one lock.
#[derive(Default)]
struct Inner {
    routes: HashMap<Pair, Route>,
    /// Resident keys, oldest first.
    order: VecDeque<Pair>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The summarizer's bounded, thread-safe route memo (see the module docs).
pub(crate) struct RouteMemo {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl RouteMemo {
    /// A memo holding at most `capacity` routes (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self { inner: Mutex::default(), capacity: capacity.max(1) }
    }

    /// Locks the memo, absorbing poisoning. Fills run outside the lock, so
    /// no caller code ever panics under it; whatever state a poisoned
    /// guard holds, every resident entry is still a value of the pure
    /// function being memoized.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The route for `pair`: cloned out of the memo on a hit; on a miss,
    /// `make()` runs outside the lock and its result is stored, evicting
    /// the oldest entry when the memo is full. `make` must be a pure
    /// function of `pair`.
    pub(crate) fn get_or_insert_with(&self, pair: Pair, make: impl FnOnce() -> Route) -> Route {
        {
            let mut inner = self.lock();
            if let Some(route) = inner.routes.get(&pair).cloned() {
                inner.hits += 1;
                return route;
            }
            inner.misses += 1;
        }
        let route = make();
        let mut inner = self.lock();
        if !inner.routes.contains_key(&pair) {
            if inner.routes.len() >= self.capacity {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.routes.remove(&oldest);
                    inner.evictions += 1;
                }
            }
            inner.routes.insert(pair, route.clone());
            inner.order.push_back(pair);
        }
        route
    }

    /// Snapshot of counters and occupancy, taken under the one lock.
    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.routes.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u32, b: u32) -> Pair {
        (LandmarkId(a), LandmarkId(b))
    }

    fn route(a: u32, b: u32) -> Route {
        (a != b).then(|| Arc::from([LandmarkId(a), LandmarkId(b)]))
    }

    #[test]
    fn hits_return_the_filled_route_without_refilling() {
        let memo = RouteMemo::new(8);
        for k in 0..4 {
            assert_eq!(memo.get_or_insert_with(pair(k, 2), || route(k, 2)), route(k, 2));
        }
        for k in 0..4 {
            let got = memo.get_or_insert_with(pair(k, 2), || unreachable!("must be memoized"));
            assert_eq!(got, route(k, 2));
        }
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len, s.capacity), (4, 4, 0, 4, 8));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_full_memo_evicts_its_oldest_entry() {
        let memo = RouteMemo::new(2);
        for k in 0..5 {
            let _ = memo.get_or_insert_with(pair(k, 9), || route(k, 9));
            assert!(memo.stats().len <= 2);
        }
        let s = memo.stats();
        assert_eq!((s.misses, s.evictions, s.len, s.capacity), (5, 3, 2, 2));
        // Keys 3 and 4 are resident; key 0 went first and must refill.
        let _ = memo.get_or_insert_with(pair(4, 9), || unreachable!("newest stays"));
        let mut refilled = false;
        let _ = memo.get_or_insert_with(pair(0, 9), || {
            refilled = true;
            route(0, 9)
        });
        assert!(refilled);
        assert_eq!(RouteMemo::new(0).stats().capacity, 1);
    }

    #[test]
    fn since_subtracts_counters_and_saturates() {
        let memo = RouteMemo::new(4);
        let _ = memo.get_or_insert_with(pair(1, 2), || route(1, 2));
        let before = memo.stats();
        let _ = memo.get_or_insert_with(pair(1, 2), || route(1, 2));
        let _ = memo.get_or_insert_with(pair(2, 2), || route(2, 2));
        let now = memo.stats();
        let d = now.since(&before);
        assert_eq!((d.hits, d.misses, d.len, d.capacity), (1, 1, 2, 4));
        let stale = before.since(&now);
        assert_eq!((stale.hits, stale.misses, stale.evictions), (0, 0, 0));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_lookups_see_only_filled_routes() {
        let memo = RouteMemo::new(16);
        std::thread::scope(|s| {
            for t in 1..=4u32 {
                let memo = &memo;
                s.spawn(move || {
                    for i in 0..500u32 {
                        let k = i.wrapping_mul(t) % 37;
                        assert_eq!(
                            memo.get_or_insert_with(pair(k, 5), || route(k, 5)),
                            route(k, 5)
                        );
                    }
                });
            }
        });
        let s = memo.stats();
        assert_eq!(s.hits + s.misses, 2000);
        assert!(s.len <= s.capacity);
        // A racing fill of a resident key is a miss that inserts nothing.
        assert!(s.len as u64 + s.evictions <= s.misses, "{s:?}");
    }
}
