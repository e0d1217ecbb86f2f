//! # stmaker-cache — a std-only sharded, bounded, read-through cache
//!
//! The serving path answers the same popular-route queries over and over:
//! real trajectory workloads are commuter corridors (the paper's Beijing
//! taxi corpus repeats the same landmark pairs constantly), so
//! `Summarizer::summarize` re-derives identical `PR(lᵢ, lⱼ)` routes for
//! every trip. This crate is the memoization substrate:
//!
//! * **[`ShardedCache`]** — a thread-safe bounded map: a fixed
//!   power-of-two number of shards, each a `Mutex` over a
//!   capacity-bounded slot arena with **CLOCK** (second-chance) eviction.
//!   Lookups hash the key once with a fixed-seed FNV-1a hasher — shard
//!   choice and eviction order are a pure function of the access
//!   sequence, never of process-random hash seeds.
//! * **Read-through** — [`ShardedCache::get_or_insert_with`] computes the
//!   value *outside* the shard lock on a miss, so a slow fill (a Dijkstra
//!   over the transfer graph) never blocks readers of other keys in the
//!   same shard longer than a probe.
//! * **[`CacheStats`]** — hit/miss/eviction counters kept in relaxed
//!   atomics beside the shards, snapshot on demand.
//!
//! ## Determinism
//!
//! Callers memoize **pure** functions: the cached value for a key is
//! always the value the underlying computation would produce. Eviction
//! therefore affects *latency only* — a cached and an uncached run return
//! byte-identical results at any thread count, which is the contract the
//! summarizer's `--route-cache` flag rides on (see DESIGN.md §12).
//! Under concurrency the per-shard interleaving (and hence hit counts)
//! may vary; cache *contents* remain a subset of the pure function's
//! graph, so results never do.
//!
//! Std-only by design: the workspace builds with no crates.io access.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Upper bound on the shard count (a power of two). Small capacities use
/// fewer shards so `capacity()` never balloons past the request.
const MAX_SHARDS: usize = 16;

/// Fixed-seed FNV-1a, so shard assignment and probe behaviour are
/// reproducible across processes (std's `RandomState` reseeds per map,
/// which would make hit/eviction patterns unrepeatable run to run).
#[derive(Default)]
pub struct Fnv1a {
    state: u64,
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        if self.state == 0 {
            self.state = FNV_OFFSET;
        }
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

type FixedState = BuildHasherDefault<Fnv1a>;

/// A point-in-time snapshot of a cache's counters and occupancy.
///
/// Counters are cumulative since construction; [`CacheStats::since`]
/// subtracts an earlier snapshot to get per-window deltas (what the
/// summarizer reports per batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the underlying computation.
    pub misses: u64,
    /// Entries displaced by the CLOCK hand to make room.
    pub evictions: u64,
    /// Entries resident right now.
    pub len: usize,
    /// Maximum resident entries (requested capacity rounded up to a
    /// multiple of the shard count).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            // cast-ok: counter magnitudes, precise enough for a rate
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas relative to an `earlier` snapshot of the same cache
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

/// One resident entry with its CLOCK reference bit.
struct Slot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

/// One shard: a slot arena indexed by key, bounded at `cap` entries, with
/// a CLOCK hand for eviction.
struct Shard<K, V> {
    slots: Vec<Slot<K, V>>,
    index: HashMap<K, usize, FixedState>,
    hand: usize,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Shard<K, V> {
    fn new(cap: usize) -> Self {
        Self { slots: Vec::with_capacity(cap.min(64)), index: HashMap::default(), hand: 0, cap }
    }

    /// Probe: clone the value and set the reference bit on a hit.
    fn get(&mut self, key: &K) -> Option<V> {
        let i = *self.index.get(key)?;
        let slot = self.slots.get_mut(i)?;
        slot.referenced = true;
        Some(slot.value.clone())
    }

    /// Insert or replace; returns `true` when an unrelated entry was
    /// evicted to make room. CLOCK: sweep the hand, giving referenced
    /// slots a second chance (clearing the bit), and displace the first
    /// unreferenced slot. Terminates within two sweeps — one sweep clears
    /// every bit, the next finds a victim.
    fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.index.get(&key) {
            if let Some(slot) = self.slots.get_mut(i) {
                slot.value = value;
                slot.referenced = true;
            }
            return false;
        }
        if self.slots.len() < self.cap {
            self.index.insert(key.clone(), self.slots.len());
            self.slots.push(Slot { key, value, referenced: true });
            return false;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            let Some(slot) = self.slots.get_mut(self.hand) else {
                // cap >= 1 keeps the arena non-empty once full; defensive
                // for a zero-capacity shard, where the entry is simply
                // not cached.
                return false;
            };
            if slot.referenced {
                slot.referenced = false;
                self.hand += 1;
            } else {
                let old = std::mem::replace(&mut slot.key, key.clone());
                slot.value = value;
                slot.referenced = true;
                self.index.remove(&old);
                self.index.insert(key, self.hand);
                self.hand += 1;
                return true;
            }
        }
    }
}

/// A sharded, thread-safe, bounded read-through cache.
///
/// See the [crate docs](crate) for the design; in short: fixed
/// power-of-two shard count, per-shard `Mutex` over a CLOCK-evicting slot
/// arena, fills computed outside the lock, counters in relaxed atomics.
pub struct ShardedCache<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache holding at most `capacity` entries (clamped to ≥ 1 and
    /// rounded up to a multiple of the shard count — read back the
    /// effective bound via [`ShardedCache::capacity`]). The shard count is
    /// the smallest power of two ≥ `capacity`, capped at 16.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let n_shards = capacity.next_power_of_two().min(MAX_SHARDS);
        let per_shard = capacity.div_ceil(n_shards);
        let shards = (0..n_shards).map(|_| Mutex::new(Shard::new(per_shard))).collect();
        Self {
            shards,
            mask: n_shards - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = Fnv1a::default();
        key.hash(&mut h);
        // mask < shards.len() by construction, so the index is in range.
        &self.shards[(h.finish() as usize) & self.mask] // cast-ok: hash truncation is intentional
    }

    /// Locks a shard, absorbing poisoning: a panic elsewhere only means a
    /// fill was abandoned — resident entries are still coherent values of
    /// the pure function being memoized.
    fn lock<'a>(m: &'a Mutex<Shard<K, V>>) -> MutexGuard<'a, Shard<K, V>> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The value for `key`, cloning it out of the cache (counted as a hit
    /// or miss).
    pub fn get(&self, key: &K) -> Option<V> {
        let got = Self::lock(self.shard_for(key)).get(key);
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Inserts (or replaces) an entry, evicting per CLOCK if the shard is
    /// full. Not counted as a lookup.
    pub fn insert(&self, key: K, value: V) {
        if Self::lock(self.shard_for(&key)).insert(key, value) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Read-through lookup: on a hit, clones the cached value; on a miss,
    /// computes `make()` **outside** the shard lock, inserts the result,
    /// and returns it. `make` must be a pure function of `key` — two
    /// racing fills may both run, and either result may be the one that
    /// stays resident, which is only coherent when both are equal.
    pub fn get_or_insert_with(&self, key: &K, make: impl FnOnce() -> V) -> V {
        if let Some(v) = Self::lock(self.shard_for(key)).get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = make();
        if Self::lock(self.shard_for(key)).insert(key.clone(), value.clone()) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Entries resident across all shards (locks each shard briefly).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).slots.len()).sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The effective capacity bound (requested capacity rounded up to a
    /// multiple of the shard count).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| Self::lock(s).cap).sum()
    }

    /// Number of shards (a power of two, at most 16).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity(),
        }
    }
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_put_round_trips() {
        let c: ShardedCache<u32, String> = ShardedCache::new(8);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one".to_owned());
        assert_eq!(c.get(&1), Some("one".to_owned()));
        c.insert(1, "uno".to_owned());
        assert_eq!(c.get(&1), Some("uno".to_owned()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_is_rounded_up_and_clamped() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(0);
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.shard_count(), 1);
        let c: ShardedCache<u32, u32> = ShardedCache::new(5);
        assert_eq!(c.shard_count(), 8);
        assert_eq!(c.capacity(), 8);
        let c: ShardedCache<u32, u32> = ShardedCache::new(1000);
        assert_eq!(c.shard_count(), 16);
        assert!(c.capacity() >= 1000);
        assert!(c.capacity() < 1000 + 16);
    }

    #[test]
    fn never_exceeds_capacity_and_counts_evictions() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(16);
        for k in 0..200 {
            c.insert(k, k * 2);
            assert!(c.len() <= c.capacity(), "len {} > cap {}", c.len(), c.capacity());
        }
        let s = c.stats();
        assert_eq!(s.len, c.capacity());
        assert!(s.evictions >= 200 - s.capacity as u64);
    }

    #[test]
    fn clock_gives_recently_used_entries_a_second_chance() {
        // Single shard of capacity 1... too degenerate; use capacity 2 in
        // one shard by constructing via new(2) → 2 shards of 1. Instead
        // exercise the policy through a shard directly.
        let mut shard: Shard<u32, u32> = Shard::new(2);
        assert!(!shard.insert(1, 10));
        assert!(!shard.insert(2, 20));
        // Touch key 1 so its reference bit is set, then overflow: the
        // victim must be key 2 (bit cleared first sweep, evicted second
        // probe) — key 1 survives its second chance.
        assert_eq!(shard.get(&1), Some(10));
        // Fresh inserts carry a set bit too, so the first sweep clears
        // 1 and 2, and the second displaces the first unreferenced slot
        // deterministically.
        assert!(shard.insert(3, 30));
        assert_eq!(shard.slots.len(), 2);
        assert_eq!(shard.index.len(), 2);
        assert!(shard.get(&3).is_some());
    }

    #[test]
    fn eviction_is_deterministic_for_a_fixed_sequence() {
        let run = || {
            let c: ShardedCache<u32, u32> = ShardedCache::new(8);
            for k in 0..50 {
                let _ = c.get_or_insert_with(&(k % 13), || k);
            }
            let mut resident: Vec<(u32, Option<u32>)> = (0..13).map(|k| (k, c.get(&k))).collect();
            resident.sort();
            (resident, c.stats().evictions)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn read_through_counts_hits_and_misses() {
        let c: ShardedCache<u32, u64> = ShardedCache::new(32);
        let f = |k: u32| u64::from(k) * 31 + 7;
        for k in 0..10 {
            assert_eq!(c.get_or_insert_with(&k, || f(k)), f(k));
        }
        for k in 0..10 {
            assert_eq!(c.get_or_insert_with(&k, || unreachable!("must be cached")), f(k));
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (10, 10, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_since() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(4);
        let _ = c.get_or_insert_with(&1, || 1);
        let before = c.stats();
        let _ = c.get_or_insert_with(&1, || 1);
        let _ = c.get_or_insert_with(&2, || 2);
        let d = c.stats().since(&before);
        assert_eq!((d.hits, d.misses), (1, 1));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_readers_see_only_put_values() {
        let c: ShardedCache<u32, u64> = ShardedCache::new(64);
        let f = |k: u32| u64::from(k).wrapping_mul(0x9E37_79B9) ^ 0xA5A5;
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500u32 {
                        let k = (i.wrapping_mul(t + 1)) % 97;
                        assert_eq!(c.get_or_insert_with(&k, || f(k)), f(k));
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, f(k));
                        }
                    }
                });
            }
        });
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn concurrent_snapshot_deltas_never_wrap() {
        // Serving-workload regression: `since` deltas are taken while
        // worker threads race increments on the relaxed counters. The
        // per-field loads of a snapshot are not atomic as a group, so a
        // snapshot pair can straddle in-flight increments — deltas must
        // saturate to small numbers, never wrap to ~u64::MAX. Also pins
        // the stale-snapshot direction: `earlier.since(&later)` is zeros.
        use std::sync::atomic::{AtomicBool, Ordering};
        let c: ShardedCache<u64, u64> = ShardedCache::new(64);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (c, stop) = (&c, &stop);
                s.spawn(move || {
                    let mut k = t;
                    while !stop.load(Ordering::Relaxed) {
                        // Mixed hits, misses, and evictions (key space 4x
                        // the capacity).
                        let _ = c.get_or_insert_with(&(k % 256), || k);
                        k = k.wrapping_add(t * 2 + 1);
                    }
                });
            }
            let mut prev = c.stats();
            for _ in 0..20_000 {
                let now = c.stats();
                let d = now.since(&prev);
                for (what, v) in
                    [("hits", d.hits), ("misses", d.misses), ("evictions", d.evictions)]
                {
                    assert!(v < u64::MAX / 2, "wrapped-huge {what} delta: {v}");
                }
                // The deliberately stale direction saturates to zero.
                let stale = prev.since(&now);
                assert_eq!((stale.hits, stale.misses, stale.evictions), (0, 0, 0));
                prev = now;
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
