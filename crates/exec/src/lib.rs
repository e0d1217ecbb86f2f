//! # stmaker-exec — std-only deterministic parallel executor
//!
//! The paper trains STMaker's historical knowledge over a 50k-trajectory
//! corpus (Sec. VII-A) and reports per-summary latency (Fig. 12); serving
//! "heavy traffic from millions of users" needs both corpus-scale training
//! and batch summarization throughput. This crate is the workspace's one
//! parallelism substrate: scoped threads from `std` only (the build has no
//! crates.io access, so rayon is not an option), with a determinism
//! contract strong enough that *thread count never changes results*.
//!
//! Two primitives:
//!
//! * [`Executor::par_map`] — an index-preserving parallel map. Work is
//!   split into chunks on a shared queue; idle workers keep claiming
//!   chunks until the queue drains (work stealing), so an expensive item
//!   cannot strand the other workers. Results are reassembled in input
//!   order, so the output is identical to `items.iter().map(f)`.
//! * [`Executor::shard_partials`] — sharded partials for building
//!   aggregate state (feature maps, route indexes). The input is split
//!   into [`shard_count`]`(n)` contiguous shards — a function of the input
//!   length only, **never** of the thread count — each shard folds into a
//!   partial on whichever worker claims it, and the partials come back in
//!   ascending shard order for the caller to merge on its own thread.
//!   Because the shard boundaries and the merge order are fixed, the
//!   reduction tree is identical for 1 thread and N threads, making even
//!   floating-point accumulations bit-identical across thread counts.
//!   See DESIGN.md §10 for the full contract.
//!
//! Telemetry: an executor carrying a recorder (via
//! [`Executor::with_recorder`]) reports an `exec.threads` gauge per
//! parallel call and an `exec.tasks_stolen` counter — the number of
//! chunks/shards a worker claimed outside its fair share, i.e. how much
//! the queue actually rebalanced.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use stmaker_obs::Recorder;

/// Fixed shard count for [`Executor::shard_partials`] on large inputs.
///
/// Shards are a function of the input length only (`min(n, 64)`), never of
/// the thread count — this is what keeps sharded reductions bit-identical
/// across thread counts. 64 shards keep every realistic worker count busy
/// while bounding per-shard merge overhead.
pub const MAX_SHARDS: usize = 64;

/// How many chunks each worker's fair share is split into by
/// [`Executor::par_map`]; more chunks = finer-grained stealing.
const CHUNKS_PER_THREAD: usize = 4;

/// The number of shards used for an input of `n` items: `min(n, 64)`.
/// Deterministic in `n` alone — see [`MAX_SHARDS`].
pub fn shard_count(n: usize) -> usize {
    n.min(MAX_SHARDS)
}

/// The contiguous index ranges of the `shards` balanced shards of `n`
/// items: shard `s` covers `[s*n/shards, (s+1)*n/shards)`, so shard sizes
/// differ by at most one and concatenating the ranges in order restores
/// `0..n` exactly.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    if n == 0 || shards == 0 {
        return Vec::new();
    }
    let shards = shards.min(n);
    (0..shards).map(|s| (s * n / shards)..((s + 1) * n / shards)).collect()
}

/// The default worker count: the `STMAKER_THREADS` environment variable if
/// set to a positive integer, otherwise [`std::thread::available_parallelism`]
/// (1 if even that is unavailable).
pub fn default_threads() -> usize {
    std::env::var("STMAKER_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        })
}

/// A scoped-thread work executor. Cheap to construct per call site; holds
/// no threads between calls (workers live only for the duration of one
/// `par_map`/`shard_partials` invocation, borrowing the caller's data via
/// [`std::thread::scope`]).
#[derive(Clone)]
pub struct Executor {
    threads: usize,
    obs: Recorder,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("threads", &self.threads).finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Executor {
    /// An executor with the given worker count; `0` means auto
    /// ([`default_threads`]).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { default_threads() } else { threads };
        Self { threads, obs: Recorder::disabled() }
    }

    /// Attaches a telemetry recorder (builder style): every parallel call
    /// reports `exec.threads` and `exec.tasks_stolen` into it.
    #[must_use]
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Parallel, index-preserving map: returns exactly
    /// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`, computed
    /// on up to [`Self::threads`] workers stealing chunks from a shared
    /// queue. A panic in `f` propagates to the caller after all workers
    /// stop claiming new chunks.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let threads = self.threads.min(n).max(1);
        self.obs.gauge("exec.threads", threads as f64);
        if threads <= 1 {
            // Nothing can be stolen on the sequential path, but emit the
            // counter anyway so single-CPU runs report the same metric
            // set as multi-threaded ones (CI schema checks key on it).
            self.obs.add("exec.tasks_stolen", 0);
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        let chunk = n.div_ceil(threads * CHUNKS_PER_THREAD).max(1);
        let n_chunks = n.div_ceil(chunk);
        let cursor = AtomicUsize::new(0);
        let stolen = AtomicUsize::new(0);

        // Each worker returns (chunk index, chunk results); chunks are
        // reassembled in index order below, so scheduling cannot reorder
        // the output.
        let mut by_chunk: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (cursor, stolen, f) = (&cursor, &stolen, &f);
                    scope.spawn(move || {
                        let mut out: Vec<(usize, Vec<R>)> = Vec::new();
                        loop {
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            // Chunk c's "home" worker under a static split;
                            // claiming someone else's chunk is a steal.
                            if c * threads / n_chunks != w {
                                stolen.fetch_add(1, Ordering::Relaxed);
                            }
                            let start = c * chunk;
                            let end = (start + chunk).min(n);
                            let vals: Vec<R> = items[start..end]
                                .iter()
                                .enumerate()
                                .map(|(j, t)| f(start + j, t))
                                .collect();
                            out.push((c, vals));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(join_propagating).collect()
        });

        self.obs.add("exec.tasks_stolen", stolen.load(Ordering::Relaxed) as u64);
        by_chunk.sort_unstable_by_key(|(c, _)| *c);
        let mut out = Vec::with_capacity(n);
        for (_, mut vals) in by_chunk {
            out.append(&mut vals);
        }
        out
    }

    /// Sharded map: splits `items` into [`shard_count`]`(items.len())`
    /// contiguous shards (a function of the input length only — see the
    /// crate docs), folds each shard into a partial with
    /// `build(shard_index, base_index, shard_slice)` on whichever worker
    /// claims it, and returns the partials **in ascending shard order**.
    ///
    /// `base_index` is the global index of `shard_slice[0]`, so builders
    /// can assign globally consistent ids regardless of which worker runs
    /// them.
    pub fn shard_partials<T, S, F>(&self, items: &[T], build: F) -> Vec<S>
    where
        T: Sync,
        S: Send,
        F: Fn(usize, usize, &[T]) -> S + Sync,
    {
        let n = items.len();
        let ranges = shard_ranges(n, shard_count(n));
        let n_shards = ranges.len();
        let threads = self.threads.min(n_shards).max(1);
        self.obs.gauge("exec.threads", threads as f64);
        if threads <= 1 {
            // Same-metric-set guarantee as `par_map`'s sequential path.
            self.obs.add("exec.tasks_stolen", 0);
            return ranges
                .into_iter()
                .enumerate()
                .map(|(s, r)| build(s, r.start, &items[r]))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let stolen = AtomicUsize::new(0);
        let ranges = &ranges;
        let mut partials: Vec<(usize, S)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (cursor, stolen, build) = (&cursor, &stolen, &build);
                    scope.spawn(move || {
                        let mut out: Vec<(usize, S)> = Vec::new();
                        loop {
                            let s = cursor.fetch_add(1, Ordering::Relaxed);
                            if s >= n_shards {
                                break;
                            }
                            if s * threads / n_shards != w {
                                stolen.fetch_add(1, Ordering::Relaxed);
                            }
                            let r = ranges[s].clone();
                            out.push((s, build(s, r.start, &items[r])));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(join_propagating).collect()
        });

        self.obs.add("exec.tasks_stolen", stolen.load(Ordering::Relaxed) as u64);
        partials.sort_unstable_by_key(|(s, _)| *s);
        partials.into_iter().map(|(_, p)| p).collect()
    }
}

/// Joins a worker, re-raising its panic (if any) on the caller thread.
fn join_propagating<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_indices() {
        for threads in [1, 2, 3, 8] {
            let exec = Executor::new(threads);
            let items: Vec<u64> = (0..257).collect();
            let out = exec.par_map(&items, |i, &v| (i as u64) * 1000 + v * 2);
            let expect: Vec<u64> = (0..257).map(|i| i * 1000 + i * 2).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let exec = Executor::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(exec.par_map(&empty, |_, &v| v).is_empty());
        assert_eq!(exec.par_map(&[7u32], |i, &v| (i, v)), vec![(0, 7)]);
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for n in [0usize, 1, 5, 63, 64, 65, 1000] {
            for k in [1usize, 2, 7, 64] {
                let ranges = shard_ranges(n, k);
                let mut covered = 0usize;
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(r.start, covered, "n={n} k={k} shard {i} contiguous");
                    assert!(!r.is_empty(), "n={n} k={k} shard {i} non-empty");
                    covered = r.end;
                }
                assert_eq!(covered, n, "n={n} k={k} covers everything");
            }
        }
    }

    #[test]
    fn shard_count_depends_on_input_only() {
        assert_eq!(shard_count(0), 0);
        assert_eq!(shard_count(10), 10);
        assert_eq!(shard_count(64), 64);
        assert_eq!(shard_count(100_000), MAX_SHARDS);
    }

    #[test]
    fn shard_partials_are_in_shard_order_with_global_bases() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..200).collect();
        let partials = exec.shard_partials(&items, |shard, base, slice| {
            assert_eq!(slice[0], base, "slice starts at its global base");
            (shard, base, slice.len())
        });
        assert_eq!(partials.len(), shard_count(200));
        let mut covered = 0usize;
        for (i, (shard, base, len)) in partials.iter().enumerate() {
            assert_eq!(*shard, i);
            assert_eq!(*base, covered);
            covered += len;
        }
        assert_eq!(covered, 200);
    }

    #[test]
    fn zero_threads_resolves_to_a_positive_default() {
        assert!(Executor::new(0).threads() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn recorder_sees_threads_gauge_and_steal_counter() {
        let obs = Recorder::enabled();
        let exec = Executor::new(4).with_recorder(obs.clone());
        let items: Vec<u64> = (0..500).collect();
        let _ = exec.par_map(&items, |_, &v| v + 1);
        let report = obs.report();
        assert_eq!(report.gauges["exec.threads"], 4.0);
        assert!(report.counters.contains_key("exec.tasks_stolen"));
    }

    #[test]
    fn sequential_fast_path_emits_the_same_metric_set() {
        // threads=1 forces the fast path in both par_map and
        // shard_partials; the required-counter set must still appear so
        // single-CPU CI validates the same schema as parallel runs.
        let obs = Recorder::enabled();
        let exec = Executor::new(1).with_recorder(obs.clone());
        let items: Vec<u64> = (0..10).collect();
        let _ = exec.par_map(&items, |_, &v| v + 1);
        let _ = exec.shard_partials(&items, |_, _, s: &[u64]| s.len());
        let report = obs.report();
        assert_eq!(report.gauges["exec.threads"], 1.0);
        assert_eq!(report.counters["exec.tasks_stolen"], 0);
    }

    #[test]
    fn worker_panic_propagates() {
        let exec = Executor::new(2);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.par_map(&items, |_, &v| {
                assert!(v != 40, "injected failure");
                v
            })
        }));
        assert!(result.is_err(), "panic in a worker must reach the caller");
    }
}
