//! Mining the most popular route `PR` between two landmarks.

use std::collections::HashMap;
use std::ops::Range;

use serde::de::{DeserializeOwned, Deserializer};
use serde::ser::Serializer;
use serde::{from_value, to_value, Deserialize, Serialize, Value};
use stmaker_exec::Executor;
use stmaker_poi::LandmarkId;
use stmaker_trajectory::SymbolicTrajectory;

/// Tunables for popular-route mining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// One indexed occurrence of a `(from, to)` landmark pair, in the JSON
/// encoding's shape.
#[derive(Deserialize)]
struct Occurrence {
    traj: u32,
    start: u32,
    end: u32,
}

/// An ordered landmark pair `(from, to)`.
type PairKey = (LandmarkId, LandmarkId);

/// The popular-route miner: indexes a historical symbolic-trajectory corpus
/// and answers `PR(lᵢ, lⱼ)` queries. It holds its tables as validated
/// [`PopularRoutesParts`] columns: lookups binary-search a sorted key
/// column and slice the flat value columns through its offsets.
#[derive(Debug, PartialEq)]
pub struct PopularRoutes {
    cols: PopularRoutesParts,
}

/// The miner's tables as flat columns — the layout [`PopularRoutes`] keeps
/// in memory and the STC1 model sections store, one column per section.
///
/// Each table is a key column sorted strictly ascending plus value
/// columns; a table with a list per key adds a prefix-sum offsets column
/// (`keys + 1` entries, first 0, last the value-column length), so key `i`
/// owns values `offsets[i]..offsets[i + 1]`. Produced by
/// [`PopularRoutes::build`] and [`PopularRoutes::parts`], checked by
/// [`PopularRoutes::from_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct PopularRoutesParts {
    /// Mining tunables the miner was built with.
    pub cfg: PopularRouteConfig,
    /// Trajectory boundaries in `corpus_ids`, one entry per indexed
    /// trajectory plus one, in corpus order.
    pub corpus_offsets: Vec<usize>,
    /// Landmark sequences of every indexed trajectory, concatenated.
    pub corpus_ids: Vec<LandmarkId>,
    /// Every ordered pair observed within `max_indexed_span`.
    pub pair_keys: Vec<PairKey>,
    /// Per-pair boundaries in the `occ_*` columns.
    pub pair_offsets: Vec<usize>,
    /// Occurrence trajectory index; each pair's occurrences ascend by
    /// `(traj, start, end)`.
    pub occ_traj: Vec<u32>,
    /// Occurrence start position within its trajectory.
    pub occ_start: Vec<u32>,
    /// Occurrence end position within its trajectory (inclusive).
    pub occ_end: Vec<u32>,
    /// Source landmark of every observed direct hop.
    pub tr_src: Vec<LandmarkId>,
    /// Per-source boundaries in `tr_dst`/`tr_w`.
    pub tr_offsets: Vec<usize>,
    /// Hop targets, ascending within each source.
    pub tr_dst: Vec<LandmarkId>,
    /// Hop counts (finite, positive) — the transfer-graph weights.
    pub tr_w: Vec<f64>,
    /// Pairs with a precomputed distinct-trajectory support.
    pub sup_keys: Vec<PairKey>,
    /// Distinct-trajectory support of each `sup_keys` pair.
    pub sup_val: Vec<u32>,
    /// Pairs at or above `min_support`, with a precomputed winner.
    pub win_keys: Vec<PairKey>,
    /// Per-pair boundaries in `win_ids`.
    pub win_offsets: Vec<usize>,
    /// Winning routes, concatenated.
    pub win_ids: Vec<LandmarkId>,
}

impl Default for PopularRoutesParts {
    /// The columns of a miner over an empty corpus.
    fn default() -> Self {
        Self {
            cfg: PopularRouteConfig::default(),
            corpus_offsets: vec![0],
            corpus_ids: Vec::new(),
            pair_keys: Vec::new(),
            pair_offsets: vec![0],
            occ_traj: Vec::new(),
            occ_start: Vec::new(),
            occ_end: Vec::new(),
            tr_src: Vec::new(),
            tr_offsets: vec![0],
            tr_dst: Vec::new(),
            tr_w: Vec::new(),
            sup_keys: Vec::new(),
            sup_val: Vec::new(),
            win_keys: Vec::new(),
            win_offsets: vec![0],
            win_ids: Vec::new(),
        }
    }
}

/// Why a [`PopularRoutesParts`] column set is not a servable miner. Every
/// check guards a lookup that would otherwise panic, loop or answer
/// wrongly on a corrupt or hand-edited model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartsError {
    /// Parallel columns disagree in length.
    ColumnLength {
        /// The column whose length is wrong.
        column: &'static str,
        /// Length implied by its partner column.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// An offsets column does not run monotonically from 0 to the length
    /// of the column it indexes.
    BadOffsets {
        /// Which offsets column.
        column: &'static str,
        /// Index of the offending entry.
        index: usize,
    },
    /// A key column is not strictly ascending (unsorted or duplicate key).
    UnsortedKeys {
        /// Which key column.
        column: &'static str,
        /// Index of the first key not above its predecessor.
        index: usize,
    },
    /// An occurrence names a trajectory or positions outside the corpus.
    OccurrenceOutOfRange {
        /// Index into the `occ_*` columns.
        index: usize,
    },
    /// A transfer weight is not a finite positive count.
    BadTransferWeight {
        /// Index into `tr_w`.
        index: usize,
    },
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartsError::ColumnLength { column, expected, got } => {
                write!(f, "popular-route column {column} has {got} entries, expected {expected}")
            }
            PartsError::BadOffsets { column, index } => {
                write!(f, "non-monotone or out-of-range popular-route offset at {column}[{index}]")
            }
            PartsError::UnsortedKeys { column, index } => {
                write!(f, "popular-route keys not strictly ascending at {column}[{index}]")
            }
            PartsError::OccurrenceOutOfRange { index } => {
                write!(f, "popular-route occurrence {index} lies outside the corpus")
            }
            PartsError::BadTransferWeight { index } => {
                write!(f, "transfer weight {index} is not a finite positive count")
            }
        }
    }
}

impl std::error::Error for PartsError {}

fn check_len(column: &'static str, expected: usize, got: usize) -> Result<(), PartsError> {
    if expected == got {
        Ok(())
    } else {
        Err(PartsError::ColumnLength { column, expected, got })
    }
}

/// A key column must ascend strictly, so binary search finds each key.
fn check_keys<K: Ord>(column: &'static str, keys: &[K]) -> Result<(), PartsError> {
    match keys.windows(2).position(|w| w[0] >= w[1]) {
        Some(i) => Err(PartsError::UnsortedKeys { column, index: i + 1 }),
        None => Ok(()),
    }
}

/// An offsets column must hold `keys + 1` entries running monotonically
/// from 0 to `values`, so every key's value range is in bounds.
fn check_offsets(
    column: &'static str,
    offsets: &[usize],
    keys: usize,
    values: usize,
) -> Result<(), PartsError> {
    check_len(column, keys + 1, offsets.len())?;
    let mut prev = 0;
    for (i, &o) in offsets.iter().enumerate() {
        let last = i + 1 == offsets.len();
        if o < prev || (i == 0 && o != 0) || (last && o != values) {
            return Err(PartsError::BadOffsets { column, index: i });
        }
        prev = o;
    }
    Ok(())
}

/// Key `i`'s value range in the column `offsets` indexes.
fn span(offsets: &[usize], i: usize) -> Range<usize> {
    offsets[i]..offsets[i + 1]
}

impl PopularRoutes {
    /// Builds the miner from a historical corpus (single-threaded).
    pub fn build<'a>(
        corpus: impl IntoIterator<Item = &'a SymbolicTrajectory>,
        cfg: PopularRouteConfig,
    ) -> Self {
        Self::build_with(corpus, cfg, &Executor::new(1))
    }

    /// Builds the miner, resolving the per-pair winners on `exec`'s
    /// workers. Occurrences are listed and sorted by `(from, to, traj,
    /// start, end)` — a total order over distinct tuples — and each
    /// worker resolves a contiguous range of pairs, concatenated in pair
    /// order, so the columns are the same for every thread count,
    /// byte-for-byte.
    pub fn build_with<'a>(
        corpus: impl IntoIterator<Item = &'a SymbolicTrajectory>,
        cfg: PopularRouteConfig,
        exec: &Executor,
    ) -> Self {
        let mut cols = PopularRoutesParts { cfg, ..PopularRoutesParts::default() };
        for t in corpus {
            cols.corpus_ids.extend(t.points().iter().map(|p| p.landmark));
            cols.corpus_offsets.push(cols.corpus_ids.len());
        }

        let mut occs: Vec<(PairKey, u32, u32, u32)> = Vec::new();
        let mut hops: Vec<PairKey> = Vec::new();
        for ti in 0..cols.corpus_offsets.len() - 1 {
            let seq = &cols.corpus_ids[span(&cols.corpus_offsets, ti)];
            for i in 0..seq.len() {
                let max_j = i.saturating_add(cfg.max_indexed_span).min(seq.len() - 1);
                for j in (i + 1)..=max_j {
                    occs.push(((seq[i], seq[j]), ti as u32, i as u32, j as u32));
                }
            }
            hops.extend(seq.windows(2).map(|w| (w[0], w[1])));
        }
        occs.sort_unstable();
        hops.sort_unstable();

        cols.occ_traj.reserve_exact(occs.len());
        cols.occ_start.reserve_exact(occs.len());
        cols.occ_end.reserve_exact(occs.len());
        for run in occs.chunk_by(|x, y| x.0 == y.0) {
            cols.pair_keys.push(run[0].0);
            for &(_, traj, start, end) in run {
                cols.occ_traj.push(traj);
                cols.occ_start.push(start);
                cols.occ_end.push(end);
            }
            cols.pair_offsets.push(cols.occ_traj.len());
        }
        drop(occs);

        // Per-source transition lists; hop counts are integers, exactly
        // representable as f64.
        for by_src in hops.chunk_by(|x, y| x.0 == y.0) {
            cols.tr_src.push(by_src[0].0);
            for run in by_src.chunk_by(|x, y| x == y) {
                cols.tr_dst.push(run[0].1);
                cols.tr_w.push(run.len() as f64);
            }
            cols.tr_offsets.push(cols.tr_dst.len());
        }

        cols.sup_keys = cols.pair_keys.clone();
        cols.sup_val = (0..cols.pair_keys.len())
            .map(|p| distinct_trajs(&cols.occ_traj[span(&cols.pair_offsets, p)]))
            .collect();

        // Resolve each trusted pair's winner once, at build time. Serving
        // queries for these pairs become a single lookup; only
        // below-min_support pairs ever reach the occurrence scan again.
        let partials = exec.shard_partials(&cols.pair_keys, |_, base, keys| {
            let mut won = Vec::new();
            let mut ids = Vec::new();
            for (p, &key) in (base..).zip(keys) {
                if (cols.sup_val[p] as usize) < cfg.min_support {
                    continue;
                }
                if let Some(w) = most_frequent_exact(&cols, span(&cols.pair_offsets, p)) {
                    ids.extend_from_slice(w);
                    won.push((key, ids.len()));
                }
            }
            (won, ids)
        });
        for (won, ids) in partials {
            let base = cols.win_ids.len();
            for (key, end) in won {
                cols.win_keys.push(key);
                cols.win_offsets.push(base + end);
            }
            cols.win_ids.extend(ids);
        }

        Self { cols }
    }

    /// Validates a column set and adopts it as a miner, without copying.
    /// Rejects (with the offending column and index) any layout a lookup
    /// could trip over: mismatched column lengths, offsets that are not a
    /// monotone prefix sum over their value column, key columns that are
    /// not strictly ascending, occurrences outside their corpus
    /// trajectory, and transfer weights that are not finite and positive.
    pub fn from_parts(parts: PopularRoutesParts) -> Result<Self, PartsError> {
        let c = &parts;
        let n_traj = c.corpus_offsets.len().saturating_sub(1);
        check_offsets("corpus_offsets", &c.corpus_offsets, n_traj, c.corpus_ids.len())?;

        check_keys("pair_keys", &c.pair_keys)?;
        check_offsets("pair_offsets", &c.pair_offsets, c.pair_keys.len(), c.occ_traj.len())?;
        check_len("occ_start", c.occ_traj.len(), c.occ_start.len())?;
        check_len("occ_end", c.occ_traj.len(), c.occ_end.len())?;
        for (i, ((&t, &s), &e)) in c.occ_traj.iter().zip(&c.occ_start).zip(&c.occ_end).enumerate() {
            let len = match c.corpus_offsets.get(t as usize..t as usize + 2) {
                Some(w) => w[1] - w[0],
                None => 0,
            };
            if s > e || e as usize >= len {
                return Err(PartsError::OccurrenceOutOfRange { index: i });
            }
        }

        check_keys("tr_src", &c.tr_src)?;
        check_offsets("tr_offsets", &c.tr_offsets, c.tr_src.len(), c.tr_dst.len())?;
        check_len("tr_w", c.tr_dst.len(), c.tr_w.len())?;
        if let Some(i) = c.tr_w.iter().position(|w| !(w.is_finite() && *w > 0.0)) {
            return Err(PartsError::BadTransferWeight { index: i });
        }

        check_keys("sup_keys", &c.sup_keys)?;
        check_len("sup_val", c.sup_keys.len(), c.sup_val.len())?;

        check_keys("win_keys", &c.win_keys)?;
        check_offsets("win_offsets", &c.win_offsets, c.win_keys.len(), c.win_ids.len())?;
        Ok(Self { cols: parts })
    }

    /// The miner's columns, borrowed — what the STC1 model encoder writes.
    pub fn parts(&self) -> &PopularRoutesParts {
        &self.cols
    }

    /// Number of indexed historical trajectories.
    pub fn corpus_len(&self) -> usize {
        self.cols.corpus_offsets.len() - 1
    }

    /// How many *distinct* historical trajectories traverse `from … to` (in
    /// order). A looping trajectory that covers the pair several times
    /// counts once. Precomputed at build time; one binary search.
    pub fn support(&self, from: LandmarkId, to: LandmarkId) -> usize {
        let c = &self.cols;
        c.sup_keys.binary_search(&(from, to)).map_or(0, |i| c.sup_val[i] as usize)
    }

    /// The most popular historical route from `from` to `to`, inclusive of
    /// both endpoints. Returns `None` when the corpus gives no basis at all
    /// (no exact support *and* no transfer-graph path).
    pub fn popular_route(&self, from: LandmarkId, to: LandmarkId) -> Option<Vec<LandmarkId>> {
        if from == to {
            return Some(vec![from]);
        }
        let c = &self.cols;
        // Common case: the winner for every pair at/above min_support is
        // resolved at build time — one binary search, no occurrence scan.
        if let Ok(i) = c.win_keys.binary_search(&(from, to)) {
            return Some(c.win_ids[span(&c.win_offsets, i)].to_vec());
        }
        // No precomputed winner: the pair is below min_support.
        self.max_probability_route(from, to).or_else(|| {
            // Last resort: any exact occurrence, even below min_support.
            let i = c.pair_keys.binary_search(&(from, to)).ok()?;
            most_frequent_exact(c, span(&c.pair_offsets, i)).map(<[LandmarkId]>::to_vec)
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

        let c = &self.cols;
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
            let Ok(s) = c.tr_src.binary_search(&node) else { continue };
            let outs = span(&c.tr_offsets, s);
            let (dsts, ws) = (&c.tr_dst[outs.clone()], &c.tr_w[outs]);
            let total: f64 = ws.iter().sum();
            for (next, w) in dsts.iter().zip(ws) {
                let p = w / total;
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

impl Serialize for PopularRoutes {
    /// The JSON encoding keeps the map-entry shape model files have always
    /// had: `corpus` as nested lists, then `pairs`, `transfers`,
    /// `supports` and `winners` as key-sorted `[key, value]` entries, then
    /// `cfg`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let c = &self.cols;
        let id = |l: LandmarkId| Value::U64(u64::from(l.0));
        let ids = |ls: &[LandmarkId]| Value::Seq(ls.iter().map(|&l| id(l)).collect());
        let key = |k: PairKey| Value::Seq(vec![id(k.0), id(k.1)]);
        let entry = |k: Value, v: Value| Value::Seq(vec![k, v]);

        let corpus = (0..self.corpus_len()).map(|t| ids(&c.corpus_ids[span(&c.corpus_offsets, t)]));
        let pairs = c.pair_keys.iter().enumerate().map(|(p, &k)| {
            let occs = span(&c.pair_offsets, p).map(|i| {
                Value::Map(vec![
                    ("traj".to_owned(), Value::U64(u64::from(c.occ_traj[i]))),
                    ("start".to_owned(), Value::U64(u64::from(c.occ_start[i]))),
                    ("end".to_owned(), Value::U64(u64::from(c.occ_end[i]))),
                ])
            });
            entry(key(k), Value::Seq(occs.collect()))
        });
        // Weights are finite (checked by `from_parts`), so each is a plain
        // JSON float, as `f64`'s own serializer writes it.
        let transfers = c.tr_src.iter().enumerate().map(|(s, &src)| {
            let outs = span(&c.tr_offsets, s)
                .map(|i| Value::Seq(vec![id(c.tr_dst[i]), Value::F64(c.tr_w[i])]));
            entry(id(src), Value::Seq(outs.collect()))
        });
        let supports = c
            .sup_keys
            .iter()
            .zip(&c.sup_val)
            .map(|(&k, &v)| entry(key(k), Value::U64(u64::from(v))));
        let winners = c
            .win_keys
            .iter()
            .enumerate()
            .map(|(w, &k)| entry(key(k), ids(&c.win_ids[span(&c.win_offsets, w)])));

        serializer.serialize_value(Value::Map(vec![
            ("corpus".to_owned(), Value::Seq(corpus.collect())),
            ("pairs".to_owned(), Value::Seq(pairs.collect())),
            ("transfers".to_owned(), Value::Seq(transfers.collect())),
            ("supports".to_owned(), Value::Seq(supports.collect())),
            ("winners".to_owned(), Value::Seq(winners.collect())),
            ("cfg".to_owned(), to_value(&c.cfg)?),
        ]))
    }
}

/// Takes field `name` out of the JSON fields of a `ty` value, with
/// derive-style errors.
pub(crate) fn json_field<T: DeserializeOwned>(
    fields: &mut Vec<(String, Value)>,
    ty: &str,
    name: &str,
) -> Result<T, serde::Error> {
    let at = fields
        .iter()
        .position(|(k, _)| k == name)
        .ok_or_else(|| serde::Error::missing_field(ty, name))?;
    from_value(fields.swap_remove(at).1).map_err(|e| e.context(&format!("{ty}.{name}")))
}

/// A JSON object's entries, with a derive-style error naming `what`
/// otherwise.
pub(crate) fn json_object(value: Value, what: &str) -> Result<Vec<(String, Value)>, serde::Error> {
    match value {
        Value::Map(entries) => Ok(entries),
        other => Err(serde::Error::invalid_type("object", other.kind()).context(what)),
    }
}

impl<'de> Deserialize<'de> for PopularRoutes {
    /// Reads the JSON encoding [`Serialize`] writes into columns and
    /// validates them like [`PopularRoutes::from_parts`].
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        const TY: &str = "PopularRoutes";
        let mut fields = json_object(deserializer.take_value()?, TY)?;
        let mut c = PopularRoutesParts::default();
        for seq in json_field::<Vec<Vec<LandmarkId>>>(&mut fields, TY, "corpus")? {
            c.corpus_ids.extend(seq);
            c.corpus_offsets.push(c.corpus_ids.len());
        }
        for (key, occs) in json_field::<Vec<(PairKey, Vec<Occurrence>)>>(&mut fields, TY, "pairs")?
        {
            c.pair_keys.push(key);
            for o in occs {
                c.occ_traj.push(o.traj);
                c.occ_start.push(o.start);
                c.occ_end.push(o.end);
            }
            c.pair_offsets.push(c.occ_traj.len());
        }
        type Outs = Vec<(LandmarkId, f64)>;
        for (src, outs) in json_field::<Vec<(LandmarkId, Outs)>>(&mut fields, TY, "transfers")? {
            c.tr_src.push(src);
            for (dst, w) in outs {
                c.tr_dst.push(dst);
                c.tr_w.push(w);
            }
            c.tr_offsets.push(c.tr_dst.len());
        }
        (c.sup_keys, c.sup_val) =
            json_field::<Vec<(PairKey, u32)>>(&mut fields, TY, "supports")?.into_iter().unzip();
        for (key, route) in
            json_field::<Vec<(PairKey, Vec<LandmarkId>)>>(&mut fields, TY, "winners")?
        {
            c.win_keys.push(key);
            c.win_ids.extend(route);
            c.win_offsets.push(c.win_ids.len());
        }
        c.cfg = json_field(&mut fields, TY, "cfg")?;
        PopularRoutes::from_parts(c)
            .map_err(|e| serde::Error::msg(format!("PopularRoutes: {e}")).into())
    }
}

/// Among the occurrences `occ`, the most frequent concrete landmark
/// sequence (`None` only for an empty range, which the pair index never
/// stores). Ties break by count, then shorter, then lexicographically
/// smaller — a total order, so builds are reproducible.
fn most_frequent_exact(c: &PopularRoutesParts, occ: Range<usize>) -> Option<&[LandmarkId]> {
    let mut counts: HashMap<&[LandmarkId], usize> = HashMap::new();
    for i in occ {
        let base = c.corpus_offsets[c.occ_traj[i] as usize];
        let seq = &c.corpus_ids[base + c.occ_start[i] as usize..=base + c.occ_end[i] as usize];
        *counts.entry(seq).or_insert(0) += 1;
    }
    counts
        // lint: ordered — max_by applies a total order (count, length, lexicographic) so the reduction is order-free
        .into_iter()
        .max_by(|a, b| {
            a.1.cmp(&b.1).then_with(|| b.0.len().cmp(&a.0.len())).then_with(|| b.0.cmp(a.0))
        })
        .map(|(seq, _)| seq)
}

/// Distinct trajectory ids in one pair's `occ_traj` run. Occurrences
/// ascend by trajectory, so counting runs suffices — no sort.
fn distinct_trajs(trajs: &[u32]) -> u32 {
    let mut count = 0u32;
    let mut last = None;
    for &t in trajs {
        if last != Some(t) {
            count += 1;
            last = Some(t);
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
                let last = (i + pr.cols.cfg.max_indexed_span).min(seq.len() - 1);
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
        } else if support >= pr.cols.cfg.min_support && exact.is_some() {
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
        assert!(pr.cols.win_keys.contains(&(l(0), l(2))));
        assert!(!pr.cols.win_keys.contains(&(l(5), l(6))));
        // The below-threshold pair is still answered via the fallback.
        assert_eq!(pr.popular_route(l(5), l(6)).unwrap(), vec![l(5), l(6)]);
    }

    #[test]
    fn from_parts_rejects_each_broken_layout() {
        let corpus = vec![traj(&[0, 1, 2]), traj(&[0, 1, 2]), traj(&[2, 3])];
        let good = PopularRoutes::build(&corpus, PopularRouteConfig::default()).cols;
        let broken = |edit: fn(&mut PopularRoutesParts)| {
            let mut parts = good.clone();
            edit(&mut parts);
            PopularRoutes::from_parts(parts).err()
        };
        assert_eq!(PopularRoutes::from_parts(good.clone()).err(), None);
        assert_eq!(
            broken(|p| p.pair_keys.swap(0, 1)),
            Some(PartsError::UnsortedKeys { column: "pair_keys", index: 1 })
        );
        assert_eq!(
            broken(|p| p.win_keys[1] = p.win_keys[0]),
            Some(PartsError::UnsortedKeys { column: "win_keys", index: 1 })
        );
        assert_eq!(
            broken(|p| p.pair_offsets[1] = 99),
            Some(PartsError::BadOffsets { column: "pair_offsets", index: 2 })
        );
        assert_eq!(
            broken(|p| p.corpus_offsets[0] = 1),
            Some(PartsError::BadOffsets { column: "corpus_offsets", index: 0 })
        );
        assert_eq!(
            broken(|p| {
                p.win_ids.pop();
            }),
            Some(PartsError::BadOffsets { column: "win_offsets", index: 4 })
        );
        assert_eq!(
            broken(|p| {
                p.occ_end.pop();
            }),
            Some(PartsError::ColumnLength { column: "occ_end", expected: 7, got: 6 })
        );
        assert_eq!(
            broken(|p| {
                p.sup_val.pop();
            }),
            Some(PartsError::ColumnLength { column: "sup_val", expected: 4, got: 3 })
        );
        assert_eq!(
            broken(|p| p.occ_start[0] = p.occ_end[0] + 1),
            Some(PartsError::OccurrenceOutOfRange { index: 0 })
        );
        assert_eq!(
            broken(|p| p.occ_traj[6] = 3),
            Some(PartsError::OccurrenceOutOfRange { index: 6 })
        );
        assert_eq!(broken(|p| p.tr_w[0] = -1.0), Some(PartsError::BadTransferWeight { index: 0 }));
        assert_eq!(
            broken(|p| p.tr_w[2] = f64::NAN),
            Some(PartsError::BadTransferWeight { index: 2 })
        );
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
