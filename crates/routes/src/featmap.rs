//! The historical feature map of Sec. V-B.
//!
//! "For each moving feature f, a historical feature map, represented as a
//! directed graph G(V, E), is built to summarize feature f between two
//! landmarks … Annotate each edge e(lᵢ, lⱼ) with the average value of feature
//! f of T(lᵢ → lⱼ)."
//!
//! One [`HistoricalFeatureMap`] holds *all* moving features at once (keyed by
//! feature name), since they share the same edge set. It is frozen: training
//! accumulates observations into a [`FeatureMapBuilder`], and
//! [`FeatureMapBuilder::finish`] sorts them once into the flat
//! [`FeatureMapParts`] columns the map keeps and the STC1 model stores.

use std::collections::BTreeMap;
use std::ops::Range;

use stmaker_poi::LandmarkId;

/// Running mean for one feature on one landmark-graph edge, as training
/// accumulates it.
#[derive(Debug, Clone, Copy, Default)]
struct Stat {
    sum: f64,
    count: u64,
}

/// Directed landmark graph annotated with per-edge average moving-feature
/// values (the `r_{lᵢ→lⱼ}` of the paper's moving-feature irregular rate).
///
/// Numeric features aggregate as running means; categorical features (grade
/// of road, traffic direction) aggregate as per-code counts and are read
/// back as the mode, since averaging category codes is meaningless. Every
/// lookup finds its row by binary search over the sorted key columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistoricalFeatureMap {
    cols: FeatureMapParts,
}

/// The feature map as flat columns — the layout [`HistoricalFeatureMap`]
/// keeps in memory and the STC1 model sections store, one column per
/// section.
///
/// Rows refer to features by index into `names`. Numeric rows are sorted
/// strictly by `(from, to, feat)`, categorical rows strictly by
/// `(from, to, feat, code)`. Produced by [`FeatureMapBuilder::finish`] and
/// [`HistoricalFeatureMap::parts`], checked by
/// [`HistoricalFeatureMap::from_parts`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureMapParts {
    /// Feature names, strictly ascending; every name is used by a row.
    pub names: Vec<String>,
    /// Hop source of each numeric row.
    pub num_from: Vec<LandmarkId>,
    /// Hop target of each numeric row.
    pub num_to: Vec<LandmarkId>,
    /// Feature-name index of each numeric row.
    pub num_feat: Vec<u32>,
    /// Sum of the observed values (finite).
    pub num_sum: Vec<f64>,
    /// Number of observations (above 0).
    pub num_count: Vec<u64>,
    /// Hop source of each categorical row.
    pub cat_from: Vec<LandmarkId>,
    /// Hop target of each categorical row.
    pub cat_to: Vec<LandmarkId>,
    /// Feature-name index of each categorical row.
    pub cat_feat: Vec<u32>,
    /// Category code of each categorical row.
    pub cat_code: Vec<u32>,
    /// Observations of that code (above 0).
    pub cat_count: Vec<u64>,
}

/// Why a [`FeatureMapParts`] column set is not a servable feature map.
/// Each check guards a lookup that would otherwise miss rows, index out of
/// bounds, or hand feature selection an infinite or NaN average.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeatureMapError {
    /// Parallel columns disagree in length.
    ColumnLength {
        /// The column whose length is wrong.
        column: &'static str,
        /// Length of the table's `from` column.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// The name table is not strictly ascending (unsorted or duplicate).
    UnsortedNames {
        /// Index of the first name not above its predecessor.
        index: usize,
    },
    /// A name no row refers to.
    UnusedName {
        /// Index into the name table.
        index: usize,
    },
    /// Row keys are not strictly ascending (unsorted or duplicate row).
    UnsortedKeys {
        /// `"numeric"` or `"categorical"`.
        table: &'static str,
        /// Index of the first row not above its predecessor.
        index: usize,
    },
    /// A row's feature index is past the name table.
    NameOutOfRange {
        /// `"numeric"` or `"categorical"`.
        table: &'static str,
        /// Row index.
        index: usize,
    },
    /// A numeric row's sum is infinite or NaN.
    NonFiniteSum {
        /// Row index.
        index: usize,
    },
    /// A row records zero observations.
    ZeroCount {
        /// `"numeric"` or `"categorical"`.
        table: &'static str,
        /// Row index.
        index: usize,
    },
}

impl std::fmt::Display for FeatureMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeatureMapError::ColumnLength { column, expected, got } => {
                write!(f, "feature-map column {column} has {got} entries, expected {expected}")
            }
            FeatureMapError::UnsortedNames { index } => {
                write!(f, "feature names not strictly ascending at {index}")
            }
            FeatureMapError::UnusedName { index } => {
                write!(f, "feature name {index} is used by no row")
            }
            FeatureMapError::UnsortedKeys { table, index } => {
                write!(f, "{table} feature-map rows not strictly ascending at {index}")
            }
            FeatureMapError::NameOutOfRange { table, index } => {
                write!(f, "{table} feature-map row {index} names no feature")
            }
            FeatureMapError::NonFiniteSum { index } => {
                write!(f, "numeric feature-map row {index} has a non-finite sum")
            }
            FeatureMapError::ZeroCount { table, index } => {
                write!(f, "{table} feature-map row {index} has a zero count")
            }
        }
    }
}

impl std::error::Error for FeatureMapError {}

fn check_len(column: &'static str, expected: usize, got: usize) -> Result<(), FeatureMapError> {
    if expected == got {
        Ok(())
    } else {
        Err(FeatureMapError::ColumnLength { column, expected, got })
    }
}

/// Row keys must ascend strictly, so binary search finds each row.
fn check_keys<K: Ord>(
    table: &'static str,
    n: usize,
    key: impl Fn(usize) -> K,
) -> Result<(), FeatureMapError> {
    match (1..n).find(|&i| key(i - 1) >= key(i)) {
        Some(index) => Err(FeatureMapError::UnsortedKeys { table, index }),
        None => Ok(()),
    }
}

/// Every feature index must name a table entry; marks the names it uses.
fn check_names(
    table: &'static str,
    feats: &[u32],
    used: &mut [bool],
) -> Result<(), FeatureMapError> {
    for (index, &f) in feats.iter().enumerate() {
        let slot = used.get_mut(f as usize);
        *slot.ok_or(FeatureMapError::NameOutOfRange { table, index })? = true;
    }
    Ok(())
}

/// The rows of hop `from → to` in a table keyed `(from, to, …)`: a binary
/// search of the `from` column, then of the `to` column within that run.
/// Runs are a few rows long, so their ends are found by scanning.
fn hop_rows(
    froms: &[LandmarkId],
    tos: &[LandmarkId],
    from: LandmarkId,
    to: LandmarkId,
) -> Range<usize> {
    let start = froms.partition_point(|&f| f < from);
    let run = froms[start..].iter().take_while(|&&f| f == from).count();
    let tos = &tos[start..start + run];
    let lo = tos.partition_point(|&t| t < to);
    let hi = lo + tos[lo..].iter().take_while(|&&t| t == to).count();
    start + lo..start + hi
}

/// Interns `name` into a first-seen-order table, returning its index.
fn intern(names: &mut Vec<String>, name: &str) -> u32 {
    let at = names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_owned());
        names.len() - 1
    });
    at as u32 // cast-ok: a handful of feature names
}

/// Sorts a first-seen-order name table; returns the sorted names and, for
/// each first-seen index, its sorted index. The mapping is monotone in the
/// names, so rows ordered by name stay ordered by index.
fn sort_names(names: Vec<String>) -> (Vec<String>, Vec<u32>) {
    let mut tagged: Vec<(String, usize)> = names.into_iter().zip(0..).collect();
    tagged.sort_unstable();
    let mut rank = vec![0u32; tagged.len()];
    for (sorted, (_, seen)) in (0u32..).zip(&tagged) {
        rank[*seen] = sorted;
    }
    (tagged.into_iter().map(|(name, _)| name).collect(), rank)
}

impl HistoricalFeatureMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validates a column set and adopts it as a map, without copying.
    /// Rejects (with the offending table and row) parallel columns of
    /// different lengths, a name table that is not strictly ascending or
    /// holds a name no row uses, row keys that are not strictly ascending,
    /// a feature index past the name table, a non-finite sum, and a zero
    /// count.
    pub fn from_parts(parts: FeatureMapParts) -> Result<Self, FeatureMapError> {
        let c = &parts;
        let n = c.num_from.len();
        check_len("num_to", n, c.num_to.len())?;
        check_len("num_feat", n, c.num_feat.len())?;
        check_len("num_sum", n, c.num_sum.len())?;
        check_len("num_count", n, c.num_count.len())?;
        let m = c.cat_from.len();
        check_len("cat_to", m, c.cat_to.len())?;
        check_len("cat_feat", m, c.cat_feat.len())?;
        check_len("cat_code", m, c.cat_code.len())?;
        check_len("cat_count", m, c.cat_count.len())?;

        if let Some(i) = (1..c.names.len()).find(|&i| c.names[i - 1] >= c.names[i]) {
            return Err(FeatureMapError::UnsortedNames { index: i });
        }
        let mut used = vec![false; c.names.len()];
        check_names("numeric", &c.num_feat, &mut used)?;
        check_names("categorical", &c.cat_feat, &mut used)?;
        if let Some(i) = used.iter().position(|u| !u) {
            return Err(FeatureMapError::UnusedName { index: i });
        }

        check_keys("numeric", n, |i| (c.num_from[i], c.num_to[i], c.num_feat[i]))?;
        check_keys("categorical", m, |i| {
            (c.cat_from[i], c.cat_to[i], c.cat_feat[i], c.cat_code[i])
        })?;
        if let Some(i) = c.num_sum.iter().position(|s| !s.is_finite()) {
            return Err(FeatureMapError::NonFiniteSum { index: i });
        }
        if let Some(i) = c.num_count.iter().position(|&k| k == 0) {
            return Err(FeatureMapError::ZeroCount { table: "numeric", index: i });
        }
        if let Some(i) = c.cat_count.iter().position(|&k| k == 0) {
            return Err(FeatureMapError::ZeroCount { table: "categorical", index: i });
        }
        Ok(Self { cols: parts })
    }

    /// The map's columns, borrowed — what the STC1 model encoder writes.
    pub fn parts(&self) -> &FeatureMapParts {
        &self.cols
    }

    /// The name table's index of `feature`. The table holds a handful of
    /// names, so a scan (lengths compared first) beats a binary search.
    fn feature_index(&self, feature: &str) -> Option<u32> {
        let i = self.cols.names.iter().position(|n| n == feature)?;
        Some(i as u32) // cast-ok: name indices fit the u32 row column
    }

    /// The numeric row of `feature` on `from → to`, if any.
    fn numeric_row(&self, from: LandmarkId, to: LandmarkId, feature: &str) -> Option<usize> {
        let c = &self.cols;
        let feat = self.feature_index(feature)?;
        let hop = hop_rows(&c.num_from, &c.num_to, from, to);
        let i = c.num_feat[hop.clone()].binary_search(&feat).ok()?;
        Some(hop.start + i)
    }

    /// The regular (historical average) value of `feature` on `from → to`,
    /// or `None` if no historical trajectory travelled that hop.
    pub fn regular_value(&self, from: LandmarkId, to: LandmarkId, feature: &str) -> Option<f64> {
        let i = self.numeric_row(from, to, feature)?;
        Some(self.cols.num_sum[i] / self.cols.num_count[i] as f64)
    }

    /// How many observations back the `from → to` average of `feature`.
    pub fn observation_count(&self, from: LandmarkId, to: LandmarkId, feature: &str) -> u64 {
        self.numeric_row(from, to, feature).map_or(0, |i| self.cols.num_count[i])
    }

    /// The regular (modal) category of `feature` on `from → to`. Ties break
    /// towards the smaller code for determinism.
    pub fn regular_category(&self, from: LandmarkId, to: LandmarkId, feature: &str) -> Option<u32> {
        let c = &self.cols;
        let feat = self.feature_index(feature)?;
        let hop = hop_rows(&c.cat_from, &c.cat_to, from, to);
        let feats = &c.cat_feat[hop.clone()];
        let rows = hop.start + feats.partition_point(|&f| f < feat)
            ..hop.start + feats.partition_point(|&f| f <= feat);
        // Codes ascend within the run, so keeping the first strict maximum
        // breaks ties towards the smaller code.
        let best = rows.reduce(|b, i| if c.cat_count[i] > c.cat_count[b] { i } else { b });
        best.map(|i| c.cat_code[i])
    }
}

/// Accumulates training observations into a [`HistoricalFeatureMap`].
///
/// Each numeric `(from, to, feature)` sums its values in insertion order;
/// [`FeatureMapBuilder::merge`] adds another builder's sums and counts, so
/// per-shard builders merged in shard order give the same bits for every
/// thread count. [`FeatureMapBuilder::finish`] sorts the rows once into
/// the frozen columns.
#[derive(Debug, Clone, Default)]
pub struct FeatureMapBuilder {
    /// Feature names in first-seen order; keys refer to them by position.
    names: Vec<String>,
    numeric: BTreeMap<(LandmarkId, LandmarkId, u32), Stat>,
    categorical: BTreeMap<(LandmarkId, LandmarkId, u32, u32), u64>,
}

impl FeatureMapBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `feature` on the direct hop `from → to`.
    pub fn add_observation(&mut self, from: LandmarkId, to: LandmarkId, feature: &str, value: f64) {
        assert!(value.is_finite(), "feature observations must be finite");
        let feat = intern(&mut self.names, feature);
        let stat = self.numeric.entry((from, to, feat)).or_default();
        stat.sum += value;
        stat.count += 1;
    }

    /// Records one observation of a categorical `feature` (e.g. road-grade
    /// code) on the direct hop `from → to`.
    pub fn add_categorical_observation(
        &mut self,
        from: LandmarkId,
        to: LandmarkId,
        feature: &str,
        code: u32,
    ) {
        let feat = intern(&mut self.names, feature);
        *self.categorical.entry((from, to, feat, code)).or_insert(0) += 1;
    }

    /// Adds another builder's observations to this one (used to combine
    /// shards built in parallel or across corpus batches): sums add, counts
    /// add.
    pub fn merge(&mut self, other: &FeatureMapBuilder) {
        let rename: Vec<u32> = other.names.iter().map(|n| intern(&mut self.names, n)).collect();
        for (&(from, to, feat), s) in &other.numeric {
            let d = self.numeric.entry((from, to, rename[feat as usize])).or_default();
            d.sum += s.sum;
            d.count += s.count;
        }
        for (&(from, to, feat, code), &count) in &other.categorical {
            *self.categorical.entry((from, to, rename[feat as usize], code)).or_insert(0) += count;
        }
    }

    /// Freezes the observations into a map: names sorted, rows sorted by
    /// key into the flat columns.
    pub fn finish(self) -> HistoricalFeatureMap {
        let (names, rank) = sort_names(self.names);
        let mut c = FeatureMapParts { names, ..FeatureMapParts::default() };

        let mut numeric: Vec<_> = self
            .numeric
            .into_iter()
            .map(|((from, to, f), s)| ((from, to, rank[f as usize]), s))
            .collect();
        numeric.sort_unstable_by_key(|row| row.0);
        for ((from, to, feat), s) in numeric {
            c.num_from.push(from);
            c.num_to.push(to);
            c.num_feat.push(feat);
            c.num_sum.push(s.sum);
            c.num_count.push(s.count);
        }

        let mut categorical: Vec<_> = self
            .categorical
            .into_iter()
            .map(|((from, to, f, code), count)| ((from, to, rank[f as usize], code), count))
            .collect();
        categorical.sort_unstable_by_key(|row| row.0);
        for ((from, to, feat, code), count) in categorical {
            c.cat_from.push(from);
            c.cat_to.push(to);
            c.cat_feat.push(feat);
            c.cat_code.push(code);
            c.cat_count.push(count);
        }
        HistoricalFeatureMap { cols: c }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LandmarkId {
        LandmarkId(i)
    }

    #[test]
    fn averages_accumulate() {
        let mut b = FeatureMapBuilder::new();
        b.add_observation(l(0), l(1), "speed", 40.0);
        b.add_observation(l(0), l(1), "speed", 60.0);
        b.add_observation(l(0), l(1), "speed", 50.0);
        let m = b.finish();
        assert_eq!(m.regular_value(l(0), l(1), "speed"), Some(50.0));
        assert_eq!(m.observation_count(l(0), l(1), "speed"), 3);
    }

    #[test]
    fn direction_matters() {
        let mut b = FeatureMapBuilder::new();
        b.add_observation(l(0), l(1), "speed", 80.0);
        assert_eq!(b.finish().regular_value(l(1), l(0), "speed"), None);
    }

    #[test]
    fn unknown_edges_and_features_are_none() {
        let mut b = FeatureMapBuilder::new();
        b.add_observation(l(0), l(1), "speed", 80.0);
        let m = b.finish();
        assert_eq!(m.regular_value(l(0), l(2), "speed"), None);
        assert_eq!(m.regular_value(l(0), l(1), "stay_points"), None);
        assert_eq!(m.observation_count(l(0), l(2), "speed"), 0);
    }

    #[test]
    fn multiple_features_share_an_edge() {
        let mut b = FeatureMapBuilder::new();
        b.add_observation(l(3), l(4), "speed", 30.0);
        b.add_observation(l(3), l(4), "stay_points", 2.0);
        let m = b.finish();
        assert_eq!(m.parts().names, ["speed", "stay_points"]);
        assert_eq!(m.regular_value(l(3), l(4), "speed"), Some(30.0));
        assert_eq!(m.regular_value(l(3), l(4), "stay_points"), Some(2.0));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = FeatureMapBuilder::new();
        a.add_observation(l(0), l(1), "speed", 40.0);
        let mut b = FeatureMapBuilder::new();
        b.add_observation(l(0), l(1), "speed", 60.0);
        b.add_observation(l(1), l(2), "speed", 10.0);
        a.merge(&b);
        let m = a.finish();
        assert_eq!(m.regular_value(l(0), l(1), "speed"), Some(50.0));
        assert_eq!(m.regular_value(l(1), l(2), "speed"), Some(10.0));
        assert_eq!(m.parts().num_from.len(), 2);
    }

    #[test]
    fn categorical_mode_and_ties() {
        let mut b = FeatureMapBuilder::new();
        b.add_categorical_observation(l(0), l(1), "grade", 3);
        b.add_categorical_observation(l(0), l(1), "grade", 3);
        b.add_categorical_observation(l(0), l(1), "grade", 5);
        assert_eq!(b.clone().finish().regular_category(l(0), l(1), "grade"), Some(3));
        // Tie: smaller code wins deterministically.
        b.add_categorical_observation(l(0), l(1), "grade", 5);
        let m = b.finish();
        assert_eq!(m.regular_category(l(0), l(1), "grade"), Some(3));
        assert_eq!(m.regular_category(l(0), l(2), "grade"), None);
        assert_eq!(m.regular_category(l(0), l(1), "direction"), None);
    }

    #[test]
    fn merge_combines_categorical_counts() {
        let mut a = FeatureMapBuilder::new();
        a.add_categorical_observation(l(0), l(1), "grade", 2);
        let mut b = FeatureMapBuilder::new();
        b.add_categorical_observation(l(0), l(1), "grade", 4);
        b.add_categorical_observation(l(0), l(1), "grade", 4);
        a.merge(&b);
        assert_eq!(a.finish().regular_category(l(0), l(1), "grade"), Some(4));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_observations() {
        let mut b = FeatureMapBuilder::new();
        b.add_observation(l(0), l(1), "speed", f64::NAN);
    }

    #[test]
    fn from_parts_rejects_each_broken_layout() {
        let mut b = FeatureMapBuilder::new();
        b.add_observation(l(0), l(1), "speed", 40.0);
        b.add_observation(l(0), l(2), "speed", 20.0);
        b.add_categorical_observation(l(0), l(1), "grade", 2);
        b.add_categorical_observation(l(0), l(1), "grade", 3);
        let good = b.finish().parts().clone();
        assert!(HistoricalFeatureMap::from_parts(good.clone()).is_ok());

        let broken = |edit: fn(&mut FeatureMapParts)| {
            let mut p = good.clone();
            edit(&mut p);
            HistoricalFeatureMap::from_parts(p).err()
        };
        use FeatureMapError as E;
        assert_eq!(
            broken(|p| p.num_sum.push(1.0)),
            Some(E::ColumnLength { column: "num_sum", expected: 2, got: 3 })
        );
        assert_eq!(broken(|p| p.names.reverse()), Some(E::UnsortedNames { index: 1 }));
        assert_eq!(broken(|p| p.names.push("zz".into())), Some(E::UnusedName { index: 2 }));
        assert_eq!(
            broken(|p| p.num_to.swap(0, 1)),
            Some(E::UnsortedKeys { table: "numeric", index: 1 })
        );
        assert_eq!(
            broken(|p| p.cat_code[1] = 2),
            Some(E::UnsortedKeys { table: "categorical", index: 1 })
        );
        assert_eq!(
            broken(|p| p.cat_feat[0] = 7),
            Some(E::NameOutOfRange { table: "categorical", index: 0 })
        );
        assert_eq!(broken(|p| p.num_sum[1] = f64::INFINITY), Some(E::NonFiniteSum { index: 1 }));
        assert_eq!(
            broken(|p| p.num_count[0] = 0),
            Some(E::ZeroCount { table: "numeric", index: 0 })
        );
        assert_eq!(
            broken(|p| p.cat_count[1] = 0),
            Some(E::ZeroCount { table: "categorical", index: 1 })
        );
    }
}
