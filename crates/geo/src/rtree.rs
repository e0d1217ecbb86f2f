//! Packed STR (Sort-Tile-Recursive) R-tree over points and segments.
//!
//! The tree is bulk-loaded once into flat arrays — entry coordinates live in
//! parallel `Vec<f64>` columns and nodes in a single `Vec<Node>` — so queries
//! walk contiguous memory with no per-node boxing. Entries are either points
//! (degenerate segments with `a == b`) or road-edge style segments; both are
//! refined with the exact same planar arithmetic `LocalFrame` uses, so swapping
//! a [`GridIndex`](crate::GridIndex) for an [`RTree`] never changes a reported
//! distance by even one ULP.
//!
//! Determinism contract: the build canonicalises entry order (center-x,
//! center-y, id, endpoints) before tiling, so the packed layout — and therefore
//! every traversal — is independent of input order. All multi-result queries
//! return hits sorted by `(distance, id)` (via `total_cmp`), so results are
//! reproducible byte-for-byte.

use crate::bbox::BoundingBox;
use crate::point::{GeoPoint, LocalFrame};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which spatial index backend a pipeline stage should use.
///
/// The two backends are required to produce byte-identical candidate sets and
/// summaries; `Grid` is kept as an escape hatch (`--spatial-index grid` on the
/// CLI) and as the reference implementation for the identity benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpatialIndexKind {
    /// Uniform-cell grid (`GridIndex`), the original backend.
    Grid,
    /// Packed STR R-tree (`RTree`), the default.
    #[default]
    Rtree,
}

impl std::str::FromStr for SpatialIndexKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "grid" => Ok(Self::Grid),
            "rtree" => Ok(Self::Rtree),
            other => Err(format!("unknown spatial index '{other}' (expected rtree|grid)")),
        }
    }
}

impl std::fmt::Display for SpatialIndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Grid => f.write_str("grid"),
            Self::Rtree => f.write_str("rtree"),
        }
    }
}

/// Work counters for spatial-index queries (`spatial.*` obs metrics).
///
/// Threaded by `&mut` through query calls; callers fold them into an
/// `stmaker-obs` `Recorder` as plain counters, which keeps the index `Clone`
/// and the counts deterministic (no atomics, no cross-thread interleaving).
#[derive(Debug, Default, Clone, Copy)]
pub struct SpatialStats {
    /// Tree nodes (internal + leaf) popped during traversal.
    pub nodes_visited: u64,
    /// Leaf nodes whose entries were scanned.
    pub leaves_scanned: u64,
    /// Entries refined with an exact distance computation.
    pub candidates_refined: u64,
}

impl SpatialStats {
    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &SpatialStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_scanned += other.leaves_scanned;
        self.candidates_refined += other.candidates_refined;
    }
}

/// Entries per leaf and max children per internal node.
const NODE_CAP: usize = 16;

/// One packed tree node: an MBR plus a `[first, first+count)` range that
/// indexes entries (leaf) or child nodes (internal).
#[derive(Debug, Clone, Copy)]
struct Node {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    first: u32,
    count: u32,
    leaf: bool,
}

/// A packed STR-bulk-loaded R-tree over point or segment entries.
///
/// Built once via [`RTree::build_points`] or [`RTree::build_segments`];
/// immutable afterwards. The planar frame is constructed with exactly the
/// recipe `GridIndex::build` uses (enclosing bbox of all endpoints, inflated
/// by `1e-4` degrees, frame at its center), so distances reported by the two
/// backends are bit-identical.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    frame: LocalFrame,
    ids: Vec<T>,
    ax: Vec<f64>,
    ay: Vec<f64>,
    bx: Vec<f64>,
    by: Vec<f64>,
    nodes: Vec<Node>,
    root: u32,
}

/// Min-heap item for best-first traversal (ordered by distance, then node id
/// for full determinism; `BinaryHeap` is a max-heap, so `Ord` is reversed).
struct HeapEntry {
    dist: f64,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smallest distance (then smallest node index) pops first.
        other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

impl<T: Copy + Ord> RTree<T> {
    /// Bulk-loads a tree of point entries.
    pub fn build_points(items: impl IntoIterator<Item = (T, GeoPoint)>) -> Self {
        Self::build_segments(items.into_iter().map(|(id, p)| (id, p, p)))
    }

    /// Bulk-loads a tree of segment entries (`a`–`b` in geographic space).
    /// Point entries are just degenerate segments with `a == b`.
    pub fn build_segments(items: impl IntoIterator<Item = (T, GeoPoint, GeoPoint)>) -> Self {
        let items: Vec<(T, GeoPoint, GeoPoint)> = items.into_iter().collect();
        // Frame recipe mirrors GridIndex::build so planar distances agree
        // bit-for-bit between the two backends.
        let mut pts: Vec<GeoPoint> = Vec::with_capacity(items.len() * 2);
        for (_, a, b) in &items {
            pts.push(*a);
            pts.push(*b);
        }
        let bbox = BoundingBox::enclosing(&pts)
            .unwrap_or(BoundingBox::new(GeoPoint::new(0.0, 0.0), GeoPoint::new(0.0, 0.0)))
            .inflate(1e-4);
        let frame = LocalFrame::new(bbox.center());

        struct Entry<T> {
            id: T,
            ax: f64,
            ay: f64,
            bx: f64,
            by: f64,
            cx: f64,
            cy: f64,
        }
        let mut entries: Vec<Entry<T>> = items
            .into_iter()
            .map(|(id, a, b)| {
                let (ax, ay) = frame.to_xy(&a);
                let (bx, by) = frame.to_xy(&b);
                Entry { id, ax, ay, bx, by, cx: (ax + bx) * 0.5, cy: (ay + by) * 0.5 }
            })
            .collect();
        // Canonical order: the packed layout must not depend on input order.
        let canon = |e: &Entry<T>| (e.cx, e.cy, e.id, e.ax, e.ay, e.bx, e.by);
        entries.sort_unstable_by(|p, q| {
            let (a, b) = (canon(p), canon(q));
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.total_cmp(&b.3))
                .then(a.4.total_cmp(&b.4))
                .then(a.5.total_cmp(&b.5))
                .then(a.6.total_cmp(&b.6))
        });

        // STR tiling: entries are sorted by center-x; carve them into vertical
        // slices of `slice_len` entries, re-sort each slice by center-y, and
        // cut leaves of NODE_CAP entries from each slice.
        let n = entries.len();
        let n_leaves = n.div_ceil(NODE_CAP).max(1);
        let slices = (n_leaves as f64).sqrt().ceil() as usize;
        let slice_len = slices.max(1) * NODE_CAP;
        for slice in entries.chunks_mut(slice_len.max(1)) {
            slice.sort_unstable_by(|p, q| {
                let (a, b) = (canon(p), canon(q));
                a.1.total_cmp(&b.1)
                    .then(a.0.total_cmp(&b.0))
                    .then(a.2.cmp(&b.2))
                    .then(a.3.total_cmp(&b.3))
                    .then(a.4.total_cmp(&b.4))
                    .then(a.5.total_cmp(&b.5))
                    .then(a.6.total_cmp(&b.6))
            });
        }

        let mut tree = RTree {
            frame,
            ids: Vec::with_capacity(n),
            ax: Vec::with_capacity(n),
            ay: Vec::with_capacity(n),
            bx: Vec::with_capacity(n),
            by: Vec::with_capacity(n),
            nodes: Vec::new(),
            root: 0,
        };
        for e in &entries {
            tree.ids.push(e.id);
            tree.ax.push(e.ax);
            tree.ay.push(e.ay);
            tree.bx.push(e.bx);
            tree.by.push(e.by);
        }
        if n == 0 {
            return tree;
        }

        // Leaf level: one node per NODE_CAP consecutive entries.
        let mut first_entry = 0usize;
        while first_entry < n {
            let count = NODE_CAP.min(n - first_entry);
            let mut node = Node {
                min_x: f64::INFINITY,
                min_y: f64::INFINITY,
                max_x: f64::NEG_INFINITY,
                max_y: f64::NEG_INFINITY,
                first: first_entry as u32, // cast-ok: entry counts fit u32
                count: count as u32,       // cast-ok: <= NODE_CAP
                leaf: true,
            };
            for i in first_entry..first_entry + count {
                node.min_x = node.min_x.min(tree.ax[i]).min(tree.bx[i]);
                node.min_y = node.min_y.min(tree.ay[i]).min(tree.by[i]);
                node.max_x = node.max_x.max(tree.ax[i]).max(tree.bx[i]);
                node.max_y = node.max_y.max(tree.ay[i]).max(tree.by[i]);
            }
            tree.nodes.push(node);
            first_entry += count;
        }

        // Upper levels: pack each run of NODE_CAP nodes under one parent
        // until a single root remains.
        let mut level_start = 0usize;
        let mut level_len = tree.nodes.len();
        while level_len > 1 {
            let next_start = tree.nodes.len();
            let mut child = level_start;
            let level_end = level_start + level_len;
            while child < level_end {
                let count = NODE_CAP.min(level_end - child);
                let mut node = Node {
                    min_x: f64::INFINITY,
                    min_y: f64::INFINITY,
                    max_x: f64::NEG_INFINITY,
                    max_y: f64::NEG_INFINITY,
                    first: child as u32, // cast-ok: node counts fit u32
                    count: count as u32, // cast-ok: <= NODE_CAP
                    leaf: false,
                };
                for c in child..child + count {
                    let cn = tree.nodes[c];
                    node.min_x = node.min_x.min(cn.min_x);
                    node.min_y = node.min_y.min(cn.min_y);
                    node.max_x = node.max_x.max(cn.max_x);
                    node.max_y = node.max_y.max(cn.max_y);
                }
                tree.nodes.push(node);
                child += count;
            }
            level_start = next_start;
            level_len = tree.nodes.len() - next_start;
        }
        tree.root = (tree.nodes.len() - 1) as u32; // cast-ok: node counts fit u32
        tree
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The planar frame the tree measures distances in (same recipe as
    /// `GridIndex::build`: enclosing bbox inflated by 1e-4 deg, centered).
    pub fn frame(&self) -> &LocalFrame {
        &self.frame
    }

    /// Exact planar distance from `(qx, qy)` to entry `i`, using the same
    /// float expressions as `LocalFrame::project_onto_segment` /
    /// `LocalFrame::dist_m` so refinement is bit-identical to the grid path.
    #[inline]
    fn entry_dist(&self, i: usize, qx: f64, qy: f64) -> f64 {
        let (ax, ay, bx, by) = (self.ax[i], self.ay[i], self.bx[i], self.by[i]);
        let (dx, dy) = (bx - ax, by - ay);
        let len2 = dx * dx + dy * dy;
        let t = if len2 == 0.0 {
            0.0
        } else {
            (((qx - ax) * dx + (qy - ay) * dy) / len2).clamp(0.0, 1.0)
        };
        let (fx, fy) = (ax + t * dx, ay + t * dy);
        ((qx - fx).powi(2) + (qy - fy).powi(2)).sqrt()
    }

    /// Lower bound on the distance from `(qx, qy)` to anything inside `node`'s
    /// MBR. Shares the subtraction/square/sqrt shape with `entry_dist` so a
    /// point entry sitting on the MBR boundary gets the identical value —
    /// pruning with `mindist > r` can never drop an in-radius entry.
    #[inline]
    fn mindist(node: &Node, qx: f64, qy: f64) -> f64 {
        let dx = (node.min_x - qx).max(qx - node.max_x).max(0.0);
        let dy = (node.min_y - qy).max(qy - node.max_y).max(0.0);
        (dx.powi(2) + dy.powi(2)).sqrt()
    }

    /// All entries within `radius_m` of `q`, as `(id, distance_m)` sorted by
    /// `(distance, id)`.
    pub fn within_radius(&self, q: &GeoPoint, radius_m: f64) -> Vec<(T, f64)> {
        let mut out = Vec::new();
        let mut stats = SpatialStats::default();
        self.within_radius_into(q, radius_m, &mut out, &mut stats);
        out
    }

    /// Zero-alloc variant of [`RTree::within_radius`]: clears and fills `out`,
    /// accumulating traversal counters into `stats`.
    pub fn within_radius_into(
        &self,
        q: &GeoPoint,
        radius_m: f64,
        out: &mut Vec<(T, f64)>,
        stats: &mut SpatialStats,
    ) {
        out.clear();
        if self.is_empty() {
            return;
        }
        let (qx, qy) = self.frame.to_xy(q);
        let mut stack = vec![self.root];
        while let Some(ni) = stack.pop() {
            stats.nodes_visited += 1;
            let node = self.nodes[ni as usize];
            if Self::mindist(&node, qx, qy) > radius_m {
                continue;
            }
            if node.leaf {
                stats.leaves_scanned += 1;
                for i in node.first as usize..(node.first + node.count) as usize {
                    stats.candidates_refined += 1;
                    let d = self.entry_dist(i, qx, qy);
                    if d <= radius_m {
                        out.push((self.ids[i], d));
                    }
                }
            } else {
                for c in node.first..node.first + node.count {
                    stack.push(c);
                }
            }
        }
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    }

    /// The entry nearest to `q` (smallest distance; ties broken by smaller
    /// id), or `None` for an empty tree.
    pub fn nearest(&self, q: &GeoPoint) -> Option<(T, f64)> {
        self.k_nearest_within(q, 1, f64::INFINITY).first().copied()
    }

    /// The `k` entries nearest to `q` among those within `radius_m`, sorted
    /// by `(distance, id)` — the bounded-kNN primitive the semantic layer's
    /// nearby-landmark lookup uses.
    ///
    /// Best-first traversal with branch-and-bound on the current k-th
    /// distance.
    pub fn k_nearest_within(&self, q: &GeoPoint, k: usize, radius_m: f64) -> Vec<(T, f64)> {
        let mut out: Vec<(T, f64)> = Vec::new();
        if self.is_empty() || k == 0 {
            return out;
        }
        let (qx, qy) = self.frame.to_xy(q);
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { dist: 0.0, node: self.root });
        while let Some(HeapEntry { dist, node: ni }) = heap.pop() {
            // Bound: once we hold k hits, only nodes that could still beat the
            // worst hit (or tie it with a smaller id) are worth visiting.
            let bound = if out.len() == k { out[k - 1].1 } else { radius_m };
            if dist > bound {
                break;
            }
            let node = self.nodes[ni as usize];
            if node.leaf {
                for i in node.first as usize..(node.first + node.count) as usize {
                    let d = self.entry_dist(i, qx, qy);
                    if d > radius_m {
                        continue;
                    }
                    let cand = (self.ids[i], d);
                    let pos = out.partition_point(|e| {
                        e.1.total_cmp(&cand.1).then(e.0.cmp(&cand.0)) != Ordering::Greater
                    });
                    if pos < k {
                        out.insert(pos, cand);
                        out.truncate(k);
                    }
                }
            } else {
                for c in node.first..node.first + node.count {
                    let child = &self.nodes[c as usize];
                    let d = Self::mindist(child, qx, qy);
                    let bound = if out.len() == k { out[k - 1].1 } else { radius_m };
                    if d <= bound {
                        heap.push(HeapEntry { dist: d, node: c });
                    }
                }
            }
        }
        out
    }

    /// Corridor candidate query: ids of all entries within `max_dist_m` of at
    /// least one point of `path`, sorted and deduplicated — the single-query
    /// replacement for calibration's per-probe-point ring scans.
    ///
    /// The path is walked in chunks of consecutive probes (spatially local by
    /// construction — they are polyline samples), each chunk answered with one
    /// tight rect pass padded by `max_dist_m` plus one metre of float slack.
    /// Chunking keeps the rect snug around the corridor even for long diagonal
    /// paths, whose whole-path bounding box would cover most of the city.
    /// Every candidate is re-filtered with the exact per-probe distance
    /// predicate the grid path evaluates (after a conservative per-axis window
    /// reject that can only skip pairs provably beyond `max_dist_m`), so the
    /// resulting id set equals the grid's sorted+deduped set exactly.
    pub fn along_into(
        &self,
        path: &[GeoPoint],
        max_dist_m: f64,
        out: &mut Vec<T>,
        stats: &mut SpatialStats,
    ) {
        /// Consecutive probes per rect query: large enough to amortize the
        /// tree descent, small enough that a chunk's bbox hugs the corridor.
        const CHUNK: usize = 8;
        out.clear();
        if self.is_empty() || path.is_empty() {
            return;
        }
        let probes: Vec<(f64, f64)> = path.iter().map(|p| self.frame.to_xy(p)).collect();
        let pad = max_dist_m + 1.0;
        let mut cand: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for chunk in probes.chunks(CHUNK) {
            let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
            let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for &(x, y) in chunk {
                min_x = min_x.min(x);
                min_y = min_y.min(y);
                max_x = max_x.max(x);
                max_y = max_y.max(y);
            }
            cand.clear();
            self.rect_entries_into(
                min_x - pad,
                min_y - pad,
                max_x + pad,
                max_y + pad,
                &mut cand,
                &mut stack,
                stats,
            );
            for &ei in &cand {
                let i = ei as usize;
                stats.candidates_refined += 1;
                // A probe within max_dist of the entry is within pad of the
                // entry's bbox on both axes (the closest segment point lies
                // inside the bbox), so the window reject below is exact: it
                // only skips pairs the entry_dist check would reject anyway.
                let e_min_x = self.ax[i].min(self.bx[i]);
                let e_max_x = self.ax[i].max(self.bx[i]);
                let e_min_y = self.ay[i].min(self.by[i]);
                let e_max_y = self.ay[i].max(self.by[i]);
                for &(px, py) in chunk {
                    if px < e_min_x - pad
                        || px > e_max_x + pad
                        || py < e_min_y - pad
                        || py > e_max_y + pad
                    {
                        continue;
                    }
                    if self.entry_dist(i, px, py) <= max_dist_m {
                        out.push(self.ids[i]);
                        break;
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Pushes indices of entries whose MBR intersects the planar rect (the
    /// corridor query needs coordinates for refinement).
    fn rect_entries_into(
        &self,
        min_x: f64,
        min_y: f64,
        max_x: f64,
        max_y: f64,
        out: &mut Vec<u32>,
        stack: &mut Vec<u32>,
        stats: &mut SpatialStats,
    ) {
        stack.clear();
        stack.push(self.root);
        while let Some(ni) = stack.pop() {
            stats.nodes_visited += 1;
            let node = self.nodes[ni as usize];
            if node.min_x > max_x || node.max_x < min_x || node.min_y > max_y || node.max_y < min_y
            {
                continue;
            }
            if node.leaf {
                stats.leaves_scanned += 1;
                for i in node.first..node.first + node.count {
                    let iu = i as usize;
                    let (e_min_x, e_max_x) =
                        (self.ax[iu].min(self.bx[iu]), self.ax[iu].max(self.bx[iu]));
                    let (e_min_y, e_max_y) =
                        (self.ay[iu].min(self.by[iu]), self.ay[iu].max(self.by[iu]));
                    if e_min_x <= max_x && e_max_x >= min_x && e_min_y <= max_y && e_max_y >= min_y
                    {
                        out.push(i);
                    }
                }
            } else {
                for c in node.first..node.first + node.count {
                    stack.push(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    fn ring(n: usize, radius_m: f64) -> Vec<(u32, GeoPoint)> {
        (0..n)
            .map(|i| {
                let bearing = 360.0 * i as f64 / n as f64; // cast-ok: small test sizes
                (i as u32, base().destination(bearing, radius_m)) // cast-ok: small test sizes
            })
            .collect()
    }

    #[test]
    fn empty_tree_queries_are_empty() {
        let tree: RTree<u32> = RTree::build_points(std::iter::empty());
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(tree.within_radius(&base(), 1_000.0).is_empty());
        assert!(tree.nearest(&base()).is_none());
        assert!(tree.k_nearest_within(&base(), 3, f64::INFINITY).is_empty());
        let mut out = Vec::new();
        let mut stats = SpatialStats::default();
        tree.along_into(&[base()], 100.0, &mut out, &mut stats);
        assert!(out.is_empty());
    }

    #[test]
    fn within_radius_sorted_by_distance_then_id() {
        let tree = RTree::build_points(ring(40, 500.0).into_iter().chain(ring(8, 2_000.0)));
        let hits = tree.within_radius(&base(), 1_000.0);
        assert_eq!(hits.len(), 40);
        for w in hits.windows(2) {
            assert!(
                w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "hits not (distance, id) sorted: {w:?}"
            );
        }
    }

    #[test]
    fn build_order_does_not_change_results() {
        let mut items = ring(64, 800.0);
        let forward = RTree::build_points(items.iter().copied());
        items.reverse();
        let backward = RTree::build_points(items.iter().copied());
        let q = base().destination(45.0, 300.0);
        assert_eq!(forward.within_radius(&q, 900.0), backward.within_radius(&q, 900.0));
        assert_eq!(
            forward.k_nearest_within(&q, 7, f64::INFINITY),
            backward.k_nearest_within(&q, 7, f64::INFINITY)
        );
    }

    #[test]
    fn nearest_prefers_smaller_id_on_ties() {
        // Two entries at the exact same location: the smaller id must win.
        let p = base().destination(10.0, 100.0);
        let tree = RTree::build_points(vec![(7u32, p), (3u32, p)]);
        let (id, _) = tree.nearest(&base()).unwrap();
        assert_eq!(id, 3);
    }

    #[test]
    fn segment_entries_refine_to_exact_distance() {
        let a = base().destination(90.0, 1_000.0);
        let b = base().destination(90.0, 2_000.0);
        let tree = RTree::build_segments(vec![(1u32, a, b)]);
        // Query sits abreast of the segment interior: distance is the
        // perpendicular drop, not the distance to either endpoint.
        let q = base().destination(90.0, 1_500.0).destination(0.0, 200.0);
        let hits = tree.within_radius(&q, 300.0);
        assert_eq!(hits.len(), 1);
        assert!((hits[0].1 - 200.0).abs() < 2.0, "got {}", hits[0].1);
        // Far off the end: distance refines to the endpoint.
        let q_end = base().destination(90.0, 2_500.0);
        let d = tree.nearest(&q_end).unwrap().1;
        assert!((d - 500.0).abs() < 2.0, "got {d}");
    }

    #[test]
    fn along_matches_per_probe_union() {
        let items = ring(60, 900.0);
        let tree = RTree::build_points(items.clone());
        let path: Vec<GeoPoint> =
            (0..10).map(|i| base().destination(90.0, 150.0 * i as f64)).collect(); // cast-ok: small test sizes
        let cap = 650.0;
        let mut got = Vec::new();
        let mut stats = SpatialStats::default();
        tree.along_into(&path, cap, &mut got, &mut stats);
        let mut want: Vec<u32> = Vec::new();
        for p in &path {
            for (id, _) in tree.within_radius(p, cap) {
                want.push(id);
            }
        }
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
        assert!(stats.nodes_visited > 0 && stats.candidates_refined > 0);
    }

    #[test]
    fn spatial_index_kind_round_trips() {
        assert_eq!("rtree".parse::<SpatialIndexKind>().unwrap(), SpatialIndexKind::Rtree);
        assert_eq!("grid".parse::<SpatialIndexKind>().unwrap(), SpatialIndexKind::Grid);
        assert!("quadtree".parse::<SpatialIndexKind>().is_err());
        assert_eq!(SpatialIndexKind::default(), SpatialIndexKind::Rtree);
        assert_eq!(SpatialIndexKind::Rtree.to_string(), "rtree");
        assert_eq!(SpatialIndexKind::Grid.to_string(), "grid");
    }
}
