//! A uniform-grid spatial index for point sets.
//!
//! The paper's pipelines repeatedly ask "which landmarks/POIs/road vertices
//! lie within r metres of here?" over hundreds of thousands of points. A
//! uniform grid with cell size ≈ the typical query radius answers these in
//! O(points-in-neighbourhood) and is trivially correct, which we favour over
//! a more elaborate tree structure.

use crate::{BoundingBox, GeoPoint, LocalFrame};

/// A uniform grid over a bounding box, indexing items by their location.
///
/// `T` is a caller-chosen id (typically a `usize` or newtype index into an
/// external arena).
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    frame: LocalFrame,
    cell_m: f64,
    cols: usize,
    rows: usize,
    min_x: f64,
    min_y: f64,
    cells: Vec<Vec<(T, GeoPoint)>>,
    len: usize,
}

impl<T: Copy> GridIndex<T> {
    /// Creates an index covering `bbox` with square cells of `cell_m` metres.
    ///
    /// # Panics
    /// Panics if `cell_m` is not strictly positive.
    pub fn new(bbox: BoundingBox, cell_m: f64) -> Self {
        assert!(cell_m > 0.0, "cell size must be positive");
        let frame = LocalFrame::new(bbox.center());
        let (min_x, min_y) = frame.to_xy(&GeoPoint { lat: bbox.min_lat, lon: bbox.min_lon });
        let (max_x, max_y) = frame.to_xy(&GeoPoint { lat: bbox.max_lat, lon: bbox.max_lon });
        let cols = (((max_x - min_x) / cell_m).ceil() as usize).max(1);
        let rows = (((max_y - min_y) / cell_m).ceil() as usize).max(1);
        Self {
            frame,
            cell_m,
            cols,
            rows,
            min_x,
            min_y,
            cells: vec![Vec::new(); cols * rows],
            len: 0,
        }
    }

    /// Builds an index from `(id, point)` pairs, sizing the box to fit.
    pub fn build(items: impl IntoIterator<Item = (T, GeoPoint)>, cell_m: f64) -> Self {
        let items: Vec<(T, GeoPoint)> = items.into_iter().collect();
        let pts: Vec<GeoPoint> = items.iter().map(|(_, p)| *p).collect();
        let bbox = BoundingBox::enclosing(&pts)
            .unwrap_or(BoundingBox::new(GeoPoint::new(0.0, 0.0), GeoPoint::new(0.0, 0.0)))
            .inflate(1e-4);
        let mut idx = Self::new(bbox, cell_m);
        for (id, p) in items {
            idx.insert(id, p);
        }
        idx
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn cell_of(&self, p: &GeoPoint) -> (usize, usize) {
        let (x, y) = self.frame.to_xy(p);
        let cx = (((x - self.min_x) / self.cell_m).floor() as i64).clamp(0, self.cols as i64 - 1);
        let cy = (((y - self.min_y) / self.cell_m).floor() as i64).clamp(0, self.rows as i64 - 1);
        (cx as usize, cy as usize)
    }

    /// Inserts an item. Points outside the original box are clamped into the
    /// border cells (they remain findable, with slightly larger scan cost).
    pub fn insert(&mut self, id: T, p: GeoPoint) {
        let (cx, cy) = self.cell_of(&p);
        self.cells[cy * self.cols + cx].push((id, p));
        self.len += 1;
    }

    /// All items within `radius_m` metres of `q`, with their distances.
    pub fn within_radius(&self, q: &GeoPoint, radius_m: f64) -> Vec<(T, f64)> {
        let mut out = Vec::new();
        self.within_radius_into(q, radius_m, &mut out);
        out
    }

    /// Zero-alloc variant of [`GridIndex::within_radius`]: clears and fills
    /// `out` (in cell-scan order, like `within_radius`), so hot loops can
    /// reuse one scratch vector across many probe points.
    pub fn within_radius_into(&self, q: &GeoPoint, radius_m: f64, out: &mut Vec<(T, f64)>) {
        out.clear();
        let (cx, cy) = self.cell_of(q);
        let reach = (radius_m / self.cell_m).ceil() as i64 + 1;
        for dy in -reach..=reach {
            let yy = cy as i64 + dy;
            if yy < 0 || yy >= self.rows as i64 {
                continue;
            }
            for dx in -reach..=reach {
                let xx = cx as i64 + dx;
                if xx < 0 || xx >= self.cols as i64 {
                    continue;
                }
                for (id, p) in &self.cells[yy as usize * self.cols + xx as usize] {
                    let d = self.frame.dist_m(q, p);
                    if d <= radius_m {
                        out.push((*id, d));
                    }
                }
            }
        }
    }

    /// The nearest item to `q`, if any, expanding the ring search until found.
    pub fn nearest(&self, q: &GeoPoint) -> Option<(T, f64)> {
        if self.len == 0 {
            return None;
        }
        let (cx, cy) = self.cell_of(q);
        let max_reach = self.cols.max(self.rows) as i64;
        let mut best: Option<(T, f64)> = None;
        for reach in 0..=max_reach {
            // Scan the square ring at distance `reach`.
            for dy in -reach..=reach {
                for dx in -reach..=reach {
                    if dx.abs() != reach && dy.abs() != reach {
                        continue; // interior already scanned in earlier rings
                    }
                    let (xx, yy) = (cx as i64 + dx, cy as i64 + dy);
                    if xx < 0 || yy < 0 || xx >= self.cols as i64 || yy >= self.rows as i64 {
                        continue;
                    }
                    for (id, p) in &self.cells[yy as usize * self.cols + xx as usize] {
                        let d = self.frame.dist_m(q, p);
                        if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                            best = Some((*id, d));
                        }
                    }
                }
            }
            // Once something is found, one extra ring guarantees correctness
            // (a closer point can hide in the next ring's corner only).
            if let Some((_, bd)) = best {
                if bd <= (reach as f64) * self.cell_m {
                    break;
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    fn grid_with_line_of_points() -> GridIndex<usize> {
        // Points every 100 m going east.
        let items: Vec<(usize, GeoPoint)> =
            (0..50).map(|i| (i, base().destination(90.0, 100.0 * i as f64))).collect();
        GridIndex::build(items, 250.0)
    }

    #[test]
    fn within_radius_counts_expected_points() {
        let g = grid_with_line_of_points();
        let hits = g.within_radius(&base(), 450.0);
        // Points at 0, 100, 200, 300, 400 m.
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|(_, d)| *d <= 450.0));
    }

    #[test]
    fn within_radius_empty_when_far() {
        let g = grid_with_line_of_points();
        let far = base().destination(0.0, 100_000.0);
        assert!(g.within_radius(&far, 500.0).is_empty());
    }

    #[test]
    fn nearest_finds_true_nearest() {
        let g = grid_with_line_of_points();
        let q = base().destination(90.0, 1_730.0);
        let (id, d) = g.nearest(&q).unwrap();
        assert_eq!(id, 17); // 1700 m point is 30 m away
        assert!((d - 30.0).abs() < 1.0);
    }

    #[test]
    fn nearest_on_empty_is_none() {
        let g: GridIndex<usize> = GridIndex::build(Vec::new(), 100.0);
        assert!(g.nearest(&base()).is_none());
    }

    #[test]
    fn nearest_works_for_far_query_outside_box() {
        let g = grid_with_line_of_points();
        let q = base().destination(270.0, 5_000.0); // far west of all points
        let (id, _) = g.nearest(&q).unwrap();
        assert_eq!(id, 0);
    }

    #[test]
    fn insert_outside_box_is_still_findable() {
        let mut g =
            GridIndex::new(BoundingBox::new(base(), base().destination(45.0, 1000.0)), 100.0);
        let outside = base().destination(225.0, 3_000.0);
        g.insert(99usize, outside);
        let (id, d) = g.nearest(&outside).unwrap();
        assert_eq!(id, 99);
        // Clamped into a border cell: the stored point is exact, distance 0.
        assert!(d < 1e-6);
    }
}
