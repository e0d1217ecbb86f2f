//! DBSCAN over geographic points.
//!
//! A faithful implementation of Ester et al. (KDD'96), the algorithm the
//! paper uses to collapse ~510k raw POIs into ~17k landmark clusters
//! (Sec. VII-A). Neighbourhood queries run against a flat uniform grid with
//! ε-sized cells, so the expected complexity is O(n · points-per-ε-ball).
//!
//! The grid is built once per call: every point is projected into a local
//! planar frame a single time, and the point indices are counting-sorted by
//! cell into one array, so the cells of a grid row are one contiguous run
//! and a query scans five runs with no allocation. Frame, cell arithmetic
//! and the `sqrt(dx² + dy²) <= ε` test are those of
//! [`stmaker_geo::GridIndex`], so the ε-neighbourhoods are exactly the
//! ones a `GridIndex` query returns. Labels depend only on which points
//! are neighbours and on the outer scan order over points, never on the
//! order neighbours are visited within one cluster expansion.

use stmaker_geo::{BoundingBox, GeoPoint, LocalFrame};

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy)]
pub struct DbscanParams {
    /// ε-neighbourhood radius in metres.
    pub eps_m: f64,
    /// Minimum neighbourhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Default for DbscanParams {
    fn default() -> Self {
        // POIs within 150 m merge into one landmark; 3 POIs make a cluster.
        Self { eps_m: 150.0, min_pts: 3 }
    }
}

/// Cluster assignment: `Some(cluster)` or `None` for noise.
pub type Assignment = Option<usize>;

/// Runs DBSCAN on `points`, returning per-point assignments and the number of
/// clusters found. Noise points get `None`.
pub fn dbscan(points: &[GeoPoint], params: DbscanParams) -> (Vec<Assignment>, usize) {
    assert!(params.eps_m > 0.0, "eps must be positive");
    assert!(params.min_pts >= 1, "min_pts must be at least 1");
    let n = points.len();
    if n == 0 {
        return (Vec::new(), 0);
    }

    let grid = FlatGrid::build(points, params.eps_m);

    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;
    let mut label = vec![UNVISITED; n];
    let mut cluster = 0usize;
    let mut nbrs: Vec<usize> = Vec::new();
    let mut queue: Vec<usize> = Vec::new();

    for i in 0..n {
        if label[i] != UNVISITED {
            continue;
        }
        grid.neighbours(i, &mut nbrs);
        if nbrs.len() < params.min_pts {
            label[i] = NOISE;
            continue;
        }
        // i is a core point: start a new cluster and expand it.
        label[i] = cluster;
        queue.clear();
        queue.extend_from_slice(&nbrs);
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            if label[j] == NOISE {
                label[j] = cluster; // border point reached from a core
            }
            if label[j] != UNVISITED {
                continue;
            }
            label[j] = cluster;
            grid.neighbours(j, &mut nbrs);
            if nbrs.len() >= params.min_pts {
                queue.extend_from_slice(&nbrs);
            }
        }
        cluster += 1;
    }

    let assignments = label
        .into_iter()
        .map(|l| if l == NOISE || l == UNVISITED { None } else { Some(l) })
        .collect();
    (assignments, cluster)
}

/// Points bucketed into square ε cells over their enclosing box, stored
/// flat: `order[start[c]..start[c + 1]]` are the indices of the points in
/// cell `c = row * cols + col`, ascending.
struct FlatGrid {
    eps: f64,
    cols: usize,
    rows: usize,
    /// Each point's planar position in the grid's frame.
    xy: Vec<(f64, f64)>,
    /// Each point's `(col, row)`.
    cell: Vec<(usize, usize)>,
    start: Vec<usize>,
    order: Vec<usize>,
}

impl FlatGrid {
    fn build(points: &[GeoPoint], eps: f64) -> Self {
        let bbox = BoundingBox::enclosing(points)
            .unwrap_or(BoundingBox::new(GeoPoint::new(0.0, 0.0), GeoPoint::new(0.0, 0.0)))
            .inflate(1e-4);
        let frame = LocalFrame::new(bbox.center());
        let (min_x, min_y) = frame.to_xy(&GeoPoint { lat: bbox.min_lat, lon: bbox.min_lon });
        let (max_x, max_y) = frame.to_xy(&GeoPoint { lat: bbox.max_lat, lon: bbox.max_lon });
        let cols = (((max_x - min_x) / eps).ceil() as usize).max(1);
        let rows = (((max_y - min_y) / eps).ceil() as usize).max(1);

        let xy: Vec<(f64, f64)> = points.iter().map(|p| frame.to_xy(p)).collect();
        let cell: Vec<(usize, usize)> = xy
            .iter()
            .map(|&(x, y)| {
                let cx = (((x - min_x) / eps).floor() as i64).clamp(0, cols as i64 - 1);
                let cy = (((y - min_y) / eps).floor() as i64).clamp(0, rows as i64 - 1);
                (cx as usize, cy as usize)
            })
            .collect();
        let mut start = vec![0usize; cols * rows + 1];
        for &(cx, cy) in &cell {
            start[cy * cols + cx + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut next = start.clone();
        let mut order = vec![0usize; points.len()];
        for (i, &(cx, cy)) in cell.iter().enumerate() {
            order[next[cy * cols + cx]] = i;
            next[cy * cols + cx] += 1;
        }
        Self { eps, cols, rows, xy, cell, start, order }
    }

    /// Clears `out` and fills it with every point within ε of point `i`,
    /// `i` included.
    fn neighbours(&self, i: usize, out: &mut Vec<usize>) {
        out.clear();
        let (cx, cy) = self.cell[i];
        let (qx, qy) = self.xy[i];
        // `GridIndex`'s reach for a radius of one cell, ceil(ε / ε) + 1: the
        // spare ring keeps a neighbour that rounding puts two cells over.
        let reach = 2;
        let x0 = cx.saturating_sub(reach);
        let x1 = (cx + reach).min(self.cols - 1);
        for yy in cy.saturating_sub(reach)..=(cy + reach).min(self.rows - 1) {
            let run = self.start[yy * self.cols + x0]..self.start[yy * self.cols + x1 + 1];
            for &j in &self.order[run] {
                let (px, py) = self.xy[j];
                if ((qx - px).powi(2) + (qy - py).powi(2)).sqrt() <= self.eps {
                    out.push(j);
                }
            }
        }
    }
}

/// Geometric centroid of each cluster (index = cluster id).
pub fn centroids(
    points: &[GeoPoint],
    assignments: &[Assignment],
    n_clusters: usize,
) -> Vec<GeoPoint> {
    let mut lat = vec![0.0; n_clusters];
    let mut lon = vec![0.0; n_clusters];
    let mut cnt = vec![0usize; n_clusters];
    for (p, a) in points.iter().zip(assignments) {
        if let Some(c) = a {
            lat[*c] += p.lat;
            lon[*c] += p.lon;
            cnt[*c] += 1;
        }
    }
    (0..n_clusters)
        .map(|c| GeoPoint { lat: lat[c] / cnt[c] as f64, lon: lon[c] / cnt[c] as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> GeoPoint {
        GeoPoint::new(39.9, 116.4)
    }

    /// A blob of `n` points within `radius_m` of `center`, deterministic.
    fn blob(center: GeoPoint, n: usize, radius_m: f64) -> Vec<GeoPoint> {
        (0..n)
            .map(|i| {
                let ang = 360.0 * (i as f64) / (n as f64);
                let r = radius_m * ((i % 5) as f64 + 1.0) / 5.0;
                center.destination(ang, r)
            })
            .collect()
    }

    #[test]
    fn two_far_blobs_give_two_clusters() {
        let mut pts = blob(base(), 12, 60.0);
        pts.extend(blob(base().destination(90.0, 5_000.0), 12, 60.0));
        let (assign, k) = dbscan(&pts, DbscanParams { eps_m: 150.0, min_pts: 3 });
        assert_eq!(k, 2);
        // First blob all one cluster, second all the other.
        let c0 = assign[0].unwrap();
        assert!(assign[..12].iter().all(|a| *a == Some(c0)));
        let c1 = assign[12].unwrap();
        assert_ne!(c0, c1);
        assert!(assign[12..].iter().all(|a| *a == Some(c1)));
    }

    #[test]
    fn isolated_points_are_noise() {
        let mut pts = blob(base(), 10, 50.0);
        pts.push(base().destination(45.0, 10_000.0));
        let (assign, k) = dbscan(&pts, DbscanParams::default());
        assert_eq!(k, 1);
        assert_eq!(assign.last().unwrap(), &None);
    }

    #[test]
    fn min_pts_one_makes_every_point_a_cluster() {
        let pts = vec![base(), base().destination(90.0, 10_000.0)];
        let (assign, k) = dbscan(&pts, DbscanParams { eps_m: 100.0, min_pts: 1 });
        assert_eq!(k, 2);
        assert!(assign.iter().all(|a| a.is_some()));
    }

    #[test]
    fn chain_merges_through_density() {
        // A chain of points 100 m apart with eps 150: all density-connected.
        let pts: Vec<GeoPoint> =
            (0..20).map(|i| base().destination(90.0, 100.0 * i as f64)).collect();
        let (assign, k) = dbscan(&pts, DbscanParams { eps_m: 150.0, min_pts: 2 });
        assert_eq!(k, 1);
        assert!(assign.iter().all(|a| *a == Some(0)));
    }

    #[test]
    fn empty_input() {
        let (assign, k) = dbscan(&[], DbscanParams::default());
        assert!(assign.is_empty());
        assert_eq!(k, 0);
    }

    #[test]
    fn centroids_are_inside_their_blob() {
        let c1 = base();
        let c2 = base().destination(90.0, 5_000.0);
        let mut pts = blob(c1, 15, 80.0);
        pts.extend(blob(c2, 15, 80.0));
        let (assign, k) = dbscan(&pts, DbscanParams::default());
        let cents = centroids(&pts, &assign, k);
        assert_eq!(cents.len(), 2);
        // Each centroid is within the blob radius of its true centre.
        let d1 = cents.iter().map(|c| c.haversine_m(&c1)).fold(f64::MAX, f64::min);
        let d2 = cents.iter().map(|c| c.haversine_m(&c2)).fold(f64::MAX, f64::min);
        assert!(d1 < 80.0, "{d1}");
        assert!(d2 < 80.0, "{d2}");
    }

    #[test]
    fn border_point_is_claimed_not_noise() {
        // Dense core plus one border point within eps of a single core point.
        let mut pts = blob(base(), 8, 40.0);
        pts.push(base().destination(90.0, 140.0)); // within 150 m of centre area
        let (assign, _) = dbscan(&pts, DbscanParams { eps_m: 150.0, min_pts: 4 });
        assert!(assign.last().unwrap().is_some(), "border point should join the cluster");
    }
}
