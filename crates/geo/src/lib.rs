//! Geodesy primitives for the `stmaker` trajectory-summarization stack.
//!
//! Everything downstream (road networks, calibration, map matching, feature
//! extraction) is built on the small set of types in this crate:
//!
//! * [`GeoPoint`] — a WGS-84 latitude/longitude pair with haversine distance,
//!   bearings and destination-point computation.
//! * [`LocalFrame`] — an equirectangular local tangent frame so that metric
//!   geometry (projections, interpolation) can be done in flat x/y metres.
//! * [`Polyline`] — an ordered sequence of points with arc-length queries,
//!   point projection and resampling.
//! * [`BoundingBox`] — axis-aligned lat/lon boxes.
//! * [`RTree`] — a packed STR (Sort-Tile-Recursive) R-tree over point and
//!   segment entries, bulk-loaded into flat arrays; the one spatial index,
//!   behind landmark lookup, calibration and map matching ([`SpatialStats`]
//!   counts traversal work).
//!
//! The paper's datasets cover a single city (Beijing), so an equirectangular
//! approximation is accurate to well under a metre across the region of
//! interest — far below GPS noise.

pub mod bbox;
pub mod point;
pub mod polyline;
pub mod rtree;

pub use bbox::BoundingBox;
pub use point::{GeoPoint, LocalFrame, EARTH_RADIUS_M};
pub use polyline::{PolyProjection, Polyline};
pub use rtree::{RTree, SpatialIndexKind, SpatialStats};

/// Normalizes an angle in degrees into `[0, 360)`.
#[inline]
pub fn normalize_deg(mut deg: f64) -> f64 {
    deg %= 360.0;
    if deg < 0.0 {
        deg += 360.0;
    }
    deg
}

/// Smallest absolute difference between two headings, in degrees (`[0, 180]`).
///
/// Used by U-turn detection: a heading change close to 180° within a short
/// travel window is a U-turn.
#[inline]
pub fn heading_diff_deg(a: f64, b: f64) -> f64 {
    let d = (normalize_deg(a) - normalize_deg(b)).abs();
    if d > 180.0 {
        360.0 - d
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_wraps_into_range() {
        assert_eq!(normalize_deg(0.0), 0.0);
        assert_eq!(normalize_deg(360.0), 0.0);
        assert_eq!(normalize_deg(-90.0), 270.0);
        assert_eq!(normalize_deg(720.5), 0.5);
    }

    #[test]
    fn heading_diff_is_symmetric_and_bounded() {
        assert_eq!(heading_diff_deg(10.0, 350.0), 20.0);
        assert_eq!(heading_diff_deg(350.0, 10.0), 20.0);
        assert_eq!(heading_diff_deg(0.0, 180.0), 180.0);
        assert_eq!(heading_diff_deg(90.0, 90.0), 0.0);
    }
}
