//! Popular routes and historical feature maps — the "common behaviour"
//! substrate that feature selection (Sec. V) compares against.
//!
//! * [`PopularRoutes`] — mines the most popular historical route `PR`
//!   between two landmarks (Sec. V-A, after Chen et al.'s popular-route
//!   work, the paper's reference \[7\]): exact most-frequent sub-route when
//!   the corpus has enough direct support, otherwise a maximum-probability
//!   walk over the landmark transfer graph.
//! * [`HistoricalFeatureMap`] — Sec. V-B verbatim: a directed graph over
//!   landmarks where each edge `(lᵢ → lⱼ)` is annotated with the average
//!   value of every moving feature observed on trajectories travelling that
//!   hop; [`HistoricalFeatureMap::regular_value`] is the `r_{lᵢ→lⱼ}` of the
//!   paper's irregular-rate formula. Training fills a
//!   [`FeatureMapBuilder`] and freezes it.

pub mod featmap;
pub mod popular;

pub use featmap::{FeatureMapBuilder, FeatureMapError, FeatureMapParts, HistoricalFeatureMap};
pub use popular::{PartsError, PopularRouteConfig, PopularRoutes, PopularRoutesParts};
