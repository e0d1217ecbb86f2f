//! Road-network substrate for the `stmaker` stack.
//!
//! The paper reads its routing features — *grade of road* (seven-level
//! hierarchy, Sec. III-A), *road width* and *traffic direction* — off a
//! commercial map of Beijing. This crate provides the equivalent substrate:
//!
//! * [`RoadNetwork`] — a directed-capable graph of intersections
//!   ([`RoadNode`]) and roads ([`RoadEdge`]) carrying exactly the paper's
//!   three routing attributes plus geometry and display names;
//! * [`pathfind`] — Dijkstra shortest/fastest path search used both by the
//!   synthetic-trajectory generator (drivers pick fastest routes) and by the
//!   popular-route fallback;
//! * [`synth`] — a hierarchical synthetic city builder standing in for the
//!   commercial Beijing map (see DESIGN.md §3 for the substitution argument).

pub mod network;
pub mod pathfind;
pub mod synth;
pub mod types;

pub use network::{EdgeId, NodeId, RoadEdge, RoadNetwork, RoadNode};
pub use pathfind::{PathCost, RoutePath};
pub use synth::{build_city, SynthCityConfig};
pub use types::{Direction, RoadGrade};
