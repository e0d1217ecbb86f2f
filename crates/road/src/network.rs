//! The road-network graph: intersections, roads and direction-aware adjacency.

use crate::types::{Direction, RoadGrade};
use serde::{Deserialize, Serialize};
use stmaker_geo::{GeoPoint, GridIndex, Polyline, RTree};

/// Index of a [`RoadNode`] within its [`RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a [`RoadEdge`] within its [`RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

/// An intersection / vertex of the road graph.
///
/// Every node is a *turning point* in the paper's sense — a stable geographic
/// point usable as a landmark anchor (Definition 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNode {
    pub id: NodeId,
    pub point: GeoPoint,
}

/// A road connecting two intersections, carrying the three routing features
/// of Sec. III-A (grade, width, direction) plus geometry and a display name.
///
/// A [`Direction::TwoWay`] edge is traversable in both directions; a
/// [`Direction::OneWay`] edge only from `from` to `to`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadEdge {
    pub id: EdgeId,
    pub from: NodeId,
    pub to: NodeId,
    pub grade: RoadGrade,
    /// Paved width in metres (the paper's numeric "road width" feature).
    pub width_m: f64,
    pub direction: Direction,
    /// Display name used in summary templates, e.g. "W 3rd Ring Expressway".
    pub name: String,
    /// Edge geometry from `from` to `to`.
    pub geometry: Polyline,
    /// Cached geometric length in metres.
    pub length_m: f64,
}

impl RoadEdge {
    /// Free-flow traversal time in seconds for this edge.
    pub fn free_flow_secs(&self) -> f64 {
        self.length_m / (self.grade.free_flow_kmh() / 3.6)
    }
}

/// The city road graph.
///
/// Adjacency honours one-way restrictions: `neighbors(n)` yields `(edge,
/// other-node)` pairs only for legally traversable directions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<RoadNode>,
    edges: Vec<RoadEdge>,
    /// Outgoing adjacency per node (direction-aware).
    adj: Vec<Vec<(EdgeId, NodeId)>>,
}

impl RoadNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an intersection at `point` and returns its id.
    pub fn add_node(&mut self, point: GeoPoint) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(RoadNode { id, point });
        self.adj.push(Vec::new());
        id
    }

    /// Adds a straight road between `from` and `to` with the given attributes.
    ///
    /// # Panics
    /// Panics if either node id is out of range or the endpoints coincide.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        grade: RoadGrade,
        width_m: f64,
        direction: Direction,
        name: impl Into<String>,
    ) -> EdgeId {
        assert!(from != to, "self-loop roads are not supported");
        let a = self.node(from).point;
        let b = self.node(to).point;
        let geometry = Polyline::new(vec![a, b]);
        self.add_edge_with_geometry(from, to, grade, width_m, direction, name, geometry)
    }

    /// Adds a road with explicit (possibly curved) geometry.
    #[allow(clippy::too_many_arguments)] // mirrors the RoadEdge fields one-to-one
    pub fn add_edge_with_geometry(
        &mut self,
        from: NodeId,
        to: NodeId,
        grade: RoadGrade,
        width_m: f64,
        direction: Direction,
        name: impl Into<String>,
        geometry: Polyline,
    ) -> EdgeId {
        assert!((from.0 as usize) < self.nodes.len(), "from node out of range");
        assert!((to.0 as usize) < self.nodes.len(), "to node out of range");
        let id = EdgeId(self.edges.len() as u32);
        let length_m = geometry.length_m();
        self.edges.push(RoadEdge {
            id,
            from,
            to,
            grade,
            width_m,
            direction,
            name: name.into(),
            geometry,
            length_m,
        });
        self.adj[from.0 as usize].push((id, to));
        if direction == Direction::TwoWay {
            self.adj[to.0 as usize].push((id, from));
        }
        id
    }

    /// Node accessor. Panics on out-of-range ids (ids are created by this
    /// network, so that is a programming error).
    pub fn node(&self, id: NodeId) -> &RoadNode {
        &self.nodes[id.0 as usize]
    }

    /// Edge accessor.
    pub fn edge(&self, id: EdgeId) -> &RoadEdge {
        &self.edges[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[RoadNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[RoadEdge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Legal outgoing `(edge, neighbour)` pairs from `n`.
    pub fn neighbors(&self, n: NodeId) -> &[(EdgeId, NodeId)] {
        &self.adj[n.0 as usize]
    }

    /// Builds a spatial index of edge geometry samples for nearest-edge
    /// queries (used by map matching). Each edge contributes samples every
    /// `sample_m` metres along its geometry.
    pub fn edge_index(&self, sample_m: f64) -> GridIndex<EdgeId> {
        let mut items = Vec::new();
        for e in &self.edges {
            let rs = e.geometry.resample(sample_m);
            for p in rs.points() {
                items.push((e.id, *p));
            }
        }
        GridIndex::build(items, sample_m.max(50.0))
    }

    /// Builds a packed R-tree over the network's edge geometry, one segment
    /// entry per polyline leg, for exact nearest-edge candidate queries (no
    /// resampling: distances refine against the true segment geometry).
    pub fn edge_segment_rtree(&self) -> RTree<EdgeId> {
        let mut items = Vec::new();
        for e in &self.edges {
            let pts = e.geometry.points();
            if pts.len() == 1 {
                items.push((e.id, pts[0], pts[0]));
            }
            for w in pts.windows(2) {
                items.push((e.id, w[0], w[1]));
            }
        }
        RTree::build_segments(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    fn tiny_net() -> (RoadNetwork, [NodeId; 3], [EdgeId; 2]) {
        // a --(two-way)-- b --(one-way b->c)-- c
        let mut net = RoadNetwork::new();
        let a = net.add_node(p(39.90, 116.40));
        let b = net.add_node(p(39.90, 116.41));
        let c = net.add_node(p(39.90, 116.42));
        let e1 = net.add_edge(a, b, RoadGrade::National, 16.0, Direction::TwoWay, "Main St");
        let e2 = net.add_edge(b, c, RoadGrade::Feeder, 4.5, Direction::OneWay, "Alley");
        (net, [a, b, c], [e1, e2])
    }

    #[test]
    fn adjacency_respects_one_way() {
        let (net, [a, b, c], [e1, e2]) = tiny_net();
        assert_eq!(net.neighbors(a), &[(e1, b)]);
        assert_eq!(net.neighbors(b), &[(e1, a), (e2, c)]);
        assert!(net.neighbors(c).is_empty(), "one-way edge must not be reversible");
    }

    #[test]
    fn edge_length_cached_from_geometry() {
        let (net, _, [e1, _]) = tiny_net();
        let e = net.edge(e1);
        let direct = net.node(e.from).point.haversine_m(&net.node(e.to).point);
        assert!((e.length_m - direct).abs() < 0.01);
        assert!(e.length_m > 800.0); // ~854 m at this latitude
    }

    #[test]
    fn free_flow_secs_uses_grade_speed() {
        let (net, _, [e1, _]) = tiny_net();
        let e = net.edge(e1);
        let expect = e.length_m / (60.0 / 3.6);
        assert!((e.free_flow_secs() - expect).abs() < 1e-9);
    }

    #[test]
    fn edge_index_finds_nearest_edge() {
        let (net, _, [e1, e2]) = tiny_net();
        let idx = net.edge_index(50.0);
        // Query near the middle of edge 1.
        let q = p(39.9002, 116.405);
        let (hit, _) = idx.nearest(&q).unwrap();
        assert_eq!(hit, e1);
        let q2 = p(39.9002, 116.415);
        let (hit2, _) = idx.nearest(&q2).unwrap();
        assert_eq!(hit2, e2);
    }

    #[test]
    fn edge_segment_rtree_refines_against_true_geometry() {
        let (net, _, [e1, e2]) = tiny_net();
        let tree = net.edge_segment_rtree();
        assert_eq!(tree.len(), 2); // one straight segment per edge
        let q = p(39.9002, 116.405);
        let (hit, d) = tree.nearest(&q).unwrap();
        assert_eq!(hit, e1);
        // Perpendicular drop onto the edge interior, not an endpoint: ~22 m.
        assert!(d < 40.0, "expected interior-segment distance, got {d}");
        let (hit2, _) = tree.nearest(&p(39.9002, 116.415)).unwrap();
        assert_eq!(hit2, e2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(p(39.9, 116.4));
        net.add_edge(a, a, RoadGrade::Feeder, 4.0, Direction::TwoWay, "x");
    }
}
