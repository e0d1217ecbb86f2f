//! Dijkstra path search over the road graph.
//!
//! Two cost models are supported:
//! * [`PathCost::Distance`] — metres; the geometric shortest path.
//! * [`PathCost::TravelTime`] — seconds at per-grade free-flow speeds; this is
//!   what synthetic drivers use, which makes high-grade roads attract traffic
//!   and *popular routes* emerge exactly as on a real map.

use crate::network::{EdgeId, NodeId, RoadEdge, RoadNetwork};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Cost model for path search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathCost {
    /// Minimize geometric length (metres).
    Distance,
    /// Minimize free-flow travel time (seconds).
    TravelTime,
}

impl PathCost {
    fn edge_cost(self, edge: &RoadEdge) -> f64 {
        match self {
            PathCost::Distance => edge.length_m,
            PathCost::TravelTime => edge.free_flow_secs(),
        }
    }
}

/// A path through the network: the node sequence and the edges between them.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePath {
    /// Visited nodes, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Edges traversed; `edges[i]` connects `nodes[i]` to `nodes[i+1]`.
    pub edges: Vec<EdgeId>,
    /// Total cost under the requested model.
    pub cost: f64,
}

impl RoutePath {
    /// Total geometric length of the path in metres.
    pub fn length_m(&self, net: &RoadNetwork) -> f64 {
        self.edges.iter().map(|e| net.edge(*e).length_m).sum()
    }
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; ties broken by node id for determinism. total_cmp
        // keeps the heap ordering a real total order even if a NaN cost ever
        // slipped in (partial_cmp-with-Equal-fallback silently corrupts it).
        other.cost.total_cmp(&self.cost).then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra search from `src` to `dst` under the given cost model.
///
/// Returns `None` when `dst` is unreachable (possible with one-way roads).
/// A one-shot [`PathSearch`]; callers running many searches on one network
/// should keep a `PathSearch` instead.
pub fn shortest_path(
    net: &RoadNetwork,
    src: NodeId,
    dst: NodeId,
    cost_model: PathCost,
) -> Option<RoutePath> {
    PathSearch::new(net, cost_model).shortest_path(src, dst)
}

/// Reusable Dijkstra over one network under one cost model.
///
/// Edge costs are computed once, into a column indexed by [`EdgeId`]. The
/// per-node labels and the heap are kept between searches. A search from
/// the previous search's source resumes where that one paused, settling
/// more nodes only until its destination is done, so callers that group
/// their queries by source settle each source's tree once. A new source
/// resets only the nodes the old one touched, so a search costs what it
/// explores rather than the size of the network.
#[derive(Debug)]
pub struct PathSearch<'a> {
    net: &'a RoadNetwork,
    edge_cost: Vec<f64>,
    g: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    done: Vec<bool>,
    /// Nodes whose labels the current source's search set.
    touched: Vec<usize>,
    heap: BinaryHeap<HeapEntry>,
    /// The source whose labels `g`, `prev` and `done` hold.
    source: Option<NodeId>,
}

impl<'a> PathSearch<'a> {
    /// Prepares searches over `net` under `cost_model`.
    pub fn new(net: &'a RoadNetwork, cost_model: PathCost) -> Self {
        let n = net.node_count();
        Self {
            net,
            edge_cost: net.edges().iter().map(|e| cost_model.edge_cost(e)).collect(),
            g: vec![f64::INFINITY; n],
            prev: vec![None; n],
            done: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            source: None,
        }
    }

    /// Cheapest path from `src` to `dst`; `None` when `dst` is unreachable
    /// or either node is outside the network. Ties resolve the same way in
    /// every search: the heap pops `(cost, node)` in ascending order and a
    /// label only improves on a strictly lower cost.
    ///
    /// When `src` is the previous call's source the search resumes: a
    /// settled `dst` is answered from the labels, otherwise popping goes on
    /// until `dst` is settled. Each popped node is relaxed before `dst` is
    /// checked, so a pause falls between two pops and the pop sequence is
    /// that of one uninterrupted Dijkstra. A settled node's label and
    /// predecessor are final, so every path equals a fresh search's.
    pub fn shortest_path(&mut self, src: NodeId, dst: NodeId) -> Option<RoutePath> {
        let n = self.g.len();
        if src.0 as usize >= n || dst.0 as usize >= n {
            return None;
        }
        if src == dst {
            return Some(RoutePath { nodes: vec![src], edges: vec![], cost: 0.0 });
        }
        if self.source != Some(src) {
            for i in self.touched.drain(..) {
                self.g[i] = f64::INFINITY;
                self.prev[i] = None;
                self.done[i] = false;
            }
            self.heap.clear();
            self.g[src.0 as usize] = 0.0;
            self.touched.push(src.0 as usize);
            self.heap.push(HeapEntry { cost: 0.0, node: src });
            self.source = Some(src);
        }

        while !self.done[dst.0 as usize] {
            let Some(HeapEntry { cost: _, node }) = self.heap.pop() else {
                break;
            };
            let ni = node.0 as usize;
            if self.done[ni] {
                continue;
            }
            self.done[ni] = true;
            for &(e, next) in self.net.neighbors(node) {
                let nxt = next.0 as usize;
                if self.done[nxt] {
                    continue;
                }
                let ng = self.g[ni] + self.edge_cost[e.0 as usize];
                if ng < self.g[nxt] {
                    if self.g[nxt].is_infinite() {
                        self.touched.push(nxt);
                    }
                    self.g[nxt] = ng;
                    self.prev[nxt] = Some((node, e));
                    self.heap.push(HeapEntry { cost: ng, node: next });
                }
            }
        }

        if !self.done[dst.0 as usize] {
            return None;
        }
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while let Some((p, e)) = self.prev[cur.0 as usize] {
            edges.push(e);
            nodes.push(p);
            cur = p;
            if cur == src {
                break;
            }
        }
        nodes.reverse();
        edges.reverse();
        Some(RoutePath { nodes, edges, cost: self.g[dst.0 as usize] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Direction, RoadGrade};
    use stmaker_geo::GeoPoint;

    /// A 3x3 grid of nodes, 500 m spacing, all two-way county roads, except a
    /// fast express road along the top row.
    fn grid_net() -> (RoadNetwork, Vec<NodeId>) {
        let mut net = RoadNetwork::new();
        let base = GeoPoint::new(39.9, 116.4);
        let mut ids = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                let p = base.destination(90.0, 500.0 * c as f64).destination(0.0, 500.0 * r as f64);
                ids.push(net.add_node(p));
            }
        }
        let at = |r: usize, c: usize| ids[r * 3 + c];
        for r in 0..3 {
            for c in 0..2 {
                let grade = if r == 2 { RoadGrade::Express } else { RoadGrade::County };
                net.add_edge(at(r, c), at(r, c + 1), grade, 9.0, Direction::TwoWay, "h");
            }
        }
        for r in 0..2 {
            for c in 0..3 {
                net.add_edge(
                    at(r, c),
                    at(r + 1, c),
                    RoadGrade::County,
                    9.0,
                    Direction::TwoWay,
                    "v",
                );
            }
        }
        (net, ids)
    }

    #[test]
    fn trivial_path_same_node() {
        let (net, ids) = grid_net();
        let p = shortest_path(&net, ids[0], ids[0], PathCost::Distance).unwrap();
        assert_eq!(p.nodes, vec![ids[0]]);
        assert!(p.edges.is_empty());
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn shortest_distance_is_manhattan() {
        let (net, ids) = grid_net();
        let p = shortest_path(&net, ids[0], ids[8], PathCost::Distance).unwrap();
        assert!((p.cost - 2000.0).abs() < 2.0, "cost {}", p.cost);
        assert_eq!(p.edges.len(), 4);
        // Edge/node sequences are consistent.
        assert_eq!(p.nodes.len(), p.edges.len() + 1);
        for (i, e) in p.edges.iter().enumerate() {
            let edge = net.edge(*e);
            let (a, b) = (p.nodes[i], p.nodes[i + 1]);
            assert!(
                (edge.from == a && edge.to == b) || (edge.from == b && edge.to == a),
                "edge {i} does not connect consecutive nodes"
            );
        }
    }

    #[test]
    fn travel_time_prefers_express_detour() {
        let (net, ids) = grid_net();
        // From bottom-left (r0,c0) to bottom-right (r0,c2): direct county route
        // is 1000 m @40 km/h = 90 s. Detour via top express row costs
        // 2*1000 m county vertical (180 s) + 1000 m @80 (45 s) = 225 s — worse.
        // So here Dijkstra keeps the direct route; but top-row trips use express.
        let p = shortest_path(&net, ids[0], ids[2], PathCost::TravelTime).unwrap();
        assert_eq!(p.edges.len(), 2);
        let top = shortest_path(&net, ids[6], ids[8], PathCost::TravelTime).unwrap();
        let secs_top = top.cost;
        assert!(secs_top < p.cost, "express row must be faster: {secs_top} vs {}", p.cost);
    }

    #[test]
    fn one_way_makes_node_unreachable() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(GeoPoint::new(39.9, 116.40));
        let b = net.add_node(GeoPoint::new(39.9, 116.41));
        net.add_edge(a, b, RoadGrade::Feeder, 4.0, Direction::OneWay, "x");
        assert!(shortest_path(&net, a, b, PathCost::Distance).is_some());
        assert!(shortest_path(&net, b, a, PathCost::Distance).is_none());
    }

    #[test]
    fn reused_search_matches_one_shot_searches() {
        let (net, ids) = grid_net();
        for model in [PathCost::Distance, PathCost::TravelTime] {
            let mut search = PathSearch::new(&net, model);
            for &src in &ids {
                for &dst in ids.iter().rev() {
                    assert_eq!(
                        search.shortest_path(src, dst),
                        shortest_path(&net, src, dst, model)
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_nodes_yield_none() {
        let (net, ids) = grid_net();
        assert!(shortest_path(&net, ids[0], NodeId(999), PathCost::Distance).is_none());
    }
}
