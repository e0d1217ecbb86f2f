//! Dijkstra path search over the road graph.
//!
//! Two cost models are supported:
//! * [`PathCost::Distance`] — metres; the geometric shortest path.
//! * [`PathCost::TravelTime`] — seconds at per-grade free-flow speeds; this is
//!   what synthetic drivers use, which makes high-grade roads attract traffic
//!   and *popular routes* emerge exactly as on a real map.

use crate::network::{EdgeId, NodeId, RoadNetwork};
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
    fn edge_cost(self, net: &RoadNetwork, e: EdgeId) -> f64 {
        let edge = net.edge(e);
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

#[derive(PartialEq)]
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
pub fn shortest_path(
    net: &RoadNetwork,
    src: NodeId,
    dst: NodeId,
    cost_model: PathCost,
) -> Option<RoutePath> {
    let n = net.node_count();
    if src.0 as usize >= n || dst.0 as usize >= n {
        return None;
    }
    if src == dst {
        return Some(RoutePath { nodes: vec![src], edges: vec![], cost: 0.0 });
    }

    let mut g = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut done = vec![false; n];
    g[src.0 as usize] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry { cost: 0.0, node: src });

    while let Some(HeapEntry { cost: _, node }) = heap.pop() {
        let ni = node.0 as usize;
        if done[ni] {
            continue;
        }
        done[ni] = true;
        if node == dst {
            break;
        }
        for &(e, next) in net.neighbors(node) {
            let nxt = next.0 as usize;
            if done[nxt] {
                continue;
            }
            let ng = g[ni] + cost_model.edge_cost(net, e);
            if ng < g[nxt] {
                g[nxt] = ng;
                prev[nxt] = Some((node, e));
                heap.push(HeapEntry { cost: ng, node: next });
            }
        }
    }

    if g[dst.0 as usize].is_infinite() {
        return None;
    }
    let mut nodes = vec![dst];
    let mut edges = Vec::new();
    let mut cur = dst;
    while let Some((p, e)) = prev[cur.0 as usize] {
        edges.push(e);
        nodes.push(p);
        cur = p;
        if cur == src {
            break;
        }
    }
    nodes.reverse();
    edges.reverse();
    Some(RoutePath { nodes, edges, cost: g[dst.0 as usize] })
}

/// Single-source Dijkstra; returns per-node cost (`INFINITY` = unreachable).
pub fn all_costs_from(net: &RoadNetwork, src: NodeId, cost_model: PathCost) -> Vec<f64> {
    let n = net.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    dist[src.0 as usize] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry { cost: 0.0, node: src });
    while let Some(HeapEntry { cost: _, node }) = heap.pop() {
        let ni = node.0 as usize;
        if done[ni] {
            continue;
        }
        done[ni] = true;
        for &(e, next) in net.neighbors(node) {
            let nxt = next.0 as usize;
            let nd = dist[ni] + cost_model.edge_cost(net, e);
            if nd < dist[nxt] {
                dist[nxt] = nd;
                heap.push(HeapEntry { cost: nd, node: next });
            }
        }
    }
    dist
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
    fn all_costs_match_point_queries() {
        let (net, ids) = grid_net();
        let costs = all_costs_from(&net, ids[0], PathCost::Distance);
        for &dst in &ids {
            let p = shortest_path(&net, ids[0], dst, PathCost::Distance).unwrap();
            assert!((costs[dst.0 as usize] - p.cost).abs() < 1e-6);
        }
    }

    #[test]
    fn out_of_range_nodes_yield_none() {
        let (net, ids) = grid_net();
        assert!(shortest_path(&net, ids[0], NodeId(999), PathCost::Distance).is_none());
    }
}
