//! `PathSearch` and `shortest_path` against the Dijkstra they replaced.
//!
//! The reference recomputes each edge cost on every relaxation and
//! allocates fresh labels per search. The reusable search must return the
//! same nodes, edges and cost bits for every source–destination pair,
//! unreachable pairs included, because visit routes feed landmark
//! significance and trip routes feed every generated corpus.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use stmaker_geo::GeoPoint;
use stmaker_road::pathfind::shortest_path;
use stmaker_road::{
    build_city, Direction, EdgeId, NodeId, PathCost, PathSearch, RoadGrade, RoadNetwork, RoutePath,
    SynthCityConfig,
};

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.cost.total_cmp(&self.cost).then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn edge_cost(model: PathCost, net: &RoadNetwork, e: EdgeId) -> f64 {
    let edge = net.edge(e);
    match model {
        PathCost::Distance => edge.length_m,
        PathCost::TravelTime => edge.free_flow_secs(),
    }
}

/// The per-call Dijkstra, kept only as an oracle.
fn reference_path(
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
            let ng = g[ni] + edge_cost(cost_model, net, e);
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

fn same(a: &Option<RoutePath>, b: &Option<RoutePath>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.nodes == b.nodes && a.edges == b.edges && a.cost.to_bits() == b.cost.to_bits()
        }
        _ => false,
    }
}

/// Compares every ordered node pair (plus out-of-range ids) under both cost
/// models and returns how many pairs were unreachable.
fn assert_all_pairs_match(net: &RoadNetwork) -> usize {
    let n = net.node_count() as u32;
    let ids: Vec<NodeId> = (0..=n).map(NodeId).collect();
    let mut unreachable = 0;
    for model in [PathCost::Distance, PathCost::TravelTime] {
        let mut search = PathSearch::new(net, model);
        for &src in &ids {
            for &dst in &ids {
                let want = reference_path(net, src, dst, model);
                let got = search.shortest_path(src, dst);
                assert!(same(&got, &want), "{model:?} {src:?} -> {dst:?}: {got:?} vs {want:?}");
                unreachable += usize::from(want.is_none() && src.0 < n && dst.0 < n);
            }
            // The one-shot entry point runs the same search.
            let dst = ids[(src.0 as usize * 7 + 3) % ids.len()];
            assert!(same(
                &shortest_path(net, src, dst, model),
                &reference_path(net, src, dst, model)
            ));
        }
    }
    unreachable
}

/// `net` plus two one-way spurs at node 0: a dead end that node 0 reaches
/// but that reaches nothing, and an on-ramp into node 0 that nothing
/// reaches.
fn with_one_way_spurs(mut net: RoadNetwork) -> RoadNetwork {
    let hub = net.nodes()[0].clone();
    let dead_end = net.add_node(hub.point.destination(200.0, 300.0));
    net.add_edge(hub.id, dead_end, RoadGrade::Feeder, 4.0, Direction::OneWay, "spur in");
    let on_ramp = net.add_node(hub.point.destination(250.0, 300.0));
    net.add_edge(on_ramp, hub.id, RoadGrade::Feeder, 4.0, Direction::OneWay, "spur out");
    net
}

/// A chain of diamonds mirrored about the equator: each equator node
/// reaches the next through an upper and a lower node whose edges have
/// bit-identical lengths, so every hop is an exact cost tie that only the
/// heap order and the strict `<` relaxation resolve.
fn tied_diamond_chain(diamonds: usize) -> RoadNetwork {
    let mut net = RoadNetwork::new();
    let mut west = net.add_node(GeoPoint::new(0.0, 0.0));
    for i in 0..diamonds {
        let lon = 0.002 * i as f64;
        // Alternate which side gets the lower id, so ties break both ways.
        let sides = if i % 2 == 0 { [0.001, -0.001] } else { [-0.001, 0.001] };
        let [a, b] = sides.map(|lat| net.add_node(GeoPoint::new(lat, lon + 0.001)));
        let east = net.add_node(GeoPoint::new(0.0, lon + 0.002));
        for mid in [a, b] {
            net.add_edge(west, mid, RoadGrade::Feeder, 4.0, Direction::TwoWay, "w");
            net.add_edge(mid, east, RoadGrade::Feeder, 4.0, Direction::TwoWay, "e");
        }
        west = east;
    }
    net
}

#[test]
fn exact_cost_ties_resolve_like_the_reference() {
    assert_all_pairs_match(&tied_diamond_chain(6));
}

#[test]
fn default_city_matches_reference_on_all_pairs() {
    assert_all_pairs_match(&build_city(&SynthCityConfig::default()));
}

#[test]
fn small_cities_match_reference_on_all_pairs() {
    for seed in [5, 11] {
        assert_all_pairs_match(&build_city(&SynthCityConfig::small(seed)));
        let spurred = with_one_way_spurs(build_city(&SynthCityConfig::small(seed)));
        // Per model: the dead end reaches no other node (n - 1 pairs) and
        // no other node reaches the on-ramp (n - 1 pairs); dead end to
        // on-ramp is in both sets.
        let n = spurred.node_count();
        assert_eq!(assert_all_pairs_match(&spurred), 2 * (2 * (n - 1) - 1));
    }
}

/// One `PathSearch` driven through resumed, restarted and degenerate calls:
/// interleaved sources, a destination the last search already settled,
/// `src == dst`, out-of-range ids, and an unreachable destination (which
/// settles the source's whole tree) followed by reachable ones from the
/// same source. Every call must match a fresh reference search.
#[test]
fn resumed_and_interleaved_searches_match_reference() {
    for seed in [5, 11] {
        let net = with_one_way_spurs(build_city(&SynthCityConfig::small(seed)));
        let n = net.node_count() as u32;
        let (hub, dead_end, on_ramp, far) =
            (NodeId(0), NodeId(n - 2), NodeId(n - 1), NodeId(n - 3));
        let (a, b, x, y, z) = (NodeId(n / 3), NodeId(n / 2), far, NodeId(1), NodeId(n / 4));
        let out = NodeId(n + 5);
        for model in [PathCost::Distance, PathCost::TravelTime] {
            let mut search = PathSearch::new(&net, model);
            let mut call = |src: NodeId, dst: NodeId| {
                let got = search.shortest_path(src, dst);
                let want = reference_path(&net, src, dst, model);
                assert!(same(&got, &want), "{model:?} {src:?} -> {dst:?}: {got:?} vs {want:?}");
                got
            };
            call(a, x);
            call(b, y);
            let to_z = call(a, z).expect("z reachable");
            // Every node on the path to z was settled before z.
            let settled = to_z.nodes[to_z.nodes.len() / 2];
            call(a, settled);
            call(a, a);
            call(b, b);
            call(a, x);
            assert!(call(a, out).is_none());
            assert!(call(out, a).is_none());
            call(a, y);
            // Nothing reaches the on-ramp: the search exhausts a's tree.
            assert!(call(a, on_ramp).is_none());
            assert!(call(a, dead_end).is_some());
            call(a, z);
            assert!(call(hub, on_ramp).is_none());
            assert!(call(hub, on_ramp).is_none());
            assert!(call(hub, dead_end).is_some());
            // The dead end reaches nothing, then the search moves on.
            assert!(call(dead_end, hub).is_none());
            assert!(call(dead_end, dead_end).is_some());
            call(on_ramp, x);
            call(on_ramp, dead_end);
        }
    }
}
