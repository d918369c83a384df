//! Shortest paths on a [`RoadGraph`]: Dijkstra and A*.
//!
//! All three query flavours (plain Dijkstra, A* with the Euclidean
//! heuristic, A* with ALT lower bounds — see [`crate::landmarks`]) return
//! the same costs and are deterministic: the priority queue orders by
//! `(priority, node id)` under `f64::total_cmp` (compared as integers, see
//! [`frontier_key`]), so ties never depend on heap internals.
//!
//! The Euclidean heuristic is admissible because every arc's cost is its
//! geometric length times a class factor ≥ 1 ([`crate::SpeedClass`]), so
//! any path between two nodes costs at least their straight-line distance.
//! It is also consistent (the same inequality edge-by-edge), so nodes
//! never need reopening and lazy heap deletion is safe.

use crate::graph::RoadGraph;
use crate::landmarks::Landmarks;
use mule_geom::ordered_bits;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A computed shortest path.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Total routing cost (length × class factors along the path).
    pub cost: f64,
    /// Node ids from source to destination inclusive.
    pub nodes: Vec<u32>,
    /// How many nodes the search settled — the work measure the
    /// `bench-routes` harness reports alongside wall time.
    pub settled: usize,
}

/// The order search frontiers pop in: ascending `(priority, node)`, with
/// the priority compared under [`f64::total_cmp`] through
/// [`ordered_bits`], so every heap comparison is an integer one.
#[inline]
pub fn frontier_key(priority: f64, node: u32) -> (u64, u32) {
    (ordered_bits(priority), node)
}

/// Min-heap entry ordered by [`frontier_key`]; `BinaryHeap` is a
/// max-heap, so the `Ord` impl is reversed.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: u64,
    cost: f64,
    node: u32,
}

impl HeapEntry {
    #[inline]
    fn new(priority: f64, cost: f64, node: u32) -> Self {
        let (key, node) = frontier_key(priority, node);
        HeapEntry { key, cost, node }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.node) == (other.key, other.node)
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
        // Reversed: smallest (priority, node) pops first.
        (other.key, other.node).cmp(&(self.key, self.node))
    }
}

/// One-to-all Dijkstra: the cost from `src` to every node
/// (`f64::INFINITY` for unreachable ones).
pub fn dijkstra(graph: &RoadGraph, src: u32) -> Vec<f64> {
    dijkstra_counted(graph, src).0
}

/// [`dijkstra`] also reporting how many nodes the search settled (popped
/// non-stale), the work measure instrumented callers attach to their
/// trace spans.
pub fn dijkstra_counted(graph: &RoadGraph, src: u32) -> (Vec<f64>, usize) {
    let mut dist = vec![f64::INFINITY; graph.len()];
    if graph.is_empty() {
        return (dist, 0);
    }
    let mut settled = 0usize;
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(HeapEntry::new(0.0, 0.0, src));
    while let Some(entry) = heap.pop() {
        if entry.cost > dist[entry.node as usize] {
            continue; // stale heap entry
        }
        settled += 1;
        for (next, arc_cost) in graph.neighbors(entry.node) {
            let cand = entry.cost + arc_cost;
            if cand < dist[next as usize] {
                dist[next as usize] = cand;
                heap.push(HeapEntry::new(cand, cand, next));
            }
        }
    }
    (dist, settled)
}

/// The generic best-first search behind all point-to-point queries.
/// `heuristic(v)` must be an admissible, consistent lower bound on the
/// remaining cost from `v` to `dst`.
fn best_first<H: Fn(u32) -> f64>(
    graph: &RoadGraph,
    src: u32,
    dst: u32,
    heuristic: H,
) -> Option<Route> {
    let n = graph.len();
    if src as usize >= n || dst as usize >= n {
        return None;
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut settled = 0usize;
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(HeapEntry::new(heuristic(src), 0.0, src));
    while let Some(entry) = heap.pop() {
        if entry.cost > dist[entry.node as usize] {
            continue;
        }
        settled += 1;
        if entry.node == dst {
            let mut nodes = vec![dst];
            let mut cur = dst;
            while cur != src {
                cur = parent[cur as usize];
                nodes.push(cur);
            }
            nodes.reverse();
            return Some(Route {
                cost: entry.cost,
                nodes,
                settled,
            });
        }
        for (next, arc_cost) in graph.neighbors(entry.node) {
            let cand = entry.cost + arc_cost;
            if cand < dist[next as usize] {
                dist[next as usize] = cand;
                parent[next as usize] = entry.node;
                heap.push(HeapEntry::new(cand + heuristic(next), cand, next));
            }
        }
    }
    None
}

/// Point-to-point Dijkstra (early exit when the destination settles).
pub fn dijkstra_to(graph: &RoadGraph, src: u32, dst: u32) -> Option<Route> {
    best_first(graph, src, dst, |_| 0.0)
}

/// A* with the straight-line (Euclidean) heuristic.
pub fn astar(graph: &RoadGraph, src: u32, dst: u32) -> Option<Route> {
    if (dst as usize) >= graph.len() {
        return None;
    }
    let goal = graph.position(dst);
    best_first(graph, src, dst, |v| graph.position(v).distance(&goal))
}

/// A* with ALT lower bounds (the max of every landmark's triangle bound
/// and the Euclidean bound — the max of admissible bounds is admissible).
pub fn astar_alt(graph: &RoadGraph, landmarks: &Landmarks, src: u32, dst: u32) -> Option<Route> {
    if (dst as usize) >= graph.len() {
        return None;
    }
    let goal = graph.position(dst);
    best_first(graph, src, dst, |v| {
        landmarks
            .lower_bound(v, dst)
            .max(graph.position(v).distance(&goal))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RoadGraphBuilder, SpeedClass};
    use mule_geom::Point;

    /// 3 × 3 grid, 10 m spacing, all streets (factor 1.6).
    fn grid3() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        for y in 0..3 {
            for x in 0..3 {
                b.add_node(Point::new(x as f64 * 10.0, y as f64 * 10.0));
            }
        }
        for y in 0..3u32 {
            for x in 0..3u32 {
                let id = y * 3 + x;
                if x + 1 < 3 {
                    b.add_edge(id, id + 1, SpeedClass::Street);
                }
                if y + 1 < 3 {
                    b.add_edge(id, id + 3, SpeedClass::Street);
                }
            }
        }
        b.build()
    }

    #[test]
    fn dijkstra_costs_match_manhattan_times_factor() {
        let g = grid3();
        let dist = dijkstra(&g, 0);
        // Corner to corner: 4 edges of 10 m at factor 1.6.
        assert!((dist[8] - 64.0).abs() < 1e-9);
        assert!((dist[4] - 32.0).abs() < 1e-9);
        assert_eq!(dist[0], 0.0);
    }

    #[test]
    fn point_to_point_flavours_agree_on_cost_and_endpoints() {
        let g = grid3();
        let lm = Landmarks::select(&g, 3);
        for (s, t) in [(0u32, 8u32), (2, 6), (1, 7), (3, 3)] {
            let d = dijkstra_to(&g, s, t).unwrap();
            let a = astar(&g, s, t).unwrap();
            let alt = astar_alt(&g, &lm, s, t).unwrap();
            assert!((d.cost - a.cost).abs() < 1e-9, "{s}->{t}");
            assert!((d.cost - alt.cost).abs() < 1e-9, "{s}->{t}");
            for r in [&d, &a, &alt] {
                assert_eq!(r.nodes.first(), Some(&s));
                assert_eq!(r.nodes.last(), Some(&t));
                // Path cost re-derived from arcs matches the reported cost.
                let mut acc = 0.0;
                for w in r.nodes.windows(2) {
                    acc += g
                        .neighbors(w[0])
                        .find(|&(n, _)| n == w[1])
                        .expect("consecutive path nodes are adjacent")
                        .1;
                }
                assert!((acc - r.cost).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn goal_direction_prunes_the_search() {
        let g = grid3();
        let d = dijkstra_to(&g, 0, 2).unwrap();
        let a = astar(&g, 0, 2).unwrap();
        assert!(
            a.settled <= d.settled,
            "A* never settles more than Dijkstra"
        );
    }

    #[test]
    fn unreachable_and_out_of_range_queries_return_none() {
        let mut b = RoadGraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(100.0, 0.0)); // isolated
        let g = b.build();
        assert!(dijkstra_to(&g, 0, 1).is_none());
        assert!(astar(&g, 0, 9).is_none());
        assert!(dijkstra(&g, 0)[1].is_infinite());
        let trivial = dijkstra_to(&g, 0, 0).unwrap();
        assert_eq!(trivial.cost, 0.0);
        assert_eq!(trivial.nodes, vec![0]);
    }
}
