//! ALT preprocessing: landmarks + triangle-inequality lower bounds.
//!
//! The ALT technique (A*, Landmarks, Triangle inequality) precomputes the
//! exact shortest-path cost from a handful of *landmark* nodes to every
//! node. For any nodes `v` and `t` and landmark `L`, the triangle
//! inequality gives `d(v, t) ≥ |d(L, t) − d(L, v)|`; the maximum over all
//! landmarks is a tight admissible heuristic that steers A* down the
//! correct corridor even where plain Euclidean bounds are weak (e.g. when
//! the road network detours around a deleted block).
//!
//! Landmarks are chosen with the classic **farthest-point** rule: start
//! from the node farthest from node 0, then repeatedly add the node
//! maximising the minimum distance to the already-chosen set. On an
//! undirected graph one cost vector per landmark serves both directions.

use crate::graph::RoadGraph;
use crate::route::dijkstra;

/// Precomputed landmark distances for ALT queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Landmarks {
    /// Chosen landmark node ids, in selection order.
    ids: Vec<u32>,
    /// `dist[l][v]` = exact cost between landmark `l` and node `v`.
    dist: Vec<Vec<f64>>,
}

impl Landmarks {
    /// Selects up to `count` landmarks by the farthest-point rule and
    /// precomputes their one-to-all distance vectors (`count` Dijkstra
    /// runs). An empty graph yields an empty set.
    pub fn select(graph: &RoadGraph, count: usize) -> Self {
        let n = graph.len();
        if n == 0 || count == 0 {
            return Landmarks {
                ids: Vec::new(),
                dist: Vec::new(),
            };
        }
        let count = count.min(n);

        // Seed: the node farthest (by road cost) from node 0; falls back
        // to node 0 itself on a single-node graph. Unreachable nodes never
        // win (their distance is +inf, which `total_cmp` sorts last, so we
        // filter them out explicitly).
        let from0 = dijkstra(graph, 0);
        let first = farthest_finite(&from0).unwrap_or(0);

        let mut ids = vec![first];
        let mut dist = vec![dijkstra(graph, first)];
        // min_dist[v] = distance from v to its nearest chosen landmark.
        let mut min_dist = dist[0].clone();
        while ids.len() < count {
            let Some(next) = farthest_finite(&min_dist) else {
                break;
            };
            if ids.contains(&next) || min_dist[next as usize] <= 0.0 {
                break; // graph exhausted (fewer distinct spots than asked)
            }
            let vec = dijkstra(graph, next);
            for (m, d) in min_dist.iter_mut().zip(&vec) {
                if d < m {
                    *m = *d;
                }
            }
            ids.push(next);
            dist.push(vec);
        }
        Landmarks { ids, dist }
    }

    /// Number of landmarks.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when no landmarks were selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The chosen landmark node ids.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The ALT lower bound on `d(v, t)`: the best triangle bound over all
    /// landmarks. Returns 0 when either node is unreachable from a
    /// landmark (an infinite bound would be unsound there) — admissible by
    /// construction, see the module docs.
    #[inline]
    pub fn lower_bound(&self, v: u32, t: u32) -> f64 {
        let mut best = 0.0f64;
        for d in &self.dist {
            let dv = d[v as usize];
            let dt = d[t as usize];
            if dv.is_finite() && dt.is_finite() {
                let bound = (dt - dv).abs();
                if bound > best {
                    best = bound;
                }
            }
        }
        best
    }
}

/// Index of the largest finite entry (ties: smallest index), or `None`
/// when every entry is infinite.
fn farthest_finite(dist: &[f64]) -> Option<u32> {
    let mut best: Option<(u32, f64)> = None;
    for (i, &d) in dist.iter().enumerate() {
        if !d.is_finite() {
            continue;
        }
        if best.map(|(_, b)| d > b).unwrap_or(true) {
            best = Some((i as u32, d));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RoadGraphBuilder, SpeedClass};
    use crate::route::dijkstra_to;
    use mule_geom::Point;

    fn path_graph(n: usize) -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64 * 10.0, 0.0));
        }
        for i in 0..n as u32 - 1 {
            b.add_edge(i, i + 1, SpeedClass::Highway);
        }
        b.build()
    }

    #[test]
    fn farthest_point_selection_spreads_landmarks() {
        let g = path_graph(10);
        let lm = Landmarks::select(&g, 2);
        assert_eq!(lm.len(), 2);
        // On a path, the farthest node from 0 is the far end; the second
        // landmark maximises distance to it — the near end.
        assert_eq!(lm.ids(), &[9, 0]);
    }

    #[test]
    fn lower_bounds_are_exact_on_a_path() {
        // With a landmark at an end of a path, the triangle bound is the
        // exact distance for every pair.
        let g = path_graph(8);
        let lm = Landmarks::select(&g, 1);
        for s in 0..8u32 {
            for t in 0..8u32 {
                let exact = dijkstra_to(&g, s, t).unwrap().cost;
                let bound = lm.lower_bound(s, t);
                assert!(bound <= exact + 1e-9);
                assert!((bound - exact).abs() < 1e-9, "path bound is tight");
            }
        }
    }

    #[test]
    fn landmark_count_is_clamped_to_distinct_nodes() {
        let g = path_graph(3);
        let lm = Landmarks::select(&g, 10);
        assert!(lm.len() <= 3);
        assert!(!lm.is_empty());
        let empty = Landmarks::select(&RoadGraphBuilder::new().build(), 4);
        assert!(empty.is_empty());
        assert_eq!(empty.lower_bound(0, 0), 0.0);
    }

    #[test]
    fn disconnected_nodes_get_a_zero_bound() {
        let mut b = RoadGraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(10.0, 0.0));
        b.add_node(Point::new(500.0, 0.0)); // isolated
        b.add_edge(0, 1, SpeedClass::Highway);
        let g = b.build();
        let lm = Landmarks::select(&g, 2);
        assert_eq!(lm.lower_bound(0, 2), 0.0, "unreachable pair bounds to 0");
    }
}
