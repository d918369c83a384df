//! Minimum spanning tree (Prim) and the classic MST pre-order tour.
//!
//! The MST tour is the textbook 2-approximation for metric TSP. It is not
//! used by the TCTP planners themselves; it serves as an independent upper
//! bound in tests ("no construction heuristic should be wildly worse than
//! 2 × MST weight") and as one column of the path-length table.

use crate::distance_matrix::DistanceMatrix;
use crate::tour::Tour;
use mule_geom::Point;

/// An undirected spanning tree given as `(parent, child)` index pairs plus
/// its total edge weight.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanningTree {
    /// Edges of the tree as `(parent, child)` pairs, in the order Prim's
    /// algorithm added them (root first).
    pub edges: Vec<(usize, usize)>,
    /// Sum of edge lengths in metres.
    pub weight: f64,
}

/// Computes the minimum spanning tree of the complete Euclidean graph over
/// `points` with Prim's algorithm, rooted at index 0. Returns an empty tree
/// for fewer than two points.
pub fn minimum_spanning_tree(points: &[Point], dm: &DistanceMatrix) -> SpanningTree {
    let n = points.len();
    if n < 2 {
        return SpanningTree {
            edges: Vec::new(),
            weight: 0.0,
        };
    }
    let mut in_tree = vec![false; n];
    let mut best_dist = vec![f64::INFINITY; n];
    let mut best_parent = vec![usize::MAX; n];
    in_tree[0] = true;
    for j in 1..n {
        best_dist[j] = dm.get(0, j);
        best_parent[j] = 0;
    }
    let mut edges = Vec::with_capacity(n - 1);
    let mut weight = 0.0;
    for _ in 1..n {
        // Pick the cheapest fringe vertex.
        let mut next = usize::MAX;
        let mut next_d = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best_dist[j] < next_d {
                next = j;
                next_d = best_dist[j];
            }
        }
        debug_assert_ne!(next, usize::MAX);
        in_tree[next] = true;
        edges.push((best_parent[next], next));
        weight += next_d;
        for j in 0..n {
            if !in_tree[j] && dm.get(next, j) < best_dist[j] {
                best_dist[j] = dm.get(next, j);
                best_parent[j] = next;
            }
        }
    }
    SpanningTree { edges, weight }
}

/// Builds a Hamiltonian tour by a depth-first pre-order walk of the MST
/// (children visited nearest-first), the classic 2-approximation.
pub fn mst_preorder_tour(points: &[Point], dm: &DistanceMatrix) -> Tour {
    let n = points.len();
    if n <= 2 {
        return Tour::identity(n);
    }
    let tree = minimum_spanning_tree(points, dm);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(p, c) in &tree.edges {
        children[p].push(c);
    }
    // Visit nearer children first for a slightly tighter walk.
    for (i, ch) in children.iter_mut().enumerate() {
        ch.sort_by(|&a, &b| dm.get(i, a).total_cmp(&dm.get(i, b)));
    }
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![0usize];
    while let Some(v) = stack.pop() {
        order.push(v);
        // Push children in reverse so the nearest child is visited first.
        for &c in children[v].iter().rev() {
            stack.push(c);
        }
    }
    Tour::new(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ]
    }

    #[test]
    fn mst_of_square_has_three_unit_edges() {
        let pts = square_points();
        let dm = DistanceMatrix::from_points(&pts);
        let tree = minimum_spanning_tree(&pts, &dm);
        assert_eq!(tree.edges.len(), 3);
        assert!((tree.weight - 30.0).abs() < 1e-9);
    }

    #[test]
    fn mst_spans_every_vertex_exactly_once_as_child() {
        let pts: Vec<Point> = (0..15u64)
            .map(|i| {
                Point::new(
                    (i.wrapping_mul(131) % 700) as f64,
                    (i.wrapping_mul(313) % 700) as f64,
                )
            })
            .collect();
        let dm = DistanceMatrix::from_points(&pts);
        let tree = minimum_spanning_tree(&pts, &dm);
        assert_eq!(tree.edges.len(), pts.len() - 1);
        let mut child_seen = vec![false; pts.len()];
        for &(p, c) in &tree.edges {
            assert!(p < pts.len() && c < pts.len());
            assert!(!child_seen[c], "vertex {c} added twice");
            child_seen[c] = true;
        }
        assert!(!child_seen[0], "the root is never a child");
    }

    #[test]
    fn mst_weight_lower_bounds_every_tour() {
        let pts: Vec<Point> = (0..20u64)
            .map(|i| {
                Point::new(
                    (i.wrapping_mul(271) % 800) as f64,
                    (i.wrapping_mul(523) % 800) as f64,
                )
            })
            .collect();
        let dm = DistanceMatrix::from_points(&pts);
        let tree = minimum_spanning_tree(&pts, &dm);
        for c in crate::TourConstruction::ALL {
            let len = c.build_with_matrix(&pts, &dm).length(&pts);
            assert!(
                len >= tree.weight - 1e-9,
                "{} shorter than the MST?!",
                c.label()
            );
        }
    }

    #[test]
    fn preorder_tour_is_valid_and_within_twice_mst() {
        let pts: Vec<Point> = (0..25u64)
            .map(|i| {
                Point::new(
                    (i.wrapping_mul(379) % 800) as f64,
                    (i.wrapping_mul(947) % 800) as f64,
                )
            })
            .collect();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = mst_preorder_tour(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), pts.len());
        let tree = minimum_spanning_tree(&pts, &dm);
        assert!(tour.length(&pts) <= 2.0 * tree.weight + 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        let dm0 = DistanceMatrix::from_points(&[]);
        assert!(minimum_spanning_tree(&[], &dm0).edges.is_empty());
        assert!(mst_preorder_tour(&[], &dm0).is_empty());
        let one = [Point::ORIGIN];
        let dm1 = DistanceMatrix::from_points(&one);
        assert_eq!(minimum_spanning_tree(&one, &dm1).weight, 0.0);
        assert_eq!(mst_preorder_tour(&one, &dm1).len(), 1);
    }
}
