//! Nearest-neighbour tour construction.
//!
//! The simplest Hamiltonian-circuit heuristic: start somewhere, repeatedly
//! walk to the closest unvisited target, close the cycle at the end. Used
//! as a cross-check and as a component of the Sweep baseline (each group's
//! internal route).

use crate::distance_matrix::DistanceMatrix;
use crate::tour::Tour;
use mule_geom::Point;

/// Builds a nearest-neighbour tour over `points`, starting from index
/// `start` (clamped to the valid range). Returns the trivial tour for fewer
/// than two points.
pub fn nearest_neighbor(points: &[Point], dm: &DistanceMatrix, start: usize) -> Tour {
    let n = points.len();
    if n <= 1 {
        return Tour::identity(n);
    }
    let start = start.min(n - 1);
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut current = start;
    visited[current] = true;
    order.push(current);
    for _ in 1..n {
        let (next, _) = dm
            .nearest_to(current, |j| !visited[j])
            .expect("unvisited points remain");
        visited[next] = true;
        order.push(next);
        current = next;
    }
    Tour::new(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Point> {
        // 3 × 3 grid spaced 10 m apart.
        (0..9)
            .map(|i| Point::new((i % 3) as f64 * 10.0, (i / 3) as f64 * 10.0))
            .collect()
    }

    #[test]
    fn produces_a_valid_tour_from_any_start() {
        let pts = grid_points();
        let dm = DistanceMatrix::from_points(&pts);
        for start in 0..pts.len() {
            let tour = nearest_neighbor(&pts, &dm, start);
            assert!(tour.is_valid());
            assert_eq!(tour.len(), pts.len());
            assert_eq!(tour.order()[0], start);
        }
    }

    #[test]
    fn handles_degenerate_inputs() {
        let dm0 = DistanceMatrix::from_points(&[]);
        assert!(nearest_neighbor(&[], &dm0, 0).is_empty());
        let one = [Point::new(1.0, 1.0)];
        let dm1 = DistanceMatrix::from_points(&one);
        assert_eq!(nearest_neighbor(&one, &dm1, 5).len(), 1);
        let two = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let dm2 = DistanceMatrix::from_points(&two);
        let t = nearest_neighbor(&two, &dm2, 1);
        assert_eq!(t.order(), &[1, 0]);
    }

    #[test]
    fn start_index_is_clamped() {
        let pts = grid_points();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = nearest_neighbor(&pts, &dm, 999);
        assert!(tour.is_valid());
        assert_eq!(tour.order()[0], pts.len() - 1);
    }

    #[test]
    fn greedy_choice_picks_the_adjacent_grid_point_first() {
        let pts = grid_points();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = nearest_neighbor(&pts, &dm, 0);
        // From the corner (0,0) the first hop must be one of its two 10 m
        // neighbours, never the 14.1 m diagonal.
        let second = tour.order()[1];
        assert!(second == 1 || second == 3, "second visit was {second}");
    }
}
