//! Convex hulls.
//!
//! The CHB Hamiltonian-circuit heuristic (reference \[5\] of the paper, and
//! the "Hamiltonian_CycleConstruct" step of every TCTP planner) starts from
//! the convex hull of the target set and inserts the interior targets one by
//! one. This module provides the hull itself (Andrew's monotone chain,
//! `O(n log n)`), plus its diameter by rotating calipers.

use crate::angle::orientation;
use crate::point::Point;

/// Computes the convex hull of `points` and returns the hull vertices in
/// **counter-clockwise** order, starting from the lexicographically smallest
/// point. Collinear points on hull edges are *not* included.
///
/// Degenerate inputs are handled totally:
/// * 0, 1 or 2 points → the input (deduplicated) is returned as-is;
/// * all points collinear → the two extreme points.
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(|a, b| a.lexicographic_cmp(b));
    pts.dedup_by(|a, b| a.distance_squared(b) <= f64::EPSILON);

    if pts.len() <= 2 {
        return pts;
    }

    let n = pts.len();
    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);

    // Lower hull.
    for p in &pts {
        while hull.len() >= 2 && orientation(&hull[hull.len() - 2], &hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(*p);
    }

    // Upper hull.
    let lower_len = hull.len() + 1;
    for p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && orientation(&hull[hull.len() - 2], &hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(*p);
    }

    // The last point is the same as the first one; drop it.
    hull.pop();

    // Fully collinear input collapses to the two extremes.
    if hull.len() < 3 {
        hull.truncate(2);
    }
    hull
}

/// Farthest-apart pair of vertices of a convex polygon given in CCW order
/// (as produced by [`convex_hull`]), found with the rotating-calipers
/// antipodal-pair walk in `O(h)` for `h` hull vertices. Returns indices into
/// `hull`, smaller index first. `None` for fewer than two vertices.
///
/// Because the farthest pair of *any* point set is always a pair of its
/// convex-hull vertices, `hull_diameter(&convex_hull(points))` finds the
/// diameter of the whole set in `O(n log n)` — replacing the `O(n²)`
/// all-pairs scan of `DistanceMatrix::farthest_pair` on large instances.
pub fn hull_diameter(hull: &[Point]) -> Option<(usize, usize)> {
    let n = hull.len();
    match n {
        0 | 1 => return None,
        2 => return Some((0, 1)),
        _ => {}
    }

    // Area of the triangle spanned by edge (i, i+1) and vertex j, used to
    // advance the antipodal pointer while the width keeps growing.
    let cross =
        |i: usize, j: usize| -> f64 { orientation(&hull[i], &hull[(i + 1) % n], &hull[j]).abs() };

    let mut best = (0usize, 1usize);
    let mut best_d2 = hull[0].distance_squared(&hull[1]);
    let consider = |i: usize, j: usize, best: &mut (usize, usize), best_d2: &mut f64| {
        let d2 = hull[i].distance_squared(&hull[j]);
        if d2 > *best_d2 {
            *best_d2 = d2;
            *best = if i < j { (i, j) } else { (j, i) };
        }
    };

    let mut j = 1;
    for i in 0..n {
        // Advance j while the support distance from edge (i, i+1) grows.
        while cross(i, (j + 1) % n) > cross(i, j) {
            j = (j + 1) % n;
        }
        consider(i, j, &mut best, &mut best_d2);
        consider((i + 1) % n, j, &mut best, &mut best_d2);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ]
    }

    #[test]
    fn hull_of_square_with_interior_points_is_the_square() {
        let mut pts = square();
        pts.push(Point::new(2.0, 2.0));
        pts.push(Point::new(1.0, 3.0));
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        for corner in square() {
            assert!(hull.contains(&corner), "missing corner {corner}");
        }
        let n = hull.len();
        for i in 0..n {
            let turn = orientation(&hull[i], &hull[(i + 1) % n], &hull[(i + 2) % n]);
            assert!(turn > 0.0, "hull must be convex and CCW at corner {i}");
        }
    }

    #[test]
    fn hull_of_degenerate_inputs() {
        assert!(convex_hull(&[]).is_empty());
        let single = convex_hull(&[Point::new(1.0, 1.0)]);
        assert_eq!(single, vec![Point::new(1.0, 1.0)]);
        let duplicated = convex_hull(&[Point::new(1.0, 1.0), Point::new(1.0, 1.0)]);
        assert_eq!(duplicated.len(), 1);
    }

    #[test]
    fn hull_of_collinear_points_is_the_two_extremes() {
        let pts: Vec<Point> = (0..7)
            .map(|i| Point::new(i as f64, 2.0 * i as f64))
            .collect();
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 2);
        assert!(hull.contains(&Point::new(0.0, 0.0)));
        assert!(hull.contains(&Point::new(6.0, 12.0)));
    }

    #[test]
    fn hull_excludes_collinear_boundary_points() {
        let mut pts = square();
        pts.push(Point::new(2.0, 0.0)); // on the bottom edge
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        assert!(!hull.contains(&Point::new(2.0, 0.0)));
    }

    #[test]
    fn hull_diameter_matches_brute_force() {
        // Deterministic pseudo-random sets, diameter cross-checked against
        // the all-pairs scan over the hull vertices.
        for salt in 0..8u64 {
            let pts: Vec<Point> = (0..40u64)
                .map(|i| {
                    let h = i.wrapping_mul(6364136223846793005).wrapping_add(salt);
                    Point::new((h % 900) as f64, ((h >> 20) % 900) as f64)
                })
                .collect();
            let hull = convex_hull(&pts);
            let (a, b) = hull_diameter(&hull).unwrap();
            let calipers = hull[a].distance(&hull[b]);
            let brute = hull
                .iter()
                .flat_map(|p| hull.iter().map(move |q| p.distance(q)))
                .fold(0.0f64, f64::max);
            assert!(
                approx_eq(calipers, brute),
                "salt {salt}: calipers {calipers} vs brute {brute}"
            );
            assert!(a < b);
        }
    }

    #[test]
    fn hull_diameter_of_degenerate_hulls() {
        assert!(hull_diameter(&[]).is_none());
        assert!(hull_diameter(&[Point::ORIGIN]).is_none());
        // Collinear input collapses to the two extremes.
        let hull = convex_hull(&[
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(9.0, 0.0),
        ]);
        assert_eq!(hull_diameter(&hull), Some((0, 1)));
        // On a square the diameter is a diagonal.
        let hull = convex_hull(&square());
        let (a, b) = hull_diameter(&hull).unwrap();
        assert!(approx_eq(hull[a].distance(&hull[b]), 32.0f64.sqrt()));
    }
}
