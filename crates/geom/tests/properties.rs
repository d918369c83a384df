//! Property-based tests for the geometry substrate.
//!
//! These check the invariants the planners rely on, over randomly generated
//! point sets in the paper's 800 m × 800 m field.

use mule_geom::angle::orientation;
use mule_geom::{
    ccw_included_angle, convex_hull, normalize_angle, polyline::northmost_index, KdTree, Point,
    Polyline, Segment, EPSILON,
};
use proptest::prelude::*;

mod reference_kdtree;

fn field_point() -> impl Strategy<Value = Point> {
    (0.0..800.0f64, 0.0..800.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn field_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(field_point(), min..=max)
}

/// Points on a 6 × 6 lattice of 10 m spacing: many coincide and many
/// distances tie exactly.
fn lattice_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0u32..6, 0u32..6).prop_map(|(x, y)| Point::new(10.0 * f64::from(x), 10.0 * f64::from(y))),
        min..=max,
    )
}

/// Returns `true` when `polygon` (given in order, either orientation) is a
/// convex polygon. Polygons with fewer than 3 vertices are trivially
/// considered convex.
fn is_convex_polygon(polygon: &[Point]) -> bool {
    let n = polygon.len();
    if n < 3 {
        return true;
    }
    let mut sign = 0.0_f64;
    for i in 0..n {
        let o = orientation(&polygon[i], &polygon[(i + 1) % n], &polygon[(i + 2) % n]);
        if o.abs() <= f64::EPSILON {
            continue; // collinear corner does not break convexity
        }
        if sign == 0.0 {
            sign = o.signum();
        } else if o.signum() != sign {
            return false;
        }
    }
    true
}

/// Returns `true` when `p` lies inside or on the boundary of the convex
/// polygon `hull` given in counter-clockwise order.
fn point_in_convex_polygon(p: &Point, hull: &[Point]) -> bool {
    let n = hull.len();
    match n {
        0 => false,
        1 => hull[0].distance_squared(p) <= EPSILON,
        2 => Segment::new(hull[0], hull[1]).distance_to_point(p) <= EPSILON,
        _ => (0..n).all(|i| orientation(&hull[i], &hull[(i + 1) % n], p) >= -EPSILON),
    }
}

fn square() -> Vec<Point> {
    vec![
        Point::new(0.0, 0.0),
        Point::new(4.0, 0.0),
        Point::new(4.0, 4.0),
        Point::new(0.0, 4.0),
    ]
}

#[test]
fn point_in_convex_polygon_boundary_and_interior() {
    let hull = convex_hull(&square());
    assert!(point_in_convex_polygon(&Point::new(2.0, 2.0), &hull));
    assert!(point_in_convex_polygon(&Point::new(0.0, 0.0), &hull));
    assert!(point_in_convex_polygon(&Point::new(2.0, 0.0), &hull));
    assert!(!point_in_convex_polygon(&Point::new(5.0, 2.0), &hull));
    assert!(!point_in_convex_polygon(&Point::new(-0.1, 2.0), &hull));
}

#[test]
fn point_in_degenerate_hulls() {
    assert!(!point_in_convex_polygon(&Point::ORIGIN, &[]));
    assert!(point_in_convex_polygon(
        &Point::new(1.0, 1.0),
        &[Point::new(1.0, 1.0)]
    ));
    let segment_hull = vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)];
    assert!(point_in_convex_polygon(
        &Point::new(2.0, 0.0),
        &segment_hull
    ));
    assert!(!point_in_convex_polygon(
        &Point::new(2.0, 1.0),
        &segment_hull
    ));
}

#[test]
fn is_convex_polygon_detects_reflex_vertices() {
    assert!(is_convex_polygon(&square()));
    let dented = vec![
        Point::new(0.0, 0.0),
        Point::new(4.0, 0.0),
        Point::new(2.0, 1.0), // dent
        Point::new(4.0, 4.0),
        Point::new(0.0, 4.0),
    ];
    assert!(!is_convex_polygon(&dented));
    assert!(is_convex_polygon(&[Point::ORIGIN, Point::new(1.0, 1.0)]));
}

/// `k` successive filtered nearest-neighbour searches of the reference
/// tree, each excluding the hits before it — `KdTree::k_nearest` must
/// reproduce them hit for hit, tie order included.
fn repeated_nearest(tree: &reference_kdtree::KdTree, q: &Point, k: usize) -> Vec<(usize, f64)> {
    let mut found: Vec<(usize, f64)> = Vec::new();
    while found.len() < k {
        match tree.nearest_filtered(q, |i| found.iter().all(|&(j, _)| j != i)) {
            Some(hit) => found.push(hit),
            None => break,
        }
    }
    found
}

proptest! {
    #[test]
    fn distance_satisfies_triangle_inequality(a in field_point(), b in field_point(), c in field_point()) {
        let direct = a.distance(&c);
        let via_b = a.distance(&b) + b.distance(&c);
        prop_assert!(direct <= via_b + 1e-9);
    }

    #[test]
    fn distance_is_symmetric(a in field_point(), b in field_point()) {
        prop_assert!((a.distance(&b) - b.distance(&a)).abs() <= 1e-12);
    }

    #[test]
    fn advance_towards_never_overshoots_and_shrinks_distance(
        a in field_point(), b in field_point(), d in 0.0..2000.0f64
    ) {
        let c = a.advance_towards(&b, d);
        prop_assert!(c.distance(&b) <= a.distance(&b) + 1e-9);
        // The moved distance never exceeds the request.
        prop_assert!(a.distance(&c) <= d + 1e-9);
    }

    #[test]
    fn normalized_angles_land_in_range(theta in -100.0..100.0f64) {
        let t = normalize_angle(theta);
        prop_assert!((0.0..std::f64::consts::TAU).contains(&t));
    }

    #[test]
    fn ccw_included_angle_is_in_range(a in field_point(), b in field_point(), c in field_point()) {
        if let Some(angle) = ccw_included_angle(&a, &b, &c) {
            prop_assert!((0.0..std::f64::consts::TAU).contains(&angle));
        }
    }

    #[test]
    fn hull_contains_all_points_and_is_convex(points in field_points(1, 60)) {
        let hull_pts = convex_hull(&points);
        prop_assert!(!hull_pts.is_empty());
        prop_assert!(is_convex_polygon(&hull_pts));
        for p in &points {
            prop_assert!(
                point_in_convex_polygon(p, &hull_pts),
                "point {p} escaped its own hull"
            );
        }
        // Hull vertices are a subset of the input.
        for h in &hull_pts {
            prop_assert!(points.iter().any(|p| p.distance(h) <= 1e-9));
        }
    }

    #[test]
    fn hull_perimeter_never_exceeds_any_enclosing_tour(points in field_points(3, 40)) {
        // The convex hull is the shortest closed curve enclosing the points,
        // so it can never be longer than the closed polyline through all
        // points in input order.
        let hull_pts = convex_hull(&points);
        if hull_pts.len() >= 3 {
            let tour_len = Polyline::closed(points.clone()).length();
            prop_assert!(Polyline::closed(hull_pts).length() <= tour_len + 1e-6);
        }
    }

    #[test]
    fn detour_cost_is_nonnegative(a in field_point(), b in field_point(), via in field_point()) {
        let seg = Segment::new(a, b);
        prop_assert!(seg.detour_cost(&via) >= -1e-9);
    }

    #[test]
    fn closed_polyline_point_at_wraps_consistently(points in field_points(2, 30), d in 0.0..10_000.0f64) {
        let p = Polyline::closed(points);
        let total = p.length();
        prop_assume!(total > 1e-6);
        let a = p.point_at(d).unwrap();
        let b = p.point_at(d + total).unwrap();
        prop_assert!(a.distance(&b) <= 1e-6, "wrap mismatch: {a} vs {b}");
    }

    #[test]
    fn kdtree_nearest_agrees_with_brute_force(points in field_points(1, 80), q in field_point()) {
        let tree = KdTree::build(&points);
        let (idx, d) = tree.nearest(&q).unwrap();
        let brute = points
            .iter()
            .map(|p| p.distance(&q))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d - brute).abs() <= 1e-9);
        prop_assert!((points[idx].distance(&q) - brute).abs() <= 1e-9);
    }

    #[test]
    fn kdtree_k_nearest_matches_repeated_nearest_on_lattices(
        points in lattice_points(1, 60),
        qx in 0u32..7,
        qy in 0u32..7,
        k in 1usize..16,
    ) {
        let tree = KdTree::build(&points);
        let reference = reference_kdtree::KdTree::build(&points);
        // Lattice queries tie with many points at once; the off-lattice
        // column/row (6) adds queries outside the occupied square.
        let q = Point::new(10.0 * f64::from(qx), 10.0 * f64::from(qy));
        prop_assert_eq!(tree.k_nearest(&q, k), repeated_nearest(&reference, &q, k));
        for p in points.iter().take(8) {
            prop_assert_eq!(tree.k_nearest(p, k), repeated_nearest(&reference, p, k));
        }
    }

    #[test]
    fn northmost_point_is_at_least_as_north_as_all_others(points in field_points(1, 50)) {
        let idx = northmost_index(&points).unwrap();
        for p in &points {
            prop_assert!(points[idx].y >= p.y);
        }
    }
}
