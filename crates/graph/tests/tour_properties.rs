//! Property-based tests for tour construction and improvement.

use mule_geom::Point;
use mule_graph::{
    construct_circuit, minimum_spanning_tree, or_opt, two_opt, ChbConfig, DistanceMatrix, Tour,
    TourConstruction,
};
use mule_road::TravelMetric;
use proptest::prelude::*;

fn default_circuit(points: &[Point]) -> Tour {
    construct_circuit(points, &TravelMetric::Euclidean, &ChbConfig::default())
}

fn field_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..800.0f64, 0.0..800.0f64).prop_map(|(x, y)| Point::new(x, y)),
        min..=max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_construction_is_a_permutation(points in field_points(0, 40)) {
        for c in TourConstruction::ALL {
            let tour = c.build(&points);
            prop_assert!(tour.is_valid(), "{} invalid", c.label());
            prop_assert_eq!(tour.len(), points.len());
        }
    }

    #[test]
    fn two_opt_never_lengthens(points in field_points(4, 35)) {
        let dm = DistanceMatrix::from_points(&points);
        let mut tour = Tour::identity(points.len());
        let before = tour.length(&points);
        two_opt(&mut tour, &dm, 40);
        prop_assert!(tour.is_valid());
        prop_assert!(tour.length(&points) <= before + 1e-6);
    }

    #[test]
    fn or_opt_never_lengthens(points in field_points(5, 35)) {
        let dm = DistanceMatrix::from_points(&points);
        let mut tour = Tour::identity(points.len());
        let before = tour.length(&points);
        or_opt(&mut tour, &dm, 40);
        prop_assert!(tour.is_valid());
        prop_assert!(tour.length(&points) <= before + 1e-6);
    }

    #[test]
    fn chb_circuit_respects_mst_bounds(points in field_points(3, 35)) {
        let dm = DistanceMatrix::from_points(&points);
        let mst = minimum_spanning_tree(&points, &dm);
        let tour = default_circuit(&points);
        prop_assert!(tour.is_valid());
        // MST weight is a lower bound for any Hamiltonian cycle; twice the
        // MST weight is an upper bound for the shortcut pre-order walk, and
        // CHB + 2-opt + Or-opt should never be worse than that.
        prop_assert!(tour.length(&points) >= mst.weight - 1e-6);
        prop_assert!(tour.length(&points) <= 2.0 * mst.weight + 1e-6);
    }

    #[test]
    fn chb_beats_or_matches_the_mst_preorder_walk(points in field_points(3, 30)) {
        let chb = default_circuit(&points).length(&points);
        let walk = TourConstruction::MstPreorder.build(&points).length(&points);
        prop_assert!(chb <= walk + 1e-6);
    }

    #[test]
    fn tour_length_is_rotation_invariant(points in field_points(2, 30), start in 0usize..30) {
        let tour = default_circuit(&points);
        let mut order = tour.order().to_vec();
        order.rotate_left(start % tour.len());
        let rotated = Tour::new(order);
        prop_assert!((tour.length(&points) - rotated.length(&points)).abs() <= 1e-6);
    }

    #[test]
    fn distance_matrix_cycle_length_matches_tour_length(points in field_points(2, 30)) {
        let dm = DistanceMatrix::from_points(&points);
        let tour = default_circuit(&points);
        let a = tour.length(&points);
        let b = dm.cycle_length(tour.order());
        prop_assert!((a - b).abs() <= 1e-6);
    }
}
