//! Property-based tests for the candidate-list search pipeline: permutation
//! validity, monotone improvement, quality vs. the exact pipeline, and the
//! `Auto` byte-identity contract below the threshold.

use mule_geom::Point;
use mule_graph::chb::AUTO_EXACT_THRESHOLD;
use mule_graph::{
    construct_circuit_with, convex_hull_insertion_incremental, or_opt_candidates,
    two_opt_candidates, CandidateLists, ChbConfig, SearchMode,
};
use proptest::prelude::*;

fn field_points(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0..2000.0f64, 0.0..2000.0f64).prop_map(|(x, y)| Point::new(x, y)),
        min..=max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn candidate_pipeline_is_a_valid_permutation(points in field_points(0, 300)) {
        let config = ChbConfig::default().with_search(SearchMode::Candidates(10));
        let tour = construct_circuit_with(&points, &config);
        prop_assert!(tour.is_valid());
        prop_assert_eq!(tour.len(), points.len());
    }

    #[test]
    fn candidate_local_search_never_lengthens(points in field_points(4, 300)) {
        let candidates = CandidateLists::build(&points, 10);
        let mut tour = convex_hull_insertion_incremental(&points);
        let mut length = tour.length(&points);

        two_opt_candidates(&mut tour, &points[..], &candidates, 50);
        prop_assert!(tour.is_valid());
        prop_assert!(tour.length(&points) <= length + 1e-6);
        length = tour.length(&points);

        or_opt_candidates(&mut tour, &points[..], &candidates, 50);
        prop_assert!(tour.is_valid());
        prop_assert!(tour.length(&points) <= length + 1e-6);
    }

    #[test]
    fn candidate_pipeline_tracks_exact_quality(points in field_points(6, 300)) {
        let exact = construct_circuit_with(
            &points,
            &ChbConfig::default().with_search(SearchMode::Exact),
        );
        let fast = construct_circuit_with(
            &points,
            &ChbConfig::default().with_search(SearchMode::Candidates(10)),
        );
        prop_assert!(fast.is_valid());
        let exact_len = exact.length(&points);
        let fast_len = fast.length(&points);
        prop_assume!(exact_len > 1e-9); // all-coincident points: both zero
        prop_assert!(
            fast_len <= exact_len * 1.02,
            "candidate pipeline {:.1} vs exact {:.1} (ratio {:.4}) on n = {}",
            fast_len, exact_len, fast_len / exact_len, points.len()
        );
    }

    #[test]
    fn auto_is_byte_identical_to_exact_below_the_threshold(
        points in field_points(0, AUTO_EXACT_THRESHOLD)
    ) {
        let auto = construct_circuit_with(&points, &ChbConfig::default());
        let exact = construct_circuit_with(
            &points,
            &ChbConfig::default().with_search(SearchMode::Exact),
        );
        prop_assert_eq!(auto.order(), exact.order());
    }
}
