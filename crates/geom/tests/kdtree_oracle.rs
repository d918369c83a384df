//! The flat, select-built `KdTree` against the tree it replaced (kept in
//! `reference_kdtree`): the same preorder of indices, and the same
//! `nearest` and `k_nearest` answers, tie order included, on tie-heavy
//! lattices, duplicates, collinear points, every size up to 300, and
//! 3,000-target workload and clustered sets.

use mule_geom::{KdTree, Point};
use mule_workload::{LayoutKind, ScenarioConfig, ScenarioSpec};

mod reference_kdtree;

use reference_kdtree::KdTree as ReferenceKdTree;

/// SplitMix64, so the fixtures do not depend on any RNG crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` points of one of five shapes: uniform floats (0), a coarse integer
/// lattice where distances tie and points coincide (1), three distinct
/// points repeated (2), points on a diagonal line, repeated every 13 (3),
/// or points on one horizontal line (4).
fn shaped(shape: usize, n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed;
    let mut coord = |modulus: u64, scale: f64| (splitmix(&mut state) % modulus) as f64 * scale;
    (0..n)
        .map(|i| match shape {
            0 => Point::new(coord(800_000, 1e-3), coord(800_000, 1e-3)),
            1 => Point::new(coord(6, 20.0), coord(6, 20.0)),
            2 => [
                Point::new(3.0, 4.0),
                Point::new(-3.0, 4.0),
                Point::new(3.0, -4.0),
            ][i % 3],
            3 => Point::new(5.0 * (i % 13) as f64, 2.5 * (i % 13) as f64),
            _ => Point::new(coord(50, 10.0), 7.0),
        })
        .collect()
}

fn workload_targets(config: ScenarioConfig) -> Vec<Point> {
    config.generate().field().patrolled_positions()
}

/// Checks the preorder, then `nearest` and `k_nearest` for each `k` at
/// every query.
fn assert_same_trees(label: &str, points: &[Point], queries: &[Point], ks: &[usize]) {
    let tree = KdTree::build(points);
    let reference = ReferenceKdTree::build(points);
    assert_eq!(tree.len(), points.len(), "{label}: len");
    assert!(
        tree.preorder().eq(reference.preorder()),
        "{label}: preorder"
    );
    let mut hits = Vec::new();
    for q in queries {
        assert_eq!(
            tree.nearest(q),
            reference.nearest(q),
            "{label}: nearest {q:?}"
        );
        for &k in ks {
            let want = reference.k_nearest(q, k);
            assert_eq!(tree.k_nearest(q, k), want, "{label}: {k}-nearest {q:?}");
            // A reused buffer holding another query's hits.
            tree.k_nearest_into(q, k, &mut hits);
            assert_eq!(hits, want, "{label}: {k}-nearest into {q:?}");
        }
    }
}

#[test]
fn every_small_size_matches_the_reference_tree() {
    for n in 0..=300usize {
        for shape in 0..5 {
            let points = shaped(shape, n, (n * 5 + shape) as u64);
            // Up to eight of the points themselves, a lattice site, and a
            // point outside every set's box.
            let mut queries: Vec<Point> = points.iter().step_by(n / 8 + 1).copied().collect();
            queries.extend([Point::new(40.0, 40.0), Point::new(-70.0, 310.0)]);
            let label = format!("n {n} shape {shape}");
            assert_same_trees(&label, &points, &queries, &[1, 5, 11, n]);
        }
    }
}

#[test]
fn tie_heavy_lattices_match_the_reference_tree() {
    for (n, side) in [(500usize, 8u64), (1_000, 20), (2_000, 40)] {
        let mut state = n as u64;
        let points: Vec<Point> = (0..n)
            .map(|_| {
                let x = splitmix(&mut state) % side;
                let y = splitmix(&mut state) % side;
                Point::new(20.0 * x as f64, 20.0 * y as f64)
            })
            .collect();
        let mut queries = points.clone();
        queries.push(Point::new(10.0, 10.0));
        let label = format!("lattice {n} on {side}x{side}");
        assert_same_trees(&label, &points, &queries, &[1, 5, 11]);
        assert_same_trees(&label, &points, &queries[..3], &[n]);
    }
}

#[test]
fn workload_sets_match_the_reference_tree() {
    let uniform = ScenarioSpec::default()
        .with_targets(3_000)
        .with_seed(1)
        .scenario_config();
    let clustered = ScenarioConfig::paper_default()
        .with_targets(3_000)
        .with_seed(29)
        .with_layout(LayoutKind::DisconnectedClusters {
            clusters: 6,
            cluster_radius_m: 40.0,
        });
    for (label, config) in [("uniform 3k", uniform), ("clustered 3k", clustered)] {
        let points = workload_targets(config);
        assert!(points.len() > 3_000, "{label}: targets and the sink");
        assert_same_trees(label, &points, &points, &[1, 5, 11]);
        assert_same_trees(label, &points, &points[..2], &[points.len()]);
    }
}
