//! # mule-graph
//!
//! Tours over target sets: the Hamiltonian-circuit substrate that every
//! TCTP planner (and the CHB baseline of reference \[5\]) starts from.
//!
//! The crate is organised as construction → improvement → inspection:
//!
//! * [`DistanceMatrix`] — dense pairwise travel distances, computed once
//!   per circuit build and shared by all its heuristics: Euclidean
//!   ([`DistanceMatrix::from_points`]) or under any
//!   [`mule_road::TravelMetric`] ([`DistanceMatrix::from_metric`]).
//! * [`Tour`] — an ordered Hamiltonian cycle over point indices with length,
//!   validity, arc reversal and edge bookkeeping.
//! * Construction heuristics: [`nearest_neighbor()`], [`cheapest_insertion`],
//!   [`convex_hull_insertion`] (the "CHB" construction), [`mst`] (Prim) with
//!   a pre-order-walk tour for a 2-approximation cross-check.
//! * Improvement: [`two_opt()`] and [`or_opt()`] local search (exact,
//!   all-pairs), plus their scalable candidate-list twins in
//!   [`candidates`] — k-nearest-neighbour lists with don't-look bits.
//! * [`partition`] — angular target grouping for the Sweep baseline.
//! * [`chb`] — the packaged pipeline (convex-hull insertion + 2-opt + Or-opt)
//!   behind the one circuit entry point,
//!   [`construct_circuit(points, metric, config)`](construct_circuit). The
//!   planners always run the default [`SearchMode::Auto`], which keeps
//!   paper-size instances on the exact (byte-stable) path and switches to
//!   candidate lists above [`chb::AUTO_EXACT_THRESHOLD`] points; forcing one
//!   engine ([`ChbConfig::with_search`]) is for benches and tests. Under a
//!   road [`mule_road::TravelMetric`] the pipeline runs over precomputed
//!   shortest-path distances; [`construct_circuit_with`] is the Euclidean
//!   shorthand.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod candidates;
pub mod chb;
pub mod distance_matrix;
pub mod insertion;
pub mod mst;
pub mod nearest_neighbor;
pub mod or_opt;
pub mod partition;
pub mod tour;
pub mod two_opt;

pub use candidates::{or_opt_candidates, two_opt_candidates, CandidateLists, SearchDist};
pub use chb::{construct_circuit, construct_circuit_with, ChbConfig, SearchMode};
pub use distance_matrix::DistanceMatrix;
pub use insertion::{cheapest_insertion, convex_hull_insertion, convex_hull_insertion_incremental};
pub use mst::{minimum_spanning_tree, mst_preorder_tour};
pub use nearest_neighbor::nearest_neighbor;
pub use or_opt::or_opt;
pub use partition::angular_partition;
pub use tour::Tour;
pub use two_opt::two_opt;

use mule_geom::Point;

/// Which construction heuristic to use for the initial Hamiltonian circuit.
///
/// The paper's planners all use the convex-hull-based construction of
/// reference \[5\]; the other options exist for the path-length table and
/// as sanity cross-checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TourConstruction {
    /// Convex-hull insertion (CHB) — the paper's choice.
    #[default]
    ConvexHullInsertion,
    /// Greedy nearest-neighbour chain.
    NearestNeighbor,
    /// Cheapest-insertion starting from the two farthest-apart points.
    CheapestInsertion,
    /// Pre-order walk of a minimum spanning tree (2-approximation).
    MstPreorder,
}

impl TourConstruction {
    /// Builds a tour over `points` with this heuristic. Returns a trivial
    /// tour for fewer than two points.
    pub fn build(&self, points: &[Point]) -> Tour {
        let dm = DistanceMatrix::from_points(points);
        self.build_with_matrix(points, &dm)
    }

    /// Like [`TourConstruction::build`] but reuses a precomputed distance
    /// matrix.
    pub fn build_with_matrix(&self, points: &[Point], dm: &DistanceMatrix) -> Tour {
        match self {
            TourConstruction::ConvexHullInsertion => convex_hull_insertion(points, dm),
            TourConstruction::NearestNeighbor => nearest_neighbor(points, dm, 0),
            TourConstruction::CheapestInsertion => cheapest_insertion(points, dm),
            TourConstruction::MstPreorder => mst_preorder_tour(points, dm),
        }
    }

    /// All variants, in the path-length table's column order.
    pub const ALL: [TourConstruction; 4] = [
        TourConstruction::ConvexHullInsertion,
        TourConstruction::NearestNeighbor,
        TourConstruction::CheapestInsertion,
        TourConstruction::MstPreorder,
    ];

    /// Short human-readable label used in bench output tables.
    pub fn label(&self) -> &'static str {
        match self {
            TourConstruction::ConvexHullInsertion => "convex-hull",
            TourConstruction::NearestNeighbor => "nearest-neighbor",
            TourConstruction::CheapestInsertion => "cheapest-insertion",
            TourConstruction::MstPreorder => "mst-preorder",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, radius: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(400.0 + radius * t.cos(), 400.0 + radius * t.sin())
            })
            .collect()
    }

    #[test]
    fn every_construction_yields_a_valid_tour() {
        let pts = ring(12, 300.0);
        for c in TourConstruction::ALL {
            let tour = c.build(&pts);
            assert!(tour.is_valid(), "{} produced an invalid tour", c.label());
            assert_eq!(tour.len(), pts.len());
            assert!(tour.length(&pts) > 0.0);
        }
    }

    #[test]
    fn constructions_on_a_ring_are_near_optimal() {
        // On a circle the optimal tour is the ring itself; good heuristics
        // should be within a small factor.
        let pts = ring(16, 250.0);
        let optimal = mule_geom::Polyline::closed(pts.clone()).length();
        for c in TourConstruction::ALL {
            let len = c.build(&pts).length(&pts);
            assert!(
                len <= optimal * 2.0 + 1e-6,
                "{} gave {len}, optimal {optimal}",
                c.label()
            );
        }
        // The hull-based construction is exactly optimal on a convex ring.
        let chb = TourConstruction::ConvexHullInsertion
            .build(&pts)
            .length(&pts);
        assert!((chb - optimal).abs() < 1e-6);
    }

    #[test]
    fn default_construction_is_convex_hull_insertion() {
        assert_eq!(
            TourConstruction::default(),
            TourConstruction::ConvexHullInsertion
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            TourConstruction::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), TourConstruction::ALL.len());
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use mule_geom::Point;

    /// Deterministic pseudo-random point sets shared by the unit tests of
    /// the construction and search modules (one LCG hash, one 800 m field,
    /// one copy — keep fixtures from silently diverging).
    pub(crate) fn pseudo_random_points(n: usize, salt: u64) -> Vec<Point> {
        (0..n as u64)
            .map(|i| {
                let h = i.wrapping_mul(6364136223846793005).wrapping_add(salt);
                Point::new((h % 800) as f64, ((h >> 17) % 800) as f64)
            })
            .collect()
    }

    /// SplitMix64: a tiny seeded stream for [`tie_heavy_points`] and
    /// [`lattice_points`].
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `n` points on an integer lattice of 20 m spacing with about
    /// `sites_per_point` lattice sites per point, so points coincide and
    /// distances tie exactly — the lattices of `tests/golden_candidates.rs`.
    pub(crate) fn lattice_points(n: usize, sites_per_point: f64, seed: u64) -> Vec<Point> {
        let side = ((n as f64 * sites_per_point).sqrt().ceil() as u64).max(2);
        let mut state = seed;
        (0..n)
            .map(|_| {
                let x = splitmix(&mut state) % side;
                let y = splitmix(&mut state) % side;
                Point::new(20.0 * x as f64, 20.0 * y as f64)
            })
            .collect()
    }

    /// `n` points of one of four shapes on an 800 m field, for the tests
    /// that compare a search with the algorithm it replaced: uniform
    /// floats (0), a coarse integer lattice with exact distance ties (1), a
    /// few distinct points repeated, so zero distances (2), or the lattice
    /// jittered by under a nanometre, so gains near the `1e-10` acceptance
    /// test (3).
    pub(crate) fn tie_heavy_points(shape: usize, n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut coord = |modulus: u64, scale: f64| (splitmix(&mut state) % modulus) as f64 * scale;
        match shape {
            0 => (0..n)
                .map(|_| Point::new(coord(800_000, 1e-3), coord(800_000, 1e-3)))
                .collect(),
            1 => (0..n)
                .map(|_| Point::new(coord(8, 100.0), coord(8, 100.0)))
                .collect(),
            3 => (0..n)
                .map(|_| {
                    let x = coord(8, 100.0) + coord(1000, 1e-12);
                    Point::new(x, coord(8, 100.0) + coord(1000, 1e-12))
                })
                .collect(),
            _ => {
                let distinct: Vec<Point> = (0..n.div_ceil(3))
                    .map(|_| Point::new(coord(800, 1.0), coord(800, 1.0)))
                    .collect();
                (0..n)
                    .map(|_| distinct[(coord(distinct.len() as u64, 1.0)) as usize])
                    .collect()
            }
        }
    }
}
