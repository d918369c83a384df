//! The packaged CHB Hamiltonian-circuit pipeline.
//!
//! Every TCTP planner (and the CHB baseline itself) needs "an efficient
//! Hamiltonian Circuit constructed from the convex hull" (paper §2.2,
//! reference \[5\]). This module packages the full pipeline the rest of the
//! workspace calls:
//!
//! 1. convex-hull insertion construction,
//! 2. 2-opt polishing,
//! 3. Or-opt polishing,
//!
//! with a small config to disable the polishing passes for ablation.
//! Because all data mules run the same deterministic code on the same
//! target list, they all obtain *the same* circuit — the distributed-
//! agreement property the paper relies on.

use crate::candidates::{or_opt_candidates, two_opt_candidates, CandidateLists};
use crate::distance_matrix::DistanceMatrix;
use crate::insertion::{convex_hull_insertion, convex_hull_insertion_incremental};
use crate::nearest_neighbor::nearest_neighbor;
use crate::or_opt::or_opt;
use crate::tour::Tour;
use crate::two_opt::two_opt;
use mule_geom::Point;
use mule_road::TravelMetric;

/// Instance size up to which [`SearchMode::Auto`] uses the exact pipeline.
///
/// This is the determinism contract documented in `docs/DETERMINISM.md`:
/// every instance with at most this many points goes through the exact
/// all-pairs path and is **byte-identical** to historical tours; larger
/// instances switch to candidate-list search. The paper's evaluation tops
/// out at ~50 targets, so all golden scenarios sit comfortably below.
pub const AUTO_EXACT_THRESHOLD: usize = 128;

/// Default candidate-list width (`k` nearest neighbours per point) used by
/// [`SearchMode::Auto`] and anywhere a `k` is not given explicitly.
pub const DEFAULT_CANDIDATES_K: usize = 10;

/// Which neighbourhood the construction pipeline searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Exact construction and local search over the full distance matrix.
    /// Byte-stable; the only mode that existed before candidate lists. On
    /// uniform points the whole pipeline grows as about `n^1.9` from 50 to
    /// 200 points and `n^2.1` from 200 to 1,000 (measured exponents in
    /// docs/PERFORMANCE.md).
    Exact,
    /// Candidate-list search with the given `k` (nearest neighbours per
    /// point): incremental convex-hull insertion plus neighbour-list
    /// 2-opt / Or-opt with don't-look bits. Sub-quadratic but not
    /// `O(n log n)`: on uniform points the whole pipeline grows as about
    /// `n^1.3`, dominated by the insertion (measured exponents in
    /// docs/PERFORMANCE.md).
    Candidates(usize),
    /// Exact at or below [`AUTO_EXACT_THRESHOLD`] points (keeping small
    /// instances byte-identical), candidate lists with
    /// [`DEFAULT_CANDIDATES_K`] above it. The default.
    #[default]
    Auto,
}

impl SearchMode {
    /// Resolves `Auto` for an instance of `n` points; the result is always
    /// `Exact` or `Candidates(k)`.
    pub fn resolve(self, n: usize) -> SearchMode {
        match self {
            SearchMode::Auto => {
                if n <= AUTO_EXACT_THRESHOLD {
                    SearchMode::Exact
                } else {
                    SearchMode::Candidates(DEFAULT_CANDIDATES_K)
                }
            }
            other => other,
        }
    }

    /// Short human-readable label used in bench output.
    pub fn label(&self) -> String {
        match self {
            SearchMode::Exact => "exact".to_string(),
            SearchMode::Candidates(k) => format!("candidates({k})"),
            SearchMode::Auto => "auto".to_string(),
        }
    }
}

/// Configuration of the CHB circuit-construction pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChbConfig {
    /// Maximum number of full 2-opt sweeps (0 disables 2-opt).
    pub two_opt_passes: usize,
    /// Maximum number of full Or-opt sweeps (0 disables Or-opt).
    pub or_opt_passes: usize,
    /// Which neighbourhood the construction and polish passes search.
    pub search: SearchMode,
}

impl Default for ChbConfig {
    fn default() -> Self {
        // Enough passes to converge at the paper's instance sizes (≤ 50
        // targets) while keeping construction instantaneous. `Auto` search
        // keeps those sizes on the exact (byte-stable) path and switches to
        // candidate lists only above `AUTO_EXACT_THRESHOLD`.
        ChbConfig {
            two_opt_passes: 30,
            or_opt_passes: 30,
            search: SearchMode::Auto,
        }
    }
}

impl ChbConfig {
    /// A configuration with all polishing disabled — raw convex-hull
    /// insertion, for comparing a circuit before and after polishing.
    pub fn construction_only() -> Self {
        ChbConfig {
            two_opt_passes: 0,
            or_opt_passes: 0,
            search: SearchMode::Auto,
        }
    }

    /// Builder-style override of the search mode.
    pub fn with_search(mut self, search: SearchMode) -> Self {
        self.search = search;
        self
    }
}

/// Builds the CHB Hamiltonian circuit over `points` under `metric` — the
/// one circuit-construction entry point.
///
/// The pipeline follows from the metric and the resolved search mode:
///
/// * Euclidean, exact: all-pairs construction and polish over
///   [`DistanceMatrix::from_points`] — the historical, byte-stable path.
/// * Euclidean, candidates: matrix-free incremental insertion plus
///   neighbour-list polish. No dense matrix is allocated; the `O(n²)`
///   matrix is the first thing that stops fitting at thousands of targets.
/// * Road, exact: the same exact pipeline over the road
///   [`DistanceMatrix::from_metric`] (one Dijkstra per distinct snapped road
///   node). The convex-hull *seed* still comes from the point geometry
///   (hulls are geometric objects), but every cost it compares is a road
///   distance.
/// * Road, candidates: nearest-neighbour seeding plus matrix candidate-list
///   polish over the road matrix.
pub fn construct_circuit(points: &[Point], metric: &TravelMetric, config: &ChbConfig) -> Tour {
    match (metric.road_index(), config.search.resolve(points.len())) {
        (None, SearchMode::Candidates(k)) => construct_circuit_candidates(points, config, k),
        (Some(_), SearchMode::Candidates(k)) => {
            let dm = DistanceMatrix::from_metric(points, metric);
            construct_circuit_candidates_matrix(points, &dm, config, k)
        }
        _ => {
            let dm = DistanceMatrix::from_metric(points, metric);
            construct_circuit_exact(points, &dm, config)
        }
    }
}

/// [`construct_circuit`] under the Euclidean metric.
pub fn construct_circuit_with(points: &[Point], config: &ChbConfig) -> Tour {
    construct_circuit(points, &TravelMetric::Euclidean, config)
}

/// The matrix-backed candidate pipeline of the road metric:
/// nearest-neighbour seeding plus matrix candidate-list local search.
fn construct_circuit_candidates_matrix(
    points: &[Point],
    dm: &DistanceMatrix,
    config: &ChbConfig,
    k: usize,
) -> Tour {
    let _pipeline = mule_obs::span("chb.matrix_candidates");
    mule_obs::add("n", points.len() as u64);
    mule_obs::add("k", k as u64);
    let mut tour = {
        let _s = mule_obs::span("chb.nn_seed");
        nearest_neighbor(points, dm, 0)
    };
    if config.two_opt_passes == 0 && config.or_opt_passes == 0 {
        return tour;
    }
    let candidates = {
        let _s = mule_obs::span("chb.candidate_lists");
        CandidateLists::from_matrix(dm, k.max(1))
    };
    polish(
        &mut tour,
        config,
        |t, passes| two_opt_candidates(t, dm, &candidates, passes),
        |t, passes| or_opt_candidates(t, dm, &candidates, passes),
    );
    tour
}

/// The exact pipeline: all-pairs convex-hull insertion, 2-opt, Or-opt, and
/// a final 2-opt. Byte-stable — golden tests pin its tours.
fn construct_circuit_exact(points: &[Point], dm: &DistanceMatrix, config: &ChbConfig) -> Tour {
    let _pipeline = mule_obs::span("chb.exact");
    mule_obs::add("n", points.len() as u64);
    let mut tour = {
        let _s = mule_obs::span("chb.hull_insertion");
        convex_hull_insertion(points, dm)
    };
    polish(
        &mut tour,
        config,
        |t, passes| two_opt(t, dm, passes),
        |t, passes| or_opt(t, dm, passes),
    );
    tour
}

/// The candidate-list pipeline: incremental insertion plus neighbour-list
/// local search, mirroring the exact pipeline's pass structure.
fn construct_circuit_candidates(points: &[Point], config: &ChbConfig, k: usize) -> Tour {
    let _pipeline = mule_obs::span("chb.candidates");
    mule_obs::add("n", points.len() as u64);
    mule_obs::add("k", k as u64);
    let mut tour = {
        let _s = mule_obs::span("chb.hull_insertion");
        convex_hull_insertion_incremental(points)
    };
    if config.two_opt_passes == 0 && config.or_opt_passes == 0 {
        return tour;
    }
    let candidates = {
        let _s = mule_obs::span("chb.candidate_lists");
        CandidateLists::build(points, k.max(1))
    };
    polish(
        &mut tour,
        config,
        |t, passes| two_opt_candidates(t, points, &candidates, passes),
        |t, passes| or_opt_candidates(t, points, &candidates, passes),
    );
    tour
}

/// The polish sequence every pipeline shares: 2-opt, Or-opt, then a final
/// 2-opt. A pass with a zero budget in `config` is skipped; each pass that
/// runs opens its `chb.two_opt` / `chb.or_opt` span and records its applied
/// `moves` there.
fn polish(
    tour: &mut Tour,
    config: &ChbConfig,
    two_opt_pass: impl Fn(&mut Tour, usize) -> usize,
    or_opt_pass: impl Fn(&mut Tour, usize) -> usize,
) {
    let two_opt_step = |tour: &mut Tour| {
        if config.two_opt_passes > 0 {
            let _s = mule_obs::span("chb.two_opt");
            let moves = two_opt_pass(tour, config.two_opt_passes);
            mule_obs::add("moves", moves as u64);
        }
    };
    two_opt_step(tour);
    if config.or_opt_passes > 0 {
        {
            let _s = mule_obs::span("chb.or_opt");
            let moves = or_opt_pass(tour, config.or_opt_passes);
            mule_obs::add("moves", moves as u64);
        }
        // A final 2-opt pass cleans up crossings introduced by relocations.
        two_opt_step(tour);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::pseudo_random_points;

    fn default_circuit(points: &[Point]) -> Tour {
        construct_circuit(points, &TravelMetric::Euclidean, &ChbConfig::default())
    }

    #[test]
    fn circuit_is_a_valid_hamiltonian_cycle() {
        let pts = pseudo_random_points(30, 12345);
        let tour = default_circuit(&pts);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), pts.len());
    }

    #[test]
    fn polishing_never_hurts() {
        let pts = pseudo_random_points(40, 777);
        let raw = construct_circuit_with(&pts, &ChbConfig::construction_only());
        let polished = default_circuit(&pts);
        assert!(polished.length(&pts) <= raw.length(&pts) + 1e-9);
    }

    #[test]
    fn construction_is_deterministic_across_calls() {
        // The distributed-agreement property: every mule computes the same
        // circuit from the same target list.
        let pts = pseudo_random_points(25, 42);
        let a = default_circuit(&pts);
        let b = default_circuit(&pts);
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn circuit_length_is_within_twice_the_mst_bound() {
        let pts = pseudo_random_points(35, 9001);
        let dm = DistanceMatrix::from_points(&pts);
        let mst = crate::minimum_spanning_tree(&pts, &dm);
        let tour = default_circuit(&pts);
        assert!(tour.length(&pts) <= 2.0 * mst.weight + 1e-9);
    }

    #[test]
    fn degenerate_target_counts_are_handled() {
        for n in 0..4 {
            let pts = pseudo_random_points(n, 5);
            let tour = default_circuit(&pts);
            assert_eq!(tour.len(), n);
            assert!(tour.is_valid());
        }
    }

    #[test]
    fn default_config_enables_both_polishers() {
        let c = ChbConfig::default();
        assert!(c.two_opt_passes > 0 && c.or_opt_passes > 0);
        assert_eq!(c.search, SearchMode::Auto);
        let raw = ChbConfig::construction_only();
        assert_eq!(raw.two_opt_passes, 0);
        assert_eq!(raw.or_opt_passes, 0);
    }

    #[test]
    fn auto_mode_resolves_around_the_threshold() {
        assert_eq!(
            SearchMode::Auto.resolve(AUTO_EXACT_THRESHOLD),
            SearchMode::Exact
        );
        assert_eq!(
            SearchMode::Auto.resolve(AUTO_EXACT_THRESHOLD + 1),
            SearchMode::Candidates(DEFAULT_CANDIDATES_K)
        );
        assert_eq!(SearchMode::Exact.resolve(10_000), SearchMode::Exact);
        assert_eq!(
            SearchMode::Candidates(7).resolve(5),
            SearchMode::Candidates(7)
        );
        assert_eq!(SearchMode::Candidates(7).label(), "candidates(7)");
        assert_eq!(SearchMode::Auto.label(), "auto");
        assert_eq!(SearchMode::Exact.label(), "exact");
    }

    #[test]
    fn auto_is_byte_identical_to_exact_below_the_threshold() {
        for n in [5usize, 25, 50, AUTO_EXACT_THRESHOLD] {
            let pts = pseudo_random_points(n, 64);
            let auto = construct_circuit_with(&pts, &ChbConfig::default());
            let exact =
                construct_circuit_with(&pts, &ChbConfig::default().with_search(SearchMode::Exact));
            assert_eq!(auto.order(), exact.order(), "n = {n}");
        }
    }

    #[test]
    fn candidate_mode_yields_valid_near_exact_tours() {
        let pts = pseudo_random_points(150, 2024);
        let exact =
            construct_circuit_with(&pts, &ChbConfig::default().with_search(SearchMode::Exact));
        let fast = construct_circuit_with(
            &pts,
            &ChbConfig::default().with_search(SearchMode::Candidates(10)),
        );
        assert!(fast.is_valid());
        assert_eq!(fast.len(), pts.len());
        let ratio = fast.length(&pts) / exact.length(&pts);
        assert!(ratio <= 1.02, "candidate pipeline ratio {ratio:.4}");
    }

    #[test]
    fn candidate_mode_construction_only_skips_candidate_build() {
        let pts = pseudo_random_points(40, 7);
        let tour = construct_circuit_with(
            &pts,
            &ChbConfig::construction_only().with_search(SearchMode::Candidates(8)),
        );
        assert!(tour.is_valid());
        assert_eq!(tour.len(), pts.len());
    }

    #[test]
    fn metric_circuit_euclidean_is_byte_identical() {
        for n in [10usize, 60, AUTO_EXACT_THRESHOLD + 20] {
            let pts = pseudo_random_points(n, 31);
            let a = construct_circuit(&pts, &TravelMetric::Euclidean, &ChbConfig::default());
            let b = construct_circuit_with(&pts, &ChbConfig::default());
            assert_eq!(a.order(), b.order(), "n = {n}");
        }
    }

    #[test]
    fn metric_circuit_road_is_valid_and_deterministic() {
        let idx = mule_road::RoadIndex::for_field(
            mule_road::RoadNetKind::Grid,
            &mule_geom::BoundingBox::square(800.0),
            9,
        );
        let metric = TravelMetric::road(idx);
        // Snap the points onto the network like road scenarios do.
        let pts: Vec<Point> = pseudo_random_points(40, 12)
            .iter()
            .map(|p| metric.road_index().unwrap().snap_position(p))
            .collect();
        let a = construct_circuit(&pts, &metric, &ChbConfig::default());
        let b = construct_circuit(&pts, &metric, &ChbConfig::default());
        assert_eq!(a.order(), b.order());
        assert!(a.is_valid());
        assert_eq!(a.len(), pts.len());
        // The road tour should beat naive identity order by road length.
        let dm = DistanceMatrix::from_metric(&pts, &metric);
        let naive: Vec<usize> = (0..pts.len()).collect();
        assert!(dm.cycle_length(a.order()) <= dm.cycle_length(&naive));
        // The candidate path also produces a valid tour on road costs.
        let large = construct_circuit(
            &pts,
            &metric,
            &ChbConfig::default().with_search(SearchMode::Candidates(8)),
        );
        assert!(large.is_valid());
    }

    #[test]
    fn matrix_backed_pipeline_matches_quality_at_both_regimes() {
        // The road path's matrix candidate pipeline, fed a Euclidean
        // matrix, must stay near the matrix-free candidate pipeline in
        // quality below and above the exact threshold.
        let config = ChbConfig::default().with_search(SearchMode::Candidates(10));
        for n in [40usize, 200] {
            let pts = pseudo_random_points(n, 99);
            let dm = DistanceMatrix::from_points(&pts);
            let matrix = construct_circuit_candidates_matrix(&pts, &dm, &config, 10);
            let free = construct_circuit_with(&pts, &config);
            assert!(matrix.is_valid());
            assert_eq!(matrix.len(), n);
            let ratio = matrix.length(&pts) / free.length(&pts);
            assert!(
                (0.9..=1.1).contains(&ratio),
                "n = {n}: quality ratio {ratio:.4}"
            );
        }
    }

    #[test]
    fn auto_switches_to_candidates_above_the_threshold() {
        // Above the threshold the default config must still produce a valid
        // circuit (via the candidate path — this is what planners hit on
        // large scenarios).
        let pts = pseudo_random_points(AUTO_EXACT_THRESHOLD + 50, 5);
        let tour = default_circuit(&pts);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), pts.len());
    }
}
