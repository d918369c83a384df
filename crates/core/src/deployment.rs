//! Location initialisation: spreading the mules over the patrolling path.
//!
//! B-TCTP (§2.2 B) partitions the circuit into `n` equal-length segments
//! anchored at the most north target, yielding `n` *start points*; each mule
//! then moves to "the closest start point", with conflicts resolved so that
//! "each start point exactly has one DM". The same step is reused verbatim
//! by W-TCTP and RW-TCTP (§3.2, §4.2).
//!
//! We resolve conflicts with a greedy global matching: all (mule, start
//! point) pairs are sorted by distance and accepted when both sides are
//! still free. This realises the paper's intent (each mule travels to a
//! nearby start point, every start point manned by exactly one mule) while
//! being deterministic and independent of mule iteration order.

use crate::plan::{MuleItinerary, PatrolPlan, Walk};
use mule_geom::{Point, Polyline};
use mule_workload::Scenario;

/// One mule's deployment decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deployment {
    /// Index of the start point assigned to this mule (0 is the path's
    /// anchor — the northmost node).
    pub start_point_index: usize,
    /// Arc-length offset of that start point along the path.
    pub entry_offset_m: f64,
    /// The start point's coordinates.
    pub entry_point: Point,
    /// Straight-line distance the mule must travel from its initial
    /// position to reach its start point.
    pub deployment_distance_m: f64,
}

/// Computes the equal-arc start points of `path` (one per mule) and assigns
/// each mule to exactly one of them.
///
/// Returns one [`Deployment`] per mule, in mule order. For an empty path or
/// an empty mule list the result is empty.
pub fn assign_start_points(path: &Polyline, mule_positions: &[Point]) -> Vec<Deployment> {
    let n = mule_positions.len();
    if n == 0 || path.is_empty() {
        return Vec::new();
    }
    let total = path.length();
    let offsets: Vec<f64> = (0..n).map(|i| total * i as f64 / n as f64).collect();
    let start_points: Vec<Point> = offsets
        .iter()
        .map(|&d| path.point_at(d).expect("path verified non-empty"))
        .collect();

    // Greedy minimum-distance matching.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(n * n);
    for (m, mp) in mule_positions.iter().enumerate() {
        for (s, sp) in start_points.iter().enumerate() {
            pairs.push((m, s, mp.distance(sp)));
        }
    }
    pairs.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

    let mut mule_taken = vec![false; n];
    let mut point_taken = vec![false; n];
    let mut assignment = vec![usize::MAX; n];
    let mut assigned = 0;
    for (m, s, _) in pairs {
        if assigned == n {
            break;
        }
        if !mule_taken[m] && !point_taken[s] {
            mule_taken[m] = true;
            point_taken[s] = true;
            assignment[m] = s;
            assigned += 1;
        }
    }

    assignment
        .into_iter()
        .enumerate()
        .map(|(m, s)| Deployment {
            start_point_index: s,
            entry_offset_m: offsets[s],
            entry_point: start_points[s],
            deployment_distance_m: mule_positions[m].distance(&start_points[s]),
        })
        .collect()
}

/// The plan named `name` in which every mule of `scenario` patrols `walk`,
/// entering it at its assigned start point, routed along the scenario's
/// metric: the patrolling strategy of B-, W- and RW-TCTP.
pub(crate) fn spread_over(name: &str, walk: Walk, scenario: &Scenario) -> PatrolPlan {
    let deployments = assign_start_points(&walk.polyline(), scenario.mule_starts());
    let itineraries = scenario
        .mule_starts()
        .iter()
        .enumerate()
        .map(|(m, start)| {
            MuleItinerary::new(m, *start, walk.clone())
                .with_entry_offset(deployments[m].entry_offset_m)
        })
        .collect();
    PatrolPlan::new(name, itineraries).with_metric_geometry(scenario.metric())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_path() -> Polyline {
        Polyline::closed(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
        ])
    }

    #[test]
    fn start_points_are_equally_spaced_and_uniquely_assigned() {
        let path = square_path();
        let mules = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
        ];
        let d = assign_start_points(&path, &mules);
        assert_eq!(d.len(), 4);
        // Every start point index is used exactly once.
        let mut indices: Vec<usize> = d.iter().map(|x| x.start_point_index).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        // Offsets are i/n of the perimeter.
        let mut offsets: Vec<f64> = d.iter().map(|x| x.entry_offset_m).collect();
        offsets.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(offsets, vec![0.0, 100.0, 200.0, 300.0]);
        // Each mule starts at a corner, so its assigned point is its own
        // corner at distance zero.
        assert!(d.iter().all(|x| x.deployment_distance_m < 1e-9));
    }

    #[test]
    fn conflicting_mules_spread_out() {
        // All mules start at the same place; they still get distinct start
        // points.
        let path = square_path();
        let mules = vec![Point::new(0.0, 0.0); 4];
        let d = assign_start_points(&path, &mules);
        let mut indices: Vec<usize> = d.iter().map(|x| x.start_point_index).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        // Exactly one mule gets the zero-distance point; the others travel.
        let zero_distance = d.iter().filter(|x| x.deployment_distance_m < 1e-9).count();
        assert_eq!(zero_distance, 1);
    }

    #[test]
    fn single_mule_takes_the_anchor_point() {
        let path = square_path();
        let d = assign_start_points(&path, &[Point::new(500.0, 500.0)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].start_point_index, 0);
        assert_eq!(d[0].entry_offset_m, 0.0);
        assert_eq!(d[0].entry_point, Point::new(0.0, 0.0));
    }

    #[test]
    fn more_mules_than_path_vertices_still_get_distinct_offsets() {
        let path = square_path();
        let mules: Vec<Point> = (0..8).map(|i| Point::new(i as f64 * 10.0, -20.0)).collect();
        let d = assign_start_points(&path, &mules);
        assert_eq!(d.len(), 8);
        let mut offsets: Vec<f64> = d.iter().map(|x| x.entry_offset_m).collect();
        offsets.sort_by(|a, b| a.total_cmp(b));
        for w in offsets.windows(2) {
            assert!((w[1] - w[0] - 50.0).abs() < 1e-9, "offsets every 50 m");
        }
    }

    #[test]
    fn empty_inputs_yield_empty_deployments() {
        assert!(assign_start_points(&square_path(), &[]).is_empty());
        assert!(assign_start_points(&Polyline::closed(vec![]), &[Point::ORIGIN]).is_empty());
    }

    #[test]
    fn assignment_minimises_obvious_cases() {
        // Two mules near two opposite corners should take those corners.
        let path = square_path();
        let mules = vec![Point::new(5.0, 5.0), Point::new(95.0, 95.0)];
        let d = assign_start_points(&path, &mules);
        assert_eq!(d[0].entry_point, Point::new(0.0, 0.0));
        assert_eq!(d[1].entry_point, Point::new(100.0, 100.0));
    }
}
