//! B-TCTP: the Basic Target-Coverage Target-Patrolling planner (paper §II).
//!
//! Phase 1 — *path construction*: every mule builds the same CHB Hamiltonian
//! circuit over all patrolled nodes (targets + sink) and rotates it to start
//! at the most north node.
//!
//! Phase 2 — *patrolling strategy*: the circuit is partitioned into `n`
//! equal-length segments whose heads are the start points; each mule moves
//! to its assigned start point and then patrols the circuit counter-
//! clockwise forever. Because consecutive mules stay `|P|/n` apart, every
//! target is visited every `|P| / (n · v)` seconds with zero variance — the
//! property Figures 7 and 8 demonstrate.

use crate::deployment::spread_over;
use crate::hamiltonian::SharedCircuit;
use crate::plan::{MuleItinerary, PatrolPlan, PlanError, Walk};
use crate::planner::{validate_common, Planner};
use mule_graph::ChbConfig;
use mule_workload::Scenario;

/// The B-TCTP planner.
#[derive(Debug, Clone)]
pub struct BTctp {
    /// When `false`, the start-point spreading (phase 2) is skipped and
    /// every mule enters the circuit at the point closest to its own start
    /// position. This degenerates B-TCTP into the CHB baseline and exists
    /// for the `ablation_spread` bench.
    pub spread_start_points: bool,
}

impl Default for BTctp {
    /// The paper's B-TCTP (spreading enabled) — identical to
    /// [`BTctp::new`].
    fn default() -> Self {
        BTctp::new()
    }
}

impl BTctp {
    /// B-TCTP as described in the paper (spreading enabled).
    pub fn new() -> Self {
        BTctp {
            spread_start_points: true,
        }
    }

    /// The ablation variant without start-point spreading.
    pub fn without_spreading() -> Self {
        BTctp {
            spread_start_points: false,
        }
    }
}

impl Planner for BTctp {
    fn name(&self) -> &'static str {
        "B-TCTP"
    }

    fn plan(&self, scenario: &Scenario) -> Result<PatrolPlan, PlanError> {
        let _span = mule_obs::span_owned(|| format!("planner.{}", self.name()));
        validate_common(scenario)?;
        let circuit =
            SharedCircuit::build(scenario, &ChbConfig::default()).ok_or(PlanError::NoTargets)?;
        let walk = Walk::from(circuit.waypoints);
        if self.spread_start_points {
            return Ok(spread_over(self.name(), walk, scenario));
        }
        // CHB-style: every mule just enters the circuit at the waypoint
        // nearest its own start position.
        let path = walk.polyline();
        let itineraries = scenario
            .mule_starts()
            .iter()
            .enumerate()
            .map(|(m, start)| {
                let offset = nearest_vertex_offset(&path, start);
                MuleItinerary::new(m, *start, walk.clone()).with_entry_offset(offset)
            })
            .collect();
        Ok(PatrolPlan::new(self.name(), itineraries).with_metric_geometry(scenario.metric()))
    }
}

/// Arc-length offset of the path vertex closest to `point`.
pub(crate) fn nearest_vertex_offset(path: &mule_geom::Polyline, point: &mule_geom::Point) -> f64 {
    let mut best = (0usize, f64::INFINITY);
    for (i, p) in path.points().iter().enumerate() {
        let d = p.distance(point);
        if d < best.1 {
            best = (i, d);
        }
    }
    path.arc_length_to_vertex(best.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_workload::ScenarioConfig;

    fn scenario(seed: u64) -> Scenario {
        ScenarioConfig::paper_default().with_seed(seed).generate()
    }

    #[test]
    fn plan_covers_all_patrolled_nodes_once_per_round() {
        let s = scenario(3);
        let plan = BTctp::new().plan(&s).unwrap();
        assert_eq!(plan.mule_count(), 4);
        for it in &plan.itineraries {
            assert_eq!(it.cycle.len(), s.patrolled_positions().len());
            for id in s.patrolled_ids() {
                assert_eq!(it.visits_per_round(id), 1, "node {id} visited once");
            }
        }
    }

    #[test]
    fn all_mules_share_the_same_circuit_with_distinct_offsets() {
        let s = scenario(5);
        let plan = BTctp::new().plan(&s).unwrap();
        let reference = &plan.itineraries[0].cycle;
        let mut offsets = Vec::new();
        for it in &plan.itineraries {
            assert_eq!(&it.cycle, reference, "identical shared circuit");
            offsets.push(it.entry_offset_m);
        }
        offsets.sort_by(|a, b| a.total_cmp(b));
        // Equal spacing |P|/n between consecutive entry offsets.
        let total = plan.itineraries[0].cycle_length();
        let expected_gap = total / plan.mule_count() as f64;
        for w in offsets.windows(2) {
            assert!((w[1] - w[0] - expected_gap).abs() < 1e-6);
        }
    }

    #[test]
    fn spreading_disabled_bunches_mules_at_the_sink_entry() {
        let s = scenario(7);
        let plan = BTctp::without_spreading().plan(&s).unwrap();
        let first = plan.itineraries[0].entry_offset_m;
        assert!(plan
            .itineraries
            .iter()
            .all(|it| (it.entry_offset_m - first).abs() < 1e-9));
    }

    #[test]
    fn plan_errors_on_empty_fleet() {
        let s = ScenarioConfig::paper_default().with_mules(0).generate();
        assert_eq!(BTctp::new().plan(&s), Err(PlanError::NoMules));
    }

    #[test]
    fn plan_is_deterministic() {
        let s = scenario(11);
        let a = BTctp::new().plan(&s).unwrap();
        let b = BTctp::new().plan(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn planner_name_matches_paper() {
        assert_eq!(BTctp::new().name(), "B-TCTP");
    }

    #[test]
    fn nearest_vertex_offset_picks_the_closest_vertex() {
        let path = mule_geom::Polyline::closed(vec![
            mule_geom::Point::new(0.0, 0.0),
            mule_geom::Point::new(10.0, 0.0),
            mule_geom::Point::new(10.0, 10.0),
        ]);
        let off = nearest_vertex_offset(&path, &mule_geom::Point::new(11.0, 1.0));
        assert!((off - 10.0).abs() < 1e-9);
        let zero = nearest_vertex_offset(&path, &mule_geom::Point::new(-1.0, -1.0));
        assert_eq!(zero, 0.0);
    }
}
