//! Shared Hamiltonian-circuit construction over a scenario.
//!
//! Every TCTP planner and the CHB baseline start from the same step: build
//! the CHB Hamiltonian circuit over the patrolled nodes (targets + sink) and
//! rotate it so traversal starts at the paper's canonical anchor, the most
//! north target point (§2.2 B: "Each DM will treat the most north target
//! point as the first start point"). Keeping this in one place guarantees
//! all planners (and thus all simulated mules) agree on the circuit.

use crate::plan::Waypoint;
use mule_geom::polyline::northmost_index;
use mule_geom::Point;
use mule_graph::{construct_circuit, ChbConfig};
use mule_net::NodeId;
use mule_workload::Scenario;

/// The shared circuit: waypoints in traversal order (starting at the
/// northmost patrolled node), plus the index mapping used to build it.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedCircuit {
    /// Waypoints in traversal order; a closed cycle (the last connects back
    /// to the first).
    pub waypoints: Vec<Waypoint>,
}

impl SharedCircuit {
    /// Builds the circuit for `scenario` with the given CHB configuration,
    /// under the scenario's travel metric: Euclidean scenarios take the
    /// historical (byte-identical) construction path, road scenarios build
    /// and polish the tour over shortest-path road distances.
    ///
    /// Returns `None` when the scenario has no patrolled nodes.
    pub fn build(scenario: &Scenario, chb: &ChbConfig) -> Option<Self> {
        let positions = scenario.patrolled_positions();
        let ids = scenario.patrolled_ids();
        if positions.is_empty() {
            return None;
        }

        // The Hamiltonian circuit over local indices 0..k of the patrolled
        // set, costed by the scenario's metric.
        let tour = construct_circuit(&positions, scenario.metric(), chb);
        let mut order = tour.into_order();

        // Rotate so the most north patrolled node comes first — the paper's
        // deterministic anchor shared by all mules.
        if let Some(north_local) = northmost_index(&positions) {
            if let Some(pos) = order.iter().position(|&i| i == north_local) {
                order.rotate_left(pos);
            }
        }

        let waypoints = order
            .into_iter()
            .map(|local| Waypoint::new(ids[local], positions[local]))
            .collect();
        Some(SharedCircuit { waypoints })
    }

    /// Positions of the circuit waypoints in traversal order.
    pub fn positions(&self) -> Vec<Point> {
        self.waypoints.iter().map(|w| w.position).collect()
    }

    /// Node ids of the circuit waypoints in traversal order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.waypoints.iter().map(|w| w.node).collect()
    }

    /// Total circuit length, metres.
    pub fn length(&self) -> f64 {
        mule_geom::Polyline::closed(self.positions()).length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_workload::ScenarioConfig;

    fn scenario() -> Scenario {
        ScenarioConfig::paper_default()
            .with_targets(12)
            .with_seed(17)
            .generate()
    }

    #[test]
    fn circuit_covers_every_patrolled_node_exactly_once() {
        let s = scenario();
        let c = SharedCircuit::build(&s, &ChbConfig::default()).unwrap();
        assert_eq!(c.waypoints.len(), s.patrolled_positions().len());
        let mut ids = c.node_ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), c.waypoints.len(), "no node repeats");
        assert!(c.length() > 0.0);
    }

    #[test]
    fn circuit_starts_at_the_northmost_patrolled_node() {
        let s = scenario();
        let c = SharedCircuit::build(&s, &ChbConfig::default()).unwrap();
        let north_y = c.waypoints[0].position.y;
        for w in &c.waypoints {
            assert!(north_y >= w.position.y - 1e-9);
        }
    }

    #[test]
    fn circuit_construction_is_deterministic() {
        let s = scenario();
        let a = SharedCircuit::build(&s, &ChbConfig::default()).unwrap();
        let b = SharedCircuit::build(&s, &ChbConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn raw_construction_is_never_shorter_than_polished() {
        let s = scenario();
        let polished = SharedCircuit::build(&s, &ChbConfig::default()).unwrap();
        let raw = SharedCircuit::build(&s, &ChbConfig::construction_only()).unwrap();
        assert!(polished.length() <= raw.length() + 1e-9);
    }

    #[test]
    fn large_scenarios_build_circuits_via_the_candidate_path() {
        // 400 targets is far above `AUTO_EXACT_THRESHOLD`, so the default
        // config routes through candidate-list search — this is the path
        // every planner takes on ROADMAP-scale topologies. With the exact
        // pipeline this test would take minutes in debug builds.
        let s = mule_workload::ScenarioConfig::paper_default()
            .with_targets(400)
            .with_seed(3)
            .generate();
        let c = SharedCircuit::build(&s, &ChbConfig::default()).unwrap();
        assert_eq!(c.waypoints.len(), s.patrolled_positions().len());
        let mut ids = c.node_ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), c.waypoints.len(), "no node repeats");
        // Deterministic: same scenario, same circuit.
        let again = SharedCircuit::build(&s, &ChbConfig::default()).unwrap();
        assert_eq!(c, again);
        // Explicit candidate mode with another k also works end to end.
        let explicit = SharedCircuit::build(
            &s,
            &ChbConfig::default().with_search(mule_graph::SearchMode::Candidates(6)),
        )
        .unwrap();
        assert_eq!(explicit.waypoints.len(), c.waypoints.len());
    }

    #[test]
    fn single_node_scenarios_yield_single_waypoint_circuits() {
        let s = ScenarioConfig::paper_default()
            .with_targets(0)
            .with_seed(1)
            .generate();
        let c = SharedCircuit::build(&s, &ChbConfig::default()).unwrap();
        assert_eq!(c.waypoints.len(), 1); // just the sink
        assert_eq!(c.length(), 0.0);
    }
}
