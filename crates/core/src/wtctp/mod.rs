//! W-TCTP: the Weighted Target-Coverage Target-Patrolling planner (paper
//! §III).
//!
//! The planner augments the shared Hamiltonian circuit into a **Weighted
//! Patrolling Path** (WPP): for every VIP `g_i` with weight `w_i`, `w_i − 1`
//! *break edges* are removed from the path and their endpoints reconnected
//! to `g_i`, creating `w_i` cycles that all intersect at `g_i` (Definition
//! 3). In walk form this is simply inserting `w_i − 1` extra occurrences of
//! `g_i` into the cyclic visiting sequence.
//!
//! Two break-edge selection policies are provided (paper §3.1 A):
//!
//! * [`BreakEdgePolicy::ShortestLength`] — minimise the added path length
//!   (Exp. 1);
//! * [`BreakEdgePolicy::BalancingLength`] — make the `w_i` cycles as equal
//!   in length as possible (Exp. 2), so the VIP's visiting intervals are
//!   evenly spaced.
//!
//! Multiple VIPs are processed in descending weight order (§3.1 B). The
//! final traversal order is fixed by the counter-clockwise *patrolling rule*
//! (§3.2), so every mule walks the cycles of the WPP in the same order.

pub mod patrol_rule;
pub mod wpp;

use crate::deployment::spread_over;
use crate::hamiltonian::SharedCircuit;
use crate::plan::{PatrolPlan, PlanError, Walk, Waypoint};
use crate::planner::{validate_common, Planner};
use mule_graph::ChbConfig;
use mule_workload::Scenario;

/// Break-edge selection policy (paper §3.1 A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakEdgePolicy {
    /// Minimise the total WPP length (Exp. 1).
    #[default]
    ShortestLength,
    /// Balance the lengths of the cycles created for each VIP (Exp. 2).
    BalancingLength,
}

impl BreakEdgePolicy {
    /// Both policies, for sweeps in the figure harness.
    pub const ALL: [BreakEdgePolicy; 2] = [
        BreakEdgePolicy::ShortestLength,
        BreakEdgePolicy::BalancingLength,
    ];

    /// Human-readable label used in report tables.
    pub fn label(&self) -> &'static str {
        match self {
            BreakEdgePolicy::ShortestLength => "shortest-length",
            BreakEdgePolicy::BalancingLength => "balancing-length",
        }
    }
}

/// The W-TCTP planner.
#[derive(Debug, Clone, Default)]
pub struct WTctp {
    /// Break-edge selection policy.
    pub policy: BreakEdgePolicy,
}

impl WTctp {
    /// W-TCTP with the given policy.
    pub fn new(policy: BreakEdgePolicy) -> Self {
        WTctp { policy }
    }

    /// Builds the weighted patrolling path for `scenario` and returns the
    /// walk as waypoints (shared by all mules). Exposed so RW-TCTP can reuse
    /// it and so benches can measure WPP length directly.
    pub fn build_wpp_waypoints(&self, scenario: &Scenario) -> Result<Vec<Waypoint>, PlanError> {
        let circuit =
            SharedCircuit::build(scenario, &ChbConfig::default()).ok_or(PlanError::NoTargets)?;
        let positions = circuit.positions();
        let ids = circuit.node_ids();

        // Weight of each circuit waypoint, aligned with the circuit order.
        let field = scenario.field();
        let weights: Vec<u32> = ids
            .iter()
            .map(|id| field.node(*id).map(|n| n.weight.value()).unwrap_or(1))
            .collect();

        // The circuit walk over local indices 0..k is simply 0,1,2,…,k-1
        // because `positions` is already in traversal order.
        let base: Vec<usize> = (0..positions.len()).collect();
        let walk = {
            let _s = mule_obs::span("wtctp.break_edge");
            wpp::build_wpp(&base, &positions, &weights, self.policy)
        };

        // Canonical traversal order via the patrolling rule.
        let ordered = {
            let _s = mule_obs::span("wtctp.patrol_rule");
            patrol_rule::order_walk_by_rule(&walk, &positions)
        };

        Ok(ordered
            .into_iter()
            .map(|local| Waypoint::new(ids[local], positions[local]))
            .collect())
    }
}

impl Planner for WTctp {
    fn name(&self) -> &'static str {
        "W-TCTP"
    }

    fn plan(&self, scenario: &Scenario) -> Result<PatrolPlan, PlanError> {
        let _span = mule_obs::span_owned(|| format!("planner.{}", self.name()));
        validate_common(scenario)?;
        let walk = Walk::from(self.build_wpp_waypoints(scenario)?);
        Ok(spread_over(self.name(), walk, scenario))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_workload::{ScenarioConfig, WeightSpec};

    fn weighted_scenario(seed: u64, vips: usize, weight: u32) -> Scenario {
        ScenarioConfig::paper_default()
            .with_targets(15)
            .with_weights(WeightSpec::UniformVips {
                count: vips,
                weight,
            })
            .with_seed(seed)
            .generate()
    }

    #[test]
    fn wpp_visits_each_vip_weight_times_and_ntps_once() {
        for policy in BreakEdgePolicy::ALL {
            let s = weighted_scenario(4, 3, 3);
            let plan = WTctp::new(policy).plan(&s).unwrap();
            let it = &plan.itineraries[0];
            for node in s.field().patrolled_nodes() {
                assert_eq!(
                    it.visits_per_round(node.id),
                    node.weight.value() as usize,
                    "{policy:?}: node {} should be visited {} times",
                    node.id,
                    node.weight.value()
                );
            }
        }
    }

    #[test]
    fn unweighted_scenarios_reduce_to_the_plain_circuit() {
        let s = ScenarioConfig::paper_default().with_seed(9).generate();
        let plan = WTctp::new(BreakEdgePolicy::ShortestLength)
            .plan(&s)
            .unwrap();
        let it = &plan.itineraries[0];
        assert_eq!(it.cycle.len(), s.patrolled_positions().len());
    }

    #[test]
    fn shortest_policy_never_builds_a_longer_wpp_than_balancing() {
        for seed in [1, 2, 3, 4, 5] {
            let s = weighted_scenario(seed, 4, 3);
            let shortest = WTctp::new(BreakEdgePolicy::ShortestLength)
                .build_wpp_waypoints(&s)
                .unwrap();
            let balancing = WTctp::new(BreakEdgePolicy::BalancingLength)
                .build_wpp_waypoints(&s)
                .unwrap();
            let len = |w: &Vec<Waypoint>| {
                mule_geom::Polyline::closed(w.iter().map(|x| x.position).collect()).length()
            };
            assert!(
                len(&shortest) <= len(&balancing) + 1e-6,
                "seed {seed}: shortest {} vs balancing {}",
                len(&shortest),
                len(&balancing)
            );
        }
    }

    #[test]
    fn all_mules_share_the_same_wpp() {
        let s = weighted_scenario(7, 2, 4);
        let plan = WTctp::new(BreakEdgePolicy::BalancingLength)
            .plan(&s)
            .unwrap();
        let reference = &plan.itineraries[0].cycle;
        for it in &plan.itineraries {
            assert_eq!(&it.cycle, reference);
        }
        // Entry offsets are spread equally along the WPP.
        let total = plan.itineraries[0].cycle_length();
        let mut offsets: Vec<f64> = plan.itineraries.iter().map(|i| i.entry_offset_m).collect();
        offsets.sort_by(|a, b| a.total_cmp(b));
        let gap = total / plan.mule_count() as f64;
        for w in offsets.windows(2) {
            assert!((w[1] - w[0] - gap).abs() < 1e-6);
        }
    }

    #[test]
    fn plan_is_deterministic_and_errors_are_propagated() {
        let s = weighted_scenario(11, 3, 2);
        let a = WTctp::new(BreakEdgePolicy::ShortestLength)
            .plan(&s)
            .unwrap();
        let b = WTctp::new(BreakEdgePolicy::ShortestLength)
            .plan(&s)
            .unwrap();
        assert_eq!(a, b);

        let empty = ScenarioConfig::paper_default().with_mules(0).generate();
        assert_eq!(
            WTctp::new(BreakEdgePolicy::ShortestLength).plan(&empty),
            Err(PlanError::NoMules)
        );
    }

    #[test]
    fn policy_labels_and_default() {
        assert_eq!(BreakEdgePolicy::default(), BreakEdgePolicy::ShortestLength);
        assert_ne!(
            BreakEdgePolicy::ShortestLength.label(),
            BreakEdgePolicy::BalancingLength.label()
        );
        assert_eq!(
            WTctp::new(BreakEdgePolicy::BalancingLength).name(),
            "W-TCTP"
        );
    }
}
