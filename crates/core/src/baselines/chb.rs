//! The CHB baseline (reference \[5\]).
//!
//! All mules follow the same convex-hull-based Hamiltonian circuit, entering
//! it wherever is closest to their own starting position. Because the mules
//! are *not* spread to equal-arc start points, mules that start together
//! stay bunched, and the visiting interval of each target oscillates — the
//! behaviour Figures 7 and 8 attribute to CHB.

use crate::btctp::BTctp;
use crate::plan::{PatrolPlan, PlanError};
use crate::planner::Planner;
use mule_workload::Scenario;

/// The CHB baseline planner.
#[derive(Debug, Clone, Default)]
pub struct ChbPlanner;

impl ChbPlanner {
    /// The CHB baseline.
    pub fn new() -> Self {
        ChbPlanner
    }
}

impl Planner for ChbPlanner {
    fn name(&self) -> &'static str {
        "CHB"
    }

    fn plan(&self, scenario: &Scenario) -> Result<PatrolPlan, PlanError> {
        let _span = mule_obs::span_owned(|| format!("planner.{}", self.name()));
        // CHB is exactly B-TCTP phase 1 without phase 2 (no start-point
        // spreading).
        let mut plan = BTctp::without_spreading().plan(scenario)?;
        plan.planner_name = self.name().to_string();
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_workload::ScenarioConfig;

    #[test]
    fn chb_covers_every_node_once_but_does_not_spread_mules() {
        let s = ScenarioConfig::paper_default().with_seed(4).generate();
        let plan = ChbPlanner::new().plan(&s).unwrap();
        assert_eq!(plan.planner_name, "CHB");
        assert_eq!(plan.mule_count(), 4);
        for it in &plan.itineraries {
            assert_eq!(it.cycle.len(), s.patrolled_positions().len());
        }
        // All mules start at the sink, so they all enter at the same offset.
        let first = plan.itineraries[0].entry_offset_m;
        assert!(plan
            .itineraries
            .iter()
            .all(|it| (it.entry_offset_m - first).abs() < 1e-9));
    }

    #[test]
    fn chb_and_btctp_share_the_same_circuit() {
        let s = ScenarioConfig::paper_default().with_seed(6).generate();
        let chb = ChbPlanner::new().plan(&s).unwrap();
        let btctp = crate::BTctp::new().plan(&s).unwrap();
        assert_eq!(chb.itineraries[0].cycle, btctp.itineraries[0].cycle);
    }

    #[test]
    fn chb_propagates_plan_errors() {
        let s = ScenarioConfig::paper_default().with_mules(0).generate();
        assert_eq!(ChbPlanner::new().plan(&s), Err(PlanError::NoMules));
    }
}
