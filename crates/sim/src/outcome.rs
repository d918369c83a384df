//! Simulation results: the visit log and per-mule reports.

use crate::mule::MuleReport;
use mule_net::NodeId;
use std::collections::BTreeMap;

/// One data-collection visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisitRecord {
    /// Simulation time of the visit, seconds.
    pub time_s: f64,
    /// The visiting mule.
    pub mule_index: usize,
    /// The visited node.
    pub node: NodeId,
    /// Age of the oldest buffered data collected at this visit, seconds —
    /// the paper's Data Collection Delay Time sample for this visit.
    pub data_age_s: f64,
    /// Bytes collected.
    pub bytes: f64,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Name of the planner whose plan was executed.
    pub planner_name: String,
    /// Horizon the simulation covered, seconds.
    pub horizon_s: f64,
    /// Every visit, in non-decreasing time order.
    pub visits: Vec<VisitRecord>,
    /// Per-mule end-of-run reports, in mule-index order.
    pub mules: Vec<MuleReport>,
}

impl SimulationOutcome {
    /// Visit times grouped per node, each list sorted ascending.
    pub fn visit_times_per_node(&self) -> BTreeMap<NodeId, Vec<f64>> {
        let mut map: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
        for v in &self.visits {
            map.entry(v.node).or_default().push(v.time_s);
        }
        for times in map.values_mut() {
            times.sort_by(|a, b| a.total_cmp(b));
        }
        map
    }

    /// Data-age samples grouped per node, in visit order.
    pub fn data_ages_per_node(&self) -> BTreeMap<NodeId, Vec<f64>> {
        let mut map: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
        let mut visits = self.visits.clone();
        visits.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        for v in &visits {
            map.entry(v.node).or_default().push(v.data_age_s);
        }
        map
    }

    /// Total number of visits across all nodes.
    pub fn total_visits(&self) -> usize {
        self.visits.len()
    }

    /// Total distance travelled by the fleet, metres.
    pub fn total_distance_m(&self) -> f64 {
        self.mules.iter().map(|m| m.distance_m).sum()
    }

    /// Total energy consumed by the fleet, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.mules.iter().map(|m| m.ledger.total()).sum()
    }

    /// Total bytes delivered to the sink by the fleet.
    pub fn total_delivered_bytes(&self) -> f64 {
        self.mules.iter().map(|m| m.delivered_bytes).sum()
    }

    /// Returns `true` when every mule survived the run (no battery ever
    /// emptied) — the property RW-TCTP is designed to guarantee.
    pub fn all_mules_survived(&self) -> bool {
        self.mules.iter().all(|m| m.status.survived())
    }

    /// Minimum number of visits received by any node that was visited at
    /// all; zero when there were no visits.
    pub fn min_visits_per_node(&self) -> usize {
        self.visit_times_per_node()
            .values()
            .map(Vec::len)
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mule::MuleStatus;
    use mule_energy::ConsumptionLedger;

    fn sample_outcome() -> SimulationOutcome {
        let mk = |t: f64, mule: usize, node: usize, age: f64| VisitRecord {
            time_s: t,
            mule_index: mule,
            node: NodeId(node),
            data_age_s: age,
            bytes: age * 10.0,
        };
        SimulationOutcome {
            planner_name: "test".to_string(),
            horizon_s: 100.0,
            visits: vec![
                mk(10.0, 0, 1, 10.0),
                mk(20.0, 1, 2, 20.0),
                mk(30.0, 0, 1, 20.0),
                mk(55.0, 1, 1, 25.0),
            ],
            mules: vec![
                MuleReport {
                    mule_index: 0,
                    status: MuleStatus::Active,
                    distance_m: 100.0,
                    visits: 2,
                    recharges: 0,
                    remaining_energy_j: 50.0,
                    ledger: ConsumptionLedger::new(),
                    delivered_bytes: 300.0,
                },
                MuleReport {
                    mule_index: 1,
                    status: MuleStatus::Depleted { at_s: 60.0 },
                    distance_m: 80.0,
                    visits: 2,
                    recharges: 1,
                    remaining_energy_j: 0.0,
                    ledger: ConsumptionLedger::new(),
                    delivered_bytes: 150.0,
                },
            ],
        }
    }

    #[test]
    fn visit_times_are_grouped_and_sorted_per_node() {
        let o = sample_outcome();
        let per_node = o.visit_times_per_node();
        assert_eq!(per_node[&NodeId(1)], vec![10.0, 30.0, 55.0]);
        assert_eq!(per_node[&NodeId(2)], vec![20.0]);
        assert_eq!(o.total_visits(), 4);
        assert_eq!(o.min_visits_per_node(), 1);
    }

    #[test]
    fn data_ages_follow_visit_order() {
        let o = sample_outcome();
        let ages = o.data_ages_per_node();
        assert_eq!(ages[&NodeId(1)], vec![10.0, 20.0, 25.0]);
    }

    #[test]
    fn fleet_aggregates_sum_over_mules() {
        let o = sample_outcome();
        assert_eq!(o.total_distance_m(), 180.0);
        assert_eq!(o.total_delivered_bytes(), 450.0);
        assert!(!o.all_mules_survived());
    }

    #[test]
    fn empty_outcome_is_total() {
        let o = SimulationOutcome {
            planner_name: "empty".into(),
            horizon_s: 0.0,
            visits: vec![],
            mules: vec![],
        };
        assert_eq!(o.total_visits(), 0);
        assert_eq!(o.min_visits_per_node(), 0);
        assert!(o.all_mules_survived());
        assert_eq!(o.total_energy_j(), 0.0);
    }
}
