//! Fairness and workload-balance metrics.
//!
//! Two complementary views the paper discusses informally:
//!
//! * **Coverage fairness** — are all targets served equally often? We report
//!   Jain's fairness index over the per-target mean visiting intervals
//!   (1.0 = perfectly fair, → 1/n as one target monopolises the service).
//! * **Fleet balance** — do the mules share the work? We report Jain's index
//!   over per-mule travelled distance and the max/min distance ratio, which
//!   exposes the Sweep baseline's unequal groups.

use crate::intervals::IntervalReport;
use mule_sim::SimulationOutcome;

/// Jain's fairness index of a sample: `(Σx)² / (n · Σx²)`, in `(0, 1]`.
///
/// Returns 1.0 for empty or all-zero samples (nothing to be unfair about).
pub fn jain_index(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let sum: f64 = samples.iter().sum();
    let sum_sq: f64 = samples.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (samples.len() as f64 * sum_sq)
}

/// Fairness report for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessReport {
    /// Jain's index over per-target mean visiting intervals.
    pub coverage_fairness: f64,
    /// Jain's index over per-mule travelled distance.
    pub fleet_balance: f64,
    /// Largest per-mule distance divided by the smallest (1.0 = perfectly
    /// balanced; ∞ avoided by flooring the denominator at 1 m).
    pub distance_ratio: f64,
    /// Number of targets that received at least two visits (and therefore
    /// contribute a measured interval).
    pub measured_targets: usize,
}

impl FairnessReport {
    /// Builds the report from a simulation outcome.
    pub fn from_outcome(outcome: &SimulationOutcome) -> Self {
        let intervals = IntervalReport::from_outcome_with_warmup(outcome, 0);
        let means: Vec<f64> = intervals
            .per_node_intervals
            .values()
            .filter(|v| !v.is_empty())
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();

        let distances: Vec<f64> = outcome
            .mules
            .iter()
            .filter(|m| m.distance_m > 0.0)
            .map(|m| m.distance_m)
            .collect();
        let distance_ratio = if distances.is_empty() {
            1.0
        } else {
            let max = distances.iter().cloned().fold(f64::MIN, f64::max);
            let min = distances.iter().cloned().fold(f64::MAX, f64::min);
            max / min.max(1.0)
        };

        FairnessReport {
            coverage_fairness: jain_index(&means),
            fleet_balance: jain_index(&distances),
            distance_ratio,
            measured_targets: means.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_net::NodeId;
    use mule_sim::VisitRecord;

    #[test]
    fn jain_index_extremes() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One user hogging everything: index → 1/n.
        let skewed = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        // Moderate imbalance sits in between.
        let mid = jain_index(&[1.0, 2.0, 3.0]);
        assert!(mid > 0.25 && mid < 1.0);
    }

    fn outcome_with(visits: Vec<(f64, usize)>, distances: Vec<f64>) -> SimulationOutcome {
        use mule_energy::ConsumptionLedger;
        use mule_sim::{MuleReport, MuleStatus};
        SimulationOutcome {
            planner_name: "test".into(),
            horizon_s: 1_000.0,
            visits: visits
                .into_iter()
                .map(|(t, node)| VisitRecord {
                    time_s: t,
                    mule_index: 0,
                    node: NodeId(node),
                    data_age_s: 0.0,
                    bytes: 0.0,
                })
                .collect(),
            mules: distances
                .into_iter()
                .enumerate()
                .map(|(i, d)| MuleReport {
                    mule_index: i,
                    status: MuleStatus::Active,
                    distance_m: d,
                    visits: 0,
                    recharges: 0,
                    remaining_energy_j: 0.0,
                    ledger: ConsumptionLedger::new(),
                    delivered_bytes: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn perfectly_regular_outcome_is_fully_fair() {
        // Two targets, both visited every 100 s; two mules with equal work.
        let o = outcome_with(
            vec![
                (0.0, 1),
                (100.0, 1),
                (200.0, 1),
                (0.0, 2),
                (100.0, 2),
                (200.0, 2),
            ],
            vec![500.0, 500.0],
        );
        let r = FairnessReport::from_outcome(&o);
        assert!((r.coverage_fairness - 1.0).abs() < 1e-12);
        assert!((r.fleet_balance - 1.0).abs() < 1e-12);
        assert!((r.distance_ratio - 1.0).abs() < 1e-12);
        assert_eq!(r.measured_targets, 2);
    }

    #[test]
    fn unbalanced_fleet_is_detected() {
        let o = outcome_with(
            vec![(0.0, 1), (10.0, 1), (0.0, 2), (500.0, 2)],
            vec![1000.0, 100.0],
        );
        let r = FairnessReport::from_outcome(&o);
        assert!(r.coverage_fairness < 1.0);
        assert!(r.fleet_balance < 1.0);
        assert!((r.distance_ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_outcome_is_neutral() {
        let o = outcome_with(vec![], vec![]);
        let r = FairnessReport::from_outcome(&o);
        assert_eq!(r.coverage_fairness, 1.0);
        assert_eq!(r.fleet_balance, 1.0);
        assert_eq!(r.measured_targets, 0);
    }
}
