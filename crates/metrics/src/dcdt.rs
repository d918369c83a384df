//! Data Collection Delay Time (DCDT).
//!
//! The DCDT of a visit is the age of the data collected at that visit —
//! i.e. how long the target had been waiting since its previous collection.
//! Figure 7 plots DCDT against the visit index ("visited time") for every
//! compared mechanism; Figure 9 reports the average DCDT of VIP targets.

use crate::summary::SummaryStatistics;
use mule_net::NodeId;
use mule_sim::SimulationOutcome;
use std::collections::BTreeMap;

/// DCDT samples organised per visit index and per node.
#[derive(Debug, Clone, PartialEq)]
pub struct DcdtSeries {
    /// For every node, the DCDT of its 1st, 2nd, 3rd, … visit.
    pub per_node: BTreeMap<NodeId, Vec<f64>>,
}

impl DcdtSeries {
    /// Builds the series from a simulation outcome.
    pub fn from_outcome(outcome: &SimulationOutcome) -> Self {
        DcdtSeries {
            per_node: outcome.data_ages_per_node(),
        }
    }

    /// The Fig. 7 series: for visit index `k`, the DCDT averaged over every
    /// node that received at least `k + 1` visits. The series length is the
    /// largest visit count of any node.
    pub fn average_by_visit_index(&self) -> Vec<f64> {
        let max_len = self.per_node.values().map(Vec::len).max().unwrap_or(0);
        (0..max_len)
            .map(|k| {
                let samples: Vec<f64> = self
                    .per_node
                    .values()
                    .filter_map(|v| v.get(k).copied())
                    .collect();
                if samples.is_empty() {
                    0.0
                } else {
                    samples.iter().sum::<f64>() / samples.len() as f64
                }
            })
            .collect()
    }

    /// Average DCDT over every visit of every node, skipping the first
    /// `warmup_visits` visits per node (the first collection's age depends
    /// on the arbitrary simulation start, not on the mechanism).
    pub fn average_dcdt(&self, warmup_visits: usize) -> f64 {
        let samples: Vec<f64> = self
            .per_node
            .values()
            .flat_map(|v| v.iter().skip(warmup_visits).copied())
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        }
    }

    /// The largest DCDT observed after the warm-up visits.
    pub fn max_dcdt(&self, warmup_visits: usize) -> f64 {
        self.per_node
            .values()
            .flat_map(|v| v.iter().skip(warmup_visits).copied())
            .fold(0.0, f64::max)
    }

    /// Summary statistics over all post-warm-up DCDT samples.
    pub fn summary(&self, warmup_visits: usize) -> SummaryStatistics {
        let samples: Vec<f64> = self
            .per_node
            .values()
            .flat_map(|v| v.iter().skip(warmup_visits).copied())
            .collect();
        SummaryStatistics::from_samples(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_sim::VisitRecord;

    fn outcome(ages: Vec<(usize, Vec<f64>)>) -> SimulationOutcome {
        // Build visits where node `n` receives visits with the given ages
        // at times 1, 2, 3, …
        let mut visits = Vec::new();
        for (node, series) in ages {
            for (k, age) in series.into_iter().enumerate() {
                visits.push(VisitRecord {
                    time_s: (k + 1) as f64,
                    mule_index: 0,
                    node: NodeId(node),
                    data_age_s: age,
                    bytes: 0.0,
                });
            }
        }
        SimulationOutcome {
            planner_name: "test".into(),
            horizon_s: 100.0,
            visits,
            mules: vec![],
        }
    }

    #[test]
    fn per_node_series_follow_visit_order() {
        let o = outcome(vec![(1, vec![5.0, 10.0, 15.0]), (2, vec![7.0, 7.0])]);
        let s = DcdtSeries::from_outcome(&o);
        assert_eq!(s.per_node[&NodeId(1)], vec![5.0, 10.0, 15.0]);
        assert_eq!(s.per_node[&NodeId(2)], vec![7.0, 7.0]);
    }

    #[test]
    fn average_by_visit_index_handles_ragged_lengths() {
        let o = outcome(vec![(1, vec![10.0, 20.0, 30.0]), (2, vec![20.0])]);
        let s = DcdtSeries::from_outcome(&o);
        let series = s.average_by_visit_index();
        assert_eq!(series.len(), 3);
        assert!((series[0] - 15.0).abs() < 1e-12);
        assert!((series[1] - 20.0).abs() < 1e-12);
        assert!((series[2] - 30.0).abs() < 1e-12);
    }

    #[test]
    fn average_and_max_dcdt_respect_warmup() {
        let o = outcome(vec![(1, vec![100.0, 10.0, 20.0])]);
        let s = DcdtSeries::from_outcome(&o);
        assert!((s.average_dcdt(1) - 15.0).abs() < 1e-12);
        assert_eq!(s.max_dcdt(1), 20.0);
        // Without warm-up the initial 100 s sample dominates.
        assert_eq!(s.max_dcdt(0), 100.0);
        assert_eq!(s.summary(1).count, 2);
    }

    #[test]
    fn empty_outcome_is_total() {
        let o = outcome(vec![]);
        let s = DcdtSeries::from_outcome(&o);
        assert!(s.average_by_visit_index().is_empty());
        assert_eq!(s.average_dcdt(0), 0.0);
        assert_eq!(s.max_dcdt(0), 0.0);
    }
}
