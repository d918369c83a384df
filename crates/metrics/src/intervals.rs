//! Visiting-interval analysis.
//!
//! The visiting interval of a target is the time between two consecutive
//! visits to it (by any mule). The paper's headline objective is to minimise
//! the *maximum* visiting interval and keep the per-target standard
//! deviation (SD, §V) of those intervals near zero.

use crate::summary::{sample_std_dev, SummaryStatistics};
use mule_net::NodeId;
use mule_sim::SimulationOutcome;
use std::collections::BTreeMap;

/// Per-target and aggregate visiting-interval statistics for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalReport {
    /// Visiting intervals per node, in chronological order.
    pub per_node_intervals: BTreeMap<NodeId, Vec<f64>>,
    /// Number of warm-up visits skipped per node before measuring.
    pub warmup_visits_skipped: usize,
}

impl IntervalReport {
    /// Builds the report from a simulation outcome, skipping the first
    /// `warmup_visits` visits of every node (the paper's steady-state view:
    /// mules are still converging onto their start points during the first
    /// lap).
    pub fn from_outcome_with_warmup(outcome: &SimulationOutcome, warmup_visits: usize) -> Self {
        let mut per_node_intervals = BTreeMap::new();
        for (node, times) in outcome.visit_times_per_node() {
            if times.len() <= warmup_visits + 1 {
                per_node_intervals.insert(node, Vec::new());
                continue;
            }
            let steady = &times[warmup_visits..];
            let intervals: Vec<f64> = steady.windows(2).map(|w| w[1] - w[0]).collect();
            per_node_intervals.insert(node, intervals);
        }
        IntervalReport {
            per_node_intervals,
            warmup_visits_skipped: warmup_visits,
        }
    }

    /// Builds the report with a default warm-up of two visits per node.
    pub fn from_outcome(outcome: &SimulationOutcome) -> Self {
        Self::from_outcome_with_warmup(outcome, 2)
    }

    /// All intervals across all nodes.
    pub fn all_intervals(&self) -> Vec<f64> {
        self.per_node_intervals
            .values()
            .flat_map(|v| v.iter().copied())
            .collect()
    }

    /// The maximum visiting interval across every node — the objective the
    /// paper minimises. Zero when no interval was observed.
    pub fn max_interval(&self) -> f64 {
        self.all_intervals().iter().cloned().fold(0.0, f64::max)
    }

    /// The mean visiting interval across every node.
    pub fn mean_interval(&self) -> f64 {
        SummaryStatistics::from_samples(&self.all_intervals()).mean
    }

    /// The paper's SD metric for one node: the sample standard deviation of
    /// its visiting intervals. `None` when the node has no measured
    /// intervals.
    pub fn node_sd(&self, node: NodeId) -> Option<f64> {
        self.per_node_intervals
            .get(&node)
            .filter(|v| !v.is_empty())
            .map(|v| sample_std_dev(v))
    }

    /// The SD of every node that has measured intervals.
    pub fn per_node_sd(&self) -> BTreeMap<NodeId, f64> {
        self.per_node_intervals
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(node, v)| (*node, sample_std_dev(v)))
            .collect()
    }

    /// Average of the per-node SDs — the quantity plotted in Figures 8 and
    /// 10. Zero when nothing was measured.
    pub fn average_sd(&self) -> f64 {
        let sds: Vec<f64> = self.per_node_sd().values().copied().collect();
        if sds.is_empty() {
            0.0
        } else {
            sds.iter().sum::<f64>() / sds.len() as f64
        }
    }

    /// Summary statistics over the interval population.
    pub fn summary(&self) -> SummaryStatistics {
        SummaryStatistics::from_samples(&self.all_intervals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_sim::VisitRecord;

    fn outcome_with_visits(visits: Vec<(f64, usize)>) -> SimulationOutcome {
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
            mules: vec![],
        }
    }

    #[test]
    fn intervals_are_consecutive_differences() {
        let o = outcome_with_visits(vec![(10.0, 1), (30.0, 1), (60.0, 1), (100.0, 1)]);
        let r = IntervalReport::from_outcome_with_warmup(&o, 0);
        assert_eq!(r.per_node_intervals[&NodeId(1)], vec![20.0, 30.0, 40.0]);
        assert_eq!(r.max_interval(), 40.0);
        assert!((r.mean_interval() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_visits_are_skipped() {
        let o = outcome_with_visits(vec![(10.0, 1), (30.0, 1), (60.0, 1), (100.0, 1)]);
        let r = IntervalReport::from_outcome_with_warmup(&o, 2);
        assert_eq!(r.per_node_intervals[&NodeId(1)], vec![40.0]);
        assert_eq!(r.warmup_visits_skipped, 2);
    }

    #[test]
    fn constant_intervals_have_zero_sd() {
        let o = outcome_with_visits(vec![(0.0, 1), (50.0, 1), (100.0, 1), (150.0, 1)]);
        let r = IntervalReport::from_outcome_with_warmup(&o, 0);
        assert_eq!(r.node_sd(NodeId(1)), Some(0.0));
        assert_eq!(r.average_sd(), 0.0);
    }

    #[test]
    fn uneven_intervals_have_positive_sd() {
        let o = outcome_with_visits(vec![(0.0, 1), (10.0, 1), (100.0, 1), (110.0, 1)]);
        let r = IntervalReport::from_outcome_with_warmup(&o, 0);
        assert!(r.node_sd(NodeId(1)).unwrap() > 0.0);
        assert!(r.average_sd() > 0.0);
    }

    #[test]
    fn rarely_visited_nodes_are_reported_unmeasured() {
        let o = outcome_with_visits(vec![(10.0, 1), (20.0, 1), (30.0, 2)]);
        let r = IntervalReport::from_outcome_with_warmup(&o, 0);
        assert_eq!(r.per_node_intervals[&NodeId(1)], vec![10.0]);
        assert!(r.per_node_intervals[&NodeId(2)].is_empty());
        assert!(r.node_sd(NodeId(2)).is_none());
    }

    #[test]
    fn aggregate_sd_averages_over_nodes() {
        let o = outcome_with_visits(vec![
            // Node 1: constant 10 s intervals → SD 0.
            (0.0, 1),
            (10.0, 1),
            (20.0, 1),
            // Node 2: intervals 10 and 30 → SD = sqrt(200) ≈ 14.14.
            (0.0, 2),
            (10.0, 2),
            (40.0, 2),
        ]);
        let r = IntervalReport::from_outcome_with_warmup(&o, 0);
        let expected_node2 = 200.0f64.sqrt();
        assert!((r.average_sd() - expected_node2 / 2.0).abs() < 1e-9);
        assert_eq!(r.summary().count, 4);
    }

    #[test]
    fn empty_outcome_produces_an_empty_report() {
        let o = outcome_with_visits(vec![]);
        let r = IntervalReport::from_outcome(&o);
        assert_eq!(r.max_interval(), 0.0);
        assert_eq!(r.average_sd(), 0.0);
        assert!(r.all_intervals().is_empty());
    }
}
