//! Per-phase data-collection delay.
//!
//! A dynamic run is partitioned into *phases* by its disruption times
//! (target failures/recoveries/arrivals, mule breakdowns, speed-window
//! edges). This report computes the data-collection delay — the
//! [`mule_sim::VisitRecord::data_age_s`] of every visit — separately for
//! each phase, which is how the effect of a disruption (and of the
//! replan answering it) becomes visible: a breakdown without replanning
//! shows up as a jump in the following phase's mean delay; with
//! replanning the jump shrinks.

use crate::summary::SummaryStatistics;
use crate::table::TextTable;
use mule_sim::{DynamicOutcome, SimulationOutcome};

/// Delay statistics of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelay {
    /// Phase start, seconds (inclusive).
    pub start_s: f64,
    /// Phase end, seconds (exclusive; the last phase ends at the horizon).
    pub end_s: f64,
    /// Number of visits recorded during the phase.
    pub visits: usize,
    /// Collection-delay statistics over those visits (empty phases report
    /// all-zero statistics).
    pub delay: SummaryStatistics,
}

impl PhaseDelay {
    /// Mean collection delay of the phase, seconds (0 when no visits).
    pub fn mean_delay_s(&self) -> f64 {
        self.delay.mean
    }

    /// Largest collection delay of the phase, seconds (0 when no visits).
    pub fn max_delay_s(&self) -> f64 {
        self.delay.max
    }
}

/// Data-collection delay partitioned at phase boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelayReport {
    /// One entry per phase, in time order. A run with no boundaries has
    /// exactly one phase covering the whole horizon.
    pub phases: Vec<PhaseDelay>,
}

impl PhaseDelayReport {
    /// Builds the report from an outcome and explicit phase boundaries
    /// (unsorted or duplicated boundaries are handled; boundaries outside
    /// `[0, horizon]` are dropped).
    pub fn new(outcome: &SimulationOutcome, boundaries: &[f64]) -> Self {
        let horizon = outcome.horizon_s;
        let mut cuts: Vec<f64> = boundaries
            .iter()
            .copied()
            .filter(|t| t.is_finite() && *t > 0.0 && *t < horizon)
            .collect();
        cuts.sort_by(|a, b| a.total_cmp(b));
        cuts.dedup_by(|a, b| a.total_cmp(b).is_eq());

        let mut edges = Vec::with_capacity(cuts.len() + 2);
        edges.push(0.0);
        edges.extend(cuts);
        edges.push(horizon);

        let phases = edges
            .windows(2)
            .map(|w| {
                let (start, end) = (w[0], w[1]);
                // The final phase is closed on the right so a visit exactly
                // at the horizon is counted once.
                let is_last = end.total_cmp(&horizon).is_eq();
                let samples: Vec<f64> = outcome
                    .visits
                    .iter()
                    .filter(|v| {
                        v.time_s >= start && (v.time_s < end || (is_last && v.time_s <= end))
                    })
                    .map(|v| v.data_age_s)
                    .collect();
                PhaseDelay {
                    start_s: start,
                    end_s: end,
                    visits: samples.len(),
                    delay: SummaryStatistics::from_samples(&samples),
                }
            })
            .collect();
        PhaseDelayReport { phases }
    }

    /// Builds the report straight from a dynamic outcome, using the
    /// boundaries its disruption plan induced.
    pub fn from_dynamic(outcome: &DynamicOutcome) -> Self {
        PhaseDelayReport::new(&outcome.outcome, &outcome.phase_boundaries_s)
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// `true` when the report has no phases (only possible for an empty
    /// outcome with a zero horizon).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Mean delay over all phases, weighted by visit count (0 when the
    /// run had no visits).
    pub fn overall_mean_delay_s(&self) -> f64 {
        let visits: usize = self.phases.iter().map(|p| p.visits).sum();
        if visits == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .phases
            .iter()
            .map(|p| p.delay.mean * p.visits as f64)
            .sum();
        weighted / visits as f64
    }

    /// Renders the per-phase table printed by `patrolctl dynamics`.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "phase",
            "start (s)",
            "end (s)",
            "visits",
            "mean delay (s)",
            "max delay (s)",
        ]);
        for (i, p) in self.phases.iter().enumerate() {
            table.add_row(vec![
                format!("{}", i + 1),
                format!("{:.0}", p.start_s),
                format!("{:.0}", p.end_s),
                format!("{}", p.visits),
                format!("{:.1}", p.mean_delay_s()),
                format!("{:.1}", p.max_delay_s()),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_net::NodeId;
    use mule_sim::VisitRecord;

    fn outcome(horizon: f64, visits: &[(f64, f64)]) -> SimulationOutcome {
        SimulationOutcome {
            planner_name: "test".into(),
            horizon_s: horizon,
            visits: visits
                .iter()
                .map(|&(t, age)| VisitRecord {
                    time_s: t,
                    mule_index: 0,
                    node: NodeId(1),
                    data_age_s: age,
                    bytes: 0.0,
                })
                .collect(),
            mules: vec![],
        }
    }

    #[test]
    fn no_boundaries_yield_one_phase_over_the_whole_run() {
        let o = outcome(100.0, &[(10.0, 5.0), (50.0, 15.0)]);
        let r = PhaseDelayReport::new(&o, &[]);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.phases[0].visits, 2);
        assert_eq!(r.phases[0].start_s, 0.0);
        assert_eq!(r.phases[0].end_s, 100.0);
        assert!((r.overall_mean_delay_s() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn visits_partition_at_the_boundaries() {
        let o = outcome(
            100.0,
            &[
                (10.0, 4.0),
                (30.0, 8.0),
                (30.5, 2.0),
                (90.0, 6.0),
                (100.0, 10.0),
            ],
        );
        let r = PhaseDelayReport::new(&o, &[30.0, 80.0]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.phases[0].visits, 1, "[0, 30): one visit");
        assert_eq!(
            r.phases[1].visits, 2,
            "[30, 80): boundary visit counts right"
        );
        assert_eq!(r.phases[2].visits, 2, "[80, 100]: horizon visit included");
        assert!((r.phases[1].mean_delay_s() - 5.0).abs() < 1e-12);
        assert_eq!(r.phases[2].max_delay_s(), 10.0);
    }

    #[test]
    fn degenerate_boundaries_are_sanitised() {
        let o = outcome(50.0, &[(10.0, 1.0)]);
        let r = PhaseDelayReport::new(&o, &[20.0, 20.0, -5.0, f64::NAN, 999.0, 0.0]);
        assert_eq!(r.len(), 2, "only the in-range, deduped boundary splits");
        assert_eq!(r.phases[0].end_s, 20.0);
    }

    #[test]
    fn empty_phases_report_zero_statistics() {
        let o = outcome(100.0, &[(10.0, 5.0)]);
        let r = PhaseDelayReport::new(&o, &[50.0]);
        assert_eq!(r.phases[1].visits, 0);
        assert_eq!(r.phases[1].mean_delay_s(), 0.0);
        assert_eq!(r.phases[1].max_delay_s(), 0.0);
        assert!((r.overall_mean_delay_s() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn table_has_one_row_per_phase() {
        let o = outcome(100.0, &[(10.0, 5.0), (60.0, 7.0)]);
        let r = PhaseDelayReport::new(&o, &[50.0]);
        let table = r.to_table();
        assert_eq!(table.len(), 2);
        let rendered = table.render();
        assert!(rendered.contains("mean delay"));
        assert!(rendered.contains("visits"));
    }
}
