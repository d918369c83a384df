//! Figure 7 — Data Collection Delay Time per visit index.
//!
//! The paper plots the DCDT of the targets over the first ~40 visits for
//! Random, Sweep, CHB and TCTP (B-TCTP). The qualitative shape to
//! reproduce: Random fluctuates wildly, Sweep and CHB oscillate
//! periodically, TCTP settles to a flat constant.

use crate::replicate;
use mule_metrics::{DcdtSeries, TextTable};
use mule_sim::{SimulationConfig, SweepCellOutcome};
use mule_workload::ScenarioConfig;
use patrol_core::baselines::{ChbPlanner, RandomPlanner, SweepPlanner};
use patrol_core::{BTctp, Planner};

/// Parameters of the Figure 7 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Params {
    /// Number of targets (paper default 10).
    pub targets: usize,
    /// Number of data mules (paper default 4).
    pub mules: usize,
    /// Number of visit indices to report (paper plots ~40).
    pub visit_indices: usize,
    /// Replicas to average over.
    pub replicas: usize,
    /// Simulation horizon per replica, seconds.
    pub horizon_s: f64,
    /// Base seed of the replication fan.
    pub seed: u64,
}

impl Default for Fig7Params {
    fn default() -> Self {
        Fig7Params {
            targets: 10,
            mules: 4,
            visit_indices: 40,
            replicas: crate::PAPER_REPLICAS,
            horizon_s: 120_000.0,
            seed: 7,
        }
    }
}

/// One planner's averaged DCDT series.
#[derive(Debug, Clone)]
pub struct Fig7Series {
    /// Planner name.
    pub planner: String,
    /// Average DCDT at visit index `k` (seconds), `visit_indices` entries.
    pub dcdt_by_visit: Vec<f64>,
}

impl Fig7Series {
    /// Largest minus smallest DCDT over the reported indices — a proxy for
    /// how much the series oscillates (TCTP should be near zero).
    pub fn oscillation(&self) -> f64 {
        let tail: Vec<f64> = self.dcdt_by_visit.iter().copied().skip(3).collect();
        if tail.is_empty() {
            return 0.0;
        }
        let max = tail.iter().cloned().fold(f64::MIN, f64::max);
        let min = tail.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }
}

fn averaged_series(rep: &SweepCellOutcome, visit_indices: usize) -> Vec<f64> {
    let mut sums = vec![0.0; visit_indices];
    let mut counts = vec![0usize; visit_indices];
    for outcome in &rep.outcomes {
        let series = DcdtSeries::from_outcome(outcome).average_by_visit_index();
        for (k, value) in series.into_iter().take(visit_indices).enumerate() {
            sums[k] += value;
            counts[k] += 1;
        }
    }
    sums.iter()
        .zip(counts.iter())
        .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
        .collect()
}

/// Runs the Figure 7 sweep and returns one series per planner.
pub fn run(params: &Fig7Params) -> Vec<Fig7Series> {
    let base = ScenarioConfig::paper_default()
        .with_targets(params.targets)
        .with_mules(params.mules)
        .with_seed(params.seed);

    type Factory = fn() -> Box<dyn Planner>;
    let planners: Vec<(&str, Factory)> = vec![
        ("Random", || Box::new(RandomPlanner::new())),
        ("Sweep", || Box::new(SweepPlanner::new())),
        ("CHB", || Box::new(ChbPlanner::new())),
        ("TCTP", || Box::new(BTctp::new())),
    ];

    // One pool task per planner; each task's replication fan would go
    // parallel too, but nested maps run inline on the outer workers.
    mule_par::parallel_map_slice(&planners, |(name, planner)| {
        let rep = replicate(
            planner,
            base,
            params.replicas,
            &SimulationConfig::timing_only(),
            params.horizon_s,
        );
        Fig7Series {
            planner: name.to_string(),
            dcdt_by_visit: averaged_series(&rep, params.visit_indices),
        }
    })
}

/// Formats the Figure 7 series as a table: one row per visit index, one
/// column per planner.
pub fn table(series: &[Fig7Series]) -> TextTable {
    let mut header = vec!["visit".to_string()];
    header.extend(series.iter().map(|s| s.planner.clone()));
    let mut table = TextTable::new(header);
    let rows = series
        .iter()
        .map(|s| s.dcdt_by_visit.len())
        .max()
        .unwrap_or(0);
    for k in 0..rows {
        let mut row = vec![k.to_string()];
        for s in series {
            row.push(format!(
                "{:.1}",
                s.dcdt_by_visit.get(k).copied().unwrap_or(0.0)
            ));
        }
        table.add_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Fig7Params {
        Fig7Params {
            targets: 8,
            mules: 3,
            visit_indices: 10,
            replicas: 3,
            horizon_s: 40_000.0,
            seed: 1,
        }
    }

    #[test]
    fn produces_one_series_per_planner_with_requested_length() {
        let series = run(&small_params());
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.dcdt_by_visit.len(), 10);
            assert!(
                s.dcdt_by_visit.iter().skip(1).any(|&v| v > 0.0),
                "{}",
                s.planner
            );
        }
        let t = table(&series);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn tctp_oscillates_less_than_random() {
        let series = run(&small_params());
        let get = |name: &str| {
            series
                .iter()
                .find(|s| s.planner == name)
                .expect("series present")
                .oscillation()
        };
        assert!(
            get("TCTP") <= get("Random"),
            "TCTP oscillation {} should not exceed Random {}",
            get("TCTP"),
            get("Random")
        );
    }
}
