//! Figure 8 — standard deviation of visiting intervals for CHB vs TCTP.
//!
//! The paper sweeps the number of targets and the number of data mules and
//! reports, for each cell, the average per-target SD of the visiting
//! intervals. TCTP stays at (numerically) zero; CHB's SD grows with the
//! number of mules because the bunched mules produce alternating short and
//! long gaps.

use crate::replicate;
use mule_metrics::{IntervalReport, TextTable};
use mule_sim::SimulationConfig;
use mule_workload::ScenarioConfig;
use patrol_core::baselines::ChbPlanner;
use patrol_core::{BTctp, Planner};

/// Parameters of the Figure 8 sweep.
#[derive(Debug, Clone)]
pub struct Fig8Params {
    /// Target counts to sweep (paper: 10–40).
    pub target_counts: Vec<usize>,
    /// Mule counts to sweep (paper: 2–10).
    pub mule_counts: Vec<usize>,
    /// Replicas per cell.
    pub replicas: usize,
    /// Horizon per replica, seconds.
    pub horizon_s: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for Fig8Params {
    fn default() -> Self {
        Fig8Params {
            target_counts: vec![10, 20, 30, 40],
            mule_counts: vec![2, 4, 6, 8, 10],
            replicas: crate::PAPER_REPLICAS,
            horizon_s: 100_000.0,
            seed: 8,
        }
    }
}

/// One cell of the Figure 8 grid.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Cell {
    /// Number of targets in this cell.
    pub targets: usize,
    /// Number of mules in this cell.
    pub mules: usize,
    /// Average per-target SD for CHB.
    pub chb_sd: f64,
    /// Average per-target SD for TCTP (B-TCTP).
    pub tctp_sd: f64,
}

/// Runs the Figure 8 sweep (grid cells in parallel on the worker pool).
pub fn run(params: &Fig8Params) -> Vec<Fig8Cell> {
    let grid = crate::grid(&params.target_counts, &params.mule_counts);
    mule_par::parallel_map_slice(&grid, |&(targets, mules)| {
        let base = ScenarioConfig::paper_default()
            .with_targets(targets)
            .with_mules(mules)
            .with_seed(params.seed);
        let config = SimulationConfig::timing_only();
        let average_sd = |planner: fn() -> Box<dyn Planner>| {
            replicate(planner, base, params.replicas, &config, params.horizon_s)
                .average(|o| IntervalReport::from_outcome(o).average_sd())
                .unwrap_or(0.0)
        };
        Fig8Cell {
            targets,
            mules,
            chb_sd: average_sd(|| Box::new(ChbPlanner::new())),
            tctp_sd: average_sd(|| Box::new(BTctp::new())),
        }
    })
}

/// Formats the grid as a table with one row per (targets, mules) cell.
pub fn table(cells: &[Fig8Cell]) -> TextTable {
    let mut t = TextTable::new(vec!["targets", "mules", "CHB SD (s)", "TCTP SD (s)"]);
    for c in cells {
        t.add_row(vec![
            c.targets.to_string(),
            c.mules.to_string(),
            format!("{:.2}", c.chb_sd),
            format!("{:.2}", c.tctp_sd),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Fig8Params {
        Fig8Params {
            target_counts: vec![8],
            mule_counts: vec![2, 4],
            replicas: 3,
            horizon_s: 60_000.0,
            seed: 2,
        }
    }

    #[test]
    fn grid_has_one_cell_per_parameter_combination() {
        let cells = run(&small_params());
        assert_eq!(cells.len(), 2);
        assert_eq!(table(&cells).len(), 2);
    }

    #[test]
    fn tctp_sd_is_much_smaller_than_chb_sd() {
        // The paper's claim: TCTP SD ≈ 0, CHB SD grows with the mule count.
        let cells = run(&small_params());
        for c in &cells {
            assert!(
                c.tctp_sd <= c.chb_sd + 1e-6,
                "targets {} mules {}: TCTP {} vs CHB {}",
                c.targets,
                c.mules,
                c.tctp_sd,
                c.chb_sd
            );
            assert!(
                c.tctp_sd < 5.0,
                "TCTP SD should be near zero, got {}",
                c.tctp_sd
            );
        }
        // With more than one mule CHB bunches them and its SD is clearly
        // positive.
        assert!(cells.iter().any(|c| c.chb_sd > 10.0));
    }
}
