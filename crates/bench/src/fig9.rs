//! Figure 9 — average DCDT for the Shortest-Length vs Balancing-Length
//! break-edge policies, swept over the number of VIPs and the VIP weight.
//!
//! The shape to reproduce: DCDT grows with both the VIP count and the VIP
//! weight (the weighted patrolling path gets longer), and the
//! Shortest-Length policy always yields a DCDT no larger than the
//! Balancing-Length policy because its WPP is shorter.

use crate::replicate;
use mule_metrics::{DcdtSeries, TextTable};
use mule_sim::SimulationConfig;
use mule_workload::{ScenarioConfig, WeightSpec};
use patrol_core::{BreakEdgePolicy, WTctp};

/// Parameters of the Figure 9 / Figure 10 sweeps (they share the grid).
#[derive(Debug, Clone)]
pub struct VipSweepParams {
    /// Total number of targets (paper: 20).
    pub targets: usize,
    /// Number of mules.
    pub mules: usize,
    /// VIP counts to sweep.
    pub vip_counts: Vec<usize>,
    /// VIP weights to sweep.
    pub vip_weights: Vec<u32>,
    /// Replicas per cell.
    pub replicas: usize,
    /// Horizon per replica, seconds.
    pub horizon_s: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for VipSweepParams {
    fn default() -> Self {
        VipSweepParams {
            targets: 20,
            // A single data mule: with several mules the merged visit
            // pattern at a VIP is set by the mule spacing rather than by the
            // break-edge policy, which would mask the effect Figures 9/10
            // isolate (see EXPERIMENTS.md).
            mules: 1,
            vip_counts: vec![1, 2, 4, 6, 8],
            vip_weights: vec![2, 3, 4, 5],
            replicas: crate::PAPER_REPLICAS,
            horizon_s: 400_000.0,
            seed: 9,
        }
    }
}

/// One cell of the Figure 9 grid.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Cell {
    /// Number of VIPs.
    pub vips: usize,
    /// VIP weight.
    pub weight: u32,
    /// Average DCDT under the Shortest-Length policy, seconds.
    pub shortest_dcdt: f64,
    /// Average DCDT under the Balancing-Length policy, seconds.
    pub balancing_dcdt: f64,
}

/// Average post-warm-up DCDT over all targets for one policy and one cell.
pub fn average_dcdt_for_policy(
    policy: BreakEdgePolicy,
    base: ScenarioConfig,
    replicas: usize,
    horizon_s: f64,
) -> f64 {
    let rep = replicate(
        || Box::new(WTctp::new(policy)),
        base,
        replicas,
        &SimulationConfig::timing_only(),
        horizon_s,
    );
    rep.average(|o| DcdtSeries::from_outcome(o).average_dcdt(2))
        .unwrap_or(0.0)
}

/// Runs the Figure 9 sweep (grid cells in parallel on the worker pool).
pub fn run(params: &VipSweepParams) -> Vec<Fig9Cell> {
    let mut grid = Vec::new();
    for &vips in &params.vip_counts {
        for &weight in &params.vip_weights {
            grid.push((vips, weight));
        }
    }
    mule_par::parallel_map_slice(&grid, |&(vips, weight)| {
        let base = ScenarioConfig::paper_default()
            .with_targets(params.targets)
            .with_mules(params.mules)
            .with_weights(WeightSpec::UniformVips {
                count: vips,
                weight,
            })
            .with_seed(params.seed);
        let shortest = average_dcdt_for_policy(
            BreakEdgePolicy::ShortestLength,
            base,
            params.replicas,
            params.horizon_s,
        );
        let balancing = average_dcdt_for_policy(
            BreakEdgePolicy::BalancingLength,
            base,
            params.replicas,
            params.horizon_s,
        );
        Fig9Cell {
            vips,
            weight,
            shortest_dcdt: shortest,
            balancing_dcdt: balancing,
        }
    })
}

/// Formats the grid as a table.
pub fn table(cells: &[Fig9Cell]) -> TextTable {
    let mut t = TextTable::new(vec![
        "VIPs",
        "weight",
        "Shortest DCDT (s)",
        "Balancing DCDT (s)",
    ]);
    for c in cells {
        t.add_row(vec![
            c.vips.to_string(),
            c.weight.to_string(),
            format!("{:.1}", c.shortest_dcdt),
            format!("{:.1}", c.balancing_dcdt),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> VipSweepParams {
        VipSweepParams {
            targets: 12,
            mules: 1,
            vip_counts: vec![1, 3],
            vip_weights: vec![2, 4],
            replicas: 3,
            horizon_s: 200_000.0,
            seed: 3,
        }
    }

    #[test]
    fn grid_covers_every_combination() {
        let cells = run(&small_params());
        assert_eq!(cells.len(), 4);
        assert_eq!(table(&cells).len(), 4);
        assert!(cells.iter().all(|c| c.shortest_dcdt > 0.0));
        assert!(cells.iter().all(|c| c.balancing_dcdt > 0.0));
    }

    #[test]
    fn shortest_policy_dcdt_does_not_exceed_balancing() {
        let cells = run(&small_params());
        for c in &cells {
            assert!(
                c.shortest_dcdt <= c.balancing_dcdt * 1.05 + 1.0,
                "VIPs {} weight {}: shortest {} vs balancing {}",
                c.vips,
                c.weight,
                c.shortest_dcdt,
                c.balancing_dcdt
            );
        }
    }

    #[test]
    fn dcdt_grows_with_vip_weight() {
        let cells = run(&small_params());
        // Compare weight 2 vs weight 4 at the same VIP count.
        let get = |vips: usize, weight: u32| {
            cells
                .iter()
                .find(|c| c.vips == vips && c.weight == weight)
                .unwrap()
                .shortest_dcdt
        };
        assert!(
            get(3, 4) >= get(3, 2) * 0.9,
            "heavier VIPs lengthen the path"
        );
    }
}
