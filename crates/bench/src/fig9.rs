//! Figures 9 and 10 — the Shortest-Length vs Balancing-Length break-edge
//! policies, swept over the number of VIPs and the VIP weight. One grid
//! run feeds both figures: Figure 9 reads the average DCDT off each
//! replica, Figure 10 the SD of the VIPs' visiting intervals.
//!
//! The shapes to reproduce:
//! - Figure 9: DCDT grows with both the VIP count and the VIP weight (the
//!   weighted patrolling path gets longer), and the Shortest-Length policy
//!   always yields a DCDT no larger than the Balancing-Length policy
//!   because its WPP is shorter.
//! - Figure 10: the Shortest-Length policy creates cycles of very
//!   different lengths around each VIP, so the VIP's visiting intervals
//!   are uneven and their SD grows quickly with the VIP count and weight;
//!   the Balancing-Length policy keeps the cycles similar and its SD grows
//!   only slightly.

use crate::{mean, replica_scenarios, replicate};
use mule_metrics::{DcdtSeries, IntervalReport, TextTable};
use mule_sim::{SimulationConfig, SimulationOutcome};
use mule_workload::{Scenario, ScenarioConfig, WeightSpec};
use patrol_core::{BreakEdgePolicy, Planner, WTctp};

/// Parameters of the VIP grid behind Figures 9 and 10.
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
            // isolate.
            mules: 1,
            vip_counts: vec![1, 2, 4, 6, 8],
            vip_weights: vec![2, 3, 4, 5],
            replicas: crate::PAPER_REPLICAS,
            horizon_s: 400_000.0,
            seed: 9,
        }
    }
}

/// One break-edge policy's figures in one grid cell, averaged over the
/// cell's replicas.
#[derive(Debug, Clone, Copy)]
pub struct PolicyFigures {
    /// Average post-warm-up DCDT over all targets, seconds (Figure 9).
    pub dcdt: f64,
    /// Average SD of the VIPs' visiting intervals, seconds (Figure 10).
    pub vip_sd: f64,
}

/// One cell of the VIP grid.
#[derive(Debug, Clone, Copy)]
pub struct VipCell {
    /// Number of VIPs.
    pub vips: usize,
    /// VIP weight.
    pub weight: u32,
    /// Figures under the Shortest-Length policy.
    pub shortest: PolicyFigures,
    /// Figures under the Balancing-Length policy.
    pub balancing: PolicyFigures,
}

/// Simulates the replicas of one (cell, policy) pair once and reads both
/// figures off the same outcomes.
fn policy_figures(
    policy: BreakEdgePolicy,
    base: ScenarioConfig,
    p: &VipSweepParams,
) -> PolicyFigures {
    let planner = || -> Box<dyn Planner> { Box::new(WTctp::new(policy)) };
    let config = SimulationConfig::timing_only();
    let rep = replicate(planner, base, p.replicas, &config, p.horizon_s);
    let dcdt = rep
        .average(|o| DcdtSeries::from_outcome(o).average_dcdt(2))
        .unwrap_or(0.0);
    let scenarios = replica_scenarios(base, p.replicas);
    let replicas = rep.outcomes.iter().zip(&scenarios);
    let vip_sd = mean(replicas.filter_map(replica_vip_sd));
    PolicyFigures { dcdt, vip_sd }
}

/// Average SD of the VIPs' visiting intervals in one replica, or `None`
/// when its scenario has no VIPs. An outcome stores only node ids, so the
/// VIPs come from the replica's regenerated scenario.
fn replica_vip_sd((outcome, scenario): (&SimulationOutcome, &Scenario)) -> Option<f64> {
    let vips = scenario.field().vips();
    let report = IntervalReport::from_outcome(outcome);
    (!vips.is_empty()).then(|| mean(vips.iter().filter_map(|n| report.node_sd(n.id))))
}

/// Runs the VIP grid (cells in parallel on the worker pool).
pub fn run(params: &VipSweepParams) -> Vec<VipCell> {
    let grid = crate::grid(&params.vip_counts, &params.vip_weights);
    mule_par::parallel_map_slice(&grid, |&(vips, weight)| {
        let base = ScenarioConfig::paper_default()
            .with_targets(params.targets)
            .with_mules(params.mules)
            .with_weights(WeightSpec::UniformVips {
                count: vips,
                weight,
            })
            .with_seed(params.seed);
        VipCell {
            vips,
            weight,
            shortest: policy_figures(BreakEdgePolicy::ShortestLength, base, params),
            balancing: policy_figures(BreakEdgePolicy::BalancingLength, base, params),
        }
    })
}

/// Formats one figure of the grid: `metric` names the column, `value`
/// picks it out of a policy's figures.
fn table(cells: &[VipCell], metric: &str, value: fn(&PolicyFigures) -> f64) -> TextTable {
    let mut t = TextTable::new(vec![
        "VIPs".to_string(),
        "weight".to_string(),
        format!("Shortest {metric} (s)"),
        format!("Balancing {metric} (s)"),
    ]);
    for c in cells {
        t.add_row(vec![
            c.vips.to_string(),
            c.weight.to_string(),
            format!("{:.1}", value(&c.shortest)),
            format!("{:.1}", value(&c.balancing)),
        ]);
    }
    t
}

/// Figure 9: average DCDT per policy.
pub fn dcdt_table(cells: &[VipCell]) -> TextTable {
    table(cells, "DCDT", |p| p.dcdt)
}

/// Figure 10: average SD of the VIPs' visiting intervals per policy.
pub fn sd_table(cells: &[VipCell]) -> TextTable {
    table(cells, "SD", |p| p.vip_sd)
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
        assert_eq!(dcdt_table(&cells).len(), 4);
        assert_eq!(sd_table(&cells).len(), 4);
        for p in cells.iter().flat_map(|c| [c.shortest, c.balancing]) {
            assert!(p.dcdt > 0.0);
            assert!(p.vip_sd.is_finite() && p.vip_sd >= 0.0);
        }
    }

    #[test]
    fn shortest_policy_dcdt_does_not_exceed_balancing() {
        let cells = run(&small_params());
        for c in &cells {
            assert!(
                c.shortest.dcdt <= c.balancing.dcdt * 1.05 + 1.0,
                "VIPs {} weight {}: shortest {} vs balancing {}",
                c.vips,
                c.weight,
                c.shortest.dcdt,
                c.balancing.dcdt
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
                .shortest
                .dcdt
        };
        assert!(
            get(3, 4) >= get(3, 2) * 0.9,
            "heavier VIPs lengthen the path"
        );
    }

    #[test]
    fn balancing_policy_has_lower_or_equal_vip_sd() {
        let params = VipSweepParams {
            targets: 12,
            mules: 1,
            vip_counts: vec![2],
            vip_weights: vec![3],
            replicas: 4,
            horizon_s: 250_000.0,
            seed: 5,
        };
        for c in &run(&params) {
            assert!(
                c.balancing.vip_sd <= c.shortest.vip_sd + 1.0,
                "VIPs {} weight {}: balancing {} vs shortest {}",
                c.vips,
                c.weight,
                c.balancing.vip_sd,
                c.shortest.vip_sd
            );
        }
    }
}
