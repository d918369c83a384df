//! Ablations of two design choices of the planners.
//!
//! * [`recharge_ablation`] — RW-TCTP vs. W-TCTP without recharge under a
//!   battery sweep: does the Eq. 4 schedule actually keep the fleet alive,
//!   and what does the recharge detour cost?
//! * [`spread_ablation`] — B-TCTP with and without the phase-2 start-point
//!   spreading: how much of the interval stability comes from the spreading
//!   versus the shared circuit alone?

use crate::replicate;
use mule_energy::EnergyModel;
use mule_metrics::{EnergyEfficiencyReport, IntervalReport, TextTable};
use mule_sim::SimulationConfig;
use mule_workload::{seed_fan, ScenarioConfig, WeightSpec};
use patrol_core::{BTctp, BreakEdgePolicy, RwTctp, WTctp};

/// Parameters of the recharge ablation.
#[derive(Debug, Clone)]
pub struct RechargeAblationParams {
    /// Battery capacities (joules) to sweep.
    pub battery_capacities_j: Vec<f64>,
    /// Number of targets.
    pub targets: usize,
    /// Number of mules.
    pub mules: usize,
    /// Replicas per point.
    pub replicas: usize,
    /// Horizon per replica, seconds.
    pub horizon_s: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for RechargeAblationParams {
    fn default() -> Self {
        RechargeAblationParams {
            battery_capacities_j: vec![30_000.0, 60_000.0, 120_000.0, 240_000.0],
            targets: 15,
            mules: 4,
            replicas: 10,
            horizon_s: 120_000.0,
            seed: 21,
        }
    }
}

/// Runs the recharge ablation and returns a table with one row per battery
/// capacity: fleet survival and recharge counts for RW-TCTP vs. the
/// recharge-unaware W-TCTP.
pub fn recharge_ablation(params: &RechargeAblationParams) -> TextTable {
    let mut table = TextTable::new(vec![
        "battery (kJ)",
        "rounds r (Eq.4)",
        "RW-TCTP survival",
        "RW-TCTP recharges",
        "W-TCTP survival",
        "RW-TCTP useful energy",
    ]);

    let rows = mule_par::parallel_map_slice(&params.battery_capacities_j, |&capacity| {
        let energy = EnergyModel {
            initial_energy_j: capacity,
            ..EnergyModel::paper_default()
        };
        let base = ScenarioConfig::paper_default()
            .with_targets(params.targets)
            .with_mules(params.mules)
            .with_weights(WeightSpec::UniformVips {
                count: 2,
                weight: 2,
            })
            .with_recharge_station(true)
            .with_seed(params.seed);
        let sim_config = SimulationConfig::default().with_energy(energy);

        let rw = RwTctp::with_energy(BreakEdgePolicy::ShortestLength, energy);
        let rw_rep = replicate(
            || Box::new(rw.clone()),
            base,
            params.replicas,
            &sim_config,
            params.horizon_s,
        );
        let rw_survival = rw_rep
            .average(|o| if o.all_mules_survived() { 1.0 } else { 0.0 })
            .unwrap_or(0.0);
        let rw_recharges = rw_rep
            .average(|o| o.mules.iter().map(|m| m.recharges).sum::<usize>() as f64)
            .unwrap_or(0.0);
        let rw_useful = rw_rep
            .average(|o| EnergyEfficiencyReport::from_outcome(o).useful_fraction())
            .unwrap_or(0.0);

        // Eq. 4 rounds on the first replica (the schedule is per-scenario).
        let first_cfg = base.with_seed(seed_fan(base.seed, 1)[0]);
        let rounds = rw
            .build_schedule(&first_cfg.generate())
            .map(|s| s.rounds.rounds_per_charge)
            .unwrap_or(0);

        let w_rep = replicate(
            || Box::new(WTctp::new(BreakEdgePolicy::ShortestLength)),
            base,
            params.replicas,
            &sim_config,
            params.horizon_s,
        );
        let w_survival = w_rep
            .average(|o| if o.all_mules_survived() { 1.0 } else { 0.0 })
            .unwrap_or(0.0);

        vec![
            format!("{:.0}", capacity / 1000.0),
            rounds.to_string(),
            format!("{:.0}%", rw_survival * 100.0),
            format!("{rw_recharges:.1}"),
            format!("{:.0}%", w_survival * 100.0),
            format!("{:.2}", rw_useful),
        ]
    });
    for row in rows {
        table.add_row(row);
    }
    table
}

/// Parameters of the start-point-spreading ablation.
#[derive(Debug, Clone)]
pub struct SpreadAblationParams {
    /// Mule counts to sweep.
    pub mule_counts: Vec<usize>,
    /// Number of targets.
    pub targets: usize,
    /// Replicas per point.
    pub replicas: usize,
    /// Horizon per replica, seconds.
    pub horizon_s: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for SpreadAblationParams {
    fn default() -> Self {
        SpreadAblationParams {
            mule_counts: vec![2, 4, 6, 8],
            targets: 15,
            replicas: 10,
            horizon_s: 80_000.0,
            seed: 23,
        }
    }
}

/// Runs the spreading ablation: max interval and SD with and without the
/// B-TCTP phase-2 spreading.
pub fn spread_ablation(params: &SpreadAblationParams) -> TextTable {
    let mut table = TextTable::new(vec![
        "mules",
        "spread max interval (s)",
        "spread SD (s)",
        "no-spread max interval (s)",
        "no-spread SD (s)",
    ]);
    let rows = mule_par::parallel_map_slice(&params.mule_counts, |&mules| {
        let base = ScenarioConfig::paper_default()
            .with_targets(params.targets)
            .with_mules(mules)
            .with_seed(params.seed);
        let metrics = |planner: fn() -> BTctp| {
            let rep = replicate(
                || Box::new(planner()),
                base,
                params.replicas,
                &SimulationConfig::timing_only(),
                params.horizon_s,
            );
            let max = rep
                .average(|o| IntervalReport::from_outcome(o).max_interval())
                .unwrap_or(0.0);
            let sd = rep
                .average(|o| IntervalReport::from_outcome(o).average_sd())
                .unwrap_or(0.0);
            (max, sd)
        };
        let (spread_max, spread_sd) = metrics(BTctp::new);
        let (plain_max, plain_sd) = metrics(BTctp::without_spreading);
        vec![
            mules.to_string(),
            format!("{spread_max:.0}"),
            format!("{spread_sd:.2}"),
            format!("{plain_max:.0}"),
            format!("{plain_sd:.2}"),
        ]
    });
    for row in rows {
        table.add_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recharge_ablation_produces_one_row_per_capacity() {
        let params = RechargeAblationParams {
            battery_capacities_j: vec![40_000.0],
            targets: 8,
            mules: 2,
            replicas: 2,
            horizon_s: 40_000.0,
            seed: 1,
        };
        let t = recharge_ablation(&params);
        assert_eq!(t.len(), 1);
        let row = t.to_csv().lines().nth(1).unwrap().to_string();
        // RW-TCTP survives on every replica.
        assert!(row.contains("100%"), "row was: {row}");
    }

    #[test]
    fn spread_ablation_shows_spreading_never_hurts_sd() {
        let params = SpreadAblationParams {
            mule_counts: vec![4],
            targets: 8,
            replicas: 2,
            horizon_s: 50_000.0,
            seed: 2,
        };
        let t = spread_ablation(&params);
        assert_eq!(t.len(), 1);
        let cells: Vec<f64> = t
            .to_csv()
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .skip(1)
            .map(|c| c.parse::<f64>().unwrap())
            .collect();
        let (spread_sd, plain_sd) = (cells[1], cells[3]);
        assert!(spread_sd <= plain_sd + 1e-6);
    }
}
