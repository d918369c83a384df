//! Figure 10 — standard deviation of the VIPs' visiting intervals for the
//! Shortest-Length vs Balancing-Length policies.
//!
//! The shape to reproduce: the Shortest-Length policy creates cycles of very
//! different lengths around each VIP, so the VIP's visiting intervals are
//! uneven and their SD grows quickly with the VIP count and weight; the
//! Balancing-Length policy keeps the cycles similar and its SD grows only
//! slightly.

use crate::fig9::VipSweepParams;
use crate::replicate;
use mule_metrics::{IntervalReport, TextTable};
use mule_net::NodeId;
use mule_sim::{SimulationConfig, SimulationOutcome};
use mule_workload::{seed_fan, Scenario, ScenarioConfig, WeightSpec};
use patrol_core::{BreakEdgePolicy, WTctp};

/// One cell of the Figure 10 grid.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Cell {
    /// Number of VIPs.
    pub vips: usize,
    /// VIP weight.
    pub weight: u32,
    /// Average SD of the VIPs' visiting intervals, Shortest-Length policy.
    pub shortest_sd: f64,
    /// Average SD of the VIPs' visiting intervals, Balancing-Length policy.
    pub balancing_sd: f64,
}

/// Average per-VIP SD of visiting intervals for one outcome. The VIP set is
/// recomputed from the scenario configuration (same seed → same scenario),
/// because the outcome itself only stores node ids.
fn vip_sd(outcome: &SimulationOutcome, vip_ids: &[NodeId]) -> f64 {
    let report = IntervalReport::from_outcome(outcome);
    let sds: Vec<f64> = vip_ids
        .iter()
        .filter_map(|id| report.node_sd(*id))
        .collect();
    if sds.is_empty() {
        0.0
    } else {
        sds.iter().sum::<f64>() / sds.len() as f64
    }
}

fn vip_ids_of(scenario: &Scenario) -> Vec<NodeId> {
    scenario.field().vips().iter().map(|n| n.id).collect()
}

/// Average VIP-interval SD over the replicas of one (policy, cell) pair.
pub fn average_vip_sd_for_policy(
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
    // Regenerate each replica's scenario to recover its VIP ids. `replicate`
    // keeps every replica (it panics on a failed one), so the k-th outcome
    // belongs to the k-th seed of the fan.
    let mut total = 0.0;
    let mut count = 0usize;
    for (outcome, seed) in rep.outcomes.iter().zip(seed_fan(base.seed, replicas)) {
        let scenario = base.with_seed(seed).generate();
        let vips = vip_ids_of(&scenario);
        if vips.is_empty() {
            continue;
        }
        total += vip_sd(outcome, &vips);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Runs the Figure 10 sweep (same grid as Figure 9, cells in parallel on
/// the worker pool).
pub fn run(params: &VipSweepParams) -> Vec<Fig10Cell> {
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
        let shortest = average_vip_sd_for_policy(
            BreakEdgePolicy::ShortestLength,
            base,
            params.replicas,
            params.horizon_s,
        );
        let balancing = average_vip_sd_for_policy(
            BreakEdgePolicy::BalancingLength,
            base,
            params.replicas,
            params.horizon_s,
        );
        Fig10Cell {
            vips,
            weight,
            shortest_sd: shortest,
            balancing_sd: balancing,
        }
    })
}

/// Formats the grid as a table.
pub fn table(cells: &[Fig10Cell]) -> TextTable {
    let mut t = TextTable::new(vec![
        "VIPs",
        "weight",
        "Shortest SD (s)",
        "Balancing SD (s)",
    ]);
    for c in cells {
        t.add_row(vec![
            c.vips.to_string(),
            c.weight.to_string(),
            format!("{:.1}", c.shortest_sd),
            format!("{:.1}", c.balancing_sd),
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
            vip_counts: vec![2],
            vip_weights: vec![3],
            replicas: 4,
            horizon_s: 250_000.0,
            seed: 5,
        }
    }

    #[test]
    fn grid_is_produced_and_formatted() {
        let cells = run(&small_params());
        assert_eq!(cells.len(), 1);
        assert_eq!(table(&cells).len(), 1);
    }

    #[test]
    fn balancing_policy_has_lower_or_equal_vip_sd() {
        let cells = run(&small_params());
        for c in &cells {
            assert!(
                c.balancing_sd <= c.shortest_sd + 1.0,
                "VIPs {} weight {}: balancing {} vs shortest {}",
                c.vips,
                c.weight,
                c.balancing_sd,
                c.shortest_sd
            );
        }
    }
}
