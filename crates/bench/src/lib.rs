//! # mule-bench
//!
//! The figure-regeneration harness: one module per figure of the paper's
//! evaluation (§V), each exposing a function that runs the full sweep and
//! returns a [`mule_metrics::TextTable`] with the same series the paper
//! plots. The `figures` binary prints them by name ([`figures`]):
//! `cargo run --release -p mule-bench --bin figures -- <name> [--quick] [--csv]`.
//!
//! | Module | Paper figure | Entry point |
//! |--------|--------------|-------------|
//! | [`fig7`]  | Fig. 7 — DCDT vs. visit index, Random / Sweep / CHB / TCTP | `figures fig7` |
//! | [`fig8`]  | Fig. 8 — SD of visiting interval vs. #targets × #DMs, CHB vs TCTP | `figures fig8` |
//! | [`fig9`]  | Figs. 9 and 10 — average DCDT and VIP-interval SD vs. #VIPs × weight, Shortest vs Balancing, from one grid run | `figures fig9`, `figures fig10` |
//! | [`pathlen`] | §V text claim: path-length comparison | `figures table_pathlen` |
//! | [`ablations`] | RW-TCTP recharge behaviour, start-point spreading | `figures ablation_recharge`, `figures ablation_spread` |
//! | [`tourbench`] | tour-engine scaling: exact vs. candidate lists, memory, per-stage times | `patrolctl bench-tours` |
//! | [`routebench`] | road routing (Dijkstra vs. A* vs. ALT) | `patrolctl bench-routes` |
//!
//! The two tracked suites share [`harness`]: one min-of-samples timer,
//! one armed allocation measurement and one artefact writer.
//!
//! Every sweep averages over a seeded replication fan (the paper uses 20
//! random topologies per point); the replica count is a parameter so the
//! `--quick` runs can use a smaller fan. Every replicated run goes
//! through [`replicate`], a one-cell [`mule_sim::run_sweep`] — the same
//! runner behind `patrolctl sweep` and `/v1/simulate`.
//!
//! ## Parallel execution
//!
//! Every figure grid runs its cells on the `mule-par` worker pool via
//! [`mule_par::parallel_map_slice`], and each cell's replication fan goes
//! through `run_sweep` on the same pool. The pool serialises nested
//! parallelism (inner sweeps run inline on the outer workers), so the
//! thread count stays bounded by one pool while both wide grids *and* deep
//! single-cell fans use every core. Cell results are reassembled in grid
//! order, so the emitted tables are byte-identical to a sequential run
//! (`MULE_PAR_WORKERS=1`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figures;
pub mod harness;
pub mod pathlen;
pub mod routebench;
pub mod tourbench;

use mule_sim::{run_sweep, SimulationConfig, SweepCellOutcome};
use mule_workload::{seed_fan, Scenario, ScenarioConfig, SweepSpec};
use patrol_core::Planner;

/// Number of replicas the paper averages over.
pub const PAPER_REPLICAS: usize = 20;

/// Runs the planners built by `planner` over `replicas` seeded topologies
/// derived from `base` (the seed fan of `base.seed`), simulating each for
/// `horizon_s` seconds under `config`, and returns the cell's outcomes in
/// replica order.
///
/// # Panics
///
/// When any replica fails to plan or panics: the figures average over
/// every replica of a cell, so a missing one is a configuration bug, not
/// a data point to skip.
pub fn replicate<F>(
    planner: F,
    base: ScenarioConfig,
    replicas: usize,
    config: &SimulationConfig,
    horizon_s: f64,
) -> SweepCellOutcome
where
    F: Fn() -> Box<dyn Planner> + Sync,
{
    // `run_sweep` writes the cell's speed into the energy model, so the
    // speed axis carries the caller's own speed.
    let spec = SweepSpec::new(base)
        .with_speeds(vec![config.energy.speed_m_per_s])
        .with_replicas(replicas)
        .with_horizon(horizon_s);
    let cell = run_sweep(&planner, &spec, config, None)
        .pop()
        .expect("a one-cell spec yields one cell");
    if let Some(error) = cell.failures.first() {
        panic!("replica of cell seed {} failed to plan: {error}", base.seed);
    }
    if let Some(q) = cell.quarantined.first() {
        panic!(
            "replica {} (seed {}) of cell seed {} panicked: {}",
            q.replica, q.seed, base.seed, q.message
        );
    }
    cell
}

/// Every `(a, b)` pair of two axes, `a` major: the cell order of the
/// figure grids.
fn grid<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// The scenarios of `base`'s replication fan, one per seed of
/// `seed_fan(base.seed, replicas)`: the fan [`replicate`] simulates, in
/// the same order as its outcomes.
fn replica_scenarios(base: ScenarioConfig, replicas: usize) -> Vec<Scenario> {
    seed_fan(base.seed, replicas)
        .into_iter()
        .map(|seed| base.with_seed(seed).generate())
        .collect()
}

/// Mean of `values` (`0.0` when there are none).
fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use patrol_core::BTctp;

    fn btctp() -> Box<dyn Planner> {
        Box::new(BTctp::new())
    }

    #[test]
    fn replicate_runs_all_replicas_in_seed_fan_order() {
        let base = ScenarioConfig::paper_default().with_targets(6);
        let cell = replicate(btctp, base, 3, &SimulationConfig::timing_only(), 5_000.0);
        assert_eq!(cell.outcomes.len(), 3);
        assert_eq!(cell.cell.seed, base.seed);
        assert!(cell.average(|o| o.total_visits() as f64).unwrap() > 0.0);
    }

    #[test]
    #[should_panic(expected = "failed to plan")]
    fn replicate_panics_when_a_replica_fails_to_plan() {
        let base = ScenarioConfig::paper_default().with_mules(0);
        replicate(btctp, base, 2, &SimulationConfig::timing_only(), 1_000.0);
    }

    #[test]
    fn paper_replica_constant_matches_section_5_1() {
        assert_eq!(PAPER_REPLICAS, 20);
    }
}
