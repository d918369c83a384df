//! # mule-bench
//!
//! The figure-regeneration harness: one module per figure of the paper's
//! evaluation (§V), each exposing a function that runs the full sweep and
//! returns a [`mule_metrics::TextTable`] with the same series the paper
//! plots. The binaries in `src/bin/` print these tables; the criterion
//! benches in `benches/` time the underlying computations.
//!
//! | Module | Paper figure | Binary |
//! |--------|--------------|--------|
//! | [`fig7`]  | Fig. 7 — DCDT vs. visit index, Random / Sweep / CHB / TCTP | `cargo run -p mule-bench --bin fig7` |
//! | [`fig8`]  | Fig. 8 — SD of visiting interval vs. #targets × #DMs, CHB vs TCTP | `cargo run -p mule-bench --bin fig8` |
//! | [`fig9`]  | Fig. 9 — average DCDT vs. #VIPs × weight, Shortest vs Balancing | `cargo run -p mule-bench --bin fig9` |
//! | [`fig10`] | Fig. 10 — average SD vs. #VIPs × weight, Shortest vs Balancing | `cargo run -p mule-bench --bin fig10` |
//! | [`pathlen`] | §V text claim: path-length comparison | `cargo run -p mule-bench --bin table_pathlen` |
//! | [`ablations`] | RW-TCTP recharge behaviour, start-point spreading | `cargo run -p mule-bench --bin ablation_recharge`, `ablation_spread` |
//! | [`tourbench`] | tour-engine scaling (exact vs. candidate lists) | `patrolctl bench-tours` |
//! | [`routebench`] | road routing (Dijkstra vs. A* vs. ALT) | `patrolctl bench-routes` |
//! | [`scalebench`] | memory-scale matrix-free construction | `patrolctl bench-scale` |
//!
//! The three tracked suites share [`harness`]: one min-of-samples timer,
//! one armed allocation measurement and one artefact writer.
//!
//! Every sweep averages over a seeded replication fan (the paper uses 20
//! random topologies per point); the replica count is a parameter so the
//! criterion benches can use a smaller fan.
//!
//! ## Parallel execution
//!
//! Every figure grid runs its cells on the `mule-par` worker pool via
//! [`par_grid`], and each cell's replication fan additionally goes through
//! the parallel `rayon` shim inside [`mule_sim::run_replicated`]. The pool
//! serialises nested parallelism (inner sweeps run inline on the outer
//! workers), so the thread count stays bounded by one pool while both
//! wide grids *and* deep single-cell fans use every core. Cell results are
//! reassembled in grid order, so the emitted tables are byte-identical to
//! a sequential run (`MULE_PAR_WORKERS=1`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod harness;
pub mod pathlen;
pub mod routebench;
pub mod scalebench;
pub mod tourbench;

use mule_sim::{run_replicated, ReplicatedOutcome, SimulationConfig};
use mule_workload::{ReplicationPlan, ScenarioConfig};
use patrol_core::Planner;

/// Number of replicas the paper averages over.
pub const PAPER_REPLICAS: usize = 20;

/// Runs `cell` over every grid point on the `mule-par` worker pool,
/// returning the results in input order (bit-identical to the sequential
/// loop it replaces). The closure must be a pure function of its cell.
pub fn par_grid<T, R, F>(cells: &[T], cell: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    mule_par::parallel_map_slice(cells, cell)
}

/// Runs `planner` over `replicas` seeded topologies derived from `base`,
/// simulating each for `horizon_s` seconds without energy accounting (the
/// timing-only model used by the DCDT / SD figures).
pub fn run_timing_sweep<P: Planner + Sync + ?Sized>(
    planner: &P,
    base: ScenarioConfig,
    replicas: usize,
    horizon_s: f64,
) -> ReplicatedOutcome {
    let plan = ReplicationPlan { base, replicas };
    run_replicated(
        planner,
        &plan,
        &SimulationConfig::timing_only().with_horizon(horizon_s),
        horizon_s,
    )
}

/// Runs `planner` with full energy accounting (used by the recharge
/// ablation).
pub fn run_energy_sweep<P: Planner + Sync + ?Sized>(
    planner: &P,
    base: ScenarioConfig,
    replicas: usize,
    config: &SimulationConfig,
    horizon_s: f64,
) -> ReplicatedOutcome {
    let plan = ReplicationPlan { base, replicas };
    run_replicated(planner, &plan, config, horizon_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patrol_core::BTctp;

    #[test]
    fn timing_sweep_runs_all_replicas() {
        let rep = run_timing_sweep(
            &BTctp::new(),
            ScenarioConfig::paper_default().with_targets(6),
            3,
            5_000.0,
        );
        assert_eq!(rep.len(), 3);
        assert!(rep.failures.is_empty());
    }

    #[test]
    fn paper_replica_constant_matches_section_5_1() {
        assert_eq!(PAPER_REPLICAS, 20);
    }
}
