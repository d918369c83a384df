//! Replicated simulation sweeps over declarative experiment grids.
//!
//! The paper averages every reported number over 20 random topologies
//! (§5.1). [`run_sweep`] runs a whole [`mule_workload::SweepSpec`] grid,
//! each cell replicated over its seed fan: every `(cell, replica)` pair of
//! the grid is an independent simulation, so the whole sweep is flattened
//! into one task list and executed with chunked work-stealing on the
//! `mule-par` worker pool. Results are regrouped by cell in grid order, so
//! the output — and every statistic derived from it — is identical for any
//! worker count, including a forced single-worker run. A single replicated
//! data point is simply a one-cell spec.

use crate::config::SimulationConfig;
use crate::dynamics::DynamicSimulation;
use crate::engine::Simulation;
use crate::outcome::SimulationOutcome;
use mule_workload::{seed_fan, DisruptionPlan, SweepCell, SweepSpec};
use patrol_core::{PatrolPlan, PlanError, Planner, ReplanWithPlanner};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A replica that **panicked** mid-simulation (as opposed to returning a
/// [`PlanError`]) and was quarantined: the panic was caught on the worker,
/// the rest of the grid completed, and enough context is kept here to
/// reproduce the crash as a single sequential run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellError {
    /// Grid index of the owning cell ([`SweepCell::index`]).
    pub cell_index: usize,
    /// The exact replica seed (from the cell's [`seed_fan`]), sufficient
    /// to re-run just this replica deterministically.
    pub seed: u64,
    /// Replica index within the cell, `0..spec.replicas`.
    pub replica: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

/// The outcomes of one cell of a [`SweepSpec`] grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellOutcome {
    /// The grid cell these replicas belong to.
    pub cell: SweepCell,
    /// One outcome per successfully planned replica, in replica order.
    pub outcomes: Vec<SimulationOutcome>,
    /// Replicas whose (initial) planning failed.
    pub failures: Vec<PlanError>,
    /// Replicas that panicked and were quarantined (caught on the worker;
    /// the rest of the grid still completes).
    pub quarantined: Vec<SweepCellError>,
    /// Total replans performed across the cell's replicas (always zero for
    /// static cells).
    pub replans: usize,
}

impl SweepCellOutcome {
    /// Averages a scalar metric over the cell's successful replicas
    /// (`None` when every replica failed).
    pub fn average<F: Fn(&SimulationOutcome) -> f64>(&self, metric: F) -> Option<f64> {
        if self.outcomes.is_empty() {
            return None;
        }
        Some(self.outcomes.iter().map(&metric).sum::<f64>() / self.outcomes.len() as f64)
    }
}

/// One `(cell, replica)` simulation: the unit of parallel work in a sweep.
fn run_sweep_replica(
    planner: &dyn Planner,
    spec: &SweepSpec,
    cell: &SweepCell,
    replica_seed: u64,
    base_config: &SimulationConfig,
) -> Result<(SimulationOutcome, usize), PlanError> {
    // Chaos hook: `sweep.replica=panic` simulates a replica crashing
    // mid-sweep; the caller quarantines it instead of losing the grid.
    let _ = mule_fault::point("sweep.replica");
    let mut config = base_config.with_horizon(spec.horizon_s);
    config.energy.speed_m_per_s = cell.speed_m_per_s;
    let scenario_cfg = spec.scenario_config(cell).with_seed(replica_seed);
    let scenario = scenario_cfg.generate();

    match &cell.disruption {
        None => {
            let plan: PatrolPlan = planner.plan(&scenario)?;
            let outcome = Simulation::with_config(&scenario, &plan, config).run_for(spec.horizon_s);
            Ok((outcome, 0))
        }
        Some(template) => {
            // Each replica gets its own disruption seed so the fan stays
            // decorrelated, exactly like the scenario seeds.
            let disruption_cfg = template.reseeded(replica_seed, spec.horizon_s);
            let disruptions = DisruptionPlan::seeded(&scenario, &disruption_cfg);
            // Plan on the world as it looks at t = 0 (late targets are not
            // yet known), mirroring `patrolctl dynamics`.
            let initial_world = scenario.restricted(
                &disruptions.late_target_ids(),
                scenario.mule_starts().to_vec(),
            );
            let plan = planner.plan(&initial_world)?;
            let replanner = ReplanWithPlanner::new(planner);
            let result = DynamicSimulation::new(&scenario, &plan, &disruptions)
                .with_config(config)
                .with_replanner(&replanner)
                .run_for(spec.horizon_s);
            let replans = result.replan_count();
            Ok((result.outcome, replans))
        }
    }
}

/// Runs a whole [`SweepSpec`] grid on the `mule-par` worker pool and
/// returns one [`SweepCellOutcome`] per cell, in [`SweepSpec::cells`]
/// order.
///
/// `planner_factory` builds a fresh planner per replica so boxed planners
/// need not be `Sync`; planners are deterministic functions of the
/// scenario, so this does not affect results. `workers` overrides the pool
/// size ([`mule_par::resolve_workers`] semantics; `Some(1)` forces the
/// exact sequential execution). Dynamic cells (a `Some` disruption axis
/// value) run the dynamic engine with online replanning; static cells run
/// the plain engine.
///
/// The returned outcomes are **bit-identical for every worker count**:
/// each `(cell, replica)` simulation is an independent pure function of
/// its seeds, and results are reassembled in grid order.
pub fn run_sweep<F>(
    planner_factory: &F,
    spec: &SweepSpec,
    base_config: &SimulationConfig,
    workers: Option<usize>,
) -> Vec<SweepCellOutcome>
where
    F: Fn() -> Box<dyn Planner> + Sync,
{
    let cells = spec.cells();
    let replicas = spec.replicas;
    let total = cells.len() * replicas;
    // One seed fan per cell, computed up front instead of once per task.
    let fans: Vec<Vec<u64>> = cells.iter().map(|c| seed_fan(c.seed, replicas)).collect();

    // When the *calling* thread is recording a trace, each replica runs
    // under its own capture on whatever worker executes it; the child
    // traces are grafted back in grid order below, so the combined span
    // tree is identical for any worker count.
    let tracing = mule_obs::trace_active();
    type ReplicaResult = Result<(SimulationOutcome, usize), PlanError>;
    // Outer `Err` = the replica panicked; it is caught *on the worker*
    // (inside the trace capture, so a partial trace still grafts back)
    // and quarantined during regrouping instead of poisoning the pool.
    type GuardedResult = Result<ReplicaResult, String>;
    let results: Vec<(GuardedResult, Option<mule_obs::Trace>)> =
        mule_par::parallel_map_indexed_with(mule_par::resolve_workers(workers), total, |i| {
            let cell = &cells[i / replicas];
            let replica_seed = fans[i / replicas][i % replicas];
            let planner = planner_factory();
            let task = || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_sweep_replica(planner.as_ref(), spec, cell, replica_seed, base_config)
                }))
                .map_err(|payload| mule_fault::panic_message(&*payload))
            };
            if tracing {
                let (result, trace) = mule_obs::capture(task);
                (result, Some(trace))
            } else {
                (task(), None)
            }
        });

    let mut grouped: Vec<SweepCellOutcome> = cells
        .into_iter()
        .map(|cell| SweepCellOutcome {
            cell,
            outcomes: Vec::new(),
            failures: Vec::new(),
            quarantined: Vec::new(),
            replans: 0,
        })
        .collect();
    let mut results = results.into_iter();
    for (c, group) in grouped.iter_mut().enumerate() {
        let _cell_span = mule_obs::span("sweep.cell");
        mule_obs::add("cell", c as u64);
        for (r, (result, trace)) in results.by_ref().take(replicas).enumerate() {
            if let Some(t) = trace {
                mule_obs::graft(t);
            }
            match result {
                Ok(Ok((outcome, replans))) => {
                    group.outcomes.push(outcome);
                    group.replans += replans;
                }
                Ok(Err(e)) => group.failures.push(e),
                Err(message) => group.quarantined.push(SweepCellError {
                    cell_index: c,
                    seed: fans[c][r],
                    replica: r,
                    message,
                }),
            }
        }
    }
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_workload::ScenarioConfig;
    use patrol_core::BTctp;

    fn factory() -> Box<dyn Planner> {
        Box::new(BTctp::new())
    }

    fn small_spec() -> SweepSpec {
        SweepSpec::new(ScenarioConfig::paper_default().with_targets(6))
            .with_replicas(2)
            .with_horizon(5_000.0)
    }

    #[test]
    fn paper_speed_constant_matches_the_energy_model() {
        assert_eq!(
            mule_workload::PAPER_SPEED_M_PER_S,
            mule_energy::EnergyModel::paper_default().speed_m_per_s
        );
    }

    #[test]
    fn sweep_produces_one_group_per_cell_in_grid_order() {
        let spec = small_spec()
            .with_seeds(vec![1, 2])
            .with_mule_counts(vec![2, 3]);
        let groups = run_sweep(&factory, &spec, &SimulationConfig::timing_only(), None);
        assert_eq!(groups.len(), 4);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.cell.index, i);
            assert_eq!(g.outcomes.len(), 2, "cell {i}");
            assert!(g.failures.is_empty());
            assert_eq!(g.replans, 0, "static cells never replan");
            assert!(g.average(|o| o.total_visits() as f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn sweep_speed_axis_changes_the_outcome() {
        let slow = small_spec().with_speeds(vec![1.0]);
        let fast = small_spec().with_speeds(vec![4.0]);
        let config = SimulationConfig::timing_only();
        let a = run_sweep(&factory, &slow, &config, None);
        let b = run_sweep(&factory, &fast, &config, None);
        let visits = |g: &[SweepCellOutcome]| g[0].average(|o| o.total_visits() as f64).unwrap();
        assert!(
            visits(&b) > visits(&a),
            "faster mules should visit more: {} vs {}",
            visits(&b),
            visits(&a)
        );
    }

    #[test]
    fn sweep_dynamic_cells_run_disruptions_and_replan() {
        let spec = small_spec().with_disruptions(vec![
            None,
            Some(mule_workload::DisruptionConfig::default_mixed(1, 5_000.0)),
        ]);
        let groups = run_sweep(&factory, &spec, &SimulationConfig::timing_only(), None);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].replans, 0);
        assert!(
            groups[1].replans > 0,
            "mixed disruptions should trigger replans"
        );
        assert!(groups[1].failures.is_empty());
    }

    #[test]
    fn sweep_planning_failures_are_collected_per_cell() {
        let spec = small_spec().with_mule_counts(vec![0, 2]);
        let groups = run_sweep(&factory, &spec, &SimulationConfig::timing_only(), None);
        assert_eq!(groups[0].failures.len(), 2);
        assert!(groups[0].outcomes.is_empty());
        assert!(groups[0].average(|o| o.total_visits() as f64).is_none());
        assert!(groups[1].failures.is_empty());
        assert_eq!(groups[1].outcomes.len(), 2);
    }

    #[test]
    fn empty_axes_and_zero_replicas_yield_empty_results() {
        let no_cells = small_spec().with_seeds(vec![]);
        assert!(run_sweep(&factory, &no_cells, &SimulationConfig::timing_only(), None).is_empty());
        let no_replicas = small_spec().with_replicas(0);
        let groups = run_sweep(
            &factory,
            &no_replicas,
            &SimulationConfig::timing_only(),
            None,
        );
        assert_eq!(groups.len(), 1);
        assert!(groups[0].outcomes.is_empty() && groups[0].failures.is_empty());
    }
}
