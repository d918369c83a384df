//! `sweep-paper`: one cell of the paper's §V grid per operation, run
//! through `mule_sim::run_sweep` on two workers. Cells are 50-target
//! scenarios over planner {B-TCTP, W-TCTP Balancing with 5 VIPs of weight
//! 3, RW-TCTP with a recharge station} × mules {2, 4, 8} × disruptions
//! {none, mixed} × metric {euclidean, road-grid}; a pass runs the 36
//! cells once, and every pass draws fresh seeds. Paper-size instances stay
//! on the exact CHB path.

use crate::layers::{self, timed, Layers};
use crate::reference::Timeline;
use crate::report::Report;
use crate::{mix, ms_since, repeated_setup, Options, WARMUP_SEED};
use mule_metrics::SweepReport;
use mule_road::{RoadIndex, RoadNetKind};
use mule_sim::{run_sweep, DynamicSimulation, Simulation, SimulationConfig, SweepCellOutcome};
use mule_workload::{
    seed_fan, DisruptionConfig, DisruptionPlan, MetricSpec, ScenarioConfig, SweepCell, SweepSpec,
    WeightSpec,
};
use patrol_core::ReplanWithPlanner;
use std::time::{Duration, Instant};

const TARGETS: usize = 50;
const PLANNERS: [&str; 3] = ["b-tctp", "w-tctp-balancing", "rw-tctp"];
const MULES: [usize; 3] = [2, 4, 8];
/// Random topologies per cell (the paper averages each point over
/// several), split over the two workers.
const REPLICAS: usize = 8;
const WORKERS: usize = 2;
/// Simulated seconds per replica (the planning service's default
/// horizon).
const HORIZON_S: f64 = 40_000.0;
const CELLS_PER_PASS: usize = PLANNERS.len() * MULES.len() * 2 * 2;
/// Fewest timed operations per run, whatever `--seconds` says.
const MIN_OPS: usize = 100;
/// Cells between reference timings (nine per pass of about half a second).
const CELLS_PER_REFERENCE: usize = 4;

/// One cell of the grid: which planner, fleet, disruption and metric.
#[derive(Debug, Clone, Copy)]
struct CellKind {
    planner: &'static str,
    mules: usize,
    disrupted: bool,
    road: bool,
}

/// The `k`-th cell kind of a pass: the planner varies fastest, then the
/// metric, the disruption and the fleet size.
fn cell_kind(k: usize) -> CellKind {
    CellKind {
        planner: PLANNERS[k % 3],
        road: (k / 3) % 2 == 1,
        disrupted: (k / 6) % 2 == 1,
        mules: MULES[(k / 12) % 3],
    }
}

/// The one-cell sweep of operation `k` of pass `pass`.
fn cell_sweep(seed: u64, pass: u64, k: usize) -> (CellKind, SweepSpec) {
    let kind = cell_kind(k);
    let weights = if kind.planner == "w-tctp-balancing" {
        WeightSpec::UniformVips {
            count: 5,
            weight: 3,
        }
    } else {
        WeightSpec::AllNormal
    };
    let metric = if kind.road {
        MetricSpec::Road(RoadNetKind::Grid)
    } else {
        MetricSpec::Euclidean
    };
    let base = ScenarioConfig::paper_default()
        .with_targets(TARGETS)
        .with_weights(weights)
        .with_recharge_station(kind.planner == "rw-tctp")
        .with_metric(metric);
    let disruption = kind
        .disrupted
        .then(|| DisruptionConfig::default_mixed(0, HORIZON_S));
    let spec = SweepSpec::new(base)
        .with_seeds(vec![mix(mix(seed, pass), k as u64)])
        .with_mule_counts(vec![kind.mules])
        .with_disruptions(vec![disruption])
        .with_replicas(REPLICAS)
        .with_horizon(HORIZON_S);
    (kind, spec)
}

/// Energy accounting only where a recharge station exists (the rule the
/// planning service applies).
fn sim_config(kind: CellKind) -> SimulationConfig {
    if kind.planner == "rw-tctp" {
        SimulationConfig::default()
    } else {
        SimulationConfig::timing_only()
    }
}

fn run_cell(kind: CellKind, spec: &SweepSpec, workers: usize) -> Vec<SweepCellOutcome> {
    let planner = kind.planner;
    let factory = move || mule_serve::api::build_planner(planner).expect("benchmark planner");
    run_sweep(&factory, spec, &sim_config(kind), Some(workers))
}

/// Checks a cell's outcome and returns its mean maximal visiting interval.
fn check_cell(report: &mut Report, label: &str, cells: &[SweepCellOutcome]) -> Option<f64> {
    let [cell] = cells else {
        report.fail(format!(
            "{label}: {} cells for a one-cell grid",
            cells.len()
        ));
        return None;
    };
    let ok = report.check(cell.failures.is_empty(), || {
        format!("{label}: planning failed: {:?}", cell.failures)
    }) && report.check(cell.quarantined.is_empty(), || {
        format!("{label}: quarantined replicas: {:?}", cell.quarantined)
    }) && report.check(cell.outcomes.len() == REPLICAS, || {
        format!("{label}: {} of {REPLICAS} replicas", cell.outcomes.len())
    });
    if !ok {
        return None;
    }
    let interval = SweepReport::from_cells(cells).cells[0].max_interval_s.mean;
    report
        .check(interval.is_finite() && interval > 0.0, || {
            format!("{label}: maximal visiting interval {interval}")
        })
        .then_some(interval)
}

/// The mean, over the cells' replicas, of the planned longest cycle:
/// the plans the sweep simulated, rebuilt outside the timed loop
/// (planners are deterministic functions of the scenario).
fn planned_max_cycle(kind: CellKind, spec: &SweepSpec) -> f64 {
    let cell = &spec.cells()[0];
    let planner = mule_serve::api::build_planner(kind.planner).expect("benchmark planner");
    let fan = seed_fan(cell.seed, REPLICAS);
    let lengths: Vec<f64> = fan
        .iter()
        .filter_map(|&s| {
            let scenario = spec.scenario_config(cell).with_seed(s).generate();
            planner.plan(&scenario).ok().map(|p| p.max_cycle_length())
        })
        .collect();
    crate::stats::mean(&lengths)
}

pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut warmups = 0u64;
    let ((), setups) = repeated_setup(|| {
        // One untimed cell of each planner × metric × disruption warms
        // code, caches and the worker pool.
        for k in 0..12 {
            let (kind, spec) = cell_sweep(WARMUP_SEED, u64::MAX / 2 - warmups, k);
            let cells = run_cell(kind, &spec, WORKERS);
            report.attempted += 1;
            check_cell(&mut report, "warm-up", &cells);
        }
        warmups += 1;
        Ok(())
    })?;
    if options.trace {
        traced(options, &mut report);
        return Ok(report);
    }

    // Whole passes only, so every cell kind has the same share of samples.
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    let mut ops = 0;
    let mut timeline = Timeline::default();
    let mut quality = Vec::new();
    let mut pass = 0u64;
    while ops < MIN_OPS || Instant::now() < deadline {
        for k in 0..CELLS_PER_PASS {
            let (kind, spec) = cell_sweep(options.seed, pass, k);
            let start = Instant::now();
            let cells = run_cell(kind, &spec, WORKERS);
            timeline.push(ms_since(start));
            ops += 1;
            if (k + 1) % CELLS_PER_REFERENCE == 0 {
                timeline.reference();
            }
            report.attempted += 1;
            let label = format!("pass {pass} cell {k}");
            if check_cell(&mut report, &label, &cells).is_some() && pass == 0 {
                quality.push(planned_max_cycle(kind, &spec));
            }
        }
        pass += 1;
    }
    report.end_to_end(&setups, timeline, 1, crate::stats::mean(&quality));
    Ok(report)
}

/// The traced run: paired plain/captured cells for the tracing overhead,
/// the same cells at one and two workers for the pool's speed-up, then
/// whole passes replayed call by call.
fn traced(options: &Options, report: &mut Report) {
    let mut layers = Layers::default();
    let start = Instant::now();
    let pairs_until = start + Duration::from_secs_f64(options.seconds * 0.3);
    let speedup_until = start + Duration::from_secs_f64(options.seconds * 0.5);

    let (mut plain_ms, mut captured_ms) = (0.0, 0.0);
    let mut k = 0;
    while Instant::now() < pairs_until || k < 6 {
        let (kind, spec) = cell_sweep(options.seed, 1_000, k % CELLS_PER_PASS);
        let plain = || timed(|| run_cell(kind, &spec, WORKERS));
        let captured = || timed(|| mule_obs::capture(|| run_cell(kind, &spec, WORKERS)).0);
        let ((cells, p_ms), (_, c_ms)) = if k % 2 == 0 {
            let p = plain();
            (p, captured())
        } else {
            let c = captured();
            (plain(), c)
        };
        report.attempted += 2;
        check_cell(report, "traced pair", &cells);
        plain_ms += p_ms;
        captured_ms += c_ms;
        k += 1;
    }
    layers.set("obs.trace_overhead", plain_ms / captured_ms);

    let (mut one_ms, mut two_ms) = (0.0, 0.0);
    let mut k = 0;
    while Instant::now() < speedup_until || k < 6 {
        let (kind, spec) = cell_sweep(options.seed, 2_000, k % CELLS_PER_PASS);
        let (_, t1) = timed(|| run_cell(kind, &spec, 1));
        let (cells, t2) = timed(|| run_cell(kind, &spec, WORKERS));
        report.attempted += 2;
        check_cell(report, "speed-up cell", &cells);
        one_ms += t1;
        two_ms += t2;
        k += 1;
    }
    layers.set("par.speedup", one_ms / two_ms);

    // Whole passes replayed call by call until the run's time is up; the
    // maximal visiting interval is the first pass's (fixed per seed).
    let replay_until = start + Duration::from_secs_f64(options.seconds);
    let mut intervals = Vec::new();
    let mut pass = 0;
    while pass == 0 || Instant::now() < replay_until {
        for k in 0..CELLS_PER_PASS {
            let (kind, spec) = cell_sweep(options.seed, pass, k);
            let cell = &spec.cells()[0];
            for replica_seed in seed_fan(cell.seed, REPLICAS) {
                report.attempted += 1;
                if let Err(e) = replay_replica(kind, &spec, cell, replica_seed, &mut layers) {
                    report.fail(format!("replay of pass {pass} cell {k}: {e}"));
                }
            }
            if pass == 0 {
                let cells = run_cell(kind, &spec, WORKERS);
                if let Some(interval) = check_cell(report, "replayed cell", &cells) {
                    intervals.push(interval);
                }
            }
        }
        pass += 1;
    }
    layers.set("sim.max_interval_s", crate::stats::mean(&intervals));
    layers.emit(report);
}

/// Replays one `(cell, replica)` simulation the way `run_sweep` runs it,
/// timing each crate's public calls on the way.
fn replay_replica(
    kind: CellKind,
    spec: &SweepSpec,
    cell: &SweepCell,
    replica_seed: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let scenario_cfg = spec.scenario_config(cell).with_seed(replica_seed);
    let (scenario, generate_ms) = timed(|| scenario_cfg.generate());
    layers.add("workload.generate_ms", generate_ms);
    let positions = scenario.patrolled_positions();
    if kind.road {
        let bounds = mule_geom::BoundingBox::square(scenario_cfg.field_side_m.max(1.0));
        let (index, build_ms) =
            timed(|| RoadIndex::for_field(RoadNetKind::Grid, &bounds, scenario_cfg.seed));
        layers.add("road.index_build_ms", build_ms);
        let (_, pairwise_ms) = timed(|| index.pairwise(&positions));
        layers.add("road.pairwise_ms", pairwise_ms);
    }
    layers::replay_exact_path(&positions, scenario.metric(), layers);
    if kind.planner == "w-tctp-balancing" {
        layers::time_wpp_balancing(&scenario, layers);
    }

    let mut config = sim_config(kind).with_horizon(spec.horizon_s);
    config.energy.speed_m_per_s = cell.speed_m_per_s;
    match &cell.disruption {
        None => {
            let (plan, _) =
                layers::time_planner(kind.planner, &scenario, layers).map_err(|e| e.to_string())?;
            let (outcome, ms) =
                timed(|| Simulation::with_config(&scenario, &plan, config).run_for(spec.horizon_s));
            layers.add("sim.static_run_ms", ms);
            layers.add("sim.visits", outcome.total_visits() as f64);
        }
        Some(template) => {
            let disruptions =
                DisruptionPlan::seeded(&scenario, &template.reseeded(replica_seed, spec.horizon_s));
            let initial_world = scenario.restricted(
                &disruptions.late_target_ids(),
                scenario.mule_starts().to_vec(),
            );
            let (plan, _) = layers::time_planner(kind.planner, &initial_world, layers)
                .map_err(|e| e.to_string())?;
            let planner = mule_serve::api::build_planner(kind.planner).expect("benchmark planner");
            let replanner = ReplanWithPlanner::new(planner.as_ref());
            let (result, ms) = timed(|| {
                DynamicSimulation::new(&scenario, &plan, &disruptions)
                    .with_config(config)
                    .with_replanner(&replanner)
                    .run_for(spec.horizon_s)
            });
            layers.add("sim.dynamic_run_ms", ms);
            layers.add("sim.replans", result.replan_count() as f64);
            layers.add("sim.visits", result.outcome.total_visits() as f64);
        }
    }
    Ok(())
}
