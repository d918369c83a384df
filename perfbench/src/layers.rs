//! Outside-in per-layer measurement shared by the traced runs.
//!
//! Nothing here adds instrumentation to the program: each figure is the
//! wall time (and, where named, the allocation tally of the counting
//! allocator `mule-obs` already installs) of a call into one crate's
//! public functions, replayed on the workload's own inputs.

use crate::{ms_since, PER_LAYER};
use mule_geom::Point;
use mule_graph::chb::DEFAULT_CANDIDATES_K;
use mule_graph::{
    construct_circuit_with, convex_hull_insertion, convex_hull_insertion_incremental, or_opt,
    or_opt_candidates, two_opt, two_opt_candidates, CandidateLists, ChbConfig, DistanceMatrix,
    SearchMode,
};
use mule_obs::alloc::{self, AllocStats};
use mule_road::TravelMetric;
use mule_serve::api::{spec_from_body, spec_to_json};
use mule_serve::PlanCache;
use mule_workload::{Scenario, ScenarioSpec};
use patrol_core::hamiltonian::SharedCircuit;
use patrol_core::wtctp::wpp;
use patrol_core::{BreakEdgePolicy, PatrolPlan, PlanError};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Running means of per-layer observations, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    /// Adds one observation of `name` (averaged on output).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let entry = self.sums.entry(name).or_insert((0.0, 0));
        entry.0 += value;
        entry.1 += 1;
    }

    /// Sets `name` to exactly `value` (a ratio or a one-off figure).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.sums.insert(name, (value, 1));
    }

    /// Moves every observation of `other` into `self`.
    pub fn merge(&mut self, other: Layers) {
        for (name, (sum, n)) in other.sums {
            let entry = self.sums.entry(name).or_insert((0.0, 0));
            entry.0 += sum;
            entry.1 += n;
        }
    }

    /// Mean of the observations of `name` (0 when there are none).
    fn mean(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .map_or(0.0, |&(sum, n)| sum / n.max(1) as f64)
    }

    /// Writes every mean into the report with its declared unit.
    pub fn emit(&self, report: &mut crate::report::Report) {
        for &name in self.sums.keys() {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("undeclared", |(_, u)| u);
            report.metric(name, self.mean(name), unit);
        }
    }
}

/// Runs `f`, returning its value and wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms_since(start))
}

/// [`timed`] plus the calling thread's allocation tally over the call.
/// The counting allocator must be armed (see [`Armed`]).
fn timed_alloc<T>(f: impl FnOnce() -> T) -> (T, f64, AllocStats) {
    let before = alloc::thread_stats();
    let (value, ms) = timed(f);
    let after = alloc::thread_stats();
    let delta = AllocStats {
        alloc_count: after.alloc_count - before.alloc_count,
        realloc_count: after.realloc_count - before.realloc_count,
        allocated_bytes: after.allocated_bytes - before.allocated_bytes,
        ..AllocStats::default()
    };
    (value, ms, delta)
}

/// Holds one arm of the counting allocator while alive.
struct Armed;

impl Armed {
    fn new() -> Self {
        alloc::arm();
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        alloc::disarm();
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// Replays the candidate-list pipeline's public stage functions on
/// `points` in the order `chb` runs them (incremental hull insertion,
/// candidate lists, 2-opt, Or-opt, final 2-opt), timing each, then times
/// `construct_circuit_with` itself. Returns `false` — and records no
/// `graph.*` figure — when the replayed tour differs from the one
/// `construct_circuit_with` builds, since the stage figures would then
/// describe some other computation.
pub fn replay_candidate_path(points: &[Point], layers: &mut Layers) -> bool {
    let config = ChbConfig::default();
    assert!(
        matches!(
            config.search.resolve(points.len()),
            SearchMode::Candidates(_)
        ),
        "candidate replay needs an instance above the exact threshold"
    );
    let _armed = Armed::new();
    let (mut tour, hull_ms, hull_alloc) = timed_alloc(|| convex_hull_insertion_incremental(points));
    let (lists, lists_ms, lists_alloc) =
        timed_alloc(|| CandidateLists::build(points, DEFAULT_CANDIDATES_K));
    let (two_opt_moves, two_opt_ms) =
        timed(|| two_opt_candidates(&mut tour, points, &lists, config.two_opt_passes));
    let (or_opt_moves, or_opt_ms, or_opt_alloc) =
        timed_alloc(|| or_opt_candidates(&mut tour, points, &lists, config.or_opt_passes));
    let (final_moves, final_ms) =
        timed(|| two_opt_candidates(&mut tour, points, &lists, config.two_opt_passes));
    let (reference, construct_ms) = timed(|| construct_circuit_with(points, &config));
    if tour.order() != reference.order() {
        return false;
    }
    let stages_ms = hull_ms + lists_ms + two_opt_ms + or_opt_ms + final_ms;
    layers.add("graph.hull_insertion_ms", hull_ms);
    layers.add(
        "graph.hull_insertion_alloc_mb",
        hull_alloc.allocated_bytes as f64 / MB,
    );
    layers.add("graph.candidate_lists_ms", lists_ms);
    layers.add("graph.candidate_lists_allocs", lists_alloc.events() as f64);
    layers.add("graph.two_opt_ms", two_opt_ms + final_ms);
    layers.add("graph.two_opt_moves", (two_opt_moves + final_moves) as f64);
    layers.add("graph.or_opt_ms", or_opt_ms);
    layers.add("graph.or_opt_moves", or_opt_moves as f64);
    layers.add(
        "graph.or_opt_alloc_mb",
        or_opt_alloc.allocated_bytes as f64 / MB,
    );
    layers.add("graph.unattributed_ms", construct_ms - stages_ms);
    true
}

/// Replays the exact pipeline's public stage functions (distance matrix
/// under the scenario's metric, convex-hull insertion, 2-opt, Or-opt,
/// final 2-opt) on `points`.
pub fn replay_exact_path(points: &[Point], metric: &TravelMetric, layers: &mut Layers) {
    let config = ChbConfig::default();
    let (dm, dm_ms) = timed(|| DistanceMatrix::from_metric(points, metric));
    let (mut tour, insertion_ms) = timed(|| convex_hull_insertion(points, &dm));
    let (_, two_opt_ms) = timed(|| two_opt(&mut tour, &dm, config.two_opt_passes));
    let (or_moves, or_opt_ms) = timed(|| or_opt(&mut tour, &dm, config.or_opt_passes));
    let (_, final_ms) = timed(|| two_opt(&mut tour, &dm, config.two_opt_passes));
    layers.add("graph.distance_matrix_ms", dm_ms);
    layers.add("graph.exact_insertion_ms", insertion_ms);
    layers.add("graph.exact_two_opt_ms", two_opt_ms + final_ms);
    layers.add("graph.exact_or_opt_ms", or_opt_ms);
    layers.add("graph.exact_or_opt_moves", or_moves as f64);
}

/// The `core.*` metric a planner's wall time is recorded under.
fn planner_metric(planner: &str) -> Option<&'static str> {
    match planner {
        "b-tctp" => Some("core.btctp_ms"),
        "rw-tctp" => Some("core.rwtctp_ms"),
        "w-tctp-balancing" => Some("core.wtctp_balancing_ms"),
        _ => None,
    }
}

/// Times `planner.plan(scenario)` under the planner's `core.*` metric and
/// returns the plan.
pub fn time_planner(
    planner: &str,
    scenario: &Scenario,
    layers: &mut Layers,
) -> Result<(PatrolPlan, f64), PlanError> {
    let built = mule_serve::api::build_planner(planner).expect("benchmark planners exist");
    let (plan, ms) = timed(|| built.plan(scenario));
    if let Some(name) = planner_metric(planner) {
        layers.add(name, ms);
    }
    plan.map(|p| (p, ms))
}

/// Records `core.planner_self_ms`: the planner's wall time minus the time
/// to build its shared CHB circuit.
pub fn planner_self(scenario: &Scenario, planner_ms: f64, layers: &mut Layers) {
    let (_, circuit_ms) = timed(|| SharedCircuit::build(scenario, &ChbConfig::default()));
    layers.add("core.planner_self_ms", planner_ms - circuit_ms);
}

/// Calls per timed batch of [`serve_public_calls`].
const CALL_REPEATS: u32 = 200;

/// Times the serving layer's public per-request calls on `spec` and its
/// response bytes: body parse (`api::spec_from_body`), fingerprint, and a
/// `PlanCache` hit on a resident key — the mean of [`CALL_REPEATS`] calls
/// each, since one call takes about a microsecond.
pub fn serve_public_calls(spec: &ScenarioSpec, response: Vec<u8>, layers: &mut Layers) {
    let request = spec_to_json(spec).to_json_string().into_bytes();
    let per_call_us = |ms: f64| ms * 1e3 / f64::from(CALL_REPEATS);
    let (_, parse_ms) = timed(|| {
        for _ in 0..CALL_REPEATS {
            black_box(spec_from_body(black_box(&request)).ok());
        }
    });
    layers.add("serve.parse_us", per_call_us(parse_ms));
    let (_, fingerprint_ms) = timed(|| {
        for _ in 0..CALL_REPEATS {
            black_box(black_box(spec).fingerprint());
        }
    });
    layers.add("serve.fingerprint_us", per_call_us(fingerprint_ms));
    let cache = PlanCache::new(128);
    let key = spec.fingerprint();
    let _ = cache.get_or_compute(key, || Ok::<_, ()>(response));
    let (_, hit_ms) = timed(|| {
        for _ in 0..CALL_REPEATS {
            black_box(cache.get_or_compute(key, || Err(())).ok());
        }
    });
    layers.add("serve.cache_hit_us", per_call_us(hit_ms));
}

/// Times W-TCTP Balancing's weighted-path construction
/// (`wtctp::wpp::build_wpp`) on the scenario's shared circuit.
pub fn time_wpp_balancing(scenario: &Scenario, layers: &mut Layers) {
    let Some(circuit) = SharedCircuit::build(scenario, &ChbConfig::default()) else {
        return;
    };
    let positions = circuit.positions();
    let field = scenario.field();
    let weights: Vec<u32> = circuit
        .node_ids()
        .iter()
        .map(|id| field.node(*id).map_or(1, |n| n.weight.value()))
        .collect();
    let base: Vec<usize> = (0..positions.len()).collect();
    let (_, ms) = timed(|| {
        wpp::build_wpp(
            &base,
            &positions,
            &weights,
            BreakEdgePolicy::BalancingLength,
        )
    });
    layers.add("core.wpp_balancing_ms", ms);
}
