//! Pins the *allocation counts* attributed to the span tree of a
//! paper-sized `patrolctl plan` — the memory half of the determinism
//! contract (docs/DETERMINISM.md, "Observability"): allocation **counts**
//! per span are as reproducible as the span shape itself, while byte
//! figures, peaks, and RSS are environment-dependent and never pinned.
//!
//! This lives in its own integration-test binary so arming the counting
//! allocator cannot interact with the disarmed golden-shape tests in
//! `golden_trace.rs` (integration tests are separate processes).

use patrol_cli::args::parse_args;
use patrol_cli::commands::run_command;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Runs `cmdline` under a captured trace with the counting allocator
/// armed, returning the alloc-annotated shape.
fn armed_alloc_shape(cmdline: &str) -> String {
    mule_obs::alloc::arm();
    let (result, trace) = mule_obs::capture(|| run_command(&parse_args(&argv(cmdline)).unwrap()));
    mule_obs::alloc::disarm();
    result.unwrap();
    trace.alloc_shape()
}

const PLAN: &str = "plan --targets 12 --mules 3 --seed 7";

#[test]
fn per_span_allocation_counts_are_identical_run_to_run() {
    // One warmup run lets lazily-initialised one-time allocations
    // (runtime statics, thread-local buffers) land outside the compared
    // window; the contract covers steady-state runs.
    let _ = armed_alloc_shape(PLAN);
    let a = armed_alloc_shape(PLAN);
    let b = armed_alloc_shape(PLAN);
    assert_eq!(
        a, b,
        "per-span allocation counts of `patrolctl {PLAN}` drifted between runs"
    );
}

#[test]
fn alloc_shape_attributes_counts_without_pinning_bytes() {
    let _ = armed_alloc_shape(PLAN);
    let shape = armed_alloc_shape(PLAN);
    // Every line carries a count annotation; byte figures never appear.
    assert!(shape.contains("planner.B-TCTP"), "{shape}");
    assert!(shape.contains("allocs="), "{shape}");
    assert!(!shape.contains("bytes"), "bytes are never pinned: {shape}");
    // The plan pipeline allocates on its root span.
    let root = shape.lines().next().unwrap();
    assert!(root.contains("allocs="), "root span attributed: {root}");
}

/// The road-grid dynamic run the replanning work bounds are stated on:
/// an initial plan plus six replans over 50 targets and the sink.
const ROAD_DYNAMICS: &str = "dynamics --targets 50 --mules 4 --fail-targets 3 \
     --late-targets 2 --breakdowns 1 --metric road-grid";

/// Runs `cmdline` under a captured trace with the counting allocator
/// armed, returning the trace.
fn armed_trace(cmdline: &str) -> mule_obs::Trace {
    mule_obs::alloc::arm();
    let (result, trace) = mule_obs::capture(|| run_command(&parse_args(&argv(cmdline)).unwrap()));
    mule_obs::alloc::disarm();
    result.unwrap();
    trace
}

fn counter(span: &mule_obs::SpanRecord, name: &str) -> u64 {
    span.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

#[test]
fn road_replans_reuse_tables_legs_and_buffers() {
    let _ = armed_trace(ROAD_DYNAMICS);
    let trace = armed_trace(ROAD_DYNAMICS);
    let named = |name: &'static str| trace.spans.iter().filter(move |s| s.name == name);

    // Every plan's distance matrix reads the index's kept Dijkstra
    // tables: one run per patrolled node over the whole dynamic run.
    assert_eq!(
        named("road.pairwise").count(),
        7,
        "initial plan + 6 replans"
    );
    let sources: u64 = named("road.pairwise")
        .map(|s| counter(s, "dijkstra_sources"))
        .sum();
    assert!(sources <= 51, "{sources} Dijkstra sources for 51 nodes");

    // Each B-TCTP plan is one shared cycle over its `n` nodes, so it has
    // `n` distinct legs and runs at most one A* per leg, whatever the
    // fleet size.
    let plans: Vec<_> = named("planner.B-TCTP").collect();
    assert_eq!(plans.len(), 7);
    for plan in plans {
        let exact = trace
            .spans
            .iter()
            .find(|s| s.parent == Some(plan.id) && s.name == "chb.exact")
            .expect("every plan builds its circuit on the exact path");
        let (queries, legs) = (counter(plan, "alt_queries"), counter(exact, "n"));
        assert!(queries <= legs, "{queries} A* queries for {legs} legs");
    }

    // Exact Or-opt works in place: its position index plus the span's
    // own counter bookkeeping, never an allocation per attempt.
    for or_opt in named("chb.or_opt") {
        let allocs = or_opt.alloc.expect("armed").allocs;
        assert!(allocs <= 3, "chb.or_opt made {allocs} allocations");
    }
}

/// A paper-size W-TCTP Balancing plan. The break-edge search measures the
/// walk once per inserted VIP copy and the patrolling rule reuses its
/// buffers, so the planner allocates per call, not per candidate edge or
/// per step of the walk.
const BALANCING: &str = "plan --targets 50 --mules 4 --seed 7 --planner balancing --vips 5 \
     --vip-weight 3";

#[test]
fn w_tctp_balancing_allocates_per_call_not_per_candidate() {
    let _ = armed_trace(BALANCING);
    let trace = armed_trace(BALANCING);
    let planner = trace
        .spans
        .iter()
        .find(|s| s.name == "planner.W-TCTP")
        .expect("the plan runs W-TCTP");
    // Counts include child spans. Copying the walk per candidate edge made
    // 1,823; a tenth of that leaves room for the circuit and the render.
    let allocs = planner.alloc.expect("armed").allocs;
    assert!(allocs <= 182, "planner.W-TCTP made {allocs} allocations");
}

/// A paper-size road-grid RW-TCTP plan: eight mules on one super-cycle
/// that repeats its legs. Each distinct leg is routed once and the routed
/// walk is shared, so the render formats one cycle and one path and copies
/// their bytes for the other mules.
const ROAD_RW_TCTP: &str = "plan --targets 50 --mules 8 --seed 7 --planner rw-tctp --recharge \
     --metric road-grid";

#[test]
fn road_plans_share_one_routed_walk() {
    let _ = armed_trace(ROAD_RW_TCTP);
    let trace = armed_trace(ROAD_RW_TCTP);
    let allocs = |name: &str| {
        let span = trace
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("the plan opens {name}"));
        (span.alloc.expect("armed").allocs, span)
    };
    // Counts include child spans. With a routed copy of the walk per mule
    // the planner made 1,195 and the render 88; most of what is left is
    // the road matrix and the A* queries.
    let (planner, _) = allocs("planner.RW-TCTP");
    assert!(planner <= 900, "planner.RW-TCTP made {planner} allocations");
    let (render, span) = allocs("plan.render");
    assert!(render <= 40, "plan.render made {render} allocations");
    assert_eq!(counter(span, "cycles"), 1, "one walk formatted");
}

/// A paper-size static run. `sim.run` covers construction (routes,
/// per-node state, the first events), the drain loop and the outcome.
const SIMULATE: &str = "simulate --targets 50 --mules 4 --seed 7";

/// Allocations of the `sim.run` span (children included) of `cmdline`.
fn sim_run_allocs(cmdline: &str) -> u64 {
    let trace = armed_trace(cmdline);
    let runs: Vec<_> = trace.spans.iter().filter(|s| s.name == "sim.run").collect();
    assert_eq!(runs.len(), 1, "one simulation run");
    runs[0].alloc.expect("armed").allocs
}

#[test]
fn static_runs_allocate_per_run_not_per_event() {
    let _ = sim_run_allocs(SIMULATE);
    let short = sim_run_allocs(&format!("{SIMULATE} --horizon 40000"));
    let long = sim_run_allocs(&format!("{SIMULATE} --horizon 160000"));
    assert!(short <= 96, "sim.run made {short} allocations");
    // Four times the events: only the visit log and the clock's heap
    // grow, by doubling.
    assert!(
        long <= short + 3,
        "sim.run made {short} allocations at 40,000 s and {long} at 160,000 s"
    );
}
