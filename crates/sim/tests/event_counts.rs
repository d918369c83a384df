//! Pins how many events road runs fire and how ties at a road bend resolve.
//!
//! Arrivals at the bends of a road leg are handled inside the arrival
//! handler of the vertex before them instead of through the clock's heap.
//! They still count: `events_fired`, the `sim.run` span's `events` counter
//! and its `event.waypoint_arrival` counter read as they did when every
//! bend was a heap event. The figures below were captured before bends
//! were folded, so a mismatch here is a bug, not a re-pin.
//!
//! The last test places a speed window and a breakdown at exactly the
//! arrival time of a bend. Disruptions pop before arrivals at one
//! instant, so the bend must see both; a fold that passed a same-instant
//! disruption would make these runs equal to ones whose disruptions come
//! one ulp later.

use mule_road::RoadNetKind;
use mule_sim::{DynamicOutcome, DynamicSimulation, Simulation, SimulationConfig};
use mule_workload::{
    Disruption, DisruptionConfig, DisruptionPlan, MetricSpec, Scenario, ScenarioConfig,
};
use patrol_core::{BTctp, PatrolPlan, Planner, ReplanWithPlanner};

/// FNV-1a 64-bit — the same stable hash the spec fingerprint uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const HORIZON_S: f64 = 12_000.0;

fn road_grid(seed: u64) -> (Scenario, PatrolPlan) {
    let s = ScenarioConfig::paper_default()
        .with_targets(20)
        .with_mules(3)
        .with_seed(seed)
        .with_metric(MetricSpec::Road(RoadNetKind::Grid))
        .generate();
    let plan = BTctp::new().plan(&s).unwrap();
    assert!(plan.itineraries.iter().all(|it| it.cycle.is_routed()));
    (s, plan)
}

/// The counters of the one `sim.run` span in `trace`, in recorded order.
fn sim_run_counters(trace: &mule_obs::Trace) -> Vec<(String, u64)> {
    let runs: Vec<_> = trace.spans.iter().filter(|s| s.name == "sim.run").collect();
    assert_eq!(runs.len(), 1);
    runs[0].counters.clone()
}

fn counters(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
    pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
}

fn traced_dynamic(
    s: &Scenario,
    plan: &PatrolPlan,
    disruptions: &DisruptionPlan,
    replan: bool,
) -> (DynamicOutcome, Vec<(String, u64)>) {
    let replanner = ReplanWithPlanner::new(BTctp::new());
    let (outcome, trace) = mule_obs::capture(|| {
        let mut sim = DynamicSimulation::new(s, plan, disruptions)
            .with_config(SimulationConfig::timing_only());
        if replan {
            sim = sim.with_replanner(&replanner);
        }
        sim.run_for(HORIZON_S)
    });
    (outcome, sim_run_counters(&trace))
}

#[test]
fn static_road_run_counts_every_bend() {
    let (s, plan) = road_grid(3);
    let (_, trace) = mule_obs::capture(|| {
        Simulation::with_config(&s, &plan, SimulationConfig::timing_only()).run_for(HORIZON_S)
    });
    let want = counters(&[("event.waypoint_arrival", 954), ("events", 954)]);
    assert_eq!(sim_run_counters(&trace), want);
    let (outcome, _) = traced_dynamic(&s, &plan, &DisruptionPlan::none(), false);
    assert_eq!(outcome.events_fired, 954);
}

#[test]
fn dynamic_road_run_counts_every_bend() {
    let (s, plan) = road_grid(5);
    let disruptions = DisruptionPlan::seeded(&s, &DisruptionConfig::default_mixed(3, HORIZON_S));
    let (outcome, got) = traced_dynamic(&s, &plan, &disruptions, true);
    assert!(outcome.replan_count() > 0);
    let want = counters(&[
        ("event.waypoint_arrival", 617),
        ("event.target_arrival", 1),
        ("event.replan", 4),
        ("event.mule_breakdown", 1),
        ("event.target_failure", 1),
        ("event.speed_window_start", 1),
        ("event.target_recovery", 1),
        ("event.speed_window_end", 1),
        ("events", 627),
    ]);
    assert_eq!(got, want);
    assert_eq!(outcome.events_fired, 627);
    assert_eq!(fnv1a(format!("{outcome:?}").as_bytes()), 0xf474_0b93_5356_b54a);
}

/// The arrival time of the first bend mule `m` reaches straight after a
/// visit, computed as the engine computes it: the visit time plus the
/// leg's length over the nominal speed (there is no dwell).
fn bend_arrival_after_a_visit(s: &Scenario, plan: &PatrolPlan, m: usize) -> f64 {
    let outcome =
        Simulation::with_config(s, plan, SimulationConfig::timing_only()).run_for(HORIZON_S);
    let speed = SimulationConfig::timing_only()
        .energy
        .speed_m_per_s
        .max(1e-9)
        * 1.0;
    let vertices: Vec<_> = plan.itineraries[m].cycle.vertices().collect();
    let n = vertices.len();
    for visit in outcome.visits.iter().filter(|v| v.mule_index == m) {
        let i = vertices
            .iter()
            .position(|&(_, node)| node == Some(visit.node))
            .expect("visited nodes are on the walk");
        let next = (i + 1) % n;
        if vertices[next].1.is_none() {
            let leg = vertices[i].0.distance(&vertices[next].0);
            return visit.time_s + 0.0 + leg / speed;
        }
    }
    panic!("mule {m} never leaves a node towards a bend");
}

fn one_ulp_later(t: f64) -> f64 {
    f64::from_bits(t.to_bits() + 1)
}

#[test]
fn disruptions_at_a_bends_arrival_apply_before_it() {
    let (s, plan) = road_grid(7);
    let window_at = bend_arrival_after_a_visit(&s, &plan, 0);
    let breakdown_at = bend_arrival_after_a_visit(&s, &plan, 1);
    let disruptions = |window_at: f64, breakdown_at: f64| {
        let mut plan = DisruptionPlan {
            disruptions: vec![
                Disruption::SpeedWindow {
                    start_s: window_at,
                    end_s: 9_000.0,
                    factor: 0.5,
                },
                Disruption::MuleBreakdown {
                    mule: 1,
                    at_s: breakdown_at,
                },
            ],
        };
        plan.sort();
        plan
    };
    let (tied, got) = traced_dynamic(&s, &plan, &disruptions(window_at, breakdown_at), false);
    // Each disruption really lands on a bend: one ulp later, the bend's
    // next leg is already on its way, and the run differs.
    for (w, b) in [
        (one_ulp_later(window_at), breakdown_at),
        (window_at, one_ulp_later(breakdown_at)),
    ] {
        let (later, _) = traced_dynamic(&s, &plan, &disruptions(w, b), false);
        assert_ne!(later.outcome, tied.outcome);
    }
    let want = counters(&[
        ("event.waypoint_arrival", 393),
        ("event.mule_breakdown", 1),
        ("event.speed_window_start", 1),
        ("event.speed_window_end", 1),
        ("events", 396),
    ]);
    assert_eq!(got, want);
    assert_eq!(tied.events_fired, 396);
    assert_eq!(fnv1a(format!("{tied:?}").as_bytes()), 0x17c3_ba26_1aa2_0d10);
}
