//! `plan-3k`: one `mule_serve::api::plan_response_json` call per operation
//! on a fresh seeded 3,000-target spec, sequentially in one thread (a
//! closed loop with one caller). Specs cycle through B-TCTP and RW-TCTP
//! (with a recharge station) at 4 and 8 mules; at this size the planners
//! take the candidate-list tour engine.

use crate::layers::{self, timed, Layers};
use crate::reference::Timeline;
use crate::report::Report;
use crate::{mix, ms_since, repeated_setup, stats, Options, WARMUP_SEED};
use mule_serve::api::{plan_response_json, PLAN_SCHEMA};
use mule_serve::json::{parse, JsonValue};
use mule_workload::ScenarioSpec;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const TARGETS: usize = 3_000;
/// Length of the spec cycle: B-TCTP and RW-TCTP alternate, with 4 mules in
/// two of every three pairs and 8 in the third. A run stops only at the
/// end of a cycle, so the shares are exact. Plans for 8 mules serialise
/// twice the itineraries and are slower; with a 2:1 split the median
/// falls inside the 4-mule cluster and p90 inside the 8-mule one, never
/// on the gap between them, where a small shift of either cluster would
/// move the percentile by the whole gap.
const CLASSES: u64 = 6;
/// Fewest timed operations per run, whatever `--seconds` says.
const MIN_OPS: usize = 100;
/// `max_cycle_length_m` is the mean over the run's first this-many plans,
/// a fixed set for a given seed.
const QUALITY_PLANS: usize = 32;
/// Index of the first warm-up spec: far from every timed spec's index,
/// and a whole number of cycles so warm-up specs keep their classes.
const WARMUP_BASE: u64 = CLASSES << 58;

/// The `i`-th spec of the run.
fn spec(seed: u64, i: u64) -> ScenarioSpec {
    let rw = i % 2 == 1;
    ScenarioSpec {
        targets: TARGETS,
        mules: if (i % CLASSES) / 2 == 1 { 8 } else { 4 },
        seed: mix(seed, i),
        recharge: rw,
        planner: if rw { "rw-tctp" } else { "b-tctp" }.to_string(),
        ..ScenarioSpec::default()
    }
}

pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut warmups = 0;
    let ((), setups) = repeated_setup(|| {
        // One untimed plan per planner × mule count warms code and the
        // allocator.
        for class in 0..4 {
            let spec = spec(WARMUP_SEED, WARMUP_BASE + warmups * CLASSES + class);
            let body = plan_response_json(&spec).map_err(|e| e.to_string())?;
            check_plan_body(&mut report, &spec, &body);
            report.attempted += 1;
        }
        warmups += 1;
        Ok(())
    })?;
    if options.trace {
        traced(options, &mut report);
        return Ok(report);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    let mut latencies = Vec::new();
    let mut timeline = Timeline::default();
    let mut quality = Vec::new();
    let mut i = 0u64;
    while latencies.len() < MIN_OPS || Instant::now() < deadline || !i.is_multiple_of(CLASSES) {
        let spec = spec(options.seed, i);
        let start = Instant::now();
        let result = plan_response_json(&spec);
        let ms = ms_since(start);
        latencies.push(ms);
        timeline.push(ms);
        timeline.reference();
        report.attempted += 1;
        match result {
            Ok(body) => {
                if let Some(max_cycle) = check_plan_body(&mut report, &spec, &body) {
                    if quality.len() < QUALITY_PLANS {
                        quality.push(max_cycle);
                    }
                }
            }
            Err(e) => report.fail(format!("seed {}: {e}", spec.seed)),
        }
        i += 1;
    }
    for class in 0..CLASSES {
        let spec = spec(options.seed, class);
        let own: Vec<f64> = latencies
            .iter()
            .skip(class as usize)
            .step_by(CLASSES as usize)
            .copied()
            .collect();
        report.note(format!(
            "{} with {} mules: median {:.3} ms over {} plans",
            spec.planner,
            spec.mules,
            stats::median(&own),
            own.len()
        ));
    }
    // Medians of consecutive pairs of cycles show host phases within a run.
    let drift: Vec<String> = latencies
        .chunks(2 * CLASSES as usize)
        .map(|c| format!("{:.0}", stats::median(c)))
        .collect();
    report.note(format!(
        "median ms per 12 plans, in order: {}",
        drift.join(" ")
    ));
    report.end_to_end(&setups, timeline, 1, stats::mean(&quality));
    Ok(report)
}

/// The traced run: paired untraced/traced operations for the tracing
/// overhead, then a stage-by-stage replay of fresh specs.
fn traced(options: &Options, report: &mut Report) {
    let mut layers = Layers::default();
    let start = Instant::now();
    let pairs_until = start + Duration::from_secs_f64(options.seconds * 0.4);
    let replay_until = start + Duration::from_secs_f64(options.seconds);

    // Each spec runs once plain and once under a `mule_obs` capture (which
    // turns on the spans the program already has); the order alternates
    // per pair so neither side always runs warm.
    let (mut plain_ms, mut captured_ms) = (0.0, 0.0);
    let mut i = 0u64;
    while Instant::now() < pairs_until || i < CLASSES {
        let spec = spec(options.seed, i);
        let run_plain = || timed(|| plan_response_json(&spec));
        let run_captured = || timed(|| mule_obs::capture(|| plan_response_json(&spec)).0);
        let ((plain, p_ms), (_, c_ms)) = if i.is_multiple_of(2) {
            let p = run_plain();
            (p, run_captured())
        } else {
            let c = run_captured();
            (run_plain(), c)
        };
        report.attempted += 2;
        match plain {
            Ok(body) => {
                check_plan_body(report, &spec, &body);
            }
            Err(e) => report.fail(format!("seed {}: {e}", spec.seed)),
        }
        plain_ms += p_ms;
        captured_ms += c_ms;
        layers.add("serve.plan_response_ms", p_ms);
        i += 1;
    }
    layers.set("obs.trace_overhead", plain_ms / captured_ms);

    // Stage replay: the same public calls the planner makes, one at a
    // time, on fresh specs (both planner classes at least once).
    let mut graph = Layers::default();
    let (mut replays, mut valid) = (0u32, 0u32);
    while Instant::now() < replay_until || replays < 2 {
        let spec = spec(options.seed, i);
        i += 1;
        replays += 1;
        let (result, response_ms) = timed(|| plan_response_json(&spec));
        report.attempted += 1;
        let body = match result {
            Ok(body) => body,
            Err(e) => {
                report.fail(format!("seed {}: {e}", spec.seed));
                continue;
            }
        };
        check_plan_body(report, &spec, &body);
        let (scenario, generate_ms) = timed(|| spec.scenario_config().generate());
        layers.add("workload.generate_ms", generate_ms);
        match layers::time_planner(&spec.planner, &scenario, &mut layers) {
            Ok((_, plan_ms)) => {
                layers.add("serve.serialize_ms", response_ms - generate_ms - plan_ms);
                layers::planner_self(&scenario, plan_ms, &mut layers);
            }
            Err(e) => report.fail(format!("replay of seed {}: {e}", spec.seed)),
        }
        if layers::replay_candidate_path(&scenario.patrolled_positions(), &mut graph) {
            valid += 1;
        }
        layers::serve_public_calls(&spec, body.into_bytes(), &mut layers);
    }
    layers.set("graph.replay_valid", f64::from(valid) / f64::from(replays));
    if valid == replays {
        layers.merge(graph);
    } else {
        report.note(format!(
            "graph.* not reported: {} of {replays} stage replays did not reproduce construct_circuit_with",
            replays - valid
        ));
    }
    report.note(format!(
        "{i} specs: {} paired, {replays} replayed stage by stage",
        i - u64::from(replays)
    ));
    layers.emit(report);
}

/// Checks one `/v1/plan` document against its spec: it parses, names the
/// spec's fingerprint and mule count, every itinerary is a closed walk
/// whose `cycle_length_m` is the length of its listed cycle and that
/// visits every patrolled node, and `max_cycle_length_m` is the longest
/// cycle. Returns `max_cycle_length_m` when every check passes.
fn check_plan_body(report: &mut Report, spec: &ScenarioSpec, body: &str) -> Option<f64> {
    match plan_body_problem(spec, body) {
        Ok(max_cycle) => Some(max_cycle),
        Err(problem) => {
            report.fail(format!("seed {}: {problem}", spec.seed));
            None
        }
    }
}

fn plan_body_problem(spec: &ScenarioSpec, body: &str) -> Result<f64, String> {
    let doc = parse(body).map_err(|e| format!("response does not parse: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("no `{key}`"));
    if field("schema")?.as_str() != Some(PLAN_SCHEMA) {
        return Err("wrong schema".into());
    }
    if field("fingerprint")?.as_str() != Some(format!("{:016x}", spec.fingerprint()).as_str()) {
        return Err("wrong fingerprint".into());
    }
    let itineraries = field("itineraries")?
        .as_array()
        .ok_or("`itineraries` is not an array")?;
    if itineraries.len() != spec.mules {
        return Err(format!(
            "{} itineraries for {} mules",
            itineraries.len(),
            spec.mules
        ));
    }
    let scenario = spec.scenario_config().generate();
    let patrolled: Vec<u64> = scenario
        .patrolled_ids()
        .iter()
        .map(|id| id.0 as u64)
        .collect();
    let mut longest = 0.0f64;
    for (m, it) in itineraries.iter().enumerate() {
        let cycle = it
            .get("cycle")
            .and_then(JsonValue::as_array)
            .ok_or(format!("itinerary {m} has no cycle"))?;
        let mut nodes = HashSet::with_capacity(cycle.len());
        let mut points = Vec::with_capacity(cycle.len());
        for w in cycle {
            let coord = |k| w.get(k).and_then(JsonValue::as_f64);
            match (
                w.get("node").and_then(JsonValue::as_u64),
                coord("x"),
                coord("y"),
            ) {
                (Some(node), Some(x), Some(y)) => {
                    nodes.insert(node);
                    points.push((x, y));
                }
                _ => return Err(format!("itinerary {m} has a malformed waypoint")),
            }
        }
        if let Some(missing) = patrolled.iter().find(|id| !nodes.contains(id)) {
            return Err(format!("itinerary {m} never visits node {missing}"));
        }
        let walked: f64 = points
            .iter()
            .zip(points.iter().cycle().skip(1))
            .map(|(a, b)| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt())
            .sum();
        let stated = it
            .get("cycle_length_m")
            .and_then(JsonValue::as_f64)
            .ok_or(format!("itinerary {m} has no cycle_length_m"))?;
        if (walked - stated).abs() > 1e-6 * stated.max(1.0) {
            return Err(format!(
                "itinerary {m}: cycle_length_m {stated} but the closed walk is {walked}"
            ));
        }
        longest = longest.max(stated);
    }
    let max_cycle = field("max_cycle_length_m")?
        .as_f64()
        .ok_or("`max_cycle_length_m` is not a number")?;
    if max_cycle != longest || max_cycle <= 0.0 {
        return Err(format!(
            "max_cycle_length_m {max_cycle} but the longest cycle is {longest}"
        ));
    }
    Ok(max_cycle)
}
