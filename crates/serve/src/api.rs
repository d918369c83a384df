//! The planning API: request parsing and byte-deterministic response
//! documents.
//!
//! Everything the daemon serves is computed here as a plain function of
//! the request — the HTTP layer only moves bytes. The key property is
//! that [`plan_response_json`] is a **pure, deterministic function of the
//! spec**: equal specs produce equal bytes, which is what the plan cache
//! stores and what makes a cache hit indistinguishable from a cold
//! compute (see `docs/DETERMINISM.md`). `patrolctl plan` prints exactly
//! this document, so the offline CLI and the service can be diffed
//! byte-for-byte.

use crate::json::{parse, JsonValue, JsonWriter};
use mule_sim::SimulationConfig;
use mule_workload::{MetricSpec, ScenarioSpec, SweepSpec};
use patrol_core::{MuleItinerary, PatrolPlan, PlanError, Planner, PlannerKind, Walk};
use std::fmt;
use std::ops::Range;

/// Schema tag of `/v1/plan` responses.
pub const PLAN_SCHEMA: &str = "plan-response/v1";
/// Schema tag of `/v1/simulate` responses.
pub const SIMULATE_SCHEMA: &str = "simulate-response/v1";
/// Default replica count of `/v1/simulate` (the paper averages over 20,
/// but a service default must bound per-request work).
pub const DEFAULT_SIMULATE_REPLICAS: usize = 8;
/// Largest replica count `/v1/simulate` accepts per request.
pub const MAX_SIMULATE_REPLICAS: usize = 64;
/// Largest target count a request may ask to plan. The request body that
/// names a target count is a few dozen bytes, but generation and
/// planning cost O(n)–O(n²) in it — without a cap, one tiny request
/// could pin arbitrary memory and CPU, defeating the HTTP layer's size
/// limits. 50 000 is above the largest tracked bench instance (5 000)
/// with an order of magnitude to grow.
pub const MAX_SPEC_TARGETS: usize = 50_000;
/// Largest mule count a request may ask to plan (same rationale as
/// [`MAX_SPEC_TARGETS`]).
pub const MAX_SPEC_MULES: usize = 1_000;
/// Largest simulation horizon `/v1/simulate` accepts, seconds (the
/// event loop does work proportional to it).
pub const MAX_SPEC_HORIZON_S: f64 = 10_000_000.0;

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The request document is malformed (bad JSON, wrong types, unknown
    /// planner, out-of-range values).
    BadRequest(String),
    /// The spec parsed but the planner rejected the scenario.
    Plan(PlanError),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ApiError::Plan(e) => write!(f, "planning failed: {e}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<PlanError> for ApiError {
    fn from(e: PlanError) -> Self {
        ApiError::Plan(e)
    }
}

/// Builds the planner a request names, resolved through the planner table
/// `patrolctl --planner` also uses ([`patrol_core::PLANNERS`]).
pub fn build_planner(name: &str) -> Option<Box<dyn Planner>> {
    PlannerKind::lookup(name).map(PlannerKind::build)
}

/// The planner-table row a spec names, or the `400` a request gets for an
/// unknown planner.
pub fn planner_kind(spec: &ScenarioSpec) -> Result<&'static PlannerKind, ApiError> {
    PlannerKind::lookup(&spec.planner)
        .ok_or_else(|| ApiError::BadRequest(format!("unknown planner `{}`", spec.planner)))
}

/// Renders a spec as its JSON document (field order fixed, so equal specs
/// render to equal bytes). Like the canonical string, the default
/// (Euclidean) metric renders nothing — responses for pre-road specs are
/// byte-identical to the pre-road era; road specs grow a trailing
/// `"metric"` field.
pub fn spec_to_json(spec: &ScenarioSpec) -> JsonValue {
    let mut fields = vec![
        ("targets", JsonValue::from(spec.targets)),
        ("mules", spec.mules.into()),
        ("seed", spec.seed.into()),
        ("vips", spec.vips.into()),
        ("vip_weight", spec.vip_weight.into()),
        ("recharge", spec.recharge.into()),
        ("planner", spec.planner.as_str().into()),
        ("horizon_s", spec.horizon_s.into()),
    ];
    if spec.metric != MetricSpec::Euclidean {
        fields.push(("metric", spec.metric.wire_name().into()));
    }
    JsonValue::object(fields)
}

fn field_u64(v: &JsonValue, key: &str, default: u64) -> Result<u64, ApiError> {
    match v.get(key) {
        None => Ok(default),
        Some(field) => field
            .as_u64()
            .ok_or_else(|| ApiError::BadRequest(format!("`{key}` must be a non-negative integer"))),
    }
}

fn field_usize(v: &JsonValue, key: &str, default: usize) -> Result<usize, ApiError> {
    field_u64(v, key, default as u64).map(|n| usize::try_from(n).unwrap_or(usize::MAX))
}

/// Parses a spec document. Missing fields take the [`ScenarioSpec`]
/// defaults (so `{"targets": 12}` is a valid request); present fields
/// must have the right type. Unknown fields are ignored.
pub fn spec_from_json(v: &JsonValue) -> Result<ScenarioSpec, ApiError> {
    if !matches!(v, JsonValue::Object(_)) {
        return Err(ApiError::BadRequest("spec must be a JSON object".into()));
    }
    let defaults = ScenarioSpec::default();
    let planner = match v.get("planner") {
        None => defaults.planner.clone(),
        Some(field) => field
            .as_str()
            .ok_or_else(|| ApiError::BadRequest("`planner` must be a string".into()))?
            .to_string(),
    };
    let horizon_s = match v.get("horizon_s") {
        None => defaults.horizon_s,
        Some(field) => field
            .as_f64()
            .ok_or_else(|| ApiError::BadRequest("`horizon_s` must be a number".into()))?,
    };
    let recharge = match v.get("recharge") {
        None => defaults.recharge,
        Some(field) => field
            .as_bool()
            .ok_or_else(|| ApiError::BadRequest("`recharge` must be a boolean".into()))?,
    };
    let metric = match v.get("metric") {
        None => defaults.metric,
        Some(field) => {
            let name = field
                .as_str()
                .ok_or_else(|| ApiError::BadRequest("`metric` must be a string".into()))?;
            MetricSpec::parse(name).ok_or_else(|| {
                ApiError::BadRequest(format!(
                    "unknown metric `{name}` (expected euclidean | road | road-grid | road-planar)"
                ))
            })?
        }
    };
    Ok(ScenarioSpec {
        targets: field_usize(v, "targets", defaults.targets)?,
        mules: field_usize(v, "mules", defaults.mules)?,
        seed: field_u64(v, "seed", defaults.seed)?,
        vips: field_usize(v, "vips", defaults.vips)?,
        vip_weight: u32::try_from(field_u64(v, "vip_weight", u64::from(defaults.vip_weight))?)
            .map_err(|_| ApiError::BadRequest("`vip_weight` does not fit in 32 bits".into()))?,
        recharge,
        planner,
        horizon_s,
        metric,
    })
}

/// Parses a spec from raw request-body bytes.
pub fn spec_from_body(body: &[u8]) -> Result<ScenarioSpec, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::BadRequest("request body is not UTF-8".into()))?;
    let doc = parse(text).map_err(|e| ApiError::BadRequest(format!("invalid JSON: {e}")))?;
    spec_from_json(&doc)
}

/// Rejects specs whose sizes would let one small request pin unbounded
/// memory or CPU. Applied by both compute entry points, so the caps hold
/// for the daemon and for `patrolctl plan` alike.
fn validate_spec(spec: &ScenarioSpec) -> Result<(), ApiError> {
    if spec.targets > MAX_SPEC_TARGETS {
        return Err(ApiError::BadRequest(format!(
            "`targets` exceeds the service limit of {MAX_SPEC_TARGETS}"
        )));
    }
    if spec.mules > MAX_SPEC_MULES {
        return Err(ApiError::BadRequest(format!(
            "`mules` exceeds the service limit of {MAX_SPEC_MULES}"
        )));
    }
    if !spec.horizon_s.is_finite() || spec.horizon_s < 0.0 || spec.horizon_s > MAX_SPEC_HORIZON_S {
        return Err(ApiError::BadRequest(format!(
            "`horizon_s` must be a finite number in [0, {MAX_SPEC_HORIZON_S:?}]"
        )));
    }
    Ok(())
}

/// The simulation configuration a spec implies: full energy accounting
/// only when a recharge station exists, pure timing otherwise. The
/// `patrolctl` scenario commands use it too.
pub fn sim_config_for(spec: &ScenarioSpec) -> SimulationConfig {
    if spec.recharge {
        SimulationConfig::default()
    } else {
        SimulationConfig::timing_only()
    }
}

/// Computes the `/v1/plan` response document for a spec: the planner's
/// tour (per-mule closed walks) plus summary metrics, rendered as pretty
/// JSON with a trailing newline. The render is streamed under a
/// `plan.render` span.
///
/// **Determinism contract:** equal specs produce byte-identical strings —
/// this is the value the plan cache stores, and `patrolctl plan` prints
/// the same bytes offline.
pub fn plan_response_json(spec: &ScenarioSpec) -> Result<String, ApiError> {
    validate_spec(spec)?;
    let planner = planner_kind(spec)?.build();
    let scenario = spec.scenario_config().generate();
    let plan = planner.plan(&scenario)?;
    Ok(render_plan(spec, &plan))
}

/// Renders the `/v1/plan` document of `plan`, which was made for `spec`.
fn render_plan(spec: &ScenarioSpec, plan: &PatrolPlan) -> String {
    let _render = mule_obs::span("plan.render");
    let mut w = JsonWriter::pretty_with_capacity(estimated_plan_bytes(plan));
    w.begin_object();
    w.key("schema");
    w.string(PLAN_SCHEMA);
    w.key("fingerprint");
    w.string(&format!("{:016x}", spec.fingerprint()));
    w.key("spec");
    spec_to_json(spec).write(&mut w);
    w.key("planner");
    w.string(&plan.planner_name);
    w.key("mules");
    w.u64(plan.mule_count() as u64);
    w.key("targets");
    w.u64(spec.targets as u64);
    w.key("max_cycle_length_m");
    w.f64(plan.max_cycle_length());
    w.key("covered_nodes");
    w.u64(plan.covered_nodes().len() as u64);
    w.key("itineraries");
    w.begin_array();
    // Planners that share one walk among all mules hand every itinerary
    // a clone of it: its bytes are formatted once and copied after that.
    // The copied run spans the `cycle` value through the `path` value, if
    // any: the same bytes at the same depth.
    let mut last_walk: Option<(&Walk, Range<usize>)> = None;
    let mut cycles_formatted = 0;
    for it in &plan.itineraries {
        w.begin_object();
        w.key("mule");
        w.u64(it.mule_index as u64);
        w.key("start");
        write_xy(&mut w, it.start_position.x, it.start_position.y);
        w.key("entry_offset_m");
        w.f64(it.entry_offset_m);
        w.key("cycle_length_m");
        w.f64(it.cycle_length());
        w.key("cycle");
        match &last_walk {
            Some((walk, bytes)) if Walk::ptr_eq(walk, &it.cycle) => w.copy_value(bytes.clone()),
            _ => {
                let begin = w.position();
                w.begin_array();
                for p in &it.cycle {
                    w.begin_object();
                    w.key("node");
                    w.u64(p.node.0 as u64);
                    w.key("x");
                    w.f64(p.position.x);
                    w.key("y");
                    w.f64(p.position.y);
                    w.end_object();
                }
                w.end_array();
                // Road plans also expose the driven geometry (every travel
                // vertex, `[[x, y], …]`); Euclidean responses stay
                // byte-identical by omitting the field.
                if it.cycle.is_routed() {
                    w.key("path");
                    w.begin_array();
                    for (p, _) in it.cycle.vertices() {
                        write_xy(&mut w, p.x, p.y);
                    }
                    w.end_array();
                }
                last_walk = Some((&it.cycle, begin..w.position()));
                cycles_formatted += 1;
            }
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
    mule_obs::add("itineraries", plan.itineraries.len() as u64);
    mule_obs::add("cycles", cycles_formatted);
    w.finish()
}

/// A little more than the size of `plan`'s `/v1/plan` document: a pretty
/// waypoint takes about 110 bytes and a `path` point about 80. Sizing the
/// render buffer once spares a response the chain of doubling buffers
/// (each copied into the next and left free behind it) that growing from
/// empty costs.
fn estimated_plan_bytes(plan: &PatrolPlan) -> usize {
    let itinerary_bytes = |it: &MuleItinerary| {
        let path_points = if it.cycle.is_routed() {
            it.cycle.vertex_count()
        } else {
            0
        };
        512 + 128 * it.cycle.len() + 96 * path_points
    };
    1024 + plan.itineraries.iter().map(itinerary_bytes).sum::<usize>()
}

/// Writes a point as `[x, y]`.
fn write_xy(w: &mut JsonWriter, x: f64, y: f64) {
    w.begin_array();
    w.f64(x);
    w.f64(y);
    w.end_array();
}

/// A parsed `/v1/simulate` request: the spec plus execution knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// The scenario + planner to simulate.
    pub spec: ScenarioSpec,
    /// Replications (capped at [`MAX_SIMULATE_REPLICAS`]).
    pub replicas: usize,
}

/// Parses a `/v1/simulate` request body: either `{"spec": {...},
/// "replicas": N}` or a bare spec object (replicas defaulted).
pub fn simulate_request_from_body(body: &[u8]) -> Result<SimulateRequest, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::BadRequest("request body is not UTF-8".into()))?;
    let doc = parse(text).map_err(|e| ApiError::BadRequest(format!("invalid JSON: {e}")))?;
    let (spec_doc, replicas) = match doc.get("spec") {
        Some(spec_doc) => {
            let replicas = field_usize(&doc, "replicas", DEFAULT_SIMULATE_REPLICAS)?;
            (spec_doc.clone(), replicas)
        }
        None => (doc, DEFAULT_SIMULATE_REPLICAS),
    };
    if replicas == 0 || replicas > MAX_SIMULATE_REPLICAS {
        return Err(ApiError::BadRequest(format!(
            "`replicas` must be between 1 and {MAX_SIMULATE_REPLICAS}"
        )));
    }
    Ok(SimulateRequest {
        spec: spec_from_json(&spec_doc)?,
        replicas,
    })
}

fn stats_json(stats: &mule_metrics::SummaryStatistics) -> JsonValue {
    JsonValue::object(vec![
        ("mean", stats.mean.into()),
        ("std_dev", stats.std_dev.into()),
        ("ci95", stats.ci95_half_width().into()),
        ("min", stats.min.into()),
        ("max", stats.max.into()),
    ])
}

/// Runs a replicated simulation of the request's spec on the `mule-par`
/// pool and renders the aggregated `SweepReport`-style summary. Like
/// planning, this is a deterministic function of the request (the worker
/// count is not an input — see `docs/DETERMINISM.md`).
pub fn simulate_response_json(request: &SimulateRequest) -> Result<String, ApiError> {
    let spec = &request.spec;
    validate_spec(spec)?;
    let kind = planner_kind(spec)?;
    let sweep = SweepSpec::new(spec.scenario_config())
        .with_replicas(request.replicas)
        .with_horizon(spec.horizon_s);
    let factory = move || kind.build();
    let cells = mule_sim::run_sweep(&factory, &sweep, &sim_config_for(spec), None);
    let report = mule_metrics::SweepReport::from_cells(&cells);
    let cell = report
        .cells
        .first()
        .ok_or_else(|| ApiError::BadRequest("empty sweep grid".into()))?;
    if cell.replicas == 0 {
        // Every replica failed to plan: surface the planner's error.
        let first_failure = cells
            .first()
            .and_then(|c| c.failures.first().cloned())
            .unwrap_or(PlanError::NoTargets);
        return Err(ApiError::Plan(first_failure));
    }

    let doc = JsonValue::object(vec![
        ("schema", SIMULATE_SCHEMA.into()),
        ("fingerprint", format!("{:016x}", spec.fingerprint()).into()),
        ("spec", spec_to_json(spec)),
        ("replicas", cell.replicas.into()),
        ("failures", cell.failures.into()),
        ("replans", cell.replans.into()),
        ("max_interval_s", stats_json(&cell.max_interval_s)),
        ("avg_dcdt_s", stats_json(&cell.avg_dcdt_s)),
        ("distance_m", stats_json(&cell.distance_m)),
    ]);
    Ok(doc.to_pretty_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_roundtrips_through_text() {
        let spec = ScenarioSpec {
            planner: "chb".into(),
            ..ScenarioSpec::default().with_seed(9).with_targets(14)
        };
        let text = spec_to_json(&spec).to_json_string();
        let back = spec_from_body(text.as_bytes()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn missing_fields_take_defaults_and_unknown_fields_are_ignored() {
        let spec = spec_from_body(br#"{"targets": 12, "future_knob": [1,2]}"#).unwrap();
        assert_eq!(spec.targets, 12);
        assert_eq!(spec.mules, ScenarioSpec::default().mules);
        assert_eq!(spec.planner, "b-tctp");
        let empty = spec_from_body(b"{}").unwrap();
        assert_eq!(empty, ScenarioSpec::default());
    }

    #[test]
    fn type_errors_are_reported_per_field() {
        for (body, needle) in [
            (&br#"{"targets": "ten"}"#[..], "`targets`"),
            (br#"{"seed": -1}"#, "`seed`"),
            (br#"{"planner": 7}"#, "`planner`"),
            (br#"{"recharge": "yes"}"#, "`recharge`"),
            (br#"{"horizon_s": []}"#, "`horizon_s`"),
            (br#"[1,2]"#, "object"),
            (b"not json", "invalid JSON"),
            (br#"{"targets": 01}"#, "invalid number"),
            (&[0xff, 0xfe], "UTF-8"),
        ] {
            let err = spec_from_body(body).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "body {body:?}: {err} should mention {needle}"
            );
        }
    }

    #[test]
    fn equal_walks_render_alike_whether_shared_or_separate() {
        let spec = ScenarioSpec {
            targets: 6,
            mules: 3,
            ..ScenarioSpec::default()
        };
        let shared = build_planner("b-tctp")
            .unwrap()
            .plan(&spec.scenario_config().generate())
            .unwrap();
        let mut separate = shared.clone();
        for it in &mut separate.itineraries {
            it.cycle = Walk::from(it.cycle.to_vec());
        }
        let render = |plan: &PatrolPlan| {
            let (json, trace) = mule_obs::capture(|| render_plan(&spec, plan));
            let cycles = trace
                .spans
                .iter()
                .flat_map(|s| &s.counters)
                .find(|(name, _)| name == "cycles")
                .map(|&(_, v)| v);
            (json, cycles)
        };
        let (shared_json, shared_cycles) = render(&shared);
        let (separate_json, separate_cycles) = render(&separate);
        assert_eq!(shared_json, separate_json);
        assert_eq!(shared_json, plan_response_json(&spec).unwrap());
        assert_eq!(shared_cycles, Some(1), "one shared walk, formatted once");
        assert_eq!(separate_cycles, Some(3), "one walk formatted per mule");
    }

    /// Every spelling the API has ever accepted, with the canonical name it
    /// resolves to.
    const ACCEPTED_PLANNER_NAMES: [(&str, &str); 14] = [
        ("b-tctp", "b-tctp"),
        ("btctp", "b-tctp"),
        ("tctp", "b-tctp"),
        ("w-tctp-shortest", "w-tctp-shortest"),
        ("w-tctp", "w-tctp-shortest"),
        ("wtctp", "w-tctp-shortest"),
        ("shortest", "w-tctp-shortest"),
        ("w-tctp-balancing", "w-tctp-balancing"),
        ("balancing", "w-tctp-balancing"),
        ("rw-tctp", "rw-tctp"),
        ("rwtctp", "rw-tctp"),
        ("chb", "chb"),
        ("sweep", "sweep"),
        ("random", "random"),
    ];

    #[test]
    fn planner_names_and_aliases_build_planners() {
        for (name, canonical) in ACCEPTED_PLANNER_NAMES {
            for spelling in [name.to_string(), name.to_ascii_uppercase()] {
                let kind = PlannerKind::lookup(&spelling).expect(name);
                assert_eq!(kind.name, canonical, "{spelling}");
                let built = build_planner(&spelling).expect(name);
                assert!(kind.label.starts_with(built.name()), "{spelling}");
            }
        }
        // The table accepts nothing beyond those spellings.
        let table_spellings: usize = patrol_core::PLANNERS
            .iter()
            .map(|kind| 1 + kind.aliases.len())
            .sum();
        assert_eq!(table_spellings, ACCEPTED_PLANNER_NAMES.len());
        assert!(build_planner("dijkstra").is_none());
    }

    #[test]
    fn plan_response_is_deterministic_and_parses() {
        let spec = ScenarioSpec::default().with_targets(8).with_mules(3);
        let a = plan_response_json(&spec).unwrap();
        let b = plan_response_json(&spec).unwrap();
        assert_eq!(a, b, "equal specs must produce identical bytes");
        let doc = parse(&a).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(PLAN_SCHEMA)
        );
        assert_eq!(
            doc.get("planner").and_then(JsonValue::as_str),
            Some("B-TCTP")
        );
        assert_eq!(doc.get("mules").and_then(JsonValue::as_usize), Some(3));
        let its = doc
            .get("itineraries")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(its.len(), 3);
        assert!(its[0].get("cycle").and_then(JsonValue::as_array).is_some());
        assert!(
            doc.get("max_cycle_length_m")
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
        assert_eq!(
            doc.get("fingerprint").and_then(JsonValue::as_str),
            Some(format!("{:016x}", spec.fingerprint()).as_str())
        );
    }

    #[test]
    fn oversized_specs_are_rejected_before_any_work() {
        let huge_targets = ScenarioSpec {
            targets: MAX_SPEC_TARGETS + 1,
            ..ScenarioSpec::default()
        };
        let err = plan_response_json(&huge_targets).unwrap_err();
        assert!(err.to_string().contains("`targets`"), "{err}");

        let huge_mules = ScenarioSpec {
            mules: MAX_SPEC_MULES + 1,
            ..ScenarioSpec::default()
        };
        assert!(plan_response_json(&huge_mules).is_err());

        for horizon in [f64::NAN, f64::INFINITY, -1.0, MAX_SPEC_HORIZON_S * 2.0] {
            let bad = ScenarioSpec {
                horizon_s: horizon,
                ..ScenarioSpec::default()
            };
            let request = SimulateRequest {
                spec: bad.clone(),
                replicas: 1,
            };
            assert!(
                matches!(
                    simulate_response_json(&request).unwrap_err(),
                    ApiError::BadRequest(_)
                ),
                "horizon {horizon}"
            );
            // Planning ignores the horizon semantically but still rejects
            // a nonsensical spec, keeping the two entry points aligned.
            assert!(plan_response_json(&bad).is_err());
        }

        // The caps are limits, not off-by-one traps.
        let at_cap = ScenarioSpec {
            targets: 60,
            mules: 5,
            horizon_s: MAX_SPEC_HORIZON_S,
            ..ScenarioSpec::default()
        };
        assert!(plan_response_json(&at_cap).is_ok());
    }

    #[test]
    fn metric_field_parses_and_round_trips() {
        let road = spec_from_body(br#"{"targets": 8, "metric": "road"}"#).unwrap();
        assert_eq!(
            road.metric,
            MetricSpec::Road(mule_road::RoadNetKind::Grid),
            "`road` aliases the grid network"
        );
        let planar = spec_from_body(br#"{"metric": "road-planar"}"#).unwrap();
        assert_eq!(
            planar.metric,
            MetricSpec::Road(mule_road::RoadNetKind::Planar)
        );
        // Round trip through the rendered JSON.
        let text = spec_to_json(&planar).to_pretty_string();
        assert!(text.contains("\"metric\": \"road-planar\""), "{text}");
        assert_eq!(spec_from_body(text.as_bytes()).unwrap(), planar);
        // The default metric is absent from the document — pre-road
        // responses stay byte-identical.
        let default_doc = spec_to_json(&ScenarioSpec::default()).to_json_string();
        assert!(!default_doc.contains("metric"));
        // Bad values are typed errors.
        for body in [&br#"{"metric": "warp"}"#[..], br#"{"metric": 3}"#] {
            let err = spec_from_body(body).unwrap_err();
            assert!(err.to_string().contains("metric"), "{err}");
        }
    }

    #[test]
    fn road_plan_response_carries_geometry_and_its_own_fingerprint() {
        let spec = ScenarioSpec {
            targets: 8,
            mules: 2,
            metric: MetricSpec::Road(mule_road::RoadNetKind::Grid),
            ..ScenarioSpec::default()
        };
        let a = plan_response_json(&spec).unwrap();
        assert_eq!(a, plan_response_json(&spec).unwrap(), "deterministic");
        let doc = parse(&a).unwrap();
        assert_eq!(
            doc.get("spec")
                .unwrap()
                .get("metric")
                .and_then(JsonValue::as_str),
            Some("road-grid")
        );
        let its = doc
            .get("itineraries")
            .and_then(JsonValue::as_array)
            .unwrap();
        let path = its[0].get("path").and_then(JsonValue::as_array).unwrap();
        let cycle = its[0].get("cycle").and_then(JsonValue::as_array).unwrap();
        assert!(
            path.len() > cycle.len(),
            "road geometry has more vertices than stops"
        );
        // Same knobs, euclidean metric: different fingerprint, no path.
        let euclid = ScenarioSpec {
            metric: MetricSpec::Euclidean,
            ..spec.clone()
        };
        let e = plan_response_json(&euclid).unwrap();
        let edoc = parse(&e).unwrap();
        assert_ne!(
            doc.get("fingerprint").and_then(JsonValue::as_str),
            edoc.get("fingerprint").and_then(JsonValue::as_str),
            "metric feeds the cache key"
        );
        let eits = edoc
            .get("itineraries")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(eits[0].get("path").is_none());
    }

    #[test]
    fn plan_errors_surface_typed() {
        let unknown = ScenarioSpec {
            planner: "nonsense".into(),
            ..ScenarioSpec::default()
        };
        assert!(matches!(
            plan_response_json(&unknown).unwrap_err(),
            ApiError::BadRequest(_)
        ));
        let no_mules = ScenarioSpec::default().with_mules(0);
        assert_eq!(
            plan_response_json(&no_mules).unwrap_err(),
            ApiError::Plan(PlanError::NoMules)
        );
    }

    #[test]
    fn simulate_request_accepts_wrapped_and_bare_specs() {
        let wrapped =
            simulate_request_from_body(br#"{"spec": {"targets": 6}, "replicas": 3}"#).unwrap();
        assert_eq!(wrapped.spec.targets, 6);
        assert_eq!(wrapped.replicas, 3);
        let bare = simulate_request_from_body(br#"{"targets": 6}"#).unwrap();
        assert_eq!(bare.replicas, DEFAULT_SIMULATE_REPLICAS);
        for bad in [
            &br#"{"spec": {}, "replicas": 0}"#[..],
            br#"{"spec": {}, "replicas": 1000}"#,
        ] {
            assert!(simulate_request_from_body(bad).is_err());
        }
    }

    #[test]
    fn simulate_response_reports_aggregates() {
        let request = SimulateRequest {
            spec: ScenarioSpec {
                targets: 6,
                horizon_s: 5_000.0,
                ..ScenarioSpec::default()
            },
            replicas: 3,
        };
        let a = simulate_response_json(&request).unwrap();
        let b = simulate_response_json(&request).unwrap();
        assert_eq!(a, b, "deterministic");
        let doc = parse(&a).unwrap();
        assert_eq!(doc.get("replicas").and_then(JsonValue::as_usize), Some(3));
        assert!(
            doc.get("max_interval_s")
                .unwrap()
                .get("mean")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert!(doc.get("avg_dcdt_s").unwrap().get("ci95").is_some());
    }

    #[test]
    fn simulate_planning_failures_surface_typed() {
        let request = SimulateRequest {
            spec: ScenarioSpec::default().with_mules(0),
            replicas: 2,
        };
        assert_eq!(
            simulate_response_json(&request).unwrap_err(),
            ApiError::Plan(PlanError::NoMules)
        );
    }
}
