//! Implementations of the `patrolctl` subcommands.
//!
//! Every command returns a [`CommandOutput`] (text plus optional files
//! written) instead of printing directly, so the logic is unit-testable.

use crate::args::{
    BenchRoutesOptions, BenchToursOptions, ChaosOptions, CliCommand, CliError, CliOptions,
    DisruptionPreset, DynamicsOptions, ServeOptions, SweepOptions, USAGE,
};
use mule_bench::routebench::run_route_bench;
use mule_bench::tourbench::{run_tour_bench, tracing_overhead_ratio};
use mule_graph::{ChbConfig, SearchMode};
use mule_metrics::{
    DcdtSeries, EnergyEfficiencyReport, FairnessReport, IntervalReport, PhaseDelayReport,
    SweepReport, TextTable,
};
use mule_serve::api::{planner_kind, sim_config_for};
use mule_sim::{DynamicSimulation, Simulation, SimulationOutcome};
use mule_viz::{plan_to_svg, render_plan, render_scenario, SvgStyle};
use mule_workload::{DisruptionConfig, DisruptionPlan, Scenario, ScenarioSpec, SweepSpec};
use patrol_core::{PatrolPlan, PlanError, PlannerKind, ReplanWithPlanner};

/// Result of running a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutput {
    /// Text to print to stdout.
    pub text: String,
    /// Paths of any files the command wrote.
    pub files_written: Vec<String>,
}

impl CommandOutput {
    fn text_only(text: String) -> Self {
        CommandOutput {
            text,
            files_written: Vec::new(),
        }
    }
}

/// Errors a command can produce.
#[derive(Debug)]
pub enum CommandError {
    /// Argument-level problem.
    Cli(CliError),
    /// The selected planner rejected the scenario.
    Plan(PlanError),
    /// A file could not be written.
    Io(std::io::Error),
    /// A quality/regression gate failed (e.g. `bench-tours --max-ratio`).
    Check(String),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Cli(e) => write!(f, "{e}"),
            CommandError::Plan(e) => write!(f, "planning failed: {e}"),
            CommandError::Io(e) => write!(f, "i/o error: {e}"),
            CommandError::Check(msg) => write!(f, "check failed: {msg}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<PlanError> for CommandError {
    fn from(e: PlanError) -> Self {
        CommandError::Plan(e)
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

fn simulate(scenario: &Scenario, plan: &PatrolPlan, spec: &ScenarioSpec) -> SimulationOutcome {
    Simulation::with_config(scenario, plan, sim_config_for(spec)).run_for(spec.horizon_s)
}

fn metrics_text(plan: &PatrolPlan, outcome: &SimulationOutcome) -> String {
    let intervals = IntervalReport::from_outcome(outcome);
    let dcdt = DcdtSeries::from_outcome(outcome);
    let energy = EnergyEfficiencyReport::from_outcome(outcome);
    let fairness = FairnessReport::from_outcome(outcome);

    let mut out = String::new();
    out.push_str(&format!(
        "planner: {}\ncycle length: {:.0} m (longest itinerary)\n",
        plan.planner_name,
        plan.max_cycle_length()
    ));
    out.push_str(&format!(
        "visits: {}  distance: {:.1} km  delivered: {:.1} kB\n",
        outcome.total_visits(),
        outcome.total_distance_m() / 1000.0,
        outcome.total_delivered_bytes() / 1000.0
    ));
    out.push_str(&format!(
        "visiting interval: max {:.1} s  mean {:.1} s  avg per-target SD {:.2} s\n",
        intervals.max_interval(),
        intervals.mean_interval(),
        intervals.average_sd()
    ));
    out.push_str(&format!(
        "DCDT (post warm-up): mean {:.1} s  max {:.1} s\n",
        dcdt.average_dcdt(2),
        dcdt.max_dcdt(2)
    ));
    out.push_str(&format!(
        "fairness: coverage {:.3}  fleet balance {:.3}\n",
        fairness.coverage_fairness, fairness.fleet_balance
    ));
    out.push_str(&format!(
        "energy: total {:.0} J  useful fraction {:.2}  recharges {}  fleet survived: {}\n",
        energy.total_energy_j,
        energy.useful_fraction(),
        energy.recharges,
        energy.fleet_survived()
    ));
    out
}

fn run_render(options: &CliOptions) -> Result<CommandOutput, CommandError> {
    let spec = &options.spec;
    let scenario = spec.scenario_config().generate();
    let planner = planner_kind(spec).map_err(api_error)?.build();
    let width = options.canvas_width.clamp(20, 200);
    let height = width / 2;
    let mut text = format!(
        "scenario: {} targets, {} mules, seed {}\n\n",
        spec.targets, spec.mules, spec.seed
    );
    // Road scenarios get a network summary plus travel-metric
    // connectivity: two geometrically close targets separated by deleted
    // blocks are *not* travel-neighbours, which is what decides whether
    // mules are needed at all. (Euclidean output is unchanged.)
    if let Some(index) = scenario.metric().road_index() {
        let range = scenario.field().radio().communication_range_m;
        let components = scenario.patrolled_components(range).len();
        let report = index.component();
        text.push_str(&format!(
            "road network ({}): {} nodes, {} edges, {:.1} km of road\n\
             patrolled connectivity at {:.0} m (travel metric): {} component(s)\n\n",
            scenario.metric().label(),
            index.graph().len(),
            index.graph().edge_count(),
            index.graph().total_length_m() / 1000.0,
            range,
            components,
        ));
        if report.dropped_nodes > 0 {
            text.push_str(&format!(
                "(generator kept the largest of {} components: {} of {} nodes)\n\n",
                report.component_count, report.kept_nodes, report.total_nodes,
            ));
        }
    }
    text.push_str(&render_scenario(&scenario, width, height));
    text.push_str("\n\n");
    match planner.plan(&scenario) {
        Ok(plan) => {
            text.push_str(&format!("{} route:\n", plan.planner_name));
            text.push_str(&render_plan(&scenario, &plan, width, height));
            text.push('\n');
        }
        Err(e) => return Err(e.into()),
    }
    Ok(CommandOutput::text_only(text))
}

fn run_simulate(options: &CliOptions) -> Result<CommandOutput, CommandError> {
    let scenario = options.spec.scenario_config().generate();
    let planner = planner_kind(&options.spec).map_err(api_error)?.build();
    let plan = planner.plan(&scenario)?;
    let outcome = simulate(&scenario, &plan, &options.spec);

    let mut output = CommandOutput::text_only(metrics_text(&plan, &outcome));

    if let Some(svg_path) = &options.svg_path {
        let svg = plan_to_svg(&scenario, &plan, &SvgStyle::default());
        std::fs::write(svg_path, svg)?;
        output.files_written.push(svg_path.clone());
    }
    if let Some(prefix) = &options.csv_prefix {
        let (visits, mules) = mule_sim::write_csv_files(&outcome, std::path::Path::new(prefix))?;
        output
            .files_written
            .push(visits.to_string_lossy().into_owned());
        output
            .files_written
            .push(mules.to_string_lossy().into_owned());
    }
    Ok(output)
}

fn run_compare(options: &CliOptions) -> Result<CommandOutput, CommandError> {
    let spec = &options.spec;
    let scenario = spec.scenario_config().generate();
    let mut names = vec!["random", "sweep", "chb", "b-tctp"];
    if spec.vips > 0 {
        names.extend(["w-tctp-shortest", "w-tctp-balancing"]);
    }
    if spec.recharge {
        names.push("rw-tctp");
    }

    let mut table = TextTable::new(vec![
        "planner",
        "max interval (s)",
        "avg SD (s)",
        "avg DCDT (s)",
        "path (m)",
        "survived",
    ]);
    for name in names {
        let kind = PlannerKind::lookup(name).expect("compare names table planners");
        let plan = match kind.build().plan(&scenario) {
            Ok(p) => p,
            Err(e) => {
                table.add_row(vec![kind.label.to_string(), format!("error: {e}")]);
                continue;
            }
        };
        let outcome = simulate(&scenario, &plan, spec);
        let intervals = IntervalReport::from_outcome(&outcome);
        let dcdt = DcdtSeries::from_outcome(&outcome);
        table.add_row(vec![
            kind.label.to_string(),
            format!("{:.0}", intervals.max_interval()),
            format!("{:.1}", intervals.average_sd()),
            format!("{:.0}", dcdt.average_dcdt(2)),
            format!("{:.0}", plan.max_cycle_length()),
            format!("{}", outcome.all_mules_survived()),
        ]);
    }
    Ok(CommandOutput::text_only(table.render()))
}

fn run_dynamics(options: &DynamicsOptions) -> Result<CommandOutput, CommandError> {
    let base = &options.base.spec;
    let scenario = base.scenario_config().generate();
    let disruption_config = DisruptionConfig {
        seed: base.seed,
        horizon_s: base.horizon_s,
        target_failures: options.fail_targets,
        recover_after_s: options.recover_after_s,
        late_arrivals: options.late_targets,
        mule_breakdowns: options.breakdowns,
        speed_windows: options.speed_windows,
        speed_factor: options.speed_factor,
    };
    let disruptions = DisruptionPlan::seeded(&scenario, &disruption_config);

    // Plan on the world as it looks at t = 0: late-arriving targets are
    // not yet known to the planner, so they are excluded until their
    // arrival triggers a replan.
    let kind = planner_kind(base).map_err(api_error)?;
    let initial_world = scenario.restricted(
        &disruptions.late_target_ids(),
        scenario.mule_starts().to_vec(),
    );
    let plan = kind.build().plan(&initial_world)?;

    let sim_config = sim_config_for(base);
    let replanner = ReplanWithPlanner::new(kind.build());
    let mut sim = DynamicSimulation::new(&scenario, &plan, &disruptions).with_config(sim_config);
    if !options.no_replan {
        sim = sim.with_replanner(&replanner);
    }
    let result = sim.run_for(base.horizon_s);

    let mut text = format!(
        "dynamic scenario: {} targets, {} mules, seed {}, horizon {:.0} s\n\
         planner: {}  replanning: {}\n\n",
        base.targets,
        base.mules,
        base.seed,
        base.horizon_s,
        plan.planner_name,
        if options.no_replan { "off" } else { "on" },
    );

    text.push_str("timeline:\n");
    if disruptions.is_empty() {
        text.push_str("  (no disruptions)\n");
    }
    for entry in &result.timeline {
        text.push_str(&format!(
            "  t={:>7.0}s  {}\n",
            entry.time_s, entry.description
        ));
    }
    text.push('\n');

    let phases = PhaseDelayReport::from_dynamic(&result);
    text.push_str("per-phase data-collection delay:\n");
    text.push_str(&phases.to_table().render());
    text.push('\n');

    let survivors = result
        .outcome
        .mules
        .iter()
        .filter(|m| m.status.survived())
        .count();
    text.push_str(&format!(
        "visits: {}  replans: {}  events fired: {}\n\
         overall mean delay: {:.1} s  surviving mules: {}/{}\n",
        result.outcome.total_visits(),
        result.replan_count(),
        result.events_fired,
        phases.overall_mean_delay_s(),
        survivors,
        result.outcome.mules.len(),
    ));
    Ok(CommandOutput::text_only(text))
}

/// Translates a disruption preset into the sweep's disruption axis value.
/// The template's seed and horizon are placeholders — the sweep runner
/// reseeds them per replica.
fn preset_to_config(preset: DisruptionPreset, horizon_s: f64) -> Option<DisruptionConfig> {
    match preset {
        DisruptionPreset::None => None,
        DisruptionPreset::Failures => Some(DisruptionConfig::failures_only(0, horizon_s)),
        DisruptionPreset::Breakdowns => Some(DisruptionConfig::breakdowns_only(0, horizon_s)),
        DisruptionPreset::Mixed => Some(DisruptionConfig::default_mixed(0, horizon_s)),
    }
}

fn run_sweep(options: &SweepOptions) -> Result<CommandOutput, CommandError> {
    let base = &options.base.spec;
    let spec = SweepSpec::new(base.scenario_config())
        .with_seeds(options.seeds.clone())
        .with_mule_counts(options.mule_counts.clone())
        .with_speeds(options.speeds.clone())
        .with_disruptions(
            options
                .disruptions
                .iter()
                .map(|&p| preset_to_config(p, base.horizon_s))
                .collect(),
        )
        .with_replicas(options.replicas)
        .with_horizon(base.horizon_s);

    let sim_config = sim_config_for(base);
    let kind = planner_kind(base).map_err(api_error)?;
    let factory = move || kind.build();
    let cells = mule_sim::run_sweep(&factory, &spec, &sim_config, options.workers);
    let report = SweepReport::from_cells(&cells);

    let workers_label = options
        .workers
        .map(|w| w.to_string())
        .unwrap_or_else(|| "auto".to_string());
    let mut text = format!(
        "sweep: {} cells × {} replicas = {} runs\n\
         planner: {}  horizon: {:.0} s  workers: {}\n\n",
        spec.cell_count(),
        spec.replicas,
        spec.run_count(),
        kind.label,
        spec.horizon_s,
        workers_label,
    );
    text.push_str(&report.to_table().render());

    let total_failures: usize = report.cells.iter().map(|c| c.failures).sum();
    if total_failures > 0 {
        text.push_str(&format!(
            "\nwarning: {total_failures} replica(s) failed to plan (see `fail` column)\n"
        ));
    }

    let mut output = CommandOutput::text_only(text);
    if let Some(path) = &options.base.csv_prefix {
        std::fs::write(path, report.to_csv())?;
        output.files_written.push(path.clone());
    }
    Ok(output)
}

/// The tail the bench commands share: print `text`, write the
/// `json` artefact when a path was given, then run `after_write` (the
/// regression gates). Gates run *after* the write so a failing run still
/// leaves the artefact around for diagnosis.
fn report_then_gate(
    text: String,
    json: String,
    json_path: Option<&String>,
    after_write: impl FnOnce(&mut CommandOutput) -> Result<(), CommandError>,
) -> Result<CommandOutput, CommandError> {
    let mut output = CommandOutput::text_only(text);
    if let Some(path) = json_path {
        std::fs::write(path, json)?;
        output.files_written.push(path.clone());
    }
    after_write(&mut output)?;
    Ok(output)
}

/// A failed regression gate: `Err(Check(message()))` when `failed`.
fn gate(failed: bool, message: impl FnOnce() -> String) -> Result<(), CommandError> {
    if failed {
        Err(CommandError::Check(message()))
    } else {
        Ok(())
    }
}

fn run_bench_tours(options: &BenchToursOptions) -> Result<CommandOutput, CommandError> {
    let p = &options.params;
    let report = run_tour_bench(p);
    let text = format!(
        "tour engine benchmark: seed {}  k {}  exact cap {}  samples {}\n\n{}\n\
         per-stage times (one captured run; exp = log-log slope vs the previous size):\n\n{}",
        p.seed,
        p.k,
        p.exact_cap,
        p.samples,
        report.to_table().render(),
        report.to_stage_table().render()
    );
    report_then_gate(
        text,
        report.to_json(),
        options.json_path.as_ref(),
        |output| {
            // One traced candidates run at the largest size feeds `--trace-out`
            // and `--profile`; the timed measurements stay untraced.
            if options.trace_out.is_some() || options.profile {
                let n = p.sizes.iter().copied().max().unwrap_or(200);
                let points = mule_workload::layout::bench_layout(p.seed, n);
                let config = ChbConfig::default().with_search(SearchMode::Candidates(p.k.max(1)));
                let traced = with_tracing(options.trace_out.as_deref(), options.profile, || {
                    mule_graph::construct_circuit_with(&points, &config);
                    Ok(CommandOutput::text_only(String::new()))
                })?;
                output.text.push_str(&traced.text);
                output.files_written.extend(traced.files_written);
            }
            if let (Some(bound), Some(worst)) = (options.max_ratio, report.max_len_ratio()) {
                gate(worst > bound, || {
                    format!("tour-length ratio {worst:.4} exceeds --max-ratio {bound}")
                })?;
            }
            if let Some(bound) = options.max_bytes_per_target {
                let worst = report.max_bytes_per_target();
                gate(worst > bound, || {
                    format!(
                        "matrix-free footprint {worst:.1} bytes/target exceeds \
                         --max-bytes-per-target {bound}"
                    )
                })?;
            }
            if let Some(bound) = options.overhead_gate {
                let ratio = tracing_overhead_ratio(p);
                let line = format!("\ntracing overhead: {ratio:.3}× (gate {bound})\n");
                output.text.push_str(&line);
                gate(ratio > bound, || {
                    format!("tracing overhead {ratio:.3}× exceeds --overhead-gate {bound}")
                })?;
            }
            Ok(())
        },
    )
}

fn run_bench_routes(options: &BenchRoutesOptions) -> Result<CommandOutput, CommandError> {
    let p = &options.params;
    let report = run_route_bench(p);
    let text = format!(
        "road routing benchmark: seed {}  queries {}  landmarks {}\n\n{}",
        p.seed,
        p.queries,
        p.landmarks,
        report.to_table().render()
    );
    report_then_gate(text, report.to_json(), options.json_path.as_ref(), |_| {
        if let (Some(bound), Some(speedup)) = (options.min_speedup, report.largest_alt_speedup()) {
            gate(speedup < bound, || {
                format!("ALT speedup {speedup:.2}× below --min-speedup {bound} at the largest size")
            })?;
        }
        Ok(())
    })
}

/// Maps a service-layer error onto the command error taxonomy.
fn api_error(e: mule_serve::ApiError) -> CommandError {
    match e {
        mule_serve::ApiError::Plan(plan_err) => CommandError::Plan(plan_err),
        mule_serve::ApiError::BadRequest(msg) => CommandError::Check(msg),
    }
}

/// `patrolctl plan`: print the plan-response document for the scenario
/// flags — byte-identical to what a server answers on `POST /v1/plan`
/// for the same spec (the CI smoke job diffs the two).
fn run_plan(options: &CliOptions) -> Result<CommandOutput, CommandError> {
    let json = mule_serve::plan_response_json(&options.spec).map_err(api_error)?;
    Ok(CommandOutput::text_only(json))
}

/// `patrolctl serve`: run the daemon. Blocks until the process is
/// killed. The daemon's stderr carries **structured JSON log lines
/// only** (see `docs/OBSERVABILITY.md`): startup, fault arming, access
/// and slow-request records, breaker transitions — every line one JSON
/// object, so `2>server.log` yields a machine-checkable stream while
/// stdout stays clean for tooling.
fn run_serve(options: &ServeOptions) -> Result<CommandOutput, CommandError> {
    use mule_obs::log::{emit, LogEvent, Severity};
    mule_obs::log::install_stderr(options.log_level);
    if let Some(spec) = &options.fault_plan {
        let plan = mule_fault::FaultPlan::parse(options.fault_seed, spec)
            .map_err(|e| CommandError::Check(format!("--fault-plan: {e}")))?;
        emit(
            LogEvent::new(Severity::Info, "fault.armed")
                .field("plan", plan.to_string())
                .field("seed", options.fault_seed),
        );
        mule_fault::arm(plan);
    }
    let config = &options.config;
    let server = mule_serve::start(config.clone())?;
    emit(
        LogEvent::new(Severity::Info, "serve.listening")
            .field("addr", server.addr().to_string())
            .field("workers", config.workers)
            .field("debug_endpoints", config.debug_endpoints)
            .field("slo", config.slo.is_some()),
    );
    loop {
        std::thread::park();
    }
}

/// The default `chaos` fault plan: every fault kind across the serve
/// registry. The delay is armed once (`#1`), longer than any drill, so
/// its key stays in-flight for the rest of the run — which keeps the
/// firing sequence independent of wall-clock timing (see
/// docs/RELIABILITY.md).
const DEFAULT_CHAOS_PLAN: &str = "serve.plan=delay:60000@1#1,serve.plan=panic@0.12,\
     serve.cache=evict@0.25,serve.conn.read=io@0.06,serve.conn.write=io@0.06";

/// Client-observed tallies plus server-side accounting of one chaos
/// drill.
#[derive(Debug, Default)]
struct DrillOutcome {
    ok_fresh: usize,
    stale: usize,
    gateway_timeout_504: usize,
    unavailable_503: usize,
    server_error_500: usize,
    dropped: usize,
    firings: Vec<mule_fault::Firing>,
}

/// Sends one request on a fresh connection; `None` means the exchange
/// died at the transport level (the connection was dropped). The request
/// carries `Connection: close` so the server visits each connection
/// fault point exactly once per request — a keep-alive continuation
/// would visit `serve.conn.read` again after the response, letting a
/// fault fire where no client request is pending and skewing the
/// drill's accounting.
fn chaos_request(
    addr: &std::net::SocketAddr,
    body: &[u8],
) -> Option<mule_serve::http::ClientResponse> {
    let stream = std::net::TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .ok()?;
    stream.set_nodelay(true).ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut reader = std::io::BufReader::new(stream);
    mule_serve::http::write_request(&mut writer, "POST", "/v1/plan", body, false).ok()?;
    mule_serve::http::read_response(&mut reader).ok()
}

/// Boots a degraded-mode server (optionally with `plan` armed), fires the
/// request schedule serially, and verifies the headline invariant: every
/// response is either byte-identical to the fault-free golden bytes or a
/// well-formed degraded answer attributable to a fired fault. Violations
/// are collected, not panicked, so one drill reports them all.
fn run_chaos_drill(
    options: &ChaosOptions,
    plan: Option<mule_fault::FaultPlan>,
    bodies: &[Vec<u8>],
    expected: &[Vec<u8>],
    violations: &mut Vec<String>,
) -> Result<DrillOutcome, CommandError> {
    let armed = plan.is_some();
    if let Some(plan) = plan {
        mule_fault::arm(plan);
    }
    let config = mule_serve::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        deadline: Some(std::time::Duration::from_millis(options.deadline_ms)),
        degraded: true,
        ..mule_serve::ServerConfig::default()
    };
    let server = mule_serve::start(config)?;
    let addr = server.addr();

    let mut out = DrillOutcome::default();
    for i in 0..options.requests {
        let k = i % bodies.len();
        match chaos_request(&addr, &bodies[k]) {
            None => out.dropped += 1,
            Some(response) => match response.status {
                200 => {
                    if response.body != expected[k] {
                        violations.push(format!(
                            "request {i}: 200 body diverged from the golden bytes \
                             (spec {k}, X-Cache: {})",
                            response.header("x-cache").unwrap_or("?"),
                        ));
                    }
                    if response.header("x-cache") == Some("stale") {
                        out.stale += 1;
                    } else {
                        out.ok_fresh += 1;
                    }
                }
                504 => out.gateway_timeout_504 += 1,
                503 => out.unavailable_503 += 1,
                500 => {
                    out.server_error_500 += 1;
                    if !response.body_text().contains("injected panic") {
                        violations.push(format!(
                            "request {i}: unplanned 500: {}",
                            response.body_text()
                        ));
                    }
                }
                status => violations.push(format!("request {i}: unexpected status {status}")),
            },
        }
    }

    let prometheus = server.metrics_prometheus();
    server.shutdown();
    out.firings = mule_fault::firing_log();
    if armed {
        mule_fault::disarm();
    }

    let fired = |point: &str, kind: &str| -> usize {
        out.firings
            .iter()
            .filter(|f| f.point == point && f.kind == kind)
            .count()
    };
    let read_io = fired("serve.conn.read", "io");
    let write_io = fired("serve.conn.write", "io");
    let delays = fired("serve.plan", "delay");
    let panics = fired("serve.plan", "panic");
    if out.dropped != read_io + write_io {
        violations.push(format!(
            "{} dropped exchanges vs {} injected connection faults",
            out.dropped,
            read_io + write_io
        ));
    }
    if out.gateway_timeout_504 > 0 && delays == 0 {
        violations.push(format!(
            "{} unplanned 504s (no delay fault fired)",
            out.gateway_timeout_504
        ));
    }
    if out.unavailable_503 > 0 {
        violations.push(format!(
            "{} unplanned 503s (no breaker, no backpressure expected)",
            out.unavailable_503
        ));
    }
    if out.server_error_500 > panics {
        violations.push(format!(
            "{} 500s exceed {} injected panics",
            out.server_error_500, panics
        ));
    }
    // Accounting: the server parses every request except the ones a
    // `serve.conn.read` fault dropped before reading, and records exactly
    // one root `request` span per parsed request.
    let counted = |selector: &str| mule_obs::prom::sum(&prometheus, selector).unwrap_or(0.0) as u64;
    let requests_total = counted("mule_requests_total");
    let span_requests = counted("mule_span_total{span=\"request\"}");
    let parsed = (options.requests - read_io) as u64;
    if requests_total != parsed {
        violations.push(format!(
            "request accounting: server counted {requests_total}, expected {parsed} \
             ({} sent − {read_io} read-faulted)",
            options.requests
        ));
    }
    if span_requests != requests_total {
        violations.push(format!(
            "span accounting: {span_requests} request spans vs {requests_total} counted requests"
        ));
    }
    Ok(out)
}

/// `patrolctl chaos`: the self-checking fault-injection drill. Runs the
/// same seeded fault plan twice (the firing sequences must be identical),
/// then once disarmed (every response must be byte-identical to the
/// golden bytes), and fails with `CommandError::Check` on any violation.
fn run_chaos(options: &ChaosOptions) -> Result<CommandOutput, CommandError> {
    mule_fault::silence_injected_panics();
    let plan_spec = options
        .fault_plan
        .clone()
        .unwrap_or_else(|| DEFAULT_CHAOS_PLAN.to_string());
    let plan = mule_fault::FaultPlan::parse(options.seed, &plan_spec)
        .map_err(|e| CommandError::Check(format!("--fault-plan: {e}")))?;

    // The golden bytes, computed offline: what every spec in the pool
    // must answer when a request for it succeeds, faults or not.
    let mut bodies = Vec::new();
    let mut expected = Vec::new();
    for k in 0..options.spec_pool {
        let spec = ScenarioSpec {
            seed: options.base.seed + k as u64,
            ..options.base.clone()
        };
        expected.push(
            mule_serve::plan_response_json(&spec)
                .map_err(api_error)?
                .into_bytes(),
        );
        bodies.push(
            mule_serve::api::spec_to_json(&spec)
                .to_json_string()
                .into_bytes(),
        );
    }

    let mut violations = Vec::new();
    let first = run_chaos_drill(
        options,
        Some(plan.clone()),
        &bodies,
        &expected,
        &mut violations,
    )?;
    let second = run_chaos_drill(options, Some(plan), &bodies, &expected, &mut violations)?;
    if first.firings != second.firings {
        violations.push(format!(
            "firing sequence not reproducible: run 1 fired {} faults, run 2 fired {}",
            first.firings.len(),
            second.firings.len()
        ));
    }

    let calm = run_chaos_drill(options, None, &bodies, &expected, &mut violations)?;
    if !calm.firings.is_empty() {
        violations.push(format!("disarmed run fired {} faults", calm.firings.len()));
    }
    if calm.ok_fresh != options.requests {
        violations.push(format!(
            "disarmed run degraded: {} of {} requests answered 200 fresh",
            calm.ok_fresh, options.requests
        ));
    }

    let mut text = format!(
        "chaos drill: {} requests, seed {}, plan {plan_spec}\n\
         armed:    {} ok, {} stale, {} x504, {} x503, {} x500, {} dropped \
         ({} faults fired)\n\
         rerun:    firing sequence identical ({} firings)\n\
         disarmed: {} ok, 0 faults — byte-identical to the golden bytes\n",
        options.requests,
        options.seed,
        first.ok_fresh,
        first.stale,
        first.gateway_timeout_504,
        first.unavailable_503,
        first.server_error_500,
        first.dropped,
        first.firings.len(),
        second.firings.len(),
        calm.ok_fresh,
    );
    if violations.is_empty() {
        text.push_str("chaos: OK — every response fault-free-identical or well-formed degraded\n");
        Ok(CommandOutput::text_only(text))
    } else {
        Err(CommandError::Check(format!(
            "chaos violations:\n  {}",
            violations.join("\n  ")
        )))
    }
}

/// Runs `f` under a captured trace when `--trace-out` / `--profile` was
/// given, writing the Chrome trace file and/or appending the self-time
/// profile table to the output. The counting allocator is armed around
/// the capture, so the profile's alloc columns are populated and the
/// Chrome trace carries the `heap_peak_live_bytes` counter track. With
/// neither flag the command runs untraced and disarmed, so default
/// output stays byte-identical (the golden tests pin it).
fn with_tracing(
    trace_out: Option<&str>,
    profile: bool,
    f: impl FnOnce() -> Result<CommandOutput, CommandError>,
) -> Result<CommandOutput, CommandError> {
    if trace_out.is_none() && !profile {
        return f();
    }
    mule_obs::alloc::arm();
    let (result, trace) = mule_obs::capture(f);
    mule_obs::alloc::disarm();
    let mut output = result?;
    if profile {
        output.text.push_str("\nself-time profile:\n");
        output
            .text
            .push_str(&mule_obs::FlatProfile::of(&trace).to_table());
    }
    if let Some(path) = trace_out {
        std::fs::write(path, mule_obs::chrome_trace_json(&trace))?;
        output.files_written.push(path.to_string());
    }
    Ok(output)
}

/// Executes a parsed command.
pub fn run_command(command: &CliCommand) -> Result<CommandOutput, CommandError> {
    match command {
        CliCommand::Help => Ok(CommandOutput::text_only(USAGE.to_string())),
        CliCommand::Render(options) => {
            with_tracing(options.trace_out.as_deref(), options.profile, || {
                run_render(options)
            })
        }
        CliCommand::Plan(options) => {
            with_tracing(options.trace_out.as_deref(), options.profile, || {
                run_plan(options)
            })
        }
        CliCommand::Simulate(options) => {
            with_tracing(options.trace_out.as_deref(), options.profile, || {
                run_simulate(options)
            })
        }
        CliCommand::Compare(options) => {
            with_tracing(options.trace_out.as_deref(), options.profile, || {
                run_compare(options)
            })
        }
        CliCommand::Dynamics(options) => with_tracing(
            options.base.trace_out.as_deref(),
            options.base.profile,
            || run_dynamics(options),
        ),
        CliCommand::Sweep(options) => with_tracing(
            options.base.trace_out.as_deref(),
            options.base.profile,
            || run_sweep(options),
        ),
        CliCommand::BenchTours(options) => run_bench_tours(options),
        CliCommand::BenchRoutes(options) => run_bench_routes(options),
        CliCommand::Serve(options) => run_serve(options),
        CliCommand::Chaos(options) => run_chaos(options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_bench::routebench::RouteBenchParams;
    use mule_bench::tourbench::TourBenchParams;

    fn options() -> CliOptions {
        CliOptions {
            spec: ScenarioSpec {
                targets: 8,
                mules: 3,
                seed: 4,
                horizon_s: 15_000.0,
                ..ScenarioSpec::default()
            },
            ..CliOptions::default()
        }
    }

    #[test]
    fn plan_with_profile_appends_self_time_table() {
        let mut opts = options();
        opts.profile = true;
        let out = run_command(&CliCommand::Plan(opts)).unwrap();
        assert!(out.text.contains("self-time profile:"));
        assert!(out.text.contains("planner."));
        // The plan JSON body itself is still present before the profile.
        assert!(out.text.trim_start().starts_with('{'));
    }

    #[test]
    fn plan_with_trace_out_writes_a_chrome_trace_file() {
        let dir = std::env::temp_dir().join("patrolctl_traceout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json").to_string_lossy().into_owned();
        let mut opts = options();
        opts.trace_out = Some(path.clone());
        let out = run_command(&CliCommand::Plan(opts)).unwrap();
        assert!(out.files_written.contains(&path));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"request\"") || body.contains("\"planner."));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_output_is_unchanged_when_tracing_flags_are_off() {
        let traced = {
            let mut opts = options();
            opts.profile = true;
            run_command(&CliCommand::Plan(opts)).unwrap()
        };
        let plain = run_command(&CliCommand::Plan(options())).unwrap();
        assert!(!plain.text.contains("self-time profile:"));
        // The traced run's text starts with exactly the plain output.
        assert!(traced.text.starts_with(&plain.text));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_command(&CliCommand::Help).unwrap();
        assert!(out.text.contains("USAGE"));
        assert!(out.files_written.is_empty());
    }

    #[test]
    fn render_produces_ascii_maps_for_scenario_and_plan() {
        let out = run_command(&CliCommand::Render(options())).unwrap();
        assert!(out.text.contains('S'), "sink marker in the map");
        assert!(out.text.contains("B-TCTP route"));
        assert!(out.text.matches('+').count() >= 4, "two bordered canvases");
    }

    #[test]
    fn simulate_reports_all_metric_sections() {
        let out = run_command(&CliCommand::Simulate(options())).unwrap();
        for needle in [
            "planner: B-TCTP",
            "visiting interval",
            "DCDT",
            "fairness",
            "energy",
        ] {
            assert!(
                out.text.contains(needle),
                "missing `{needle}` in:\n{}",
                out.text
            );
        }
    }

    #[test]
    fn simulate_with_rwtctp_needs_and_gets_a_station() {
        let mut opts = options();
        opts.spec.planner = "rw-tctp".into();
        opts.spec.recharge = true;
        opts.spec.vips = 1;
        let out = run_command(&CliCommand::Simulate(opts)).unwrap();
        assert!(out.text.contains("RW-TCTP"));
        assert!(out.text.contains("fleet survived: true"));
    }

    #[test]
    fn simulate_writes_requested_files() {
        let dir = std::env::temp_dir().join("patrolctl_test_out");
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = options();
        opts.svg_path = Some(dir.join("plan.svg").to_string_lossy().into_owned());
        opts.csv_prefix = Some(dir.join("trace").to_string_lossy().into_owned());
        let out = run_command(&CliCommand::Simulate(opts)).unwrap();
        assert_eq!(out.files_written.len(), 3);
        for f in &out.files_written {
            assert!(std::path::Path::new(f).exists(), "{f} should exist");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_lists_the_baselines_and_tctp() {
        let out = run_command(&CliCommand::Compare(options())).unwrap();
        for planner in ["Random", "Sweep", "CHB", "B-TCTP"] {
            assert!(
                out.text.contains(planner),
                "{planner} missing:\n{}",
                out.text
            );
        }
        // Weighted planners only appear when VIPs are requested.
        assert!(!out.text.contains("W-TCTP"));
        let mut with_vips = options();
        with_vips.spec.vips = 2;
        let out2 = run_command(&CliCommand::Compare(with_vips)).unwrap();
        assert!(out2.text.contains("W-TCTP (shortest)"));
    }

    #[test]
    fn dynamics_reports_timeline_phases_and_summary() {
        let opts = DynamicsOptions {
            base: options(),
            fail_targets: 1,
            breakdowns: 1,
            recover_after_s: Some(4_000.0),
            ..DynamicsOptions::default()
        };
        let out = run_command(&CliCommand::Dynamics(opts)).unwrap();
        for needle in [
            "dynamic scenario",
            "replanning: on",
            "timeline:",
            "fails",
            "breaks down",
            "replan (B-TCTP)",
            "per-phase data-collection delay",
            "mean delay",
            "replans:",
            "surviving mules: 2/3",
        ] {
            assert!(
                out.text.contains(needle),
                "missing `{needle}` in:\n{}",
                out.text
            );
        }
        assert!(out.files_written.is_empty());
    }

    #[test]
    fn dynamics_is_deterministic_across_runs_with_the_same_seed() {
        let opts = DynamicsOptions {
            base: options(),
            fail_targets: 2,
            breakdowns: 1,
            late_targets: 1,
            speed_windows: 1,
            ..DynamicsOptions::default()
        };
        let a = run_command(&CliCommand::Dynamics(opts.clone())).unwrap();
        let b = run_command(&CliCommand::Dynamics(opts.clone())).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same report");
        let mut other_seed = opts;
        other_seed.base.spec.seed = 99;
        let c = run_command(&CliCommand::Dynamics(other_seed)).unwrap();
        assert_ne!(a, c, "a different seed should disrupt differently");
    }

    #[test]
    fn dynamics_without_replanning_still_runs() {
        let opts = DynamicsOptions {
            base: options(),
            no_replan: true,
            ..DynamicsOptions::default()
        };
        let out = run_command(&CliCommand::Dynamics(opts)).unwrap();
        assert!(out.text.contains("replanning: off"));
        assert!(out.text.contains("replans: 0"));
    }

    fn sweep_options() -> SweepOptions {
        SweepOptions {
            base: CliOptions {
                spec: ScenarioSpec {
                    targets: 6,
                    horizon_s: 5_000.0,
                    ..ScenarioSpec::default()
                },
                ..CliOptions::default()
            },
            seeds: vec![1, 2],
            mule_counts: vec![2, 3],
            replicas: 2,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn sweep_prints_one_row_per_cell_with_statistics() {
        let out = run_command(&CliCommand::Sweep(sweep_options())).unwrap();
        assert!(out.text.contains("4 cells × 2 replicas = 8 runs"));
        assert!(out.text.contains("max interval (s)"));
        assert!(out.text.contains('±'), "CI columns present:\n{}", out.text);
        // One table row per cell: seeds {1,2} × mules {2,3}.
        assert_eq!(out.text.matches(" none ").count(), 4, "{}", out.text);
        assert!(out.files_written.is_empty());
    }

    #[test]
    fn sweep_writes_the_results_csv_when_requested() {
        let dir = std::env::temp_dir().join("patrolctl_sweep_test_out");
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = sweep_options();
        let path = dir.join("sweep.csv").to_string_lossy().into_owned();
        opts.base.csv_prefix = Some(path.clone());
        let out = run_command(&CliCommand::Sweep(opts)).unwrap();
        assert_eq!(out.files_written, vec![path.clone()]);
        let csv = std::fs::read_to_string(&path).unwrap();
        assert_eq!(csv.lines().count(), 5, "header + 4 cells:\n{csv}");
        assert!(csv.starts_with("seed,mules,speed_m_per_s"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_with_disruption_axis_reports_replans() {
        let mut opts = sweep_options();
        opts.seeds = vec![1];
        opts.mule_counts = vec![3];
        opts.disruptions = vec![DisruptionPreset::None, DisruptionPreset::Mixed];
        let out = run_command(&CliCommand::Sweep(opts)).unwrap();
        assert!(out.text.contains("2 cells"));
        assert!(
            out.text.contains("fail=1") || out.text.contains("bd=1"),
            "disruption label column:\n{}",
            out.text
        );
    }

    #[test]
    fn sweep_is_deterministic_for_any_worker_count() {
        let mut one = sweep_options();
        one.workers = Some(1);
        let mut many = sweep_options();
        many.workers = Some(4);
        let a = run_command(&CliCommand::Sweep(one)).unwrap();
        let b = run_command(&CliCommand::Sweep(many)).unwrap();
        // The workers line differs; every statistic must not.
        let strip = |t: &str| {
            t.lines()
                .filter(|l| !l.contains("workers:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&a.text), strip(&b.text));
    }

    fn bench_tours_options() -> BenchToursOptions {
        BenchToursOptions {
            params: TourBenchParams {
                sizes: vec![20, 40],
                seed: 5,
                k: 8,
                exact_cap: 40,
                samples: 1,
            },
            ..BenchToursOptions::default()
        }
    }

    #[test]
    fn bench_tours_reports_speedups_and_ratios() {
        let out = run_command(&CliCommand::BenchTours(bench_tours_options())).unwrap();
        assert!(out.text.contains("tour engine benchmark"));
        assert!(out.text.contains("speedup"));
        assert!(out.text.contains("length ratio"));
        assert!(out.files_written.is_empty());
    }

    #[test]
    fn bench_tours_reports_memory_and_stages_and_writes_them_to_json() {
        let out = run_command(&CliCommand::BenchTours(bench_tours_options())).unwrap();
        assert!(out.text.contains("bytes/target"));
        assert!(out.text.contains("chb.hull_insertion (ms)"));
        assert!(out.files_written.is_empty());

        let dir = std::env::temp_dir().join("patrolctl_benchtours_memory_out");
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = bench_tours_options();
        let path = dir.join("BENCH_tours.json").to_string_lossy().into_owned();
        opts.json_path = Some(path.clone());
        let out = run_command(&CliCommand::BenchTours(opts)).unwrap();
        assert_eq!(out.files_written, vec![path.clone()]);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bytes_per_target\": "));
        assert!(json.contains("\"hull_insertion_ms\": "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_tours_writes_the_json_artefact() {
        let dir = std::env::temp_dir().join("patrolctl_benchtours_test_out");
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = bench_tours_options();
        let path = dir.join("BENCH_tours.json").to_string_lossy().into_owned();
        opts.json_path = Some(path.clone());
        let out = run_command(&CliCommand::BenchTours(opts)).unwrap();
        assert_eq!(out.files_written, vec![path.clone()]);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"bench-tours/v3\""));
        assert!(json.contains("\"n\": 20,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_tours_ratio_gate_passes_and_fails() {
        // A generous bound passes …
        let mut opts = bench_tours_options();
        opts.max_ratio = Some(2.0);
        assert!(run_command(&CliCommand::BenchTours(opts)).is_ok());
        // … an impossible bound fails with a Check error (ratios are > 0.9
        // on any real instance).
        let mut opts = bench_tours_options();
        opts.max_ratio = Some(0.5);
        let err = run_command(&CliCommand::BenchTours(opts)).unwrap_err();
        assert!(err.to_string().contains("check failed"), "{err}");
        assert!(err.to_string().contains("--max-ratio"));
    }

    #[test]
    fn bench_tours_bytes_gate_passes_and_fails_after_the_artefact_is_written() {
        // A generous bound passes …
        let mut opts = bench_tours_options();
        opts.max_bytes_per_target = Some(1e12);
        assert!(run_command(&CliCommand::BenchTours(opts)).is_ok());

        // … an impossible footprint bound fails with a Check error, and
        // the artefact is still written before the gate fires.
        let dir = std::env::temp_dir().join("patrolctl_benchtours_gate_out");
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = bench_tours_options();
        let path = dir.join("BENCH_tours.json").to_string_lossy().into_owned();
        opts.json_path = Some(path.clone());
        opts.max_bytes_per_target = Some(1.0);
        let err = run_command(&CliCommand::BenchTours(opts)).unwrap_err();
        assert!(err.to_string().contains("check failed"), "{err}");
        assert!(err.to_string().contains("--max-bytes-per-target"));
        assert!(std::fs::metadata(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn bench_routes_options() -> BenchRoutesOptions {
        BenchRoutesOptions {
            params: RouteBenchParams {
                sizes: vec![100, 400],
                seed: 5,
                queries: 30,
                landmarks: 4,
            },
            ..BenchRoutesOptions::default()
        }
    }

    #[test]
    fn bench_routes_reports_speedups_and_writes_json() {
        let out = run_command(&CliCommand::BenchRoutes(bench_routes_options())).unwrap();
        assert!(out.text.contains("road routing benchmark"));
        assert!(out.text.contains("ALT speedup"));
        assert!(out.files_written.is_empty());

        let dir = std::env::temp_dir().join("patrolctl_benchroutes_test_out");
        std::fs::create_dir_all(&dir).unwrap();
        let mut opts = bench_routes_options();
        let path = dir.join("BENCH_routes.json").to_string_lossy().into_owned();
        opts.json_path = Some(path.clone());
        let out = run_command(&CliCommand::BenchRoutes(opts)).unwrap();
        assert_eq!(out.files_written, vec![path.clone()]);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"bench-routes/v1\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_routes_speedup_gate_passes_and_fails() {
        // An impossible bound fails with a Check error even at tiny sizes…
        let mut opts = bench_routes_options();
        opts.min_speedup = Some(1_000_000.0);
        let err = run_command(&CliCommand::BenchRoutes(opts)).unwrap_err();
        assert!(err.to_string().contains("--min-speedup"), "{err}");
        // …and a trivial bound passes.
        let mut opts = bench_routes_options();
        opts.min_speedup = Some(0.0);
        assert!(run_command(&CliCommand::BenchRoutes(opts)).is_ok());
    }

    #[test]
    fn road_metric_threads_from_flags_to_plans_and_simulations() {
        let mut opts = options();
        opts.spec.metric = mule_workload::MetricSpec::Road(mule_road::RoadNetKind::Grid);
        let out = run_command(&CliCommand::Plan(opts.clone())).unwrap();
        assert!(out.text.contains("\"metric\": \"road-grid\""));
        assert!(out.text.contains("\"path\""), "road geometry in response");
        // Simulate runs end to end over the road world.
        let sim = run_command(&CliCommand::Simulate(opts.clone())).unwrap();
        assert!(sim.text.contains("planner: B-TCTP"));
        // Deterministic.
        assert_eq!(
            run_command(&CliCommand::Plan(opts.clone())).unwrap().text,
            out.text
        );
        // And distinct from the Euclidean plan for the same knobs.
        let euclid = run_command(&CliCommand::Plan(options())).unwrap();
        assert_ne!(euclid.text, out.text);
    }

    #[test]
    fn render_reports_the_road_network_and_its_connectivity() {
        let mut opts = options();
        opts.spec.metric = mule_workload::MetricSpec::Road(mule_road::RoadNetKind::Grid);
        let out = run_command(&CliCommand::Render(opts)).unwrap();
        assert!(out.text.contains("road network (road-grid):"));
        assert!(out.text.contains("patrolled connectivity"));
        assert!(out.text.contains("component(s)"));
        // Euclidean render output carries no road lines.
        let euclid = run_command(&CliCommand::Render(options())).unwrap();
        assert!(!euclid.text.contains("road network"));
    }

    #[test]
    fn every_planner_spelling_plans_the_canonical_spec_bytes() {
        // `--planner <alias>` canonicalises, so the spec echo and every
        // other byte match the service document for the canonical name.
        for kind in &patrol_core::PLANNERS {
            let canonical = ScenarioSpec {
                targets: 12,
                mules: 3,
                seed: 7,
                vips: 2,
                recharge: true,
                planner: kind.name.to_string(),
                ..ScenarioSpec::default()
            };
            let expected = mule_serve::plan_response_json(&canonical).unwrap();
            for spelling in std::iter::once(&kind.name).chain(kind.aliases) {
                let argv: Vec<String> = format!(
                    "plan --targets 12 --mules 3 --seed 7 --vips 2 --recharge --planner {spelling}"
                )
                .split_whitespace()
                .map(String::from)
                .collect();
                let command = crate::args::parse_args(&argv).unwrap();
                let CliCommand::Plan(opts) = &command else {
                    panic!("expected plan")
                };
                assert_eq!(opts.spec.planner, kind.name, "{spelling}");
                let out = run_command(&command).unwrap();
                assert_eq!(out.text, expected, "{spelling}");
            }
        }
    }

    #[test]
    fn plan_prints_the_service_response_document() {
        let out = run_command(&CliCommand::Plan(options())).unwrap();
        assert!(out.files_written.is_empty());
        // Byte-identical to the service-layer computation for the same
        // spec — the contract the CI smoke job diffs over HTTP.
        let expected = mule_serve::plan_response_json(&options().spec).unwrap();
        assert_eq!(out.text, expected);
        assert!(out.text.contains("\"schema\": \"plan-response/v1\""));
        assert!(out.text.ends_with('\n'));

        let mut bad = options();
        bad.spec.mules = 0;
        let err = run_command(&CliCommand::Plan(bad)).unwrap_err();
        assert!(err.to_string().contains("planning failed"));
    }

    #[test]
    fn planning_errors_surface_as_command_errors() {
        let mut opts = options();
        opts.spec.mules = 0;
        let err = run_command(&CliCommand::Simulate(opts)).unwrap_err();
        assert!(err.to_string().contains("planning failed"));
    }
}
