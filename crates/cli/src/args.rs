//! Command-line argument parsing for `patrolctl`.
//!
//! Hand-rolled (no external parser crates): flags are `--name value` pairs
//! after a leading subcommand. Unknown flags and malformed values are
//! reported as [`CliError`]s with a human-readable message.

use mule_serve::ServerConfig;
use mule_workload::ScenarioSpec;
use patrol_core::PlannerKind;
use std::fmt;
use std::time::Duration;

/// Resolves a `--planner` value through the planner table to its canonical
/// name, so `--planner balancing` and `--planner w-tctp-balancing` put the
/// same spec on the wire.
fn parse_planner(value: &str) -> Result<String, CliError> {
    match PlannerKind::lookup(value) {
        Some(kind) => Ok(kind.name.to_string()),
        None => Err(CliError::InvalidValue {
            flag: "--planner".into(),
            value: value.to_ascii_lowercase(),
        }),
    }
}

/// Parses a `--metric` value (case-insensitive; `road` aliases the grid
/// network).
fn parse_metric(value: &str) -> Result<mule_workload::MetricSpec, CliError> {
    mule_workload::MetricSpec::parse(value).ok_or_else(|| CliError::InvalidValue {
        flag: "--metric".into(),
        value: value.into(),
    })
}

/// Scenario + execution options shared by every scenario subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// The scenario and planner to run: the same request type `serve`
    /// answers, with the planner name canonicalised.
    pub spec: ScenarioSpec,
    /// Optional SVG output path (`simulate`).
    pub svg_path: Option<String>,
    /// Optional CSV output: trace prefix (`simulate`) or results file
    /// (`sweep`).
    pub csv_prefix: Option<String>,
    /// ASCII canvas width (`render`).
    pub canvas_width: usize,
    /// Optional path of a Chrome `trace_event` JSON file to write the
    /// run's span trace to (loadable in `about:tracing` / Perfetto).
    pub trace_out: Option<String>,
    /// Append a self-time profile table to the command's output.
    pub profile: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            spec: ScenarioSpec::default(),
            svg_path: None,
            csv_prefix: None,
            canvas_width: 72,
            trace_out: None,
            profile: false,
        }
    }
}

/// Options of the `bench-tours` subcommand (the tracked tour-engine
/// benchmark; see `docs/PERFORMANCE.md`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchToursOptions {
    /// The suite's parameters (sizes, seed, k, exact cap, samples).
    pub params: mule_bench::tourbench::TourBenchParams,
    /// Optional path of the JSON artefact to write (`BENCH_tours.json`).
    pub json_path: Option<String>,
    /// When set, the command fails if any measured tour-length ratio
    /// (candidates / exact) exceeds this bound — the CI regression gate.
    pub max_ratio: Option<f64>,
    /// When set, the command fails if the peak live bytes per target
    /// exceed this bound at any size — the CI regression gate for the
    /// million-target memory budget.
    pub max_bytes_per_target: Option<f64>,
    /// When set, the command fails if the traced/untraced wall-clock
    /// ratio of the candidates pipeline exceeds this bound — the CI gate
    /// keeping span collection cheap (tracked bound: 1.05).
    pub overhead_gate: Option<f64>,
    /// Optional path of a Chrome `trace_event` JSON of one traced
    /// candidates run at the largest size.
    pub trace_out: Option<String>,
    /// Append a self-time profile table of that traced run to the output.
    pub profile: bool,
}

/// Options of the `bench-routes` subcommand (the tracked road-routing
/// benchmark; see `docs/ROADS.md`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRoutesOptions {
    /// The suite's parameters (sizes, seed, queries, landmarks).
    pub params: mule_bench::routebench::RouteBenchParams,
    /// Optional path of the JSON artefact to write (`BENCH_routes.json`).
    pub json_path: Option<String>,
    /// When set, the command fails if the largest network's ALT speedup
    /// over plain Dijkstra falls below this bound — the CI regression
    /// gate for the tracked "ALT ≥ 3× Dijkstra at 10k nodes" claim.
    pub min_speedup: Option<f64>,
}

/// Disruption knobs of the `dynamics` subcommand, on top of the shared
/// scenario options.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsOptions {
    /// Scenario + execution options shared with the other subcommands.
    pub base: CliOptions,
    /// How many targets fail mid-run.
    pub fail_targets: usize,
    /// When set, failed targets recover this many seconds after failing.
    pub recover_after_s: Option<f64>,
    /// How many targets arrive late.
    pub late_targets: usize,
    /// How many mules break down.
    pub breakdowns: usize,
    /// How many reduced-speed windows to open.
    pub speed_windows: usize,
    /// Speed multiplier inside each window.
    pub speed_factor: f64,
    /// Disable online replanning (disruptions still apply).
    pub no_replan: bool,
}

impl Default for DynamicsOptions {
    fn default() -> Self {
        DynamicsOptions {
            base: CliOptions::default(),
            fail_targets: 1,
            recover_after_s: None,
            late_targets: 0,
            breakdowns: 1,
            speed_windows: 0,
            speed_factor: 0.5,
            no_replan: false,
        }
    }
}

/// A named disruption preset of the `sweep` disruption axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisruptionPreset {
    /// Static run (no disruptions).
    None,
    /// Target failures with recovery (`DisruptionConfig::failures_only`).
    Failures,
    /// A single mule breakdown (`DisruptionConfig::breakdowns_only`).
    Breakdowns,
    /// One of everything (`DisruptionConfig::default_mixed`).
    Mixed,
}

impl DisruptionPreset {
    /// Parses a preset name (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "static" => Ok(DisruptionPreset::None),
            "failures" | "fail" => Ok(DisruptionPreset::Failures),
            "breakdowns" | "breakdown" => Ok(DisruptionPreset::Breakdowns),
            "mixed" => Ok(DisruptionPreset::Mixed),
            other => Err(CliError::InvalidValue {
                flag: "--disruptions".into(),
                value: other.into(),
            }),
        }
    }
}

impl std::str::FromStr for DisruptionPreset {
    type Err = CliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DisruptionPreset::parse(s)
    }
}

/// Grid axes and execution knobs of the `sweep` subcommand, on top of the
/// shared scenario options.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Scenario + execution options shared with the other subcommands
    /// (`--seed` / `--mules` seed the default axes; `--horizon` is the
    /// per-replica horizon; `--csv` names the results CSV).
    pub base: CliOptions,
    /// Seed axis (defaults to `[--seed]`).
    pub seeds: Vec<u64>,
    /// Fleet-size axis (defaults to `[--mules]`).
    pub mule_counts: Vec<usize>,
    /// Speed axis in m/s (defaults to the paper's 2 m/s).
    pub speeds: Vec<f64>,
    /// Disruption axis (defaults to `[none]`).
    pub disruptions: Vec<DisruptionPreset>,
    /// Replications per cell.
    pub replicas: usize,
    /// Worker-pool size override (`None` = auto: `MULE_PAR_WORKERS` or all
    /// cores).
    pub workers: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        let base = CliOptions::default();
        SweepOptions {
            seeds: vec![base.spec.seed],
            mule_counts: vec![base.spec.mules],
            speeds: vec![mule_workload::PAPER_SPEED_M_PER_S],
            disruptions: vec![DisruptionPreset::None],
            replicas: 8,
            workers: None,
            base,
        }
    }
}

/// Options of the `serve` subcommand (the `mule-serve` daemon).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// The daemon's configuration (address, workers, cache, admission,
    /// deadlines, breakers, telemetry).
    pub config: ServerConfig,
    /// Fault plan to arm at startup (`point=kind[@prob][#limit],...`).
    pub fault_plan: Option<String>,
    /// Seed of the armed fault plan's firing decisions.
    pub fault_seed: u64,
    /// Minimum severity of the structured stderr log.
    pub log_level: mule_obs::log::Severity,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            config: ServerConfig::default(),
            fault_plan: None,
            fault_seed: 7,
            log_level: mule_obs::log::Severity::Info,
        }
    }
}

/// Options of the `chaos` subcommand (the self-checking fault-injection
/// drill; see docs/RELIABILITY.md).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Seed of the fault plan's firing decisions (same seed, same faults).
    pub seed: u64,
    /// Requests fired serially at the in-process server.
    pub requests: usize,
    /// Distinct scenario specs rotated through.
    pub spec_pool: usize,
    /// Base spec; spec *k* of the pool uses `base.seed + k`.
    pub base: ScenarioSpec,
    /// Fault plan override (`point=kind[@prob][#limit],...`); the default
    /// mixes panics, delays, evictions and connection faults.
    pub fault_plan: Option<String>,
    /// Per-request compute deadline of the drilled server, milliseconds.
    pub deadline_ms: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 7,
            requests: 40,
            spec_pool: 4,
            base: ScenarioSpec::default(),
            fault_plan: None,
            deadline_ms: 800,
        }
    }
}

/// A parsed `patrolctl` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// Print usage information.
    Help,
    /// Render the scenario and the planned route as ASCII art.
    Render(CliOptions),
    /// Print the plan-response JSON for a scenario — byte-identical to
    /// what `serve` answers on `POST /v1/plan` for the same spec.
    Plan(CliOptions),
    /// Simulate one planner and print its metric reports.
    Simulate(CliOptions),
    /// Run every planner on the same scenario and print a comparison table.
    Compare(CliOptions),
    /// Run a seeded disruption scenario with online replanning and print
    /// the per-phase delay summary.
    Dynamics(DynamicsOptions),
    /// Run a parallel replication sweep over a parameter grid and print
    /// the aggregated statistics table.
    Sweep(SweepOptions),
    /// Benchmark the tour engine (exact vs. candidate-list search, memory
    /// and per-stage times) and optionally write the tracked
    /// `BENCH_tours.json` artefact.
    BenchTours(BenchToursOptions),
    /// Benchmark road routing (Dijkstra vs. A* vs. ALT) and optionally
    /// write the tracked `BENCH_routes.json` artefact.
    BenchRoutes(BenchRoutesOptions),
    /// Run the planning service daemon (blocks forever).
    Serve(ServeOptions),
    /// Run the self-checking fault-injection drill: boot an in-process
    /// server with an armed fault plan and verify every degraded response
    /// is well-formed, every success byte-identical, and the firing
    /// sequence reproducible.
    Chaos(ChaosOptions),
}

/// Errors produced by the argument parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not recognised.
    UnknownCommand(String),
    /// A flag is not recognised.
    UnknownFlag(String),
    /// A flag is missing its value.
    MissingValue(String),
    /// A flag's value could not be parsed.
    InvalidValue {
        /// The offending flag.
        flag: String,
        /// The value that failed to parse.
        value: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing subcommand (try `patrolctl help`)"),
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` is missing a value"),
            CliError::InvalidValue { flag, value } => {
                write!(f, "invalid value `{value}` for flag `{flag}`")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text printed by `patrolctl help`.
pub const USAGE: &str = "\
patrolctl — data-mule patrolling toolkit (B-TCTP / W-TCTP / RW-TCTP)

USAGE:
    patrolctl <render|plan|simulate|compare|dynamics|sweep|bench-tours|bench-routes|serve|chaos|help> [flags]

FLAGS (scenario subcommands):
    --targets N        number of targets               [default: 10]
    --mules N          number of data mules            [default: 4]
    --seed S           scenario seed                   [default: 1]
    --vips N           number of VIP targets           [default: 0]
    --vip-weight W     weight of each VIP              [default: 2]
    --recharge         add a recharge station
    --planner P        b-tctp | shortest | balancing | rw-tctp | chb | sweep | random
    --metric M         travel metric: euclidean | road | road-grid | road-planar
                       (road scenarios snap targets/sink to the network and
                       plan + simulate over shortest road paths)
    --horizon SECONDS  simulation horizon              [default: 40000]
    --svg FILE         write the plan as an SVG file   (simulate)
    --csv PREFIX       write visit/mule CSV traces     (simulate)
    --width CHARS      ASCII canvas width (render)     [default: 72]
    --trace-out FILE   write the run's span trace as Chrome trace_event
                       JSON (open in about:tracing or ui.perfetto.dev)
    --profile          append a per-span self-time profile table

FLAGS (dynamics only — all disruptions are seeded by --seed):
    --fail-targets N     targets failing mid-run        [default: 1]
    --recover-after S    failed targets recover after S seconds
    --late-targets N     targets arriving late          [default: 0]
    --breakdowns N       mules breaking down            [default: 1]
    --speed-windows N    reduced-speed windows          [default: 0]
    --speed-factor F     speed multiplier in windows    [default: 0.5]
    --no-replan          keep the initial plan through every disruption

FLAGS (sweep only — the grid is the cartesian product of the axes):
    --seeds LIST         seed axis, comma-separated     [default: --seed]
    --mule-counts LIST   fleet-size axis                [default: --mules]
    --speeds LIST        mule speed axis, m/s           [default: 2]
    --disruptions LIST   none | failures | breakdowns | mixed  [default: none]
    --replicas N         replications per cell          [default: 8]
    --workers N          worker threads (default: MULE_PAR_WORKERS or all cores)
    --csv FILE           write the aggregated statistics as CSV

FLAGS (serve only — the planning-service daemon, see docs/SERVER.md):
    --addr HOST:PORT     bind address                   [default: 127.0.0.1:7878]
    --workers N          connection-handler threads     [default: 4]
    --cache-size N       plan-cache entries (0 = off)   [default: 128]
    --queue-depth N      concurrent connections before 503  [default: 64]
    --slow-ms MS         emit a serve.slow_request log event for requests
                         slower than MS ms (trace-id correlated; off by default)
    --deadline-ms MS     per-request read/compute deadline (504 beyond it)
    --breaker K          open a route after K consecutive compute
                         panics/timeouts (fast 503 until the probe closes it)
    --breaker-cooldown-ms MS   cooldown before the half-open probe [default: 1000]
    --degraded           serve last-good (stale) bytes instead of 5xx
                         where possible (X-Cache: stale)
    --fault-plan SPEC    arm a fault plan: point=kind[@prob][#limit],...
                         (kinds: delay:MS | panic | io | evict; see
                         docs/RELIABILITY.md for the fault-point registry)
    --fault-seed S       seed of the plan's firing decisions [default: 7]
    --debug-endpoints    expose the read-only GET /debug/* introspection
                         endpoints (traces, requests, profile, alloc,
                         events; see docs/SERVER.md)
    --trace-sample R     keep this fraction of request traces in the debug
                         ring (0..=1, deterministic head sampling; slow and
                         5xx requests always kept)  [default: 0.01]
    --slo SPEC           track SLO burn rates on /metrics:
                         p99_ms=MS,availability=PCT (either optional)
    --log-level L        structured-log stderr severity floor:
                         debug | info | warn | error   [default: info]

FLAGS (chaos only — the self-checking fault-injection drill):
    --seed S             fault-plan seed: same seed, same firing sequence
                         [default: 7]
    --requests N         serial requests against the drilled server [default: 40]
    --spec-pool K        distinct specs rotated through [default: 4]
    --targets/--mules/--planner   base spec (as above)
    --fault-plan SPEC    override the default mixed fault plan
    --deadline-ms MS     compute deadline of the drilled server [default: 800]

FLAGS (bench-tours only — the tracked tour-engine benchmark):
    --sizes LIST         instance sizes                 [default: 50,200,1000,5000]
    --seed S             topology seed                  [default: 42]
    --knn K              candidate-list width           [default: 10]
    --exact-cap N        largest size timing the exact pipeline  [default: 1000]
    --samples N          timed repetitions (min is kept) [default: 3]
    --json FILE          write the benchmark report as JSON
    --max-ratio R        fail when candidates/exact tour length exceeds R
    --max-bytes-per-target B   fail when peak live bytes per target
                         exceed B at any size
    --overhead-gate R    fail when tracing overhead (traced/untraced time
                         at the largest size) exceeds R   (CI pins 1.05)
    --trace-out FILE     write a Chrome trace of one traced candidates run
    --profile            append that run's self-time profile table

FLAGS (bench-routes only — the tracked road-routing benchmark):
    --sizes LIST         network node counts            [default: 1000,10000]
    --seed S             network + query seed           [default: 42]
    --queries N          point-to-point queries per flavour  [default: 200]
    --landmarks K        ALT landmark count             [default: 8]
    --json FILE          write the benchmark report as JSON (BENCH_routes.json)
    --min-speedup R      fail when ALT speedup over Dijkstra falls below R
                         at the largest network size
    (bench gates fail *after* the artefact is written)

EXAMPLES:
    patrolctl dynamics --targets 12 --mules 4 --seed 7 \\
        --fail-targets 1 --breakdowns 1 --recover-after 8000
    patrolctl sweep --targets 12 --seeds 1,2,3,4 --mule-counts 2,4 \\
        --disruptions none,mixed --replicas 20 --csv sweep.csv
    patrolctl bench-tours --sizes 50,200,1000 --json BENCH_tours.json \\
        --max-ratio 1.02
    patrolctl plan --targets 12 --mules 3 --metric road
    patrolctl bench-routes --sizes 1000,10000 --json BENCH_routes.json \\
        --min-speedup 3.0
    patrolctl bench-tours --sizes 2000,20000 --samples 2 \\
        --max-bytes-per-target 1024
    patrolctl serve --addr 127.0.0.1:7878 --workers 4 --cache-size 128
    patrolctl serve --deadline-ms 500 --breaker 3 --degraded
    patrolctl serve --debug-endpoints --slo p99_ms=250,availability=99.9
    patrolctl chaos --seed 7 --requests 40
";

fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value.parse::<T>().map_err(|_| CliError::InvalidValue {
        flag: flag.to_string(),
        value: value.to_string(),
    })
}

/// Parses a non-empty comma-separated list ("1,2,3").
fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, CliError> {
    let items: Vec<T> = value
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| parse_flag(flag, p))
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(CliError::InvalidValue {
            flag: flag.to_string(),
            value: value.to_string(),
        });
    }
    Ok(items)
}

/// The flag loop every subcommand shares: hands each flag to `apply`
/// together with a closure that takes the flag's value.
fn parse_flags(
    args: &[String],
    mut apply: impl FnMut(&str, &mut dyn FnMut() -> Result<String, CliError>) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| CliError::MissingValue(flag.clone()))
        };
        apply(flag, &mut value)?;
    }
    Ok(())
}

/// Parses the flags of `bench-tours`.
fn parse_bench_tours(args: &[String]) -> Result<CliCommand, CliError> {
    let mut o = BenchToursOptions::default();
    parse_flags(args, |flag, take_value| {
        match flag {
            "--sizes" => o.params.sizes = parse_list(flag, &take_value()?)?,
            "--seed" => o.params.seed = parse_flag(flag, &take_value()?)?,
            "--knn" => o.params.k = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--exact-cap" => o.params.exact_cap = parse_flag(flag, &take_value()?)?,
            "--samples" => o.params.samples = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--json" => o.json_path = Some(take_value()?),
            "--max-ratio" => o.max_ratio = Some(parse_flag(flag, &take_value()?)?),
            "--max-bytes-per-target" => {
                o.max_bytes_per_target = Some(parse_flag(flag, &take_value()?)?)
            }
            "--overhead-gate" => o.overhead_gate = Some(parse_flag(flag, &take_value()?)?),
            "--trace-out" => o.trace_out = Some(take_value()?),
            "--profile" => o.profile = true,
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    })?;
    Ok(CliCommand::BenchTours(o))
}

/// Parses the flags of `bench-routes`.
fn parse_bench_routes(args: &[String]) -> Result<CliCommand, CliError> {
    let mut o = BenchRoutesOptions::default();
    parse_flags(args, |flag, take_value| {
        match flag {
            "--sizes" => o.params.sizes = parse_list(flag, &take_value()?)?,
            "--seed" => o.params.seed = parse_flag(flag, &take_value()?)?,
            "--queries" => o.params.queries = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--landmarks" => o.params.landmarks = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--json" => o.json_path = Some(take_value()?),
            "--min-speedup" => o.min_speedup = Some(parse_flag(flag, &take_value()?)?),
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    })?;
    Ok(CliCommand::BenchRoutes(o))
}

/// Parses an `--slo` objective spec via [`mule_obs::SloSpec::parse`].
fn parse_slo(flag: &str, value: &str) -> Result<mule_obs::SloSpec, CliError> {
    mule_obs::SloSpec::parse(value).map_err(|_| CliError::InvalidValue {
        flag: flag.to_string(),
        value: value.to_string(),
    })
}

/// Parses a `--log-level` severity name.
fn parse_log_level(flag: &str, value: &str) -> Result<mule_obs::log::Severity, CliError> {
    mule_obs::log::Severity::parse(value).ok_or_else(|| CliError::InvalidValue {
        flag: flag.to_string(),
        value: value.to_string(),
    })
}

/// Parses the flags of `serve`.
fn parse_serve(args: &[String]) -> Result<CliCommand, CliError> {
    let mut options = ServeOptions::default();
    let c = &mut options.config;
    let millis = |flag: &str, value: &str| -> Result<Duration, CliError> {
        Ok(Duration::from_millis(
            parse_flag::<u64>(flag, value)?.max(1),
        ))
    };
    parse_flags(args, |flag, take_value| {
        match flag {
            "--addr" => c.addr = take_value()?,
            "--workers" => c.workers = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--cache-size" => c.cache_capacity = parse_flag(flag, &take_value()?)?,
            "--queue-depth" => c.queue_depth = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--slow-ms" => c.slow_request_ms = Some(parse_flag(flag, &take_value()?)?),
            "--deadline-ms" => c.deadline = Some(millis(flag, &take_value()?)?),
            "--breaker" => {
                c.breaker_threshold = Some(parse_flag::<usize>(flag, &take_value()?)?.max(1))
            }
            "--breaker-cooldown-ms" => c.breaker_cooldown = millis(flag, &take_value()?)?,
            "--degraded" => c.degraded = true,
            "--fault-plan" => options.fault_plan = Some(take_value()?),
            "--fault-seed" => options.fault_seed = parse_flag(flag, &take_value()?)?,
            "--debug-endpoints" => c.debug_endpoints = true,
            "--trace-sample" => {
                let value = take_value()?;
                let rate = parse_flag::<f64>(flag, &value)?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(CliError::InvalidValue {
                        flag: flag.to_string(),
                        value,
                    });
                }
                c.trace_sample_rate = rate;
            }
            "--slo" => c.slo = Some(parse_slo(flag, &take_value()?)?),
            "--log-level" => options.log_level = parse_log_level(flag, &take_value()?)?,
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    })?;
    Ok(CliCommand::Serve(options))
}

/// Parses the flags of `chaos`.
fn parse_chaos(args: &[String]) -> Result<CliCommand, CliError> {
    let mut options = ChaosOptions::default();
    parse_flags(args, |flag, take_value| {
        match flag {
            "--seed" => options.seed = parse_flag(flag, &take_value()?)?,
            "--requests" => options.requests = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--spec-pool" => options.spec_pool = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--targets" => options.base.targets = parse_flag(flag, &take_value()?)?,
            "--mules" => options.base.mules = parse_flag(flag, &take_value()?)?,
            "--planner" => options.base.planner = parse_planner(&take_value()?)?,
            "--fault-plan" => options.fault_plan = Some(take_value()?),
            "--deadline-ms" => {
                options.deadline_ms = parse_flag::<u64>(flag, &take_value()?)?.max(1)
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    })?;
    Ok(CliCommand::Chaos(options))
}

/// Parses the argument list (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<CliCommand, CliError> {
    let command = args.first().ok_or(CliError::MissingCommand)?;
    let flags = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => return Ok(CliCommand::Help),
        "bench-tours" => return parse_bench_tours(flags),
        "bench-routes" => return parse_bench_routes(flags),
        "serve" => return parse_serve(flags),
        "chaos" => return parse_chaos(flags),
        _ => {}
    }
    let is_dynamics = command == "dynamics";
    let is_sweep = command == "sweep";
    let is_simulate = command == "simulate";
    let is_render = command == "render";

    let mut options = CliOptions::default();
    let mut dynamics = DynamicsOptions::default();
    let mut sweep = SweepOptions::default();
    // Axes default to the shared `--seed` / `--mules` values unless given
    // explicitly; resolved after the flag loop.
    let mut sweep_seeds: Option<Vec<u64>> = None;
    let mut sweep_mule_counts: Option<Vec<usize>> = None;
    let spec = &mut options.spec;
    parse_flags(flags, |flag, take_value| {
        match flag {
            "--targets" => spec.targets = parse_flag(flag, &take_value()?)?,
            "--mules" => spec.mules = parse_flag(flag, &take_value()?)?,
            "--seed" => spec.seed = parse_flag(flag, &take_value()?)?,
            "--vips" => spec.vips = parse_flag(flag, &take_value()?)?,
            "--vip-weight" => spec.vip_weight = parse_flag(flag, &take_value()?)?,
            "--horizon" => spec.horizon_s = parse_flag(flag, &take_value()?)?,
            "--planner" => spec.planner = parse_planner(&take_value()?)?,
            "--metric" => spec.metric = parse_metric(&take_value()?)?,
            "--recharge" => spec.recharge = true,
            "--width" if is_render => options.canvas_width = parse_flag(flag, &take_value()?)?,
            "--svg" if is_simulate => options.svg_path = Some(take_value()?),
            "--csv" if is_simulate || is_sweep => options.csv_prefix = Some(take_value()?),
            "--trace-out" => options.trace_out = Some(take_value()?),
            "--profile" => options.profile = true,
            "--fail-targets" if is_dynamics => {
                dynamics.fail_targets = parse_flag(flag, &take_value()?)?
            }
            "--recover-after" if is_dynamics => {
                dynamics.recover_after_s = Some(parse_flag(flag, &take_value()?)?)
            }
            "--late-targets" if is_dynamics => {
                dynamics.late_targets = parse_flag(flag, &take_value()?)?
            }
            "--breakdowns" if is_dynamics => {
                dynamics.breakdowns = parse_flag(flag, &take_value()?)?
            }
            "--speed-windows" if is_dynamics => {
                dynamics.speed_windows = parse_flag(flag, &take_value()?)?
            }
            "--speed-factor" if is_dynamics => {
                dynamics.speed_factor = parse_flag(flag, &take_value()?)?
            }
            "--no-replan" if is_dynamics => dynamics.no_replan = true,
            "--seeds" if is_sweep => sweep_seeds = Some(parse_list(flag, &take_value()?)?),
            "--mule-counts" if is_sweep => {
                sweep_mule_counts = Some(parse_list(flag, &take_value()?)?)
            }
            "--speeds" if is_sweep => sweep.speeds = parse_list(flag, &take_value()?)?,
            "--disruptions" if is_sweep => sweep.disruptions = parse_list(flag, &take_value()?)?,
            "--replicas" if is_sweep => sweep.replicas = parse_flag(flag, &take_value()?)?,
            "--workers" if is_sweep => {
                sweep.workers = Some(parse_flag::<usize>(flag, &take_value()?)?).filter(|&n| n > 0)
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    })?;

    // RW-TCTP needs a recharge station; turn it on implicitly so the obvious
    // invocation works.
    if options.spec.planner == "rw-tctp" {
        options.spec.recharge = true;
    }

    match command.as_str() {
        "render" => Ok(CliCommand::Render(options)),
        "plan" => Ok(CliCommand::Plan(options)),
        "simulate" => Ok(CliCommand::Simulate(options)),
        "compare" => Ok(CliCommand::Compare(options)),
        "dynamics" => {
            dynamics.base = options;
            Ok(CliCommand::Dynamics(dynamics))
        }
        "sweep" => {
            sweep.seeds = sweep_seeds.unwrap_or_else(|| vec![options.spec.seed]);
            sweep.mule_counts = sweep_mule_counts.unwrap_or_else(|| vec![options.spec.mules]);
            sweep.base = options;
            Ok(CliCommand::Sweep(sweep))
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_missing_command() {
        assert_eq!(parse_args(&argv("help")).unwrap(), CliCommand::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), CliCommand::Help);
        assert_eq!(parse_args(&[]).unwrap_err(), CliError::MissingCommand);
        assert!(matches!(
            parse_args(&argv("frobnicate")).unwrap_err(),
            CliError::UnknownCommand(_)
        ));
    }

    #[test]
    fn defaults_apply_when_no_flags_given() {
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate")).unwrap() else {
            panic!("expected simulate");
        };
        assert_eq!(opts, CliOptions::default());
    }

    #[test]
    fn flags_override_defaults() {
        let cmd = parse_args(&argv(
            "simulate --targets 25 --mules 6 --seed 9 --vips 3 --vip-weight 4 \
             --planner balancing --horizon 12345 --recharge",
        ))
        .unwrap();
        let CliCommand::Simulate(opts) = cmd else {
            panic!()
        };
        let spec = &opts.spec;
        assert_eq!(spec.targets, 25);
        assert_eq!(spec.mules, 6);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.vips, 3);
        assert_eq!(spec.vip_weight, 4);
        assert_eq!(spec.planner, "w-tctp-balancing");
        assert_eq!(spec.horizon_s, 12345.0);
        assert!(spec.recharge);
    }

    #[test]
    fn planner_names_parse_case_insensitively_to_canonical_names() {
        assert_eq!(parse_planner("B-TCTP").unwrap(), "b-tctp");
        assert_eq!(parse_planner("ChB").unwrap(), "chb");
        assert_eq!(parse_planner("RWTCTP").unwrap(), "rw-tctp");
        assert_eq!(
            parse_planner("Nonsense").unwrap_err(),
            CliError::InvalidValue {
                flag: "--planner".into(),
                value: "nonsense".into()
            }
        );
    }

    #[test]
    fn rw_tctp_implies_a_recharge_station() {
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate --planner rw-tctp")).unwrap()
        else {
            panic!()
        };
        assert!(opts.spec.recharge);
    }

    #[test]
    fn malformed_and_unknown_flags_are_reported() {
        assert!(matches!(
            parse_args(&argv("render --bogus 1")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse_args(&argv("render --targets")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        assert!(matches!(
            parse_args(&argv("render --targets abc")).unwrap_err(),
            CliError::InvalidValue { .. }
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(CliError::MissingCommand.to_string().contains("subcommand"));
        assert!(CliError::UnknownFlag("--x".into())
            .to_string()
            .contains("--x"));
        assert!(CliError::InvalidValue {
            flag: "--targets".into(),
            value: "abc".into()
        }
        .to_string()
        .contains("abc"));
        assert!(USAGE.contains("patrolctl"));
    }

    #[test]
    fn dynamics_defaults_apply_when_no_flags_given() {
        let CliCommand::Dynamics(opts) = parse_args(&argv("dynamics")).unwrap() else {
            panic!("expected dynamics");
        };
        assert_eq!(opts, DynamicsOptions::default());
        assert_eq!(opts.fail_targets, 1);
        assert_eq!(opts.breakdowns, 1);
        assert_eq!(opts.late_targets, 0);
        assert!(opts.recover_after_s.is_none());
        assert!(!opts.no_replan);
    }

    #[test]
    fn dynamics_flags_parse_alongside_shared_flags() {
        let cmd = parse_args(&argv(
            "dynamics --targets 12 --mules 5 --seed 9 --fail-targets 2 \
             --recover-after 8000 --late-targets 1 --breakdowns 2 \
             --speed-windows 1 --speed-factor 0.25 --no-replan",
        ))
        .unwrap();
        let CliCommand::Dynamics(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.base.spec.targets, 12);
        assert_eq!(opts.base.spec.mules, 5);
        assert_eq!(opts.base.spec.seed, 9);
        assert_eq!(opts.fail_targets, 2);
        assert_eq!(opts.recover_after_s, Some(8000.0));
        assert_eq!(opts.late_targets, 1);
        assert_eq!(opts.breakdowns, 2);
        assert_eq!(opts.speed_windows, 1);
        assert_eq!(opts.speed_factor, 0.25);
        assert!(opts.no_replan);
    }

    #[test]
    fn subcommand_scoped_flags_are_rejected_elsewhere() {
        for (cmdline, flag) in [
            ("simulate --fail-targets 2", "--fail-targets"),
            ("render --no-replan", "--no-replan"),
            // Output flags only exist where the command writes them.
            ("plan --svg x.svg", "--svg"),
            ("render --svg x.svg", "--svg"),
            ("sweep --svg x.svg", "--svg"),
            ("plan --width 80", "--width"),
            ("simulate --width 80", "--width"),
            ("plan --csv out", "--csv"),
            ("compare --csv out", "--csv"),
            ("dynamics --csv out", "--csv"),
            ("render --csv out", "--csv"),
            // The engine is picked by instance size; there is no switch.
            ("plan --search exact", "--search"),
            ("simulate --search candidates", "--search"),
            ("simulate --knn 5", "--knn"),
            ("sweep --knn 5", "--knn"),
        ] {
            assert_eq!(
                parse_args(&argv(cmdline)).unwrap_err(),
                CliError::UnknownFlag(flag.into()),
                "{cmdline}"
            );
        }
        // … and accepted where they apply.
        for cmdline in [
            "simulate --svg x.svg --csv out",
            "sweep --csv out.csv",
            "render --width 80",
        ] {
            assert!(parse_args(&argv(cmdline)).is_ok(), "{cmdline}");
        }
    }

    #[test]
    fn dynamics_usage_is_documented() {
        assert!(USAGE.contains("dynamics"));
        assert!(USAGE.contains("--fail-targets"));
        assert!(USAGE.contains("--no-replan"));
        assert!(
            USAGE.contains("patrolctl dynamics"),
            "usage shows an example"
        );
    }

    #[test]
    fn sweep_defaults_derive_axes_from_shared_flags() {
        let CliCommand::Sweep(opts) = parse_args(&argv("sweep")).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(opts, SweepOptions::default());
        assert_eq!(opts.seeds, vec![1]);
        assert_eq!(opts.mule_counts, vec![4]);
        assert_eq!(opts.disruptions, vec![DisruptionPreset::None]);
        assert_eq!(opts.replicas, 8);
        assert!(opts.workers.is_none());

        // `--seed` / `--mules` seed the axes when the axis flags are absent.
        let CliCommand::Sweep(opts) = parse_args(&argv("sweep --seed 9 --mules 6")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.seeds, vec![9]);
        assert_eq!(opts.mule_counts, vec![6]);
    }

    #[test]
    fn sweep_axis_flags_parse_comma_lists() {
        let cmd = parse_args(&argv(
            "sweep --targets 12 --seeds 1,2,3 --mule-counts 2,4 --speeds 1.5,3 \
             --disruptions none,failures,mixed --replicas 5 --workers 2 --csv out.csv",
        ))
        .unwrap();
        let CliCommand::Sweep(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.base.spec.targets, 12);
        assert_eq!(opts.seeds, vec![1, 2, 3]);
        assert_eq!(opts.mule_counts, vec![2, 4]);
        assert_eq!(opts.speeds, vec![1.5, 3.0]);
        assert_eq!(
            opts.disruptions,
            vec![
                DisruptionPreset::None,
                DisruptionPreset::Failures,
                DisruptionPreset::Mixed
            ]
        );
        assert_eq!(opts.replicas, 5);
        assert_eq!(opts.workers, Some(2));
        assert_eq!(opts.base.csv_prefix.as_deref(), Some("out.csv"));
    }

    #[test]
    fn sweep_rejects_malformed_lists_and_unknown_presets() {
        assert!(matches!(
            parse_args(&argv("sweep --seeds 1,x,3")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--seeds"
        ));
        assert!(matches!(
            parse_args(&argv("sweep --disruptions tornado")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--disruptions"
        ));
        assert!(matches!(
            parse_args(&argv("sweep --speeds ,")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--speeds"
        ));
        // Empty lists report the same error on every axis.
        assert!(matches!(
            parse_args(&argv("sweep --disruptions ,")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--disruptions"
        ));
        // `--workers 0` means "auto", not zero threads.
        let CliCommand::Sweep(opts) = parse_args(&argv("sweep --workers 0")).unwrap() else {
            panic!()
        };
        assert!(opts.workers.is_none());
    }

    #[test]
    fn sweep_flags_are_rejected_on_other_subcommands() {
        assert!(matches!(
            parse_args(&argv("simulate --seeds 1,2")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--seeds"
        ));
        assert!(matches!(
            parse_args(&argv("dynamics --replicas 3")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
    }

    #[test]
    fn disruption_preset_names_parse_case_insensitively() {
        assert_eq!(
            DisruptionPreset::parse("NONE").unwrap(),
            DisruptionPreset::None
        );
        assert_eq!(
            DisruptionPreset::parse("Failures").unwrap(),
            DisruptionPreset::Failures
        );
        assert_eq!(
            DisruptionPreset::parse("breakdown").unwrap(),
            DisruptionPreset::Breakdowns
        );
        assert!(DisruptionPreset::parse("everything").is_err());
    }

    #[test]
    fn sweep_usage_is_documented() {
        assert!(USAGE.contains("sweep"));
        assert!(USAGE.contains("--mule-counts"));
        assert!(USAGE.contains("--disruptions"));
        assert!(USAGE.contains("patrolctl sweep"), "usage shows an example");
    }

    #[test]
    fn bench_tours_defaults_and_flags() {
        let CliCommand::BenchTours(opts) = parse_args(&argv("bench-tours")).unwrap() else {
            panic!("expected bench-tours");
        };
        assert_eq!(opts, BenchToursOptions::default());
        assert_eq!(opts.params.sizes, vec![50, 200, 1000, 5000]);
        assert_eq!(opts.params.seed, 42);
        assert_eq!(opts.params.exact_cap, 1000);
        assert!(opts.json_path.is_none());
        assert!(opts.max_ratio.is_none());

        let cmd = parse_args(&argv(
            "bench-tours --sizes 50,200 --seed 9 --knn 8 --exact-cap 300 \
             --samples 2 --json out.json --max-ratio 1.02",
        ))
        .unwrap();
        let CliCommand::BenchTours(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.sizes, vec![50, 200]);
        assert_eq!(opts.params.seed, 9);
        assert_eq!(opts.params.k, 8);
        assert_eq!(opts.params.exact_cap, 300);
        assert_eq!(opts.params.samples, 2);
        assert_eq!(opts.json_path.as_deref(), Some("out.json"));
        assert_eq!(opts.max_ratio, Some(1.02));
    }

    #[test]
    fn bench_tours_rejects_scenario_flags_and_bad_values() {
        assert!(matches!(
            parse_args(&argv("bench-tours --targets 10")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--targets"
        ));
        assert!(matches!(
            parse_args(&argv("bench-tours --sizes 50,x")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--sizes"
        ));
        assert!(matches!(
            parse_args(&argv("bench-tours --json")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        // bench flags are rejected elsewhere.
        assert!(matches!(
            parse_args(&argv("simulate --sizes 50")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(USAGE.contains("bench-tours"));
        assert!(USAGE.contains("--max-ratio"));
    }

    #[test]
    fn bench_tours_max_bytes_per_target_defaults_off_and_parses() {
        let CliCommand::BenchTours(opts) = parse_args(&argv("bench-tours")).unwrap() else {
            panic!("expected bench-tours");
        };
        assert!(opts.max_bytes_per_target.is_none());

        // The CI memory step: large sizes, no exact baseline, the B/target gate.
        let cmd = parse_args(&argv(
            "bench-tours --sizes 2000,20000 --seed 9 --knn 8 \
             --samples 2 --json BENCH_tours.json --max-bytes-per-target 4096",
        ))
        .unwrap();
        let CliCommand::BenchTours(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.sizes, vec![2000, 20000]);
        assert_eq!(opts.params.seed, 9);
        assert_eq!(opts.params.k, 8);
        assert_eq!(opts.params.samples, 2);
        assert_eq!(opts.json_path.as_deref(), Some("BENCH_tours.json"));
        assert_eq!(opts.max_bytes_per_target, Some(4096.0));
        assert!(opts.max_ratio.is_none());
    }

    #[test]
    fn bench_tours_rejects_bad_byte_gates_and_retired_scale_flags() {
        assert!(matches!(
            parse_args(&argv("bench-tours --max-bytes-per-target")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        assert!(matches!(
            parse_args(&argv("bench-tours --max-bytes-per-target lots")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--max-bytes-per-target"
        ));
        assert!(USAGE.contains("--max-bytes-per-target"));
        // bench-scale is folded into bench-tours; its subcommand and the
        // matrix-backed flavour's flag are gone.
        assert!(matches!(
            parse_args(&argv("bench-scale")).unwrap_err(),
            CliError::UnknownCommand(c) if c == "bench-scale"
        ));
        assert!(!USAGE.contains("bench-scale"));
        assert!(matches!(
            parse_args(&argv("bench-tours --matrix-cap 1")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--matrix-cap"
        ));
    }

    #[test]
    fn metric_flag_parses_on_scenario_subcommands() {
        use mule_workload::MetricSpec;
        assert_eq!(CliOptions::default().spec.metric, MetricSpec::Euclidean);
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate --metric road")).unwrap()
        else {
            panic!()
        };
        assert_eq!(
            opts.spec.metric,
            MetricSpec::Road(mule_road::RoadNetKind::Grid)
        );
        let CliCommand::Plan(opts) = parse_args(&argv("plan --metric road-planar")).unwrap() else {
            panic!()
        };
        assert_eq!(
            opts.spec.metric,
            MetricSpec::Road(mule_road::RoadNetKind::Planar)
        );
        let CliCommand::Render(opts) = parse_args(&argv("render --metric EUCLIDEAN")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.spec.metric, MetricSpec::Euclidean);
        assert!(matches!(
            parse_args(&argv("simulate --metric warp")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--metric"
        ));
        assert!(USAGE.contains("--metric"));
    }

    #[test]
    fn bench_routes_defaults_and_flags() {
        let CliCommand::BenchRoutes(opts) = parse_args(&argv("bench-routes")).unwrap() else {
            panic!("expected bench-routes");
        };
        assert_eq!(opts, BenchRoutesOptions::default());
        assert_eq!(opts.params.sizes, vec![1000, 10000]);
        assert_eq!(opts.params.seed, 42);
        assert_eq!(opts.params.queries, 200);
        assert_eq!(opts.params.landmarks, 8);
        assert!(opts.json_path.is_none());
        assert!(opts.min_speedup.is_none());

        let cmd = parse_args(&argv(
            "bench-routes --sizes 500,2000 --seed 9 --queries 50 --landmarks 4 \
             --json BENCH_routes.json --min-speedup 3.0",
        ))
        .unwrap();
        let CliCommand::BenchRoutes(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.sizes, vec![500, 2000]);
        assert_eq!(opts.params.seed, 9);
        assert_eq!(opts.params.queries, 50);
        assert_eq!(opts.params.landmarks, 4);
        assert_eq!(opts.json_path.as_deref(), Some("BENCH_routes.json"));
        assert_eq!(opts.min_speedup, Some(3.0));

        assert!(matches!(
            parse_args(&argv("bench-routes --targets 5")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse_args(&argv("bench-routes --sizes abc")).unwrap_err(),
            CliError::InvalidValue { .. }
        ));
        assert!(USAGE.contains("bench-routes"));
        assert!(USAGE.contains("--min-speedup"));
    }

    #[test]
    fn plan_shares_the_scenario_flags() {
        let CliCommand::Plan(opts) =
            parse_args(&argv("plan --targets 12 --mules 3 --seed 7 --planner chb")).unwrap()
        else {
            panic!("expected plan");
        };
        let expected = ScenarioSpec {
            targets: 12,
            mules: 3,
            seed: 7,
            planner: "chb".into(),
            ..ScenarioSpec::default()
        };
        assert_eq!(opts.spec, expected);
        assert!(USAGE.contains("plan"));
    }

    #[test]
    fn serve_defaults_and_flags() {
        let CliCommand::Serve(opts) = parse_args(&argv("serve")).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(opts, ServeOptions::default());
        assert_eq!(opts.config.addr, "127.0.0.1:7878");

        let cmd = parse_args(&argv(
            "serve --addr 0.0.0.0:9000 --workers 8 --cache-size 256 --queue-depth 32",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.config.addr, "0.0.0.0:9000");
        assert_eq!(opts.config.workers, 8);
        assert_eq!(opts.config.cache_capacity, 256);
        assert_eq!(opts.config.queue_depth, 32);

        // Worker/queue floors: zero would deadlock the daemon.
        let CliCommand::Serve(opts) =
            parse_args(&argv("serve --workers 0 --queue-depth 0")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.config.workers, 1);
        assert_eq!(opts.config.queue_depth, 1);
        // Cache size zero is a legal "caching off" configuration.
        let CliCommand::Serve(opts) = parse_args(&argv("serve --cache-size 0")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.config.cache_capacity, 0);

        assert!(matches!(
            parse_args(&argv("serve --targets 5")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(USAGE.contains("serve"));
        assert!(USAGE.contains("--queue-depth"));
    }

    #[test]
    fn serve_degradation_flags_parse_and_default_off() {
        // Everything off by default: the hardened paths must be opt-in so
        // the golden server bytes stay untouched.
        let defaults = ServeOptions::default();
        assert!(defaults.config.deadline.is_none());
        assert!(defaults.config.breaker_threshold.is_none());
        assert!(!defaults.config.degraded);
        assert!(defaults.fault_plan.is_none());

        let cmd = parse_args(&argv(
            "serve --deadline-ms 500 --breaker 3 --breaker-cooldown-ms 250 --degraded \
             --fault-plan serve.plan=panic@0.2 --fault-seed 99",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        let ms = Duration::from_millis;
        assert_eq!(opts.config.deadline, Some(ms(500)));
        assert_eq!(opts.config.breaker_threshold, Some(3));
        assert_eq!(opts.config.breaker_cooldown, ms(250));
        assert!(opts.config.degraded);
        assert_eq!(opts.fault_plan.as_deref(), Some("serve.plan=panic@0.2"));
        assert_eq!(opts.fault_seed, 99);

        // Floors: zero deadlines/thresholds/cooldowns make no sense.
        let CliCommand::Serve(opts) = parse_args(&argv(
            "serve --deadline-ms 0 --breaker 0 --breaker-cooldown-ms 0",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(opts.config.deadline, Some(Duration::from_millis(1)));
        assert_eq!(opts.config.breaker_threshold, Some(1));
        assert_eq!(opts.config.breaker_cooldown, Duration::from_millis(1));
        assert!(USAGE.contains("--fault-plan"));
        assert!(USAGE.contains("--breaker"));
        assert!(USAGE.contains("--degraded"));
    }

    #[test]
    fn serve_telemetry_flags_parse_and_default_off() {
        // Telemetry is opt-in: no debug surface, 1 % sampling, no SLO,
        // info-level logging by default.
        let defaults = ServeOptions::default();
        assert!(!defaults.config.debug_endpoints);
        assert_eq!(defaults.config.trace_sample_rate, 0.01);
        assert!(defaults.config.slo.is_none());
        assert_eq!(defaults.log_level, mule_obs::log::Severity::Info);

        let cmd = parse_args(&argv(
            "serve --debug-endpoints --trace-sample 0.5 \
             --slo p99_ms=250,availability=99.9 --log-level debug",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        assert!(opts.config.debug_endpoints);
        assert_eq!(opts.config.trace_sample_rate, 0.5);
        let slo = opts.config.slo.unwrap();
        assert_eq!(slo.p99_ms, Some(250.0));
        assert_eq!(slo.availability_pct, Some(99.9));
        assert_eq!(opts.log_level, mule_obs::log::Severity::Debug);

        // Out-of-range sampling rates and malformed specs are rejected.
        assert!(matches!(
            parse_args(&argv("serve --trace-sample 1.5")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--trace-sample"
        ));
        assert!(matches!(
            parse_args(&argv("serve --slo p42=1")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--slo"
        ));
        assert!(matches!(
            parse_args(&argv("serve --log-level loud")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--log-level"
        ));
        assert!(USAGE.contains("--debug-endpoints"));
        assert!(USAGE.contains("--trace-sample"));
        assert!(USAGE.contains("--slo"));
        assert!(USAGE.contains("--log-level"));
    }

    #[test]
    fn chaos_defaults_and_flags() {
        let CliCommand::Chaos(opts) = parse_args(&argv("chaos")).unwrap() else {
            panic!("expected chaos");
        };
        assert_eq!(opts, ChaosOptions::default());
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.requests, 40);

        let cmd = parse_args(&argv(
            "chaos --seed 11 --requests 80 --spec-pool 2 --targets 8 --mules 3 \
             --planner chb --fault-plan serve.plan=panic#2 --deadline-ms 300",
        ))
        .unwrap();
        let CliCommand::Chaos(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.seed, 11);
        assert_eq!(opts.requests, 80);
        assert_eq!(opts.spec_pool, 2);
        assert_eq!(opts.base.targets, 8);
        assert_eq!(opts.base.mules, 3);
        assert_eq!(opts.base.planner, "chb");
        assert_eq!(opts.fault_plan.as_deref(), Some("serve.plan=panic#2"));
        assert_eq!(opts.deadline_ms, 300);

        assert!(matches!(
            parse_args(&argv("chaos --addr 127.0.0.1:1")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(USAGE.contains("chaos"));
    }

    #[test]
    fn trace_and_profile_flags_parse_on_scenario_and_bench_subcommands() {
        // Off by default — the golden plan bytes depend on it.
        assert!(CliOptions::default().trace_out.is_none());
        assert!(!CliOptions::default().profile);

        let CliCommand::Plan(opts) =
            parse_args(&argv("plan --trace-out trace.json --profile")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.trace_out.as_deref(), Some("trace.json"));
        assert!(opts.profile);

        let CliCommand::Sweep(opts) = parse_args(&argv("sweep --trace-out s.json")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.base.trace_out.as_deref(), Some("s.json"));

        let CliCommand::BenchTours(opts) = parse_args(&argv(
            "bench-tours --overhead-gate 1.05 --trace-out t.json --profile",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(opts.overhead_gate, Some(1.05));
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        assert!(opts.profile);

        let CliCommand::Serve(opts) = parse_args(&argv("serve --slow-ms 250")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.config.slow_request_ms, Some(250.0));
        assert!(ServeOptions::default().config.slow_request_ms.is_none());

        assert!(matches!(
            parse_args(&argv("plan --trace-out")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        assert!(USAGE.contains("--trace-out"));
        assert!(USAGE.contains("--profile"));
        assert!(USAGE.contains("--overhead-gate"));
        assert!(USAGE.contains("--slow-ms"));
    }

    #[test]
    fn svg_and_csv_paths_are_captured() {
        let CliCommand::Simulate(opts) =
            parse_args(&argv("simulate --svg plan.svg --csv run1")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.svg_path.as_deref(), Some("plan.svg"));
        assert_eq!(opts.csv_prefix.as_deref(), Some("run1"));
    }

    /// One flag line of a `FLAGS (...)` section of [`USAGE`].
    struct UsageFlag {
        /// The section's first word: `scenario` or a subcommand name.
        section: &'static str,
        /// The flag names (`--targets/--mules` lists several).
        names: Vec<&'static str>,
        /// A `(render)`-style subcommand scope within the scenario section.
        scope: Option<&'static str>,
        /// The literal of a `[default: V]`, on the flag's line or below it.
        default: Option<&'static str>,
    }

    impl UsageFlag {
        fn subcommand(&self) -> &'static str {
            match self.section {
                "scenario" => self.scope.unwrap_or("plan"),
                section => section,
            }
        }
    }

    fn usage_flags() -> Vec<UsageFlag> {
        let mut flags: Vec<UsageFlag> = Vec::new();
        let mut section = "";
        for line in USAGE.lines() {
            if let Some(rest) = line.strip_prefix("FLAGS (") {
                section = rest.split([' ', ')']).next().unwrap();
                continue;
            }
            if line == "EXAMPLES:" {
                break;
            }
            let trimmed = line.trim_start();
            if section.is_empty() || trimmed.is_empty() {
                continue;
            }
            if trimmed.starts_with("--") {
                let first = trimmed.split_whitespace().next().unwrap();
                flags.push(UsageFlag {
                    section,
                    names: first.split('/').collect(),
                    scope: ["render", "simulate"]
                        .into_iter()
                        .find(|sub| line.contains(&format!("({sub})"))),
                    default: None,
                });
            }
            if let Some((_, rest)) = line.split_once("[default: ") {
                let flag = flags.last_mut().expect("a default follows its flag");
                flag.default = rest.split_once(']').map(|(value, _)| value);
            }
        }
        flags
    }

    /// Whether `flag` parses on `sub`: alone when it is a switch, else with
    /// one of a few sample values.
    fn parses(sub: &str, flag: &str) -> bool {
        let with = |value: &str| parse_args(&argv(&format!("{sub} {flag} {value}"))).is_ok();
        match parse_args(&argv(&format!("{sub} {flag}"))) {
            Ok(_) => true,
            Err(CliError::MissingValue(_)) => {
                ["1", "none", "euclidean", "b-tctp", "info", "p99_ms=250"]
                    .into_iter()
                    .any(with)
            }
            Err(_) => false,
        }
    }

    #[test]
    fn usage_and_the_parsers_agree_on_every_flag_and_default() {
        let flags = usage_flags();
        assert!(flags.len() > 60, "USAGE parsed to {} flags", flags.len());
        for flag in &flags {
            let sub = flag.subcommand();
            for name in &flag.names {
                assert!(
                    parses(sub, name),
                    "USAGE lists `{name}` but `{sub}` rejects it"
                );
                // `[default: --seed]`-style defaults name another flag.
                if let Some(value) = flag.default.filter(|v| !v.starts_with("--")) {
                    assert_eq!(
                        parse_args(&argv(&format!("{sub} {name} {value}"))),
                        parse_args(&argv(sub)),
                        "USAGE's `{name}` default {value} is not `{sub}`'s default"
                    );
                }
            }
        }

        // Every match arm of a flag parser is documented in its section.
        let source = include_str!("args.rs");
        let code = &source[..source.find("#[cfg(test)]").unwrap()];
        let mut parser_section = None;
        let mut arms = 0;
        for line in code.lines() {
            if let Some(rest) = line.split_once("fn parse_").map(|(_, rest)| rest) {
                let name = rest.split('(').next().unwrap();
                parser_section = match name {
                    "args" => Some("scenario"),
                    "bench_tours" | "bench_routes" | "serve" | "chaos" => Some(name),
                    _ => None,
                };
                continue;
            }
            let trimmed = line.trim_start();
            let (Some(section), Some(arm)) = (parser_section, trimmed.strip_prefix("\"--")) else {
                continue;
            };
            let Some((name, guard)) = arm.split_once('"') else {
                continue;
            };
            let section = if guard.contains("if is_dynamics") {
                "dynamics".to_string()
            } else if guard.contains("if is_sweep") {
                "sweep".to_string()
            } else {
                section.replace('_', "-")
            };
            let flag = format!("--{name}");
            arms += 1;
            assert!(
                flags
                    .iter()
                    .any(|f| f.section == section && f.names.contains(&flag.as_str())),
                "`{flag}` is parsed but missing from USAGE's {section} section"
            );
        }
        assert!(arms > 60, "found {arms} flag arms");
    }
}
