//! Command-line argument parsing for `patrolctl`.
//!
//! Hand-rolled (no external parser crates): flags are `--name value` pairs
//! after a leading subcommand. Unknown flags and malformed values are
//! reported as [`CliError`]s with a human-readable message.

use std::fmt;

/// Which planner a command should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerChoice {
    /// B-TCTP (default).
    BTctp,
    /// W-TCTP with the Shortest-Length policy.
    WTctpShortest,
    /// W-TCTP with the Balancing-Length policy.
    WTctpBalancing,
    /// RW-TCTP (requires `--recharge`).
    RwTctp,
    /// The CHB baseline.
    Chb,
    /// The Sweep baseline.
    Sweep,
    /// The Random baseline.
    Random,
}

impl PlannerChoice {
    /// Parses a planner name (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "b-tctp" | "btctp" | "tctp" => Ok(PlannerChoice::BTctp),
            "w-tctp" | "wtctp" | "w-tctp-shortest" | "shortest" => Ok(PlannerChoice::WTctpShortest),
            "w-tctp-balancing" | "balancing" => Ok(PlannerChoice::WTctpBalancing),
            "rw-tctp" | "rwtctp" => Ok(PlannerChoice::RwTctp),
            "chb" => Ok(PlannerChoice::Chb),
            "sweep" => Ok(PlannerChoice::Sweep),
            "random" => Ok(PlannerChoice::Random),
            other => Err(CliError::InvalidValue {
                flag: "--planner".into(),
                value: other.into(),
            }),
        }
    }

    /// Display name used in output tables.
    pub fn label(&self) -> &'static str {
        match self {
            PlannerChoice::BTctp => "B-TCTP",
            PlannerChoice::WTctpShortest => "W-TCTP (shortest)",
            PlannerChoice::WTctpBalancing => "W-TCTP (balancing)",
            PlannerChoice::RwTctp => "RW-TCTP",
            PlannerChoice::Chb => "CHB",
            PlannerChoice::Sweep => "Sweep",
            PlannerChoice::Random => "Random",
        }
    }

    /// Canonical wire name used in `ScenarioSpec` requests — the name the
    /// `mule-serve` API (and [`PlannerChoice::parse`]) accepts.
    pub fn canonical_name(&self) -> &'static str {
        match self {
            PlannerChoice::BTctp => "b-tctp",
            PlannerChoice::WTctpShortest => "w-tctp-shortest",
            PlannerChoice::WTctpBalancing => "w-tctp-balancing",
            PlannerChoice::RwTctp => "rw-tctp",
            PlannerChoice::Chb => "chb",
            PlannerChoice::Sweep => "sweep",
            PlannerChoice::Random => "random",
        }
    }
}

/// Which tour-search mode the planners' circuit construction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchChoice {
    /// Exact all-pairs construction and local search.
    Exact,
    /// Candidate-list (k-nearest-neighbour) search; `--knn` sets k.
    Candidates,
    /// Exact below the byte-stability threshold, candidate lists above
    /// (the default — see `docs/DETERMINISM.md`).
    #[default]
    Auto,
}

impl SearchChoice {
    /// Parses a search-mode name (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "exact" => Ok(SearchChoice::Exact),
            "candidates" | "cand" | "knn" => Ok(SearchChoice::Candidates),
            "auto" => Ok(SearchChoice::Auto),
            other => Err(CliError::InvalidValue {
                flag: "--search".into(),
                value: other.into(),
            }),
        }
    }

    /// Translates the choice (plus the optional `--knn` width) into the
    /// graph crate's search mode.
    pub fn to_mode(self, knn: Option<usize>) -> mule_graph::SearchMode {
        match self {
            SearchChoice::Exact => mule_graph::SearchMode::Exact,
            SearchChoice::Candidates => mule_graph::SearchMode::Candidates(
                knn.unwrap_or(mule_graph::chb::DEFAULT_CANDIDATES_K).max(1),
            ),
            SearchChoice::Auto => mule_graph::SearchMode::Auto,
        }
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

/// Scenario + execution options shared by every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Number of targets.
    pub targets: usize,
    /// Number of mules.
    pub mules: usize,
    /// RNG seed.
    pub seed: u64,
    /// Number of VIP targets.
    pub vips: usize,
    /// Weight of each VIP.
    pub vip_weight: u32,
    /// Whether the scenario includes a recharge station.
    pub recharge: bool,
    /// Planner to use.
    pub planner: PlannerChoice,
    /// Simulation horizon in seconds.
    pub horizon_s: f64,
    /// Optional SVG output path.
    pub svg_path: Option<String>,
    /// Optional CSV trace prefix.
    pub csv_prefix: Option<String>,
    /// ASCII canvas width for `render`.
    pub canvas_width: usize,
    /// Tour-search mode of the circuit construction.
    pub search: SearchChoice,
    /// Candidate-list width (k nearest neighbours) when `search` is
    /// `candidates`; `None` uses the engine default.
    pub knn: Option<usize>,
    /// Travel metric of the scenario (`euclidean` | `road`/`road-grid` |
    /// `road-planar`).
    pub metric: mule_workload::MetricSpec,
    /// Optional path of a Chrome `trace_event` JSON file to write the
    /// run's span trace to (loadable in `about:tracing` / Perfetto).
    pub trace_out: Option<String>,
    /// Append a self-time profile table to the command's output.
    pub profile: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            targets: 10,
            mules: 4,
            seed: 1,
            vips: 0,
            vip_weight: 2,
            recharge: false,
            planner: PlannerChoice::BTctp,
            horizon_s: 40_000.0,
            svg_path: None,
            csv_prefix: None,
            canvas_width: 72,
            search: SearchChoice::Auto,
            knn: None,
            metric: mule_workload::MetricSpec::Euclidean,
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

/// Options of the `bench-scale` subcommand (the tracked memory-scale
/// benchmark; see `docs/PERFORMANCE.md`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchScaleOptions {
    /// The suite's parameters (sizes, seed, k, samples).
    pub params: mule_bench::scalebench::ScaleBenchParams,
    /// Optional path of the JSON artefact to write (`BENCH_scale.json`).
    pub json_path: Option<String>,
    /// When set, the command fails if the peak live bytes per target
    /// exceed this bound at any size — the CI regression gate for the
    /// million-target memory budget.
    pub max_bytes_per_target: Option<f64>,
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
            seeds: vec![base.seed],
            mule_counts: vec![base.mules],
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
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Connection-handler worker threads.
    pub workers: usize,
    /// Plan-cache capacity in entries (0 disables caching).
    pub cache_size: usize,
    /// Maximum concurrently admitted connections; beyond it, new
    /// connections get `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Opt-in slow-request log threshold, milliseconds (`None` = off).
    pub slow_ms: Option<f64>,
    /// Per-request compute/read deadline, milliseconds (`None` = off).
    pub deadline_ms: Option<u64>,
    /// Circuit-breaker threshold: consecutive compute panics/timeouts
    /// before a route opens (`None` = breakers off).
    pub breaker_threshold: Option<usize>,
    /// Circuit-breaker cooldown before the half-open probe, milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Serve last-good (stale) bytes instead of 5xx where possible.
    pub degraded: bool,
    /// Fault plan to arm at startup (`point=kind[@prob][#limit],...`).
    pub fault_plan: Option<String>,
    /// Seed of the armed fault plan's firing decisions.
    pub fault_seed: u64,
    /// Expose the read-only `GET /debug/*` introspection endpoints.
    pub debug_endpoints: bool,
    /// Head-based trace sampling rate in `[0, 1]` (slow and 5xx requests
    /// are tail-promoted regardless).
    pub trace_sample: f64,
    /// SLO objectives tracked as burn-rate gauges on `/metrics`.
    pub slo: Option<mule_obs::SloSpec>,
    /// Minimum severity of the structured stderr log.
    pub log_level: mule_obs::log::Severity,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let defaults = mule_serve::ServerConfig::default();
        ServeOptions {
            addr: defaults.addr,
            workers: defaults.workers,
            cache_size: defaults.cache_capacity,
            queue_depth: defaults.queue_depth,
            slow_ms: defaults.slow_request_ms,
            deadline_ms: defaults.deadline.map(|d| d.as_millis() as u64),
            breaker_threshold: defaults.breaker_threshold,
            breaker_cooldown_ms: defaults.breaker_cooldown.as_millis() as u64,
            degraded: defaults.degraded,
            fault_plan: None,
            fault_seed: 7,
            debug_endpoints: defaults.debug_endpoints,
            trace_sample: defaults.trace_sample_rate,
            slo: None,
            log_level: mule_obs::log::Severity::Info,
        }
    }
}

/// Options of the `loadgen` subcommand (the server load benchmark).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenOptions {
    /// Server address to fire at.
    pub addr: String,
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent connections.
    pub connections: usize,
    /// Distinct scenario specs rotated through (controls the expected
    /// cache hit rate).
    pub spec_pool: usize,
    /// Targets of the base spec.
    pub targets: usize,
    /// Mules of the base spec.
    pub mules: usize,
    /// Base seed (request *i* uses `seed + (i mod spec_pool)`).
    pub seed: u64,
    /// Planner of the base spec.
    pub planner: PlannerChoice,
    /// Optional path of the JSON artefact (`BENCH_server.json`).
    pub json_path: Option<String>,
    /// Regression gate: fail when p99 latency exceeds this many
    /// milliseconds.
    pub max_p99_ms: Option<f64>,
    /// Regression gate: fail when throughput falls below this many
    /// requests per second.
    pub min_rps: Option<f64>,
    /// Maximum retries per request after a `503` (0 disables retrying).
    pub retries: u32,
    /// Run until this many seconds elapse instead of a fixed request
    /// count (`--requests` is ignored when set).
    pub duration_s: Option<f64>,
    /// Leading requests whose latencies are excluded from the histogram
    /// (warm-up discard; they still count everywhere else).
    pub warmup: usize,
    /// SLO objectives the report is graded against.
    pub slo: Option<mule_obs::SloSpec>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        let defaults = mule_serve::LoadgenParams::default();
        LoadgenOptions {
            addr: defaults.addr,
            requests: defaults.requests,
            connections: defaults.connections,
            spec_pool: defaults.spec_pool,
            targets: defaults.base.targets,
            mules: defaults.base.mules,
            seed: defaults.base.seed,
            planner: PlannerChoice::BTctp,
            json_path: None,
            max_p99_ms: None,
            min_rps: None,
            retries: defaults.retry_budget,
            duration_s: None,
            warmup: defaults.warmup,
            slo: None,
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
    /// Targets of the base spec.
    pub targets: usize,
    /// Mules of the base spec.
    pub mules: usize,
    /// Planner of the base spec.
    pub planner: PlannerChoice,
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
            targets: 10,
            mules: 4,
            planner: PlannerChoice::BTctp,
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
    /// Benchmark the tour engine (exact vs. candidate-list search) and
    /// optionally write the tracked `BENCH_tours.json` artefact.
    BenchTours(BenchToursOptions),
    /// Benchmark road routing (Dijkstra vs. A* vs. ALT) and optionally
    /// write the tracked `BENCH_routes.json` artefact.
    BenchRoutes(BenchRoutesOptions),
    /// Benchmark matrix-free construction memory at scale and optionally
    /// write the tracked `BENCH_scale.json` artefact.
    BenchScale(BenchScaleOptions),
    /// Run the planning service daemon (blocks forever).
    Serve(ServeOptions),
    /// Fire concurrent requests at a running server and optionally write
    /// the tracked `BENCH_server.json` artefact.
    Loadgen(LoadgenOptions),
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
    /// A flag was given that only has an effect alongside another flag
    /// (e.g. `--knn` without `--search candidates`). Erroring beats
    /// silently ignoring the user's knob.
    RequiresFlag {
        /// The offending flag.
        flag: String,
        /// The flag (and value) it requires.
        requires: String,
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
            CliError::RequiresFlag { flag, requires } => {
                write!(f, "flag `{flag}` requires `{requires}`")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text printed by `patrolctl help`.
pub const USAGE: &str = "\
patrolctl — data-mule patrolling toolkit (B-TCTP / W-TCTP / RW-TCTP)

USAGE:
    patrolctl <render|plan|simulate|compare|dynamics|sweep|bench-tours|bench-routes|bench-scale|serve|loadgen|chaos|help> [flags]

FLAGS (scenario subcommands):
    --targets N        number of targets               [default: 10]
    --mules N          number of data mules            [default: 4]
    --seed S           scenario seed                   [default: 1]
    --vips N           number of VIP targets           [default: 0]
    --vip-weight W     weight of each VIP              [default: 2]
    --recharge         add a recharge station
    --planner P        b-tctp | shortest | balancing | rw-tctp | chb | sweep | random
    --search M         tour search: exact | candidates | auto  [default: auto]
    --metric M         travel metric: euclidean | road | road-grid | road-planar
                       (road scenarios snap targets/sink to the network and
                       plan + simulate over shortest road paths)
    --knn K            candidate-list width (only with --search candidates)
    --horizon SECONDS  simulation horizon              [default: 40000]
    --svg FILE         write the plan as an SVG file   (simulate)
    --csv PREFIX       write visit/mule CSV traces     (simulate)
    --width CHARS      ASCII canvas width              (render, default 72)
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

FLAGS (loadgen only — the tracked server load benchmark):
    --addr HOST:PORT     server to fire at              [default: 127.0.0.1:7878]
    --requests N         total requests                 [default: 1000]
    --connections M      concurrent connections         [default: 4]
    --spec-pool K        distinct specs rotated through [default: 4]
    --targets/--mules/--seed/--planner   base spec      (as above)
    --json FILE          write the report as JSON (BENCH_server.json)
    --max-p99 MS         fail when p99 latency exceeds MS milliseconds
    --min-rps R          fail when throughput falls below R req/s
    --retries N          retry budget per request on 503 (seeded jittered
                         backoff honouring Retry-After) [default: 3]
    --duration-s S       run for S seconds instead of a fixed request count
                         (--requests is ignored)
    --warmup K           discard the first K requests' latencies from the
                         histogram (steady-state percentiles) [default: 0]
    --slo SPEC           grade the report: p99_ms=MS,availability=PCT
                         (verdicts land in BENCH_server.json; informational,
                         the hard gates stay --max-p99/--min-rps)

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

FLAGS (bench-scale only — the tracked memory-scale benchmark):
    --sizes LIST         instance sizes                 [default: 10000,100000]
    --seed S             topology seed                  [default: 42]
    --knn K              candidate-list width           [default: 10]
    --samples N          timed repetitions (min is kept) [default: 3]
    --json FILE          write the benchmark report as JSON (BENCH_scale.json)
    --max-bytes-per-target B   fail when peak live bytes per target
                         exceed B at any size
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
    patrolctl bench-scale --sizes 10000,100000 --json BENCH_scale.json \\
        --max-bytes-per-target 4096
    patrolctl serve --addr 127.0.0.1:7878 --workers 4 --cache-size 128
    patrolctl serve --deadline-ms 500 --breaker 3 --degraded
    patrolctl serve --debug-endpoints --slo p99_ms=250,availability=99.9
    patrolctl loadgen --requests 1000 --connections 4 \\
        --json BENCH_server.json --max-p99 250 --min-rps 50
    patrolctl loadgen --duration-s 30 --warmup 100 \\
        --slo p99_ms=250,availability=99 --json BENCH_server.json
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

/// Parses the flags of `bench-scale`.
fn parse_bench_scale(args: &[String]) -> Result<CliCommand, CliError> {
    let mut o = BenchScaleOptions::default();
    parse_flags(args, |flag, take_value| {
        match flag {
            "--sizes" => o.params.sizes = parse_list(flag, &take_value()?)?,
            "--seed" => o.params.seed = parse_flag(flag, &take_value()?)?,
            "--knn" => o.params.k = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--samples" => o.params.samples = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--json" => o.json_path = Some(take_value()?),
            "--max-bytes-per-target" => {
                o.max_bytes_per_target = Some(parse_flag(flag, &take_value()?)?)
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    })?;
    Ok(CliCommand::BenchScale(o))
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
    parse_flags(args, |flag, take_value| {
        match flag {
            "--addr" => options.addr = take_value()?,
            "--workers" => options.workers = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--cache-size" => options.cache_size = parse_flag(flag, &take_value()?)?,
            "--queue-depth" => {
                options.queue_depth = parse_flag::<usize>(flag, &take_value()?)?.max(1)
            }
            "--slow-ms" => options.slow_ms = Some(parse_flag(flag, &take_value()?)?),
            "--deadline-ms" => {
                options.deadline_ms = Some(parse_flag::<u64>(flag, &take_value()?)?.max(1))
            }
            "--breaker" => {
                options.breaker_threshold = Some(parse_flag::<usize>(flag, &take_value()?)?.max(1))
            }
            "--breaker-cooldown-ms" => {
                options.breaker_cooldown_ms = parse_flag::<u64>(flag, &take_value()?)?.max(1)
            }
            "--degraded" => options.degraded = true,
            "--fault-plan" => options.fault_plan = Some(take_value()?),
            "--fault-seed" => options.fault_seed = parse_flag(flag, &take_value()?)?,
            "--debug-endpoints" => options.debug_endpoints = true,
            "--trace-sample" => {
                let value = take_value()?;
                let rate = parse_flag::<f64>(flag, &value)?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(CliError::InvalidValue {
                        flag: flag.to_string(),
                        value,
                    });
                }
                options.trace_sample = rate;
            }
            "--slo" => options.slo = Some(parse_slo(flag, &take_value()?)?),
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
            "--targets" => options.targets = parse_flag(flag, &take_value()?)?,
            "--mules" => options.mules = parse_flag(flag, &take_value()?)?,
            "--planner" => options.planner = PlannerChoice::parse(&take_value()?)?,
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

/// Parses the flags of `loadgen`.
fn parse_loadgen(args: &[String]) -> Result<CliCommand, CliError> {
    let mut options = LoadgenOptions::default();
    parse_flags(args, |flag, take_value| {
        match flag {
            "--addr" => options.addr = take_value()?,
            "--requests" => options.requests = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--connections" => {
                options.connections = parse_flag::<usize>(flag, &take_value()?)?.max(1)
            }
            "--spec-pool" => options.spec_pool = parse_flag::<usize>(flag, &take_value()?)?.max(1),
            "--targets" => options.targets = parse_flag(flag, &take_value()?)?,
            "--mules" => options.mules = parse_flag(flag, &take_value()?)?,
            "--seed" => options.seed = parse_flag(flag, &take_value()?)?,
            "--planner" => options.planner = PlannerChoice::parse(&take_value()?)?,
            "--json" => options.json_path = Some(take_value()?),
            "--max-p99" => options.max_p99_ms = Some(parse_flag(flag, &take_value()?)?),
            "--min-rps" => options.min_rps = Some(parse_flag(flag, &take_value()?)?),
            "--retries" => options.retries = parse_flag(flag, &take_value()?)?,
            "--duration-s" => {
                let value = take_value()?;
                let seconds = parse_flag::<f64>(flag, &value)?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err(CliError::InvalidValue {
                        flag: flag.to_string(),
                        value,
                    });
                }
                options.duration_s = Some(seconds);
            }
            "--warmup" => options.warmup = parse_flag(flag, &take_value()?)?,
            "--slo" => options.slo = Some(parse_slo(flag, &take_value()?)?),
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    })?;
    Ok(CliCommand::Loadgen(options))
}

/// Parses the argument list (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<CliCommand, CliError> {
    let command = args.first().ok_or(CliError::MissingCommand)?;
    let flags = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => return Ok(CliCommand::Help),
        "bench-tours" => return parse_bench_tours(flags),
        "bench-routes" => return parse_bench_routes(flags),
        "bench-scale" => return parse_bench_scale(flags),
        "serve" => return parse_serve(flags),
        "loadgen" => return parse_loadgen(flags),
        "chaos" => return parse_chaos(flags),
        _ => {}
    }
    let is_dynamics = command == "dynamics";
    let is_sweep = command == "sweep";

    let mut options = CliOptions::default();
    let mut dynamics = DynamicsOptions::default();
    let mut sweep = SweepOptions::default();
    // Axes default to the shared `--seed` / `--mules` values unless given
    // explicitly; resolved after the flag loop.
    let mut sweep_seeds: Option<Vec<u64>> = None;
    let mut sweep_mule_counts: Option<Vec<usize>> = None;
    parse_flags(flags, |flag, take_value| {
        match flag {
            "--targets" => options.targets = parse_flag(flag, &take_value()?)?,
            "--mules" => options.mules = parse_flag(flag, &take_value()?)?,
            "--seed" => options.seed = parse_flag(flag, &take_value()?)?,
            "--vips" => options.vips = parse_flag(flag, &take_value()?)?,
            "--vip-weight" => options.vip_weight = parse_flag(flag, &take_value()?)?,
            "--horizon" => options.horizon_s = parse_flag(flag, &take_value()?)?,
            "--width" => options.canvas_width = parse_flag(flag, &take_value()?)?,
            "--planner" => options.planner = PlannerChoice::parse(&take_value()?)?,
            "--search" => options.search = SearchChoice::parse(&take_value()?)?,
            "--metric" => options.metric = parse_metric(&take_value()?)?,
            "--knn" => options.knn = Some(parse_flag::<usize>(flag, &take_value()?)?.max(1)),
            "--svg" => options.svg_path = Some(take_value()?),
            "--csv" => options.csv_prefix = Some(take_value()?),
            "--recharge" => options.recharge = true,
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
    if options.planner == PlannerChoice::RwTctp {
        options.recharge = true;
    }

    // `--knn` tunes the candidate-list width, which only exists under
    // `--search candidates` (auto resolves its own default width above the
    // threshold). Silently discarding the user's knob would be worse than
    // rejecting it.
    if options.knn.is_some() && options.search != SearchChoice::Candidates {
        return Err(CliError::RequiresFlag {
            flag: "--knn".into(),
            requires: "--search candidates".into(),
        });
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
            sweep.seeds = sweep_seeds.unwrap_or_else(|| vec![options.seed]);
            sweep.mule_counts = sweep_mule_counts.unwrap_or_else(|| vec![options.mules]);
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
        assert_eq!(opts.targets, 25);
        assert_eq!(opts.mules, 6);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.vips, 3);
        assert_eq!(opts.vip_weight, 4);
        assert_eq!(opts.planner, PlannerChoice::WTctpBalancing);
        assert_eq!(opts.horizon_s, 12345.0);
        assert!(opts.recharge);
    }

    #[test]
    fn planner_names_parse_case_insensitively() {
        assert_eq!(
            PlannerChoice::parse("B-TCTP").unwrap(),
            PlannerChoice::BTctp
        );
        assert_eq!(PlannerChoice::parse("ChB").unwrap(), PlannerChoice::Chb);
        assert_eq!(
            PlannerChoice::parse("rw-tctp").unwrap(),
            PlannerChoice::RwTctp
        );
        assert!(PlannerChoice::parse("nonsense").is_err());
    }

    #[test]
    fn rw_tctp_implies_a_recharge_station() {
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate --planner rw-tctp")).unwrap()
        else {
            panic!()
        };
        assert!(opts.recharge);
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
        assert_eq!(opts.base.targets, 12);
        assert_eq!(opts.base.mules, 5);
        assert_eq!(opts.base.seed, 9);
        assert_eq!(opts.fail_targets, 2);
        assert_eq!(opts.recover_after_s, Some(8000.0));
        assert_eq!(opts.late_targets, 1);
        assert_eq!(opts.breakdowns, 2);
        assert_eq!(opts.speed_windows, 1);
        assert_eq!(opts.speed_factor, 0.25);
        assert!(opts.no_replan);
    }

    #[test]
    fn dynamics_flags_are_rejected_on_other_subcommands() {
        assert!(matches!(
            parse_args(&argv("simulate --fail-targets 2")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--fail-targets"
        ));
        assert!(matches!(
            parse_args(&argv("render --no-replan")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
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
        assert_eq!(opts.base.targets, 12);
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
    fn search_flags_parse_on_scenario_subcommands() {
        let CliCommand::Simulate(opts) =
            parse_args(&argv("simulate --search candidates --knn 12")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.search, SearchChoice::Candidates);
        assert_eq!(opts.knn, Some(12));
        assert_eq!(
            opts.search.to_mode(opts.knn),
            mule_graph::SearchMode::Candidates(12)
        );

        let CliCommand::Render(opts) = parse_args(&argv("render --search exact")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.search, SearchChoice::Exact);
        assert_eq!(opts.search.to_mode(None), mule_graph::SearchMode::Exact);

        // Default is auto; --knn without --search candidates is rejected
        // (auto would silently ignore it).
        assert_eq!(CliOptions::default().search, SearchChoice::Auto);
        assert!(matches!(
            parse_args(&argv("simulate --knn 5")).unwrap_err(),
            CliError::RequiresFlag { flag, .. } if flag == "--knn"
        ));
        assert!(matches!(
            parse_args(&argv("simulate --search exact --knn 5")).unwrap_err(),
            CliError::RequiresFlag { .. }
        ));
        assert!(CliError::RequiresFlag {
            flag: "--knn".into(),
            requires: "--search candidates".into()
        }
        .to_string()
        .contains("requires"));
        // Flag order does not matter for the pairing.
        assert!(parse_args(&argv("simulate --knn 5 --search candidates")).is_ok());
        assert!(SearchChoice::parse("fuzzy").is_err());
        assert_eq!(
            SearchChoice::parse("CANDIDATES").unwrap(),
            SearchChoice::Candidates
        );
        // A candidates choice without --knn uses the engine default.
        assert_eq!(
            SearchChoice::Candidates.to_mode(None),
            mule_graph::SearchMode::Candidates(mule_graph::chb::DEFAULT_CANDIDATES_K)
        );
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
    fn bench_scale_defaults_and_flags() {
        let CliCommand::BenchScale(opts) = parse_args(&argv("bench-scale")).unwrap() else {
            panic!("expected bench-scale");
        };
        assert_eq!(opts, BenchScaleOptions::default());
        assert_eq!(opts.params.sizes, vec![10_000, 100_000]);
        assert_eq!(opts.params.seed, 42);
        assert!(opts.json_path.is_none());
        assert!(opts.max_bytes_per_target.is_none());

        let cmd = parse_args(&argv(
            "bench-scale --sizes 2000,5000 --seed 9 --knn 8 \
             --samples 2 --json BENCH_scale.json --max-bytes-per-target 4096",
        ))
        .unwrap();
        let CliCommand::BenchScale(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.params.sizes, vec![2000, 5000]);
        assert_eq!(opts.params.seed, 9);
        assert_eq!(opts.params.k, 8);
        assert_eq!(opts.params.samples, 2);
        assert_eq!(opts.json_path.as_deref(), Some("BENCH_scale.json"));
        assert_eq!(opts.max_bytes_per_target, Some(4096.0));
    }

    #[test]
    fn bench_scale_rejects_scenario_flags_and_bad_values() {
        assert!(matches!(
            parse_args(&argv("bench-scale --targets 10")).unwrap_err(),
            CliError::UnknownFlag(f) if f == "--targets"
        ));
        assert!(matches!(
            parse_args(&argv("bench-scale --sizes 50,x")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--sizes"
        ));
        assert!(matches!(
            parse_args(&argv("bench-scale --max-bytes-per-target")).unwrap_err(),
            CliError::MissingValue(_)
        ));
        assert!(USAGE.contains("bench-scale"));
        assert!(USAGE.contains("--max-bytes-per-target"));
        // The matrix-backed flavour's flags are retired.
        for retired in ["--matrix-cap", "--max-ratio"] {
            assert!(matches!(
                parse_args(&argv(&format!("bench-scale {retired} 1"))).unwrap_err(),
                CliError::UnknownFlag(f) if f == retired
            ));
        }
    }

    #[test]
    fn metric_flag_parses_on_scenario_subcommands() {
        use mule_workload::MetricSpec;
        assert_eq!(CliOptions::default().metric, MetricSpec::Euclidean);
        let CliCommand::Simulate(opts) = parse_args(&argv("simulate --metric road")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.metric, MetricSpec::Road(mule_road::RoadNetKind::Grid));
        let CliCommand::Plan(opts) = parse_args(&argv("plan --metric road-planar")).unwrap() else {
            panic!()
        };
        assert_eq!(
            opts.metric,
            MetricSpec::Road(mule_road::RoadNetKind::Planar)
        );
        let CliCommand::Render(opts) = parse_args(&argv("render --metric EUCLIDEAN")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.metric, MetricSpec::Euclidean);
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
        assert_eq!(opts.targets, 12);
        assert_eq!(opts.mules, 3);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.planner, PlannerChoice::Chb);
        assert!(USAGE.contains("plan"));
    }

    #[test]
    fn canonical_planner_names_parse_back_to_the_same_choice() {
        for choice in [
            PlannerChoice::BTctp,
            PlannerChoice::WTctpShortest,
            PlannerChoice::WTctpBalancing,
            PlannerChoice::RwTctp,
            PlannerChoice::Chb,
            PlannerChoice::Sweep,
            PlannerChoice::Random,
        ] {
            assert_eq!(
                PlannerChoice::parse(choice.canonical_name()).unwrap(),
                choice,
                "{}",
                choice.canonical_name()
            );
        }
    }

    #[test]
    fn serve_defaults_and_flags() {
        let CliCommand::Serve(opts) = parse_args(&argv("serve")).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(opts, ServeOptions::default());
        assert_eq!(opts.addr, "127.0.0.1:7878");

        let cmd = parse_args(&argv(
            "serve --addr 0.0.0.0:9000 --workers 8 --cache-size 256 --queue-depth 32",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.addr, "0.0.0.0:9000");
        assert_eq!(opts.workers, 8);
        assert_eq!(opts.cache_size, 256);
        assert_eq!(opts.queue_depth, 32);

        // Worker/queue floors: zero would deadlock the daemon.
        let CliCommand::Serve(opts) =
            parse_args(&argv("serve --workers 0 --queue-depth 0")).unwrap()
        else {
            panic!()
        };
        assert_eq!(opts.workers, 1);
        assert_eq!(opts.queue_depth, 1);
        // Cache size zero is a legal "caching off" configuration.
        let CliCommand::Serve(opts) = parse_args(&argv("serve --cache-size 0")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.cache_size, 0);

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
        assert!(defaults.deadline_ms.is_none());
        assert!(defaults.breaker_threshold.is_none());
        assert!(!defaults.degraded);
        assert!(defaults.fault_plan.is_none());

        let cmd = parse_args(&argv(
            "serve --deadline-ms 500 --breaker 3 --breaker-cooldown-ms 250 --degraded \
             --fault-plan serve.plan=panic@0.2 --fault-seed 99",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.deadline_ms, Some(500));
        assert_eq!(opts.breaker_threshold, Some(3));
        assert_eq!(opts.breaker_cooldown_ms, 250);
        assert!(opts.degraded);
        assert_eq!(opts.fault_plan.as_deref(), Some("serve.plan=panic@0.2"));
        assert_eq!(opts.fault_seed, 99);

        // Floors: zero deadlines/thresholds/cooldowns make no sense.
        let CliCommand::Serve(opts) = parse_args(&argv(
            "serve --deadline-ms 0 --breaker 0 --breaker-cooldown-ms 0",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(opts.deadline_ms, Some(1));
        assert_eq!(opts.breaker_threshold, Some(1));
        assert_eq!(opts.breaker_cooldown_ms, 1);
        assert!(USAGE.contains("--fault-plan"));
        assert!(USAGE.contains("--breaker"));
        assert!(USAGE.contains("--degraded"));
    }

    #[test]
    fn serve_telemetry_flags_parse_and_default_off() {
        // Telemetry is opt-in: no debug surface, 1 % sampling, no SLO,
        // info-level logging by default.
        let defaults = ServeOptions::default();
        assert!(!defaults.debug_endpoints);
        assert_eq!(defaults.trace_sample, 0.01);
        assert!(defaults.slo.is_none());
        assert_eq!(defaults.log_level, mule_obs::log::Severity::Info);

        let cmd = parse_args(&argv(
            "serve --debug-endpoints --trace-sample 0.5 \
             --slo p99_ms=250,availability=99.9 --log-level debug",
        ))
        .unwrap();
        let CliCommand::Serve(opts) = cmd else {
            panic!()
        };
        assert!(opts.debug_endpoints);
        assert_eq!(opts.trace_sample, 0.5);
        let slo = opts.slo.unwrap();
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
    fn loadgen_duration_warmup_and_slo_flags() {
        let defaults = LoadgenOptions::default();
        assert!(defaults.duration_s.is_none());
        assert_eq!(defaults.warmup, 0);
        assert!(defaults.slo.is_none());

        let cmd = parse_args(&argv(
            "loadgen --duration-s 30 --warmup 100 --slo p99_ms=250",
        ))
        .unwrap();
        let CliCommand::Loadgen(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.duration_s, Some(30.0));
        assert_eq!(opts.warmup, 100);
        assert_eq!(opts.slo.unwrap().p99_ms, Some(250.0));

        // A non-positive duration would spin forever or not at all.
        assert!(matches!(
            parse_args(&argv("loadgen --duration-s 0")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--duration-s"
        ));
        assert!(matches!(
            parse_args(&argv("loadgen --slo availability=250")).unwrap_err(),
            CliError::InvalidValue { flag, .. } if flag == "--slo"
        ));
        assert!(USAGE.contains("--duration-s"));
        assert!(USAGE.contains("--warmup"));
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
        assert_eq!(opts.targets, 8);
        assert_eq!(opts.mules, 3);
        assert_eq!(opts.planner, PlannerChoice::Chb);
        assert_eq!(opts.fault_plan.as_deref(), Some("serve.plan=panic#2"));
        assert_eq!(opts.deadline_ms, 300);

        assert!(matches!(
            parse_args(&argv("chaos --addr 127.0.0.1:1")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(USAGE.contains("chaos"));
    }

    #[test]
    fn loadgen_defaults_flags_and_gates() {
        let CliCommand::Loadgen(opts) = parse_args(&argv("loadgen")).unwrap() else {
            panic!("expected loadgen");
        };
        assert_eq!(opts, LoadgenOptions::default());
        assert_eq!(opts.requests, 1000);
        assert_eq!(opts.connections, 4);
        assert!(opts.max_p99_ms.is_none());

        let cmd = parse_args(&argv(
            "loadgen --addr 127.0.0.1:7979 --requests 2000 --connections 8 --spec-pool 16 \
             --targets 12 --mules 3 --seed 9 --planner chb --json BENCH_server.json \
             --max-p99 250 --min-rps 50",
        ))
        .unwrap();
        let CliCommand::Loadgen(opts) = cmd else {
            panic!()
        };
        assert_eq!(opts.addr, "127.0.0.1:7979");
        assert_eq!(opts.requests, 2000);
        assert_eq!(opts.connections, 8);
        assert_eq!(opts.spec_pool, 16);
        assert_eq!(opts.targets, 12);
        assert_eq!(opts.mules, 3);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.planner, PlannerChoice::Chb);
        assert_eq!(opts.json_path.as_deref(), Some("BENCH_server.json"));
        assert_eq!(opts.max_p99_ms, Some(250.0));
        assert_eq!(opts.min_rps, Some(50.0));

        let CliCommand::Loadgen(opts) = parse_args(&argv("loadgen --retries 0")).unwrap() else {
            panic!()
        };
        assert_eq!(opts.retries, 0, "--retries 0 disables retrying");
        assert_eq!(LoadgenOptions::default().retries, 3);

        assert!(matches!(
            parse_args(&argv("loadgen --svg x.svg")).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse_args(&argv("loadgen --max-p99 fast")).unwrap_err(),
            CliError::InvalidValue { .. }
        ));
        assert!(USAGE.contains("loadgen"));
        assert!(USAGE.contains("--max-p99"));
        assert!(USAGE.contains("--min-rps"));
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
        assert_eq!(opts.slow_ms, Some(250.0));
        assert!(ServeOptions::default().slow_ms.is_none());

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
}
