//! `serve-mixed`: one `POST /v1/plan` per operation to an in-process
//! `mule_serve::start` daemon (ephemeral port, 2 workers, default 128-entry
//! plan cache), over 2 keep-alive connections in a closed loop.
//!
//! Each connection sends blocks of 5 requests — 4 to a 32-spec hot pool
//! warmed during set-up (cache hits, visited in a fixed cyclic order) and 1
//! never-seen spec (a miss, planned on the exact CHB path), its slot in
//! the block drawn from the seed. Fresh specs cycle through 9 classes
//! (20/50/100 targets × B-TCTP, W-TCTP Balancing with 5 VIPs of weight 3,
//! RW-TCTP with a recharge station), and a connection stops only after a
//! whole 45-request round, so hits are exactly 80 % of requests and every
//! miss class has the same share.

use crate::client::{Connection, Response};
use crate::layers::{self, timed, Layers};
use crate::reference::Timeline;
use crate::report::Report;
use crate::{mix, ms_since, repeated_setup, stats, Options};
use mule_serve::api::{plan_response_json, spec_to_json};
use mule_serve::json::{parse, JsonValue};
use mule_serve::{start, ServerConfig, ServerHandle};
use mule_workload::ScenarioSpec;
use std::time::{Duration, Instant};

const PLANNERS: [&str; 3] = ["b-tctp", "w-tctp-balancing", "rw-tctp"];
const SIZES: [usize; 3] = [20, 50, 100];
const CLASSES: u64 = 9;
const HOT_POOL: usize = 32;
const CONNECTIONS: usize = 2;
const BLOCK: u64 = 5;
/// Requests per connection between deadline checks: 9 blocks, one fresh
/// spec of each class.
const ROUND: u64 = BLOCK * CLASSES;
/// Length of one part of the timed window; the reference is timed
/// [`REFERENCES_PER_PART`] times after each.
const PART: Duration = Duration::from_millis(500);
const REFERENCES_PER_PART: usize = 6;
/// Tag bit of fresh-spec seeds; hot-pool seeds never carry it.
const FRESH_TAG: u64 = 1 << 63;
/// Fresh responses kept per connection for the byte-identity check.
const MAX_FRESH_SAMPLES: usize = 24;

/// A spec of class `class` (size × planner) with `seed`.
fn class_spec(class: u64, seed: u64) -> ScenarioSpec {
    let planner = PLANNERS[(class % 3) as usize];
    let balancing = planner == "w-tctp-balancing";
    ScenarioSpec {
        targets: SIZES[(class / 3) as usize % 3],
        mules: 4,
        seed,
        vips: if balancing { 5 } else { 0 },
        vip_weight: if balancing { 3 } else { 2 },
        recharge: planner == "rw-tctp",
        planner: planner.to_string(),
        ..ScenarioSpec::default()
    }
}

fn hot_spec(seed: u64, k: usize) -> ScenarioSpec {
    class_spec(k as u64 % CLASSES, mix(seed, k as u64) & !FRESH_TAG)
}

/// The `n`-th never-seen spec connection `connection` sends.
fn fresh_spec(seed: u64, connection: u64, n: u64) -> ScenarioSpec {
    class_spec(n % CLASSES, mix(mix(seed, connection + 1), n) | FRESH_TAG)
}

/// Fresh specs (of connection 0) that join the hot pool in the quality
/// figure, so it averages over a fixed, larger set of served plans.
const QUALITY_FRESH: u64 = 96;

fn body_of(spec: &ScenarioSpec) -> Vec<u8> {
    spec_to_json(spec).to_json_string().into_bytes()
}

/// The hot pool with its request bodies and expected response bytes.
struct HotPool {
    bodies: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

impl HotPool {
    fn new(seed: u64) -> Result<Self, String> {
        let specs: Vec<ScenarioSpec> = (0..HOT_POOL).map(|k| hot_spec(seed, k)).collect();
        let expected = specs
            .iter()
            .map(|s| plan_response_json(s).map(String::into_bytes))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("hot spec does not plan: {e}"))?;
        Ok(HotPool {
            bodies: specs.iter().map(body_of).collect(),
            expected,
        })
    }

    /// Mean `max_cycle_length_m` over the pool's plans and the first
    /// [`QUALITY_FRESH`] fresh specs of connection 0 (planned again here;
    /// the planners are deterministic).
    fn mean_max_cycle(&self, seed: u64) -> f64 {
        let mut lengths: Vec<f64> = self
            .expected
            .iter()
            .filter_map(|b| {
                let doc = parse(std::str::from_utf8(b).ok()?).ok()?;
                doc.get("max_cycle_length_m").and_then(JsonValue::as_f64)
            })
            .collect();
        for n in 0..QUALITY_FRESH {
            let spec = fresh_spec(seed, 0, n);
            let planner = mule_serve::api::build_planner(&spec.planner).expect("benchmark planner");
            if let Ok(plan) = planner.plan(&spec.scenario_config().generate()) {
                lengths.push(plan.max_cycle_length());
            }
        }
        stats::mean(&lengths)
    }
}

/// One client connection and its position in its request sequence.
struct Client {
    conn: Connection,
    index: u64,
    seed: u64,
    sent: u64,
    hot_sent: u64,
    fresh_sent: u64,
}

/// What one connection saw in one measured window.
#[derive(Default)]
struct Tally {
    hot_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    /// Latencies in send order (both classes).
    all_ms: Vec<f64>,
    hits: u64,
    coalesced: u64,
    rejected: u64,
    body_bytes: u64,
    problems: Vec<String>,
    failed: u64,
    fresh_samples: Vec<(ScenarioSpec, Vec<u8>)>,
}

impl Tally {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.hot_ms.extend(other.hot_ms);
        self.fresh_ms.extend(other.fresh_ms);
        self.all_ms.extend(other.all_ms);
        self.hits += other.hits;
        self.coalesced += other.coalesced;
        self.rejected += other.rejected;
        self.body_bytes += other.body_bytes;
        self.problems.extend(other.problems);
        self.failed += other.failed;
        self.fresh_samples.extend(other.fresh_samples);
    }

    fn requests(&self) -> u64 {
        self.all_ms.len() as u64
    }

    /// Moves the request and failure counts into the report.
    fn settle(&mut self, report: &mut Report) {
        report.attempted += self.requests();
        report.add_failures(self.failed, std::mem::take(&mut self.problems));
        self.failed = 0;
    }
}

impl Client {
    /// Runs whole 45-request rounds until `deadline` (at least one round).
    fn run_rounds(&mut self, hot: &HotPool, deadline: Instant) -> Tally {
        let mut tally = Tally::default();
        loop {
            for _ in 0..ROUND {
                self.one_request(hot, &mut tally);
            }
            if Instant::now() >= deadline {
                return tally;
            }
        }
    }

    fn one_request(&mut self, hot: &HotPool, tally: &mut Tally) {
        let block = self.sent / BLOCK;
        let fresh_slot = mix(self.seed ^ self.index, block) % BLOCK;
        let is_fresh = self.sent % BLOCK == fresh_slot;
        // Connections walk the hot pool from opposite ends of the cycle.
        let hot_k = (self.hot_sent + self.index * HOT_POOL as u64 / 2) as usize % HOT_POOL;
        let fresh_spec = if is_fresh {
            let n = self.fresh_sent;
            self.fresh_sent += 1;
            Some(fresh_spec(self.seed, self.index, n))
        } else {
            self.hot_sent += 1;
            None
        };
        let fresh_body = fresh_spec.as_ref().map(body_of);
        let body: &[u8] = fresh_body.as_deref().unwrap_or(&hot.bodies[hot_k]);
        self.sent += 1;

        let start = Instant::now();
        let result = self.conn.request("POST", "/v1/plan", body);
        let ms = ms_since(start);
        tally.all_ms.push(ms);
        if is_fresh {
            tally.fresh_ms.push(ms);
        } else {
            tally.hot_ms.push(ms);
        }
        let response = match result {
            Ok(r) => r,
            Err(e) => return tally.fail(format!("connection {}: {e}", self.index)),
        };
        tally.body_bytes += response.body.len() as u64;
        if response.status == 503 {
            tally.rejected += 1;
        }
        let class = response.x_cache.as_deref().unwrap_or("");
        match class {
            "hit" => tally.hits += 1,
            "coalesced" => tally.coalesced += 1,
            _ => {}
        }
        let planned = if is_fresh { "miss" } else { "hit" };
        if response.status != 200 || class != planned {
            return tally.fail(format!(
                "connection {}: status {} X-Cache `{class}` for a planned {planned}",
                self.index, response.status
            ));
        }
        match fresh_spec {
            None => {
                if response.body != hot.expected[hot_k] {
                    tally.fail(format!(
                        "hot spec {hot_k}: cached bytes differ from the plan"
                    ));
                }
            }
            Some(spec) => {
                let keep = mix(self.seed, spec.seed).is_multiple_of(4);
                if keep && tally.fresh_samples.len() < MAX_FRESH_SAMPLES {
                    tally.fresh_samples.push((spec, response.body));
                }
            }
        }
    }
}

/// A running daemon with its clients and hot pool. Clients are declared
/// first so they close before the server shuts down (its workers would
/// otherwise wait out the idle timeout on open keep-alive connections).
struct Rig {
    clients: Vec<Client>,
    hot: HotPool,
    _server: ServerHandle,
}

impl Rig {
    /// Starts a daemon, warms the hot pool through it (every spec a miss
    /// with the in-process bytes), then runs one untimed round per
    /// connection.
    fn start(seed: u64, debug_endpoints: bool, report: &mut Report) -> Result<Rig, String> {
        let server = start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            debug_endpoints,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("daemon did not start: {e}"))?;
        let hot = HotPool::new(seed)?;
        let mut clients = (0..CONNECTIONS as u64)
            .map(|index| {
                Ok(Client {
                    conn: Connection::open(server.addr())?,
                    index,
                    seed,
                    sent: 0,
                    hot_sent: 0,
                    fresh_sent: 0,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("cannot connect: {e}"))?;
        for (k, body) in hot.bodies.iter().enumerate() {
            report.attempted += 1;
            match clients[0].conn.request("POST", "/v1/plan", body) {
                Ok(Response {
                    status: 200,
                    x_cache: Some(class),
                    body,
                }) if class == "miss" && body == hot.expected[k] => {}
                Ok(r) => report.fail(format!(
                    "warming hot spec {k}: status {} X-Cache {:?}",
                    r.status, r.x_cache
                )),
                Err(e) => return Err(format!("warming hot spec {k}: {e}")),
            }
        }
        let mut rig = Rig {
            clients,
            hot,
            _server: server,
        };
        let mut warm = rig.run_window(Instant::now());
        warm.settle(report);
        verify_fresh_samples(&warm.fresh_samples, report);
        Ok(rig)
    }

    /// Every connection runs whole rounds until `deadline`, concurrently.
    fn run_window(&mut self, deadline: Instant) -> Tally {
        let hot = &self.hot;
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| s.spawn(move || client.run_rounds(hot, deadline)))
                .collect();
            let mut total = Tally::default();
            for h in handles {
                total.absorb(h.join().expect("client thread panicked"));
            }
            total
        })
    }

    /// `GET path` on the first client's connection (each open keep-alive
    /// connection holds one of the daemon's two workers, so a third
    /// connection would wait for an idle timeout), body as text.
    fn get(&mut self, path: &str) -> Result<String, String> {
        let response = self.clients[0]
            .conn
            .request("GET", path, b"")
            .map_err(|e| format!("GET {path}: {e}"))?;
        if response.status != 200 {
            return Err(format!("GET {path}: status {}", response.status));
        }
        String::from_utf8(response.body).map_err(|_| format!("GET {path}: not UTF-8"))
    }
}

/// Fresh responses must be byte-identical to the in-process plan.
fn verify_fresh_samples(samples: &[(ScenarioSpec, Vec<u8>)], report: &mut Report) {
    for (spec, body) in samples {
        match plan_response_json(spec) {
            Ok(expected) if expected.as_bytes() == body.as_slice() => {}
            Ok(_) => report.fail(format!(
                "fresh seed {}: served bytes differ from the plan",
                spec.seed
            )),
            Err(e) => report.fail(format!("fresh seed {}: {e}", spec.seed)),
        }
    }
}

/// A timed window: measures, then checks the sampled fresh bodies.
fn measured_window(rig: &mut Rig, seconds: f64, report: &mut Report) -> (Tally, f64) {
    let start = Instant::now();
    let mut tally = rig.run_window(start + Duration::from_secs_f64(seconds));
    let wall_s = start.elapsed().as_secs_f64();
    tally.settle(report);
    verify_fresh_samples(&tally.fresh_samples, report);
    (tally, wall_s)
}

pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut rig, setups) = repeated_setup(|| Rig::start(options.seed, false, &mut report))?;
    if options.trace {
        traced(options, rig, &mut report)?;
        return Ok(report);
    }
    // The timed window runs in parts of whole rounds; the reference is
    // timed between parts, while the connections are idle, and each part's
    // latencies are measured against the references on both sides of it.
    let deadline = Instant::now() + Duration::from_secs_f64(options.seconds);
    let mut timeline = Timeline::default();
    let mut tally = Tally::default();
    while tally.requests() == 0 || Instant::now() < deadline {
        let part = rig.run_window((Instant::now() + PART).min(deadline));
        timeline.extend(&part.all_ms);
        for _ in 0..REFERENCES_PER_PART {
            timeline.reference();
        }
        tally.absorb(part);
        // Keep as many fresh bodies to check as one window would.
        tally
            .fresh_samples
            .truncate(CONNECTIONS * MAX_FRESH_SAMPLES);
    }
    tally.settle(&mut report);
    verify_fresh_samples(&tally.fresh_samples, &mut report);
    report.note(format!(
        "{} requests: {} hits, {} misses over {CONNECTIONS} connections",
        tally.requests(),
        tally.hits,
        tally.fresh_ms.len()
    ));
    report.end_to_end(
        &setups,
        timeline,
        CONNECTIONS,
        rig.hot.mean_max_cycle(options.seed),
    );
    Ok(report)
}

fn percentile_ms(samples: &[f64], q: f64) -> f64 {
    stats::percentile(samples, q).map_or(0.0, |p| p.value)
}

/// The traced run: a window on the plain daemon (client-side class
/// latencies), a window on a daemon with its debug endpoints on (span
/// self times from `GET /debug/profile`; the ratio of the two windows'
/// throughput is the telemetry overhead), then the serving layer's public
/// calls timed one by one on fresh specs.
fn traced(options: &Options, mut rig: Rig, report: &mut Report) -> Result<(), String> {
    let mut layers = Layers::default();
    let window = options.seconds * 0.35;

    let (plain, plain_s) = measured_window(&mut rig, window, report);
    let requests = plain.requests() as f64;
    layers.set("serve.hit_p50_ms", percentile_ms(&plain.hot_ms, 0.5));
    layers.set("serve.hit_p90_ms", percentile_ms(&plain.hot_ms, 0.9));
    layers.set("serve.miss_p50_ms", percentile_ms(&plain.fresh_ms, 0.5));
    layers.set("serve.miss_p90_ms", percentile_ms(&plain.fresh_ms, 0.9));
    layers.set("serve.hit_ratio", plain.hits as f64 / requests);
    layers.set("serve.coalesced", plain.coalesced as f64);
    layers.set("serve.rejected_503", plain.rejected as f64);
    layers.set(
        "serve.response_kb",
        plain.body_bytes as f64 / 1024.0 / requests,
    );
    drop(rig);

    let mut debug_rig = Rig::start(options.seed, true, report)?;
    debug_rig.get("/debug/profile")?; // drop the warm-up's spans
    let (debug, debug_s) = measured_window(&mut debug_rig, window, report);
    let profile = debug_rig.get("/debug/profile")?;
    drop(debug_rig);
    layers.set(
        "obs.trace_overhead",
        (debug.requests() as f64 / debug_s) / (requests / plain_s),
    );
    span_self_times(&profile, stats::mean(&debug.all_ms), &mut layers)?;

    // The serving layer's public calls, and the planning they wrap, on
    // fresh specs of every class.
    let until = Instant::now() + Duration::from_secs_f64(options.seconds * 0.3);
    let mut n = 0u64;
    while Instant::now() < until || n < CLASSES {
        let spec = class_spec(n % CLASSES, mix(options.seed, n) | FRESH_TAG);
        n += 1;
        report.attempted += 1;
        let (result, response_ms) = timed(|| plan_response_json(&spec));
        let Ok(response) = result else {
            report.fail(format!("fresh seed {}: does not plan", spec.seed));
            continue;
        };
        layers.add("serve.plan_response_ms", response_ms);
        let (scenario, generate_ms) = timed(|| spec.scenario_config().generate());
        layers.add("workload.generate_ms", generate_ms);
        match layers::time_planner(&spec.planner, &scenario, &mut layers) {
            Ok((_, plan_ms)) => {
                layers.add("serve.serialize_ms", response_ms - generate_ms - plan_ms)
            }
            Err(e) => report.fail(format!("fresh seed {}: {e}", spec.seed)),
        }
        layers::replay_exact_path(
            &scenario.patrolled_positions(),
            scenario.metric(),
            &mut layers,
        );
        if spec.planner == "w-tctp-balancing" {
            layers::time_wpp_balancing(&scenario, &mut layers);
        }
        layers::serve_public_calls(&spec, response.into_bytes(), &mut layers);
    }
    layers.emit(report);
    Ok(())
}

/// Per-request self time of each `request.*` span the daemon recorded,
/// the self time of the planning spans nested under them, and the client
/// latency no server span covers.
fn span_self_times(profile: &str, client_mean_ms: f64, layers: &mut Layers) -> Result<(), String> {
    let doc = parse(profile).map_err(|e| format!("/debug/profile: {e}"))?;
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("/debug/profile has no entries")?;
    let field = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_u64).unwrap_or(0) as f64;
    let requests = entries
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("request"))
        .map(|e| (field(e, "count"), field(e, "total_ns")))
        .filter(|&(count, _)| count > 0.0)
        .ok_or("/debug/profile has no request spans")?;
    let per_request_us = |ns: f64| ns / 1e3 / requests.0;
    let mut planning_ns = 0.0;
    for e in entries {
        let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let self_ns = field(e, "self_ns");
        let metric = match name {
            "request" => "serve.request_self_us",
            "request.parse" => "serve.request.parse_self_us",
            "request.fingerprint" => "serve.request.fingerprint_self_us",
            "request.cache_lookup" => "serve.request.cache_lookup_self_us",
            "request.plan" => "serve.request.plan_self_us",
            "request.serialize" => "serve.request.serialize_self_us",
            _ => {
                planning_ns += self_ns;
                continue;
            }
        };
        layers.set(metric, per_request_us(self_ns));
    }
    layers.set("serve.plan_spans_self_us", per_request_us(planning_ns));
    layers.set(
        "serve.unattributed_ms",
        client_mean_ms - requests.1 / 1e6 / requests.0,
    );
    Ok(())
}
