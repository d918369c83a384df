//! Fault-injection and graceful-degradation tests over real TCP sockets:
//! a panicking single-flight leader never strands its coalesced waiters,
//! compute deadlines answer `504` and count on `/metrics`, a panicking
//! simulate answers `500` and counts against its breaker, the per-route
//! circuit breaker opens / probes / closes, degraded mode serves the
//! last-good bytes with `X-Cache: stale`, and a panicking connection
//! handler costs one connection, not a worker or an admission slot.
//!
//! Every test that arms a [`mule_fault`] plan holds `FAULT_LOCK`: the
//! armed plan is process-global, so armed tests and disarmed controls
//! must not overlap (a concurrent visit could steal a `#1`-limited
//! firing).

use mule_serve::http::{read_response, write_request, ClientResponse};
use mule_serve::{plan_response_json, ServerConfig, ServerHandle};
use mule_workload::ScenarioSpec;
use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Disarms the global fault plan on drop, so a failing assertion in one
/// test cannot leave the plan armed for the next.
struct Armed;

impl Armed {
    fn plan(seed: u64, spec: &str) -> Armed {
        mule_fault::silence_injected_panics();
        mule_fault::arm(mule_fault::FaultPlan::parse(seed, spec).expect("fault plan"));
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        mule_fault::disarm();
    }
}

fn test_server(config: ServerConfig) -> ServerHandle {
    mule_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        idle_timeout: Duration::from_millis(300),
        ..config
    })
    .expect("server start")
}

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        targets: 9,
        mules: 3,
        seed: 11,
        ..ScenarioSpec::default()
    }
}

fn spec_body() -> Vec<u8> {
    mule_serve::api::spec_to_json(&spec())
        .to_json_string()
        .into_bytes()
}

/// The byte-exact response an un-faulted server must produce for
/// [`spec`], computed offline.
fn expected_bytes() -> Vec<u8> {
    plan_response_json(&spec())
        .expect("offline plan")
        .into_bytes()
}

fn post_plan(server: &ServerHandle, body: &[u8]) -> ClientResponse {
    post(server, "/v1/plan", body)
}

fn post(server: &ServerHandle, path: &str, body: &[u8]) -> ClientResponse {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_request(&mut writer, "POST", path, body, true).expect("write request");
    read_response(&mut reader).expect("read response")
}

/// One `GET` on a fresh `Connection: close` connection, read to EOF so
/// the server has closed it (and released its admission slot) before the
/// next connect; `None` means the exchange died at the transport (the
/// server dropped the connection or refused it). The read timeout keeps a
/// server that stopped serving from hanging the test.
fn get(server: &ServerHandle, path: &str) -> Option<ClientResponse> {
    let stream = TcpStream::connect(server.addr()).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    write_request(&mut writer, "GET", path, b"", false).ok()?;
    let response = read_response(&mut reader).ok()?;
    reader.read_to_end(&mut Vec::new()).ok()?;
    Some(response)
}

#[test]
fn a_panicking_connection_handler_costs_one_connection() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Each of the first two connections panics in its handler. With two
    // workers and two admission slots, a panic that killed its worker or
    // leaked its slot would leave nothing to serve the rest.
    let _armed = Armed::plan(7, "serve.conn.read=panic#2");
    let server = test_server(ServerConfig {
        workers: 2,
        queue_depth: 2,
        ..ServerConfig::default()
    });

    for i in 0..2 {
        let dropped = get(&server, "/healthz");
        assert!(dropped.is_none(), "exchange {i} survived: {dropped:?}");
    }
    for i in 0..4 {
        let healthy = get(&server, "/healthz").map(|r| r.status);
        assert_eq!(healthy, Some(200), "healthz {i} after the panics");
    }

    let metrics = get(&server, "/metrics").expect("metrics scrape");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_text();
    assert!(
        text.contains("mule_fault_injected_total{point=\"serve.conn.read\",kind=\"panic\"} 2"),
        "both panics counted:\n{text}"
    );
    assert!(
        text.contains("mule_connection_panics_total 2"),
        "both lost connections counted:\n{text}"
    );
    // The scrape renders before its own request is counted, so the four
    // answered health checks are every request on record.
    let requests: u64 = text
        .lines()
        .filter(|line| line.starts_with("mule_requests_total{"))
        .map(|line| line.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(requests, 4, "{text}");
    server.shutdown();
}

#[test]
fn a_job_panic_before_the_handler_runs_drops_only_its_connection() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // `par.job` fires at dispatch, before the connection's handler runs:
    // the un-run job is dropped with its connection and admission slot,
    // and the one worker takes the next connection.
    let _armed = Armed::plan(7, "par.job=panic#1");
    let server = test_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    let dropped = get(&server, "/healthz");
    assert!(
        dropped.is_none(),
        "the first exchange survived: {dropped:?}"
    );
    for i in 0..2 {
        let healthy = get(&server, "/healthz").map(|r| r.status);
        assert_eq!(healthy, Some(200), "healthz {i} after the panic");
    }
    let metrics = server.metrics_prometheus();
    assert!(metrics.contains("mule_fault_injected_total{point=\"par.job\",kind=\"panic\"} 1"));
    assert!(
        metrics.contains("mule_connection_panics_total 1"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn a_panicking_single_flight_leader_does_not_strand_its_waiters() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Exactly one compute panics (`#1`); whichever request leads the
    // single-flight group eats it. Everyone else must still get the
    // byte-exact plan — waiters are woken and one of them recomputes.
    let _armed = Armed::plan(7, "serve.plan=panic#1");
    let server = test_server(ServerConfig::default());

    let responses: Vec<ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| post_plan(&server, &spec_body())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let failures: Vec<&ClientResponse> = responses.iter().filter(|r| r.status == 500).collect();
    let successes: Vec<&ClientResponse> = responses.iter().filter(|r| r.status == 200).collect();
    assert_eq!(failures.len(), 1, "exactly the leader fails: {responses:?}");
    assert_eq!(successes.len(), 3);
    assert!(
        failures[0].body_text().contains("injected panic"),
        "the 500 names the injected panic: {}",
        failures[0].body_text()
    );
    let expected = expected_bytes();
    for ok in &successes {
        assert_eq!(ok.body, expected, "survivors serve the exact plan bytes");
    }

    // The error was not cached: a fresh request recomputes (the fault's
    // one firing is spent) and the successful bytes are now a cache hit.
    let retry = post_plan(&server, &spec_body());
    assert_eq!(retry.status, 200);
    assert_eq!(retry.body, expected);
    assert_eq!(retry.header("x-cache"), Some("hit"));
    assert_eq!(mule_fault::firings_total(), 1);
    server.shutdown();
}

#[test]
fn a_compute_overrunning_the_deadline_answers_504_and_counts_it() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The injected 2 s delay dwarfs the 50 ms deadline, so the worker
    // walks away with a 504 while the helper thread finishes unobserved.
    let _armed = Armed::plan(7, "serve.plan=delay:2000#1");
    let server = test_server(ServerConfig {
        deadline: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    });

    let response = post_plan(&server, &spec_body());
    assert_eq!(response.status, 504);
    assert!(
        response.body_text().contains("deadline"),
        "the 504 explains itself: {}",
        response.body_text()
    );

    let metrics = server.metrics_prometheus();
    assert!(
        metrics.contains("mule_deadline_exceeded_total{stage=\"compute\"} 1"),
        "compute deadline counted on /metrics:\n{metrics}"
    );
    assert!(metrics.contains("mule_fault_injected_total{point=\"serve.plan\",kind=\"delay\"} 1"));
    server.shutdown();
}

#[test]
fn a_simulate_overrunning_the_deadline_answers_504_and_opens_its_breaker() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // One replica's injected 2 s delay overruns the 200 ms deadline. The
    // 504 counts as a compute deadline and, at threshold 1, opens the
    // simulate breaker; the plan route keeps its own closed breaker.
    let _armed = Armed::plan(7, "sweep.replica=delay:2000#1");
    let server = test_server(ServerConfig {
        deadline: Some(Duration::from_millis(200)),
        breaker_threshold: Some(1),
        breaker_cooldown: Duration::from_secs(60),
        ..ServerConfig::default()
    });
    let body = br#"{"spec": {"targets": 6, "horizon_s": 5000.0}, "replicas": 3}"#;

    let timed_out = post(&server, "/v1/simulate", body);
    assert_eq!(timed_out.status, 504);
    assert!(
        timed_out
            .body_text()
            .contains("simulate compute deadline exceeded"),
        "{}",
        timed_out.body_text()
    );
    let metrics = server.metrics_prometheus();
    assert!(
        metrics.contains("mule_deadline_exceeded_total{stage=\"compute\"} 1"),
        "{metrics}"
    );

    let rejected = post(&server, "/v1/simulate", body);
    assert_eq!(rejected.status, 503, "open breaker fails fast");
    assert_eq!(rejected.header("x-breaker"), Some("open"));

    let plan = post_plan(&server, &spec_body());
    assert_eq!(plan.status, 200, "breakers are per route");
    assert_eq!(plan.body, expected_bytes());
    server.shutdown();
}

#[test]
fn a_panicking_simulate_answers_500_and_counts_against_its_breaker() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The one injected panic answers 500 and, at threshold 1, opens the
    // simulate breaker; the plan route keeps its own closed breaker, and
    // after the cooldown a half-open probe simulates and closes it again.
    let _armed = Armed::plan(7, "serve.simulate=panic#1");
    let server = test_server(ServerConfig {
        breaker_threshold: Some(1),
        breaker_cooldown: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let body = br#"{"spec": {"targets": 6, "horizon_s": 5000.0}, "replicas": 2}"#;

    let panicked = post(&server, "/v1/simulate", body);
    assert_eq!(panicked.status, 500);
    let text = panicked.body_text();
    assert!(
        text.contains("simulation panicked") && text.contains("injected panic"),
        "{text}"
    );
    let metrics = server.metrics_prometheus();
    assert!(
        metrics.contains("mule_breaker_state{route=\"simulate\"} 1"),
        "the panic counts against the simulate breaker:\n{metrics}"
    );
    assert!(metrics.contains("mule_breaker_state{route=\"plan\"} 0"));
    assert!(
        metrics.contains("mule_fault_injected_total{point=\"serve.simulate\",kind=\"panic\"} 1")
    );

    let plan = post_plan(&server, &spec_body());
    assert_eq!(plan.status, 200, "breakers are per route");
    assert_eq!(plan.body, expected_bytes());

    std::thread::sleep(Duration::from_millis(150));
    let probed = post(&server, "/v1/simulate", body);
    assert_eq!(probed.status, 200, "{}", probed.body_text());
    let metrics = server.metrics_prometheus();
    assert!(
        metrics.contains("mule_breaker_transitions_total{route=\"simulate\",to=\"closed\"} 1"),
        "{metrics}"
    );
    assert_eq!(mule_fault::firings_total(), 1);
    server.shutdown();
}

#[test]
fn the_breaker_opens_after_consecutive_panics_and_closes_after_a_probe() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Two panics trip the threshold-2 breaker; the third request fails
    // fast without computing. After the cooldown a half-open probe runs
    // the (now fault-exhausted) compute and closes the breaker again.
    let _armed = Armed::plan(7, "serve.plan=panic#2");
    let server = test_server(ServerConfig {
        breaker_threshold: Some(2),
        breaker_cooldown: Duration::from_millis(100),
        ..ServerConfig::default()
    });

    assert_eq!(post_plan(&server, &spec_body()).status, 500);
    assert_eq!(post_plan(&server, &spec_body()).status, 500);

    let rejected = post_plan(&server, &spec_body());
    assert_eq!(rejected.status, 503, "open breaker fails fast");
    assert_eq!(rejected.header("x-breaker"), Some("open"));
    assert!(rejected.header("retry-after").is_some());
    let metrics = server.metrics_prometheus();
    assert!(
        metrics.contains("mule_breaker_state{route=\"plan\"} 1"),
        "{metrics}"
    );
    assert!(metrics.contains("mule_breaker_fast_fail_total{route=\"plan\"} 1"));

    std::thread::sleep(Duration::from_millis(150));
    let probed = post_plan(&server, &spec_body());
    assert_eq!(probed.status, 200, "half-open probe succeeds");
    assert_eq!(probed.body, expected_bytes());

    let metrics = server.metrics_prometheus();
    assert!(
        metrics.contains("mule_breaker_state{route=\"plan\"} 0"),
        "{metrics}"
    );
    assert!(metrics.contains("mule_breaker_transitions_total{route=\"plan\",to=\"open\"} 1"));
    assert!(metrics.contains("mule_breaker_transitions_total{route=\"plan\",to=\"closed\"} 1"));
    server.shutdown();
}

#[test]
fn degraded_mode_serves_the_last_good_bytes_when_the_compute_fails() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = test_server(ServerConfig {
        degraded: true,
        ..ServerConfig::default()
    });

    // Prime the last-good store with a clean compute.
    let fresh = post_plan(&server, &spec_body());
    assert_eq!(fresh.status, 200);
    assert_eq!(fresh.header("x-cache"), Some("miss"));

    // Evict the primary entry AND panic the recompute: the only way to
    // answer 200 is the stale store.
    let _armed = Armed::plan(7, "serve.cache=evict#1,serve.plan=panic#1");
    let stale = post_plan(&server, &spec_body());
    assert_eq!(stale.status, 200, "degraded mode masks the failure");
    assert_eq!(stale.header("x-cache"), Some("stale"));
    assert!(stale
        .header("warning")
        .is_some_and(|w| w.contains("stale-on-error")));
    assert_eq!(
        stale.body, fresh.body,
        "stale bytes are the last good bytes"
    );

    let metrics = server.metrics_prometheus();
    assert!(metrics.contains("mule_stale_served_total 1"), "{metrics}");
    server.shutdown();
}

#[test]
fn a_disarmed_server_shows_zero_injected_faults() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = test_server(ServerConfig::default());
    let response = post_plan(&server, &spec_body());
    assert_eq!(response.status, 200);
    assert_eq!(response.body, expected_bytes());
    assert_eq!(mule_fault::firings_total(), 0);
    assert!(!server
        .metrics_prometheus()
        .contains("mule_fault_injected_total{"));
    server.shutdown();
}

#[test]
fn fired_faults_are_counted_on_metrics() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = test_server(ServerConfig::default());

    // Fire one delay on the plan compute, then scrape.
    let _armed = Armed::plan(7, "serve.plan=delay:1#1");
    let response = post_plan(&server, &spec_body());
    assert_eq!(response.status, 200);

    let prom = server.metrics_prometheus();
    assert!(
        prom.contains("mule_fault_injected_total{point=\"serve.plan\",kind=\"delay\"} 1"),
        "{prom}"
    );
    server.shutdown();
}
