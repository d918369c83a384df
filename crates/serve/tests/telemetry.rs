//! End-to-end tests of the live-telemetry surface over real TCP: the
//! `GET /debug/*` introspection endpoints, head-based trace sampling with
//! slow/error tail promotion, the `X-Trace-Id` correlation between
//! responses, ring records and structured log lines, and the SLO
//! burn-rate gauges on `/metrics`.

use mule_serve::http::{read_response, write_request, ClientResponse};
use mule_serve::json::{parse, JsonValue};
use mule_serve::{ServerConfig, ServerHandle};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A keep-alive client connection to the test server.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &ServerHandle) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> ClientResponse {
        write_request(&mut self.writer, method, path, body, true).expect("write request");
        read_response(&mut self.reader).expect("read response")
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

fn debug_server(config: ServerConfig) -> ServerHandle {
    test_server(ServerConfig {
        debug_endpoints: true,
        ..config
    })
}

fn small_spec_body() -> Vec<u8> {
    br#"{"targets": 8, "mules": 3, "seed": 4}"#.to_vec()
}

#[test]
fn debug_endpoints_404_without_the_flag() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);
    for path in [
        "/debug/traces",
        "/debug/requests",
        "/debug/profile",
        "/debug/alloc",
        "/debug/events",
    ] {
        let response = client.request("GET", path, b"");
        assert_eq!(response.status, 404, "{path} must be gated");
    }
    server.shutdown();
}

#[test]
fn debug_endpoints_expose_valid_json_documents() {
    let server = debug_server(ServerConfig {
        trace_sample_rate: 1.0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    for _ in 0..3 {
        assert_eq!(
            client
                .request("POST", "/v1/plan", &small_spec_body())
                .status,
            200
        );
    }

    // /debug/traces is a Chrome trace file: at rate 1.0 every request
    // trace lands on its own labelled track.
    let traces = client.request("GET", "/debug/traces", b"");
    assert_eq!(traces.status, 200);
    let doc = parse(&traces.body_text()).expect("traces parse");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    assert!(names.contains(&"process_name"));
    assert!(names.contains(&"thread_name"), "one track per trace");
    assert!(names.contains(&"request"), "the root request span");

    // /debug/requests records every request (including debug ones).
    let requests = client.request("GET", "/debug/requests?limit=10", b"");
    assert_eq!(requests.status, 200);
    let doc = parse(&requests.body_text()).expect("requests parse");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("debug-requests/v1")
    );
    let rows = doc
        .get("requests")
        .and_then(JsonValue::as_array)
        .expect("requests array");
    assert!(rows.len() >= 3);
    let plan_row = rows
        .iter()
        .find(|r| r.get("path").and_then(JsonValue::as_str) == Some("/v1/plan"))
        .expect("a /v1/plan record");
    assert_eq!(
        plan_row.get("status").and_then(JsonValue::as_usize),
        Some(200)
    );
    assert_eq!(plan_row.get("sampled"), Some(&JsonValue::Bool(true)));
    let trace_id = plan_row
        .get("trace_id")
        .and_then(JsonValue::as_str)
        .expect("trace id");
    assert_eq!(trace_id.len(), 16, "16 hex digits: {trace_id}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));

    // /debug/profile drains the merged per-request profiles.
    let profile = client.request("GET", "/debug/profile", b"");
    assert_eq!(profile.status, 200);
    let doc = parse(&profile.body_text()).expect("profile parse");
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .expect("entries");
    assert!(
        entries
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("request")),
        "the root request span is profiled"
    );

    // /debug/alloc: the debug surface arms the counting allocator.
    let alloc = client.request("GET", "/debug/alloc", b"");
    assert_eq!(alloc.status, 200);
    let doc = parse(&alloc.body_text()).expect("alloc parse");
    assert_eq!(doc.get("armed"), Some(&JsonValue::Bool(true)));
    assert!(doc.get("alloc").unwrap().get("alloc_count").is_some());
    assert!(doc.get("rss").unwrap().get("now_kb").is_some());

    // /debug/events is always a valid document, even with no sink
    // installed (then: empty).
    let events = client.request("GET", "/debug/events", b"");
    assert_eq!(events.status, 200);
    let doc = parse(&events.body_text()).expect("events parse");
    assert!(doc.get("events").and_then(JsonValue::as_array).is_some());

    // Malformed queries and unknown endpoints are rejected, not ignored.
    assert_eq!(
        client
            .request("GET", "/debug/requests?limit=abc", b"")
            .status,
        400
    );
    assert_eq!(
        client
            .request("GET", "/debug/requests?class=weird", b"")
            .status,
        400
    );
    assert_eq!(client.request("GET", "/debug/nope", b"").status, 404);
    assert_eq!(
        client.request("POST", "/debug/traces", b"").status,
        405,
        "debug endpoints are read-only"
    );
    server.shutdown();
}

#[test]
fn head_sampling_off_keeps_records_but_drops_traces() {
    let server = debug_server(ServerConfig {
        trace_sample_rate: 0.0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    let response = client.request("POST", "/v1/plan", &small_spec_body());
    assert_eq!(response.status, 200);
    let header_id = response.header("x-trace-id").expect("trace id header");

    // The request record is there — with the response's trace id — but
    // it was not sampled, so no trace reached the trace ring.
    let requests = client.request("GET", "/debug/requests", b"");
    let doc = parse(&requests.body_text()).unwrap();
    let rows = doc.get("requests").and_then(JsonValue::as_array).unwrap();
    let plan_row = rows
        .iter()
        .find(|r| r.get("path").and_then(JsonValue::as_str) == Some("/v1/plan"))
        .expect("a /v1/plan record");
    assert_eq!(
        plan_row.get("trace_id").and_then(JsonValue::as_str),
        Some(header_id)
    );
    assert_eq!(plan_row.get("sampled"), Some(&JsonValue::Bool(false)));

    let traces = client.request("GET", "/debug/traces", b"");
    let doc = parse(&traces.body_text()).unwrap();
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert!(
        !events
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name")),
        "no sampled traces at rate 0"
    );
    server.shutdown();
}

/// A cloneable capture sink for the process-global structured log.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn slow_requests_are_tail_promoted_and_correlated_with_the_log() {
    // Threshold 0: every request is "slow", so tail promotion must keep
    // its trace even though head sampling is off.
    let server = debug_server(ServerConfig {
        trace_sample_rate: 0.0,
        slow_request_ms: Some(0.0),
        ..ServerConfig::default()
    });
    let capture = Capture::default();
    mule_obs::log::install_writer(Box::new(capture.clone()), mule_obs::log::Severity::Warn);
    let mut client = Client::connect(&server);
    let response = client.request("POST", "/v1/plan", &small_spec_body());
    assert_eq!(response.status, 200);
    let header_id = response.header("x-trace-id").expect("trace id").to_string();
    mule_obs::log::uninstall();

    // Promoted into the slow class of the request ring …
    let requests = client.request("GET", "/debug/requests?class=slow", b"");
    let doc = parse(&requests.body_text()).unwrap();
    let rows = doc.get("requests").and_then(JsonValue::as_array).unwrap();
    let row = rows
        .iter()
        .find(|r| r.get("trace_id").and_then(JsonValue::as_str) == Some(header_id.as_str()))
        .expect("slow record with the response's trace id");
    assert_eq!(row.get("slow"), Some(&JsonValue::Bool(true)));
    assert_eq!(row.get("sampled"), Some(&JsonValue::Bool(true)));

    // … into the trace ring (tail promotion at head rate 0) …
    let traces = client.request("GET", "/debug/traces", b"");
    assert!(
        traces.body_text().contains(&format!("trace {header_id}")),
        "promoted trace is on its own track"
    );

    // … and into the structured log, as one JSON line carrying the same
    // trace id.
    let logged = String::from_utf8(capture.0.lock().unwrap().clone()).unwrap();
    let line = logged
        .lines()
        .find(|line| line.contains("serve.slow_request") && line.contains(&header_id))
        .unwrap_or_else(|| panic!("no slow-request line for {header_id} in:\n{logged}"));
    let event = parse(line).expect("log line is JSON");
    assert_eq!(
        event.get("severity").and_then(JsonValue::as_str),
        Some("warn")
    );
    assert_eq!(
        event.get("trace_id").and_then(JsonValue::as_str),
        Some(header_id.as_str())
    );
    let fields = event.get("fields").expect("fields object");
    assert_eq!(
        fields.get("path").and_then(JsonValue::as_str),
        Some("/v1/plan")
    );
    assert!(fields
        .get("duration_ms")
        .and_then(JsonValue::as_f64)
        .is_some());
    server.shutdown();
}

#[test]
fn slo_gauges_appear_on_metrics_when_configured() {
    let server = test_server(ServerConfig {
        slo: Some(mule_obs::SloSpec {
            p99_ms: Some(1_000.0),
            availability_pct: Some(99.0),
        }),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&server);
    for _ in 0..3 {
        assert_eq!(
            client
                .request("POST", "/v1/plan", &small_spec_body())
                .status,
            200
        );
    }
    let metrics = client.request("GET", "/metrics", b"").body_text();
    assert!(
        metrics.contains("mule_slo_error_budget_remaining{objective=\"p99_ms\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("mule_slo_error_budget_remaining{objective=\"availability\"}"),
        "{metrics}"
    );
    for window in ["1m", "5m", "30m"] {
        assert!(
            metrics.contains(&format!(
                "mule_slo_burn_rate{{objective=\"p99_ms\",window=\"{window}\"}}"
            )),
            "missing burn-rate window {window}:\n{metrics}"
        );
    }
    // Fast, successful traffic burns no budget.
    assert!(
        metrics.contains("mule_slo_error_budget_remaining{objective=\"availability\"} 1"),
        "{metrics}"
    );

    // Every family, in render order: the same list as the family table
    // in docs/OBSERVABILITY.md.
    let families: Vec<&str> = metrics
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();
    let mut expected = vec![
        "mule_requests_total",
        "mule_responses_total",
        "mule_rejected_total",
        "mule_connection_panics_total",
        "mule_cache_events_total",
        "mule_deadline_exceeded_total",
        "mule_stale_served_total",
        "mule_breaker_state",
        "mule_breaker_transitions_total",
        "mule_breaker_fast_fail_total",
        "mule_fault_injected_total",
        "mule_slo_error_budget_remaining",
        "mule_slo_burn_rate",
    ];
    if mule_obs::alloc::rss_now_kb().is_some() {
        expected.push("mule_process_resident_bytes");
    }
    if mule_obs::alloc::rss_peak_kb().is_some() {
        expected.push("mule_process_peak_resident_bytes");
    }
    expected.extend([
        "mule_request_duration_seconds",
        "mule_span_total",
        "mule_span_seconds_total",
    ]);
    assert_eq!(families, expected);
    server.shutdown();
}

#[test]
fn backpressure_rejections_spend_the_availability_budget() {
    // The default 5 s idle timeout (not `test_server`'s 300 ms) keeps the
    // slot holder admitted while the second connection arrives.
    let server = mule_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        slo: Some(mule_obs::SloSpec::parse("availability=99").unwrap()),
        ..ServerConfig::default()
    })
    .expect("server start");
    // One completed round trip proves the holder owns the only slot.
    let mut holder = Client::connect(&server);
    assert_eq!(holder.request("GET", "/healthz", b"").status, 200);
    let rejected = Client::connect(&server).request("GET", "/healthz", b"");
    assert_eq!(rejected.status, 503);

    let metrics = server.metrics_prometheus();
    let value = |series: &str| mule_obs::prom::sum(&metrics, series).unwrap();
    let burn = value("mule_slo_burn_rate{objective=\"availability\",window=\"1m\"}");
    assert!(burn > 0.0, "a shed connection burns budget:\n{metrics}");
    let remaining = value("mule_slo_error_budget_remaining{objective=\"availability\"}");
    assert!(remaining < 1.0, "{metrics}");
    drop(holder);
    server.shutdown();
}

#[test]
fn read_deadline_504s_spend_the_availability_budget() {
    use std::io::Write;
    let server = test_server(ServerConfig {
        deadline: Some(Duration::from_millis(100)),
        slo: Some(mule_obs::SloSpec::parse("availability=99").unwrap()),
        ..ServerConfig::default()
    });
    // Half a request head, then silence: the read deadline runs out.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let response = read_response(&mut BufReader::new(stream)).unwrap();
    assert_eq!(response.status, 504);

    let metrics = server.metrics_prometheus();
    let value = |series: &str| mule_obs::prom::sum(&metrics, series);
    assert_eq!(
        value("mule_deadline_exceeded_total{stage=\"read\"}"),
        Some(1.0)
    );
    assert_eq!(
        value("mule_slo_error_budget_remaining{objective=\"availability\"}"),
        Some(0.0),
        "the only request was a 504:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn untelemetered_server_reports_no_slo_and_keeps_metrics_schema() {
    let server = test_server(ServerConfig::default());
    let mut client = Client::connect(&server);
    assert_eq!(
        client
            .request("POST", "/v1/plan", &small_spec_body())
            .status,
        200
    );
    let metrics = client.request("GET", "/metrics", b"").body_text();
    assert!(
        !metrics.contains("mule_slo_"),
        "no SLO gauges without --slo"
    );

    // The debug route is counted (zero here).
    assert_eq!(
        mule_obs::prom::sum(&metrics, "mule_requests_total{route=\"debug\"}"),
        Some(0.0),
        "{metrics}"
    );
    server.shutdown();
}
