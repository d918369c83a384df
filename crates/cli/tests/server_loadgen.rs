//! The tracked server load benchmark, end to end: `patrolctl loadgen`
//! drives ≥ 1000 requests over ≥ 4 concurrent connections against a live
//! server, writes `BENCH_server.json`, and the regression gates fire
//! correctly. (The byte-identity contract between cached, cold and
//! offline plans is pinned in `mule-serve`'s integration tests and in
//! `plan_prints_the_service_response_document`.)

use mule_serve::json::{parse, JsonValue};
use mule_serve::{LoadgenParams, ServerConfig};
use mule_workload::ScenarioSpec;
use patrol_cli::args::LoadgenOptions;
use patrol_cli::{run_command, CliCommand};
use std::time::Duration;

fn start_server() -> mule_serve::ServerHandle {
    mule_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        cache_capacity: 64,
        queue_depth: 64,
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    })
    .expect("server start")
}

/// The base spec both runs rotate over: 8 targets, 3 mules, seed 1.
fn base_spec() -> ScenarioSpec {
    ScenarioSpec::default().with_targets(8).with_mules(3)
}

#[test]
fn loadgen_drives_a_thousand_requests_and_writes_the_benchmark() {
    let server = start_server();
    let dir = std::env::temp_dir().join("patrolctl_loadgen_test_out");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("BENCH_server.json").to_string_lossy().into_owned();

    let options = LoadgenOptions {
        params: LoadgenParams {
            addr: server.addr().to_string(),
            requests: 1000,
            connections: 4,
            spec_pool: 4,
            base: base_spec(),
            warmup: 10,
            slo: Some(mule_obs::SloSpec {
                p99_ms: Some(60_000.0),
                availability_pct: Some(99.0),
            }),
            ..LoadgenParams::default()
        },
        json_path: Some(json_path.clone()),
        // Generous gates: the run must pass them on any machine; the
        // failing-gate paths are tested separately below.
        max_p99_ms: Some(60_000.0),
        min_rps: Some(1.0),
    };
    let out = run_command(&CliCommand::Loadgen(options)).expect("loadgen run");

    // Human-readable summary covers the headline numbers.
    for needle in ["1000 requests", "4 connections", "p99", "hit rate"] {
        assert!(
            out.text.contains(needle),
            "missing `{needle}`:\n{}",
            out.text
        );
    }
    assert_eq!(out.files_written, vec![json_path.clone()]);

    // The tracked artefact parses and carries throughput, percentiles
    // and cache hit rate.
    let json = std::fs::read_to_string(&json_path).unwrap();
    let doc = parse(&json).expect("BENCH_server.json parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("bench-server/v2")
    );
    assert_eq!(
        doc.get("requests").and_then(JsonValue::as_usize),
        Some(1000)
    );
    assert_eq!(
        doc.get("connections").and_then(JsonValue::as_usize),
        Some(4)
    );
    assert_eq!(doc.get("ok").and_then(JsonValue::as_usize), Some(1000));
    assert_eq!(doc.get("errors").and_then(JsonValue::as_usize), Some(0));
    assert!(
        doc.get("throughput_rps")
            .and_then(JsonValue::as_f64)
            .unwrap()
            > 0.0
    );
    let latency = doc.get("latency_ms").unwrap();
    for key in ["mean", "p50", "p95", "p99", "max"] {
        let value = latency.get(key).and_then(JsonValue::as_f64).unwrap();
        assert!(value >= 0.0, "{key} = {value}");
    }
    let p50 = latency.get("p50").and_then(JsonValue::as_f64).unwrap();
    let p99 = latency.get("p99").and_then(JsonValue::as_f64).unwrap();
    assert!(p50 <= p99, "percentiles ordered: p50 {p50} ≤ p99 {p99}");

    // 1000 requests rotating over 4 specs: exactly 4 cold computes, and
    // every coalesced request counts as served-from-cache.
    let cache = doc.get("cache").unwrap();
    let hits = cache.get("hits").and_then(JsonValue::as_usize).unwrap();
    let misses = cache.get("misses").and_then(JsonValue::as_usize).unwrap();
    let coalesced = cache
        .get("coalesced")
        .and_then(JsonValue::as_usize)
        .unwrap();
    assert_eq!(hits + misses + coalesced, 1000);
    assert_eq!(misses, 4, "one cold compute per distinct spec");
    let hit_rate = cache.get("hit_rate").and_then(JsonValue::as_f64).unwrap();
    assert!(
        (hit_rate - 0.996).abs() < 1e-9,
        "hit rate {hit_rate} should be 996/1000"
    );

    // Warm-up latencies were discarded but the requests still counted,
    // and the SLO verdict block grades the generous objectives as met.
    assert_eq!(
        doc.get("warmup_discarded").and_then(JsonValue::as_usize),
        Some(10)
    );
    let slo = doc.get("slo").expect("slo block present");
    assert_eq!(slo.get("pass"), Some(&JsonValue::Bool(true)));
    assert!(out.text.contains("slo verdict: PASS"), "{}", out.text);

    // The server observed the same cache traffic.
    let metrics = server.metrics_prometheus();
    assert_eq!(
        mule_obs::prom::sum(&metrics, "mule_cache_events_total{event=\"miss\"}"),
        Some(4.0),
        "{metrics}"
    );

    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn loadgen_gates_fail_on_impossible_bounds() {
    let server = start_server();
    let base = LoadgenOptions {
        params: LoadgenParams {
            addr: server.addr().to_string(),
            requests: 40,
            connections: 4,
            base: base_spec(),
            ..LoadgenParams::default()
        },
        ..LoadgenOptions::default()
    };

    // An impossible latency bound fails with a Check error …
    let opts = LoadgenOptions {
        max_p99_ms: Some(0.000_001),
        ..base.clone()
    };
    let err = run_command(&CliCommand::Loadgen(opts)).unwrap_err();
    assert!(err.to_string().contains("--max-p99"), "{err}");

    // … and so does an impossible throughput bound.
    let opts = LoadgenOptions {
        min_rps: Some(1e12),
        ..base
    };
    let err = run_command(&CliCommand::Loadgen(opts)).unwrap_err();
    assert!(err.to_string().contains("--min-rps"), "{err}");
    server.shutdown();
}
