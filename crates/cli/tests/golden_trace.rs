//! Pins the *shape* of the span tree produced by a paper-sized
//! `patrolctl plan` — names, nesting, open order, and counters, but
//! never durations (docs/DETERMINISM.md, "Observability").
//!
//! The shape is part of the determinism contract: two runs of the same
//! scenario on any machine must produce the same tree. When
//! instrumentation is intentionally added or moved, re-pin the string
//! below with the diff in hand.

use patrol_cli::args::parse_args;
use patrol_cli::commands::run_command;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn traced(cmdline: &str) -> mule_obs::Trace {
    let (result, trace) = mule_obs::capture(|| run_command(&parse_args(&argv(cmdline)).unwrap()));
    result.unwrap();
    trace
}

#[test]
fn paper_size_plan_span_tree_shape_is_pinned() {
    let trace = traced("plan --targets 12 --mules 3 --seed 7");
    let shape = trace.shape();
    let expected = "planner.B-TCTP\n\
                    \x20 chb.exact n=13\n\
                    \x20   chb.hull_insertion\n\
                    \x20   chb.two_opt moves=0\n\
                    \x20   chb.or_opt moves=0\n\
                    \x20   chb.two_opt moves=0\n\
                    plan.render itineraries=3 cycles=1\n";
    assert_eq!(
        shape, expected,
        "span tree shape of `patrolctl plan --targets 12 --mules 3 --seed 7` drifted"
    );
}

#[test]
fn span_tree_shape_is_identical_across_runs() {
    let a = traced("plan --targets 12 --mules 3 --seed 7").shape();
    let b = traced("plan --targets 12 --mules 3 --seed 7").shape();
    assert_eq!(a, b);
}

#[test]
fn trace_out_writes_valid_chrome_trace_json() {
    let dir = std::env::temp_dir().join("patrolctl_golden_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plan_trace.json");
    let cmdline = format!(
        "plan --targets 12 --mules 3 --seed 7 --trace-out {}",
        path.display()
    );
    let out = run_command(&parse_args(&argv(&cmdline)).unwrap()).unwrap();
    assert!(out
        .files_written
        .contains(&path.to_string_lossy().into_owned()));
    let body = std::fs::read_to_string(&path).unwrap();
    let doc = mule_serve::json::parse(&body).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "at least one event");
    let mut complete = 0;
    for event in events {
        let phase = event.get("ph").and_then(|v| v.as_str()).expect("ph field");
        if phase != "X" {
            continue; // metadata events carry no timing
        }
        complete += 1;
        for key in ["name", "ts", "dur", "pid", "tid"] {
            assert!(
                event.get(key).is_some(),
                "complete event missing `{key}`: {body}"
            );
        }
    }
    assert!(complete >= 2, "planner and CHB spans recorded");
    std::fs::remove_dir_all(&dir).ok();
}
