//! Chrome `trace_event` JSON exporter.
//!
//! Emits the subset of the [Trace Event Format] that `about:tracing` and
//! <https://ui.perfetto.dev> load: one complete (`"ph":"X"`) event per
//! span with microsecond timestamps, counters carried in `args`, plus a
//! process-name metadata record.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::JsonValue;
use crate::trace::Trace;

/// Nanoseconds → microseconds with fixed three-decimal rendering, so the
/// output is stable and never switches to exponent notation.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Appends one trace's events (spans, heap tracks, gauges) under the
/// given Chrome `tid`, so several traces can share one file as separate
/// tracks.
fn push_trace_events(events: &mut Vec<String>, trace: &Trace, tid: u32) {
    for span in &trace.spans {
        let mut args = String::new();
        args.push_str(&format!("\"seq\":{}", span.id));
        for (name, value) in &span.counters {
            args.push_str(&format!(",{}:{}", JsonValue::from(name.as_str()), value));
        }
        if let Some(alloc) = &span.alloc {
            args.push_str(&format!(
                ",\"allocs\":{},\"alloc_bytes\":{}",
                alloc.allocs, alloc.bytes
            ));
        }
        events.push(format!(
            "{{\"name\":{},\"cat\":\"mule\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{tid},\"args\":{{{}}}}}",
            JsonValue::from(span.name.as_str()),
            micros(span.start_ns),
            micros(span.dur_ns),
            args
        ));
        // One counter sample per attributed span renders as a heap track
        // (the span's live-bytes high-water mark) in Perfetto.
        if let Some(alloc) = &span.alloc {
            events.push(format!(
                "{{\"name\":\"heap_peak_live_bytes\",\"ph\":\"C\",\"ts\":{},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"bytes\":{}}}}}",
                micros(span.start_ns),
                alloc.peak_live
            ));
        }
    }
    for (name, value) in &trace.gauges {
        events.push(format!(
            "{{\"name\":{},\"ph\":\"C\",\"ts\":0.000,\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"value\":{}}}}}",
            JsonValue::from(name.as_str()),
            value
        ));
    }
}

/// Wraps rendered events in the JSON-object trace-file envelope.
fn envelope(events: Vec<String>) -> String {
    format!(
        "{{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n    {}\n  ]\n}}\n",
        events.join(",\n    ")
    )
}

/// Serialises a trace as Chrome `trace_event` JSON. Drag the file into
/// `about:tracing`, or open it at <https://ui.perfetto.dev>.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut events = Vec::with_capacity(trace.spans.len() + 1);
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"wmdm-patrol\"}}"
            .to_string(),
    );
    push_trace_events(&mut events, trace, 1);
    envelope(events)
}

/// Serialises several labelled traces into **one** Chrome trace file,
/// each trace on its own track (`tid` = position + 1, named by its
/// label via `thread_name` metadata). mule-serve's `GET /debug/traces`
/// uses this to ship the recent sampled-trace ring as a single
/// Perfetto-loadable document.
pub fn chrome_traces_json<'a>(traces: impl IntoIterator<Item = (&'a str, &'a Trace)>) -> String {
    let mut events = vec![
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{\"name\":\"wmdm-patrol\"}}"
            .to_string(),
    ];
    for (i, (label, trace)) in traces.into_iter().enumerate() {
        let tid = (i + 1) as u32;
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            JsonValue::from(label)
        ));
        push_trace_events(&mut events, trace, tid);
    }
    envelope(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanRecord;

    #[test]
    fn exporter_emits_complete_events_with_counters() {
        let trace = Trace {
            spans: vec![SpanRecord {
                id: 0,
                parent: None,
                name: "chb.two_opt".to_string(),
                start_ns: 1_234_567,
                dur_ns: 89_000,
                counters: vec![("moves".to_string(), 7)],
                alloc: None,
            }],
            gauges: vec![("targets".to_string(), 50)],
        };
        let json = chrome_trace_json(&trace);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"chb.two_opt\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":89.000"));
        assert!(json.contains("\"moves\":7"));
        assert!(json.contains("\"ph\":\"C\"")); // the gauge counter event
        assert!(json.contains("\"ph\":\"M\"")); // the metadata record
    }

    #[test]
    fn attributed_spans_emit_alloc_args_and_a_heap_track() {
        let trace = Trace {
            spans: vec![SpanRecord {
                id: 0,
                parent: None,
                name: "chb.candidates".to_string(),
                start_ns: 5_000,
                dur_ns: 1_000,
                counters: Vec::new(),
                alloc: Some(crate::trace::SpanAlloc {
                    allocs: 11,
                    bytes: 4096,
                    peak_live: 8192,
                }),
            }],
            gauges: Vec::new(),
        };
        let json = chrome_trace_json(&trace);
        assert!(json.contains("\"allocs\":11"));
        assert!(json.contains("\"alloc_bytes\":4096"));
        assert!(json.contains("\"name\":\"heap_peak_live_bytes\",\"ph\":\"C\",\"ts\":5.000"));
        assert!(json.contains("\"args\":{\"bytes\":8192}"));
    }

    #[test]
    fn micros_renders_fixed_decimals() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000_001), "1000.001");
    }

    #[test]
    fn multi_trace_export_separates_traces_by_tid() {
        let trace_for = |name: &str| Trace {
            spans: vec![SpanRecord {
                id: 0,
                parent: None,
                name: name.to_string(),
                start_ns: 1_000,
                dur_ns: 500,
                counters: Vec::new(),
                alloc: None,
            }],
            gauges: Vec::new(),
        };
        let a = trace_for("request");
        let b = trace_for("request");
        let json = chrome_traces_json([("trace 9a1f", &a), ("trace 0b2e", &b)]);
        // Each trace gets its own named track.
        assert!(json.contains("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1"));
        assert!(json.contains("\"args\":{\"name\":\"trace 9a1f\"}"));
        assert!(json.contains("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2"));
        assert!(json.contains("\"args\":{\"name\":\"trace 0b2e\"}"));
        // Span events land on their trace's tid.
        assert!(json.contains("\"ph\":\"X\",\"ts\":1.000,\"dur\":0.500,\"pid\":1,\"tid\":1"));
        assert!(json.contains("\"ph\":\"X\",\"ts\":1.000,\"dur\":0.500,\"pid\":1,\"tid\":2"));
    }

    #[test]
    fn multi_trace_export_of_nothing_is_still_a_valid_trace_file() {
        let json = chrome_traces_json(std::iter::empty());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"M\""));
    }
}
