//! # mule-obs
//!
//! Structured observability for the whole workspace: deterministic tracing
//! spans, typed counters/gauges, and exporters — with **zero dependencies**
//! so every other crate (down to `mule-road` at the bottom of the graph)
//! can instrument itself without cycles.
//!
//! ## Span model
//!
//! Tracing is **thread-local and opt-in**. A thread owns at most one open
//! trace; instrumented code calls [`span`] / [`add`] unconditionally, and
//! when no trace is active those calls are a flag check and nothing else.
//! When a trace *is* active:
//!
//! * [`span`] opens a span as a child of the innermost open span and
//!   returns a guard; dropping the guard closes it. Span **ids are
//!   assigned in open order**, so the id doubles as the monotonic
//!   sequence number.
//! * [`add`] accumulates a named integer counter on the innermost open
//!   span (move counts, settled nodes, events dispatched, …).
//! * [`gauge`] records a point-in-time value on the trace itself.
//!
//! ## Determinism contract
//!
//! The resulting [`Trace`] separates *shape* from *time*. The shape —
//! span names, parentage, open order and counter values — is a pure
//! function of the traced computation, so two runs of the same seed
//! produce byte-identical [`Trace::shape`] renderings. Wall-clock start
//! and duration are carried alongside and are **never** part of the
//! shape; golden tests pin shapes, never durations. See
//! `docs/OBSERVABILITY.md`.
//!
//! ## Exporters
//!
//! * [`chrome_trace_json`] / [`chrome_traces_json`] — Chrome
//!   `trace_event` JSON, loadable in `about:tracing` or
//!   <https://ui.perfetto.dev> (the latter packs several traces into one
//!   file as separate tracks).
//! * [`FlatProfile`] — per-span-name count / total / self / max
//!   aggregation, renderable as an aligned text table.
//! * [`prom::PromText`] — Prometheus text exposition (version 0.0.4)
//!   writer used by mule-serve's `/metrics`.
//! * [`json`] — the workspace's one JSON value type, parser and writer
//!   (mule-serve's wire format, the bench artefacts, and the string
//!   escaping of [`log`] and the Chrome exporter).
//!
//! ## Live telemetry
//!
//! * [`sampler::sample_keep`] — deterministic head-based trace sampling:
//!   keep/drop is a pure SplitMix64 function of `(trace_id, rate)`.
//! * [`ring::Ring`] — fixed-capacity generation-counted stores backing
//!   mule-serve's `/debug/*` endpoints.
//! * [`log`] — process-wide structured JSON-lines event log with
//!   severity filtering, monotonic sequencing and trace-id correlation.
//! * [`slo`] — rolling-window SLO burn-rate tracking exposed on
//!   `/metrics` as `mule_slo_*` gauges.
//!
//! ## Memory
//!
//! The crate also installs the workspace-wide counting allocator
//! ([`alloc::CountingAlloc`]): inert (one relaxed atomic load per
//! allocator call) until [`alloc::arm`]ed, after which allocation
//! activity is tallied globally, per thread, and — when a trace is also
//! active — attributed to the innermost open span ([`SpanAlloc`]).
//! Allocation *counts* are deterministic and pinned like span shape;
//! bytes, peaks and RSS are never pinned. See `docs/OBSERVABILITY.md`,
//! "Memory".

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod chrome;
pub mod json;
pub mod log;
pub mod metric;
pub mod profile;
pub mod prom;
pub mod ring;
pub mod sampler;
pub mod slo;
pub mod trace;

pub use chrome::{chrome_trace_json, chrome_traces_json};
pub use metric::{Counter, Gauge};
pub use profile::{FlatProfile, ProfileEntry};
pub use ring::Ring;
pub use sampler::sample_keep;
pub use slo::{SloReport, SloSpec, SloTracker};
pub use trace::{SpanAlloc, SpanRecord, Trace};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic token distinguishing collector generations, so a [`SpanGuard`]
/// that outlives its collector (e.g. across a [`capture`] boundary) closes
/// nothing instead of closing an unrelated span.
static COLLECTOR_TOKEN: AtomicU64 = AtomicU64::new(1);

struct Collector {
    token: u64,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
    /// Allocation windows, parallel to `stack` (entry `i` belongs to
    /// span `stack[i]`); `None` when the allocator was disarmed at the
    /// span's open.
    alloc_windows: Vec<Option<alloc::SpanWindow>>,
    gauges: Vec<(String, i64)>,
}

impl Collector {
    fn new() -> Self {
        Collector {
            token: COLLECTOR_TOKEN.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            alloc_windows: Vec::new(),
            gauges: Vec::new(),
        }
    }

    /// Closes the allocation windows of every span at stack depth `pos`
    /// and above, innermost first (windows restore the enclosing
    /// window's peak, so LIFO order is load-bearing).
    fn close_windows_from(&mut self, pos: usize) {
        for i in (pos..self.stack.len()).rev() {
            if let Some(window) = self.alloc_windows[i].take() {
                let span = self.stack[i] as usize;
                self.spans[span].alloc = Some(alloc::close_window(window));
            }
        }
    }

    fn into_trace(self) -> Trace {
        Trace {
            spans: self.spans,
            gauges: self.gauges,
        }
    }
}

thread_local! {
    /// Fast-path flag: `true` iff a collector is installed on this thread.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Returns `true` when a trace is being recorded on this thread.
#[inline]
pub fn trace_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Starts recording a trace on this thread. Any trace already active on
/// the thread is discarded (threads own at most one trace; use
/// [`capture`] for nesting).
pub fn trace_begin() {
    COLLECTOR.with_borrow_mut(|c| *c = Some(Collector::new()));
    ACTIVE.with(|a| a.set(true));
}

/// Stops recording and returns the trace, or `None` when none was active.
/// Spans still open when the trace ends are kept with the duration they
/// had accumulated so far.
pub fn trace_end() -> Option<Trace> {
    ACTIVE.with(|a| a.set(false));
    COLLECTOR.with_borrow_mut(|c| c.take()).map(|mut col| {
        let now = col.epoch.elapsed().as_nanos() as u64;
        col.close_windows_from(0);
        for &id in &col.stack {
            let rec = &mut col.spans[id as usize];
            rec.dur_ns = now.saturating_sub(rec.start_ns);
        }
        col.stack.clear();
        col.alloc_windows.clear();
        col.into_trace()
    })
}

/// Runs `f` under a fresh trace and returns its result together with the
/// recorded trace. Any trace already active on the calling thread is
/// suspended for the duration and restored afterwards, so `capture` is
/// safe to use on worker threads and inside already-traced code.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let saved = COLLECTOR.with_borrow_mut(|c| c.take());
    let was_active = trace_active();
    trace_begin();
    let value = f();
    let trace = trace_end().unwrap_or_default();
    COLLECTOR.with_borrow_mut(|c| *c = saved);
    ACTIVE.with(|a| a.set(was_active));
    (value, trace)
}

/// A guard holding a span open; dropping it closes the span. Returned by
/// [`span`] / [`span_owned`]; inert when no trace was active at open time.
#[must_use = "dropping the guard closes the span; bind it to a named variable"]
pub struct SpanGuard {
    /// `(collector token, span id)` — `None` when tracing was off.
    slot: Option<(u64, u32)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((token, id)) = self.slot {
            close_span(token, id);
        }
    }
}

fn open_span(name: String) -> SpanGuard {
    let slot = COLLECTOR.with_borrow_mut(|c| {
        let col = c.as_mut()?;
        let id = col.spans.len() as u32;
        let parent = col.stack.last().copied();
        col.spans.push(SpanRecord {
            id,
            parent,
            name,
            start_ns: col.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            counters: Vec::new(),
            alloc: None,
        });
        col.stack.push(id);
        col.alloc_windows.push(alloc::open_window());
        Some((col.token, id))
    });
    SpanGuard { slot }
}

fn close_span(token: u64, id: u32) {
    COLLECTOR.with_borrow_mut(|c| {
        if let Some(col) = c.as_mut() {
            if col.token != token {
                return; // guard outlived its collector; nothing to close
            }
            let now = col.epoch.elapsed().as_nanos() as u64;
            if let Some(pos) = col.stack.iter().rposition(|&s| s == id) {
                col.close_windows_from(pos);
                col.stack.truncate(pos);
                col.alloc_windows.truncate(pos);
            }
            let rec = &mut col.spans[id as usize];
            rec.dur_ns = now.saturating_sub(rec.start_ns);
        }
    });
}

/// Opens a span named `name` under the innermost open span. A no-op
/// (one thread-local flag check) when no trace is active on this thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !trace_active() {
        return SpanGuard { slot: None };
    }
    open_span(name.to_string())
}

/// [`span`] with a runtime-built name (planner names, request routes, …).
/// The name is only materialised when a trace is active.
#[inline]
pub fn span_owned(name: impl FnOnce() -> String) -> SpanGuard {
    if !trace_active() {
        return SpanGuard { slot: None };
    }
    open_span(name())
}

/// Adds `delta` to the named counter of the innermost open span. Counters
/// are part of the deterministic trace shape: only record values that are
/// pure functions of the computation (move counts, settled nodes — never
/// times). A no-op when no trace or no span is open.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !trace_active() {
        return;
    }
    COLLECTOR.with_borrow_mut(|c| {
        if let Some(col) = c.as_mut() {
            if let Some(&top) = col.stack.last() {
                let counters = &mut col.spans[top as usize].counters;
                match counters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, v)) => *v += delta,
                    None => counters.push((name.to_string(), delta)),
                }
            }
        }
    });
}

/// Grafts `child` — a trace recorded elsewhere, typically by [`capture`]
/// on a worker thread — into the trace being recorded on this thread,
/// under the innermost open span. Grafting results in a deterministic
/// order (task-index order, not completion order) keeps the combined
/// shape deterministic for any worker count. A no-op when no trace is
/// active.
pub fn graft(child: Trace) {
    if !trace_active() {
        return;
    }
    COLLECTOR.with_borrow_mut(|c| {
        if let Some(col) = c.as_mut() {
            let parent = col.stack.last().copied();
            trace::graft_into(&mut col.spans, &mut col.gauges, child, parent);
        }
    });
}

/// Records a trace-level gauge (last write wins). Like counters, gauge
/// values are part of the deterministic shape.
#[inline]
pub fn gauge(name: &'static str, value: i64) {
    if !trace_active() {
        return;
    }
    COLLECTOR.with_borrow_mut(|c| {
        if let Some(col) = c.as_mut() {
            match col.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = value,
                None => col.gauges.push((name.to_string(), value)),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(f: impl FnOnce()) -> Trace {
        capture(f).1
    }

    #[test]
    fn spans_nest_and_ids_follow_open_order() {
        let trace = traced(|| {
            let _a = span("a");
            {
                let _b = span("b");
                add("hits", 2);
                add("hits", 3);
            }
            let _c = span("c");
        });
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].name, "a");
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].name, "b");
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].counters, vec![("hits".to_string(), 5)]);
        assert_eq!(trace.spans[2].name, "c");
        assert_eq!(trace.spans[2].parent, Some(0));
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        assert!(!trace_active());
        let _s = span("ignored");
        add("ignored", 1);
        gauge("ignored", 1);
        assert!(trace_end().is_none());
    }

    #[test]
    fn shape_is_identical_across_runs_despite_timing() {
        let run = || {
            traced(|| {
                let _root = span("root");
                for _ in 0..3 {
                    let _child = span("child");
                    add("work", 7);
                }
                gauge("targets", 42);
            })
        };
        assert_eq!(run().shape(), run().shape());
    }

    #[test]
    fn capture_restores_the_outer_trace() {
        trace_begin();
        let _outer = span("outer");
        let (_, inner) = capture(|| {
            let _s = span("inner");
        });
        assert!(trace_active());
        add("after", 1);
        let outer_trace = {
            drop(_outer);
            trace_end().unwrap()
        };
        assert_eq!(inner.spans.len(), 1);
        assert_eq!(inner.spans[0].name, "inner");
        assert_eq!(outer_trace.spans.len(), 1);
        assert_eq!(outer_trace.spans[0].counters[0].0, "after");
    }

    #[test]
    fn open_spans_are_closed_when_the_trace_ends() {
        trace_begin();
        let guard = span("left-open");
        let trace = trace_end().unwrap();
        drop(guard); // must not panic or corrupt the next trace
        assert_eq!(trace.spans.len(), 1);
        let next = traced(|| {
            let _s = span("fresh");
        });
        assert_eq!(next.spans[0].name, "fresh");
    }

    #[test]
    fn disarmed_traces_carry_no_alloc_attribution() {
        let _guard = alloc::tests::ARM_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let trace = traced(|| {
            let _s = span("plain");
            let _v: Vec<u8> = Vec::with_capacity(4096);
        });
        assert_eq!(trace.spans[0].alloc, None);
        assert_eq!(trace.alloc_shape(), "plain\n");
    }

    #[test]
    fn armed_traces_attribute_allocation_counts_to_spans() {
        alloc::tests::armed_section(|| {
            let trace = traced(|| {
                let _root = span("root");
                let outer: Vec<u64> = Vec::with_capacity(1024);
                {
                    let _child = span("child");
                    let inner: Vec<u64> = Vec::with_capacity(512);
                    drop(inner);
                }
                drop(outer);
            });
            let root = trace.spans[0].alloc.expect("root span attributed");
            let child = trace.spans[1].alloc.expect("child span attributed");
            assert!(child.allocs >= 1, "child saw its Vec allocation");
            assert!(root.allocs >= child.allocs, "parent includes children");
            assert!(root.bytes >= child.bytes + 1024 * 8);
            assert!(child.peak_live >= 512 * 8);
            assert!(root.peak_live >= child.peak_live);
            assert!(trace.alloc_shape().contains("child allocs="));
        });
    }

    #[test]
    fn alloc_counts_are_identical_run_to_run() {
        alloc::tests::armed_section(|| {
            let run = || {
                traced(|| {
                    let _root = span("root");
                    for _ in 0..3 {
                        let _child = span("child");
                        let v: Vec<u64> = (0..200).collect();
                        drop(v);
                    }
                })
                .alloc_shape()
            };
            let first = run();
            assert_eq!(first, run(), "per-span alloc counts drifted");
            assert!(first.contains("allocs="));
        });
    }

    #[test]
    fn spans_left_open_at_trace_end_still_get_attribution() {
        alloc::tests::armed_section(|| {
            trace_begin();
            let guard = span("left-open");
            let v: Vec<u8> = vec![7; 2048];
            let trace = trace_end().unwrap();
            drop(guard);
            drop(v);
            let alloc = trace.spans[0].alloc.expect("open span finalised");
            assert!(alloc.allocs >= 1);
            assert!(alloc.bytes >= 2048);
        });
    }

    #[test]
    fn gauges_last_write_wins() {
        let trace = traced(|| {
            gauge("g", 1);
            gauge("g", 9);
        });
        assert_eq!(trace.gauges, vec![("g".to_string(), 9)]);
    }
}
