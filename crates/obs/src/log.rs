//! Structured JSON-lines event logging.
//!
//! One process-wide logger that every crate in the workspace can emit
//! through: mule-serve's access and slow-request logs, mule-fault's
//! firing records, and circuit-breaker transitions all arrive here as
//! **one JSON object per line** instead of ad-hoc `eprintln!` prose.
//!
//! ## Line schema
//!
//! ```json
//! {"seq":17,"ts_ms":1754650000123,"severity":"warn","event":"serve.slow_request",
//!  "trace_id":"9a1f0c3de4b25a76","fields":{"route":"plan","duration_ms":12.4}}
//! ```
//!
//! * `seq` — process-wide monotonic sequence number; never repeats, so
//!   interleaved lines from many threads can be totally ordered.
//! * `ts_ms` — wall-clock milliseconds since the Unix epoch. Time is
//!   **never** part of any determinism contract (see
//!   `docs/DETERMINISM.md`); lines are for operators, not goldens.
//! * `severity` — one of `debug` / `info` / `warn` / `error`.
//! * `event` — dotted static name (`serve.request`, `fault.injected`,
//!   `breaker.transition`, …).
//! * `trace_id` — present when the event happened inside a traced
//!   request, correlating the line with `/debug/traces` and
//!   `/debug/requests`.
//! * `fields` — flat string→scalar map of event-specific data.
//!
//! ## Wiring
//!
//! The logger is **inert until installed**: [`emit`] starts with one
//! relaxed atomic load and returns immediately when logging is off, so
//! code paths under golden-output pins stay byte-identical. Install with
//! [`install_stderr`] (production) or [`install_writer`] (tests), filter
//! with a minimum [`Severity`], and tear down with [`uninstall`].
//!
//! Rendering happens on the emitting thread into a reusable thread-local
//! buffer; only the final single `write_all` of the completed line takes
//! the sink lock, so lines from concurrent threads never interleave
//! mid-line. Every rendered line is also mirrored into a fixed-capacity
//! [`Ring`] readable via [`recent`] — that is what
//! mule-serve's `GET /debug/events` returns.

use crate::json::write_string;
use crate::ring::Ring;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{LazyLock, Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// High-volume diagnostics (per-request access log).
    Debug,
    /// Lifecycle and state-change events.
    Info,
    /// Degraded-but-handled conditions (slow requests, fault firings).
    Warn,
    /// Failures.
    Error,
}

impl Severity {
    fn rank(self) -> u8 {
        match self {
            Severity::Debug => 0,
            Severity::Info => 1,
            Severity::Warn => 2,
            Severity::Error => 3,
        }
    }

    fn from_rank(rank: u8) -> Severity {
        match rank {
            0 => Severity::Debug,
            1 => Severity::Info,
            2 => Severity::Warn,
            _ => Severity::Error,
        }
    }

    /// The lowercase label used in the `severity` line field.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses a label as accepted by `--log-level`.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// A scalar value in an event's `fields` map.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string (JSON-escaped on render).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// A structured event, built with the fluent API and handed to [`emit`].
///
/// ```
/// use mule_obs::log::{LogEvent, Severity};
/// let event = LogEvent::new(Severity::Warn, "serve.slow_request")
///     .trace("9a1f0c3de4b25a76")
///     .field("route", "plan")
///     .field("duration_ms", 12.4);
/// mule_obs::log::emit(event); // None while no sink is installed
/// ```
#[derive(Debug, Clone)]
pub struct LogEvent {
    severity: Severity,
    event: &'static str,
    trace_id: Option<String>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl LogEvent {
    /// A new event with no trace correlation and no fields.
    pub fn new(severity: Severity, event: &'static str) -> Self {
        LogEvent {
            severity,
            event,
            trace_id: None,
            fields: Vec::new(),
        }
    }

    /// Attaches the trace id this event happened under.
    pub fn trace(mut self, trace_id: impl Into<String>) -> Self {
        self.trace_id = Some(trace_id.into());
        self
    }

    /// Appends one `fields` entry (insertion order is preserved).
    pub fn field(mut self, name: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((name, value.into()));
        self
    }
}

/// Fast-path flag: `true` iff a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Minimum severity rank that passes the filter.
static MIN_RANK: AtomicU8 = AtomicU8::new(1);
/// Monotonic line sequence; survives reinstalls so `seq` never repeats.
static SEQ: AtomicU64 = AtomicU64::new(0);
/// The single writer all threads funnel into.
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
/// Rendered recent lines, served by `GET /debug/events`.
static RECENT: LazyLock<Ring<String>> = LazyLock::new(|| Ring::new(256));

thread_local! {
    /// Per-thread render buffer, reused across emits.
    static RENDER_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Installs a stderr sink with the given minimum severity.
pub fn install_stderr(min: Severity) {
    install_writer(Box::new(std::io::stderr()), min);
}

/// Installs an arbitrary sink (tests use an in-memory buffer) with the
/// given minimum severity. Replaces any previous sink.
pub fn install_writer(writer: Box<dyn Write + Send>, min: Severity) {
    let mut sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    *sink = Some(writer);
    MIN_RANK.store(min.rank(), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the sink; [`emit`] goes back to its inert fast path.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    *sink = None;
}

/// Whether any sink is installed.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether an event at `severity` would currently be written. Callers on
/// hot paths check this before building high-volume events (the serve
/// access log at [`Severity::Debug`]) so the disabled path stays free.
#[inline]
pub fn enabled_at(severity: Severity) -> bool {
    ENABLED.load(Ordering::Relaxed) && severity.rank() >= MIN_RANK.load(Ordering::Relaxed)
}

/// The minimum severity currently passing the filter.
pub fn min_severity() -> Severity {
    Severity::from_rank(MIN_RANK.load(Ordering::Relaxed))
}

/// Emits an event: renders it as one JSON line, writes it to the sink,
/// and mirrors it into the recent-events ring. Returns the line's `seq`,
/// or `None` when logging is off or the severity is filtered. Inert (one
/// relaxed atomic load) when no sink is installed.
pub fn emit(event: LogEvent) -> Option<u64> {
    if !enabled_at(event.severity) {
        return None;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let line = RENDER_BUF.with_borrow_mut(|buf| {
        buf.clear();
        render_line(buf, seq, ts_ms, &event);
        buf.clone()
    });
    RECENT.push(line.clone());
    let mut sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(w) = sink.as_mut() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
        let _ = w.flush();
    }
    Some(seq)
}

/// The most recent rendered lines (oldest first), at most `limit`.
/// Lines are retained even across [`uninstall`] — the ring is the
/// backing store for `GET /debug/events`.
pub fn recent(limit: usize) -> Vec<String> {
    let snap = RECENT.snapshot();
    let skip = snap.len().saturating_sub(limit);
    snap.into_iter().skip(skip).map(|(_, line)| line).collect()
}

fn render_line(buf: &mut String, seq: u64, ts_ms: u64, event: &LogEvent) {
    use std::fmt::Write as _;
    let _ = write!(
        buf,
        "{{\"seq\":{seq},\"ts_ms\":{ts_ms},\"severity\":\"{}\",\"event\":",
        event.severity.label()
    );
    write_string(buf, event.event);
    if let Some(trace_id) = &event.trace_id {
        buf.push_str(",\"trace_id\":");
        write_string(buf, trace_id);
    }
    buf.push_str(",\"fields\":{");
    for (i, (name, value)) in event.fields.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        write_string(buf, name);
        buf.push(':');
        match value {
            FieldValue::Str(s) => write_string(buf, s),
            FieldValue::U64(v) => {
                let _ = write!(buf, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(buf, "{v}");
            }
            FieldValue::F64(v) if v.is_finite() => {
                let _ = write!(buf, "{v}");
            }
            FieldValue::F64(_) => buf.push_str("null"),
            FieldValue::Bool(v) => {
                let _ = write!(buf, "{v}");
            }
        }
    }
    buf.push_str("}}");
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// The logger is process-global; tests that install sinks serialise
    /// on this lock so they do not steal each other's output.
    pub(crate) static LOG_LOCK: StdMutex<()> = StdMutex::new(());

    /// A cloneable in-memory sink for asserting on emitted lines.
    #[derive(Clone, Default)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Capture {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            )
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
        }
    }

    #[test]
    fn emit_is_inert_without_a_sink() {
        let _guard = LOG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall();
        assert!(!enabled());
        assert_eq!(
            emit(LogEvent::new(Severity::Error, "test.ignored").field("k", 1u64)),
            None
        );
    }

    #[test]
    fn lines_follow_the_documented_schema() {
        let _guard = LOG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let cap = Capture::default();
        install_writer(Box::new(cap.clone()), Severity::Debug);
        let seq = emit(
            LogEvent::new(Severity::Warn, "serve.slow_request")
                .trace("9a1f0c3de4b25a76")
                .field("route", "plan")
                .field("status", 200u64)
                .field("duration_ms", 12.5)
                .field("cache_hit", false)
                .field("delta", -3i64),
        )
        .expect("sink installed");
        uninstall();
        let lines = cap.lines();
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with(&format!("{{\"seq\":{seq},\"ts_ms\":")));
        assert!(line.contains("\"severity\":\"warn\""));
        assert!(line.contains("\"event\":\"serve.slow_request\""));
        assert!(line.contains("\"trace_id\":\"9a1f0c3de4b25a76\""));
        assert!(line.contains(
            "\"fields\":{\"route\":\"plan\",\"status\":200,\"duration_ms\":12.5,\
             \"cache_hit\":false,\"delta\":-3}"
        ));
        assert!(line.ends_with("}}"));
        // The line is exactly one JSON object: balanced braces, no newline.
        assert!(!line.contains('\n'));
    }

    #[test]
    fn severity_filter_drops_below_minimum() {
        let _guard = LOG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let cap = Capture::default();
        install_writer(Box::new(cap.clone()), Severity::Warn);
        assert!(!enabled_at(Severity::Debug));
        assert!(!enabled_at(Severity::Info));
        assert!(enabled_at(Severity::Warn));
        assert!(enabled_at(Severity::Error));
        assert_eq!(emit(LogEvent::new(Severity::Info, "test.filtered")), None);
        assert!(emit(LogEvent::new(Severity::Error, "test.kept")).is_some());
        uninstall();
        let lines = cap.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("test.kept"));
    }

    #[test]
    fn sequence_is_monotonic_across_threads_and_mirrored_to_recent() {
        let _guard = LOG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let cap = Capture::default();
        install_writer(Box::new(cap.clone()), Severity::Debug);
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..50)
                        .map(|i| {
                            emit(
                                LogEvent::new(Severity::Info, "test.concurrent")
                                    .field("thread", t)
                                    .field("i", i as u64),
                            )
                            .unwrap()
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut seqs: Vec<u64> = Vec::new();
        for h in handles {
            let s = h.join().unwrap();
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            seqs.extend(s);
        }
        uninstall();
        seqs.sort_unstable();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "duplicate seq");
        // Every written line is intact JSON-ish (no interleaving).
        let lines = cap.lines();
        assert_eq!(lines.len(), 200);
        for line in &lines {
            assert!(line.starts_with("{\"seq\":"), "torn line: {line}");
            assert!(line.ends_with("}}"), "torn line: {line}");
        }
        // The recent ring mirrors the newest lines.
        let recent = recent(16);
        assert_eq!(recent.len(), 16);
        for line in &recent {
            assert!(line.contains("test.concurrent"));
        }
    }

    #[test]
    fn strings_are_json_escaped_and_nonfinite_floats_render_null() {
        let _guard = LOG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let cap = Capture::default();
        install_writer(Box::new(cap.clone()), Severity::Debug);
        emit(
            LogEvent::new(Severity::Info, "test.escape")
                .field("path", "/a\"b\\c\nd")
                .field("nan", f64::NAN),
        );
        uninstall();
        let line = cap.lines().remove(0);
        assert!(line.contains("\"path\":\"/a\\\"b\\\\c\\nd\""));
        assert!(line.contains("\"nan\":null"));
    }

    #[test]
    fn severity_labels_round_trip() {
        for sev in [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ] {
            assert_eq!(Severity::parse(sev.label()), Some(sev));
        }
        assert_eq!(Severity::parse("verbose"), None);
    }
}
