//! # mule-fault
//!
//! Seeded, deterministic fault injection for the patrolling workspace, in
//! the same opt-in style as `mule-obs` tracing: code under test declares
//! **named fault points** (`mule_fault::point("serve.plan")`), and a
//! process-wide [`FaultPlan`] decides — purely as a function of the plan
//! seed and each rule's hit counter — whether a visit to that point fires
//! a fault.
//!
//! ## Contract
//!
//! * **Disarmed ⇒ inert.** With no plan armed (the default), every fault
//!   point is a single relaxed atomic load returning `None`. No fault can
//!   fire, no state is touched, and all byte-identity contracts elsewhere
//!   in the workspace (golden plan bytes, cache bytes, trace shapes) hold
//!   exactly as if this crate did not exist.
//! * **Armed ⇒ deterministic.** Each [`FaultRule`] owns a monotonically
//!   increasing hit counter. Whether the rule fires on its *n*-th hit is a
//!   pure function of `(plan.seed, rule index, n)` — a SplitMix64 draw
//!   compared against the rule's probability — so re-arming the same plan
//!   and replaying the same sequence of point visits reproduces the exact
//!   same firing sequence, regardless of wall-clock timing.
//! * **Every firing is observable.** Firings are appended to a global
//!   [`Firing`] log (see [`firing_log`]), aggregated into per-point/kind
//!   counters (see [`injection_counts`], exported by `mule-serve` as
//!   `mule_fault_injected_total{point,kind}`), and counted onto the
//!   current `mule-obs` span as `fault.injected` when a trace is active.
//!
//! ## Fault kinds
//!
//! | kind | spec syntax | behaviour at the point |
//! |------|-------------|------------------------|
//! | [`FaultKind::Delay`] | `delay:MS` | sleeps `MS` milliseconds, then continues |
//! | [`FaultKind::Panic`] | `panic` | panics with [`INJECTED_PANIC_PREFIX`] + point name |
//! | [`FaultKind::Io`] | `io` | returns [`Injected::Io`]; call sites surface an [`std::io::Error`] |
//! | [`FaultKind::Evict`] | `evict` | returns [`Injected::Evict`]; call sites drop the cache entry |
//!
//! `Delay` and `Panic` are applied *inside* the fault point (the caller
//! never sees them as a return value); `Io` and `Evict` need call-site
//! cooperation and are returned as [`Injected`] values.
//!
//! ```
//! use mule_fault::{FaultKind, FaultPlan};
//!
//! // Disarmed: inert.
//! assert!(mule_fault::point("doc.example").is_none());
//!
//! let plan = FaultPlan::parse(7, "doc.example=evict@1.0#2").unwrap();
//! mule_fault::arm(plan);
//! assert!(matches!(
//!     mule_fault::point("doc.example"),
//!     Some(mule_fault::Injected::Evict)
//! ));
//! mule_fault::disarm();
//! assert!(mule_fault::point("doc.example").is_none());
//! # let _ = FaultKind::Evict;
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

use mule_obs::splitmix64;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Prefix of the panic payload produced by [`FaultKind::Panic`] firings;
/// sweep quarantine and chaos assertions recognise injected panics by it.
pub const INJECTED_PANIC_PREFIX: &str = "mule-fault: injected panic at";

/// The message a caught panic carries: its `&str` or `String` payload,
/// which is what `panic!` produces, or a fixed note for any other payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Installs, once per process, a panic hook that drops the report of an
/// injected panic and hands every other panic to the hook it replaced.
/// Injected panics are caught and recovered by design; their default
/// reports would bury a chaos report or a test's output.
pub fn silence_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !panic_message(info.payload()).starts_with(INJECTED_PANIC_PREFIX) {
                previous(info);
            }
        }));
    });
}

/// What a firing rule does at its fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep for the given number of milliseconds, then continue normally.
    Delay {
        /// Injected latency in milliseconds.
        ms: u64,
    },
    /// Panic with a recognisable [`INJECTED_PANIC_PREFIX`] message.
    Panic,
    /// Ask the call site to surface an I/O error ([`Injected::Io`]).
    Io,
    /// Ask the call site to drop a cache entry ([`Injected::Evict`]).
    Evict,
}

impl FaultKind {
    /// Stable lowercase label used in metrics and the firing log.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Delay { .. } => "delay",
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
            FaultKind::Evict => "evict",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Delay { ms } => write!(f, "delay:{ms}"),
            _ => f.write_str(self.label()),
        }
    }
}

/// One injection rule: at every visit of `point`, draw deterministically
/// and fire `kind` with the given probability, at most `limit` times.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Fault point name the rule applies to (exact match).
    pub point: String,
    /// What firing does.
    pub kind: FaultKind,
    /// Per-hit firing probability in `[0, 1]`; `1.0` fires on every hit.
    pub probability: f64,
    /// Maximum number of firings, `None` for unlimited.
    pub limit: Option<u64>,
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.point, self.kind)?;
        if self.probability != 1.0 {
            write!(f, "@{}", self.probability)?;
        }
        if let Some(limit) = self.limit {
            write!(f, "#{limit}")?;
        }
        Ok(())
    }
}

/// A seeded set of [`FaultRule`]s; arming one (see [`arm`]) makes fault
/// points live until [`disarm`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic per-rule firing decisions.
    pub seed: u64,
    /// Rules, evaluated in order at each point visit (first firing wins).
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Parses the compact rule syntax used by `patrolctl`:
    /// comma-separated `point=kind[:arg][@probability][#limit]` rules,
    /// e.g. `serve.plan=panic@0.25#3,serve.conn.read=io@0.1` or
    /// `serve.plan=delay:50`.
    pub fn parse(seed: u64, spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            plan.rules.push(parse_rule(raw)?);
        }
        if plan.rules.is_empty() {
            return Err(format!("fault plan `{spec}` contains no rules"));
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{rule}")?;
        }
        Ok(())
    }
}

fn parse_rule(raw: &str) -> Result<FaultRule, String> {
    let (point, rest) = raw
        .split_once('=')
        .ok_or_else(|| format!("fault rule `{raw}` is missing `point=kind`"))?;
    let point = point.trim();
    if point.is_empty() {
        return Err(format!("fault rule `{raw}` has an empty point name"));
    }
    let (rest, limit) = match rest.split_once('#') {
        Some((head, limit)) => {
            let limit: u64 = limit
                .trim()
                .parse()
                .map_err(|_| format!("fault rule `{raw}` has a non-integer limit"))?;
            (head, Some(limit))
        }
        None => (rest, None),
    };
    let (kind, probability) = match rest.split_once('@') {
        Some((kind, prob)) => {
            let p: f64 = prob
                .trim()
                .parse()
                .map_err(|_| format!("fault rule `{raw}` has a non-numeric probability"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "fault rule `{raw}` probability must be within [0, 1]"
                ));
            }
            (kind, p)
        }
        None => (rest, 1.0),
    };
    let kind = match kind.trim() {
        "panic" => FaultKind::Panic,
        "io" => FaultKind::Io,
        "evict" => FaultKind::Evict,
        other => match other.split_once(':') {
            Some(("delay", ms)) => {
                let ms: u64 = ms
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault rule `{raw}` has a non-integer delay"))?;
                FaultKind::Delay { ms }
            }
            _ => {
                return Err(format!(
                    "fault rule `{raw}` has unknown kind `{other}` \
                     (expected delay:MS, panic, io, or evict)"
                ))
            }
        },
    };
    Ok(FaultRule {
        point: point.to_string(),
        kind,
        probability,
        limit,
    })
}

/// A fault the call site must apply itself (returned by [`point`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// Surface an I/O error (see [`io_error`] for a ready-made one).
    Io,
    /// Drop the cache entry the call site is about to consult.
    Evict,
}

/// One recorded firing, in global firing order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// Global 0-based firing sequence number.
    pub sequence: u64,
    /// Fault point that fired.
    pub point: String,
    /// Kind label (`delay` / `panic` / `io` / `evict`).
    pub kind: &'static str,
    /// Index of the firing rule within the armed plan.
    pub rule: usize,
    /// The rule's 0-based hit index at which it fired.
    pub hit: u64,
}

struct ArmedState {
    plan: FaultPlan,
    /// Per-rule visit counters (every visit of a matching point).
    hits: Vec<AtomicU64>,
    /// Per-rule firing counters (visits where the rule actually fired).
    fired: Vec<AtomicU64>,
    sequence: AtomicU64,
    log: Mutex<Vec<Firing>>,
}

/// Fast-path flag: `false` means no plan is armed and [`point`] returns
/// `None` after a single relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);

static STATE: Mutex<Option<Arc<ArmedState>>> = Mutex::new(None);

fn state() -> Option<Arc<ArmedState>> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Arms `plan` process-wide, resetting all hit counters, firing counters,
/// and the firing log. Fault points become live immediately on all
/// threads.
pub fn arm(plan: FaultPlan) {
    let rules = plan.rules.len();
    let armed = Arc::new(ArmedState {
        plan,
        hits: (0..rules).map(|_| AtomicU64::new(0)).collect(),
        fired: (0..rules).map(|_| AtomicU64::new(0)).collect(),
        sequence: AtomicU64::new(0),
        log: Mutex::new(Vec::new()),
    });
    *STATE.lock().unwrap_or_else(PoisonError::into_inner) = Some(armed);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms fault injection; all fault points return to the inert fast
/// path. Counters and the firing log are discarded.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *STATE.lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Uniform `[0, 1)` draw for rule `rule` on its `hit`-th visit — a pure
/// function of the triple, which is what makes firing sequences
/// reproducible across runs and thread interleavings.
fn decision_draw(seed: u64, rule: usize, hit: u64) -> f64 {
    let mixed = splitmix64(
        seed ^ splitmix64(rule as u64 ^ 0xA076_1D64_78BD_642F)
            ^ splitmix64(hit ^ 0xE703_7ED1_A0B4_28DB),
    );
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

/// Declares a fault point. Returns `None` when nothing fires (the
/// overwhelmingly common case, and always when disarmed); `Delay` and
/// `Panic` firings are applied in place, `Io`/`Evict` firings are
/// returned for the call site to apply.
pub fn point(name: &str) -> Option<Injected> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let armed = state()?;
    // Every matching rule's hit counter advances on every visit, so each
    // rule's decision stream is independent of whether earlier rules in
    // the plan fired.
    let mut winner: Option<(usize, u64)> = None;
    for (i, rule) in armed.plan.rules.iter().enumerate() {
        if rule.point != name {
            continue;
        }
        let hit = armed.hits[i].fetch_add(1, Ordering::Relaxed);
        if winner.is_some() {
            continue;
        }
        if decision_draw(armed.plan.seed, i, hit) >= rule.probability {
            continue;
        }
        if let Some(limit) = rule.limit {
            // Claim a firing slot; rules past their limit stay quiet.
            let claimed = armed.fired[i]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < limit).then_some(n + 1)
                })
                .is_ok();
            if !claimed {
                continue;
            }
        } else {
            armed.fired[i].fetch_add(1, Ordering::Relaxed);
        }
        winner = Some((i, hit));
    }
    let (rule_idx, hit) = winner?;
    let rule = &armed.plan.rules[rule_idx];
    let firing = Firing {
        sequence: armed.sequence.fetch_add(1, Ordering::Relaxed),
        point: rule.point.clone(),
        kind: rule.kind.label(),
        rule: rule_idx,
        hit,
    };
    armed
        .log
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(firing.clone());
    mule_obs::add("fault.injected", 1);
    // Mirror the firing into the structured event log (inert when no
    // sink is installed — the disarmed/offline byte-identity contract
    // only concerns disarmed runs, but armed runs without a logger must
    // not pay for rendering either).
    if mule_obs::log::enabled_at(mule_obs::log::Severity::Warn) {
        mule_obs::log::emit(
            mule_obs::log::LogEvent::new(mule_obs::log::Severity::Warn, "fault.injected")
                .field("point", firing.point.as_str())
                .field("kind", firing.kind)
                .field("rule", firing.rule)
                .field("hit", firing.hit)
                .field("sequence", firing.sequence),
        );
    }
    match rule.kind {
        FaultKind::Delay { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        FaultKind::Panic => {
            panic!("{INJECTED_PANIC_PREFIX} `{name}`");
        }
        FaultKind::Io => Some(Injected::Io),
        FaultKind::Evict => Some(Injected::Evict),
    }
}

/// [`point`] specialised for I/O call sites: a firing `io` rule becomes a
/// ready-made [`std::io::Error`] (other kinds behave as in [`point`];
/// an `evict` firing at an I/O point is ignored).
pub fn io_error(name: &str) -> Option<std::io::Error> {
    match point(name) {
        Some(Injected::Io) => Some(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            format!("mule-fault: injected i/o error at `{name}`"),
        )),
        _ => None,
    }
}

/// Aggregated firing counters of the armed plan as sorted
/// `(point, kind, count)` rows — the backing data of the
/// `mule_fault_injected_total{point,kind}` metric family. Empty when
/// disarmed.
pub fn injection_counts() -> Vec<(String, &'static str, u64)> {
    let Some(armed) = state() else {
        return Vec::new();
    };
    let mut counts: Vec<(String, &'static str, u64)> = Vec::new();
    for (i, rule) in armed.plan.rules.iter().enumerate() {
        let fired = armed.fired[i].load(Ordering::Relaxed);
        if fired == 0 {
            continue;
        }
        match counts
            .iter_mut()
            .find(|(p, k, _)| *p == rule.point && *k == rule.kind.label())
        {
            Some(row) => row.2 += fired,
            None => counts.push((rule.point.clone(), rule.kind.label(), fired)),
        }
    }
    counts.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    counts
}

/// The firing log of the armed plan, in global firing order. Empty when
/// disarmed.
pub fn firing_log() -> Vec<Firing> {
    match state() {
        Some(armed) => armed
            .log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone(),
        None => Vec::new(),
    }
}

/// Total number of firings of the armed plan so far (0 when disarmed).
pub fn firings_total() -> u64 {
    state().map_or(0, |armed| armed.sequence.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Fault state is process-global; tests that arm plans serialise on
    /// this lock so cargo's parallel test threads cannot interleave.
    fn armed_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_points_are_inert() {
        let _guard = armed_guard();
        disarm();
        assert!(point("anything").is_none());
        assert!(io_error("anything").is_none());
        assert!(injection_counts().is_empty());
        assert!(firing_log().is_empty());
        assert_eq!(firings_total(), 0);
    }

    #[test]
    fn parse_round_trips_the_compact_syntax() {
        let plan = FaultPlan::parse(
            9,
            "serve.plan=panic@0.25#3, serve.plan=delay:50, conn.read=io@0.1, c=evict",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(
            plan.rules[0],
            FaultRule {
                point: "serve.plan".into(),
                kind: FaultKind::Panic,
                probability: 0.25,
                limit: Some(3),
            }
        );
        assert_eq!(plan.rules[1].kind, FaultKind::Delay { ms: 50 });
        assert_eq!(plan.rules[2].probability, 0.1);
        assert_eq!(plan.rules[3].kind, FaultKind::Evict);
        let rendered = plan.to_string();
        assert_eq!(FaultPlan::parse(9, &rendered).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        assert!(FaultPlan::parse(1, "").is_err());
        assert!(FaultPlan::parse(1, "no-equals").is_err());
        assert!(FaultPlan::parse(1, "p=unknown").is_err());
        assert!(FaultPlan::parse(1, "p=delay:abc").is_err());
        assert!(FaultPlan::parse(1, "p=panic@1.5").is_err());
        assert!(FaultPlan::parse(1, "p=panic#x").is_err());
        assert!(FaultPlan::parse(1, "=panic").is_err());
    }

    #[test]
    fn same_seed_reproduces_the_exact_firing_sequence() {
        let _guard = armed_guard();
        let plan = FaultPlan::parse(42, "a=evict@0.3,a=io@0.2,b=evict@0.5").unwrap();
        let mut runs = Vec::new();
        for _ in 0..2 {
            arm(plan.clone());
            for i in 0..200 {
                let name = if i % 3 == 0 { "b" } else { "a" };
                let _ = point(name);
            }
            runs.push(firing_log());
            disarm();
        }
        assert!(!runs[0].is_empty(), "plan should fire at this volume");
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn different_seeds_differ() {
        let _guard = armed_guard();
        let mut logs = Vec::new();
        for seed in [1u64, 2] {
            arm(FaultPlan::parse(seed, "a=evict@0.5").unwrap());
            for _ in 0..64 {
                let _ = point("a");
            }
            logs.push(firing_log());
            disarm();
        }
        assert_ne!(logs[0], logs[1]);
    }

    #[test]
    fn limit_caps_firings_and_counts_only_real_firings() {
        let _guard = armed_guard();
        arm(FaultPlan::parse(3, "a=evict#2").unwrap());
        let fired: usize = (0..10)
            .filter(|_| matches!(point("a"), Some(Injected::Evict)))
            .count();
        assert_eq!(fired, 2);
        assert_eq!(injection_counts(), vec![("a".to_string(), "evict", 2)]);
        assert_eq!(firings_total(), 2);
        disarm();
    }

    #[test]
    fn panic_kind_panics_with_the_recognisable_prefix() {
        let _guard = armed_guard();
        arm(FaultPlan::parse(5, "boom=panic#1").unwrap());
        let err = std::panic::catch_unwind(|| point("boom")).unwrap_err();
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload should be a String");
        assert!(message.starts_with(INJECTED_PANIC_PREFIX), "{message}");
        assert!(message.contains("boom"));
        // After the limit, the point is quiet again.
        assert!(point("boom").is_none());
        disarm();
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&7u32), "panic with a non-string payload");
    }

    #[test]
    fn io_error_helper_produces_an_error_for_io_rules() {
        let _guard = armed_guard();
        arm(FaultPlan::parse(6, "net=io#1").unwrap());
        let err = io_error("net").expect("first hit should fire");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert!(io_error("net").is_none(), "limit reached");
        disarm();
    }

    #[test]
    fn probability_zero_never_fires_and_one_always_fires() {
        let _guard = armed_guard();
        arm(FaultPlan::parse(8, "never=evict@0.0,always=evict@1.0").unwrap());
        for _ in 0..50 {
            assert!(point("never").is_none());
            assert_eq!(point("always"), Some(Injected::Evict));
        }
        disarm();
    }

    #[test]
    fn first_matching_firing_wins_but_all_hit_streams_advance() {
        let _guard = armed_guard();
        // Two always-firing rules on one point: the first rule wins every
        // visit, the second stays unfired.
        arm(FaultPlan::parse(4, "p=evict,p=io").unwrap());
        for _ in 0..10 {
            assert_eq!(point("p"), Some(Injected::Evict));
        }
        assert_eq!(injection_counts(), vec![("p".to_string(), "evict", 10)]);
        disarm();
    }

    #[test]
    fn decision_draw_is_uniform_enough_and_pure() {
        let n = 10_000;
        let hits = (0..n).filter(|&h| decision_draw(77, 0, h) < 0.3).count() as f64;
        let rate = hits / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "empirical rate {rate}");
        assert_eq!(decision_draw(1, 2, 3), decision_draw(1, 2, 3));
    }
}
