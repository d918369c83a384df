//! A per-route circuit breaker: after `threshold` *consecutive* compute
//! failures (panics or deadline timeouts) the route opens and fails fast
//! with `503` — protecting the worker pool from burning time on a
//! systematically failing compute — until a cooldown elapses and a single
//! half-open probe is admitted. A successful probe closes the breaker; a
//! failing one re-opens it.
//!
//! Client errors (4xx) never trip the breaker: a storm of bad requests is
//! the caller's problem, not a reason to stop serving good ones.
//!
//! The breaker is time-based by necessity (the cooldown is wall clock),
//! so it is the one deliberately non-deterministic piece of the
//! degradation machinery; `patrolctl chaos` runs with a cooldown longer
//! than the run so open breakers stay open and firing sequences stay
//! reproducible.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The three classic breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally; consecutive failures are counted.
    Closed,
    /// Requests fail fast with 503 until the cooldown elapses.
    Open,
    /// One probe request is in flight; its outcome decides the next state.
    HalfOpen,
}

impl BreakerState {
    /// Stable label used in metrics.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric gauge value (`0` closed, `1` open, `2` half-open).
    pub fn code(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: usize,
    /// When the breaker last entered `Open` / `HalfOpen`.
    since: Instant,
    opened: u64,
    half_opened: u64,
    closed: u64,
    fast_failed: u64,
}

/// Counter snapshot for `/metrics` (see [`CircuitBreaker::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Transitions into `Open`.
    pub opened: u64,
    /// Transitions into `HalfOpen`.
    pub half_opened: u64,
    /// Transitions into `Closed` (recoveries; the initial state is not
    /// counted).
    pub closed: u64,
    /// Requests rejected fast while open.
    pub fast_failed: u64,
}

/// See module docs. `threshold == 0` disables the breaker entirely:
/// [`CircuitBreaker::admit`] always admits and no state is tracked.
#[derive(Debug)]
pub struct CircuitBreaker {
    /// Route label for `breaker.transition` log events; empty for
    /// anonymous (test) breakers, which then log nothing.
    name: &'static str,
    threshold: usize,
    cooldown: Duration,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A breaker opening after `threshold` consecutive failures, with
    /// half-open probes every `cooldown` while open.
    pub fn new(threshold: usize, cooldown: Duration) -> Self {
        Self::named("", threshold, cooldown)
    }

    /// [`CircuitBreaker::new`] with a route name: every state transition
    /// emits a `breaker.transition` structured-log event carrying it
    /// (see [`mule_obs::log`]).
    pub fn named(name: &'static str, threshold: usize, cooldown: Duration) -> Self {
        CircuitBreaker {
            name,
            threshold,
            cooldown,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                since: Instant::now(),
                opened: 0,
                half_opened: 0,
                closed: 0,
                fast_failed: 0,
            }),
        }
    }

    /// Emits the transition event — called *after* the state lock is
    /// released, so a slow log sink never extends the breaker's critical
    /// section.
    fn log_transition(&self, from: BreakerState, to: BreakerState) {
        use mule_obs::log::{emit, enabled_at, LogEvent, Severity};
        if self.name.is_empty() || !enabled_at(Severity::Info) {
            return;
        }
        emit(
            LogEvent::new(Severity::Info, "breaker.transition")
                .field("route", self.name)
                .field("from", from.label())
                .field("to", to.label()),
        );
    }

    /// Whether the breaker participates at all.
    pub fn is_enabled(&self) -> bool {
        self.threshold > 0
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admission check, called before computing. `false` means fail fast
    /// with 503. While open, the first call after the cooldown becomes
    /// the half-open probe; while half-open, a stuck probe stops blocking
    /// others after another cooldown (a second probe is admitted).
    pub fn admit(&self) -> bool {
        if !self.is_enabled() {
            return true;
        }
        let mut inner = self.lock();
        let (admitted, transition) = match inner.state {
            BreakerState::Closed => (true, None),
            from @ (BreakerState::Open | BreakerState::HalfOpen) => {
                if inner.since.elapsed() >= self.cooldown {
                    inner.state = BreakerState::HalfOpen;
                    inner.since = Instant::now();
                    inner.half_opened += 1;
                    (true, Some((from, BreakerState::HalfOpen)))
                } else {
                    inner.fast_failed += 1;
                    (false, None)
                }
            }
        };
        drop(inner);
        if let Some((from, to)) = transition {
            self.log_transition(from, to);
        }
        admitted
    }

    /// Reports a successful compute: resets the failure streak and closes
    /// a half-open breaker.
    pub fn on_success(&self) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        inner.consecutive_failures = 0;
        let transition = if inner.state != BreakerState::Closed {
            let from = inner.state;
            inner.state = BreakerState::Closed;
            inner.closed += 1;
            Some((from, BreakerState::Closed))
        } else {
            None
        };
        drop(inner);
        if let Some((from, to)) = transition {
            self.log_transition(from, to);
        }
    }

    /// Reports a failed compute (panic or deadline). Extends the failure
    /// streak; at `threshold` consecutive failures — or on any failure of
    /// a half-open probe — the breaker opens.
    pub fn on_failure(&self) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        inner.consecutive_failures += 1;
        let should_open = inner.state == BreakerState::HalfOpen
            || (inner.state == BreakerState::Closed
                && inner.consecutive_failures >= self.threshold);
        let transition = if should_open {
            let from = inner.state;
            inner.state = BreakerState::Open;
            inner.since = Instant::now();
            inner.opened += 1;
            Some((from, BreakerState::Open))
        } else {
            None
        };
        drop(inner);
        if let Some((from, to)) = transition {
            self.log_transition(from, to);
        }
    }

    /// Current state and transition counters, for `/metrics`.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let inner = self.lock();
        BreakerSnapshot {
            state: inner.state,
            opened: inner.opened,
            half_opened: inner.half_opened,
            closed: inner.closed,
            fast_failed: inner.fast_failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: usize, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(threshold, Duration::from_millis(cooldown_ms))
    }

    #[test]
    fn disabled_breaker_always_admits() {
        let b = breaker(0, 10);
        assert!(!b.is_enabled());
        for _ in 0..10 {
            b.on_failure();
            assert!(b.admit());
        }
        assert_eq!(b.snapshot().state, BreakerState::Closed);
        assert_eq!(b.snapshot().opened, 0);
    }

    #[test]
    fn opens_after_threshold_consecutive_failures_only() {
        let b = breaker(3, 60_000);
        b.on_failure();
        b.on_failure();
        b.on_success(); // streak broken
        b.on_failure();
        b.on_failure();
        assert!(b.admit(), "still closed at 2/3");
        b.on_failure();
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert!(!b.admit(), "open fails fast");
        assert_eq!(b.snapshot().fast_failed, 1);
        assert_eq!(b.snapshot().opened, 1);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let b = breaker(1, 20);
        b.on_failure();
        assert!(!b.admit());
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(b.snapshot().state, BreakerState::HalfOpen);
        b.on_success();
        let snap = b.snapshot();
        assert_eq!(snap.state, BreakerState::Closed);
        assert_eq!(snap.half_opened, 1);
        assert_eq!(snap.closed, 1);
        assert!(b.admit());
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let b = breaker(1, 20);
        b.on_failure();
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.admit());
        b.on_failure();
        assert_eq!(b.snapshot().state, BreakerState::Open);
        assert_eq!(b.snapshot().opened, 2);
        assert!(!b.admit(), "fresh cooldown after the failed probe");
    }

    #[test]
    fn half_open_rejects_concurrent_requests_until_another_cooldown() {
        let b = breaker(1, 30);
        b.on_failure();
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.admit(), "first probe");
        assert!(!b.admit(), "second request while probing fails fast");
        // A probe that never reports back must not wedge the route.
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.admit(), "stuck probe: another probe admitted");
        assert_eq!(b.snapshot().half_opened, 2);
    }

    #[test]
    fn state_labels_and_codes_are_stable() {
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half_open");
        assert_eq!(BreakerState::Closed.code(), 0);
        assert_eq!(BreakerState::Open.code(), 1);
        assert_eq!(BreakerState::HalfOpen.code(), 2);
    }
}
