//! Property tests of the SimClock's ordering guarantees: pops are in
//! nondecreasing time order, ties break deterministically by
//! (kind priority, subject, insertion), and identical schedules drain
//! identically. The packed [`Event::order_key`] is checked against the
//! float comparator the clock used before it.

use mule_events::{Event, EventKind, EventSubject, SimClock};
use mule_net::NodeId;
use proptest::prelude::*;
use std::cmp::Ordering;

/// A compact, generatable description of one scheduled event.
fn event_strategy() -> impl Strategy<Value = (f64, usize, usize)> {
    // (time, kind selector, subject selector). Times are drawn from a
    // small set so same-timestamp collisions actually happen.
    (0.0..50.0f64, 0usize..8, 0usize..9)
}

fn kind_of(selector: usize) -> EventKind {
    match selector {
        0 => EventKind::TargetFailure,
        1 => EventKind::TargetRecovery,
        2 => EventKind::TargetArrival,
        3 => EventKind::MuleBreakdown,
        4 => EventKind::SpeedWindowEnd { factor: 0.5 },
        5 => EventKind::SpeedWindowStart { factor: 0.5 },
        6 => EventKind::Replan,
        _ => EventKind::WaypointArrival,
    }
}

fn subject_of(selector: usize) -> EventSubject {
    match selector {
        0 => EventSubject::Global,
        s if s < 5 => EventSubject::Mule(s - 1),
        s => EventSubject::Target(NodeId(s - 5)),
    }
}

fn subject_key(subject: EventSubject) -> (u8, usize) {
    match subject {
        EventSubject::Global => (0, 0),
        EventSubject::Mule(m) => (1, m),
        EventSubject::Target(id) => (2, id.index()),
    }
}

/// The largest subject index the packed key holds.
const MAX_INDEX: usize = (1 << 48) - 1;

/// Times that stress the key: signed zeros, subnormals, ties one ulp
/// apart and very large values. Selectors past the end draw `free`.
const EDGE_TIMES: [f64; 11] = [
    -0.0,
    0.0,
    5e-324,
    1.1e-308,
    1.0,
    1.000_000_000_000_000_2,
    2.5,
    1.0e15,
    1.0e300,
    f64::MAX,
    -3.0,
];

fn edge_time(selector: usize, free: f64) -> f64 {
    EDGE_TIMES.get(selector).copied().unwrap_or(free)
}

/// `(time selector, free time, kind selector, factor selector, subject
/// selector)`.
fn edge_event_strategy() -> impl Strategy<Value = (usize, f64, usize, usize, usize)> {
    (0usize..16, 0.0..3.0f64, 0usize..8, 0usize..2, 0usize..9)
}

fn edge_event((time, free, kind, factor, subject): (usize, f64, usize, usize, usize)) -> Event {
    let factor = [0.5, 0.25][factor];
    let kind = match kind {
        4 => EventKind::SpeedWindowEnd { factor },
        5 => EventKind::SpeedWindowStart { factor },
        k => kind_of(k),
    };
    let subject = match subject {
        0 => EventSubject::Global,
        1 => EventSubject::Mule(0),
        2 => EventSubject::Mule(2),
        3 => EventSubject::Mule(MAX_INDEX),
        4 => EventSubject::Target(NodeId(0)),
        5 => EventSubject::Target(NodeId(2)),
        6 => EventSubject::Target(NodeId(MAX_INDEX)),
        s => EventSubject::Mule(s),
    };
    Event {
        time_s: edge_time(time, (free * 4.0).floor()),
        subject,
        kind,
    }
}

/// The comparator the clock's heap used before events carried a packed
/// key: time under `total_cmp`, then kind priority, subject key and
/// insertion sequence.
fn float_order(a: &Event, seq_a: u64, b: &Event, seq_b: u64) -> Ordering {
    a.time_s.total_cmp(&b.time_s).then_with(|| {
        (a.kind.priority(), subject_key(a.subject), seq_a).cmp(&(
            b.kind.priority(),
            subject_key(b.subject),
            seq_b,
        ))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed key, with the sequence number after it, orders every
    /// pair of events exactly as the float comparator does.
    #[test]
    fn packed_keys_order_like_the_float_comparator(
        events in prop::collection::vec(edge_event_strategy(), 1..32)
    ) {
        let events: Vec<Event> = events.into_iter().map(edge_event).collect();
        for (i, a) in events.iter().enumerate() {
            for (j, b) in events.iter().enumerate() {
                let (i, j) = (i as u64, j as u64);
                prop_assert_eq!(
                    (a.order_key(), i).cmp(&(b.order_key(), j)),
                    float_order(a, i, b, j),
                    "{:?} vs {:?}", a, b
                );
            }
        }
    }

    /// The clock drains any schedule in the float comparator's order
    /// (times clamped to the clock's start, as `schedule_at` does).
    #[test]
    fn clock_drains_in_the_float_comparators_order(
        events in prop::collection::vec(edge_event_strategy(), 0..40)
    ) {
        let mut clock = SimClock::new();
        let mut expected: Vec<(Event, u64)> = Vec::new();
        for event in events.into_iter().map(edge_event) {
            if clock.schedule_at(event.time_s, event.subject, event.kind) {
                let seq = expected.len() as u64;
                let time_s = event.time_s.max(0.0);
                expected.push((Event { time_s, ..event }, seq));
            }
        }
        expected.sort_by(|(a, i), (b, j)| float_order(a, *i, b, *j));
        let drained: Vec<Event> = std::iter::from_fn(|| clock.next()).collect();
        let expected: Vec<Event> = expected.into_iter().map(|(e, _)| e).collect();
        prop_assert_eq!(drained, expected);
    }

    /// Coarsening times to steps of 5 forces many exact duplicates, so the
    /// tie-break path is exercised on almost every case.
    #[test]
    fn pops_are_in_nondecreasing_time_then_kind_then_subject_order(
        events in prop::collection::vec(event_strategy(), 0..40)
    ) {
        let mut clock = SimClock::new();
        for &(time, kind, subject) in &events {
            let time = (time / 5.0).floor() * 5.0;
            clock.schedule_at(time, subject_of(subject), kind_of(kind));
        }
        let mut drained = Vec::new();
        while let Some(ev) = clock.next() {
            drained.push(ev);
        }
        prop_assert_eq!(drained.len(), events.len());
        for w in drained.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            prop_assert!(a.time_s <= b.time_s, "time order violated: {} > {}", a.time_s, b.time_s);
            if a.time_s == b.time_s {
                let ka = (a.kind.priority(), subject_key(a.subject));
                let kb = (b.kind.priority(), subject_key(b.subject));
                prop_assert!(ka <= kb,
                    "tie-break violated at t={}: {:?} then {:?}", a.time_s, a, b);
            }
        }
    }

    /// Two clocks fed the same schedule drain identically — event identity
    /// included, not just timestamps.
    #[test]
    fn identical_schedules_drain_identically(
        events in prop::collection::vec(event_strategy(), 0..40)
    ) {
        let drain = || {
            let mut clock = SimClock::new();
            for &(time, kind, subject) in &events {
                clock.schedule_at(time, subject_of(subject), kind_of(kind));
            }
            let mut out = Vec::new();
            clock.run_until(f64::MAX, |_, ev| out.push(ev));
            out
        };
        let a = drain();
        let b = drain();
        prop_assert_eq!(a, b);
    }

    /// The drain loop respects any horizon: everything at or before it
    /// fires, everything after it stays queued.
    #[test]
    fn run_until_splits_exactly_at_the_horizon(
        events in prop::collection::vec(event_strategy(), 0..40),
        horizon in 0.0..60.0f64
    ) {
        let mut clock = SimClock::new();
        for &(time, kind, subject) in &events {
            clock.schedule_at(time, subject_of(subject), kind_of(kind));
        }
        let mut fired = Vec::new();
        clock.run_until(horizon, |_, ev| fired.push(ev.time_s));
        let expected = events.iter().filter(|(t, _, _)| *t <= horizon).count();
        prop_assert_eq!(fired.len(), expected);
        prop_assert!(fired.iter().all(|&t| t <= horizon));
        prop_assert_eq!(clock.len(), events.len() - expected);
    }
}
