//! The binary-heap simulation clock.

use crate::event::{Event, EventKind, EventSubject};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One entry of the clock's heap: an event, its packed
/// [`Event::order_key`] and the insertion sequence number that makes the
/// ordering total.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    key: u128,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest event
        // on top. `seq` is unique, so this ordering is total and
        // consistent with `eq`.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A discrete-event simulation clock.
///
/// Events are scheduled with [`SimClock::schedule_at`] and drained in
/// deterministic `(time, kind, subject, insertion)` order by
/// [`SimClock::next`] or the [`SimClock::run_until`] drain loop. The clock
/// never runs backwards: events scheduled before the current time fire *at*
/// the current time.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    heap: BinaryHeap<Scheduled>,
    now_s: f64,
    next_seq: u64,
    fired: u64,
}

impl SimClock {
    /// A clock at time zero with an empty timeline.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulation time, seconds. Advances as events fire.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Number of events currently scheduled.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of events fired so far.
    #[inline]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Schedules `kind` on `subject` at absolute time `time_s`. Times in
    /// the past are clamped to the current time; non-finite times are
    /// rejected (returns `false`) so a NaN arithmetic bug upstream cannot
    /// stall the timeline.
    pub fn schedule_at(&mut self, time_s: f64, subject: EventSubject, kind: EventKind) -> bool {
        if !time_s.is_finite() {
            return false;
        }
        let event = Event {
            time_s: time_s.max(self.now_s),
            subject,
            kind,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            key: event.order_key(),
            seq,
            event,
        });
        true
    }

    /// Time of the next scheduled event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.event.time_s)
    }

    /// Pops the next event and advances the clock to its time.
    // Deliberately named like `Iterator::next`; the clock is not an
    // iterator because handlers need `&mut self` between pops.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Event> {
        let scheduled = self.heap.pop()?;
        self.now_s = scheduled.event.time_s;
        self.fired += 1;
        Some(scheduled.event)
    }

    /// Drain loop: fires every event with `time_s <= horizon_s`, in order,
    /// handing each to `handler` together with `&mut self` so handlers can
    /// schedule follow-up events. Events beyond the horizon stay queued.
    /// Returns the number of events fired by this call.
    pub fn run_until<F>(&mut self, horizon_s: f64, mut handler: F) -> u64
    where
        F: FnMut(&mut SimClock, Event),
    {
        let mut count = 0;
        while let Some(next_time) = self.peek_time() {
            if next_time.total_cmp(&horizon_s) == Ordering::Greater {
                break;
            }
            // `peek_time` is `Some`, so `next()` cannot return `None`.
            let event = self.next().expect("non-empty heap");
            handler(self, event);
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_net::NodeId;

    #[test]
    fn events_pop_in_time_order() {
        let mut clock = SimClock::new();
        clock.schedule_at(5.0, EventSubject::Mule(0), EventKind::WaypointArrival);
        clock.schedule_at(1.0, EventSubject::Mule(1), EventKind::WaypointArrival);
        clock.schedule_at(3.0, EventSubject::Mule(2), EventKind::WaypointArrival);
        let times: Vec<f64> = std::iter::from_fn(|| clock.next().map(|e| e.time_s)).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert_eq!(clock.now(), 5.0);
        assert_eq!(clock.fired(), 3);
    }

    #[test]
    fn same_time_ties_break_by_kind_then_subject_then_insertion() {
        let mut clock = SimClock::new();
        clock.schedule_at(2.0, EventSubject::Mule(1), EventKind::WaypointArrival);
        clock.schedule_at(2.0, EventSubject::Mule(0), EventKind::WaypointArrival);
        clock.schedule_at(
            2.0,
            EventSubject::Target(NodeId(3)),
            EventKind::TargetFailure,
        );
        clock.schedule_at(2.0, EventSubject::Global, EventKind::Replan);
        let kinds: Vec<(EventKind, EventSubject)> =
            std::iter::from_fn(|| clock.next().map(|e| (e.kind, e.subject))).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::TargetFailure, EventSubject::Target(NodeId(3))),
                (EventKind::Replan, EventSubject::Global),
                (EventKind::WaypointArrival, EventSubject::Mule(0)),
                (EventKind::WaypointArrival, EventSubject::Mule(1)),
            ]
        );
    }

    #[test]
    fn identical_events_pop_in_insertion_order() {
        let mut clock = SimClock::new();
        for _ in 0..3 {
            clock.schedule_at(1.0, EventSubject::Mule(0), EventKind::WaypointArrival);
        }
        let mut seen = 0;
        clock.run_until(10.0, |_, _| seen += 1);
        assert_eq!(seen, 3);
    }

    #[test]
    fn run_until_respects_the_horizon_and_keeps_later_events() {
        let mut clock = SimClock::new();
        clock.schedule_at(1.0, EventSubject::Global, EventKind::Replan);
        clock.schedule_at(10.0, EventSubject::Global, EventKind::Replan);
        let fired = clock.run_until(5.0, |_, _| {});
        assert_eq!(fired, 1);
        assert_eq!(clock.len(), 1);
        assert_eq!(clock.peek_time(), Some(10.0));
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut clock = SimClock::new();
        clock.schedule_at(0.0, EventSubject::Mule(0), EventKind::WaypointArrival);
        let mut times = Vec::new();
        clock.run_until(10.0, |clock, ev| {
            times.push(ev.time_s);
            if ev.time_s < 8.0 {
                clock.schedule_at(clock.now() + 3.0, ev.subject, ev.kind);
            }
        });
        assert_eq!(times, vec![0.0, 3.0, 6.0, 9.0]);
        assert!(clock.is_empty());
    }

    #[test]
    fn past_and_nonfinite_times_are_handled_totally() {
        let mut clock = SimClock::new();
        clock.schedule_at(100.0, EventSubject::Global, EventKind::Replan);
        clock.next();
        assert!(clock.schedule_at(5.0, EventSubject::Global, EventKind::Replan));
        assert_eq!(clock.peek_time(), Some(100.0), "past events clamp to now");
        assert!(!clock.schedule_at(f64::NAN, EventSubject::Global, EventKind::Replan));
        assert!(!clock.schedule_at(f64::INFINITY, EventSubject::Global, EventKind::Replan));
        assert_eq!(clock.len(), 1);
        assert!(clock.schedule_at(clock.now() - 10.0, EventSubject::Global, EventKind::Replan));
        assert_eq!(clock.peek_time(), Some(100.0));
    }

    #[test]
    fn starting_clock_state_is_clean() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), 0.0);
        assert!(clock.is_empty());
        assert_eq!(clock.len(), 0);
        assert_eq!(clock.peek_time(), None);
    }
}
