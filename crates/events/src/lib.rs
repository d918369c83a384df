//! # mule-events
//!
//! A reusable discrete-event timeline for the data-mule patrolling
//! workspace: a binary-heap simulation clock ([`SimClock`]) over typed,
//! subject-targeted events with fully deterministic ordering.
//!
//! The design follows the classic DES shape (a priority queue of
//! `(time, event)` pairs drained in time order, where handling an event may
//! schedule follow-up events) with two hard guarantees the simulator's
//! reproducibility depends on:
//!
//! 1. **Total time order.** Event times are `f64` seconds ordered as
//!    [`f64::total_cmp`] orders them, so a NaN can never silently corrupt
//!    the heap order (it sorts to a defined position instead of making
//!    comparisons inconsistent). The heap compares integers: each entry
//!    carries its packed [`Event::order_key`].
//! 2. **Deterministic tie-breaking.** Events at the same timestamp pop in
//!    `(kind priority, subject key, insertion sequence)` order. Disruptions
//!    apply before waypoint arrivals at the same instant, mules resolve in
//!    index order, and two otherwise-identical events resolve in the order
//!    they were scheduled — never in allocator or hash order.
//!
//! ```
//! use mule_events::{EventKind, EventSubject, SimClock};
//!
//! let mut clock = SimClock::new();
//! clock.schedule_at(10.0, EventSubject::Mule(1), EventKind::WaypointArrival);
//! clock.schedule_at(10.0, EventSubject::Mule(0), EventKind::WaypointArrival);
//! let mut order = Vec::new();
//! clock.run_until(100.0, |_clock, ev| order.push(ev.subject));
//! assert_eq!(order, vec![EventSubject::Mule(0), EventSubject::Mule(1)]);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod clock;
pub mod event;

pub use clock::SimClock;
pub use event::{Event, EventKind, EventSubject};
