//! Typed events and their deterministic ordering keys.

use mule_geom::ordered_bits;
use mule_net::NodeId;

/// Who (or what) an event is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventSubject {
    /// A specific data mule, by scenario mule index.
    Mule(usize),
    /// A specific field node (target, sink or station).
    Target(NodeId),
    /// The whole simulation (speed windows, replans, …).
    Global,
}

impl EventSubject {
    /// Total-order key used to break ties among same-time, same-kind
    /// events: globals first, then mules by index, then targets by id.
    pub(crate) fn order_key(&self) -> (u8, usize) {
        match *self {
            EventSubject::Global => (0, 0),
            EventSubject::Mule(m) => (1, m),
            EventSubject::Target(id) => (2, id.index()),
        }
    }
}

/// What happens when an event fires.
///
/// The declaration order below is meaningful: at equal timestamps events
/// pop in ascending [`EventKind::priority`] order, so every disruption and
/// the replan it triggers apply *before* a waypoint arrival at the same
/// instant — an arriving mule always observes the post-disruption world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A target stops producing data (hardware failure, jamming, …).
    TargetFailure,
    /// A previously failed target comes back online.
    TargetRecovery,
    /// A target joins the field late (it existed but was inactive until
    /// now; its buffer starts filling at this instant).
    TargetArrival,
    /// A mule permanently breaks down and leaves the fleet.
    MuleBreakdown,
    /// A speed window opens: `factor` joins the set of active speed
    /// multipliers. Windows may overlap; the effective fleet speed is the
    /// product of all open factors, applied to legs scheduled while open.
    SpeedWindowStart {
        /// Multiplier this window applies to the nominal mule speed.
        factor: f64,
    },
    /// A speed window closes: one open window with this `factor` ends.
    /// Carrying the factor (instead of "restore to 1.0") is what lets
    /// overlapping windows unwind correctly.
    SpeedWindowEnd {
        /// The factor the closing window had applied.
        factor: f64,
    },
    /// Re-run the planner over the surviving world. Scheduled by the
    /// engine alongside disruptions so multiple same-instant disruptions
    /// coalesce into one replan.
    Replan,
    /// A mule reaches the next waypoint of its itinerary.
    WaypointArrival,
}

impl EventKind {
    /// Same-timestamp scheduling priority (lower pops first). Window ends
    /// order before window starts so a back-to-back close/open at one
    /// instant never momentarily stacks both factors.
    pub fn priority(&self) -> u8 {
        match self {
            EventKind::TargetFailure => 0,
            EventKind::TargetRecovery => 1,
            EventKind::TargetArrival => 2,
            EventKind::MuleBreakdown => 3,
            EventKind::SpeedWindowEnd { .. } => 4,
            EventKind::SpeedWindowStart { .. } => 5,
            EventKind::Replan => 6,
            EventKind::WaypointArrival => 7,
        }
    }
}

/// A fired event, as seen by the drain-loop handler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulation time the event fires, seconds.
    pub time_s: f64,
    /// Who the event is about.
    pub subject: EventSubject,
    /// What the event does.
    pub kind: EventKind,
}

impl Event {
    /// The packed key the clock orders events by. Its unsigned order is
    /// time under [`f64::total_cmp`], then kind priority, then subject
    /// class (globals, mules, targets), then subject index: the bits are
    /// `ordered_bits(time) << 64 | priority << 56 | class << 48 | index`.
    /// Subject indices must stay below 2^48.
    #[inline]
    pub fn order_key(&self) -> u128 {
        let (class, index) = self.subject.order_key();
        debug_assert!(index < 1 << 48, "subject index {index} overflows its key field");
        u128::from(ordered_bits(self.time_s)) << 64
            | u128::from(self.kind.priority()) << 56
            | u128::from(class) << 48
            | index as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_priorities_put_disruptions_before_arrivals() {
        assert!(EventKind::TargetFailure.priority() < EventKind::WaypointArrival.priority());
        assert!(EventKind::MuleBreakdown.priority() < EventKind::WaypointArrival.priority());
        assert!(
            EventKind::SpeedWindowEnd { factor: 0.5 }.priority()
                < EventKind::SpeedWindowStart { factor: 0.5 }.priority(),
            "a window closing must unwind before one opening at the same instant"
        );
        assert!(
            EventKind::SpeedWindowStart { factor: 0.5 }.priority() < EventKind::Replan.priority()
        );
        assert!(EventKind::Replan.priority() < EventKind::WaypointArrival.priority());
    }

    #[test]
    fn subject_keys_order_globals_mules_targets() {
        assert!(EventSubject::Global.order_key() < EventSubject::Mule(0).order_key());
        assert!(EventSubject::Mule(3).order_key() < EventSubject::Mule(4).order_key());
        assert!(
            EventSubject::Mule(usize::MAX).order_key()
                < EventSubject::Target(NodeId(0)).order_key()
        );
        assert!(
            EventSubject::Target(NodeId(1)).order_key()
                < EventSubject::Target(NodeId(2)).order_key()
        );
    }
}
