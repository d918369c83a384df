//! Per-mule simulation state and end-of-run report.

use mule_energy::{Battery, ConsumptionLedger};
use mule_net::MulePayload;

/// Whether a mule was still operating at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MuleStatus {
    /// Still patrolling when the horizon was reached.
    Active,
    /// Ran out of energy at the recorded simulation time.
    Depleted {
        /// Time at which the battery emptied, seconds.
        at_s: f64,
    },
    /// Had an empty itinerary and never moved.
    Idle,
    /// Permanently failed at the recorded time (a dynamic-scenario mule
    /// breakdown, not an energy death).
    BrokenDown {
        /// Time of the breakdown, seconds.
        at_s: f64,
    },
}

impl MuleStatus {
    /// Returns `true` when the mule survived the whole run (neither its
    /// battery emptied nor it broke down).
    pub fn survived(&self) -> bool {
        !matches!(
            self,
            MuleStatus::Depleted { .. } | MuleStatus::BrokenDown { .. }
        )
    }
}

/// Summary of one mule's run.
#[derive(Debug, Clone, PartialEq)]
pub struct MuleReport {
    /// Index of the mule in the scenario.
    pub mule_index: usize,
    /// Final status.
    pub status: MuleStatus,
    /// Total distance travelled, metres.
    pub distance_m: f64,
    /// Number of target/sink visits performed.
    pub visits: usize,
    /// Number of recharges at the station.
    pub recharges: usize,
    /// Remaining battery energy at the end of the run, joules.
    pub remaining_energy_j: f64,
    /// Energy consumption broken down by cause.
    pub ledger: ConsumptionLedger,
    /// Total bytes delivered to the sink.
    pub delivered_bytes: f64,
}

/// Internal mutable state of one mule while the simulation runs.
#[derive(Debug, Clone)]
pub(crate) struct MuleState {
    pub index: usize,
    pub battery: Battery,
    pub ledger: ConsumptionLedger,
    pub payload: MulePayload,
    pub distance_m: f64,
    pub visits: usize,
    pub recharges: usize,
    pub status: MuleStatus,
    /// Position within the itinerary cycle of the *next* waypoint to reach.
    pub next_waypoint: usize,
    /// Simulation time of the next waypoint arrival (if scheduled).
    pub next_arrival_s: f64,
    /// The last position the mule is known to have reached (its start
    /// position until the first arrival). Replanning reads this for
    /// unscheduled mules.
    pub position: mule_geom::Point,
    /// Whether a waypoint-arrival event for this mule is currently on the
    /// timeline.
    pub scheduled: bool,
}

impl MuleState {
    pub(crate) fn report(&self) -> MuleReport {
        MuleReport {
            mule_index: self.index,
            status: self.status,
            distance_m: self.distance_m,
            visits: self.visits,
            recharges: self.recharges,
            remaining_energy_j: self.battery.remaining(),
            ledger: self.ledger.clone(),
            delivered_bytes: self.payload.delivered_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_survival_classification() {
        assert!(MuleStatus::Active.survived());
        assert!(MuleStatus::Idle.survived());
        assert!(!MuleStatus::Depleted { at_s: 10.0 }.survived());
        assert!(!MuleStatus::BrokenDown { at_s: 10.0 }.survived());
    }

    #[test]
    fn state_report_round_trips_the_counters() {
        let state = MuleState {
            index: 2,
            battery: Battery::full(100.0),
            ledger: ConsumptionLedger::new(),
            payload: MulePayload::new(),
            distance_m: 42.0,
            visits: 7,
            recharges: 1,
            status: MuleStatus::Active,
            next_waypoint: 0,
            next_arrival_s: 0.0,
            position: mule_geom::Point::new(0.0, 0.0),
            scheduled: false,
        };
        let report = state.report();
        assert_eq!(report.mule_index, 2);
        assert_eq!(report.distance_m, 42.0);
        assert_eq!(report.visits, 7);
        assert_eq!(report.recharges, 1);
        assert_eq!(report.remaining_energy_j, 100.0);
        assert!(report.status.survived());
    }
}
