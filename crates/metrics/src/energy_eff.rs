//! Energy-efficiency reporting.
//!
//! RW-TCTP's purpose is to keep the fleet alive by recharging before the
//! battery empties; this report captures whether that worked (fleet
//! survival), how much of the energy went to productive patrolling versus
//! recharge detours, and how much data each joule bought.

use mule_energy::EnergyCause;
use mule_sim::SimulationOutcome;

/// Fleet-level energy efficiency of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEfficiencyReport {
    /// Total energy consumed by the fleet, joules.
    pub total_energy_j: f64,
    /// Energy spent moving along the ordinary patrol path.
    pub patrol_movement_j: f64,
    /// Energy spent on recharge detours.
    pub recharge_movement_j: f64,
    /// Energy spent collecting data.
    pub collection_j: f64,
    /// Total bytes delivered to the sink.
    pub delivered_bytes: f64,
    /// Total number of recharges performed by the fleet.
    pub recharges: usize,
    /// Number of mules that ran out of energy.
    pub depleted_mules: usize,
    /// Number of mules in the fleet.
    pub fleet_size: usize,
}

impl EnergyEfficiencyReport {
    /// Builds the report from a simulation outcome.
    pub fn from_outcome(outcome: &SimulationOutcome) -> Self {
        let mut patrol = 0.0;
        let mut recharge = 0.0;
        let mut collection = 0.0;
        let mut recharges = 0;
        let mut depleted = 0;
        for m in &outcome.mules {
            patrol += m.ledger.get(EnergyCause::PatrolMovement);
            recharge += m.ledger.get(EnergyCause::RechargeMovement);
            collection += m.ledger.get(EnergyCause::Collection);
            recharges += m.recharges;
            if !m.status.survived() {
                depleted += 1;
            }
        }
        EnergyEfficiencyReport {
            total_energy_j: patrol + recharge + collection,
            patrol_movement_j: patrol,
            recharge_movement_j: recharge,
            collection_j: collection,
            delivered_bytes: outcome.total_delivered_bytes(),
            recharges,
            depleted_mules: depleted,
            fleet_size: outcome.mules.len(),
        }
    }

    /// Fraction of energy spent on productive work (patrol movement plus
    /// collection). One when no energy was used.
    pub fn useful_fraction(&self) -> f64 {
        if self.total_energy_j <= 0.0 {
            1.0
        } else {
            (self.patrol_movement_j + self.collection_j) / self.total_energy_j
        }
    }

    /// Returns `true` when every mule survived.
    pub fn fleet_survived(&self) -> bool {
        self.depleted_mules == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_energy::ConsumptionLedger;
    use mule_sim::{MuleReport, MuleStatus};

    fn outcome(mules: Vec<MuleReport>) -> SimulationOutcome {
        SimulationOutcome {
            planner_name: "test".into(),
            horizon_s: 100.0,
            visits: vec![],
            mules,
        }
    }

    fn mule(patrol: f64, recharge: f64, collect: f64, delivered: f64, dead: bool) -> MuleReport {
        let mut ledger = ConsumptionLedger::new();
        ledger.record(EnergyCause::PatrolMovement, patrol);
        ledger.record(EnergyCause::RechargeMovement, recharge);
        ledger.record(EnergyCause::Collection, collect);
        MuleReport {
            mule_index: 0,
            status: if dead {
                MuleStatus::Depleted { at_s: 1.0 }
            } else {
                MuleStatus::Active
            },
            distance_m: 0.0,
            visits: 0,
            recharges: 1,
            remaining_energy_j: 10.0,
            ledger,
            delivered_bytes: delivered,
        }
    }

    #[test]
    fn report_sums_fleet_ledgers() {
        let o = outcome(vec![
            mule(100.0, 20.0, 1.0, 500.0, false),
            mule(50.0, 0.0, 0.5, 200.0, true),
        ]);
        let r = EnergyEfficiencyReport::from_outcome(&o);
        assert!((r.total_energy_j - 171.5).abs() < 1e-12);
        assert!((r.patrol_movement_j - 150.0).abs() < 1e-12);
        assert!((r.recharge_movement_j - 20.0).abs() < 1e-12);
        assert!((r.collection_j - 1.5).abs() < 1e-12);
        assert_eq!(r.delivered_bytes, 700.0);
        assert_eq!(r.recharges, 2);
        assert_eq!(r.depleted_mules, 1);
        assert_eq!(r.fleet_size, 2);
        assert!(!r.fleet_survived());
    }

    #[test]
    fn derived_ratios() {
        let o = outcome(vec![mule(80.0, 20.0, 0.0, 1000.0, false)]);
        let r = EnergyEfficiencyReport::from_outcome(&o);
        assert!((r.useful_fraction() - 0.8).abs() < 1e-12);
        assert!(r.fleet_survived());
    }

    #[test]
    fn zero_energy_is_total() {
        let r = EnergyEfficiencyReport::from_outcome(&outcome(vec![]));
        assert_eq!(r.useful_fraction(), 1.0);
        assert!(r.fleet_survived());
        assert_eq!(r.fleet_size, 0);
    }
}
