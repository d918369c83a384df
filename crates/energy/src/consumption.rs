//! Per-cause energy bookkeeping.
//!
//! The paper's §V discusses "energy efficiency of DM" as an evaluation
//! dimension; to report it we track *where* each joule went (movement,
//! collection, recharging detours), per mule.

/// Why energy was consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyCause {
    /// Moving along the ordinary patrolling path.
    PatrolMovement,
    /// Moving along the recharge path (the detour through the station).
    RechargeMovement,
    /// Collecting data at a target.
    Collection,
}

impl EnergyCause {
    /// All causes, in reporting order.
    pub const ALL: [EnergyCause; 3] = [
        EnergyCause::PatrolMovement,
        EnergyCause::RechargeMovement,
        EnergyCause::Collection,
    ];

    /// Human-readable label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            EnergyCause::PatrolMovement => "patrol movement",
            EnergyCause::RechargeMovement => "recharge movement",
            EnergyCause::Collection => "data collection",
        }
    }
}

/// A ledger of energy consumption broken down by cause.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConsumptionLedger {
    patrol_movement_j: f64,
    recharge_movement_j: f64,
    collection_j: f64,
}

impl ConsumptionLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `joules` consumed for `cause` (negative amounts ignored).
    pub fn record(&mut self, cause: EnergyCause, joules: f64) {
        let j = joules.max(0.0);
        match cause {
            EnergyCause::PatrolMovement => self.patrol_movement_j += j,
            EnergyCause::RechargeMovement => self.recharge_movement_j += j,
            EnergyCause::Collection => self.collection_j += j,
        }
    }

    /// Energy attributed to `cause`.
    pub fn get(&self, cause: EnergyCause) -> f64 {
        match cause {
            EnergyCause::PatrolMovement => self.patrol_movement_j,
            EnergyCause::RechargeMovement => self.recharge_movement_j,
            EnergyCause::Collection => self.collection_j,
        }
    }

    /// Total energy across all causes.
    pub fn total(&self) -> f64 {
        self.patrol_movement_j + self.recharge_movement_j + self.collection_j
    }

    /// Fraction of total energy spent on productive work (patrol movement +
    /// collection) as opposed to recharge detours. Returns 1.0 for an empty
    /// ledger (no energy wasted yet).
    pub fn useful_fraction(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            1.0
        } else {
            (self.patrol_movement_j + self.collection_j) / total
        }
    }

    /// Merges another ledger into this one (used to aggregate per-mule
    /// ledgers into a fleet total).
    pub fn merge(&mut self, other: &ConsumptionLedger) {
        self.patrol_movement_j += other.patrol_movement_j;
        self.recharge_movement_j += other.recharge_movement_j;
        self.collection_j += other.collection_j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get_per_cause() {
        let mut l = ConsumptionLedger::new();
        l.record(EnergyCause::PatrolMovement, 100.0);
        l.record(EnergyCause::Collection, 1.5);
        l.record(EnergyCause::RechargeMovement, 20.0);
        assert_eq!(l.get(EnergyCause::PatrolMovement), 100.0);
        assert_eq!(l.get(EnergyCause::Collection), 1.5);
        assert_eq!(l.get(EnergyCause::RechargeMovement), 20.0);
        assert!((l.total() - 121.5).abs() < 1e-12);
    }

    #[test]
    fn negative_amounts_are_ignored() {
        let mut l = ConsumptionLedger::new();
        l.record(EnergyCause::Collection, -5.0);
        assert_eq!(l.total(), 0.0);
    }

    #[test]
    fn useful_fraction_splits_patrol_from_recharge() {
        let mut l = ConsumptionLedger::new();
        assert_eq!(l.useful_fraction(), 1.0);
        l.record(EnergyCause::PatrolMovement, 80.0);
        l.record(EnergyCause::RechargeMovement, 20.0);
        assert!((l.useful_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_all_causes() {
        let mut a = ConsumptionLedger::new();
        a.record(EnergyCause::PatrolMovement, 10.0);
        let mut b = ConsumptionLedger::new();
        b.record(EnergyCause::PatrolMovement, 5.0);
        b.record(EnergyCause::Collection, 2.0);
        a.merge(&b);
        assert_eq!(a.get(EnergyCause::PatrolMovement), 15.0);
        assert_eq!(a.get(EnergyCause::Collection), 2.0);
    }

    #[test]
    fn cause_labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            EnergyCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), EnergyCause::ALL.len());
    }
}
