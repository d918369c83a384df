//! The mule battery: a finite energy store with recharge support.

/// Coarse battery condition, used by the RW-TCTP patrolling strategy to
/// decide whether the next round follows the ordinary patrolling path or the
/// recharge path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatteryState {
    /// Remaining energy is above the planning threshold.
    Healthy,
    /// Remaining energy is at or below the threshold — head for the
    /// recharge station on the next opportunity.
    NeedsRecharge,
    /// The battery is empty; the mule is stranded.
    Depleted,
}

/// A battery with capacity and current charge in joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    remaining_j: f64,
    /// Number of times the battery hit zero.
    depletion_events: usize,
    /// Number of recharges performed.
    recharge_count: usize,
}

impl Battery {
    /// Creates a full battery of the given capacity (clamped to ≥ 0).
    pub fn full(capacity_j: f64) -> Self {
        let cap = capacity_j.max(0.0);
        Battery {
            capacity_j: cap,
            remaining_j: cap,
            depletion_events: 0,
            recharge_count: 0,
        }
    }

    /// Battery capacity in joules.
    #[inline]
    pub fn capacity(&self) -> f64 {
        self.capacity_j
    }

    /// Remaining energy in joules.
    #[inline]
    pub fn remaining(&self) -> f64 {
        self.remaining_j
    }

    /// Remaining energy as a fraction of capacity in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        if self.capacity_j <= 0.0 {
            0.0
        } else {
            (self.remaining_j / self.capacity_j).clamp(0.0, 1.0)
        }
    }

    /// Number of times the battery was fully depleted.
    #[inline]
    pub fn depletion_events(&self) -> usize {
        self.depletion_events
    }

    /// Number of recharges performed.
    #[inline]
    pub fn recharge_count(&self) -> usize {
        self.recharge_count
    }

    /// Returns `true` when the battery is empty.
    #[inline]
    pub fn is_depleted(&self) -> bool {
        self.remaining_j <= 0.0
    }

    /// Draws `amount` joules. The draw is truncated at zero: the battery
    /// never goes negative, and the truncated shortfall is returned so the
    /// simulator can detect a stranded mule. Returns `0.0` when the full
    /// amount was available.
    pub fn draw(&mut self, amount: f64) -> f64 {
        let amount = amount.max(0.0);
        let available = self.remaining_j;
        if amount <= available {
            self.remaining_j -= amount;
            if self.remaining_j <= 0.0 {
                self.depletion_events += 1;
            }
            0.0
        } else {
            self.remaining_j = 0.0;
            self.depletion_events += 1;
            amount - available
        }
    }

    /// Returns `true` when `amount` joules can be drawn without depleting
    /// the battery.
    pub fn can_afford(&self, amount: f64) -> bool {
        amount.max(0.0) <= self.remaining_j
    }

    /// Recharges the battery back to full capacity.
    pub fn recharge_full(&mut self) {
        if self.remaining_j < self.capacity_j {
            self.recharge_count += 1;
        }
        self.remaining_j = self.capacity_j;
    }

    /// Classifies the battery against a planning threshold (fraction of
    /// capacity, e.g. `0.25`).
    pub fn state(&self, threshold_fraction: f64) -> BatteryState {
        if self.is_depleted() {
            BatteryState::Depleted
        } else if self.state_of_charge() <= threshold_fraction.clamp(0.0, 1.0) {
            BatteryState::NeedsRecharge
        } else {
            BatteryState::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_battery_starts_at_capacity() {
        let b = Battery::full(1000.0);
        assert_eq!(b.capacity(), 1000.0);
        assert_eq!(b.remaining(), 1000.0);
        assert_eq!(b.state_of_charge(), 1.0);
        assert!(!b.is_depleted());
        assert_eq!(b.depletion_events(), 0);
    }

    #[test]
    fn negative_capacity_is_clamped() {
        let b = Battery::full(-5.0);
        assert_eq!(b.capacity(), 0.0);
        assert!(b.is_depleted());
        assert_eq!(b.state_of_charge(), 0.0);
    }

    #[test]
    fn draw_decrements_and_tracks_totals() {
        let mut b = Battery::full(100.0);
        assert_eq!(b.draw(30.0), 0.0);
        assert_eq!(b.remaining(), 70.0);
        assert!(b.can_afford(70.0));
        assert!(!b.can_afford(70.1));
        // Negative draws are ignored.
        assert_eq!(b.draw(-10.0), 0.0);
        assert_eq!(b.remaining(), 70.0);
    }

    #[test]
    fn overdraw_truncates_and_reports_shortfall() {
        let mut b = Battery::full(50.0);
        let shortfall = b.draw(80.0);
        assert!((shortfall - 30.0).abs() < 1e-12);
        assert_eq!(b.remaining(), 0.0);
        assert!(b.is_depleted());
        assert_eq!(b.depletion_events(), 1);
    }

    #[test]
    fn exact_depletion_counts_as_a_depletion_event() {
        let mut b = Battery::full(50.0);
        assert_eq!(b.draw(50.0), 0.0);
        assert!(b.is_depleted());
        assert_eq!(b.depletion_events(), 1);
    }

    #[test]
    fn recharge_restores_capacity_and_counts() {
        let mut b = Battery::full(100.0);
        b.draw(60.0);
        b.recharge_full();
        assert_eq!(b.remaining(), 100.0);
        assert_eq!(b.recharge_count(), 1);
        // Recharging a full battery is not counted.
        b.recharge_full();
        assert_eq!(b.recharge_count(), 1);
    }

    #[test]
    fn state_classification_uses_the_threshold() {
        let mut b = Battery::full(100.0);
        assert_eq!(b.state(0.25), BatteryState::Healthy);
        b.draw(76.0);
        assert_eq!(b.state(0.25), BatteryState::NeedsRecharge);
        b.draw(24.0);
        assert_eq!(b.state(0.25), BatteryState::Depleted);
        // Threshold is clamped into [0, 1].
        let c = Battery::full(100.0);
        assert_eq!(c.state(5.0), BatteryState::NeedsRecharge);
        assert_eq!(c.state(-1.0), BatteryState::Healthy);
    }
}
