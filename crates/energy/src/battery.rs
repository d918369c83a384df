//! The mule battery: a finite energy store with recharge support.

/// A battery with capacity and current charge in joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    remaining_j: f64,
}

impl Battery {
    /// Creates a full battery of the given capacity (clamped to ≥ 0).
    pub fn full(capacity_j: f64) -> Self {
        let cap = capacity_j.max(0.0);
        Battery {
            capacity_j: cap,
            remaining_j: cap,
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
            0.0
        } else {
            self.remaining_j = 0.0;
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
        self.remaining_j = self.capacity_j;
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
        assert!(!b.is_depleted());
    }

    #[test]
    fn negative_capacity_is_clamped() {
        let b = Battery::full(-5.0);
        assert_eq!(b.capacity(), 0.0);
        assert!(b.is_depleted());
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
    }

    #[test]
    fn exact_depletion_counts_as_a_depletion_event() {
        let mut b = Battery::full(50.0);
        assert_eq!(b.draw(50.0), 0.0);
        assert!(b.is_depleted());
    }

    #[test]
    fn recharge_restores_capacity_and_counts() {
        let mut b = Battery::full(100.0);
        b.draw(60.0);
        b.recharge_full();
        assert_eq!(b.remaining(), 100.0);
        // Recharging a full battery leaves it full.
        b.recharge_full();
        assert_eq!(b.remaining(), 100.0);
    }
}
