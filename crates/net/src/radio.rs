//! Range-based radio model.
//!
//! The paper uses a disk model: a mule can sense a target within 10 m and
//! exchange data within 20 m. The simulator treats "the mule has arrived at
//! the target" as "the target is within communication range and the mule is
//! at its closest approach", so these predicates are the only physical-layer
//! behaviour needed. A [`LinkBudget`] adds an optional transfer-rate model
//! so collection can take non-zero time when desired (the paper charges a
//! fixed per-target collection energy instead).

use crate::field::RadioParameters;
use mule_geom::Point;

/// Returns `true` when `target` is within the mule's sensing range.
#[inline]
pub fn in_sensing_range(params: &RadioParameters, mule: &Point, target: &Point) -> bool {
    mule.distance(target) <= params.sensing_range_m
}

/// Returns `true` when `target` is within the mule's communication range.
#[inline]
pub fn in_communication_range(params: &RadioParameters, mule: &Point, target: &Point) -> bool {
    mule.distance(target) <= params.communication_range_m
}

/// A simple link model: a fixed transfer rate inside communication range,
/// zero outside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Transfer rate inside communication range, bytes per second.
    pub rate_bps: f64,
    /// Radio ranges.
    pub radio: RadioParameters,
}

impl Default for LinkBudget {
    fn default() -> Self {
        LinkBudget {
            // 250 kbit/s ≈ an 802.15.4 sensor link, a representative rate
            // for the class of hardware the paper targets.
            rate_bps: 31_250.0,
            radio: RadioParameters::default(),
        }
    }
}

impl LinkBudget {
    /// Achievable transfer rate between a mule at `mule` and a target at
    /// `target`: the nominal rate inside communication range, zero outside.
    pub fn rate_between(&self, mule: &Point, target: &Point) -> f64 {
        if in_communication_range(&self.radio, mule, target) {
            self.rate_bps
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_predicates_use_paper_defaults() {
        let p = RadioParameters::default();
        let mule = Point::ORIGIN;
        assert!(in_sensing_range(&p, &mule, &Point::new(9.9, 0.0)));
        assert!(in_sensing_range(&p, &mule, &Point::new(10.0, 0.0)));
        assert!(!in_sensing_range(&p, &mule, &Point::new(10.1, 0.0)));
        assert!(in_communication_range(&p, &mule, &Point::new(19.9, 0.0)));
        assert!(!in_communication_range(&p, &mule, &Point::new(20.1, 0.0)));
    }

    #[test]
    fn sensing_range_is_contained_in_communication_range() {
        let p = RadioParameters::default();
        let mule = Point::new(100.0, 100.0);
        for d in [0.0, 5.0, 10.0] {
            let t = Point::new(100.0 + d, 100.0);
            if in_sensing_range(&p, &mule, &t) {
                assert!(in_communication_range(&p, &mule, &t));
            }
        }
    }

    #[test]
    fn link_budget_rate_is_zero_out_of_range() {
        let lb = LinkBudget::default();
        let mule = Point::ORIGIN;
        assert_eq!(lb.rate_between(&mule, &Point::new(5.0, 0.0)), lb.rate_bps);
        assert_eq!(lb.rate_between(&mule, &Point::new(25.0, 0.0)), 0.0);
    }
}
