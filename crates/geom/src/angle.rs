//! Counter-clockwise angle arithmetic.
//!
//! The W-TCTP *patrolling rule* (paper §3.2) decides, at a VIP where several
//! cycles intersect, which outgoing edge a mule takes next: "select the
//! target which has minimal included angle with the former route g_j → g_i
//! in the counter-clockwise direction". This module provides the angle
//! primitives that rule needs, plus general bearing helpers used by the
//! simulator and the Sweep baseline.

use crate::point::Point;
use std::f64::consts::TAU;

/// A compass-style bearing, stored as radians counter-clockwise from the
/// positive x-axis (east), normalised to `[0, 2π)`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bearing(f64);

impl Bearing {
    /// Builds a bearing from an arbitrary radian value, normalising it into
    /// `[0, 2π)`.
    pub fn from_radians(theta: f64) -> Self {
        Bearing(normalize_angle(theta))
    }

    /// Bearing of the vector `from → to`. Returns `None` when the points
    /// coincide (the direction is undefined).
    pub fn between(from: &Point, to: &Point) -> Option<Self> {
        let v = *to - *from;
        if v.norm_squared() <= f64::EPSILON {
            None
        } else {
            Some(Bearing::from_radians(v.angle()))
        }
    }

    /// Counter-clockwise angular distance from `self` to `other`,
    /// in `[0, 2π)`.
    pub fn ccw_to(&self, other: &Bearing) -> f64 {
        normalize_angle(other.0 - self.0)
    }
}

/// Normalises an angle in radians to `[0, 2π)`.
#[inline]
pub fn normalize_angle(theta: f64) -> f64 {
    let mut t = theta % TAU;
    if t < 0.0 {
        t += TAU;
    }
    // `-1e-30 % TAU` is a tiny negative number whose correction lands on TAU
    // exactly; fold that back to zero so the invariant `t < TAU` holds.
    if t >= TAU {
        t = 0.0;
    }
    t
}

/// The counter-clockwise *included angle* used by the W-TCTP patrolling
/// rule.
///
/// A mule arrives at junction `at` travelling along the edge `from → at`
/// and considers continuing along `at → candidate`. The rule measures the
/// angle swept counter-clockwise from the **reverse** of the incoming
/// direction (i.e. the direction `at → from`) to the outgoing direction
/// `at → candidate`. Picking the candidate with the smallest such angle
/// makes every mule traverse the cycles of a weighted patrolling path in the
/// same, deterministic order (paper Fig. 5).
///
/// Returns `None` when either direction is undefined because the points
/// coincide.
pub fn ccw_included_angle(from: &Point, at: &Point, candidate: &Point) -> Option<f64> {
    let back = Bearing::between(at, from)?;
    let out = Bearing::between(at, candidate)?;
    Some(back.ccw_to(&out))
}

/// Orientation of the ordered triple `(a, b, c)`.
///
/// Positive for a counter-clockwise turn, negative for clockwise, zero for
/// collinear points (within floating-point arithmetic). This is the
/// standard signed-area predicate: `2 · area(a, b, c)`.
#[inline]
pub fn orientation(a: &Point, b: &Point, c: &Point) -> f64 {
    (*b - *a).cross(&(*c - *a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn normalize_angle_wraps_into_zero_two_pi() {
        assert!(approx_eq(normalize_angle(0.0), 0.0));
        assert!(approx_eq(normalize_angle(TAU), 0.0));
        assert!(approx_eq(normalize_angle(-FRAC_PI_2), 1.5 * PI));
        assert!(approx_eq(normalize_angle(3.0 * PI), PI));
        let t = normalize_angle(-1e-30);
        assert!((0.0..TAU).contains(&t));
    }

    #[test]
    fn bearing_between_cardinal_points() {
        let o = Point::ORIGIN;
        let east = Bearing::between(&o, &Point::new(5.0, 0.0)).unwrap();
        let north = Bearing::between(&o, &Point::new(0.0, 5.0)).unwrap();
        assert!(approx_eq(east.0, 0.0));
        assert!(approx_eq(north.0, FRAC_PI_2));
        assert!(Bearing::between(&o, &o).is_none());
    }

    #[test]
    fn ccw_to_measures_counterclockwise_sweep() {
        let east = Bearing::from_radians(0.0);
        let north = Bearing::from_radians(FRAC_PI_2);
        assert!(approx_eq(east.ccw_to(&north), FRAC_PI_2));
        // Going the other way requires sweeping 3/2 π counter-clockwise.
        assert!(approx_eq(north.ccw_to(&east), 1.5 * PI));
    }

    #[test]
    fn ccw_included_angle_matches_paper_example_shape() {
        // Mule arrives at the VIP (origin) from the east and considers two
        // candidates: one to the north-east and one to the south. The
        // north-east candidate is a smaller CCW sweep from the reversed
        // incoming direction (which points back east).
        let vip = Point::ORIGIN;
        let from = Point::new(10.0, 0.0);
        let ne = Point::new(5.0, 5.0);
        let south = Point::new(0.0, -8.0);
        let a_ne = ccw_included_angle(&from, &vip, &ne).unwrap();
        let a_s = ccw_included_angle(&from, &vip, &south).unwrap();
        assert!(a_ne < a_s, "north-east ({a_ne}) should beat south ({a_s})");
    }

    #[test]
    fn ccw_included_angle_of_straight_back_is_zero() {
        // Returning the way we came is a zero CCW sweep.
        let a = ccw_included_angle(&Point::new(1.0, 0.0), &Point::ORIGIN, &Point::new(2.0, 0.0))
            .unwrap();
        assert!(approx_eq(a, 0.0));
    }

    #[test]
    fn ccw_included_angle_undefined_for_coincident_points() {
        let p = Point::new(1.0, 1.0);
        assert!(ccw_included_angle(&p, &p, &Point::new(2.0, 2.0)).is_none());
        assert!(ccw_included_angle(&Point::new(2.0, 2.0), &p, &p).is_none());
    }

    #[test]
    fn orientation_sign_is_ccw_positive() {
        let a = Point::ORIGIN;
        let b = Point::new(1.0, 0.0);
        let up = Point::new(1.0, 1.0);
        let down = Point::new(1.0, -1.0);
        let ahead = Point::new(2.0, 0.0);
        assert!(orientation(&a, &b, &up) > 0.0);
        assert!(orientation(&a, &b, &down) < 0.0);
        assert!(approx_eq(orientation(&a, &b, &ahead), 0.0));
    }
}
