//! Planar points and vectors in metres.
//!
//! [`Point`] is the basic coordinate type used by every other crate in the
//! workspace: target locations, mule positions, the sink and the recharge
//! station are all `Point`s. The type is `Copy`, 16 bytes, and all
//! operations are branch-free arithmetic so it is cheap to pass around in
//! hot simulation loops.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or free vector) in the 2-D monitoring field, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East–west coordinate in metres.
    pub x: f64,
    /// North–south coordinate in metres (larger `y` is further north).
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in metres.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance — avoids the square root when only
    /// comparisons are needed (nearest-neighbour searches, range checks).
    #[inline]
    pub fn distance_squared(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Squared vector length.
    #[inline]
    pub fn norm_squared(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with another vector.
    #[inline]
    pub fn dot(&self, other: &Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3-D cross product (`self × other`).
    ///
    /// Positive when `other` lies counter-clockwise of `self`; this is the
    /// primitive behind every orientation predicate in the crate.
    #[inline]
    pub fn cross(&self, other: &Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    ///
    /// `t` is clamped to `[0, 1]`, so callers can pass an over-shoot fraction
    /// and still land on the segment — convenient when advancing a mule by a
    /// time step that overshoots the next waypoint.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        let t = t.clamp(0.0, 1.0);
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// The point obtained by moving from `self` towards `target` by
    /// `distance` metres. If `distance` exceeds the separation (or the two
    /// points coincide) the result is `target` — a mule never overshoots its
    /// waypoint.
    pub fn advance_towards(&self, target: &Point, distance: f64) -> Point {
        let total = self.distance(target);
        if total <= f64::EPSILON || distance >= total {
            *target
        } else {
            self.lerp(target, distance / total)
        }
    }

    /// Angle of this vector measured counter-clockwise from the positive
    /// x-axis, in radians, in `(-π, π]`.
    #[inline]
    pub fn angle(&self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Returns `true` when every coordinate is finite (no NaN / infinity).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Lexicographic comparison (x first, then y) used to obtain a
    /// deterministic ordering of points with equal geometric roles.
    pub fn lexicographic_cmp(&self, other: &Point) -> std::cmp::Ordering {
        self.x.total_cmp(&other.x).then(self.y.total_cmp(&other.y))
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn distance_is_symmetric_and_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(approx_eq(a.distance(&b), 5.0));
        assert!(approx_eq(b.distance(&a), 5.0));
        assert!(approx_eq(a.distance_squared(&b), 25.0));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(123.4, -56.7);
        assert!(approx_eq(p.distance(&p), 0.0));
    }

    #[test]
    fn cross_sign_encodes_orientation() {
        let east = Point::new(1.0, 0.0);
        let north = Point::new(0.0, 1.0);
        assert!(east.cross(&north) > 0.0); // north is CCW of east
        assert!(north.cross(&east) < 0.0);
        assert!(approx_eq(east.cross(&east), 0.0));
    }

    #[test]
    fn dot_product_of_orthogonal_vectors_is_zero() {
        let east = Point::new(2.0, 0.0);
        let north = Point::new(0.0, 5.0);
        assert!(approx_eq(east.dot(&north), 0.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let m = a.lerp(&b, 0.5);
        assert!(approx_eq(m.x, 5.0));
        assert!(approx_eq(m.y, 10.0));
    }

    #[test]
    fn lerp_clamps_out_of_range_parameters() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.lerp(&b, -1.0), a);
        assert_eq!(a.lerp(&b, 2.0), b);
    }

    #[test]
    fn advance_towards_moves_the_requested_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let c = a.advance_towards(&b, 4.0);
        assert!(approx_eq(c.x, 4.0));
        assert!(approx_eq(c.y, 0.0));
    }

    #[test]
    fn advance_towards_never_overshoots() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 1.0);
        assert_eq!(a.advance_towards(&b, 100.0), b);
        assert_eq!(a.advance_towards(&a, 5.0), a);
    }

    #[test]
    fn arithmetic_operators_behave_componentwise() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a + b, Point::new(4.0, 7.0));
        assert_eq!(b - a, Point::new(2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, 2.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn conversion_from_and_to_tuple_round_trips() {
        let p: Point = (7.5, -2.25).into();
        assert_eq!(p, Point::new(7.5, -2.25));
        let t: (f64, f64) = p.into();
        assert_eq!(t, (7.5, -2.25));
    }

    #[test]
    fn angle_of_cardinal_directions() {
        assert!(approx_eq(Point::new(1.0, 0.0).angle(), 0.0));
        assert!(approx_eq(
            Point::new(0.0, 1.0).angle(),
            std::f64::consts::FRAC_PI_2
        ));
        assert!(approx_eq(
            Point::new(-1.0, 0.0).angle(),
            std::f64::consts::PI
        ));
    }

    #[test]
    fn lexicographic_cmp_orders_by_x_then_y() {
        use std::cmp::Ordering;
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 0.0);
        let c = Point::new(1.0, 7.0);
        assert_eq!(a.lexicographic_cmp(&b), Ordering::Less);
        assert_eq!(b.lexicographic_cmp(&a), Ordering::Greater);
        assert_eq!(a.lexicographic_cmp(&c), Ordering::Less);
        assert_eq!(a.lexicographic_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn is_finite_detects_nan_and_infinity() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
