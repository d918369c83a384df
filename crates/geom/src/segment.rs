//! Directed line segments — the edges of a patrolling path.

use crate::point::Point;

/// A directed segment from [`Segment::a`] to [`Segment::b`].
///
/// Patrolling paths are sequences of segments; break-edge selection in
/// W-TCTP / RW-TCTP removes one segment and replaces it with two new ones,
/// so the planners manipulate these values directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment from `a` to `b`.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment in metres.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// The segment traversed in the opposite direction.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(&self.b)
    }

    /// Point at arc-length parameter `t ∈ [0, 1]` along the segment
    /// (clamped).
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(&self.b, t)
    }

    /// Point reached after travelling `distance` metres from `a` towards
    /// `b`, never overshooting `b`.
    #[inline]
    pub fn point_at_distance(&self, distance: f64) -> Point {
        self.a.advance_towards(&self.b, distance.max(0.0))
    }

    /// The point on the segment closest to `p`.
    pub fn closest_point(&self, p: &Point) -> Point {
        let d = self.b - self.a;
        let len2 = d.norm_squared();
        if len2 <= f64::EPSILON {
            return self.a;
        }
        let t = ((*p - self.a).dot(&d) / len2).clamp(0.0, 1.0);
        self.at(t)
    }

    /// Distance from `p` to the segment.
    #[inline]
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Extra path length incurred by *detouring* this segment through
    /// `via`: `|a→via| + |via→b| − |a→b|`.
    ///
    /// This is exactly the quantity minimised by the W-TCTP Shortest-Length
    /// policy (Exp. 1) and the RW-TCTP recharge splice (Exp. 3), so it gets
    /// a dedicated, well-tested helper.
    #[inline]
    pub fn detour_cost(&self, via: &Point) -> f64 {
        self.a.distance(via) + via.distance(&self.b) - self.length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn length_and_midpoint() {
        let s = seg(0.0, 0.0, 6.0, 8.0);
        assert!(approx_eq(s.length(), 10.0));
        assert_eq!(s.midpoint(), Point::new(3.0, 4.0));
    }

    #[test]
    fn reversed_swaps_endpoints_and_preserves_length() {
        let s = seg(1.0, 2.0, 3.0, 4.0);
        let r = s.reversed();
        assert_eq!(r.a, s.b);
        assert_eq!(r.b, s.a);
        assert!(approx_eq(r.length(), s.length()));
    }

    #[test]
    fn at_interpolates_and_clamps() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.at(0.25), Point::new(2.5, 0.0));
        assert_eq!(s.at(-1.0), s.a);
        assert_eq!(s.at(5.0), s.b);
    }

    #[test]
    fn point_at_distance_never_overshoots() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.point_at_distance(3.0), Point::new(3.0, 0.0));
        assert_eq!(s.point_at_distance(30.0), s.b);
        assert_eq!(s.point_at_distance(-5.0), s.a);
    }

    #[test]
    fn closest_point_projects_onto_interior_or_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.closest_point(&Point::new(4.0, 3.0)), Point::new(4.0, 0.0));
        assert_eq!(s.closest_point(&Point::new(-5.0, 2.0)), s.a);
        assert_eq!(s.closest_point(&Point::new(20.0, -2.0)), s.b);
        assert!(approx_eq(s.distance_to_point(&Point::new(4.0, 3.0)), 3.0));
    }

    #[test]
    fn closest_point_of_degenerate_segment_is_its_single_point() {
        let s = seg(2.0, 2.0, 2.0, 2.0);
        assert_eq!(s.closest_point(&Point::new(5.0, 5.0)), Point::new(2.0, 2.0));
    }

    #[test]
    fn detour_cost_is_zero_for_collinear_via_and_positive_otherwise() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert!(approx_eq(s.detour_cost(&Point::new(5.0, 0.0)), 0.0));
        let c = s.detour_cost(&Point::new(5.0, 5.0));
        assert!(c > 0.0);
        // Triangle inequality: detour through (5,5) costs 2*sqrt(50) - 10.
        assert!(approx_eq(c, 2.0 * 50.0_f64.sqrt() - 10.0));
    }
}
