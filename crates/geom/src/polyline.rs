//! Polylines: open or closed chains of waypoints with arc-length queries.
//!
//! A patrolling route handed to the simulator is ultimately a closed
//! polyline over target locations. The simulator needs to (a) measure its
//! total length, (b) find the point a given arc-length along it — that is
//! how B-TCTP computes the `n` equal-length segment *start points* — and
//! (c) walk a mule forward by `v · Δt` metres each tick. All three live
//! here.

use crate::point::Point;
use crate::segment::Segment;

/// A chain of waypoints. When `closed` is true the last waypoint connects
/// back to the first one, forming a cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    points: Vec<Point>,
    closed: bool,
}

impl Polyline {
    /// Creates an open polyline through `points` (in order).
    pub fn open(points: Vec<Point>) -> Self {
        Polyline {
            points,
            closed: false,
        }
    }

    /// Creates a closed polyline (cycle) through `points`; the closing edge
    /// from the last point back to the first is implicit.
    pub fn closed(points: Vec<Point>) -> Self {
        Polyline {
            points,
            closed: true,
        }
    }

    /// The waypoints, without the implicit closing point.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of waypoints.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the polyline has no waypoints.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The edges of the polyline in traversal order (including the closing
    /// edge when the polyline is closed).
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.points.len();
        let closing =
            (self.closed && n >= 2).then(|| Segment::new(self.points[n - 1], self.points[0]));
        self.points
            .windows(2)
            .map(|w| Segment::new(w[0], w[1]))
            .chain(closing)
    }

    /// Total length in metres (including the closing edge when closed).
    /// Without an edge this is the empty sum, `-0.0`.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// The point located `distance` metres along the polyline from its first
    /// waypoint.
    ///
    /// * Open polyline: the distance is clamped to `[0, length]`.
    /// * Closed polyline: the distance wraps around modulo the total length,
    ///   so walking `k·|P| + d` lands on the same point as walking `d` — a
    ///   mule looping forever around its patrolling circuit.
    ///
    /// Returns `None` for polylines with no waypoints; a single-waypoint
    /// polyline always returns that waypoint.
    pub fn point_at(&self, distance: f64) -> Option<Point> {
        if self.points.is_empty() {
            return None;
        }
        if self.points.len() == 1 {
            return Some(self.points[0]);
        }
        let total = self.length();
        if total <= f64::EPSILON {
            return Some(self.points[0]);
        }
        let mut d = if self.closed {
            distance.rem_euclid(total)
        } else {
            distance.clamp(0.0, total)
        };
        for seg in self.segments() {
            let l = seg.length();
            if d <= l {
                return Some(seg.point_at_distance(d));
            }
            d -= l;
        }
        // Floating point residue: return the final waypoint / start point.
        Some(if self.closed {
            self.points[0]
        } else {
            *self.points.last().unwrap()
        })
    }

    /// Arc length from the first waypoint to waypoint `index` along the
    /// traversal direction. Returns `None` when `index` is out of range.
    pub fn arc_length_to_vertex(&self, index: usize) -> Option<f64> {
        if index >= self.points.len() {
            return None;
        }
        let mut acc = 0.0;
        for w in self.points.windows(2).take(index) {
            acc += w[0].distance(&w[1]);
        }
        Some(acc)
    }

    /// Index of the waypoint with the largest `y` coordinate (the "most
    /// north target point", which B-TCTP uses as the anchor for segment
    /// partitioning). Ties are broken by smaller `x`, then smaller index,
    /// so all mules deterministically agree. Returns `None` when empty.
    pub fn northmost_index(&self) -> Option<usize> {
        northmost_index(&self.points)
    }
}

/// Index of the point with the largest `y` (ties: smaller `x`, then smaller
/// index). Shared by [`Polyline::northmost_index`] and the planners, which
/// operate on plain point slices.
pub fn northmost_index(points: &[Point]) -> Option<usize> {
    if points.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, p) in points.iter().enumerate().skip(1) {
        let b = &points[best];
        if p.y > b.y || (p.y == b.y && p.x < b.x) {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn unit_square_cycle() -> Polyline {
        Polyline::closed(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ])
    }

    #[test]
    fn length_of_open_and_closed_square() {
        let open = Polyline::open(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ]);
        assert!(approx_eq(open.length(), 30.0));
        assert!(approx_eq(unit_square_cycle().length(), 40.0));
    }

    #[test]
    fn segments_include_closing_edge_only_when_closed() {
        assert_eq!(unit_square_cycle().segments().count(), 4);
        let open = Polyline::open(unit_square_cycle().points().to_vec());
        assert_eq!(open.segments().count(), 3);
        assert_eq!(Polyline::open(vec![Point::ORIGIN]).segments().count(), 0);
        assert_eq!(Polyline::closed(vec![Point::ORIGIN]).segments().count(), 0);
    }

    #[test]
    fn point_at_walks_along_the_cycle_and_wraps() {
        let p = unit_square_cycle();
        assert_eq!(p.point_at(0.0).unwrap(), Point::new(0.0, 0.0));
        assert_eq!(p.point_at(5.0).unwrap(), Point::new(5.0, 0.0));
        assert_eq!(p.point_at(15.0).unwrap(), Point::new(10.0, 5.0));
        assert_eq!(p.point_at(35.0).unwrap(), Point::new(0.0, 5.0));
        // Wrap-around: 45 m ≡ 5 m.
        assert_eq!(p.point_at(45.0).unwrap(), Point::new(5.0, 0.0));
        // Negative distances wrap backwards on a cycle.
        assert_eq!(p.point_at(-5.0).unwrap(), Point::new(0.0, 5.0));
    }

    #[test]
    fn point_at_clamps_on_open_polylines() {
        let open = Polyline::open(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        assert_eq!(open.point_at(-3.0).unwrap(), Point::new(0.0, 0.0));
        assert_eq!(open.point_at(30.0).unwrap(), Point::new(10.0, 0.0));
    }

    #[test]
    fn point_at_degenerate_polylines() {
        assert!(Polyline::open(vec![]).point_at(5.0).is_none());
        let single = Polyline::closed(vec![Point::new(2.0, 3.0)]);
        assert_eq!(single.point_at(100.0).unwrap(), Point::new(2.0, 3.0));
        let coincident = Polyline::closed(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]);
        assert_eq!(coincident.point_at(7.0).unwrap(), Point::new(1.0, 1.0));
    }

    #[test]
    fn arc_length_to_vertex_accumulates_edge_lengths() {
        let p = unit_square_cycle();
        assert!(approx_eq(p.arc_length_to_vertex(0).unwrap(), 0.0));
        assert!(approx_eq(p.arc_length_to_vertex(2).unwrap(), 20.0));
        assert!(p.arc_length_to_vertex(9).is_none());
    }

    #[test]
    fn northmost_index_prefers_larger_y_then_smaller_x() {
        let pts = vec![
            Point::new(3.0, 1.0),
            Point::new(5.0, 9.0),
            Point::new(1.0, 9.0),
            Point::new(2.0, 4.0),
        ];
        assert_eq!(northmost_index(&pts), Some(2));
        assert_eq!(Polyline::closed(pts).northmost_index(), Some(2));
        assert_eq!(northmost_index(&[]), None);
    }
}
