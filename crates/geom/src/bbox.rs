//! Axis-aligned bounding boxes.
//!
//! Used to describe the monitoring field (the paper uses an 800 m × 800 m
//! square), the extents of a disconnected target cluster, and as the
//! pruning primitive of the [`crate::KdTree`].

use crate::point::Point;

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl BoundingBox {
    /// Creates a bounding box from two opposite corners (in any order).
    pub fn from_corners(a: Point, b: Point) -> Self {
        BoundingBox {
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// A square field with its south-west corner at the origin — the
    /// paper's monitoring region is `BoundingBox::square(800.0)`.
    pub fn square(side: f64) -> Self {
        BoundingBox {
            min_x: 0.0,
            min_y: 0.0,
            max_x: side,
            max_y: side,
        }
    }

    /// Grows the box (in place) so that it contains `p`.
    pub fn expand_to(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Width (x extent) of the box.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height (y extent) of the box.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area in square metres.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric centre of the box.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Squared distance from `p` to the closest point of the box (zero when
    /// `p` is inside). Used for kd-tree pruning.
    pub fn distance_squared_to(&self, p: &Point) -> f64 {
        let dx = if p.x < self.min_x {
            self.min_x - p.x
        } else if p.x > self.max_x {
            p.x - self.max_x
        } else {
            0.0
        };
        let dy = if p.y < self.min_y {
            self.min_y - p.y
        } else if p.y > self.max_y {
            p.y - self.max_y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }

    /// Clamps a point into the box — scenario generators use this to keep
    /// jittered cluster members inside the monitoring field.
    pub fn clamp(&self, p: &Point) -> Point {
        Point::new(
            p.x.clamp(self.min_x, self.max_x),
            p.y.clamp(self.min_y, self.max_y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn from_corners_accepts_any_corner_order() {
        let a = BoundingBox::from_corners(Point::new(5.0, 1.0), Point::new(1.0, 5.0));
        assert_eq!(a.min_x, 1.0);
        assert_eq!(a.max_x, 5.0);
        assert_eq!(a.min_y, 1.0);
        assert_eq!(a.max_y, 5.0);
    }

    #[test]
    fn square_matches_paper_field() {
        let f = BoundingBox::square(800.0);
        assert!(approx_eq(f.width(), 800.0));
        assert!(approx_eq(f.height(), 800.0));
        assert!(approx_eq(f.area(), 640_000.0));
        assert_eq!(f.center(), Point::new(400.0, 400.0));
    }

    #[test]
    fn contains_includes_boundary() {
        let bb = BoundingBox::square(10.0);
        assert!(bb.contains(&Point::new(0.0, 0.0)));
        assert!(bb.contains(&Point::new(10.0, 10.0)));
        assert!(bb.contains(&Point::new(5.0, 0.0)));
        assert!(!bb.contains(&Point::new(10.1, 5.0)));
        assert!(!bb.contains(&Point::new(5.0, -0.1)));
    }

    #[test]
    fn distance_squared_to_is_zero_inside_and_correct_outside() {
        let bb = BoundingBox::square(10.0);
        assert!(approx_eq(
            bb.distance_squared_to(&Point::new(5.0, 5.0)),
            0.0
        ));
        assert!(approx_eq(
            bb.distance_squared_to(&Point::new(13.0, 14.0)),
            9.0 + 16.0
        ));
        assert!(approx_eq(
            bb.distance_squared_to(&Point::new(-2.0, 5.0)),
            4.0
        ));
    }

    #[test]
    fn clamp_projects_points_into_the_box() {
        let bb = BoundingBox::square(10.0);
        assert_eq!(bb.clamp(&Point::new(-5.0, 20.0)), Point::new(0.0, 10.0));
        assert_eq!(bb.clamp(&Point::new(3.0, 4.0)), Point::new(3.0, 4.0));
    }

    #[test]
    fn expand_to_grows_monotonically() {
        let mut bb = BoundingBox::from_corners(Point::ORIGIN, Point::ORIGIN);
        bb.expand_to(&Point::new(-3.0, 7.0));
        assert!(bb.contains(&Point::new(-3.0, 7.0)));
        assert!(bb.contains(&Point::ORIGIN));
        assert!(approx_eq(bb.width(), 3.0));
        assert!(approx_eq(bb.height(), 7.0));
    }
}
