//! # mule-geom
//!
//! Planar geometry substrate for the wireless mobile data-mule patrolling
//! system. Everything the planners and the simulator need to reason about
//! the monitoring field lives here:
//!
//! * [`Point`] — a 2-D location in metres, with distance / bearing helpers.
//! * [`angle`] — counter-clockwise included angles used by the W-TCTP
//!   patrolling rule ("pick the outgoing edge with the minimal CCW angle").
//! * [`Segment`] — directed edges of a patrolling path, with length,
//!   interpolation and point-projection.
//! * [`hull`] — convex-hull construction (Andrew monotone chain) that seeds
//!   the CHB Hamiltonian-circuit heuristic of reference \[5\].
//! * [`BoundingBox`] — axis-aligned extents of a field or target cluster.
//! * [`Polyline`] — open/closed chains of points with arc-length queries,
//!   used to walk a mule a given distance along a patrolling route.
//! * [`KdTree`] — the spatial index: nearest-neighbour and k-nearest
//!   queries in `O(log n)` expected time, over one flat array built in
//!   `O(n log n)`.
//!
//! The crate has no dependencies and is panic-free on degenerate input
//! wherever a sensible total behaviour exists; degenerate cases that have
//! no sensible answer return `Option`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod angle;
pub mod bbox;
pub mod hull;
pub mod kdtree;
pub mod point;
pub mod polyline;
pub mod segment;

pub use angle::{ccw_included_angle, normalize_angle, Bearing};
pub use bbox::BoundingBox;
pub use hull::{convex_hull, hull_diameter};
pub use kdtree::KdTree;
pub use point::Point;
pub use polyline::Polyline;
pub use segment::Segment;

/// Numerical tolerance used by geometric predicates throughout the crate.
///
/// Distances are metres; the paper's field is 800 m × 800 m, so a nanometre
/// tolerance is far below any physically meaningful difference while being
/// far above `f64` rounding error for coordinates of this magnitude.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floating-point lengths are equal within
/// [`EPSILON`] (absolute) or a relative tolerance of `1e-12`.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPSILON || diff <= f64::max(a.abs(), b.abs()) * 1e-12
}

/// Maps `x` to a `u64` whose unsigned order is [`f64::total_cmp`] order:
/// every bit of a negative value is flipped and the sign bit of a
/// non-negative one is set, so `-0.0 < +0.0` and NaNs sort to the ends.
/// Heaps keyed by it compare integers instead of floats.
#[inline]
pub fn ordered_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_bits_orders_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            1.0e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    ordered_bits(a).cmp(&ordered_bits(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn approx_eq_accepts_identical_values() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(0.0, 0.0));
    }

    #[test]
    fn approx_eq_accepts_tiny_absolute_differences() {
        assert!(approx_eq(1.0, 1.0 + 1e-10));
        assert!(approx_eq(-3.5, -3.5 - 1e-10));
    }

    #[test]
    fn approx_eq_accepts_relative_differences_on_large_values() {
        let a = 1.0e12;
        assert!(approx_eq(a, a + 0.5e-1 * 1e-12 * a));
    }

    #[test]
    fn approx_eq_rejects_clear_differences() {
        assert!(!approx_eq(1.0, 1.1));
        assert!(!approx_eq(0.0, 1e-3));
    }
}
