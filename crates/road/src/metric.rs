//! The pluggable travel metric the rest of the stack consumes.
//!
//! Every distance the planners, tour engine and simulator compute goes
//! through a [`TravelMetric`]: `Euclidean` reproduces the historical
//! straight-line behaviour **bit for bit** (it delegates to the exact same
//! `Point::distance` calls), while `Road` routes every leg over a
//! [`RoadIndex`]. The index sits behind an `Arc` so scenarios, plans and
//! replan contexts can share one preprocessed network without copying the
//! CSR arrays or landmark tables.

use crate::index::RoadIndex;
use mule_geom::Point;
use std::sync::Arc;

/// How travel between two field points is measured.
#[derive(Debug, Clone, Default)]
pub enum TravelMetric {
    /// Straight-line distance — the workspace's historical default.
    #[default]
    Euclidean,
    /// Shortest-path distance over a road network.
    Road(Arc<RoadIndex>),
}

impl PartialEq for TravelMetric {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (TravelMetric::Euclidean, TravelMetric::Euclidean) => true,
            (TravelMetric::Road(a), TravelMetric::Road(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl TravelMetric {
    /// Wraps a prepared road index.
    pub fn road(index: RoadIndex) -> Self {
        TravelMetric::Road(Arc::new(index))
    }

    /// Returns `true` for the Euclidean default.
    #[inline]
    pub fn is_euclidean(&self) -> bool {
        matches!(self, TravelMetric::Euclidean)
    }

    /// The road index, when the metric is road-based.
    pub fn road_index(&self) -> Option<&RoadIndex> {
        match self {
            TravelMetric::Euclidean => None,
            TravelMetric::Road(index) => Some(index),
        }
    }

    /// Travel distance from `a` to `b` under this metric, metres
    /// (effective metres for road classes slower than highway).
    #[inline]
    pub fn distance(&self, a: &Point, b: &Point) -> f64 {
        match self {
            TravelMetric::Euclidean => a.distance(b),
            TravelMetric::Road(index) => index.distance(a, b),
        }
    }

    /// The intermediate geometry of the leg from `a` to `b` — the points a
    /// mule physically passes *between* the two endpoints. Empty for the
    /// Euclidean metric (straight legs have no interior vertices).
    pub fn leg_path(&self, a: &Point, b: &Point) -> Vec<Point> {
        match self {
            TravelMetric::Euclidean => Vec::new(),
            TravelMetric::Road(index) => index.leg_path(a, b),
        }
    }

    /// Short label used in reports and JSON documents.
    pub fn label(&self) -> &'static str {
        match self {
            TravelMetric::Euclidean => "euclidean",
            TravelMetric::Road(index) => match index.kind() {
                crate::generate::RoadNetKind::Grid => "road-grid",
                crate::generate::RoadNetKind::Planar => "road-planar",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::RoadNetKind;
    use mule_geom::BoundingBox;

    fn road_metric() -> TravelMetric {
        TravelMetric::road(RoadIndex::for_field(
            RoadNetKind::Grid,
            &BoundingBox::square(800.0),
            3,
        ))
    }

    #[test]
    fn euclidean_matches_point_distance_exactly() {
        let m = TravelMetric::Euclidean;
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(m.distance(&a, &b), a.distance(&b));
        assert!(m.leg_path(&a, &b).is_empty());
        assert!(m.is_euclidean());
        assert_eq!(m.label(), "euclidean");
        assert!(m.road_index().is_none());
    }

    #[test]
    fn road_distances_dominate_euclidean() {
        let m = road_metric();
        assert!(!m.is_euclidean());
        assert_eq!(m.label(), "road-grid");
        let a = Point::new(100.0, 100.0);
        let b = Point::new(700.0, 600.0);
        assert!(m.distance(&a, &b) >= a.distance(&b));
        assert!(!m.leg_path(&a, &b).is_empty());
    }

    #[test]
    fn equality_distinguishes_metrics_and_shares_arcs() {
        let a = road_metric();
        let b = a.clone();
        assert_eq!(a, b, "clones share the Arc");
        assert_eq!(a, road_metric(), "equal seeds rebuild equal indices");
        assert_ne!(a, TravelMetric::Euclidean);
        assert_eq!(TravelMetric::Euclidean, TravelMetric::default());
    }
}
