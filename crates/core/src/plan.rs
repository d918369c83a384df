//! Patrol plans: the output of every planner and the input of the
//! simulator.
//!
//! A [`PatrolPlan`] holds one [`MuleItinerary`] per mule. An itinerary is a
//! *closed walk* over field nodes — the same node may appear several times,
//! which is how weighted patrolling paths visit a VIP `w_i` times per
//! traversal — plus the arc-length offset at which the mule enters the walk
//! (the B-TCTP start-point spreading) and the mule's physical start
//! position.
//!
//! Under a road metric, an itinerary additionally carries the **leg
//! geometry**: for each consecutive waypoint pair, the road polyline the
//! mule physically drives. [`MuleItinerary::polyline`],
//! [`MuleItinerary::cycle_length`] and the simulator all follow that
//! geometry, so arrival times, traces and renders see real roads instead of
//! straight chords. Euclidean plans carry no leg paths and behave — byte
//! for byte — as they always did.

use mule_geom::{Point, Polyline};
use mule_net::NodeId;
use mule_road::TravelMetric;
use std::collections::HashMap;
use std::fmt;

/// One stop of an itinerary: a field node and its position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// The node visited at this stop.
    pub node: NodeId,
    /// Its location in the field.
    pub position: Point,
}

impl Waypoint {
    /// Creates a waypoint.
    pub fn new(node: NodeId, position: Point) -> Self {
        Waypoint { node, position }
    }
}

/// The route of a single mule.
#[derive(Debug, Clone, PartialEq)]
pub struct MuleItinerary {
    /// Index of the mule in the scenario's mule list.
    pub mule_index: usize,
    /// Where the mule is physically located before it starts patrolling.
    pub start_position: Point,
    /// The closed walk the mule repeats forever, in traversal order. The
    /// walk is closed implicitly: after the last waypoint the mule returns
    /// to the first.
    pub cycle: Vec<Waypoint>,
    /// Arc length along `cycle` (measured from its first waypoint) at which
    /// the mule enters the walk. The mule first travels in a straight line
    /// from `start_position` to that entry point, then patrols. With leg
    /// geometry present, the arc length is measured along the *expanded*
    /// polyline (real road metres).
    pub entry_offset_m: f64,
    /// Per-leg travel geometry: `leg_paths[i]` holds the intermediate
    /// points the mule passes between `cycle[i]` and `cycle[(i + 1) % n]`.
    /// Empty (the default) means every leg is the straight chord — the
    /// Euclidean representation, unchanged from before road metrics.
    pub leg_paths: Vec<Vec<Point>>,
}

impl MuleItinerary {
    /// Creates an itinerary entering the cycle at its first waypoint, with
    /// straight (chord) legs.
    pub fn new(mule_index: usize, start_position: Point, cycle: Vec<Waypoint>) -> Self {
        MuleItinerary {
            mule_index,
            start_position,
            cycle,
            entry_offset_m: 0.0,
            leg_paths: Vec::new(),
        }
    }

    /// Sets the entry offset (wrapped into the cycle length by the
    /// simulator).
    pub fn with_entry_offset(mut self, offset_m: f64) -> Self {
        self.entry_offset_m = offset_m.max(0.0);
        self
    }

    /// The full travel geometry of one traversal: every waypoint followed
    /// by its leg's intermediate points. Without leg paths this is exactly
    /// the waypoint positions.
    pub fn expanded_points(&self) -> Vec<Point> {
        if self.leg_paths.is_empty() {
            return self.cycle.iter().map(|w| w.position).collect();
        }
        let mut points = Vec::with_capacity(self.cycle.len() + self.leg_paths.len());
        for (i, w) in self.cycle.iter().enumerate() {
            points.push(w.position);
            if let Some(leg) = self.leg_paths.get(i) {
                points.extend(leg.iter().copied());
            }
        }
        points
    }

    /// The closed polyline the mule physically travels (waypoints plus any
    /// leg geometry).
    pub fn polyline(&self) -> Polyline {
        Polyline::closed(self.expanded_points())
    }

    /// Replaces the leg geometry with `metric`'s paths and rescales the
    /// entry offset so the mule keeps its *fractional* position along the
    /// cycle (B-TCTP's `i/n` spreading is exact under the rescale). A
    /// no-op for the Euclidean metric.
    pub fn with_metric_geometry(self, metric: &TravelMetric) -> Self {
        if metric.is_euclidean() {
            return self;
        }
        self.with_legs(|a, b| metric.leg_path(a, b))
    }

    /// Road geometry with each leg's path supplied by `leg(from, to)`
    /// (the metric's `leg_path`); see
    /// [`MuleItinerary::with_metric_geometry`].
    fn with_legs(mut self, mut leg: impl FnMut(&Point, &Point) -> Vec<Point>) -> Self {
        if self.cycle.len() < 2 {
            return self;
        }
        let chord_length = self.cycle_length();
        let n = self.cycle.len();
        self.leg_paths = (0..n)
            .map(|i| leg(&self.cycle[i].position, &self.cycle[(i + 1) % n].position))
            .collect();
        if chord_length > 1e-9 {
            let fraction = self.entry_offset_m / chord_length;
            self.entry_offset_m = fraction * self.cycle_length();
        }
        self
    }

    /// Total length of one traversal of the cycle, in metres.
    pub fn cycle_length(&self) -> f64 {
        self.polyline().length()
    }

    /// The point on the cycle where the mule enters (at
    /// [`MuleItinerary::entry_offset_m`]). Falls back to the start position
    /// for an empty cycle.
    pub fn entry_point(&self) -> Point {
        self.polyline()
            .point_at(self.entry_offset_m)
            .unwrap_or(self.start_position)
    }

    /// Number of times `node` is visited in one complete traversal.
    pub fn visits_per_round(&self, node: NodeId) -> usize {
        self.cycle.iter().filter(|w| w.node == node).count()
    }

    /// The distinct nodes covered by the itinerary.
    pub fn covered_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.cycle.iter().map(|w| w.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// A complete plan: one itinerary per mule.
#[derive(Debug, Clone, PartialEq)]
pub struct PatrolPlan {
    /// Human-readable planner name ("B-TCTP", "CHB", …) for reports.
    pub planner_name: String,
    /// One itinerary per mule, in mule-index order.
    pub itineraries: Vec<MuleItinerary>,
}

impl PatrolPlan {
    /// Creates a plan.
    pub fn new(planner_name: impl Into<String>, itineraries: Vec<MuleItinerary>) -> Self {
        PatrolPlan {
            planner_name: planner_name.into(),
            itineraries,
        }
    }

    /// Number of mules covered by the plan.
    pub fn mule_count(&self) -> usize {
        self.itineraries.len()
    }

    /// Length of the longest per-mule cycle — the |P| that dominates the
    /// visiting interval bound.
    pub fn max_cycle_length(&self) -> f64 {
        self.itineraries
            .iter()
            .map(MuleItinerary::cycle_length)
            .fold(0.0, f64::max)
    }

    /// Applies `metric`'s leg geometry to every itinerary (see
    /// [`MuleItinerary::with_metric_geometry`]). Every planner calls this
    /// as its final step, so a plan built over a road scenario always
    /// describes real road motion. A no-op for Euclidean scenarios —
    /// their plans stay byte-identical to the pre-road era.
    ///
    /// B-, W- and RW-TCTP give every mule the same cycle, and RW-TCTP's
    /// super-cycle repeats the same legs within one itinerary, so each
    /// distinct leg is routed once per plan and cloned. A leg path is a
    /// function of its two endpoint positions alone, which is what the
    /// memo is keyed on.
    pub fn with_metric_geometry(mut self, metric: &TravelMetric) -> Self {
        if metric.is_euclidean() {
            return self;
        }
        let mut legs: HashMap<[u64; 4], Vec<Point>> = HashMap::new();
        self.itineraries = self
            .itineraries
            .into_iter()
            .map(|it| {
                it.with_legs(|a, b| {
                    let key = [a.x, a.y, b.x, b.y].map(f64::to_bits);
                    legs.entry(key)
                        .or_insert_with(|| metric.leg_path(a, b))
                        .clone()
                })
            })
            .collect();
        self
    }

    /// All distinct nodes covered by at least one itinerary.
    pub fn covered_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .itineraries
            .iter()
            .flat_map(|i| i.covered_nodes())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Why a planner could not produce a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The scenario has no patrolled nodes at all.
    NoTargets,
    /// The scenario has no mules.
    NoMules,
    /// The planner requires a recharge station but the scenario has none.
    MissingRechargeStation,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoTargets => write!(f, "scenario contains no targets to patrol"),
            PlanError::NoMules => write!(f, "scenario contains no data mules"),
            PlanError::MissingRechargeStation => {
                write!(
                    f,
                    "planner requires a recharge station but the scenario has none"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_itinerary(mule: usize) -> MuleItinerary {
        let cycle = vec![
            Waypoint::new(NodeId(0), Point::new(0.0, 0.0)),
            Waypoint::new(NodeId(1), Point::new(10.0, 0.0)),
            Waypoint::new(NodeId(2), Point::new(10.0, 10.0)),
            Waypoint::new(NodeId(1), Point::new(10.0, 0.0)),
            Waypoint::new(NodeId(3), Point::new(0.0, 10.0)),
        ];
        MuleItinerary::new(mule, Point::new(-5.0, -5.0), cycle)
    }

    #[test]
    fn cycle_length_and_polyline_agree() {
        let it = square_itinerary(0);
        assert!((it.cycle_length() - it.polyline().length()).abs() < 1e-12);
        assert!(it.cycle_length() > 0.0);
    }

    #[test]
    fn visits_per_round_counts_repeated_nodes() {
        let it = square_itinerary(0);
        assert_eq!(it.visits_per_round(NodeId(1)), 2);
        assert_eq!(it.visits_per_round(NodeId(0)), 1);
        assert_eq!(it.visits_per_round(NodeId(9)), 0);
        assert_eq!(
            it.covered_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn entry_point_walks_the_offset_and_clamps_empty_cycles() {
        let it = square_itinerary(0).with_entry_offset(10.0);
        // 10 m from (0,0) along the walk: exactly at (10, 0).
        assert_eq!(it.entry_point(), Point::new(10.0, 0.0));
        // Negative offsets are clamped to zero.
        let zero = square_itinerary(0).with_entry_offset(-3.0);
        assert_eq!(zero.entry_offset_m, 0.0);
        let empty = MuleItinerary::new(1, Point::new(2.0, 3.0), vec![]);
        assert_eq!(empty.entry_point(), Point::new(2.0, 3.0));
    }

    #[test]
    fn plan_aggregates_across_itineraries() {
        let plan = PatrolPlan::new("test", vec![square_itinerary(0), square_itinerary(1)]);
        assert_eq!(plan.mule_count(), 2);
        assert!(plan.max_cycle_length() > 0.0);
        assert_eq!(plan.covered_nodes().len(), 4);
        assert_eq!(plan.planner_name, "test");
    }

    #[test]
    fn expanded_points_interleave_leg_geometry() {
        let mut it = square_itinerary(0);
        assert_eq!(it.expanded_points().len(), it.cycle.len());
        // Fake road geometry: one bend on the first leg.
        it.leg_paths = vec![vec![]; it.cycle.len()];
        it.leg_paths[0] = vec![Point::new(5.0, -2.0)];
        let expanded = it.expanded_points();
        assert_eq!(expanded.len(), it.cycle.len() + 1);
        assert_eq!(expanded[1], Point::new(5.0, -2.0));
        assert!(it.cycle_length() > square_itinerary(0).cycle_length());
    }

    #[test]
    fn euclidean_metric_geometry_is_a_no_op() {
        let it = square_itinerary(0).with_entry_offset(7.0);
        let same = it.clone().with_metric_geometry(&TravelMetric::Euclidean);
        assert_eq!(it, same);
        let plan = PatrolPlan::new("test", vec![square_itinerary(0)]);
        assert_eq!(
            plan.clone().with_metric_geometry(&TravelMetric::Euclidean),
            plan
        );
    }

    #[test]
    fn road_metric_geometry_rescales_the_entry_fraction() {
        use mule_geom::BoundingBox;
        let index = mule_road::RoadIndex::for_field(
            mule_road::RoadNetKind::Grid,
            &BoundingBox::square(800.0),
            4,
        );
        let metric = TravelMetric::road(index);
        let snap = |x: f64, y: f64| {
            metric
                .road_index()
                .unwrap()
                .snap_position(&Point::new(x, y))
        };
        let cycle = vec![
            Waypoint::new(NodeId(0), snap(100.0, 100.0)),
            Waypoint::new(NodeId(1), snap(700.0, 120.0)),
            Waypoint::new(NodeId(2), snap(400.0, 650.0)),
        ];
        let it = MuleItinerary::new(0, snap(100.0, 100.0), cycle);
        let chord_len = it.cycle_length();
        let half_way = it.clone().with_entry_offset(chord_len / 2.0);

        let road_it = half_way.with_metric_geometry(&metric);
        assert!(!road_it.leg_paths.is_empty());
        assert_eq!(road_it.leg_paths.len(), road_it.cycle.len());
        let road_len = road_it.cycle_length();
        assert!(road_len >= chord_len - 1e-9, "roads never beat the chord");
        assert!(
            (road_it.entry_offset_m - road_len / 2.0).abs() < 1e-6,
            "the 1/2 entry fraction is preserved on the road cycle"
        );
        // The expanded polyline still starts at the first waypoint.
        assert_eq!(road_it.expanded_points()[0], road_it.cycle[0].position);
    }

    #[test]
    fn shared_cycles_route_each_distinct_leg_once() {
        use mule_geom::BoundingBox;
        let metric = TravelMetric::road(mule_road::RoadIndex::for_field(
            mule_road::RoadNetKind::Grid,
            &BoundingBox::square(800.0),
            4,
        ));
        let index = metric.road_index().unwrap();
        let wp = |id: usize, x: f64, y: f64| {
            Waypoint::new(NodeId(id), index.snap_position(&Point::new(x, y)))
        };
        // A walk that repeats its legs (RW-TCTP's super-cycle shape),
        // shared by three mules entering at different offsets.
        let (a, b, c) = (
            wp(0, 100.0, 100.0),
            wp(1, 700.0, 120.0),
            wp(2, 400.0, 650.0),
        );
        let cycle = vec![a, b, c, a, b, c];
        let itineraries: Vec<MuleItinerary> = (0..3)
            .map(|m| {
                MuleItinerary::new(m, a.position, cycle.clone()).with_entry_offset(m as f64 * 300.0)
            })
            .collect();
        let plan = PatrolPlan::new("test", itineraries.clone());

        let (memoised, trace) = mule_obs::capture(|| {
            let _s = mule_obs::span("test.geometry");
            plan.with_metric_geometry(&metric)
        });
        let alt_queries: u64 = trace
            .spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(name, _)| name == "alt_queries")
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(alt_queries, 3, "one A* per distinct leg");
        let per_itinerary: Vec<MuleItinerary> = itineraries
            .into_iter()
            .map(|it| it.with_metric_geometry(&metric))
            .collect();
        assert_eq!(memoised.itineraries, per_itinerary);
    }

    #[test]
    fn plan_error_messages_are_informative() {
        assert!(PlanError::NoTargets.to_string().contains("no targets"));
        assert!(PlanError::NoMules.to_string().contains("no data mules"));
        assert!(PlanError::MissingRechargeStation
            .to_string()
            .contains("recharge station"));
    }
}
