//! Patrol plans: the output of every planner and the input of the
//! simulator.
//!
//! A [`PatrolPlan`] holds one [`MuleItinerary`] per mule. An itinerary is a
//! [`Walk`] — a *closed walk* over field nodes; the same node may appear
//! several times, which is how weighted patrolling paths visit a VIP `w_i`
//! times per traversal — plus the arc-length offset at which the mule
//! enters the walk (the B-TCTP start-point spreading) and the mule's
//! physical start position. B-, W- and RW-TCTP hand every mule the same
//! walk: the itineraries hold clones of one [`Walk`], which share its
//! storage.
//!
//! Under a road metric, a walk additionally carries the **leg geometry**:
//! for each consecutive waypoint pair, the road polyline the mule
//! physically drives. [`Walk::length`], [`Walk::vertices`] and the
//! simulator all follow that geometry, so arrival times, traces and renders
//! see real roads instead of straight chords. Euclidean walks carry no leg
//! geometry and behave — byte for byte — as they always did.

use mule_geom::{Point, Polyline};
use mule_net::NodeId;
use mule_road::TravelMetric;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

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

/// A closed walk over field nodes, in traversal order: after the last
/// waypoint the mule returns to the first. It dereferences to its
/// waypoints.
///
/// A walk is immutable, and cloning one clones an [`Arc`]: every mule of a
/// B-, W- or RW-TCTP plan holds the same walk, which [`Walk::ptr_eq`]
/// tells apart from an equal walk stored separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Walk(Arc<WalkData>);

#[derive(Debug, PartialEq)]
struct WalkData {
    waypoints: Vec<Waypoint>,
    /// `legs[i]` holds the bends the mule passes between waypoint `i` and
    /// the next one (wrapping). Empty means every leg is the straight
    /// chord: the Euclidean representation.
    legs: Vec<Vec<Point>>,
    /// Length of one traversal, measured once at construction.
    length_m: f64,
}

impl Walk {
    fn new(waypoints: Vec<Waypoint>, legs: Vec<Vec<Point>>) -> Self {
        let mut walk = Walk(Arc::new(WalkData {
            waypoints,
            legs,
            length_m: 0.0,
        }));
        let length_m = walk.polyline().length();
        Arc::get_mut(&mut walk.0)
            .expect("a new walk is unshared")
            .length_m = length_m;
        walk
    }

    /// Whether `a` and `b` are clones of one walk (not merely equal).
    pub fn ptr_eq(a: &Walk, b: &Walk) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Total length of one traversal, in metres, along the leg geometry.
    pub fn length(&self) -> f64 {
        self.0.length_m
    }

    /// Whether the walk carries road geometry for its legs (a road plan's
    /// walk of two or more waypoints).
    pub fn is_routed(&self) -> bool {
        !self.0.legs.is_empty()
    }

    /// The travel vertices of one traversal, in order: each waypoint (with
    /// its node) followed by the bends of the leg it starts (with `None`).
    /// Without leg geometry these are exactly the waypoints.
    pub fn vertices(&self) -> impl Iterator<Item = (Point, Option<NodeId>)> + '_ {
        let walk = &*self.0;
        walk.waypoints.iter().enumerate().flat_map(move |(i, w)| {
            std::iter::once((w.position, Some(w.node)))
                .chain(walk.legs.get(i).into_iter().flatten().map(|p| (*p, None)))
        })
    }

    /// Number of [`Walk::vertices`]: waypoints plus bends.
    pub fn vertex_count(&self) -> usize {
        self.0.waypoints.len() + self.0.legs.iter().map(Vec::len).sum::<usize>()
    }

    /// The closed polyline through every travel vertex.
    pub fn polyline(&self) -> Polyline {
        let mut points = Vec::with_capacity(self.vertex_count());
        points.extend(self.vertices().map(|(p, _)| p));
        Polyline::closed(points)
    }

    /// This walk with each leg's road geometry supplied by `leg(from, to)`
    /// (the metric's `leg_path`). A walk of fewer than two waypoints has
    /// no leg and comes back as it is.
    fn routed(&self, mut leg: impl FnMut(&Point, &Point) -> Vec<Point>) -> Walk {
        let n = self.len();
        if n < 2 {
            return self.clone();
        }
        let legs = (0..n)
            .map(|i| leg(&self[i].position, &self[(i + 1) % n].position))
            .collect();
        Walk::new(self.0.waypoints.clone(), legs)
    }
}

impl From<Vec<Waypoint>> for Walk {
    /// A walk with straight (chord) legs.
    fn from(waypoints: Vec<Waypoint>) -> Self {
        Walk::new(waypoints, Vec::new())
    }
}

impl Deref for Walk {
    type Target = [Waypoint];

    fn deref(&self) -> &[Waypoint] {
        &self.0.waypoints
    }
}

impl<'a> IntoIterator for &'a Walk {
    type Item = &'a Waypoint;
    type IntoIter = std::slice::Iter<'a, Waypoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.waypoints.iter()
    }
}

/// The route of a single mule.
#[derive(Debug, Clone, PartialEq)]
pub struct MuleItinerary {
    /// Index of the mule in the scenario's mule list.
    pub mule_index: usize,
    /// Where the mule is physically located before it starts patrolling.
    pub start_position: Point,
    /// The closed walk the mule repeats forever.
    pub cycle: Walk,
    /// Arc length along `cycle` (measured from its first waypoint) at which
    /// the mule enters the walk. The mule first travels in a straight line
    /// from `start_position` to that entry point, then patrols. With leg
    /// geometry present, the arc length is measured along the roads.
    pub entry_offset_m: f64,
}

impl MuleItinerary {
    /// Creates an itinerary entering the cycle at its first waypoint.
    pub fn new(mule_index: usize, start_position: Point, cycle: impl Into<Walk>) -> Self {
        MuleItinerary {
            mule_index,
            start_position,
            cycle: cycle.into(),
            entry_offset_m: 0.0,
        }
    }

    /// Sets the entry offset (wrapped into the cycle length by the
    /// simulator).
    pub fn with_entry_offset(mut self, offset_m: f64) -> Self {
        self.entry_offset_m = offset_m.max(0.0);
        self
    }

    /// Total length of one traversal of the cycle, in metres.
    pub fn cycle_length(&self) -> f64 {
        self.cycle.length()
    }

    /// The point on the cycle where the mule enters (at
    /// [`MuleItinerary::entry_offset_m`]). Falls back to the start position
    /// for an empty cycle.
    pub fn entry_point(&self) -> Point {
        self.cycle
            .polyline()
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

    /// Routes every walk of the plan along `metric`'s roads and rescales
    /// each entry offset so the mule keeps its *fractional* position along
    /// its walk (B-TCTP's `i/n` spreading is exact under the rescale).
    /// Every planner calls this as its final step, so a plan built over a
    /// road scenario always describes real road motion. A no-op for
    /// Euclidean scenarios — their plans stay byte-identical to the
    /// pre-road era.
    ///
    /// Each distinct walk (by [`Walk::ptr_eq`]) is routed once, and the
    /// itineraries that shared it share the routed walk. RW-TCTP's
    /// super-cycle repeats its legs within one walk, so legs are memoised
    /// too: a leg path is a function of its two endpoint positions alone,
    /// which is what the memo is keyed on.
    pub fn with_metric_geometry(mut self, metric: &TravelMetric) -> Self {
        if metric.is_euclidean() {
            return self;
        }
        let mut legs: HashMap<[u64; 4], Vec<Point>> = HashMap::new();
        let mut routed: Vec<(Walk, Walk)> = Vec::new();
        for it in &mut self.itineraries {
            let road = match routed
                .iter()
                .find(|(chord, _)| Walk::ptr_eq(chord, &it.cycle))
            {
                Some((_, road)) => road.clone(),
                None => {
                    let road = it.cycle.routed(|a, b| {
                        let key = [a.x, a.y, b.x, b.y].map(f64::to_bits);
                        legs.entry(key)
                            .or_insert_with(|| metric.leg_path(a, b))
                            .clone()
                    });
                    routed.push((it.cycle.clone(), road.clone()));
                    road
                }
            };
            let chord_length = it.cycle.length();
            if chord_length > 1e-9 {
                it.entry_offset_m = (it.entry_offset_m / chord_length) * road.length();
            }
            it.cycle = road;
        }
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
        assert!((it.cycle_length() - it.cycle.polyline().length()).abs() < 1e-12);
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
        let chords = square_itinerary(0).cycle;
        assert_eq!(chords.vertex_count(), chords.len());
        assert!(!chords.is_routed());
        // Fake road geometry: one bend on the first leg.
        let mut legs = vec![vec![]; chords.len()];
        legs[0] = vec![Point::new(5.0, -2.0)];
        let road = Walk::new(chords.to_vec(), legs);
        assert!(road.is_routed());
        let vertices: Vec<(Point, Option<NodeId>)> = road.vertices().collect();
        assert_eq!(vertices.len(), chords.len() + 1);
        assert_eq!(road.vertex_count(), vertices.len());
        assert_eq!(vertices[0], (chords[0].position, Some(chords[0].node)));
        assert_eq!(vertices[1], (Point::new(5.0, -2.0), None));
        assert_eq!(vertices[2], (chords[1].position, Some(chords[1].node)));
        assert!(road.length() > chords.length());
        assert_eq!(road.length(), road.polyline().length());
    }

    #[test]
    fn euclidean_metric_geometry_is_a_no_op() {
        let plan = PatrolPlan::new("test", vec![square_itinerary(0).with_entry_offset(7.0)]);
        let same = plan.clone().with_metric_geometry(&TravelMetric::Euclidean);
        assert_eq!(same, plan);
        assert!(Walk::ptr_eq(
            &same.itineraries[0].cycle,
            &plan.itineraries[0].cycle
        ));
    }

    fn grid_metric() -> TravelMetric {
        TravelMetric::road(mule_road::RoadIndex::for_field(
            mule_road::RoadNetKind::Grid,
            &mule_geom::BoundingBox::square(800.0),
            4,
        ))
    }

    /// Routes `it` on its own, with no walk or leg shared with another
    /// itinerary.
    fn routed_alone(it: MuleItinerary, metric: &TravelMetric) -> MuleItinerary {
        let mut plan = PatrolPlan::new("test", vec![it]).with_metric_geometry(metric);
        plan.itineraries.remove(0)
    }

    #[test]
    fn road_metric_geometry_rescales_the_entry_fraction() {
        let metric = grid_metric();
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

        let road_it = routed_alone(half_way, &metric);
        assert!(road_it.cycle.is_routed());
        assert_eq!(road_it.cycle[..], it.cycle[..], "same waypoints");
        let road_len = road_it.cycle_length();
        assert!(road_len >= chord_len - 1e-9, "roads never beat the chord");
        assert!(
            (road_it.entry_offset_m - road_len / 2.0).abs() < 1e-6,
            "the 1/2 entry fraction is preserved on the road cycle"
        );
        // The travel vertices still start at the first waypoint.
        let first = road_it.cycle.vertices().next().unwrap();
        assert_eq!(first, (road_it.cycle[0].position, Some(NodeId(0))));
    }

    #[test]
    fn shared_cycles_route_each_distinct_leg_once() {
        let metric = grid_metric();
        let index = metric.road_index().unwrap();
        let wp = |id: usize, x: f64, y: f64| {
            Waypoint::new(NodeId(id), index.snap_position(&Point::new(x, y)))
        };
        // A walk that repeats its legs (RW-TCTP's super-cycle shape),
        // shared by two mules, and an equal walk stored separately for a
        // third; each mule enters at its own offset.
        let (a, b, c) = (
            wp(0, 100.0, 100.0),
            wp(1, 700.0, 120.0),
            wp(2, 400.0, 650.0),
        );
        let shared = Walk::from(vec![a, b, c, a, b, c]);
        let separate = Walk::from(shared.to_vec());
        let itineraries: Vec<MuleItinerary> = [&shared, &shared, &separate]
            .into_iter()
            .enumerate()
            .map(|(m, walk)| {
                MuleItinerary::new(m, a.position, walk.clone()).with_entry_offset(m as f64 * 300.0)
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
        let walks: Vec<&Walk> = memoised.itineraries.iter().map(|it| &it.cycle).collect();
        assert!(
            Walk::ptr_eq(walks[0], walks[1]),
            "a shared walk stays shared"
        );
        assert!(!Walk::ptr_eq(walks[0], walks[2]));
        let per_itinerary: Vec<MuleItinerary> = itineraries
            .into_iter()
            .map(|it| routed_alone(it, &metric))
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
