//! The queryable road bundle: graph + ALT landmarks + snapping.
//!
//! A [`RoadIndex`] is what scenarios carry: the connected road graph, its
//! precomputed [`Landmarks`] and a kd-tree over the node positions so
//! arbitrary field points (targets, the sink, mule positions) snap to
//! their nearest road node in `O(log n)`.
//!
//! Distances between arbitrary points decompose as *connector + road +
//! connector*: the straight-line hop onto the network at each end plus
//! the shortest road path between the snapped nodes. When both points
//! snap to the same node, the road part is zero and the metric degrades
//! gracefully to the two connectors.

use crate::generate::{self, ComponentReport, RoadNet, RoadNetKind};
use crate::graph::RoadGraph;
use crate::landmarks::Landmarks;
use crate::route::{astar_alt, dijkstra_counted};
use mule_geom::{BoundingBox, KdTree, Point};
use std::sync::OnceLock;

/// Landmark count used by [`RoadIndex::build`]'s callers in this
/// workspace. 8 is the classic sweet spot for ALT on planar networks:
/// more landmarks sharpen bounds slowly while each costs one full
/// distance vector of memory.
pub const DEFAULT_LANDMARKS: usize = 8;

/// A road graph prepared for fast repeated queries.
#[derive(Debug, Clone)]
pub struct RoadIndex {
    graph: RoadGraph,
    landmarks: Landmarks,
    snap_tree: KdTree,
    component: ComponentReport,
    kind: RoadNetKind,
    seed: u64,
    /// One shortest-path table per road node, filled the first time
    /// [`RoadIndex::pairwise`] needs that node as a Dijkstra source and
    /// kept for the life of the index. A table is a pure function of the
    /// graph and its source, so a kept one holds exactly the floats a
    /// fresh run would.
    source_tables: Box<[OnceLock<Vec<f64>>]>,
}

impl PartialEq for RoadIndex {
    fn eq(&self, other: &Self) -> bool {
        // The kd-tree is a deterministic function of the graph's node
        // positions, so graph equality subsumes it; the kept Dijkstra
        // tables are a cache of the graph.
        self.graph == other.graph
            && self.landmarks == other.landmarks
            && self.component == other.component
            && self.kind == other.kind
            && self.seed == other.seed
    }
}

impl RoadIndex {
    /// Prepares a generated network for queries (`landmark_count` Dijkstra
    /// runs of preprocessing).
    pub fn build(net: RoadNet, kind: RoadNetKind, seed: u64, landmark_count: usize) -> Self {
        let landmarks = Landmarks::select(&net.graph, landmark_count);
        let snap_tree = KdTree::build(net.graph.positions());
        let source_tables = (0..net.graph.len()).map(|_| OnceLock::new()).collect();
        RoadIndex {
            graph: net.graph,
            landmarks,
            snap_tree,
            component: net.component,
            kind,
            seed,
            source_tables,
        }
    }

    /// The deterministic road network a scenario field implies: generator
    /// parameters are derived from the field bounds (≈ 70 m grid blocks /
    /// an equivalent planar intersection density) and everything downstream
    /// of `(kind, bounds, seed)` is fixed. This is the single entry point
    /// the workload generator uses, so CLI, server and tests cannot drift.
    pub fn for_field(kind: RoadNetKind, bounds: &BoundingBox, seed: u64) -> Self {
        // Decouple the road RNG stream from the scenario's target stream:
        // the same seed must keep generating byte-identical Euclidean
        // scenarios whether or not a road layer exists.
        let road_seed = seed ^ 0x526f_6164_5f76_3031; // "Road_v01"
        let net = match kind {
            RoadNetKind::Grid => {
                let nx = ((bounds.width() / 70.0).round() as usize).clamp(6, 160);
                let ny = ((bounds.height() / 70.0).round() as usize).clamp(6, 160);
                generate::grid_with_deletions(bounds, nx, ny, 0.18, road_seed)
            }
            RoadNetKind::Planar => {
                let density = (bounds.area() / (70.0 * 70.0)).round() as usize;
                let nodes = density.clamp(36, 25_000);
                generate::random_planar(bounds, nodes, 4, road_seed)
            }
        };
        RoadIndex::build(net, kind, seed, DEFAULT_LANDMARKS)
    }

    /// The underlying road graph.
    #[inline]
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// The ALT landmark set.
    #[inline]
    pub fn landmarks(&self) -> &Landmarks {
        &self.landmarks
    }

    /// The largest-component restriction report of the generator.
    #[inline]
    pub fn component(&self) -> ComponentReport {
        self.component
    }

    /// Which generator family produced the graph.
    #[inline]
    pub fn kind(&self) -> RoadNetKind {
        self.kind
    }

    /// The scenario seed the index was derived from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The nearest road node to `p`. Panics on an empty graph (scenario
    /// generation never builds one — the generators clamp their sizes).
    #[inline]
    pub fn snap(&self, p: &Point) -> u32 {
        self.snap_tree
            .nearest(p)
            .expect("road graph has at least one node")
            .0 as u32
    }

    /// The snapped position of `p` (the nearest road node's coordinates).
    #[inline]
    pub fn snap_position(&self, p: &Point) -> Point {
        self.graph.position(self.snap(p))
    }

    /// Road-metric distance between two arbitrary field points:
    /// straight connectors onto the network plus the shortest road path
    /// (via ALT A*) between the snapped nodes.
    pub fn distance(&self, a: &Point, b: &Point) -> f64 {
        let (sa, sb) = (self.snap(a), self.snap(b));
        let connectors =
            a.distance(&self.graph.position(sa)) + b.distance(&self.graph.position(sb));
        if sa == sb {
            return connectors;
        }
        let road = astar_alt(&self.graph, &self.landmarks, sa, sb)
            .map(|r| {
                mule_obs::add("alt_queries", 1);
                mule_obs::add("alt_settled", r.settled as u64);
                r.cost
            })
            .unwrap_or(f64::INFINITY); // unreachable cannot happen on a connected graph
        connectors + road
    }

    /// The intermediate geometry of the road leg from `a` to `b`: the road
    /// node positions of the shortest path between the snapped endpoints,
    /// excluding any node that coincides with `a` or `b` themselves (so
    /// the caller can splice the result strictly between its own
    /// waypoints without zero-length stutters).
    pub fn leg_path(&self, a: &Point, b: &Point) -> Vec<Point> {
        let (sa, sb) = (self.snap(a), self.snap(b));
        let node_points: Vec<Point> = if sa == sb {
            vec![self.graph.position(sa)]
        } else {
            match astar_alt(&self.graph, &self.landmarks, sa, sb) {
                Some(route) => {
                    mule_obs::add("alt_queries", 1);
                    mule_obs::add("alt_settled", route.settled as u64);
                    route
                        .nodes
                        .iter()
                        .map(|&n| self.graph.position(n))
                        .collect()
                }
                None => Vec::new(),
            }
        };
        let coincides = |p: &Point, q: &Point| p.distance(q) < 1e-9;
        let mut out = Vec::with_capacity(node_points.len());
        for p in node_points {
            if coincides(&p, a) || coincides(&p, b) {
                continue;
            }
            if out.last().map(|l| coincides(l, &p)).unwrap_or(false) {
                continue;
            }
            out.push(p);
        }
        out
    }

    /// The dense `n × n` road-distance matrix over `points`, row-major.
    /// One full Dijkstra per *distinct snapped node* (typically ≪ n when
    /// targets share intersections), then connector adjustment per pair —
    /// the right tool for one-to-all workloads like tour construction,
    /// where point-to-point ALT would redo the same corridors n² times.
    ///
    /// Each source's table is kept on the index after its first use, so
    /// later calls over the same nodes (a replan over the surviving
    /// targets of a scenario) run Dijkstra only for nodes not seen before.
    /// Cells `[i][j]` and `[j][i]` are written from one value, so the
    /// matrix is symmetric bit for bit.
    pub fn pairwise(&self, points: &[Point]) -> Vec<f64> {
        let n = points.len();
        let mut out = vec![0.0; n * n];
        if n == 0 {
            return out;
        }
        let snapped: Vec<u32> = points.iter().map(|p| self.snap(p)).collect();
        let connector: Vec<f64> = points
            .iter()
            .zip(&snapped)
            .map(|(p, &s)| p.distance(&self.graph.position(s)))
            .collect();
        let _span = mule_obs::span("road.pairwise");
        mule_obs::add("n", n as u64);
        for i in 0..n {
            let table = self.source_tables[snapped[i] as usize].get_or_init(|| {
                let (table, settled) = dijkstra_counted(&self.graph, snapped[i]);
                mule_obs::add("dijkstra_sources", 1);
                mule_obs::add("dijkstra_settled", settled as u64);
                table
            });
            for j in (i + 1)..n {
                let road = if snapped[i] == snapped[j] {
                    0.0
                } else {
                    table[snapped[j] as usize]
                };
                let d = connector[i] + road + connector[j];
                out[i * n + j] = d;
                out[j * n + i] = d;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::dijkstra_to;

    fn index() -> RoadIndex {
        RoadIndex::for_field(RoadNetKind::Grid, &BoundingBox::square(800.0), 1)
    }

    #[test]
    fn for_field_is_deterministic_per_seed_and_kind() {
        let a = index();
        let b = RoadIndex::for_field(RoadNetKind::Grid, &BoundingBox::square(800.0), 1);
        assert_eq!(a, b);
        let other_seed = RoadIndex::for_field(RoadNetKind::Grid, &BoundingBox::square(800.0), 2);
        assert_ne!(a, other_seed);
        let planar = RoadIndex::for_field(RoadNetKind::Planar, &BoundingBox::square(800.0), 1);
        assert_ne!(a, planar);
        assert_eq!(planar.kind(), RoadNetKind::Planar);
        assert!(a.graph().len() > 50, "800 m field has a real network");
        assert!(!a.landmarks().is_empty());
    }

    #[test]
    fn snapping_returns_the_nearest_node() {
        let idx = index();
        let q = Point::new(123.0, 456.0);
        let s = idx.snap(&q);
        let snapped = idx.snap_position(&q);
        let best = idx
            .graph()
            .positions()
            .iter()
            .map(|p| p.distance(&q))
            .fold(f64::INFINITY, f64::min);
        assert!((snapped.distance(&q) - best).abs() < 1e-9);
        assert_eq!(idx.graph().position(s), snapped);
    }

    #[test]
    fn distance_decomposes_into_connectors_plus_road() {
        let idx = index();
        let a = Point::new(100.0, 100.0);
        let b = Point::new(700.0, 650.0);
        let (sa, sb) = (idx.snap(&a), idx.snap(&b));
        let road = dijkstra_to(idx.graph(), sa, sb).unwrap().cost;
        let expected =
            a.distance(&idx.graph().position(sa)) + road + b.distance(&idx.graph().position(sb));
        assert!((idx.distance(&a, &b) - expected).abs() < 1e-9);
        // Road distance always dominates the straight line.
        assert!(idx.distance(&a, &b) >= a.distance(&b) - 1e-9);
        // Same point: zero.
        assert!(idx.distance(&a, &a) < 1e-9 + 2.0 * a.distance(&idx.snap_position(&a)));
    }

    #[test]
    fn leg_path_is_on_road_nodes_and_excludes_endpoints() {
        let idx = index();
        let a = idx.snap_position(&Point::new(50.0, 50.0));
        let b = idx.snap_position(&Point::new(750.0, 700.0));
        let path = idx.leg_path(&a, &b);
        assert!(!path.is_empty(), "distant points route through the network");
        for p in &path {
            assert!(p.distance(&a) > 1e-9 && p.distance(&b) > 1e-9);
            assert!(
                idx.graph().positions().iter().any(|q| q.distance(p) < 1e-9),
                "leg point {p} is a road node"
            );
        }
        // Consecutive path points are road-adjacent (no straight shortcuts).
        let all = std::iter::once(a)
            .chain(path.iter().copied())
            .chain(std::iter::once(b))
            .collect::<Vec<_>>();
        for w in all.windows(2) {
            let (u, v) = (idx.snap(&w[0]), idx.snap(&w[1]));
            assert!(
                u == v || idx.graph().neighbors(u).any(|(t, _)| t == v),
                "{} -> {} is not a road hop",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn pairwise_matches_point_to_point_distances() {
        let idx = index();
        let pts = [
            Point::new(100.0, 100.0),
            Point::new(400.0, 400.0),
            Point::new(700.0, 200.0),
            Point::new(100.0, 100.0), // duplicate point
        ];
        let m = idx.pairwise(&pts);
        let n = pts.len();
        for i in 0..n {
            assert_eq!(m[i * n + i], 0.0);
            for j in 0..n {
                assert!((m[i * n + j] - m[j * n + i]).abs() < 1e-9, "symmetric");
                if i != j {
                    assert!(
                        (m[i * n + j] - idx.distance(&pts[i], &pts[j])).abs() < 1e-6,
                        "pairwise [{i}][{j}] agrees with point-to-point"
                    );
                }
            }
        }
        assert!(idx.pairwise(&[]).is_empty());
    }

    /// The Dijkstra sources a `pairwise` call ran, from its trace.
    fn pairwise_counted(idx: &RoadIndex, pts: &[Point]) -> (Vec<f64>, u64) {
        let (m, trace) = mule_obs::capture(|| idx.pairwise(pts));
        let sources = trace
            .spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(name, _)| name == "dijkstra_sources")
            .map(|&(_, v)| v)
            .sum();
        (m, sources)
    }

    #[test]
    fn pairwise_keeps_each_source_table_for_later_calls() {
        let idx = index();
        let all = [
            Point::new(100.0, 100.0),
            Point::new(400.0, 400.0),
            Point::new(700.0, 200.0),
            Point::new(250.0, 650.0),
        ];
        let (first, sources) = pairwise_counted(&idx, &all[..3]);
        assert_eq!(sources, 3);
        // A subset needs no new table; a superset only the new node's.
        let (subset, sources) = pairwise_counted(&idx, &all[1..3]);
        assert_eq!(sources, 0);
        let (superset, sources) = pairwise_counted(&idx, &all);
        assert_eq!(sources, 1);
        // Kept tables give the bits a fresh index gives.
        assert_eq!(first, index().pairwise(&all[..3]));
        assert_eq!(subset, index().pairwise(&all[1..3]));
        assert_eq!(superset, index().pairwise(&all));
        // Cloning carries the kept tables; equality ignores them.
        let (cloned, sources) = pairwise_counted(&idx.clone(), &all);
        assert_eq!((cloned, sources), (superset, 0));
        assert_eq!(idx, index());
    }
}
