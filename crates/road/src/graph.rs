//! The compact road graph: CSR adjacency over planar points.
//!
//! Nodes are 2-D positions (metres); edges are undirected road segments
//! stored as two directed arcs in compressed-sparse-row form, sorted by
//! `(source, target)` so iteration order — and therefore every algorithm
//! built on it — is deterministic regardless of insertion order.
//!
//! Every arc carries a [`SpeedClass`] whose *cost factor* scales the
//! geometric length into the routing cost. All factors are ≥ 1, so an arc
//! never costs less than its straight-line length; summed over a path this
//! keeps the plain Euclidean distance an admissible A* heuristic (see
//! [`crate::route`]).

use mule_geom::Point;

/// Road category of an edge. The cost factor models how slow the class is
/// relative to the fastest road: routing cost = length × factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedClass {
    /// Fast arterial road (factor 1.0 — cost equals geometric length).
    Highway,
    /// Mid-tier road (factor 1.3).
    Avenue,
    /// Slow local road (factor 1.6).
    Street,
}

impl SpeedClass {
    /// Cost multiplier applied to the edge's geometric length. Always ≥ 1
    /// (the admissibility invariant of the Euclidean A* heuristic).
    #[inline]
    pub fn cost_factor(self) -> f64 {
        match self {
            SpeedClass::Highway => 1.0,
            SpeedClass::Avenue => 1.3,
            SpeedClass::Street => 1.6,
        }
    }

    /// All classes, slowest last (used by the generators' seeded draws).
    pub const ALL: [SpeedClass; 3] = [SpeedClass::Highway, SpeedClass::Avenue, SpeedClass::Street];
}

/// An immutable road network in CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadGraph {
    positions: Vec<Point>,
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s outgoing arcs.
    offsets: Vec<u32>,
    /// Arc target node ids, sorted per source.
    targets: Vec<u32>,
    /// Arc routing costs (length × class factor), aligned with `targets`.
    costs: Vec<f64>,
    /// Arc speed classes, aligned with `targets`.
    classes: Vec<SpeedClass>,
}

impl RoadGraph {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` for a graph with no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of undirected edges (arc count / 2).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Position of node `u`.
    #[inline]
    pub fn position(&self, u: u32) -> Point {
        self.positions[u as usize]
    }

    /// All node positions, in node-id order.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The outgoing arcs of `u` as `(target, cost)` pairs, sorted by
    /// target id.
    #[inline]
    pub fn neighbors(&self, u: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .zip(&self.costs[lo..hi])
            .map(|(&t, &c)| (t, c))
    }

    /// Each undirected edge exactly once as `(u, v, class)` with `u < v`,
    /// in `(u, v)` order — the iteration the SVG renderer draws.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, SpeedClass)> + '_ {
        (0..self.len() as u32).flat_map(move |u| {
            let lo = self.offsets[u as usize] as usize;
            let hi = self.offsets[u as usize + 1] as usize;
            self.targets[lo..hi]
                .iter()
                .zip(&self.classes[lo..hi])
                .filter(move |(&v, _)| u < v)
                .map(move |(&v, &class)| (u, v, class))
        })
    }

    /// Sum of all undirected edge geometric lengths, metres.
    pub fn total_length_m(&self) -> f64 {
        self.edges()
            .map(|(u, v, _)| self.position(u).distance(&self.position(v)))
            .sum()
    }
}

/// Incremental construction of a [`RoadGraph`].
#[derive(Debug, Clone, Default)]
pub struct RoadGraphBuilder {
    positions: Vec<Point>,
    /// Undirected edges as `(min, max, class)`; deduplicated at build time.
    edges: Vec<(u32, u32, SpeedClass)>,
}

impl RoadGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        RoadGraphBuilder::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, position: Point) -> u32 {
        let id = self.positions.len() as u32;
        self.positions.push(position);
        id
    }

    /// Adds an undirected edge between `u` and `v`. Self-loops are ignored;
    /// duplicate edges collapse to the first-added class at build time.
    pub fn add_edge(&mut self, u: u32, v: u32, class: SpeedClass) {
        assert!(
            (u as usize) < self.positions.len() && (v as usize) < self.positions.len(),
            "edge endpoint out of range"
        );
        if u == v {
            return;
        }
        self.edges.push((u.min(v), u.max(v), class));
    }

    /// Number of nodes added so far.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Finalises the CSR graph. Edges are sorted and deduplicated by
    /// `(u, v)` (keeping the first-added class), so the result does not
    /// depend on insertion order beyond that tie rule.
    pub fn build(mut self) -> RoadGraph {
        // Stable sort keeps the first-added class for duplicate edges.
        self.edges.sort_by_key(|&(u, v, _)| (u, v));
        self.edges.dedup_by_key(|&mut (u, v, _)| (u, v));

        let n = self.positions.len();
        let mut degree = vec![0u32; n];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let arc_count = acc as usize;
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; arc_count];
        let mut costs = vec![0.0f64; arc_count];
        let mut classes = vec![SpeedClass::Street; arc_count];
        for &(u, v, class) in &self.edges {
            let cost = self.positions[u as usize].distance(&self.positions[v as usize])
                * class.cost_factor();
            for (src, dst) in [(u, v), (v, u)] {
                let slot = cursor[src as usize] as usize;
                cursor[src as usize] += 1;
                targets[slot] = dst;
                costs[slot] = cost;
                classes[slot] = class;
            }
        }
        // Per-source arcs arrive in (u, v)-sorted edge order; for the
        // reverse arcs of a source they are also target-sorted because the
        // edge list is sorted by (min, max). Sort each bucket to make the
        // invariant unconditional.
        for u in 0..n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            let mut bucket: Vec<(u32, f64, SpeedClass)> = (lo..hi)
                .map(|i| (targets[i], costs[i], classes[i]))
                .collect();
            bucket.sort_by_key(|&(t, _, _)| t);
            for (i, (t, c, cl)) in bucket.into_iter().enumerate() {
                targets[lo + i] = t;
                costs[lo + i] = c;
                classes[lo + i] = cl;
            }
        }
        RoadGraph {
            positions: self.positions,
            offsets,
            targets,
            costs,
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_graph() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let d = b.add_node(Point::new(10.0, 10.0));
        let e = b.add_node(Point::new(0.0, 10.0));
        b.add_edge(a, c, SpeedClass::Highway);
        b.add_edge(c, d, SpeedClass::Avenue);
        b.add_edge(d, e, SpeedClass::Street);
        b.add_edge(e, a, SpeedClass::Highway);
        b.build()
    }

    #[test]
    fn csr_layout_round_trips_edges() {
        let g = square_graph();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        let n0: Vec<(u32, f64)> = g.neighbors(0).collect();
        assert_eq!(n0.len(), 2);
        assert_eq!(n0[0].0, 1);
        assert_eq!(n0[1].0, 3);
        assert!((n0[0].1 - 10.0).abs() < 1e-12, "highway cost = length");
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|&(u, v, _)| u < v));
        assert!((g.total_length_m() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn speed_classes_scale_costs_and_stay_admissible() {
        let g = square_graph();
        // Avenue edge 1→2: length 10, factor 1.3.
        let cost = g.neighbors(1).find(|&(t, _)| t == 2).unwrap().1;
        assert!((cost - 13.0).abs() < 1e-12);
        for class in SpeedClass::ALL {
            assert!(class.cost_factor() >= 1.0, "{class:?} must be >= 1");
        }
    }

    #[test]
    fn duplicate_edges_and_self_loops_are_dropped() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(5.0, 0.0));
        b.add_edge(a, c, SpeedClass::Highway);
        b.add_edge(c, a, SpeedClass::Street); // duplicate, other direction
        b.add_edge(a, a, SpeedClass::Avenue); // self-loop
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        // First-added class wins.
        assert_eq!(g.edges().next().unwrap().2, SpeedClass::Highway);
    }

    #[test]
    fn build_is_insertion_order_independent() {
        let build = |order: &[(u32, u32)]| {
            let mut b = RoadGraphBuilder::new();
            for i in 0..4 {
                b.add_node(Point::new(i as f64 * 10.0, 0.0));
            }
            for &(u, v) in order {
                b.add_edge(u, v, SpeedClass::Avenue);
            }
            b.build()
        };
        let a = build(&[(0, 1), (1, 2), (2, 3)]);
        let b = build(&[(2, 3), (1, 0), (2, 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_is_consistent() {
        let g = RoadGraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.total_length_m(), 0.0);
    }
}
