//! Seeded road-network generators.
//!
//! Two families, both pure functions of `(bounds, parameters, seed)`:
//!
//! * [`grid_with_deletions`] — a jittered city grid with a seeded fraction
//!   of edges deleted (closed blocks), the classic street-network stand-in;
//! * [`random_planar`] — uniformly random intersections joined by
//!   k-nearest-neighbour candidate edges, greedily accepted shortest-first
//!   with a crossing filter so the result stays planar (country-road
//!   style).
//!
//! Deletions (and sparse k-NN connectivity) can disconnect the graph, so
//! every generator restricts the result to its **largest connected
//! component** and reports what was dropped in a [`ComponentReport`] —
//! callers never see an unroutable node, and the report makes the
//! restriction auditable instead of silent.

use crate::graph::{RoadGraph, RoadGraphBuilder, SpeedClass};
use mule_geom::{BoundingBox, KdTree, Point};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Which generator family a road network comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoadNetKind {
    /// Jittered grid with deleted edges ([`grid_with_deletions`]).
    #[default]
    Grid,
    /// Random planar k-NN network ([`random_planar`]).
    Planar,
}

impl RoadNetKind {
    /// Short label used in reports and canonical spec strings.
    pub fn label(&self) -> &'static str {
        match self {
            RoadNetKind::Grid => "grid",
            RoadNetKind::Planar => "planar",
        }
    }
}

/// What the largest-component restriction kept and dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentReport {
    /// Nodes generated before the restriction.
    pub total_nodes: usize,
    /// Nodes in the kept (largest) component.
    pub kept_nodes: usize,
    /// Nodes dropped with the smaller components.
    pub dropped_nodes: usize,
    /// How many connected components the raw graph had.
    pub component_count: usize,
}

/// A generated road network: the routable graph plus the restriction
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadNet {
    /// The (connected) road graph.
    pub graph: RoadGraph,
    /// What the largest-component restriction did.
    pub component: ComponentReport,
}

/// Draws a speed class: 1/10 highway, 3/10 avenue, 6/10 street.
fn draw_class(rng: &mut StdRng) -> SpeedClass {
    match rng.next_u64() % 10 {
        0 => SpeedClass::Highway,
        1..=3 => SpeedClass::Avenue,
        _ => SpeedClass::Street,
    }
}

/// A jittered `nx × ny` grid over `bounds` with `delete_fraction` of the
/// edges removed at random. `nx`/`ny` are clamped to ≥ 2 and the fraction
/// to `[0, 0.9]` (deleting everything would leave nothing to patrol).
pub fn grid_with_deletions(
    bounds: &BoundingBox,
    nx: usize,
    ny: usize,
    delete_fraction: f64,
    seed: u64,
) -> RoadNet {
    let nx = nx.max(2);
    let ny = ny.max(2);
    let delete_fraction = delete_fraction.clamp(0.0, 0.9);
    let mut rng = StdRng::seed_from_u64(seed);

    let step_x = bounds.width() / (nx - 1) as f64;
    let step_y = bounds.height() / (ny - 1) as f64;
    let jitter = 0.18 * step_x.min(step_y);

    let mut builder = RoadGraphBuilder::new();
    for j in 0..ny {
        for i in 0..nx {
            let p = Point::new(
                bounds.min_x + i as f64 * step_x + rng.random_range(-jitter..=jitter),
                bounds.min_y + j as f64 * step_y + rng.random_range(-jitter..=jitter),
            );
            builder.add_node(bounds.clamp(&p));
        }
    }
    for j in 0..ny as u32 {
        for i in 0..nx as u32 {
            let id = j * nx as u32 + i;
            if i + 1 < nx as u32 && rng.random_f64() >= delete_fraction {
                builder.add_edge(id, id + 1, draw_class(&mut rng));
            }
            if j + 1 < ny as u32 && rng.random_f64() >= delete_fraction {
                builder.add_edge(id, id + nx as u32, draw_class(&mut rng));
            }
        }
    }
    restrict_to_largest_component(builder.build())
}

/// Returns `true` when segments `a1‒a2` and `b1‒b2` properly cross
/// (intersect at an interior point of both). Shared endpoints do not
/// count — adjacent road edges always meet at intersections.
fn segments_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> bool {
    const EPS: f64 = 1e-12;
    let shares_endpoint = |p: Point, q: Point| (p.x - q.x).abs() < EPS && (p.y - q.y).abs() < EPS;
    if shares_endpoint(a1, b1)
        || shares_endpoint(a1, b2)
        || shares_endpoint(a2, b1)
        || shares_endpoint(a2, b2)
    {
        return false;
    }
    let cross =
        |o: Point, p: Point, q: Point| (p.x - o.x) * (q.y - o.y) - (p.y - o.y) * (q.x - o.x);
    let d1 = cross(b1, b2, a1);
    let d2 = cross(b1, b2, a2);
    let d3 = cross(a1, a2, b1);
    let d4 = cross(a1, a2, b2);
    ((d1 > EPS && d2 < -EPS) || (d1 < -EPS && d2 > EPS))
        && ((d3 > EPS && d4 < -EPS) || (d3 < -EPS && d4 > EPS))
}

/// `node_count` random intersections joined by k-nearest-neighbour
/// candidate edges, accepted shortest-first when they cross no
/// already-accepted edge. `k` is clamped to ≥ 2 so the graph has a chance
/// to connect.
pub fn random_planar(bounds: &BoundingBox, node_count: usize, k: usize, seed: u64) -> RoadNet {
    let k = k.max(2);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut builder = RoadGraphBuilder::new();
    let mut positions = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let p = Point::new(
            rng.random_range(bounds.min_x..=bounds.max_x),
            rng.random_range(bounds.min_y..=bounds.max_y),
        );
        positions.push(p);
        builder.add_node(p);
    }
    if node_count >= 2 {
        let tree = KdTree::build(&positions);
        // Unique candidate pairs, shortest first (ties by ids) so greedy
        // acceptance is deterministic and prefers short local roads.
        let mut candidates: Vec<(u32, u32, f64)> = Vec::new();
        for (i, p) in positions.iter().enumerate() {
            for (j, d) in tree.k_nearest(p, k + 1) {
                if j != i {
                    let (a, b) = (i.min(j) as u32, i.max(j) as u32);
                    candidates.push((a, b, d));
                }
            }
        }
        candidates.sort_by(|x, y| x.2.total_cmp(&y.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        candidates.dedup_by_key(|&mut (a, b, _)| (a, b));

        // Bucket accepted edges by midpoint on a grid whose cell is the
        // longest candidate: two crossing edges have midpoints within one
        // cell of each other, so checking the 3 × 3 neighbourhood suffices.
        let cell = candidates
            .iter()
            .map(|c| c.2)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let key = |p: Point| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let mut buckets: std::collections::HashMap<(i64, i64), Vec<(u32, u32)>> =
            std::collections::HashMap::new();
        for (a, b, _) in candidates {
            let (pa, pb) = (positions[a as usize], positions[b as usize]);
            let mid = Point::new((pa.x + pb.x) / 2.0, (pa.y + pb.y) / 2.0);
            let (cx, cy) = key(mid);
            let mut crosses = false;
            'scan: for dx in -1..=1 {
                for dy in -1..=1 {
                    if let Some(edges) = buckets.get(&(cx + dx, cy + dy)) {
                        for &(u, v) in edges {
                            if segments_cross(pa, pb, positions[u as usize], positions[v as usize])
                            {
                                crosses = true;
                                break 'scan;
                            }
                        }
                    }
                }
            }
            if !crosses {
                builder.add_edge(a, b, draw_class(&mut rng));
                buckets.entry((cx, cy)).or_default().push((a, b));
            }
        }
    }
    restrict_to_largest_component(builder.build())
}

/// Keeps only the largest connected component (ties broken towards the
/// component containing the smallest node id), renumbering nodes in their
/// original order, and reports the restriction.
pub fn restrict_to_largest_component(graph: RoadGraph) -> RoadNet {
    let n = graph.len();
    if n == 0 {
        return RoadNet {
            graph,
            component: ComponentReport {
                total_nodes: 0,
                kept_nodes: 0,
                dropped_nodes: 0,
                component_count: 0,
            },
        };
    }
    // Union-find over the arcs.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for u in 0..n as u32 {
        for (v, _) in graph.neighbors(u) {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                parent[ru.max(rv) as usize] = ru.min(rv);
            }
        }
    }
    let mut sizes: std::collections::BTreeMap<u32, usize> = Default::default();
    for u in 0..n as u32 {
        *sizes.entry(find(&mut parent, u)).or_insert(0) += 1;
    }
    let component_count = sizes.len();
    // Largest component; BTreeMap iteration makes the tie-break (smallest
    // root) deterministic.
    let (&best_root, &kept_nodes) = sizes
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .expect("n > 0");

    if kept_nodes == n {
        return RoadNet {
            graph,
            component: ComponentReport {
                total_nodes: n,
                kept_nodes: n,
                dropped_nodes: 0,
                component_count,
            },
        };
    }

    let mut remap = vec![u32::MAX; n];
    let mut builder = RoadGraphBuilder::new();
    for u in 0..n as u32 {
        if find(&mut parent, u) == best_root {
            remap[u as usize] = builder.add_node(graph.position(u));
        }
    }
    for (u, v, class) in graph.edges() {
        let (nu, nv) = (remap[u as usize], remap[v as usize]);
        if nu != u32::MAX && nv != u32::MAX {
            builder.add_edge(nu, nv, class);
        }
    }
    RoadNet {
        graph: builder.build(),
        component: ComponentReport {
            total_nodes: n,
            kept_nodes,
            dropped_nodes: n - kept_nodes,
            component_count,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::dijkstra;

    fn bounds() -> BoundingBox {
        BoundingBox::square(800.0)
    }

    /// The kept graph must be one connected component.
    fn assert_connected(graph: &RoadGraph) {
        if graph.is_empty() {
            return;
        }
        let dist = dijkstra(graph, 0);
        assert!(
            dist.iter().all(|d| d.is_finite()),
            "graph must be connected after restriction"
        );
    }

    #[test]
    fn grid_generator_is_seed_deterministic_and_connected() {
        let a = grid_with_deletions(&bounds(), 10, 10, 0.2, 7);
        let b = grid_with_deletions(&bounds(), 10, 10, 0.2, 7);
        let c = grid_with_deletions(&bounds(), 10, 10, 0.2, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_connected(&a.graph);
        assert_eq!(a.component.kept_nodes, a.graph.len());
        assert_eq!(
            a.component.total_nodes,
            a.component.kept_nodes + a.component.dropped_nodes
        );
        assert!(a.graph.len() <= 100);
        assert!(a.graph.len() > 50, "most of a 10x10 grid survives 20% loss");
    }

    #[test]
    fn zero_deletion_grid_keeps_every_node_and_edge() {
        let net = grid_with_deletions(&bounds(), 5, 4, 0.0, 3);
        assert_eq!(net.graph.len(), 20);
        assert_eq!(net.component.dropped_nodes, 0);
        assert_eq!(net.component.component_count, 1);
        // 4 * (5-1) horizontal + 5 * (4-1) vertical.
        assert_eq!(net.graph.edge_count(), 4 * 4 + 5 * 3);
        // All nodes inside bounds.
        let b = bounds();
        assert!(net.graph.positions().iter().all(|p| b.contains(p)));
    }

    #[test]
    fn heavy_deletions_shrink_to_the_reported_component() {
        let net = grid_with_deletions(&bounds(), 12, 12, 0.55, 11);
        assert_connected(&net.graph);
        assert!(
            net.component.component_count > 1,
            "55% loss fragments a grid"
        );
        assert_eq!(net.graph.len(), net.component.kept_nodes);
        assert!(net.component.dropped_nodes > 0);
    }

    #[test]
    fn planar_generator_is_deterministic_connected_and_crossing_free() {
        let net = random_planar(&bounds(), 120, 4, 5);
        assert_eq!(net, random_planar(&bounds(), 120, 4, 5));
        assert_connected(&net.graph);
        assert!(net.graph.edge_count() >= net.graph.len() - 1);
        // No two accepted edges properly cross.
        let edges: Vec<(Point, Point)> = net
            .graph
            .edges()
            .map(|(u, v, _)| (net.graph.position(u), net.graph.position(v)))
            .collect();
        for i in 0..edges.len() {
            for j in (i + 1)..edges.len() {
                assert!(
                    !segments_cross(edges[i].0, edges[i].1, edges[j].0, edges[j].1),
                    "edges {i} and {j} cross"
                );
            }
        }
    }

    #[test]
    fn degenerate_parameters_are_survivable() {
        let empty = random_planar(&bounds(), 0, 4, 1);
        assert!(empty.graph.is_empty());
        assert_eq!(empty.component.component_count, 0);
        let single = random_planar(&bounds(), 1, 4, 1);
        assert_eq!(single.graph.len(), 1);
        let tiny_grid = grid_with_deletions(&bounds(), 1, 1, 0.0, 1);
        assert_eq!(tiny_grid.graph.len(), 4, "dims clamp to 2x2");
        // Full deletion clamps to 0.9, so something always survives.
        let slashed = grid_with_deletions(&bounds(), 8, 8, 1.0, 2);
        assert!(!slashed.graph.is_empty());
        assert_connected(&slashed.graph);
    }

    #[test]
    fn segments_cross_detects_proper_crossings_only() {
        let p = |x: f64, y: f64| Point::new(x, y);
        assert!(segments_cross(
            p(0.0, 0.0),
            p(10.0, 10.0),
            p(0.0, 10.0),
            p(10.0, 0.0)
        ));
        // Shared endpoint: not a crossing.
        assert!(!segments_cross(
            p(0.0, 0.0),
            p(10.0, 10.0),
            p(0.0, 0.0),
            p(10.0, 0.0)
        ));
        // Parallel disjoint.
        assert!(!segments_cross(
            p(0.0, 0.0),
            p(10.0, 0.0),
            p(0.0, 5.0),
            p(10.0, 5.0)
        ));
        // Touching at an interior point of one segment but an endpoint of
        // the other (a T-junction): treated as non-crossing.
        assert!(!segments_cross(
            p(0.0, 0.0),
            p(10.0, 0.0),
            p(5.0, 0.0),
            p(5.0, 10.0)
        ));
    }
}
