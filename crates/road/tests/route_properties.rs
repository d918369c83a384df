//! Property tests of the road routing stack (satellite of the road-metric
//! PR): on randomly generated connected graphs,
//!
//! * A* (Euclidean heuristic) and ALT A* report exactly the same path
//!   costs as plain Dijkstra;
//! * ALT lower bounds never exceed the true shortest-path distance;
//! * generated graphs are connected after deletions — the generator either
//!   keeps every node or restricts to (and reports) the component used;
//! * the integer [`frontier_key`] orders search entries exactly as the
//!   float comparator it replaced, and every search returns the same
//!   route, cost bits and settled count as a search ordered by that
//!   comparator.

use mule_geom::{BoundingBox, Point};
use mule_road::{astar, astar_alt, dijkstra, dijkstra_counted, dijkstra_to, Landmarks};
use mule_road::{frontier_key, Route};
use mule_road::{grid_with_deletions, random_planar, RoadGraph, RoadGraphBuilder, RoadNet};
use mule_road::SpeedClass;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A search heap entry ordered by the float comparator the road searches
/// used before [`frontier_key`]: `(priority, node)` under `total_cmp`.
#[derive(Clone, Copy)]
struct FloatEntry {
    priority: f64,
    cost: f64,
    node: u32,
}

fn float_order(a: (f64, u32), b: (f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

impl PartialEq for FloatEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for FloatEntry {}
impl PartialOrd for FloatEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        float_order((other.priority, other.node), (self.priority, self.node))
    }
}

/// The best-first search of `mule_road::route`, step for step, on the
/// float-ordered heap. `dst = None` runs to exhaustion (one-to-all).
fn float_search<H: Fn(u32) -> f64>(
    g: &RoadGraph,
    src: u32,
    dst: Option<u32>,
    heuristic: H,
) -> (Vec<f64>, Option<Route>, usize) {
    let mut dist = vec![f64::INFINITY; g.len()];
    let mut parent = vec![u32::MAX; g.len()];
    let mut settled = 0;
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(FloatEntry {
        priority: heuristic(src),
        cost: 0.0,
        node: src,
    });
    while let Some(entry) = heap.pop() {
        if entry.cost > dist[entry.node as usize] {
            continue;
        }
        settled += 1;
        if Some(entry.node) == dst {
            let mut nodes = vec![entry.node];
            while *nodes.last().unwrap() != src {
                nodes.push(parent[*nodes.last().unwrap() as usize]);
            }
            nodes.reverse();
            let route = Route {
                cost: entry.cost,
                nodes,
                settled,
            };
            return (dist, Some(route), settled);
        }
        for (next, arc_cost) in g.neighbors(entry.node) {
            let cand = entry.cost + arc_cost;
            if cand < dist[next as usize] {
                dist[next as usize] = cand;
                parent[next as usize] = entry.node;
                heap.push(FloatEntry {
                    priority: cand + heuristic(next),
                    cost: cand,
                    node: next,
                });
            }
        }
    }
    (dist, None, settled)
}

/// An exact `nx × ny` lattice with 10 m spacing and every street of one
/// class: corner-to-corner queries have many equal-cost paths, so the
/// node tie-break decides most pops.
fn lattice(nx: u32, ny: u32) -> RoadGraph {
    let mut b = RoadGraphBuilder::new();
    for y in 0..ny {
        for x in 0..nx {
            b.add_node(Point::new(f64::from(x) * 10.0, f64::from(y) * 10.0));
        }
    }
    for y in 0..ny {
        for x in 0..nx {
            let id = y * nx + x;
            if x + 1 < nx {
                b.add_edge(id, id + 1, SpeedClass::Street);
            }
            if y + 1 < ny {
                b.add_edge(id, id + nx, SpeedClass::Street);
            }
        }
    }
    b.build()
}

/// Exact equality of two routes, cost bits included.
fn same_route(a: &Route, b: &Route) -> bool {
    a.cost.to_bits() == b.cost.to_bits() && a.nodes == b.nodes && a.settled == b.settled
}

/// Every search flavour against its float-ordered twin, on `queries`.
fn check_against_float_search(g: &RoadGraph, queries: &[(u32, u32)]) -> Result<(), TestCaseError> {
    let lm = Landmarks::select(g, 3);
    for &(s, t) in queries {
        let (dist, _, settled) = float_search(g, s, None, |_| 0.0);
        let (got, got_settled) = dijkstra_counted(g, s);
        prop_assert_eq!(got_settled, settled);
        prop_assert!(got.iter().zip(&dist).all(|(a, b)| a.to_bits() == b.to_bits()));
        let goal = g.position(t);
        let euclid = |v: u32| g.position(v).distance(&goal);
        let alt = |v: u32| lm.lower_bound(v, t).max(g.position(v).distance(&goal));
        let pairs = [
            (dijkstra_to(g, s, t), float_search(g, s, Some(t), |_| 0.0).1),
            (astar(g, s, t), float_search(g, s, Some(t), euclid).1),
            (astar_alt(g, &lm, s, t), float_search(g, s, Some(t), alt).1),
        ];
        for (got, want) in pairs {
            let (got, want) = (got.expect("connected"), want.expect("connected"));
            prop_assert!(same_route(&got, &want), "{}->{}: {:?} vs {:?}", s, t, got, want);
        }
    }
    Ok(())
}

#[test]
fn frontier_keys_order_like_the_float_comparator() {
    let priorities = [
        f64::NEG_INFINITY,
        -1.0,
        -5e-324,
        -0.0,
        0.0,
        5e-324,
        1.1e-308,
        1.0,
        1.000_000_000_000_000_2,
        64.0,
        1.0e300,
        f64::INFINITY,
    ];
    let nodes = [0, 1, 7, u32::MAX];
    let entries: Vec<(f64, u32)> = priorities
        .iter()
        .flat_map(|&p| nodes.iter().map(move |&n| (p, n)))
        .collect();
    for &a in &entries {
        for &b in &entries {
            assert_eq!(
                frontier_key(a.0, a.1).cmp(&frontier_key(b.0, b.1)),
                float_order(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }
    // The hazard raw bits would have: `-0.0` sorts before every positive
    // priority, not after.
    assert!(frontier_key(-0.0, 9) < frontier_key(5e-324, 0));
}

#[test]
fn searches_on_a_tie_heavy_lattice_match_the_float_ordered_search() {
    let g = lattice(7, 6);
    let n = g.len() as u32;
    let queries: Vec<(u32, u32)> = (0..n).step_by(5).map(|s| (s, (s * 17 + 11) % n)).collect();
    check_against_float_search(&g, &queries).unwrap();
}

/// Deterministic query pairs spread over the node range.
fn query_pairs(n: usize, count: usize) -> Vec<(u32, u32)> {
    (0..count)
        .map(|q| {
            let s = (q * 7919) % n;
            let t = (q * 104_729 + n / 2) % n;
            (s as u32, t as u32)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn astar_and_alt_match_dijkstra_costs_on_random_grids(
        seed in 0u64..1_000_000,
        nx in 4usize..10,
        ny in 4usize..10,
        frac in 0.0..0.35f64,
    ) {
        let net = grid_with_deletions(&BoundingBox::square(800.0), nx, ny, frac, seed);
        let g = &net.graph;
        prop_assume!(g.len() >= 2);
        let lm = Landmarks::select(g, 4);
        for (s, t) in query_pairs(g.len(), 12) {
            let d = dijkstra_to(g, s, t);
            let a = astar(g, s, t);
            let alt = astar_alt(g, &lm, s, t);
            // The kept component is connected, so every query resolves.
            let d = d.expect("connected graph");
            let a = a.expect("connected graph");
            let alt = alt.expect("connected graph");
            prop_assert!((d.cost - a.cost).abs() < 1e-9,
                "A* cost {} != Dijkstra cost {} for {}->{}", a.cost, d.cost, s, t);
            prop_assert!((d.cost - alt.cost).abs() < 1e-9,
                "ALT cost {} != Dijkstra cost {} for {}->{}", alt.cost, d.cost, s, t);
            // Paths re-cost to their reported cost (validity of the
            // returned node sequences, not just the scalar).
            for r in [&a, &alt] {
                let mut acc = 0.0;
                for w in r.nodes.windows(2) {
                    let arc = g.neighbors(w[0]).find(|&(v, _)| v == w[1]);
                    prop_assert!(arc.is_some(), "path hop {}->{} not an arc", w[0], w[1]);
                    acc += arc.unwrap().1;
                }
                prop_assert!((acc - r.cost).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn astar_matches_dijkstra_on_random_planar_graphs(
        seed in 0u64..1_000_000,
        nodes in 10usize..60,
    ) {
        let net = random_planar(&BoundingBox::square(800.0), nodes, 3, seed);
        let g = &net.graph;
        prop_assume!(g.len() >= 2);
        let lm = Landmarks::select(g, 3);
        for (s, t) in query_pairs(g.len(), 8) {
            let d = dijkstra_to(g, s, t).expect("connected graph");
            let a = astar(g, s, t).expect("connected graph");
            let alt = astar_alt(g, &lm, s, t).expect("connected graph");
            prop_assert!((d.cost - a.cost).abs() < 1e-9);
            prop_assert!((d.cost - alt.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn alt_lower_bounds_never_exceed_true_distances(
        seed in 0u64..1_000_000,
        nx in 4usize..9,
        ny in 4usize..9,
        frac in 0.0..0.45f64,
        landmark_count in 1usize..6,
    ) {
        let net = grid_with_deletions(&BoundingBox::square(800.0), nx, ny, frac, seed);
        let g = &net.graph;
        prop_assume!(g.len() >= 2);
        let lm = Landmarks::select(g, landmark_count);
        for (s, t) in query_pairs(g.len(), 10) {
            let exact = dijkstra_to(g, s, t).expect("connected graph").cost;
            let bound = lm.lower_bound(s, t);
            prop_assert!(
                bound <= exact + 1e-9,
                "ALT bound {bound} exceeds true distance {exact} for {s}->{t}"
            );
            // The Euclidean bound the A* heuristic adds is admissible too.
            let straight = g.position(s).distance(&g.position(t));
            prop_assert!(straight <= exact + 1e-9);
        }
    }

    #[test]
    fn generated_graphs_are_connected_after_deletions(
        seed in 0u64..1_000_000,
        nx in 3usize..12,
        ny in 3usize..12,
        frac in 0.0..0.6f64,
    ) {
        let check = |net: &RoadNet| -> Result<(), TestCaseError> {
            let g = &net.graph;
            prop_assert_eq!(g.len(), net.component.kept_nodes);
            prop_assert_eq!(
                net.component.total_nodes,
                net.component.kept_nodes + net.component.dropped_nodes
            );
            // Either nothing was dropped, or the restriction reported the
            // component it kept (more than one raw component).
            if net.component.dropped_nodes > 0 {
                prop_assert!(net.component.component_count > 1);
            }
            if !g.is_empty() {
                let dist = dijkstra(g, 0);
                prop_assert!(
                    dist.iter().all(|d| d.is_finite()),
                    "kept component must be fully routable"
                );
            }
            Ok(())
        };
        check(&grid_with_deletions(&BoundingBox::square(800.0), nx, ny, frac, seed))?;
        check(&random_planar(&BoundingBox::square(800.0), nx * ny, 3, seed))?;
    }

    #[test]
    fn searches_match_the_float_ordered_search_on_random_graphs(
        seed in 0u64..1_000_000,
        nx in 3usize..9,
        frac in 0.0..0.35f64,
    ) {
        let grid = grid_with_deletions(&BoundingBox::square(800.0), nx, nx, frac, seed);
        let planar = random_planar(&BoundingBox::square(800.0), nx * nx, 3, seed);
        for g in [&grid.graph, &planar.graph] {
            prop_assume!(g.len() >= 2);
            check_against_float_search(g, &query_pairs(g.len(), 6))?;
        }
    }
}
