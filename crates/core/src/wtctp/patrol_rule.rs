//! The counter-clockwise patrolling rule (paper §3.2).
//!
//! A weighted patrolling path is a multigraph in which every VIP of weight
//! `w` has degree `2w`. When a mule arrives at such a junction it must know
//! which of the outgoing edges to take, and *all* mules must make the same
//! choice or their visiting intervals diverge. The paper's rule:
//!
//! > When a DM arrives at a VIP `g_i` from target `g_j`, it selects a target
//! > `g_k` which has minimal included angle with the former route `g_j` to
//! > `g_i` in the counter-clockwise direction, as its next visiting target.
//!
//! [`next_by_rule`] implements that choice; [`order_walk_by_rule`] applies
//! it edge-by-edge to rebuild the full traversal order of a WPP from its
//! edge multiset, which is how every mule derives the same canonical walk.

use mule_geom::{ccw_included_angle, Point};

/// Selects, among `candidates` (indices into `positions`), the next target
/// according to the counter-clockwise patrolling rule, given that the mule
/// arrived at `at` coming from `from`. Returns the index *within
/// `candidates`* of the chosen target, or `None` when `candidates` is empty.
///
/// Ties (identical angles, e.g. duplicated points) are broken by the
/// smaller node index so the rule stays deterministic.
pub fn next_by_rule(
    positions: &[Point],
    from: usize,
    at: usize,
    candidates: &[usize],
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for (slot, &cand) in candidates.iter().enumerate() {
        // Undefined angles (coincident points) sort last but remain
        // selectable so the traversal never gets stuck on degenerate input.
        let angle = ccw_included_angle(&positions[from], &positions[at], &positions[cand])
            .unwrap_or(f64::INFINITY);
        let better = match best {
            None => true,
            Some((best_slot, best_angle)) => {
                angle < best_angle - 1e-12
                    || ((angle - best_angle).abs() <= 1e-12
                        && candidates[slot] < candidates[best_slot])
            }
        };
        if better {
            best = Some((slot, angle));
        }
    }
    best.map(|(slot, _)| slot)
}

/// Rebuilds the canonical traversal order of a WPP walk by repeatedly
/// applying the patrolling rule to its edge multiset.
///
/// The walk's edges form a connected multigraph in which every vertex has
/// even degree, so an Eulerian circuit exists; the rule chooses which edge
/// to follow at every junction. If the greedy rule closes a sub-circuit
/// before consuming every edge (possible for geometrically degenerate
/// inputs), the function falls back to returning `walk` unchanged — the
/// visit-count invariants are identical either way.
pub fn order_walk_by_rule(walk: &[usize], positions: &[Point]) -> Vec<usize> {
    let n = walk.len();
    if n < 3 {
        return walk.to_vec();
    }

    // Edge multiset as adjacency lists of (neighbour, edge id), stored
    // flat: node `v`'s list is `adjacency[offsets[v]..offsets[v + 1]]`, in
    // edge order.
    let nodes = positions.len();
    let mut offsets = vec![0usize; nodes + 1];
    for i in 0..n {
        offsets[walk[i] + 1] += 1;
        offsets[walk[(i + 1) % n] + 1] += 1;
    }
    for v in 0..nodes {
        offsets[v + 1] += offsets[v];
    }
    let mut filled = offsets.clone();
    let mut adjacency = vec![(0usize, 0usize); 2 * n];
    for i in 0..n {
        let a = walk[i];
        let b = walk[(i + 1) % n];
        adjacency[filled[a]] = (b, i);
        filled[a] += 1;
        adjacency[filled[b]] = (a, i);
        filled[b] += 1;
    }

    let mut used = vec![false; n];
    let start = walk[0];
    let second = walk[1];
    // Consume the first edge explicitly so the rule has an incoming
    // direction to measure angles against.
    used[0] = true;
    let mut order = Vec::with_capacity(n);
    order.extend([start, second]);
    let mut from = start;
    let mut at = second;
    let mut available: Vec<(usize, usize)> = Vec::new();
    let mut candidate_nodes: Vec<usize> = Vec::new();

    for _ in 2..n {
        available.clear();
        available.extend(
            adjacency[offsets[at]..offsets[at + 1]]
                .iter()
                .filter(|&&(_, edge)| !used[edge]),
        );
        candidate_nodes.clear();
        candidate_nodes.extend(available.iter().map(|&(nb, _)| nb));
        let Some(slot) = next_by_rule(positions, from, at, &candidate_nodes) else {
            // Stuck before consuming every edge: fall back to the original.
            return walk.to_vec();
        };
        let (next_node, edge) = available[slot];
        used[edge] = true;
        order.push(next_node);
        from = at;
        at = next_node;
    }

    // The last edge must close the circuit back to the start; if it does
    // not, the greedy traversal painted itself into a corner.
    let mut unused = (0..n).filter(|&e| !used[e]);
    let closes = match (unused.next(), unused.next()) {
        (Some(e), None) => {
            let a = walk[e];
            let b = walk[(e + 1) % n];
            (a == at && b == start) || (b == at && a == start)
        }
        _ => false,
    };
    if closes && order.len() == n {
        // Drop nothing: `order` already lists n vertices; the closing edge
        // back to `start` is implicit in the cyclic representation.
        order
    } else {
        walk.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The geometry of the paper's Fig. 5: a mule moving from g5 to the VIP
    /// g4 must pick g3 (smallest CCW included angle), and one moving from
    /// g9 to g4 must pick g8.
    #[test]
    fn figure_5_choice_pattern() {
        // Index layout: 0=g4 (VIP at origin), 1=g3, 2=g5, 3=g8, 4=g9.
        // g5 approaches from the east, g3 leaves to the north-east,
        // g9 approaches from the west, g8 leaves to the south-west.
        let positions = vec![
            Point::new(0.0, 0.0),     // g4
            Point::new(30.0, 40.0),   // g3 (north-east of g4)
            Point::new(60.0, 0.0),    // g5 (east)
            Point::new(-30.0, -40.0), // g8 (south-west)
            Point::new(-60.0, 0.0),   // g9 (west)
        ];
        // Arriving from g5 (index 2) at g4, candidates g3 and g8.
        let slot = next_by_rule(&positions, 2, 0, &[1, 3]).unwrap();
        assert_eq!(slot, 0, "from g5 the rule picks g3");
        // Arriving from g9 (index 4) at g4, candidates g3 and g8.
        let slot = next_by_rule(&positions, 4, 0, &[1, 3]).unwrap();
        assert_eq!(slot, 1, "from g9 the rule picks g8");
    }

    #[test]
    fn empty_candidates_return_none_and_ties_break_by_index() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(-10.0, 0.0),
        ];
        assert!(next_by_rule(&positions, 3, 0, &[]).is_none());
        // Candidates 1 and 2 are geometrically identical: pick index 1.
        let slot = next_by_rule(&positions, 3, 0, &[2, 1]).unwrap();
        assert_eq!([2, 1][slot], 1);
    }

    #[test]
    fn ordering_a_plain_circuit_preserves_its_vertex_multiset() {
        let positions: Vec<Point> = (0..8)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / 8.0;
                Point::new(100.0 * t.cos(), 100.0 * t.sin())
            })
            .collect();
        let walk: Vec<usize> = (0..8).collect();
        let ordered = order_walk_by_rule(&walk, &positions);
        assert_eq!(ordered.len(), walk.len());
        let mut a = ordered.clone();
        let mut b = walk.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(ordered[0], 0, "traversal starts at the walk's anchor");
    }

    #[test]
    fn ordering_a_weighted_walk_preserves_visit_counts() {
        // Ring of 6 targets with target 0 duplicated (weight 2) by inserting
        // it into the far edge (between 3 and 4).
        let positions: Vec<Point> = (0..6)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / 6.0;
                Point::new(200.0 * t.cos(), 200.0 * t.sin())
            })
            .collect();
        let walk = vec![0, 1, 2, 3, 0, 4, 5];
        let ordered = order_walk_by_rule(&walk, &positions);
        assert_eq!(ordered.len(), walk.len());
        for node in 0..6 {
            let expected = walk.iter().filter(|&&x| x == node).count();
            let got = ordered.iter().filter(|&&x| x == node).count();
            assert_eq!(got, expected, "node {node}");
        }
        // The edge multiset is preserved too (undirected).
        let edge_set = |w: &[usize]| {
            let mut edges: Vec<(usize, usize)> = (0..w.len())
                .map(|i| {
                    let a = w[i];
                    let b = w[(i + 1) % w.len()];
                    (a.min(b), a.max(b))
                })
                .collect();
            edges.sort_unstable();
            edges
        };
        assert_eq!(edge_set(&ordered), edge_set(&walk));
    }

    #[test]
    fn tiny_walks_are_returned_unchanged() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        assert_eq!(order_walk_by_rule(&[0, 1], &positions), vec![0, 1]);
        assert_eq!(order_walk_by_rule(&[], &positions), Vec::<usize>::new());
    }
}
