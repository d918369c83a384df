//! Weighted Patrolling Path construction (paper §3.1).
//!
//! The WPP is represented as a closed *walk*: a cyclic sequence of node
//! indices in which a VIP of weight `w` appears exactly `w` times and every
//! NTP appears exactly once. Inserting an extra occurrence of VIP `k` into
//! the edge `(a, b)` of the walk is exactly the paper's cycle-creation step:
//! the break edge `a–b` is removed and the break points are reconnected to
//! `k`, so one more cycle intersects at `k`.

use crate::wtctp::BreakEdgePolicy;
use mule_geom::Point;

/// Builds the WPP walk.
///
/// * `base_walk` — the Hamiltonian circuit as a cyclic sequence of local
///   indices (each exactly once).
/// * `positions` — coordinates indexed by local index.
/// * `weights` — visiting weight per local index (≥ 1).
/// * `policy` — break-edge selection policy.
///
/// VIPs are processed in descending weight order, ties broken by local index
/// (paper §3.1 B assigns priority `p_i = w_i`). The returned walk contains
/// `w_i` occurrences of every index `i`.
pub fn build_wpp(
    base_walk: &[usize],
    positions: &[Point],
    weights: &[u32],
    policy: BreakEdgePolicy,
) -> Vec<usize> {
    if base_walk.len() < 3 {
        // With fewer than 3 waypoints there are no meaningful break edges;
        // just repeat VIPs in place so visit counts still hold.
        let mut out = Vec::new();
        for &i in base_walk {
            let w = weights.get(i).copied().unwrap_or(1).max(1);
            for _ in 0..w {
                out.push(i);
            }
        }
        return out;
    }

    // VIPs in descending weight order (priority p_i = w_i).
    let mut vips: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] >= 2).collect();
    vips.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));

    // Room for every copy up front, so neither the walk nor its segment
    // lengths grow while copies go in.
    let copies: usize = vips.iter().map(|&vip| weights[vip] as usize - 1).sum();
    let mut walk = Vec::with_capacity(base_walk.len() + copies);
    walk.extend_from_slice(base_walk);
    let mut arcs = WalkArcs::default();
    if policy == BreakEdgePolicy::BalancingLength {
        arcs.segments.reserve_exact(walk.capacity());
    }

    for vip in vips {
        let extra = weights[vip].max(1) - 1;
        // L_avg is fixed per VIP from the path length at the start of its
        // processing (paper: L_avg = |P̄| / w_i).
        let l_avg = walk_length(&walk, positions) / f64::from(weights[vip].max(1));
        for _ in 0..extra {
            let pos = match policy {
                BreakEdgePolicy::ShortestLength => best_edge_shortest(&walk, positions, vip),
                BreakEdgePolicy::BalancingLength => {
                    arcs.measure(&walk, positions, vip);
                    arcs.best_edge_balancing(&walk, positions, vip, l_avg)
                }
            };
            match pos {
                Some(edge_index) => walk.insert(edge_index + 1, vip),
                // No admissible break edge (every edge touches the VIP —
                // only possible for pathological 2-node walks): duplicate in
                // place to preserve the visit-count invariant.
                None => {
                    let at = walk.iter().position(|&x| x == vip).unwrap_or(0);
                    walk.insert(at, vip);
                }
            }
        }
    }
    walk
}

/// Total length of a closed walk.
pub fn walk_length(walk: &[usize], positions: &[Point]) -> f64 {
    if walk.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..walk.len() {
        let a = positions[walk[i]];
        let b = positions[walk[(i + 1) % walk.len()]];
        total += a.distance(&b);
    }
    total
}

/// Detour cost of inserting `vip` into the walk edge starting at `edge`
/// (i.e. between `walk[edge]` and `walk[edge + 1]`).
fn detour_cost(walk: &[usize], positions: &[Point], edge: usize, vip: usize) -> f64 {
    let n = walk.len();
    let a = positions[walk[edge]];
    let b = positions[walk[(edge + 1) % n]];
    let v = positions[vip];
    a.distance(&v) + v.distance(&b) - a.distance(&b)
}

/// Returns `true` when the walk edge starting at `edge` is incident to
/// `vip` (inserting there would create a zero-length cycle).
fn edge_touches(walk: &[usize], edge: usize, vip: usize) -> bool {
    let n = walk.len();
    walk[edge] == vip || walk[(edge + 1) % n] == vip
}

/// Shortest-Length policy (Exp. 1): the admissible edge with the smallest
/// detour cost.
fn best_edge_shortest(walk: &[usize], positions: &[Point], vip: usize) -> Option<usize> {
    let n = walk.len();
    let mut best: Option<(usize, f64)> = None;
    for edge in 0..n {
        if edge_touches(walk, edge, vip) {
            continue;
        }
        let cost = detour_cost(walk, positions, edge, vip);
        if best.map(|(_, b)| cost < b).unwrap_or(true) {
            best = Some((edge, cost));
        }
    }
    best.map(|(e, _)| e)
}

/// The walk as the Balancing-Length search reads it, measured once per
/// inserted copy: the length of every walk segment, where the VIP occurs,
/// and the length of each arc between consecutive occurrences (the cycles
/// through the VIP, Definition 2/4). The buffers keep their capacity from
/// one copy to the next.
#[derive(Debug, Default)]
struct WalkArcs {
    /// `segments[i]` is the length of the walk edge from `walk[i]` to
    /// `walk[i + 1]` (cyclically).
    segments: Vec<f64>,
    /// Walk positions of the VIP, ascending.
    occurrences: Vec<usize>,
    /// `arcs[k]` is the length from `occurrences[k]` to the next
    /// occurrence, wrapping: the whole walk when there is one occurrence.
    arcs: Vec<f64>,
}

impl WalkArcs {
    /// Measures `walk` for the VIP `vip`. Each arc is summed segment by
    /// segment from its first occurrence: the Balancing objective's floats
    /// depend on that order.
    fn measure(&mut self, walk: &[usize], positions: &[Point], vip: usize) {
        let n = walk.len();
        self.segments.clear();
        self.segments
            .extend((0..n).map(|i| positions[walk[i]].distance(&positions[walk[(i + 1) % n]])));
        self.occurrences.clear();
        self.occurrences.extend((0..n).filter(|&i| walk[i] == vip));
        self.arcs.clear();
        for (k, &start) in self.occurrences.iter().enumerate() {
            let end = self.occurrences[(k + 1) % self.occurrences.len()];
            let mut len = 0.0;
            let mut i = start;
            loop {
                len += self.segments[i];
                i = (i + 1) % n;
                if i == end {
                    break;
                }
            }
            self.arcs.push(len);
        }
    }

    /// Balancing-Length policy (Exp. 2): the admissible edge that minimises
    /// `Σ_f |len(C_f) − L_avg|` over the cycles the insertion would create,
    /// with the detour cost as tie-breaker. Reads the measurements of the
    /// current `walk`.
    fn best_edge_balancing(
        &self,
        walk: &[usize],
        positions: &[Point],
        vip: usize,
        l_avg: f64,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64, f64)> = None; // (edge, objective, detour)
        for (edge, objective) in self.objectives(walk, positions, vip, l_avg) {
            let detour = detour_cost(walk, positions, edge, vip);
            let better = match best {
                None => true,
                Some((_, obj, det)) => {
                    objective < obj - 1e-12 || ((objective - obj).abs() <= 1e-12 && detour < det)
                }
            };
            if better {
                best = Some((edge, objective, detour));
            }
        }
        best.map(|(e, _, _)| e)
    }

    /// Every admissible break edge in walk order, with the Balancing
    /// objective of inserting the VIP there.
    ///
    /// Inserting at an edge splits only the arc that holds it, so each
    /// candidate sums just that arc's two halves and folds the objective
    /// over the cycles in the order the inserted walk lists them; every
    /// other arc keeps its measured length. A VIP absent from the walk
    /// gets a single cycle, the whole inserted walk.
    fn objectives<'a>(
        &'a self,
        walk: &'a [usize],
        positions: &'a [Point],
        vip: usize,
        l_avg: f64,
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        let n = walk.len();
        let (occurrences, arcs, segments) = (&self.occurrences, &self.arcs, &self.segments);
        let m = occurrences.len();
        let deviation = move |len: f64| (len - l_avg).abs();
        // Length from the start of the arc holding `edge` to `walk[edge]`;
        // at edge 0 that arc is the one wrapping past the walk's end.
        let mut prefix = occurrences
            .last()
            .map_or(0.0, |&o| segments[o..].iter().fold(0.0, |len, s| len + s));
        (0..n).filter_map(move |edge| {
            if walk[edge] == vip {
                prefix = 0.0;
            }
            let head = prefix + positions[walk[edge]].distance(&positions[vip]);
            prefix += segments[edge];
            if edge_touches(walk, edge, vip) {
                return None;
            }
            // `split` occurrences lie at or before `edge`, so the copy
            // splits the arc from occurrence `split - 1` (the one wrapping
            // past the end when `split` is 0): `head` runs from that
            // occurrence to the copy, `tail` from the copy to the next
            // occurrence.
            let split = occurrences.partition_point(|&o| o <= edge);
            let next = (edge + 1) % n;
            let mut tail = if m == 0 { head } else { 0.0 };
            tail += positions[vip].distance(&positions[walk[next]]);
            let end = if m == 0 { 0 } else { occurrences[split % m] };
            let mut i = next;
            while i != end {
                tail += segments[i];
                i = (i + 1) % n;
            }
            let objective = if m == 0 {
                deviation(tail)
            } else if split == 0 {
                let mut objective = deviation(tail);
                for &len in &arcs[..m - 1] {
                    objective += deviation(len);
                }
                objective + deviation(head)
            } else {
                let mut objective = 0.0;
                for &len in &arcs[..split - 1] {
                    objective += deviation(len);
                }
                objective += deviation(head);
                objective += deviation(tail);
                for &len in &arcs[split..] {
                    objective += deviation(len);
                }
                objective
            };
            Some((edge, objective))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_geom::BoundingBox;
    use mule_graph::{construct_circuit, ChbConfig};
    use mule_road::{RoadIndex, RoadNetKind, TravelMetric};

    /// Lengths of the cycles intersecting at `vip`: the arc lengths of the
    /// walk between consecutive occurrences of `vip` (Definition 2/4). When
    /// `vip` occurs only once (or not at all) the single "cycle" is the
    /// whole walk.
    fn vip_cycle_lengths(walk: &[usize], positions: &[Point], vip: usize) -> Vec<f64> {
        let occurrences: Vec<usize> = walk
            .iter()
            .enumerate()
            .filter(|(_, &x)| x == vip)
            .map(|(i, _)| i)
            .collect();
        if occurrences.len() <= 1 {
            return vec![walk_length(walk, positions)];
        }
        let n = walk.len();
        let mut lengths = Vec::with_capacity(occurrences.len());
        for (k, &start) in occurrences.iter().enumerate() {
            let end = occurrences[(k + 1) % occurrences.len()];
            // Arc from `start` to `end` going forward (wrapping).
            let mut len = 0.0;
            let mut i = start;
            loop {
                let j = (i + 1) % n;
                len += positions[walk[i]].distance(&positions[walk[j]]);
                i = j;
                if i == end {
                    break;
                }
            }
            lengths.push(len);
        }
        lengths
    }

    /// The vector-copy search [`WalkArcs::best_edge_balancing`] replaced,
    /// kept as its oracle: every candidate edge copies the walk with the
    /// VIP inserted and re-walks every cycle through the VIP.
    fn best_edge_balancing_oracle(
        walk: &[usize],
        positions: &[Point],
        vip: usize,
        l_avg: f64,
    ) -> Option<usize> {
        let n = walk.len();
        let mut best: Option<(usize, f64, f64)> = None; // (edge, objective, detour)
        for edge in 0..n {
            if edge_touches(walk, edge, vip) {
                continue;
            }
            // Hypothetically insert and measure the balance objective.
            let mut candidate = Vec::with_capacity(n + 1);
            candidate.extend_from_slice(&walk[..=edge]);
            candidate.push(vip);
            candidate.extend_from_slice(&walk[edge + 1..]);
            let objective: f64 = vip_cycle_lengths(&candidate, positions, vip)
                .iter()
                .map(|len| (len - l_avg).abs())
                .sum();
            let detour = detour_cost(walk, positions, edge, vip);
            let better = match best {
                None => true,
                Some((_, obj, det)) => {
                    objective < obj - 1e-12 || ((objective - obj).abs() <= 1e-12 && detour < det)
                }
            };
            if better {
                best = Some((edge, objective, detour));
            }
        }
        best.map(|(e, _, _)| e)
    }

    /// The oracle's objective for every admissible edge, as bits: the walk
    /// copied with the VIP inserted, every cycle re-walked and the
    /// deviations summed.
    fn oracle_objectives(
        walk: &[usize],
        positions: &[Point],
        vip: usize,
        l_avg: f64,
    ) -> Vec<(usize, u64)> {
        (0..walk.len())
            .filter(|&edge| !edge_touches(walk, edge, vip))
            .map(|edge| {
                let mut candidate = walk.to_vec();
                candidate.insert(edge + 1, vip);
                let objective: f64 = vip_cycle_lengths(&candidate, positions, vip)
                    .iter()
                    .map(|len| (len - l_avg).abs())
                    .sum();
                (edge, objective.to_bits())
            })
            .collect()
    }

    /// SplitMix64: a tiny seeded stream for [`tie_heavy_points`].
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The four point shapes `mule-graph`'s search oracles run on, on an
    /// 800 m field: uniform floats (0), a coarse integer lattice with exact
    /// distance ties (1), a few distinct points repeated (2), or the
    /// lattice jittered by under a nanometre (3).
    fn tie_heavy_points(shape: usize, n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut coord = |modulus: u64, scale: f64| (splitmix(&mut state) % modulus) as f64 * scale;
        match shape {
            0 => (0..n)
                .map(|_| Point::new(coord(800_000, 1e-3), coord(800_000, 1e-3)))
                .collect(),
            1 => (0..n)
                .map(|_| Point::new(coord(8, 100.0), coord(8, 100.0)))
                .collect(),
            3 => (0..n)
                .map(|_| {
                    let x = coord(8, 100.0) + coord(1000, 1e-12);
                    Point::new(x, coord(8, 100.0) + coord(1000, 1e-12))
                })
                .collect(),
            _ => {
                let distinct: Vec<Point> = (0..n.div_ceil(3))
                    .map(|_| Point::new(coord(800, 1.0), coord(800, 1.0)))
                    .collect();
                (0..n)
                    .map(|_| distinct[(coord(distinct.len() as u64, 1.0)) as usize])
                    .collect()
            }
        }
    }

    /// Inserts `copies` copies of each VIP into `walk` the way
    /// [`build_wpp`] does, checking every Balancing choice against the
    /// oracle; returns how many choices were compared.
    fn balance_against_oracle(
        walk: &mut Vec<usize>,
        positions: &[Point],
        vips: &[usize],
        copies: usize,
        label: &str,
    ) -> usize {
        let mut arcs = WalkArcs::default();
        let mut compared = 0;
        for &vip in vips {
            let l_avg = walk_length(walk, positions) / (copies + 1) as f64;
            for copy in 0..copies {
                arcs.measure(walk, positions, vip);
                let objectives: Vec<(usize, u64)> = arcs
                    .objectives(walk, positions, vip, l_avg)
                    .map(|(edge, objective)| (edge, objective.to_bits()))
                    .collect();
                assert_eq!(
                    objectives,
                    oracle_objectives(walk, positions, vip, l_avg),
                    "{label}: VIP {vip}, copy {copy}: objective bits"
                );
                let got = arcs.best_edge_balancing(walk, positions, vip, l_avg);
                let want = best_edge_balancing_oracle(walk, positions, vip, l_avg);
                assert_eq!(got, want, "{label}: VIP {vip}, copy {copy}");
                compared += 1;
                let Some(edge) = got else { break };
                walk.insert(edge + 1, vip);
            }
        }
        compared
    }

    #[test]
    fn measured_arcs_match_the_vector_copy_oracle() {
        let road = TravelMetric::road(RoadIndex::for_field(
            RoadNetKind::Grid,
            &BoundingBox::square(800.0),
            4,
        ));
        let mut compared = 0;
        for n in 3..=130usize {
            for shape in 0..4 {
                let pts = tie_heavy_points(shape, n, (n * 3 + shape) as u64);
                for metric in [&TravelMetric::Euclidean, &road] {
                    let label = format!("n {n} shape {shape} {}", metric.label());
                    let circuit = construct_circuit(&pts, metric, &ChbConfig::default());
                    let mut walk = circuit.into_order();
                    compared += balance_against_oracle(&mut walk, &pts, &[n / 2, 0], 2, &label);
                }
            }
            // A VIP missing from the walk: every candidate closes a single
            // cycle, the whole walk.
            let pts = tie_heavy_points(0, n, n as u64);
            let mut walk: Vec<usize> = (1..n).collect();
            compared += balance_against_oracle(&mut walk, &pts, &[0], 2, &format!("n {n} absent"));
        }
        assert!(compared >= 128 * 4 * 2 * 4, "{compared} choices compared");
    }

    /// A 10-target ring plus an off-centre VIP, mirroring the paper's Fig. 2
    /// setting (target g4 is a VIP with w4 = 2).
    fn ring_positions(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(400.0 + 300.0 * t.cos(), 400.0 + 300.0 * t.sin())
            })
            .collect()
    }

    fn base(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn unweighted_walk_is_returned_unchanged() {
        let pos = ring_positions(8);
        let weights = vec![1; 8];
        for policy in BreakEdgePolicy::ALL {
            let walk = build_wpp(&base(8), &pos, &weights, policy);
            assert_eq!(walk, base(8));
        }
    }

    #[test]
    fn vip_occurs_weight_times_in_the_walk() {
        let pos = ring_positions(10);
        let mut weights = vec![1; 10];
        weights[4] = 3;
        weights[7] = 2;
        for policy in BreakEdgePolicy::ALL {
            let walk = build_wpp(&base(10), &pos, &weights, policy);
            assert_eq!(walk.iter().filter(|&&x| x == 4).count(), 3, "{policy:?}");
            assert_eq!(walk.iter().filter(|&&x| x == 7).count(), 2, "{policy:?}");
            for i in 0..10 {
                if i != 4 && i != 7 {
                    assert_eq!(walk.iter().filter(|&&x| x == i).count(), 1);
                }
            }
            assert_eq!(walk.len(), 10 + 2 + 1);
        }
    }

    #[test]
    fn wpp_is_longer_than_the_base_circuit_but_bounded_by_detours() {
        let pos = ring_positions(12);
        let mut weights = vec![1; 12];
        weights[0] = 4;
        let base_len = walk_length(&base(12), &pos);
        for policy in BreakEdgePolicy::ALL {
            let walk = build_wpp(&base(12), &pos, &weights, policy);
            let len = walk_length(&walk, &pos);
            assert!(len >= base_len - 1e-9, "{policy:?}");
            // Each of the 3 insertions detours at most twice the field
            // diagonal.
            assert!(len <= base_len + 3.0 * 2.0 * 800.0 * 2.0_f64.sqrt());
        }
    }

    #[test]
    fn shortest_policy_minimises_total_length_vs_balancing() {
        let pos = ring_positions(14);
        let mut weights = vec![1; 14];
        weights[3] = 4;
        weights[9] = 3;
        let shortest = build_wpp(&base(14), &pos, &weights, BreakEdgePolicy::ShortestLength);
        let balancing = build_wpp(&base(14), &pos, &weights, BreakEdgePolicy::BalancingLength);
        assert!(walk_length(&shortest, &pos) <= walk_length(&balancing, &pos) + 1e-9);
    }

    #[test]
    fn balancing_policy_gives_more_even_cycles() {
        // A ring with one heavy VIP: the balancing policy should produce
        // cycle lengths with a smaller spread than the shortest policy.
        let pos = ring_positions(16);
        let mut weights = vec![1; 16];
        weights[5] = 4;
        let spread = |walk: &[usize]| {
            let lens = vip_cycle_lengths(walk, &pos, 5);
            let max = lens.iter().cloned().fold(f64::MIN, f64::max);
            let min = lens.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let shortest = build_wpp(&base(16), &pos, &weights, BreakEdgePolicy::ShortestLength);
        let balancing = build_wpp(&base(16), &pos, &weights, BreakEdgePolicy::BalancingLength);
        assert!(
            spread(&balancing) <= spread(&shortest) + 1e-9,
            "balancing spread {} vs shortest spread {}",
            spread(&balancing),
            spread(&shortest)
        );
    }

    #[test]
    fn cycle_lengths_sum_to_the_walk_length() {
        let pos = ring_positions(12);
        let mut weights = vec![1; 12];
        weights[2] = 3;
        for policy in BreakEdgePolicy::ALL {
            let walk = build_wpp(&base(12), &pos, &weights, policy);
            let cycles = vip_cycle_lengths(&walk, &pos, 2);
            assert_eq!(cycles.len(), 3);
            let total: f64 = cycles.iter().sum();
            assert!((total - walk_length(&walk, &pos)).abs() < 1e-6);
        }
    }

    #[test]
    fn single_occurrence_cycle_is_the_whole_walk() {
        let pos = ring_positions(6);
        let walk = base(6);
        let cycles = vip_cycle_lengths(&walk, &pos, 3);
        assert_eq!(cycles.len(), 1);
        assert!((cycles[0] - walk_length(&walk, &pos)).abs() < 1e-9);
    }

    #[test]
    fn tiny_walks_fall_back_to_in_place_duplication() {
        let pos = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let weights = vec![2, 1];
        let walk = build_wpp(&[0, 1], &pos, &weights, BreakEdgePolicy::ShortestLength);
        assert_eq!(walk.iter().filter(|&&x| x == 0).count(), 2);
        assert_eq!(walk.iter().filter(|&&x| x == 1).count(), 1);
    }

    #[test]
    fn never_inserts_adjacent_to_the_vip_itself() {
        let pos = ring_positions(10);
        let mut weights = vec![1; 10];
        weights[0] = 5;
        for policy in BreakEdgePolicy::ALL {
            let walk = build_wpp(&base(10), &pos, &weights, policy);
            // No two consecutive occurrences of the VIP (which would be a
            // zero-length cycle).
            for i in 0..walk.len() {
                let j = (i + 1) % walk.len();
                assert!(
                    !(walk[i] == 0 && walk[j] == 0),
                    "{policy:?}: consecutive VIP copies at {i}"
                );
            }
        }
    }
}
