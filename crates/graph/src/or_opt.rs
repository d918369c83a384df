//! Or-opt local search.
//!
//! Relocates short chains of 1–3 consecutive targets to a better position in
//! the tour. Complements 2-opt (which only uncrosses edges) and together
//! they bring convex-hull-insertion tours very close to optimal at the
//! instance sizes the paper evaluates (10–50 targets).

use crate::candidates::relocate_chain;
use crate::distance_matrix::DistanceMatrix;
use crate::tour::Tour;

/// Improves `tour` in place by relocating chains of length 1, 2 and 3.
/// Returns the number of improving relocations applied. The tour length is
/// never increased.
///
/// Works on the tour's order in place: attempts read the chain-removed
/// cycle by index arithmetic and moves rotate only the array segment they
/// touch, so a call allocates one position index and nothing per attempt.
pub fn or_opt(tour: &mut Tour, dm: &DistanceMatrix, max_passes: usize) -> usize {
    let n = tour.len();
    if n < 5 {
        return 0;
    }
    let mut pos = tour.position_index();
    let mut order = std::mem::take(tour).into_order();
    let mut moves = 0;
    for _ in 0..max_passes {
        let mut improved = false;
        'outer: for chain_len in 1..=3usize {
            for start in 0..n {
                if let Some(gain) = try_relocate(&mut order, &mut pos, dm, start, chain_len) {
                    if gain > 1e-10 {
                        moves += 1;
                        improved = true;
                        // Tour positions shifted; restart the scan.
                        break 'outer;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    *tour = Tour::new(order);
    moves
}

/// Attempts the best relocation of the chain of `chain_len` targets starting
/// at tour position `start`. Applies the move and returns its gain when an
/// improving position exists, otherwise returns `None` / `Some(0.0)` without
/// modifying the order.
///
/// The reinsertion edges are those of the cycle left after excising the
/// chain, walked from array position 0: remaining position `p` is array
/// position `p` before the chain and `p + chain_len` after it, or
/// `offset + p` when the chain wraps past the array's end.
fn try_relocate(
    order: &mut [usize],
    pos: &mut [usize],
    dm: &DistanceMatrix,
    start: usize,
    chain_len: usize,
) -> Option<f64> {
    let n = order.len();
    if chain_len >= n - 2 {
        return None;
    }
    let first = order[start];
    let last = order[(start + chain_len - 1) % n];
    let before = order[(start + n - 1) % n];
    let after = order[(start + chain_len) % n];

    // Cost removed by excising the chain.
    let removed = dm.get(before, first) + dm.get(last, after) - dm.get(before, after);

    // Array position of the remaining cycle's position `p`.
    let wrap_offset = (start + chain_len).checked_sub(n);
    let at = |p: usize| match wrap_offset {
        Some(offset) => offset + p,
        None if p < start => p,
        None => p + chain_len,
    };

    // Best reinsertion position.
    let mut best: Option<(usize, f64, bool)> = None; // (edge pos, added cost, reversed)
    let m = n - chain_len;
    for p in 0..m {
        let i = order[at(p)];
        let j = order[at((p + 1) % m)];
        if i == before && j == after {
            continue; // reinserting where it came from
        }
        let fwd = dm.get(i, first) + dm.get(last, j) - dm.get(i, j);
        let rev = dm.get(i, last) + dm.get(first, j) - dm.get(i, j);
        let (added, reversed) = if rev < fwd { (rev, true) } else { (fwd, false) };
        if best.map(|(_, b, _)| added < b).unwrap_or(true) {
            best = Some((p, added, reversed));
        }
    }
    let (p, added, reversed) = best?;
    let gain = removed - added;
    if gain <= 1e-10 {
        return Some(0.0);
    }
    relocate_chain(order, pos, start, chain_len, at(p), reversed);
    Some(gain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::convex_hull_insertion;
    use mule_geom::{BoundingBox, Point};
    use mule_road::{RoadIndex, RoadNetKind, TravelMetric};

    /// The splice-rebuild Or-opt the in-place search replaced, kept as its
    /// oracle: it copies the order, collects the chain and the remaining
    /// cycle, and rebuilds the tour for every applied move.
    fn or_opt_oracle(tour: &mut Tour, dm: &DistanceMatrix, max_passes: usize) -> usize {
        let n = tour.len();
        if n < 5 {
            return 0;
        }
        let mut moves = 0;
        for _ in 0..max_passes {
            let mut improved = false;
            'outer: for chain_len in 1..=3usize {
                for start in 0..n {
                    if let Some(gain) = splice_try_relocate(tour, dm, start, chain_len) {
                        if gain > 1e-10 {
                            moves += 1;
                            improved = true;
                            break 'outer;
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
        moves
    }

    fn splice_try_relocate(
        tour: &mut Tour,
        dm: &DistanceMatrix,
        start: usize,
        chain_len: usize,
    ) -> Option<f64> {
        let n = tour.len();
        if chain_len >= n - 2 {
            return None;
        }
        let order = tour.order().to_vec();
        let chain: Vec<usize> = (0..chain_len).map(|k| order[(start + k) % n]).collect();
        let before = order[(start + n - 1) % n];
        let after = order[(start + chain_len) % n];
        if before == *chain.last().unwrap() || after == chain[0] {
            return None;
        }
        let removed = dm.get(before, chain[0]) + dm.get(*chain.last().unwrap(), after)
            - dm.get(before, after);
        let remaining: Vec<usize> = order
            .iter()
            .copied()
            .filter(|i| !chain.contains(i))
            .collect();
        if remaining.len() < 2 {
            return None;
        }
        let mut best: Option<(usize, f64, bool)> = None;
        let m = remaining.len();
        for pos in 0..m {
            let i = remaining[pos];
            let j = remaining[(pos + 1) % m];
            if i == before && j == after {
                continue;
            }
            let fwd = dm.get(i, chain[0]) + dm.get(*chain.last().unwrap(), j) - dm.get(i, j);
            let rev = dm.get(i, *chain.last().unwrap()) + dm.get(chain[0], j) - dm.get(i, j);
            let (added, reversed) = if rev < fwd { (rev, true) } else { (fwd, false) };
            if best.map(|(_, b, _)| added < b).unwrap_or(true) {
                best = Some((pos, added, reversed));
            }
        }
        let (pos, added, reversed) = best?;
        let gain = removed - added;
        if gain <= 1e-10 {
            return Some(0.0);
        }
        let mut new_order = Vec::with_capacity(n);
        for (k, &idx) in remaining.iter().enumerate() {
            new_order.push(idx);
            if k == pos {
                if reversed {
                    new_order.extend(chain.iter().rev().copied());
                } else {
                    new_order.extend(chain.iter().copied());
                }
            }
        }
        *tour = Tour::new(new_order);
        Some(gain)
    }

    /// SplitMix64: a tiny seeded stream for the oracle's instances.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `n` points of one of four shapes on an 800 m field: uniform
    /// floats, a coarse integer lattice (exact distance ties), a few
    /// distinct points repeated (zero distances), or the lattice jittered
    /// by under a nanometre (gains near the `1e-10` acceptance test).
    fn instance(shape: usize, n: usize, seed: u64) -> Vec<Point> {
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

    #[test]
    fn in_place_search_matches_the_splice_oracle() {
        let road = TravelMetric::road(RoadIndex::for_field(
            RoadNetKind::Grid,
            &BoundingBox::square(800.0),
            4,
        ));
        let mut instances = 0;
        let mut moved = 0;
        for n in 5..=60usize {
            for shape in 0..4 {
                let pts = instance(shape, n, (n * 3 + shape) as u64);
                for metric in [&TravelMetric::Euclidean, &road] {
                    let dm = DistanceMatrix::from_metric(&pts, metric);
                    for start in [Tour::identity(n), convex_hull_insertion(&pts, &dm)] {
                        let (mut got, mut want) = (start.clone(), start);
                        let moves = or_opt(&mut got, &dm, 30);
                        let oracle_moves = or_opt_oracle(&mut want, &dm, 30);
                        let label = format!("n {n} shape {shape} {}", metric.label());
                        assert_eq!(got, want, "{label}: order");
                        assert_eq!(moves, oracle_moves, "{label}: move count");
                        instances += 1;
                        moved += usize::from(moves > 0);
                    }
                }
            }
        }
        assert!(instances >= 500, "{instances} instances");
        assert!(
            moved * 2 > instances,
            "most instances apply moves ({moved})"
        );
    }

    fn line_with_outlier() -> Vec<Point> {
        // Points on a line, except index 2 is visited badly out of order in
        // the identity tour, making a relocation clearly profitable.
        vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(60.0, 0.0),
            Point::new(70.0, 0.0),
            Point::new(80.0, 0.0),
        ]
    }

    #[test]
    fn relocation_shortens_a_bad_tour() {
        let pts = line_with_outlier();
        let dm = DistanceMatrix::from_points(&pts);
        let mut tour = Tour::identity(pts.len());
        let before = tour.length(&pts);
        let moves = or_opt(&mut tour, &dm, 20);
        assert!(moves >= 1);
        assert!(tour.is_valid());
        assert!(tour.length(&pts) < before);
    }

    #[test]
    fn never_lengthens_a_tour() {
        let pts: Vec<Point> = (0..25u64)
            .map(|i| {
                Point::new(
                    (i.wrapping_mul(193) % 800) as f64,
                    (i.wrapping_mul(389) % 800) as f64,
                )
            })
            .collect();
        let dm = DistanceMatrix::from_points(&pts);
        let mut tour = Tour::identity(pts.len());
        let before = tour.length(&pts);
        or_opt(&mut tour, &dm, 50);
        assert!(tour.is_valid());
        assert!(tour.length(&pts) <= before + 1e-9);
    }

    #[test]
    fn optimal_square_is_left_alone() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(5.0, 15.0),
            Point::new(0.0, 10.0),
        ];
        let dm = DistanceMatrix::from_points(&pts);
        let mut tour = Tour::identity(5);
        let before = tour.length(&pts);
        or_opt(&mut tour, &dm, 20);
        assert!((tour.length(&pts) - before).abs() < 1e-9);
    }

    #[test]
    fn tiny_tours_are_untouched() {
        let pts = vec![
            Point::ORIGIN,
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
        ];
        let dm = DistanceMatrix::from_points(&pts);
        let mut tour = Tour::identity(4);
        assert_eq!(or_opt(&mut tour, &dm, 5), 0);
    }

    #[test]
    fn combined_with_two_opt_reaches_the_line_optimum() {
        let pts = line_with_outlier();
        let dm = DistanceMatrix::from_points(&pts);
        let mut tour = Tour::identity(pts.len());
        crate::two_opt(&mut tour, &dm, 50);
        or_opt(&mut tour, &dm, 50);
        crate::two_opt(&mut tour, &dm, 50);
        // Optimal tour over collinear points: out and back = 2 × 80 m.
        assert!((tour.length(&pts) - 160.0).abs() < 1e-6);
    }
}
