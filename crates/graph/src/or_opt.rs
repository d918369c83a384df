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
/// Each pass scans chains by length, then by array position, and applies
/// the first improving relocation it finds. Attempts read the
/// chain-removed cycle by index arithmetic and moves rotate only the array
/// segment they touch.
///
/// A chain found to have no improving relocation is certified and skipped
/// by later passes until its neighbourhood changes or a move adds an edge
/// that would take it. Every chain a pass does evaluate goes through the
/// full search, so the applied moves, their tie-breaks and the final tour
/// are those of rescanning every chain on every pass. A call makes one
/// allocation.
pub fn or_opt(tour: &mut Tour, dm: &DistanceMatrix, max_passes: usize) -> usize {
    let n = tour.len();
    if n < 5 {
        return 0;
    }
    let mut order = std::mem::take(tour).into_order();
    let mut buffer = Vec::new();
    let mut book = Bookkeeping::new(&mut buffer, &order, max_passes);
    let mut moves = 0;
    for _ in 0..max_passes {
        let mut improved = false;
        'outer: for chain_len in 1..=3usize {
            for start in 0..n {
                if book.certified(&order, dm, start, chain_len) {
                    continue;
                }
                match best_relocation(&order, dm, start, chain_len) {
                    Some((edge, reversed, gain)) if gain > 1e-10 => {
                        book.log_move(&order, start, chain_len, edge, reversed);
                        relocate_chain(&mut order, book.pos, start, chain_len, edge, reversed);
                        moves += 1;
                        improved = true;
                        // Tour positions shifted; restart the scan.
                        break 'outer;
                    }
                    _ => book.certify(&order, start, chain_len),
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

/// The best relocation of the chain of `chain_len` targets starting at
/// tour position `start`: the array position of the first point of the
/// reinsertion edge, whether the chain goes in reversed, and the gain.
/// `None` when the tour is too short to move the chain.
///
/// The reinsertion edges are those of the cycle left after excising the
/// chain, walked from array position 0: remaining position `p` is array
/// position `p` before the chain and `p + chain_len` after it, or
/// `offset + p` when the chain wraps past the array's end. Equal costs
/// keep the first edge of that walk.
fn best_relocation(
    order: &[usize],
    dm: &DistanceMatrix,
    start: usize,
    chain_len: usize,
) -> Option<(usize, bool, f64)> {
    let n = order.len();
    if chain_len >= n - 2 {
        return None;
    }
    let first = order[start];
    let last = order[(start + chain_len - 1) % n];
    let before = order[(start + n - 1) % n];
    let after = order[(start + chain_len) % n];

    let removed = removed_cost(dm, before, first, last, after);

    // Array position of the remaining cycle's position `p`.
    let wrap_offset = (start + chain_len).checked_sub(n);
    let at = |p: usize| match wrap_offset {
        Some(offset) => offset + p,
        None if p < start => p,
        None => p + chain_len,
    };

    let mut best: Option<(usize, f64, bool)> = None; // (edge pos, added cost, reversed)
    let m = n - chain_len;
    for p in 0..m {
        let i = order[at(p)];
        let j = order[at((p + 1) % m)];
        if i == before && j == after {
            continue; // reinserting where it came from
        }
        let (added, reversed) = added_cost(dm, i, j, first, last);
        if best.map(|(_, b, _)| added < b).unwrap_or(true) {
            best = Some((p, added, reversed));
        }
    }
    let (p, added, reversed) = best?;
    Some((at(p), reversed, removed - added))
}

/// Cost removed by excising the chain `first..=last` from between
/// `before` and `after`.
#[inline]
fn removed_cost(
    dm: &DistanceMatrix,
    before: usize,
    first: usize,
    last: usize,
    after: usize,
) -> f64 {
    dm.get(before, first) + dm.get(last, after) - dm.get(before, after)
}

/// Cost added by reinserting the chain `first..=last` into the edge
/// `i → j`, in the cheaper direction (forward on ties), and whether that
/// direction is reversed.
#[inline]
fn added_cost(dm: &DistanceMatrix, i: usize, j: usize, first: usize, last: usize) -> (f64, bool) {
    let fwd = dm.get(i, first) + dm.get(last, j) - dm.get(i, j);
    let rev = dm.get(i, last) + dm.get(first, j) - dm.get(i, j);
    if rev < fwd {
        (rev, true)
    } else {
        (fwd, false)
    }
}

/// Words per certificate: the added-edge log length it was last checked
/// at, then the chain's window `before, after, chain[0..3]`.
const CERT: usize = 6;

/// Marks a certificate slot that holds none.
const UNCERTIFIED: usize = usize::MAX;

/// Edges one move adds: `before → after` and the reinserted chain's span
/// `i → chain → j`, at most four for a chain of three.
const EDGES_PER_MOVE: usize = 5;

/// The bookkeeping of one [`or_opt`] call, carved from one buffer: the
/// position index [`relocate_chain`] maintains, one certificate per
/// `(chain length, first point)`, and the added-edge log.
///
/// A chain's *window* is `before`, the chain and `after`. Its best
/// relocation depends only on the window and on the edges of the rest of
/// the cycle. A certificate records a window whose chain had no improving
/// relocation, and how many edges the log held then. While the window is
/// unchanged, every edge of the rest of the cycle either was there and was
/// not improving, or was added by a later move and so is in the log after
/// the certificate's mark. The chain can therefore be skipped when none of
/// those logged edges is improving under the same cost expressions and
/// acceptance test; its mark then moves to the end of the log, so each
/// logged edge is checked at most once per chain. Distances are finite, so
/// none of these comparisons meets a NaN.
struct Bookkeeping<'a> {
    pos: &'a mut [usize],
    certs: &'a mut [usize],
    /// Added edges as `(from, to)` pairs, in the direction the tour walks
    /// them (road costs are not bit-symmetric).
    log: &'a mut [usize],
    logged: usize,
}

impl<'a> Bookkeeping<'a> {
    /// Carves the bookkeeping of `order` from `buffer`, sizing the log
    /// for up to `max_passes` moves (at most `n`; a full log is cleared
    /// along with every certificate).
    fn new(buffer: &'a mut Vec<usize>, order: &[usize], max_passes: usize) -> Self {
        let n = order.len();
        let log_words = 2 * EDGES_PER_MOVE * max_passes.clamp(1, n);
        buffer.resize(n + 3 * n * CERT + log_words, UNCERTIFIED);
        let (pos, rest) = buffer.split_at_mut(n);
        let (certs, log) = rest.split_at_mut(3 * n * CERT);
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        Bookkeeping {
            pos,
            certs,
            log,
            logged: 0,
        }
    }

    /// The certificate slot of the chain of `chain_len` points from `first`.
    fn slot(&self, first: usize, chain_len: usize) -> usize {
        ((chain_len - 1) * self.pos.len() + first) * CERT
    }

    /// Whether the chain at `start` holds a certificate that is still
    /// valid; a valid one is advanced to the end of the log.
    fn certified(
        &mut self,
        order: &[usize],
        dm: &DistanceMatrix,
        start: usize,
        chain_len: usize,
    ) -> bool {
        let n = order.len();
        let first = order[start];
        let last = order[(start + chain_len - 1) % n];
        let before = order[(start + n - 1) % n];
        let after = order[(start + chain_len) % n];
        let slot = self.slot(first, chain_len);
        let cert = &self.certs[slot..slot + CERT];
        if cert[0] == UNCERTIFIED
            || cert[1] != before
            || cert[2] != after
            || (1..chain_len).any(|k| cert[3 + k] != order[(start + k) % n])
        {
            return false;
        }
        let removed = removed_cost(dm, before, first, last, after);
        let improving = self.log[2 * cert[0]..2 * self.logged]
            .chunks_exact(2)
            .any(|edge| removed - added_cost(dm, edge[0], edge[1], first, last).0 > 1e-10);
        if improving {
            return false;
        }
        self.certs[slot] = self.logged;
        true
    }

    /// Certifies the chain at `start`, which has no improving relocation.
    fn certify(&mut self, order: &[usize], start: usize, chain_len: usize) {
        let n = order.len();
        let slot = self.slot(order[start], chain_len);
        let cert = &mut self.certs[slot..slot + CERT];
        cert[0] = self.logged;
        cert[1] = order[(start + n - 1) % n];
        cert[2] = order[(start + chain_len) % n];
        for k in 0..chain_len {
            cert[3 + k] = order[(start + k) % n];
        }
    }

    /// Logs the edges the relocation of the chain at `start` into the edge
    /// starting at array position `edge` adds; call before applying it.
    fn log_move(
        &mut self,
        order: &[usize],
        start: usize,
        chain_len: usize,
        edge: usize,
        reversed: bool,
    ) {
        let n = order.len();
        if 2 * (self.logged + EDGES_PER_MOVE) > self.log.len() {
            self.certs.fill(UNCERTIFIED);
            self.logged = 0;
        }
        let chain = |k: usize| {
            let k = if reversed { chain_len - 1 - k } else { k };
            order[(start + k) % n]
        };
        let mut span = [0usize; EDGES_PER_MOVE + 1];
        span[0] = order[edge];
        for k in 0..chain_len {
            span[1 + k] = chain(k);
        }
        // The edge never starts at `before`, so it ends at its array
        // successor.
        span[1 + chain_len] = order[(edge + 1) % n];
        let before = order[(start + n - 1) % n];
        let after = order[(start + chain_len) % n];
        self.push(before, after);
        for k in 0..=chain_len {
            self.push(span[k], span[k + 1]);
        }
    }

    fn push(&mut self, from: usize, to: usize) {
        self.log[2 * self.logged] = from;
        self.log[2 * self.logged + 1] = to;
        self.logged += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::convex_hull_insertion;
    use crate::test_support::tie_heavy_points as instance;
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

    /// Tours above the splice-oracle test's sizes, and short tours whose
    /// moves outnumber their points, so the added-edge log fills and is
    /// cleared along with every certificate.
    #[test]
    fn certificates_survive_large_tours_and_a_full_log() {
        let mut overflowed = 0;
        for n in (61..=130usize).step_by(3).chain(5..=12) {
            for shape in 0..4 {
                let pts = instance(shape, n, (n * 7 + shape) as u64);
                let dm = DistanceMatrix::from_points(&pts);
                for start in [Tour::identity(n), convex_hull_insertion(&pts, &dm)] {
                    let (mut got, mut want) = (start.clone(), start);
                    let moves = or_opt(&mut got, &dm, 60);
                    assert_eq!(
                        moves,
                        or_opt_oracle(&mut want, &dm, 60),
                        "n {n} shape {shape}"
                    );
                    assert_eq!(got, want, "n {n} shape {shape}");
                    overflowed += usize::from(moves > n);
                }
            }
        }
        assert!(
            overflowed > 0,
            "some call logs more moves than its tour has points"
        );
    }

    /// Directed costs: the splice oracle on matrices where `d(i, j)` and
    /// `d(j, i)` differ, so a chain reinserted reversed walks its inner
    /// edges at new costs.
    #[test]
    fn asymmetric_costs_match_the_splice_oracle() {
        let mut moved = 0;
        for n in 5..=40usize {
            for shape in 0..4 {
                let pts = instance(shape, n, (n * 11 + shape) as u64);
                let skew = |i: usize, j: usize| {
                    let h = (i * 7919 + j * 104_729 + n) as u64;
                    1.0 + (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / (1u64 << 24) as f64
                };
                let data = (0..n * n)
                    .map(|k| pts[k / n].distance(&pts[k % n]) * skew(k / n, k % n))
                    .collect();
                let dm = DistanceMatrix::from_rows(n, data);
                for start in [Tour::identity(n), convex_hull_insertion(&pts, &dm)] {
                    let (mut got, mut want) = (start.clone(), start);
                    let moves = or_opt(&mut got, &dm, 30);
                    assert_eq!(
                        moves,
                        or_opt_oracle(&mut want, &dm, 30),
                        "n {n} shape {shape}"
                    );
                    assert_eq!(got, want, "n {n} shape {shape}");
                    moved += usize::from(moves > 0);
                }
            }
        }
        assert!(moved > 100, "{moved} instances apply moves");
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
