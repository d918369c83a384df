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
/// the first improving relocation it finds. Moves rotate only the array
/// segment they touch.
///
/// An attempt walks the cycle left once the chain is cut out as at most
/// two contiguous array ranges and then the wrap edge, reading each edge's
/// length from a successor-length array that is refreshed after every move
/// and the chain ends' distances from their matrix rows and columns.
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
    let mut book = Bookkeeping::new(&mut buffer, &order, dm, max_passes);
    let mut moves = 0;
    for _ in 0..max_passes {
        let mut improved = false;
        'outer: for chain_len in 1..=3usize {
            for start in 0..n {
                let chain = Chain::new(&order, dm, start, chain_len);
                if book.certified(&order, &chain) {
                    continue;
                }
                match best_relocation(&order, book.successors, &chain) {
                    Some((edge, reversed, gain)) if gain > 1e-10 => {
                        book.log_move(&order, dm, start, chain_len, edge, reversed);
                        relocate_chain(&mut order, book.pos, start, chain_len, edge, reversed);
                        successor_lengths(&order, dm, book.successors);
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

/// The chain of `len` targets starting at tour position `start`, its
/// neighbours, and the matrix rows and columns of its end points, which
/// the relocation scan and the certificate check read as slices.
struct Chain<'m> {
    start: usize,
    len: usize,
    before: usize,
    after: usize,
    /// Cost removed by excising the chain from between `before` and `after`.
    removed: f64,
    /// `d(·, first)`, `d(·, last)`, `d(first, ·)` and `d(last, ·)`.
    to_first: &'m [f64],
    to_last: &'m [f64],
    from_first: &'m [f64],
    from_last: &'m [f64],
}

impl<'m> Chain<'m> {
    fn new(order: &[usize], dm: &'m DistanceMatrix, start: usize, len: usize) -> Self {
        let n = order.len();
        let first = order[start];
        let last = order[(start + len - 1) % n];
        let before = order[(start + n - 1) % n];
        let after = order[(start + len) % n];
        let (to_first, from_last) = (dm.column(first), dm.row(last));
        Chain {
            start,
            len,
            before,
            after,
            removed: to_first[before] + from_last[after] - dm.get(before, after),
            to_first,
            to_last: dm.column(last),
            from_first: dm.row(first),
            from_last,
        }
    }

    /// Costs added by reinserting the chain into the edge `i → j` of
    /// length `d_ij`, forward and reversed. The cheaper one is taken,
    /// forward on ties.
    #[inline]
    fn added(&self, i: usize, j: usize, d_ij: f64) -> (f64, f64) {
        let fwd = self.to_first[i] + self.from_last[j] - d_ij;
        let rev = self.to_last[i] + self.from_first[j] - d_ij;
        (fwd, rev)
    }
}

/// The best relocation of `chain`: the array position of the first point
/// of the reinsertion edge, whether the chain goes in reversed, and the
/// gain. `None` when the tour is too short to move the chain.
///
/// The reinsertion edges are those of the cycle left after excising the
/// chain, walked from its first remaining array position: the edges
/// `order[a] → order[a + 1]` of the range before the chain and of the range
/// after it, then the wrap edge `order[n − 1] → order[0]`, skipping the
/// `before → after` junction. A chain that wraps past the array's end
/// leaves one range and no wrap edge. Equal costs keep the first edge of
/// that walk. `successors[a]` holds the bits of `d(order[a], order[a + 1])`
/// (cyclically). Distances are finite, so the first edge always beats the
/// infinite start.
fn best_relocation(
    order: &[usize],
    successors: &[usize],
    chain: &Chain,
) -> Option<(usize, bool, f64)> {
    let n = order.len();
    if chain.len >= n - 2 {
        return None;
    }
    let mut best = (usize::MAX, f64::INFINITY, false); // (edge pos, added cost, reversed)
    let mut consider = |a: usize, i: usize, j: usize, d_ij: usize| {
        let (fwd, rev) = chain.added(i, j, f64::from_bits(d_ij as u64));
        // Branch-free: the direction is only looked at on a new best.
        let added = if rev < fwd { rev } else { fwd };
        if added < best.1 {
            best = (a, added, rev < fwd);
        }
    };
    let end = chain.start + chain.len;
    let after_chain = if end < n { end..n - 1 } else { 0..0 };
    for edges in [
        end.saturating_sub(n)..chain.start.saturating_sub(1),
        after_chain,
    ] {
        let (i, j) = (&order[edges.clone()], &order[edges.start + 1..=edges.end]);
        for (k, ((&i, &j), &d_ij)) in i.iter().zip(j).zip(&successors[edges.clone()]).enumerate() {
            consider(edges.start + k, i, j, d_ij);
        }
    }
    if end < n && chain.start > 0 {
        consider(n - 1, order[n - 1], order[0], successors[n - 1]);
    }
    let (edge, added, reversed) = best;
    (edge != usize::MAX).then_some((edge, reversed, chain.removed - added))
}

/// Writes the bits of `d(order[a], order[a + 1])`, the last edge wrapping
/// to `order[0]`, into `successors[a]`. The bits of an `f64` fit a `usize`
/// word, so the lengths share the one bookkeeping buffer.
fn successor_lengths(order: &[usize], dm: &DistanceMatrix, successors: &mut [usize]) {
    let next = order[1..].iter().chain(&order[..1]);
    for ((&i, &j), slot) in order.iter().zip(next).zip(successors) {
        *slot = dm.get(i, j).to_bits() as usize;
    }
}

const _: () = assert!(
    usize::BITS == u64::BITS,
    "successor lengths are f64 bits in usize words"
);

/// Words per certificate: the added-edge log length it was last checked
/// at, then the chain's window `before, after, chain[0..3]`.
const CERT: usize = 6;

/// Words per added-edge log entry: `from`, `to` and the bits of
/// `d(from, to)`, which the move fixes and every later check reads.
const LOG_ENTRY: usize = 3;

/// Marks a certificate slot that holds none.
const UNCERTIFIED: usize = usize::MAX;

/// Edges one move adds: `before → after` and the reinserted chain's span
/// `i → chain → j`, at most four for a chain of three.
const EDGES_PER_MOVE: usize = 5;

/// The bookkeeping of one [`or_opt`] call, carved from one buffer: the
/// position index [`relocate_chain`] maintains, the successor lengths
/// [`best_relocation`] reads, one certificate per `(chain length, first
/// point)`, and the added-edge log.
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
    successors: &'a mut [usize],
    certs: &'a mut [usize],
    /// Added edges as `(from, to, length bits)` entries, in the direction
    /// the tour walks them (costs may be directed).
    log: &'a mut [usize],
    logged: usize,
}

impl<'a> Bookkeeping<'a> {
    /// Carves the bookkeeping of `order` from `buffer`, sizing the log
    /// for up to `max_passes` moves (at most `n`; a full log is cleared
    /// along with every certificate).
    fn new(
        buffer: &'a mut Vec<usize>,
        order: &[usize],
        dm: &DistanceMatrix,
        max_passes: usize,
    ) -> Self {
        let n = order.len();
        let log_words = LOG_ENTRY * EDGES_PER_MOVE * max_passes.clamp(1, n);
        buffer.resize(2 * n + 3 * n * CERT + log_words, UNCERTIFIED);
        let (pos, rest) = buffer.split_at_mut(n);
        let (successors, rest) = rest.split_at_mut(n);
        let (certs, log) = rest.split_at_mut(3 * n * CERT);
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        successor_lengths(order, dm, successors);
        Bookkeeping {
            pos,
            successors,
            certs,
            log,
            logged: 0,
        }
    }

    /// The certificate slot of the chain of `chain_len` points from `first`.
    fn slot(&self, first: usize, chain_len: usize) -> usize {
        ((chain_len - 1) * self.pos.len() + first) * CERT
    }

    /// Whether `chain` holds a certificate that is still valid; a valid
    /// one is advanced to the end of the log.
    fn certified(&mut self, order: &[usize], chain: &Chain) -> bool {
        let n = order.len();
        let slot = self.slot(order[chain.start], chain.len);
        let cert = &self.certs[slot..slot + CERT];
        if cert[0] == UNCERTIFIED
            || cert[1] != chain.before
            || cert[2] != chain.after
            || (1..chain.len).any(|k| cert[3 + k] != order[(chain.start + k) % n])
        {
            return false;
        }
        let improving = self.log[LOG_ENTRY * cert[0]..LOG_ENTRY * self.logged]
            .chunks_exact(LOG_ENTRY)
            .any(|edge| {
                let length = f64::from_bits(edge[2] as u64);
                let (fwd, rev) = chain.added(edge[0], edge[1], length);
                chain.removed - if rev < fwd { rev } else { fwd } > 1e-10
            });
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
        dm: &DistanceMatrix,
        start: usize,
        chain_len: usize,
        edge: usize,
        reversed: bool,
    ) {
        let n = order.len();
        if LOG_ENTRY * (self.logged + EDGES_PER_MOVE) > self.log.len() {
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
        self.push(dm, before, after);
        for k in 0..=chain_len {
            self.push(dm, span[k], span[k + 1]);
        }
    }

    fn push(&mut self, dm: &DistanceMatrix, from: usize, to: usize) {
        let entry = LOG_ENTRY * self.logged;
        self.log[entry..entry + LOG_ENTRY].copy_from_slice(&[
            from,
            to,
            dm.get(from, to).to_bits() as usize,
        ]);
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

    /// The index-mapped walk the range kernel replaced, kept as its
    /// oracle: remaining position `p` of the chain-removed cycle is array
    /// position `p` before the chain and `p + chain_len` after it, or
    /// `offset + p` when the chain wraps past the array's end, and every
    /// distance is a `get`.
    fn at_walk_best_relocation(
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
        let removed = dm.get(before, first) + dm.get(last, after) - dm.get(before, after);
        let wrap_offset = (start + chain_len).checked_sub(n);
        let at = |p: usize| match wrap_offset {
            Some(offset) => offset + p,
            None if p < start => p,
            None => p + chain_len,
        };
        let mut best: Option<(usize, f64, bool)> = None;
        let m = n - chain_len;
        for p in 0..m {
            let i = order[at(p)];
            let j = order[at((p + 1) % m)];
            if i == before && j == after {
                continue;
            }
            let fwd = dm.get(i, first) + dm.get(last, j) - dm.get(i, j);
            let rev = dm.get(i, last) + dm.get(first, j) - dm.get(i, j);
            let (added, reversed) = if rev < fwd { (rev, true) } else { (fwd, false) };
            if best.map(|(_, b, _)| added < b).unwrap_or(true) {
                best = Some((p, added, reversed));
            }
        }
        let (p, added, reversed) = best?;
        Some((at(p), reversed, removed - added))
    }

    /// Replays an `or_opt(tour, dm, max_passes)` run move by move. At every
    /// step, every chain's range-kernel answer must match the index-mapped
    /// walk's `(edge, reversed, gain bits)`; the run's final order must be
    /// `or_opt`'s. Returns the moves replayed and which chain shapes were
    /// seen: starting at 0, ending at `n − 1`, wrapping, and too long to
    /// move.
    fn replay_against_the_walk_oracle(
        tour: &Tour,
        dm: &DistanceMatrix,
        max_passes: usize,
        label: &str,
    ) -> (usize, [bool; 4]) {
        let n = tour.len();
        let mut order = tour.order().to_vec();
        let mut pos = tour.position_index();
        let mut successors = vec![0; n];
        let mut seen = [false; 4];
        let mut moves = 0;
        for _ in 0..max_passes {
            successor_lengths(&order, dm, &mut successors);
            let mut first_improving = None;
            for chain_len in 1..=3usize {
                for start in 0..n {
                    let chain = Chain::new(&order, dm, start, chain_len);
                    let got = best_relocation(&order, &successors, &chain);
                    let want = at_walk_best_relocation(&order, dm, start, chain_len);
                    let bits =
                        |r: Option<(usize, bool, f64)>| r.map(|(e, v, g)| (e, v, g.to_bits()));
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "{label}: start {start} len {chain_len}"
                    );
                    seen[0] |= start == 0;
                    seen[1] |= start + chain_len == n;
                    seen[2] |= start + chain_len > n;
                    seen[3] |= want.is_none();
                    if let Some((edge, reversed, gain)) = want {
                        if gain > 1e-10 && first_improving.is_none() {
                            first_improving = Some((start, chain_len, edge, reversed));
                        }
                    }
                }
            }
            let Some((start, chain_len, edge, reversed)) = first_improving else {
                break;
            };
            relocate_chain(&mut order, &mut pos, start, chain_len, edge, reversed);
            moves += 1;
        }
        let mut want = tour.clone();
        assert_eq!(or_opt(&mut want, dm, max_passes), moves, "{label}: moves");
        assert_eq!(order, want.order(), "{label}: final order");
        (moves, seen)
    }

    /// A directed matrix over `pts`: each Euclidean distance scaled by a
    /// per-ordered-pair factor in `[1, 2)`.
    fn directed_matrix(pts: &[Point], salt: usize) -> DistanceMatrix {
        let n = pts.len();
        let skew = |i: usize, j: usize| {
            let h = (i * 7919 + j * 104_729 + salt) as u64;
            1.0 + (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / (1u64 << 24) as f64
        };
        let data = (0..n * n)
            .map(|k| pts[k / n].distance(&pts[k % n]) * skew(k / n, k % n))
            .collect();
        DistanceMatrix::from_rows(n, data)
    }

    #[test]
    fn range_kernel_matches_the_index_mapped_walk() {
        let mut seen = [false; 4];
        let (mut runs, mut moved) = (0, 0);
        for n in (5..=40usize).chain([100, 128]) {
            for shape in 0..4 {
                let pts = instance(shape, n, (n * 13 + shape) as u64);
                let euclidean = DistanceMatrix::from_points(&pts);
                for (costs, dm) in [
                    ("euclidean", euclidean),
                    ("directed", directed_matrix(&pts, n + shape)),
                ] {
                    for start in [Tour::identity(n), convex_hull_insertion(&pts, &dm)] {
                        let label = format!("n {n} shape {shape} {costs}");
                        let (moves, shapes) =
                            replay_against_the_walk_oracle(&start, &dm, 30, &label);
                        for (s, hit) in seen.iter_mut().zip(shapes) {
                            *s |= hit;
                        }
                        runs += 1;
                        moved += usize::from(moves > 0);
                    }
                }
            }
        }
        assert!(
            moved * 2 > runs,
            "most runs apply moves ({moved} of {runs})"
        );
        assert_eq!(
            seen, [true; 4],
            "chains at 0, ending at n - 1, wrapping and too long"
        );
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
