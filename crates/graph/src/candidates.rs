//! Candidate-list local search (k-nearest-neighbour 2-opt / Or-opt).
//!
//! The exact [`two_opt`](crate::two_opt()) / [`or_opt`](crate::or_opt())
//! sweeps examine all `O(n²)` point pairs per pass, which is fine at the
//! paper's ≤ 50 targets but hopeless at thousands. This module implements
//! the classic scaling remedy (Bentley's TSP engineering): almost every
//! improving move replaces a tour edge with an edge to one of a point's few
//! geometrically nearest neighbours, so it suffices to examine **candidate
//! edges** only:
//!
//! * [`CandidateLists`] — per-point k-nearest-neighbour lists, sorted by
//!   distance and stored back to back in one `n·k` array, built with one
//!   single-pass [`mule_geom::KdTree`] query per point (`O(n·log n)` for
//!   fixed `k`, a constant number of allocations);
//! * [`two_opt_candidates`] — 2-opt restricted to candidate edges, with
//!   *don't-look bits* (a point whose neighbourhood yields no improving move
//!   is skipped until one of its tour edges changes) and shorter-arc
//!   reversals via [`Tour::reverse_arc`];
//! * [`or_opt_candidates`] — chain relocation (lengths 1–3) whose
//!   reinsertion edges come from the chain endpoints' candidate lists,
//!   applied in place by rotating only the array segment between the
//!   chain and the insertion edge.
//!
//! Both searches read distances through [`SearchDist`]. Passed the point
//! coordinates (`&[Point]`), they recompute Euclidean distances on demand,
//! so no `O(n²)` [`DistanceMatrix`] allocation is needed — at n = 5000 the
//! dense matrix alone would cost 200 MB. Passed a `&DistanceMatrix`, they
//! serve non-Euclidean metrics (road networks) whose distances were
//! precomputed once.
//!
//! Like their exact counterparts, both searches only ever *shorten* the
//! tour (acceptance threshold `1e-10`) and terminate when no candidate move
//! improves or the round budget is exhausted. They are deterministic: points
//! are scanned in index order and moves applied eagerly.
//!
//! [`DistanceMatrix`]: crate::DistanceMatrix

use crate::distance_matrix::DistanceMatrix;
use crate::tour::Tour;
use mule_geom::{KdTree, Point};

/// Acceptance threshold shared with the exact local searches: a move must
/// shorten the tour by more than this to be applied, which guards against
/// floating-point churn on already-optimal tours.
const GAIN_EPS: f64 = 1e-10;

/// Where the candidate searches read pairwise distances from.
///
/// Implemented for `&[Point]` (Euclidean distances recomputed from the
/// coordinates on demand, no `O(n²)` state) and for `&DistanceMatrix`
/// (any precomputed metric). Both searches are generic over this trait and
/// monomorphise, so each source compiles to its own tight inner loop. With
/// a matrix, the candidate lists should come from
/// [`CandidateLists::from_matrix`] so "nearest" matches the metric.
pub trait SearchDist {
    /// Distance between points `i` and `j`.
    fn d(&self, i: usize, j: usize) -> f64;
}

impl SearchDist for &[Point] {
    #[inline]
    fn d(&self, i: usize, j: usize) -> f64 {
        dist(self, i, j)
    }
}

impl SearchDist for &DistanceMatrix {
    #[inline]
    fn d(&self, i: usize, j: usize) -> f64 {
        self.get(i, j)
    }
}

/// Per-point k-nearest-neighbour candidate lists, sorted by distance.
#[derive(Debug, Clone)]
pub struct CandidateLists {
    /// Every list is exactly `k` long (after clamping), so the lists are
    /// stored back to back: `lists[i*k..(i+1)*k]` holds the k nearest
    /// neighbours of point `i` (excluding `i` itself), nearest first.
    lists: Vec<u32>,
    k: usize,
    /// Number of points covered.
    n: usize,
}

impl CandidateLists {
    /// Builds k-nearest-neighbour lists over `points` using a kd-tree: one
    /// single-pass [`KdTree::k_nearest_into`] query per point into a reused
    /// buffer, `O(n·log n)` for fixed `k` (the tree's build included), with
    /// a constant number of allocations. The points are queried in the
    /// tree's [preorder](KdTree::preorder), so successive searches walk
    /// mostly the same nodes; each list goes to its own point's row. `k`
    /// is clamped to `points.len() - 1`.
    pub fn build(points: &[Point], k: usize) -> Self {
        let n = points.len();
        let k = k.min(n.saturating_sub(1));
        if k == 0 {
            return CandidateLists {
                lists: Vec::new(),
                k,
                n,
            };
        }
        let tree = KdTree::build(points);
        let mut lists = vec![0u32; n * k];
        let mut hits = Vec::with_capacity(k + 1);
        for i in tree.preorder() {
            // Query k+1 and drop the point itself (duplicates of it at
            // other indices are legitimate candidates). Of k+1 distinct
            // hits at most one is `i`, so the row fills.
            tree.k_nearest_into(&points[i], k + 1, &mut hits);
            let others = hits.iter().filter(|&&(j, _)| j != i);
            for (slot, &(j, _)) in lists[i * k..(i + 1) * k].iter_mut().zip(others) {
                *slot = j as u32;
            }
        }
        CandidateLists { lists, k, n }
    }

    /// Builds k-nearest-neighbour lists from a precomputed distance
    /// matrix — the entry point for non-Euclidean metrics, where "nearest"
    /// must mean nearest *by travel distance* (a road detour can make a
    /// geometric neighbour a poor reconnection candidate). Ties break by
    /// index so the lists are deterministic. `k` is clamped to
    /// `matrix.len() - 1`.
    pub fn from_matrix(matrix: &DistanceMatrix, k: usize) -> Self {
        let n = matrix.len();
        let k = k.min(n.saturating_sub(1));
        let mut lists = Vec::with_capacity(n * k);
        if k == 0 {
            return CandidateLists { lists, k, n };
        }
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let by_distance = |&a: &u32, &b: &u32| {
                matrix
                    .get(i, a as usize)
                    .total_cmp(&matrix.get(i, b as usize))
                    .then(a.cmp(&b))
            };
            order.clear();
            order.extend((0..n as u32).filter(|&j| j as usize != i));
            // Top-k selection, then sort only the survivors: O(n + k log k)
            // per point instead of a full O(n log n) sort. The (distance,
            // index) comparator is a total order, so the selected set —
            // and its sorted order — is exactly what the full sort would
            // produce.
            if k < order.len() {
                order.select_nth_unstable_by(k - 1, by_distance);
                order.truncate(k);
            }
            order.sort_by(by_distance);
            lists.extend_from_slice(&order);
        }
        CandidateLists { lists, k, n }
    }

    /// The neighbour list of point `i`, nearest first.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.lists[i * self.k..(i + 1) * self.k]
    }

    /// The `k` the lists were built with (after clamping).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of points the lists cover.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when built over an empty point set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[inline]
fn dist(points: &[Point], i: usize, j: usize) -> f64 {
    points[i].distance(&points[j])
}

/// 2-opt restricted to candidate edges, with don't-look bits.
///
/// For each "active" point `t1` and each of its two tour edges `(t1, t2)`,
/// only reconnections `(t1, t3)` with `t3` in `t1`'s candidate list are
/// examined; since the list is sorted, the scan stops as soon as
/// `d(t1, t3) ≥ d(t1, t2)` (no such move can improve — the symmetric case
/// is found from `t3`'s own scan). A point with no improving move goes to
/// sleep until a move changes one of its edges.
///
/// Distances come from `dist` (see [`SearchDist`]). `max_rounds` bounds
/// the number of full passes over all points (mirroring the exact
/// `two_opt`'s `max_passes`). Returns the number of improving
/// moves applied; the tour is never lengthened.
pub fn two_opt_candidates<D: SearchDist>(
    tour: &mut Tour,
    dist: D,
    candidates: &CandidateLists,
    max_rounds: usize,
) -> usize {
    let n = tour.len();
    if n < 4 {
        return 0;
    }
    debug_assert_eq!(candidates.len(), n, "candidate lists cover the tour");
    let mut pos = tour.position_index();
    let mut dont_look = vec![false; n];
    let mut moves = 0usize;

    for _ in 0..max_rounds {
        let mut improved_any = false;
        for t1 in 0..n {
            if dont_look[t1] {
                continue;
            }
            let mut improved_here = false;
            // `succ = true` examines edge (t1, succ(t1)); `succ = false`
            // examines edge (pred(t1), t1) from t1's side.
            for succ in [true, false] {
                loop {
                    let p1 = pos[t1];
                    let t2 = if succ {
                        tour.order()[(p1 + 1) % n]
                    } else {
                        tour.order()[(p1 + n - 1) % n]
                    };
                    let d_t1_t2 = dist.d(t1, t2);
                    let mut applied = false;
                    for &c in candidates.neighbors(t1) {
                        let t3 = c as usize;
                        let d_t1_t3 = dist.d(t1, t3);
                        if d_t1_t3 >= d_t1_t2 {
                            break; // sorted list: no shorter new edge left
                        }
                        let p3 = pos[t3];
                        let t4 = if succ {
                            tour.order()[(p3 + 1) % n]
                        } else {
                            tour.order()[(p3 + n - 1) % n]
                        };
                        if t3 == t2 || t4 == t1 {
                            continue; // adjacent edges — reversal is a no-op
                        }
                        let gain = d_t1_t2 + dist.d(t3, t4) - d_t1_t3 - dist.d(t2, t4);
                        if gain > GAIN_EPS {
                            // Removing (t1,t2) and (t3,t4), adding (t1,t3)
                            // and (t2,t4): reverse the run between the two
                            // removed edges.
                            if succ {
                                tour.reverse_arc(pos[t2], pos[t3], &mut pos);
                            } else {
                                tour.reverse_arc(pos[t1], pos[t4], &mut pos);
                            }
                            moves += 1;
                            applied = true;
                            improved_here = true;
                            improved_any = true;
                            for t in [t1, t2, t3, t4] {
                                dont_look[t] = false;
                            }
                            break;
                        }
                    }
                    if !applied {
                        break; // this edge of t1 is locally optimal
                    }
                }
            }
            if !improved_here {
                dont_look[t1] = true;
            }
        }
        if !improved_any {
            break;
        }
    }
    moves
}

/// Or-opt (chain relocation, lengths 1–3) restricted to candidate edges.
///
/// For each active point `a`, the chains starting at `a` are tried against
/// reinsertion edges adjacent to the candidates of the chain's endpoints.
/// The chain may be inserted forward or reversed, whichever is cheaper, and
/// the best improving candidate position is taken. Don't-look bits skip
/// points whose neighbourhood yielded no improving relocation.
///
/// Returns the number of improving relocations applied; the tour is never
/// lengthened.
pub fn or_opt_candidates<D: SearchDist>(
    tour: &mut Tour,
    dist: D,
    candidates: &CandidateLists,
    max_rounds: usize,
) -> usize {
    let n = tour.len();
    if n < 5 {
        return 0;
    }
    debug_assert_eq!(candidates.len(), n, "candidate lists cover the tour");
    let mut pos = tour.position_index();
    let mut order = std::mem::take(tour).into_order();
    let mut dont_look = vec![false; n];
    let mut moves = 0usize;

    for _ in 0..max_rounds {
        let mut improved_any = false;
        for a in 0..n {
            if dont_look[a] {
                continue;
            }
            if let Some(touched) =
                try_relocate_candidates(&mut order, &dist, candidates, a, &mut pos)
            {
                moves += 1;
                improved_any = true;
                for t in touched {
                    dont_look[t] = false;
                }
            } else {
                dont_look[a] = true;
            }
        }
        if !improved_any {
            break;
        }
    }
    *tour = Tour::new(order);
    moves
}

/// Tries the best candidate relocation of the chains of length 1–3 starting
/// at point `a`. On success applies the move to `order` in place, keeps
/// `pos` its position index, and returns the points whose tour edges
/// changed.
fn try_relocate_candidates<D: SearchDist>(
    order: &mut [usize],
    dist: &D,
    candidates: &CandidateLists,
    a: usize,
    pos: &mut [usize],
) -> Option<[usize; 6]> {
    let n = order.len();
    let mut best: Option<(f64, [usize; 3], usize, usize, bool)> = None; // (gain, chain, chain_len, edge_start, reversed)

    for chain_len in 1..=3usize {
        if chain_len >= n - 2 {
            break;
        }
        let start = pos[a];
        let mut chain = [0usize; 3];
        for (s, slot) in chain.iter_mut().enumerate().take(chain_len) {
            *slot = order[(start + s) % n];
        }
        let chain_first = chain[0];
        let chain_last = chain[chain_len - 1];
        let before = order[(start + n - 1) % n];
        let after = order[(start + chain_len) % n];
        if chain[..chain_len].contains(&before) || chain[..chain_len].contains(&after) {
            continue; // chain wraps the whole tour
        }
        let removed =
            dist.d(before, chain_first) + dist.d(chain_last, after) - dist.d(before, after);
        if removed <= GAIN_EPS {
            continue; // excision itself saves nothing; no reinsertion can win
        }

        // Candidate reinsertion edges: (c, succ(c)) for c near either chain
        // endpoint. Scanning both endpoints' lists covers forward and
        // reversed insertions.
        for list in [
            candidates.neighbors(chain_first),
            candidates.neighbors(chain_last),
        ] {
            for &c in list {
                let i = c as usize;
                if chain[..chain_len].contains(&i) || i == before {
                    continue; // edge inside the chain or the excised edge
                }
                let j = order[(pos[i] + 1) % n];
                if chain[..chain_len].contains(&j) {
                    continue;
                }
                let d_i_j = dist.d(i, j);
                let fwd = dist.d(i, chain_first) + dist.d(chain_last, j) - d_i_j;
                let rev = dist.d(i, chain_last) + dist.d(chain_first, j) - d_i_j;
                let (added, reversed) = if rev < fwd { (rev, true) } else { (fwd, false) };
                let gain = removed - added;
                if gain > GAIN_EPS && best.map(|(g, ..)| gain > g).unwrap_or(true) {
                    best = Some((gain, chain, chain_len, i, reversed));
                }
            }
        }
    }

    let (_, chain, chain_len, edge_start, reversed) = best?;
    let chain_first = chain[0];
    let chain_last = chain[chain_len - 1];
    let start = pos[chain_first];
    let before = order[(start + n - 1) % n];
    let after = order[(start + chain_len) % n];
    let edge_end = order[(pos[edge_start] + 1) % n];
    relocate_chain(order, pos, start, chain_len, pos[edge_start], reversed);
    Some([before, after, chain_first, chain_last, edge_start, edge_end])
}

/// Moves the chain at positions `start..start + len` (cyclic) to just after
/// position `edge`, reversed when asked, in place; `pos` stays the position
/// index of `order`.
///
/// The result is exactly the array "remove the chain, then re-insert it
/// after the edge's first point" would give — not merely the same cycle —
/// because the chains of later moves are read in array direction. Only the
/// segment between the chain and the insertion edge is rotated, so a move
/// costs the length of that segment rather than `O(n)`. A chain that wraps
/// past the end of the array is first rotated to the end (the rare `O(n)`
/// case).
pub(crate) fn relocate_chain(
    order: &mut [usize],
    pos: &mut [usize],
    start: usize,
    len: usize,
    edge: usize,
    reversed: bool,
) {
    let n = order.len();
    let (mut start, mut edge) = (start, edge);
    let wraps = start + len > n;
    if wraps {
        let shift = start + len - n;
        order.rotate_left(shift);
        start -= shift;
        edge -= shift;
    }
    let (segment, chain) = if edge < start {
        // The chain moves back: it lands right after `edge`.
        order[edge + 1..start + len].rotate_right(len);
        (edge + 1..start + len, edge + 1..edge + 1 + len)
    } else {
        // The chain moves forward: it lands right after `edge`, whose
        // position drops by `len`.
        order[start..=edge].rotate_left(len);
        (start..edge + 1, edge + 1 - len..edge + 1)
    };
    if reversed {
        order[chain].reverse();
    }
    let dirty = if wraps { 0..n } else { segment };
    for p in dirty {
        pos[order[p]] = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance_matrix::DistanceMatrix;
    use crate::insertion::convex_hull_insertion;
    use crate::test_support::pseudo_random_points;

    /// The splice rebuild `relocate_chain` replaced: drop the chain from
    /// the array, then re-insert it right after `order[edge]`.
    fn splice_oracle(
        order: &[usize],
        start: usize,
        len: usize,
        edge: usize,
        reversed: bool,
    ) -> Vec<usize> {
        let n = order.len();
        let mut chain: Vec<usize> = (0..len).map(|s| order[(start + s) % n]).collect();
        if reversed {
            chain.reverse();
        }
        let mut out = Vec::with_capacity(n);
        for &idx in order {
            if chain.contains(&idx) {
                continue;
            }
            out.push(idx);
            if idx == order[edge] {
                out.extend(&chain);
            }
        }
        out
    }

    /// Every chain (start, length 1–3, either direction) against every
    /// insertion edge the search may pick: the edge may not touch the
    /// chain, nor be the edge just before it.
    #[test]
    fn relocate_chain_matches_the_splice_rebuild() {
        let mut seen = [false; 4]; // before, after, wrapping, reversed
        for n in 5..=9usize {
            // A reversed, rotated start order, so positions and point ids
            // differ.
            let base: Vec<usize> = (0..n).map(|p| (n + 2 - p) % n).collect();
            for start in 0..n {
                for len in 1..=3usize {
                    let in_chain = |p: usize| (p + n - start) % n < len;
                    for edge in 0..n {
                        let before = (start + n - 1) % n;
                        if in_chain(edge) || in_chain((edge + 1) % n) || edge == before {
                            continue;
                        }
                        for reversed in [false, true] {
                            let want = splice_oracle(&base, start, len, edge, reversed);
                            let mut order = base.clone();
                            let mut pos = Tour::new(base.clone()).position_index();
                            relocate_chain(&mut order, &mut pos, start, len, edge, reversed);
                            assert_eq!(
                                order, want,
                                "n {n} start {start} len {len} edge {edge} reversed {reversed}"
                            );
                            assert_eq!(pos, Tour::new(want).position_index());
                            let wraps = start + len > n;
                            seen[usize::from(!wraps && edge > start)] = true;
                            seen[2] |= wraps;
                            seen[3] |= reversed;
                        }
                    }
                }
            }
        }
        assert_eq!(seen, [true; 4], "every relocation shape was exercised");
    }

    #[test]
    fn candidate_lists_are_sorted_and_exclude_self() {
        let pts = pseudo_random_points(40, 3);
        let cand = CandidateLists::build(&pts, 8);
        assert_eq!(cand.len(), 40);
        assert_eq!(cand.k(), 8);
        for i in 0..pts.len() {
            let list = cand.neighbors(i);
            assert_eq!(list.len(), 8);
            assert!(list.iter().all(|&j| j as usize != i));
            for w in list.windows(2) {
                assert!(
                    dist(&pts, i, w[0] as usize) <= dist(&pts, i, w[1] as usize) + 1e-12,
                    "list of {i} is sorted by distance"
                );
            }
        }
    }

    #[test]
    fn candidate_lists_match_brute_force_nearest() {
        let pts = pseudo_random_points(60, 9);
        let cand = CandidateLists::build(&pts, 5);
        for i in 0..pts.len() {
            let mut brute: Vec<usize> = (0..pts.len()).filter(|&j| j != i).collect();
            brute.sort_by(|&a, &b| dist(&pts, i, a).total_cmp(&dist(&pts, i, b)));
            let brute_d: Vec<f64> = brute[..5].iter().map(|&j| dist(&pts, i, j)).collect();
            let got_d: Vec<f64> = cand
                .neighbors(i)
                .iter()
                .map(|&j| dist(&pts, i, j as usize))
                .collect();
            for (g, b) in got_d.iter().zip(&brute_d) {
                assert!((g - b).abs() < 1e-9, "point {i}: {got_d:?} vs {brute_d:?}");
            }
        }
    }

    #[test]
    fn candidate_lists_clamp_k_and_handle_tiny_sets() {
        let pts = pseudo_random_points(3, 1);
        let cand = CandidateLists::build(&pts, 10);
        assert_eq!(cand.k(), 2);
        assert!(!cand.is_empty());
        let empty = CandidateLists::build(&[], 4);
        assert!(empty.is_empty());
        assert_eq!(empty.k(), 0);
        let single = CandidateLists::build(&[Point::ORIGIN], 4);
        assert_eq!(single.k(), 0);
        assert!(single.neighbors(0).is_empty());
    }

    #[test]
    fn candidate_two_opt_uncrosses_and_never_lengthens() {
        for salt in [7u64, 21, 90] {
            let pts = pseudo_random_points(60, salt);
            let cand = CandidateLists::build(&pts, 10);
            let mut tour = Tour::identity(pts.len());
            let before = tour.length(&pts);
            let moves = two_opt_candidates(&mut tour, &pts[..], &cand, 100);
            assert!(moves > 0, "salt {salt}: the identity tour is improvable");
            assert!(tour.is_valid());
            assert!(tour.length(&pts) < before);
        }
    }

    #[test]
    fn candidate_or_opt_relocates_and_never_lengthens() {
        for salt in [5u64, 33] {
            let pts = pseudo_random_points(50, salt);
            let cand = CandidateLists::build(&pts, 10);
            let dm = DistanceMatrix::from_points(&pts);
            let mut tour = convex_hull_insertion(&pts, &dm);
            let before = tour.length(&pts);
            or_opt_candidates(&mut tour, &pts[..], &cand, 100);
            assert!(tour.is_valid());
            assert!(tour.length(&pts) <= before + 1e-9);
        }
    }

    #[test]
    fn candidate_search_matches_exact_quality_closely() {
        // On mid-size instances, candidate-list polishing lands within a
        // couple of percent of the exact all-pairs polishing.
        for salt in [11u64, 47, 101] {
            let pts = pseudo_random_points(120, salt);
            let dm = DistanceMatrix::from_points(&pts);

            let mut exact = convex_hull_insertion(&pts, &dm);
            crate::two_opt(&mut exact, &dm, 30);
            crate::or_opt(&mut exact, &dm, 30);
            crate::two_opt(&mut exact, &dm, 30);

            let cand = CandidateLists::build(&pts, 10);
            let mut fast = convex_hull_insertion(&pts, &dm);
            two_opt_candidates(&mut fast, &pts[..], &cand, 100);
            or_opt_candidates(&mut fast, &pts[..], &cand, 100);
            two_opt_candidates(&mut fast, &pts[..], &cand, 100);

            let ratio = fast.length(&pts) / exact.length(&pts);
            assert!(
                ratio <= 1.02,
                "salt {salt}: candidate search ratio {ratio:.4}"
            );
            assert!(fast.is_valid());
        }
    }

    #[test]
    fn matrix_backed_search_is_byte_identical_to_point_backed() {
        // With a Euclidean matrix, the matrix code path must apply exactly
        // the same moves in the same order as the coordinate code path —
        // the generic core monomorphises over the distance source only.
        for salt in [3u64, 19, 77] {
            let pts = pseudo_random_points(80, salt);
            let dm = DistanceMatrix::from_points(&pts);
            let cand = CandidateLists::build(&pts, 8);

            let mut by_points = Tour::identity(pts.len());
            let mut by_matrix = Tour::identity(pts.len());
            let a = two_opt_candidates(&mut by_points, &pts[..], &cand, 50);
            let b = two_opt_candidates(&mut by_matrix, &dm, &cand, 50);
            assert_eq!(a, b);
            assert_eq!(by_points.order(), by_matrix.order());

            let c = or_opt_candidates(&mut by_points, &pts[..], &cand, 50);
            let d = or_opt_candidates(&mut by_matrix, &dm, &cand, 50);
            assert_eq!(c, d);
            assert_eq!(by_points.order(), by_matrix.order());
        }
    }

    #[test]
    fn from_matrix_lists_are_sorted_by_matrix_distance() {
        let pts = pseudo_random_points(30, 6);
        let dm = DistanceMatrix::from_points(&pts);
        let cand = CandidateLists::from_matrix(&dm, 6);
        assert_eq!(cand.k(), 6);
        for i in 0..pts.len() {
            let list = cand.neighbors(i);
            assert_eq!(list.len(), 6);
            assert!(list.iter().all(|&j| j as usize != i));
            for w in list.windows(2) {
                assert!(dm.get(i, w[0] as usize) <= dm.get(i, w[1] as usize) + 1e-12);
            }
            // Same neighbour *distances* as the kd-tree build (tie order
            // may differ between the two constructions).
            let tree_list = CandidateLists::build(&pts, 6);
            let a: Vec<f64> = list.iter().map(|&j| dm.get(i, j as usize)).collect();
            let b: Vec<f64> = tree_list
                .neighbors(i)
                .iter()
                .map(|&j| dm.get(i, j as usize))
                .collect();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
        let empty = CandidateLists::from_matrix(&DistanceMatrix::from_points(&[]), 4);
        assert!(empty.is_empty());
    }

    #[test]
    fn tiny_tours_are_untouched() {
        let pts = pseudo_random_points(3, 2);
        let cand = CandidateLists::build(&pts, 2);
        let mut tour = Tour::identity(3);
        assert_eq!(two_opt_candidates(&mut tour, &pts[..], &cand, 10), 0);
        assert_eq!(or_opt_candidates(&mut tour, &pts[..], &cand, 10), 0);
        assert_eq!(tour.order(), &[0, 1, 2]);
    }

    #[test]
    fn zero_round_budget_is_a_no_op() {
        let pts = pseudo_random_points(30, 8);
        let cand = CandidateLists::build(&pts, 8);
        let mut tour = Tour::identity(pts.len());
        assert_eq!(two_opt_candidates(&mut tour, &pts[..], &cand, 0), 0);
        assert_eq!(or_opt_candidates(&mut tour, &pts[..], &cand, 0), 0);
        assert_eq!(tour.order(), Tour::identity(pts.len()).order());
    }

    #[test]
    fn duplicate_points_are_handled() {
        let mut pts = pseudo_random_points(20, 4);
        pts.push(pts[0]);
        pts.push(pts[5]);
        let cand = CandidateLists::build(&pts, 6);
        let mut tour = Tour::identity(pts.len());
        let before = tour.length(&pts);
        two_opt_candidates(&mut tour, &pts[..], &cand, 50);
        or_opt_candidates(&mut tour, &pts[..], &cand, 50);
        assert!(tour.is_valid());
        assert!(tour.length(&pts) <= before + 1e-9);
    }
}
