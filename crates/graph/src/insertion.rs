//! Insertion-based tour construction.
//!
//! Three variants:
//!
//! * [`convex_hull_insertion`] — the "CHB" construction of reference \[5\]
//!   that every TCTP planner starts from: begin with the convex hull of the
//!   targets (already a tour of the boundary points) and repeatedly insert
//!   the interior point whose cheapest insertion position is cheapest. This
//!   is the **exact** formulation over the full distance matrix, kept
//!   byte-for-byte stable because golden tests pin its tours. Each point
//!   caches its cheapest position, so an insertion rescans only the points
//!   whose cached edge it split. Measured on uniform points (the scaling
//!   run in docs/PERFORMANCE.md) it grows as about `n^2.3` from 50 to 200
//!   points and `n^2.7` from 200 to 1,000.
//! * [`convex_hull_insertion_incremental`] — the same greedy rule made
//!   scalable: each interior point keeps the offers it took, and the points
//!   wait in a min-queue with one slot each, keyed by their cheapest cost;
//!   an insertion offers its two new edges only to the points a 2-d tree
//!   cannot rule out, and a point whose cached edge was split is re-scored
//!   through the same tree. No dense distance matrix. Measured on uniform
//!   points (`patrolctl bench-tours`, docs/PERFORMANCE.md) the construction
//!   grows as about `n^1.4`; exact cost ties can still force full cycle
//!   scans. Tie-breaking differs from the exact variant (queue order vs.
//!   scan order), so tours can differ
//!   *by bytes* on exact cost ties while the greedy rule — and hence
//!   quality — is identical.
//! * [`cheapest_insertion`] — classic cheapest insertion seeded with the
//!   farthest-apart pair (found via convex-hull rotating calipers, with the
//!   `O(n²)` matrix scan as the degenerate-hull fallback); used for
//!   cross-checking and the path-length table.

use crate::distance_matrix::DistanceMatrix;
use crate::tour::Tour;
use mule_geom::{convex_hull, hull_diameter, BoundingBox, Point};

/// Cost of inserting point `k` between consecutive tour points `i` and `j`:
/// `d(i,k) + d(k,j) − d(i,j)`.
#[inline]
fn insertion_cost(dm: &DistanceMatrix, i: usize, j: usize, k: usize) -> f64 {
    dm.get(i, k) + dm.get(k, j) - dm.get(i, j)
}

/// Finds the cheapest position (edge index in the current order) at which to
/// insert `k`, returning `(position, cost)`.
fn cheapest_position(dm: &DistanceMatrix, order: &[usize], k: usize) -> (usize, f64) {
    let n = order.len();
    debug_assert!(n >= 1);
    if n == 1 {
        return (0, 2.0 * dm.get(order[0], k));
    }
    let mut best_pos = 0;
    let mut best_cost = f64::INFINITY;
    for pos in 0..n {
        let i = order[pos];
        let j = order[(pos + 1) % n];
        let c = insertion_cost(dm, i, j, k);
        if c < best_cost {
            best_cost = c;
            best_pos = pos;
        }
    }
    (best_pos, best_cost)
}

/// Convex-hull insertion ("CHB" construction).
///
/// 1. The convex hull of the points forms the initial sub-tour.
/// 2. While interior points remain, pick the (point, edge) pair with the
///    globally cheapest insertion cost and splice the point into that edge.
///
/// Returns a trivial tour for fewer than two points.
pub fn convex_hull_insertion(points: &[Point], dm: &DistanceMatrix) -> Tour {
    let n = points.len();
    if n <= 2 {
        return Tour::identity(n);
    }

    let (order, in_tour) = hull_seed(points);
    insert_cheapest_first(dm, order, &in_tour)
}

/// Grows the sub-tour `order` to a full tour: while points remain outside
/// it (`!in_tour`), splices in the one whose cheapest insertion is
/// cheapest.
///
/// Each remaining point caches its first cheapest position and cost, as
/// [`cheapest_position`] would return them. An insertion into edge `pos`
/// replaces that edge by the new edges `pos` and `pos + 1` and shifts every
/// later edge by one, so only a point whose cached edge was `pos` rescans
/// the tour; every other point compares its cache with the two new edges,
/// which win cost ties exactly when they come first in the tour. The
/// caches therefore always equal a full rescan, bit for bit, and the
/// construction does `O(n)` work per insertion plus one `O(n)` rescan per
/// point whose edge was split, instead of rescanning every point.
fn insert_cheapest_first(dm: &DistanceMatrix, mut order: Vec<usize>, in_tour: &[bool]) -> Tour {
    let mut remaining: Vec<usize> = (0..in_tour.len()).filter(|&i| !in_tour[i]).collect();
    let mut cached: Vec<(usize, f64)> = remaining
        .iter()
        .map(|&k| cheapest_position(dm, &order, k))
        .collect();
    order.reserve_exact(remaining.len());
    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, f64)> = None; // (remaining slot, pos, cost)
        for (slot, &(pos, cost)) in cached.iter().enumerate() {
            if best.map(|(_, _, b)| cost < b).unwrap_or(true) {
                best = Some((slot, pos, cost));
            }
        }
        let (slot, pos, _) = best.expect("remaining is non-empty");
        let k = remaining.swap_remove(slot);
        cached.swap_remove(slot);
        let (a, b) = (order[pos], order[(pos + 1) % order.len()]);
        order.insert((pos + 1).min(order.len()), k);
        for (&q, entry) in remaining.iter().zip(cached.iter_mut()) {
            let (cached_pos, cached_cost) = *entry;
            if cached_pos == pos {
                *entry = cheapest_position(dm, &order, q);
                continue;
            }
            // The first strict minimum over the cached edge and the two
            // new ones, in tour order.
            let first = (pos, insertion_cost(dm, a, k, q));
            let second = (pos + 1, insertion_cost(dm, k, b, q));
            let in_order = if cached_pos < pos {
                [(cached_pos, cached_cost), first, second]
            } else {
                [first, second, (cached_pos + 1, cached_cost)]
            };
            *entry = in_order
                .into_iter()
                .reduce(|best, c| if c.1 < best.1 { c } else { best })
                .expect("three candidates");
        }
    }
    Tour::new(order)
}

/// Seeds the insertion order with the convex-hull vertices mapped back to
/// their indices in `points`. The hull returns coordinates, so match by
/// proximity (points are deduplicated by the hull, so ties pick the first
/// matching index deterministically). Degenerate hulls (all points
/// collinear) may cover < 3 points; an empty mapping falls back to point 0.
fn hull_seed(points: &[Point]) -> (Vec<usize>, Vec<bool>) {
    let n = points.len();
    let hull = convex_hull(points);
    let mut in_tour = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for hp in &hull {
        if let Some(idx) = points
            .iter()
            .enumerate()
            .filter(|(i, p)| !in_tour[*i] && p.distance_squared(hp) <= 1e-18)
            .map(|(i, _)| i)
            .next()
        {
            in_tour[idx] = true;
            order.push(idx);
        }
    }
    if order.is_empty() {
        order.push(0);
        in_tour[0] = true;
    }
    (order, in_tour)
}

/// The remaining points of the incremental insertion, in an indexed binary
/// min-heap with one slot per point, keyed by `(key[q], q)`: cost by
/// `total_cmp`, then point index. `key[q]` is the cheapest offer in `q`'s
/// list, so the top point holds the cheapest offer of all.
struct PointQueue {
    key: Vec<f64>,
    heap: Vec<u32>,
    /// `slot[q]` = the position of `q` in `heap`.
    slot: Vec<u32>,
}

impl PointQueue {
    /// A queue of `points`, keyed by `key`.
    fn new(key: Vec<f64>, points: impl Iterator<Item = usize>) -> Self {
        let mut queue = PointQueue {
            slot: vec![u32::MAX; key.len()],
            heap: Vec::with_capacity(key.len()),
            key,
        };
        for q in points {
            queue.slot[q] = queue.heap.len() as u32;
            queue.heap.push(q as u32);
            queue.sift_up(queue.heap.len() - 1);
        }
        queue
    }

    fn top(&self) -> Option<usize> {
        self.heap.first().map(|&q| q as usize)
    }

    /// `true` when `a` pops before `b`.
    fn before(&self, a: u32, b: u32) -> bool {
        let (ka, kb) = (self.key[a as usize], self.key[b as usize]);
        ka.total_cmp(&kb).then(a.cmp(&b)).is_lt()
    }

    fn place(&mut self, at: usize, q: u32) {
        self.heap[at] = q;
        self.slot[q as usize] = at as u32;
    }

    fn sift_up(&mut self, mut at: usize) {
        let q = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if !self.before(q, self.heap[parent]) {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, q);
    }

    fn sift_down(&mut self, mut at: usize) {
        let q = self.heap[at];
        loop {
            let mut child = 2 * at + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.before(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            if !self.before(self.heap[child], q) {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, q);
    }

    /// Records that `q` took an offer of `cost`.
    fn offer(&mut self, q: usize, cost: f64) {
        if cost.total_cmp(&self.key[q]).is_lt() {
            self.key[q] = cost;
            self.sift_up(self.slot[q] as usize);
        }
    }

    /// Re-keys the top point to `key`, never below its old key.
    fn raise_top(&mut self, key: f64) {
        self.key[self.heap[0] as usize] = key;
        self.sift_down(0);
    }

    fn pop(&mut self) {
        let last = self.heap.pop().expect("pop of an empty queue");
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
    }
}

/// One offer a remaining point took: inserting it into the edge
/// `(from, to)` costs `cost`. A link in that point's list.
#[derive(Debug, Clone, Copy)]
struct TakenOffer {
    cost: f64,
    from: u32,
    to: u32,
    /// The next offer in the same list (or free list); `NIL` ends it.
    next: u32,
}

const NIL: u32 = u32::MAX;

/// Every offer each remaining point took, as one linked list per point in
/// a shared arena. A list's head is its point's *live* offer: of those
/// that cost `best_cost`, the one with the smallest edge `(from, to)`.
/// Freed lists are reused whole, so the arena stops growing once it holds
/// the most offers ever kept at once.
struct OfferLists {
    arena: Vec<TakenOffer>,
    head: Vec<u32>,
    tail: Vec<u32>,
    free: u32,
}

impl OfferLists {
    fn new(n: usize) -> Self {
        OfferLists {
            arena: Vec::with_capacity(n),
            head: vec![NIL; n],
            tail: vec![NIL; n],
            free: NIL,
        }
    }

    /// Records an offer at the head of `q`'s list: the live one when it
    /// is below `best_cost` (an accepted offer) or `q` held none.
    fn push(&mut self, q: usize, cost: f64, from: usize, to: usize) {
        let offer = TakenOffer {
            cost,
            from: from as u32,
            to: to as u32,
            next: self.head[q],
        };
        let at = if self.free == NIL {
            self.arena.push(offer);
            (self.arena.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.arena[at as usize].next;
            self.arena[at as usize] = offer;
            at
        };
        if self.head[q] == NIL {
            self.tail[q] = at;
        }
        self.head[q] = at;
    }

    /// The edge of `q`'s live offer.
    fn live(&self, q: usize) -> (usize, usize) {
        let o = self.arena[self.head[q] as usize];
        (o.from as usize, o.to as usize)
    }

    /// Unlinks the offer at `at`, which `link` points to (`NIL`: the head
    /// of `q`'s list).
    fn unlink(&mut self, q: usize, link: u32, at: u32) {
        let after = self.arena[at as usize].next;
        if link == NIL {
            self.head[q] = after;
        } else {
            self.arena[link as usize].next = after;
        }
        if self.tail[q] == at {
            self.tail[q] = link;
        }
    }

    /// Returns an unlinked offer to the free list.
    fn release(&mut self, at: u32) {
        self.arena[at as usize].next = self.free;
        self.free = at;
    }

    /// Frees `q`'s live offer, whose edge is gone, and records the offer
    /// of a rescore at `cost`. The new live offer is the one at `cost` —
    /// the rescore's or an older, superseded one — with the smallest edge.
    /// Returns the cost of `q`'s cheapest offer.
    fn rescored(&mut self, q: usize, cost: f64, from: usize, to: usize) -> f64 {
        let gone = self.head[q];
        self.unlink(q, NIL, gone);
        self.release(gone);
        self.push(q, cost, from, to);
        let mut cheapest = f64::INFINITY;
        let mut live = (NIL, self.head[q], (from as u32, to as u32)); // (link, offer, edge)
        let (mut link, mut at) = (NIL, self.head[q]);
        while at != NIL {
            let o = self.arena[at as usize];
            cheapest = cheapest.min(o.cost);
            if o.cost.to_bits() == cost.to_bits() && (o.from, o.to) < live.2 {
                live = (link, at, (o.from, o.to));
            }
            (link, at) = (at, o.next);
        }
        if live.0 != NIL {
            self.unlink(q, live.0, live.1);
            self.arena[live.1 as usize].next = self.head[q];
            self.head[q] = live.1;
        }
        cheapest
    }

    /// Frees every offer of `q` that costs `cost`, which is below the live
    /// offer's, and returns the cost of the cheapest one left.
    fn drop_cost(&mut self, q: usize, cost: f64) -> f64 {
        let mut cheapest = f64::INFINITY;
        let (mut link, mut at) = (NIL, self.head[q]);
        while at != NIL {
            let o = self.arena[at as usize];
            if o.cost.to_bits() == cost.to_bits() {
                self.unlink(q, link, at);
                self.release(at);
            } else {
                cheapest = cheapest.min(o.cost);
                link = at;
            }
            at = o.next;
        }
        cheapest
    }

    /// Frees all of `q`'s offers.
    fn clear(&mut self, q: usize) {
        if self.head[q] != NIL {
            self.arena[self.tail[q] as usize].next = self.free;
            self.free = self.head[q];
            self.head[q] = NIL;
        }
    }
}

/// Points per leaf of the [`InsertionTree`]. Leaves evaluate the exact
/// costs and no result depends on the scan order within a leaf, so the
/// size trades only pruning work against scanning work: at 32 the
/// insertion of 3,000 uniform targets takes about 11 % less time than at
/// 8 (see `docs/PERFORMANCE.md`).
const TREE_LEAF: usize = 32;

/// Relative slack subtracted from an [`InsertionTree`] lower bound before
/// it is compared. Both bounds are already exact under IEEE rounding (see
/// [`InsertionTree::offer`]); the slack only makes pruning more
/// conservative.
const TREE_SLACK: f64 = 1e-9;

/// A box that contains nothing yet; [`BoundingBox::expand_to`] grows it
/// from the first point it is given.
const EMPTY_BOX: BoundingBox = BoundingBox {
    min_x: f64::INFINITY,
    min_y: f64::INFINITY,
    max_x: f64::NEG_INFINITY,
    max_y: f64::NEG_INFINITY,
};

/// One node of the [`InsertionTree`].
#[derive(Debug, Clone, Copy)]
struct TreeNode {
    /// Box around every point below the node.
    bbox: BoundingBox,
    /// `≥ best_cost[q]` for every remaining point `q` below the node
    /// (`-∞` once none remain). Starts at `+∞`; offer walks tighten it.
    bound: f64,
    /// Box around both endpoints of every cycle edge `(a, next[a])` whose
    /// first point `a` is below the node.
    edge_box: BoundingBox,
    /// `≥ d(a, next[a])` for each of those edges; `-∞` while none exist.
    edge_len: f64,
    /// The node's points are `items[lo..hi]`. A leaf keeps its remaining
    /// points in `items[lo..mid]` and its cycle points in `items[mid..hi]`.
    lo: u32,
    mid: u32,
    hi: u32,
    /// Right child (the left child is the next node in preorder); `0` for
    /// a leaf, since the root is never a child.
    right: u32,
    /// Parent node; `u32::MAX` for the root.
    parent: u32,
}

/// The current cycle of the incremental insertion: successor links, the
/// length of the edge leaving each point, and the anchor every scan starts
/// from.
struct Cycle {
    anchor: usize,
    /// `next[i]` = the point visited after `i` (`usize::MAX` off-cycle).
    next: Vec<usize>,
    /// `len_next[i]` = `d(i, next[i])`.
    len_next: Vec<f64>,
}

impl Cycle {
    /// The cheapest edge of the cycle to insert `q` into, as
    /// `(cost, from)`, by scanning every edge from the anchor: the first
    /// edge with the strictly smallest cost wins. Each edge's cost is
    /// `d(i,q) + d(q,j) − d(i,j)`, evaluated left to right as everywhere
    /// else; `d(q,j)` is reused as the next edge's `d(j,q)`, which is the
    /// same value bit for bit (negating a coordinate difference is exact).
    fn scan_cheapest(&self, points: &[Point], q: usize) -> (f64, usize) {
        let mut best = (f64::INFINITY, self.anchor);
        let mut i = self.anchor;
        let mut d_iq = points[i].distance(&points[q]);
        loop {
            let j = self.next[i];
            let d_qj = points[q].distance(&points[j]);
            let c = d_iq + d_qj - self.len_next[i];
            if c < best.0 {
                best = (c, i);
            }
            i = j;
            d_iq = d_qj;
            if i == self.anchor {
                return best;
            }
        }
    }
}

/// A static 2-d tree over all points that serves both searches of the
/// incremental insertion.
///
/// * **Offers.** A point `q` takes an offer of edge `(a, b)` only when
///   `d(a,q) + d(q,b) − d(a,b) < best_cost[q]`. For every `q` in a box `B`
///   that cost is at least `d(a,B) + d(b,B) − d(a,b)`, so a subtree whose
///   lower bound is not below its cached-cost bound cannot hold a taker
///   and is skipped ([`InsertionTree::offer`]).
/// * **Rescores.** For every cycle edge `(a, b)` leaving a point below a
///   node, the cost of inserting `q` is at least `2·d(q, E) − L`, where `E`
///   boxes both endpoints and `L` bounds the edge length, so a search for
///   the cheapest edge skips subtrees whose bound exceeds the best cost
///   found ([`InsertionTree::cheapest_edge`]).
///
/// Leaves evaluate the exact cost expressions, so the accepted offers and
/// the chosen edges — hence every taken offer and every tour — are those
/// of scanning all remaining points and all cycle edges. Neither result
/// depends on the scan order within a leaf: offers are per point, and a
/// rescore keeps the minimum cost and counts its ties.
struct InsertionTree {
    nodes: Vec<TreeNode>,
    /// Point indices, grouped by leaf.
    items: Vec<u32>,
    /// `xy[i]` = the coordinates of `items[i]`.
    xy: Vec<Point>,
    /// Leaf holding each point.
    leaf_of: Vec<u32>,
}

/// The running answer of [`InsertionTree::cheapest_edge`].
struct Cheapest {
    cost: f64,
    from: usize,
    /// Edges found at exactly `cost`.
    ties: usize,
}

impl InsertionTree {
    /// Builds the tree over `points`, with no cycle edges and every offer
    /// bound at `+∞`.
    fn build(points: &[Point]) -> Self {
        let n = points.len();
        let mut tree = InsertionTree {
            nodes: Vec::with_capacity(2 * n / TREE_LEAF + 1),
            items: (0..n as u32).collect(),
            xy: Vec::new(),
            leaf_of: vec![u32::MAX; n],
        };
        if n > 0 {
            tree.split(points, 0, n, u32::MAX);
        }
        tree.xy = tree.items.iter().map(|&q| points[q as usize]).collect();
        tree
    }

    /// Appends the subtree over `items[lo..hi]` in preorder (median split
    /// across the wider side of its box) and returns its node index.
    fn split(&mut self, points: &[Point], lo: usize, hi: usize, parent: u32) -> u32 {
        let run = &mut self.items[lo..hi];
        let mut bbox = EMPTY_BOX;
        for &i in run.iter() {
            bbox.expand_to(&points[i as usize]);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(TreeNode {
            bbox,
            bound: f64::INFINITY,
            edge_box: EMPTY_BOX,
            edge_len: f64::NEG_INFINITY,
            lo: lo as u32,
            mid: hi as u32,
            hi: hi as u32,
            right: 0,
            parent,
        });
        if hi - lo <= TREE_LEAF {
            for &i in run.iter() {
                self.leaf_of[i as usize] = id;
            }
            return id;
        }
        let mid = (hi - lo) / 2;
        let along_x = bbox.width() >= bbox.height();
        run.select_nth_unstable_by(mid, |&a, &b| {
            let (pa, pb) = (points[a as usize], points[b as usize]);
            if along_x {
                pa.x.total_cmp(&pb.x)
            } else {
                pa.y.total_cmp(&pb.y)
            }
        });
        self.split(points, lo, lo + mid, id);
        self.nodes[id as usize].right = self.split(points, lo + mid, hi, id);
        id
    }

    /// Moves `point` from its leaf's remaining run to its cycle run.
    fn join_cycle(&mut self, point: usize) {
        let leaf = &mut self.nodes[self.leaf_of[point] as usize];
        let at = (leaf.lo as usize..leaf.mid as usize)
            .find(|&i| self.items[i] as usize == point)
            .expect("a point joins the cycle once");
        leaf.mid -= 1;
        self.items.swap(at, leaf.mid as usize);
        self.xy.swap(at, leaf.mid as usize);
    }

    /// Records that `point`'s cached cost rose to `cost` (a rescore), so
    /// every offer bound on its root path covers it again.
    fn raise(&mut self, point: usize, cost: f64) {
        let mut node = self.leaf_of[point];
        while node != u32::MAX && self.nodes[node as usize].bound < cost {
            self.nodes[node as usize].bound = cost;
            node = self.nodes[node as usize].parent;
        }
    }

    /// Records the cycle edge `(from, to)` of length `len` on every node
    /// above `from`. Edges that left the cycle stay covered until a search
    /// re-tightens the node, which only makes the bounds looser.
    fn add_edge(&mut self, points: &[Point], from: usize, to: usize, len: f64) {
        let mut node = self.leaf_of[from];
        while node != u32::MAX {
            let n = &mut self.nodes[node as usize];
            n.edge_box.expand_to(&points[from]);
            n.edge_box.expand_to(&points[to]);
            n.edge_len = n.edge_len.max(len);
            node = n.parent;
        }
    }

    /// Sets an internal node's edge box and length bound to the union of
    /// its children's.
    fn tighten_edges(&mut self, node: usize) {
        let (l, r) = (
            self.nodes[node + 1],
            self.nodes[self.nodes[node].right as usize],
        );
        let mut edge_box = EMPTY_BOX;
        for child in [l, r] {
            if child.edge_len > f64::NEG_INFINITY {
                edge_box.expand_to(&Point::new(child.edge_box.min_x, child.edge_box.min_y));
                edge_box.expand_to(&Point::new(child.edge_box.max_x, child.edge_box.max_y));
            }
        }
        let n = &mut self.nodes[node];
        n.edge_box = edge_box;
        n.edge_len = l.edge_len.max(r.edge_len);
    }
}

/// One insertion's offer walk: inserting `k` into `(e, f)` created the
/// edges `(e, k)` and `(k, f)`, of lengths `d_ek` and `d_kf`.
struct Offer<'a> {
    e: usize,
    k: usize,
    f: usize,
    d_ek: f64,
    d_kf: f64,
    points: &'a [Point],
    best_cost: &'a mut [f64],
    queue: &'a mut PointQueue,
    lists: &'a mut OfferLists,
}

impl InsertionTree {
    /// Offers the two new edges to every remaining point below `node` that
    /// could take one, tightening the offer bounds it passes on the way
    /// back up.
    ///
    /// The skip test is exact, not approximate: box distances are computed
    /// from the same coordinate differences as point distances, only
    /// clamped towards zero, and IEEE addition, multiplication and square
    /// root are monotone — so the computed lower bound never exceeds the
    /// computed offer cost of any point in the box. The same argument
    /// covers [`InsertionTree::cheapest_edge`].
    fn offer(&mut self, node: usize, o: &mut Offer) {
        let n = self.nodes[node];
        let pts = o.points;
        let d_kb = n.bbox.distance_squared_to(&pts[o.k]).sqrt();
        let d_eb = n.bbox.distance_squared_to(&pts[o.e]).sqrt();
        let d_fb = n.bbox.distance_squared_to(&pts[o.f]).sqrt();
        let lower = (d_eb + d_kb - o.d_ek).min(d_kb + d_fb - o.d_kf);
        if lower - TREE_SLACK * (d_kb + o.d_ek + o.d_kf) >= n.bound {
            return; // no remaining point below can take either edge
        }
        let bound = if n.right == 0 {
            self.offer_leaf(n.lo as usize..n.mid as usize, o)
        } else {
            self.offer(node + 1, o);
            self.offer(n.right as usize, o);
            self.nodes[node + 1]
                .bound
                .max(self.nodes[n.right as usize].bound)
        };
        self.nodes[node].bound = bound;
    }

    /// The exact offer to each point of one leaf's remaining run — the
    /// same expression, bit for bit, as scoring the two edges directly —
    /// and returns the leaf's tightened bound.
    fn offer_leaf(&self, run: std::ops::Range<usize>, o: &mut Offer) -> f64 {
        let pts = o.points;
        let (e, k, f) = (o.e, o.k, o.f);
        let mut bound = f64::NEG_INFINITY;
        for (&q, pq) in self.items[run.clone()].iter().zip(&self.xy[run]) {
            let q = q as usize;
            // `d(q,k)` equals `d(k,q)` bit for bit, so both edges share it.
            let d_qk = pq.distance(&pts[k]);
            let via_e = pts[e].distance(pq) + d_qk - o.d_ek;
            let via_f = d_qk + pq.distance(&pts[f]) - o.d_kf;
            let (cost, from, to) = if via_e <= via_f {
                (via_e, e, k)
            } else {
                (via_f, k, f)
            };
            if cost < o.best_cost[q] {
                o.best_cost[q] = cost;
                o.lists.push(q, cost, from, to);
                o.queue.offer(q, cost);
            }
            bound = bound.max(o.best_cost[q]);
        }
        bound
    }

    /// The cheapest cycle edge to insert `q` into, as `(cost, from)`, when
    /// exactly one edge attains that cost; `None` on an exact tie, where
    /// the winner is the first tied edge in cycle order and only
    /// [`Cycle::scan_cheapest`] knows that order.
    fn cheapest_edge(&mut self, points: &[Point], cycle: &Cycle, q: usize) -> Option<(f64, usize)> {
        let mut best = Cheapest {
            cost: f64::INFINITY,
            from: cycle.anchor,
            ties: 0,
        };
        self.cheapest_below(0, points, cycle, q, &mut best);
        (best.ties == 1).then_some((best.cost, best.from))
    }

    /// Lower bound on the cost of inserting `q` into any cycle edge that
    /// leaves a point below `node`, loosened by the slack; `None` when no
    /// such edge exists.
    fn edge_lower(&self, node: usize, q: &Point) -> Option<f64> {
        let n = &self.nodes[node];
        if n.edge_len == f64::NEG_INFINITY {
            return None;
        }
        let d = n.edge_box.distance_squared_to(q).sqrt();
        let lower = d + d - n.edge_len;
        Some(lower - TREE_SLACK * (d + d + n.edge_len))
    }

    /// Scores the cycle edges below `node` whose bound does not exceed the
    /// best cost found so far, re-tightening the edge bounds it passes.
    fn cheapest_below(
        &mut self,
        node: usize,
        points: &[Point],
        cycle: &Cycle,
        q: usize,
        best: &mut Cheapest,
    ) {
        let n = self.nodes[node];
        if n.right != 0 {
            let (l, r) = (node + 1, n.right as usize);
            let (lower_l, lower_r) = (
                self.edge_lower(l, &points[q]),
                self.edge_lower(r, &points[q]),
            );
            let order = if lower_r < lower_l {
                [(r, lower_r), (l, lower_l)]
            } else {
                [(l, lower_l), (r, lower_r)]
            };
            for (child, lower) in order {
                if lower.is_some_and(|lower| lower <= best.cost) {
                    self.cheapest_below(child, points, cycle, q, best);
                }
            }
            self.tighten_edges(node);
            return;
        }
        let mut edge_box = EMPTY_BOX;
        let mut edge_len = f64::NEG_INFINITY;
        let (pq, run) = (points[q], n.mid as usize..n.hi as usize);
        for (&a, pa) in self.items[run.clone()].iter().zip(&self.xy[run]) {
            let a = a as usize;
            let b = cycle.next[a];
            let c = pa.distance(&pq) + pq.distance(&points[b]) - cycle.len_next[a];
            if c < best.cost {
                *best = Cheapest {
                    cost: c,
                    from: a,
                    ties: 1,
                };
            } else if c == best.cost {
                best.ties += 1;
            }
            edge_box.expand_to(pa);
            edge_box.expand_to(&points[b]);
            edge_len = edge_len.max(cycle.len_next[a]);
        }
        let leaf = &mut self.nodes[node];
        leaf.edge_box = edge_box;
        leaf.edge_len = edge_len;
    }
}

/// Convex-hull insertion with incremental re-scoring — the scalable twin of
/// [`convex_hull_insertion`].
///
/// The tour lives in a successor-linked list (`next[i]` = the point visited
/// after `i`), so splicing is `O(1)`. Every remaining interior point keeps
/// each offer it took, as `(cost, edge)`, in a list of its own, and its
/// `best_cost`: the cheapest offer since its last rescore. Together the
/// lists are a lazy heap of every offer, ordered `(cost, point, from,
/// to)`, split by point: the points wait in a min-queue with one slot each,
/// keyed by their cheapest offer, so the top point holds the cheapest offer
/// of all. At the top point:
///
/// * offers cheaper than `best_cost` are dead — a rescore raised the cost
///   past them, and their edges are gone — and are dropped, one cost at a
///   time, in the order the lazy heap would pop them;
/// * otherwise the offer at `best_cost` with the smallest edge `(from, to)`
///   is taken; if that edge was split by an earlier insertion, the point is
///   re-scored against the current cycle and re-keyed;
/// * otherwise the point is spliced into that edge and its list is freed.
///
/// An offer superseded by a cheaper one stays in its list, and so does a
/// dead one until the lazy heap would pop it: a later rescore or offer can
/// bring the point back to its exact cost, and on that cost tie its edge
/// may be the one that wins (or, when gone, forces the rescore that does).
///
/// After each insertion splits edge `(e, f)` into `(e, k)`/`(k, f)`, the two
/// *new* edges are offered to the remaining points. An `InsertionTree`
/// confines both searches — offers and rescores — to the subtrees that can
/// change their outcome, and falls back to a full cycle scan only when a
/// rescore ties exactly. Every cached cost stays at or below the true
/// minimum over the current edges, and equals it whenever its offer's edge
/// still exists, so the greedy selection rule is exactly that of the
/// all-pairs variant, up to tie order.
///
/// Works straight off the point coordinates; no distance matrix needed.
pub fn convex_hull_insertion_incremental(points: &[Point]) -> Tour {
    let n = points.len();
    if n <= 2 {
        return Tour::identity(n);
    }

    let (order, in_tour) = hull_seed(points);
    let d = |i: usize, j: usize| points[i].distance(&points[j]);

    // A single seeded point forms the self-loop (a, a), whose generic
    // insertion cost `d(a,k) + d(k,a) − d(a,a)` is exactly the 2·d(a,k) the
    // exact variant special-cases.
    let mut cycle = Cycle {
        anchor: order[0],
        next: vec![usize::MAX; n],
        len_next: vec![0.0; n],
    };
    let mut tree = InsertionTree::build(points);
    for (s, &i) in order.iter().enumerate() {
        let j = order[(s + 1) % order.len()];
        cycle.next[i] = j;
        cycle.len_next[i] = d(i, j);
        tree.join_cycle(i);
        tree.add_edge(points, i, j, cycle.len_next[i]);
    }

    // Scores `k` against every edge of the current cycle (the recompute
    // path for stale caches): `(cost, from, to)`.
    let rescore = |k: usize, tree: &mut InsertionTree, cycle: &Cycle| {
        let (cost, from) = tree
            .cheapest_edge(points, cycle, k)
            .unwrap_or_else(|| cycle.scan_cheapest(points, k));
        (cost, from, cycle.next[from])
    };

    let mut lists = OfferLists::new(n);
    let mut best_cost = vec![f64::INFINITY; n];
    for k in (0..n).filter(|&k| !in_tour[k]) {
        let (cost, from, to) = rescore(k, &mut tree, &cycle);
        lists.push(k, cost, from, to);
        best_cost[k] = cost;
    }
    let mut queue = PointQueue::new(best_cost.clone(), (0..n).filter(|&k| !in_tour[k]));

    while let Some(k) = queue.top() {
        let cost = queue.key[k];
        if cost.to_bits() != best_cost[k].to_bits() {
            // A rescore raised the point's cost past these offers; their
            // edges are gone.
            queue.raise_top(lists.drop_cost(k, cost));
            continue;
        }
        let (e, f) = lists.live(k);
        if cycle.next[e] != f {
            // The edge was split since the offer was taken: re-score
            // against the current cycle.
            let (cost, from, to) = rescore(k, &mut tree, &cycle);
            best_cost[k] = cost;
            queue.raise_top(lists.rescored(k, cost, from, to));
            tree.raise(k, cost);
            continue;
        }
        queue.pop();
        lists.clear(k);

        // Splice k into (e, f) and offer the two new edges.
        cycle.next[e] = k;
        cycle.next[k] = f;
        cycle.len_next[e] = d(e, k);
        cycle.len_next[k] = d(k, f);
        tree.join_cycle(k);
        tree.add_edge(points, e, k, cycle.len_next[e]);
        tree.add_edge(points, k, f, cycle.len_next[k]);
        if queue.top().is_some() {
            let mut offer = Offer {
                e,
                k,
                f,
                d_ek: cycle.len_next[e],
                d_kf: cycle.len_next[k],
                points,
                best_cost: &mut best_cost,
                queue: &mut queue,
                lists: &mut lists,
            };
            tree.offer(0, &mut offer);
        }
    }

    // Unlink the cycle back into an order vector, starting at the hull
    // anchor for determinism.
    let mut final_order = Vec::with_capacity(n);
    let mut i = cycle.anchor;
    loop {
        final_order.push(i);
        i = cycle.next[i];
        if i == cycle.anchor {
            break;
        }
    }
    debug_assert_eq!(final_order.len(), n);
    Tour::new(final_order)
}

/// Maps one hull vertex back to its index in `points` (first match wins,
/// like the hull seeding).
fn hull_point_index(points: &[Point], hp: &Point) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .find(|(_, p)| p.distance_squared(hp) <= 1e-18)
        .map(|(i, _)| i)
}

/// The farthest-apart pair of `points`, found in `O(n log n)` via the
/// convex hull's rotating-calipers diameter; falls back to the `O(n²)`
/// matrix scan when the hull is degenerate (< 2 usable vertices).
fn farthest_pair_via_hull(points: &[Point], dm: &DistanceMatrix) -> Option<(usize, usize)> {
    let hull = convex_hull(points);
    if let Some((ha, hb)) = hull_diameter(&hull) {
        if let (Some(a), Some(b)) = (
            hull_point_index(points, &hull[ha]),
            hull_point_index(points, &hull[hb]),
        ) {
            if a != b {
                return Some((a.min(b), a.max(b)));
            }
        }
    }
    dm.farthest_pair().map(|(a, b, _)| (a, b))
}

/// Cheapest insertion seeded with the farthest-apart pair of points.
pub fn cheapest_insertion(points: &[Point], dm: &DistanceMatrix) -> Tour {
    let n = points.len();
    if n <= 2 {
        return Tour::identity(n);
    }
    let (a, b) = farthest_pair_via_hull(points, dm).expect("n >= 2");
    let order = vec![a, b];
    let mut in_tour = vec![false; n];
    in_tour[a] = true;
    in_tour[b] = true;
    insert_cheapest_first(dm, order, &in_tour)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_with_center() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
            Point::new(50.0, 50.0),
        ]
    }

    #[test]
    fn hull_insertion_yields_valid_tour_covering_all_points() {
        let pts = square_with_center();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = convex_hull_insertion(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 5);
    }

    #[test]
    fn hull_insertion_on_pure_hull_matches_hull_perimeter() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(0.0, 100.0),
        ];
        let dm = DistanceMatrix::from_points(&pts);
        let tour = convex_hull_insertion(&pts, &dm);
        assert!((tour.length(&pts) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn cheapest_insertion_yields_valid_tour() {
        let pts = square_with_center();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = cheapest_insertion(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 5);
        // Both heuristics should be close on this tiny instance.
        let chb = convex_hull_insertion(&pts, &dm).length(&pts);
        assert!(tour.length(&pts) <= chb * 1.5);
    }

    #[test]
    fn degenerate_inputs_give_trivial_tours() {
        for pts in [
            vec![],
            vec![Point::ORIGIN],
            vec![Point::ORIGIN, Point::new(1.0, 0.0)],
        ] {
            let dm = DistanceMatrix::from_points(&pts);
            let a = convex_hull_insertion(&pts, &dm);
            let b = cheapest_insertion(&pts, &dm);
            assert_eq!(a.len(), pts.len());
            assert_eq!(b.len(), pts.len());
            assert!(a.is_valid() && b.is_valid());
        }
    }

    #[test]
    fn collinear_points_are_still_all_visited() {
        let pts: Vec<Point> = (0..6).map(|i| Point::new(10.0 * i as f64, 5.0)).collect();
        let dm = DistanceMatrix::from_points(&pts);
        let tour = convex_hull_insertion(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 6);
        // Optimal "tour" over a line is out-and-back: 2 × 50 m.
        assert!((tour.length(&pts) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_points_are_all_visited() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 8.0),
        ];
        let dm = DistanceMatrix::from_points(&pts);
        let tour = convex_hull_insertion(&pts, &dm);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), 4);
    }

    use crate::test_support::{lattice_points, pseudo_random_points, tie_heavy_points};
    use mule_geom::BoundingBox;
    use mule_road::{RoadIndex, RoadNetKind, TravelMetric};

    /// The all-pairs loop [`insert_cheapest_first`] replaced, kept as its
    /// oracle: every step rescans every remaining point against every edge
    /// of the tour.
    fn insert_cheapest_first_oracle(
        dm: &DistanceMatrix,
        mut order: Vec<usize>,
        in_tour: &[bool],
    ) -> Tour {
        let mut remaining: Vec<usize> = (0..in_tour.len()).filter(|&i| !in_tour[i]).collect();
        while !remaining.is_empty() {
            let mut best: Option<(usize, usize, f64)> = None; // (remaining slot, pos, cost)
            for (slot, &k) in remaining.iter().enumerate() {
                let (pos, cost) = cheapest_position(dm, &order, k);
                if best.map(|(_, _, b)| cost < b).unwrap_or(true) {
                    best = Some((slot, pos, cost));
                }
            }
            let (slot, pos, _) = best.expect("remaining is non-empty");
            let k = remaining.swap_remove(slot);
            order.insert((pos + 1).min(order.len()), k);
        }
        Tour::new(order)
    }

    #[test]
    fn cached_positions_match_the_rescan_oracle() {
        let road = TravelMetric::road(RoadIndex::for_field(
            RoadNetKind::Grid,
            &BoundingBox::square(800.0),
            4,
        ));
        let mut instances = 0;
        for n in 3..=130usize {
            for shape in 0..4 {
                let pts = tie_heavy_points(shape, n, (n * 3 + shape) as u64);
                for metric in [&TravelMetric::Euclidean, &road] {
                    let dm = DistanceMatrix::from_metric(&pts, metric);
                    let label = format!("n {n} shape {shape} {}", metric.label());
                    let (order, in_tour) = hull_seed(&pts);
                    assert_eq!(
                        convex_hull_insertion(&pts, &dm),
                        insert_cheapest_first_oracle(&dm, order, &in_tour),
                        "{label}: convex-hull insertion"
                    );
                    instances += 1;
                    // The same loop grows the cheapest-insertion tour from
                    // two points; smaller sizes keep its oracle quick.
                    if n > 64 {
                        continue;
                    }
                    let (a, b) = farthest_pair_via_hull(&pts, &dm).unwrap();
                    let mut in_tour = vec![false; n];
                    in_tour[a] = true;
                    in_tour[b] = true;
                    assert_eq!(
                        cheapest_insertion(&pts, &dm),
                        insert_cheapest_first_oracle(&dm, vec![a, b], &in_tour),
                        "{label}: cheapest insertion"
                    );
                }
            }
        }
        assert_eq!(instances, 128 * 4 * 2);
    }

    /// One entry of the lazy heap [`lazy_heap_insertion_oracle`] pops:
    /// the cheapest `(cost, point, from, to)` comes out first.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct PendingInsertion {
        cost: f64,
        point: usize,
        from: usize,
        to: usize,
    }

    impl Eq for PendingInsertion {}

    impl Ord for PendingInsertion {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reversed so the cheapest insertion is the heap maximum.
            other
                .cost
                .total_cmp(&self.cost)
                .then_with(|| other.point.cmp(&self.point))
                .then_with(|| other.from.cmp(&self.from))
                .then_with(|| other.to.cmp(&self.to))
        }
    }

    impl PartialOrd for PendingInsertion {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The lazy-heap loop [`convex_hull_insertion_incremental`] replaced,
    /// kept as its oracle, without the tree: every offer a point takes is
    /// pushed on one heap, and a pop skips the entries of inserted points
    /// and those whose cost is not the point's current best. Each insertion
    /// offers its two new edges to every remaining point, and a rescore
    /// scans the whole cycle.
    fn lazy_heap_insertion_oracle(points: &[Point]) -> Tour {
        let n = points.len();
        let (order, in_tour) = hull_seed(points);
        let d = |i: usize, j: usize| points[i].distance(&points[j]);
        let mut cycle = Cycle {
            anchor: order[0],
            next: vec![usize::MAX; n],
            len_next: vec![0.0; n],
        };
        for (s, &i) in order.iter().enumerate() {
            let j = order[(s + 1) % order.len()];
            cycle.next[i] = j;
            cycle.len_next[i] = d(i, j);
        }
        let mut is_remaining: Vec<bool> = in_tour.iter().map(|&t| !t).collect();
        let mut best_cost = vec![f64::INFINITY; n];
        let mut heap = std::collections::BinaryHeap::new();
        let rescore =
            |k: usize,
             cycle: &Cycle,
             best_cost: &mut [f64],
             heap: &mut std::collections::BinaryHeap<PendingInsertion>| {
                let (cost, from) = cycle.scan_cheapest(points, k);
                best_cost[k] = cost;
                heap.push(PendingInsertion {
                    cost,
                    point: k,
                    from,
                    to: cycle.next[from],
                });
            };
        for k in (0..n).filter(|&k| is_remaining[k]) {
            rescore(k, &cycle, &mut best_cost, &mut heap);
        }
        while let Some(entry) = heap.pop() {
            let k = entry.point;
            if !is_remaining[k] || entry.cost.to_bits() != best_cost[k].to_bits() {
                continue; // inserted, or superseded
            }
            let (e, f) = (entry.from, entry.to);
            if cycle.next[e] != f {
                rescore(k, &cycle, &mut best_cost, &mut heap);
                continue;
            }
            cycle.next[e] = k;
            cycle.next[k] = f;
            cycle.len_next[e] = d(e, k);
            cycle.len_next[k] = d(k, f);
            is_remaining[k] = false;
            for q in (0..n).filter(|&q| is_remaining[q]) {
                let d_qk = points[q].distance(&points[k]);
                let via_e = points[e].distance(&points[q]) + d_qk - cycle.len_next[e];
                let via_f = d_qk + points[q].distance(&points[f]) - cycle.len_next[k];
                let (cost, from, to) = if via_e <= via_f {
                    (via_e, e, k)
                } else {
                    (via_f, k, f)
                };
                if cost < best_cost[q] {
                    best_cost[q] = cost;
                    heap.push(PendingInsertion {
                        cost,
                        point: q,
                        from,
                        to,
                    });
                }
            }
        }
        let mut order = vec![cycle.anchor];
        while cycle.next[*order.last().unwrap()] != cycle.anchor {
            order.push(cycle.next[*order.last().unwrap()]);
        }
        Tour::new(order)
    }

    #[test]
    fn incremental_insertion_matches_the_lazy_heap_oracle() {
        let mut instances: Vec<(String, Vec<Point>)> = Vec::new();
        for n in 3..=300usize {
            for shape in 0..4 {
                let label = format!("n {n} shape {shape}");
                instances.push((label, tie_heavy_points(shape, n, (n * 7 + shape) as u64)));
            }
        }
        instances.push(("lattice 2000".into(), lattice_points(2000, 2.0, 4)));
        instances.push(("duplicates".into(), vec![Point::new(3.0, 4.0); 40]));
        // Inputs of several leaves at `TREE_LEAF` = 32, so internal nodes
        // prune: four sites repeated unevenly, and clustered targets.
        let sites = [(0.0, 0.0), (30.0, 0.0), (30.0, 40.0), (-12.5, 7.0)];
        let repeated = |i: usize| Point::new(sites[i % 7 % 4].0, sites[i % 7 % 4].1);
        instances.push(("duplicates 240".into(), (0..240).map(repeated).collect()));
        let clustered = mule_workload::ScenarioConfig::paper_default()
            .with_targets(1_200)
            .with_seed(5)
            .with_layout(mule_workload::LayoutKind::DisconnectedClusters {
                clusters: 4,
                cluster_radius_m: 60.0,
            })
            .generate();
        let clustered = clustered.field().patrolled_positions();
        instances.push(("clustered 1200".into(), clustered));
        let line = |i: usize| Point::new(5.0 * (i % 13) as f64, 2.5 * (i % 13) as f64);
        instances.push(("collinear".into(), (0..60).map(line).collect()));
        let ring = |i: usize| Point::new((i % 4 * 100) as f64, (i / 4 % 2 * 100) as f64);
        instances.push(("repeated corners".into(), (0..50).map(ring).collect()));
        for (label, points) in &instances {
            assert_eq!(
                convex_hull_insertion_incremental(points),
                lazy_heap_insertion_oracle(points),
                "{label}"
            );
        }
    }

    /// The insertion allocates a fixed set of buffers plus the doubling
    /// growth of its offer arena: 22 and 24 allocations at 2k and 20k
    /// uniform points (the lazy heap it replaced made 18 and 20). One
    /// allocation per point, such as a `Vec` of offers each, would add
    /// thousands.
    #[test]
    fn incremental_insertion_allocations_stay_flat() {
        for n in [2_000, 20_000] {
            let points = tie_heavy_points(0, n, 29);
            let (tour, alloc) =
                mule_obs::alloc::measure(|| convex_hull_insertion_incremental(&points));
            assert_eq!(tour.len(), n);
            assert!(
                alloc.events <= 32,
                "{n} points: {} allocations",
                alloc.events
            );
        }
    }

    #[test]
    fn incremental_insertion_yields_valid_tours() {
        for n in [0usize, 1, 2, 3, 5, 12, 40, 90] {
            let pts = pseudo_random_points(n, 77);
            let tour = convex_hull_insertion_incremental(&pts);
            assert!(tour.is_valid(), "n = {n}");
            assert_eq!(tour.len(), n);
        }
    }

    #[test]
    fn incremental_insertion_matches_exact_greedy_length() {
        // Same greedy rule ⇒ same tour length whenever insertion costs have
        // no exact ties (generic random instances). Compare lengths rather
        // than orders: tie-breaking and cycle representation may differ.
        for salt in [3u64, 19, 55, 140] {
            let pts = pseudo_random_points(60, salt);
            let dm = DistanceMatrix::from_points(&pts);
            let exact = convex_hull_insertion(&pts, &dm).length(&pts);
            let incremental = convex_hull_insertion_incremental(&pts).length(&pts);
            assert!(
                (exact - incremental).abs() <= 1e-6 * exact.max(1.0),
                "salt {salt}: exact {exact} vs incremental {incremental}"
            );
        }
    }

    #[test]
    fn incremental_insertion_handles_collinear_and_duplicate_points() {
        let line: Vec<Point> = (0..7).map(|i| Point::new(5.0 * i as f64, 1.0)).collect();
        let tour = convex_hull_insertion_incremental(&line);
        assert!(tour.is_valid());
        assert!((tour.length(&line) - 60.0).abs() < 1e-9);

        let mut dupes = square_with_center();
        dupes.push(dupes[1]);
        let tour = convex_hull_insertion_incremental(&dupes);
        assert!(tour.is_valid());
        assert_eq!(tour.len(), dupes.len());
    }

    #[test]
    fn calipers_seed_matches_matrix_farthest_pair() {
        for salt in [2u64, 31, 77] {
            let pts = pseudo_random_points(50, salt);
            let dm = DistanceMatrix::from_points(&pts);
            let (a, b) = super::farthest_pair_via_hull(&pts, &dm).unwrap();
            let (ma, mb, md) = dm.farthest_pair().unwrap();
            assert!(
                (pts[a].distance(&pts[b]) - md).abs() < 1e-9,
                "salt {salt}: calipers pair ({a},{b}) vs matrix ({ma},{mb})"
            );
        }
    }

    #[test]
    fn calipers_seed_falls_back_on_degenerate_hulls() {
        // Two distinct points plus a duplicate: the hull is a segment.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let dm = DistanceMatrix::from_points(&pts);
        let (a, b) = super::farthest_pair_via_hull(&pts, &dm).unwrap();
        assert!((pts[a].distance(&pts[b]) - 10.0).abs() < 1e-12);
        let tour = cheapest_insertion(&pts, &dm);
        assert!(tour.is_valid());
    }

    #[test]
    fn insertion_cost_is_the_detour_cost() {
        let pts = square_with_center();
        let dm = DistanceMatrix::from_points(&pts);
        // Inserting the centre (index 4) between corners 0 and 1.
        let cost = super::insertion_cost(&dm, 0, 1, 4);
        let expected =
            pts[0].distance(&pts[4]) + pts[4].distance(&pts[1]) - pts[0].distance(&pts[1]);
        assert!((cost - expected).abs() < 1e-12);
        assert!(cost > 0.0);
    }
}
