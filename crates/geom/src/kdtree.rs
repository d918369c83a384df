//! A 2-D kd-tree for nearest-neighbour and k-nearest-neighbour queries.
//!
//! Used by `mule_road`'s `RoadIndex::snap` (the road node nearest to a
//! location) and planar road generator (each node's nearest neighbours
//! are its candidate road edges), and by the tour engine's candidate lists
//! (one k-nearest query per point). The tree stores
//! indices into the caller's point slice so callers can map hits back to
//! their own entities.

use crate::bbox::BoundingBox;
use crate::point::Point;
use std::cmp::Ordering;

/// Most subtrees [`KdTree::k_nearest_into`] holds pending at once. A
/// subtree of `len` nodes has children of at most `len / 2` nodes, so a
/// tree of fewer than 2³² points has at most 32 levels. A node at depth
/// `d` is searched with at most one pending sibling for each of its `d`
/// ancestors' levels below the root, and pushes at most two children,
/// which happens only at `d ≤ 30`.
const STACK: usize = 32;

/// A static (build-once) kd-tree over a set of points.
///
/// The nodes sit in one array in preorder and the children are implicit:
/// the subtree at slot `s` with `len` nodes has its left child at `s + 1`
/// (a subtree of `len / 2` nodes) and its right child at `s + 1 + len / 2`
/// (the other `len - 1 - len / 2`).
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    point: Point,
    /// Bounding box of the subtree rooted here, used for pruning.
    bbox: BoundingBox,
    /// Index of this point in the slice the tree was built from.
    index: u32,
}

/// The order that picks each subtree's root and splits its points: by x at
/// even depths and by y at odd ones. Below the root, ties fall to the other
/// axis and then to the index; at the root, straight to the index. This is
/// the tree a build gets by stable-sorting each level in place, starting
/// from index order, since each slice then arrives sorted by its parent's
/// axis.
fn split_order(depth: usize, a: &Node, b: &Node) -> Ordering {
    let (pa, pb) = (a.point, b.point);
    let (along, across) = if depth.is_multiple_of(2) {
        (pa.x.total_cmp(&pb.x), pa.y.total_cmp(&pb.y))
    } else {
        (pa.y.total_cmp(&pb.y), pa.x.total_cmp(&pb.x))
    };
    let along = if depth == 0 {
        along
    } else {
        along.then(across)
    };
    along.then(a.index.cmp(&b.index))
}

/// Arranges `nodes`, one subtree whose boxes are still single points, in
/// preorder: the median under [`split_order`] first, then the left subtree
/// over the `len / 2` nodes before it, then the right subtree over the rest.
/// Each selection is linear, so the build costs `O(n log n)`.
fn arrange(nodes: &mut [Node], depth: usize) {
    if nodes.is_empty() {
        return;
    }
    let mid = nodes.len() / 2;
    nodes.select_nth_unstable_by(mid, |a, b| split_order(depth, a, b));
    nodes.swap(0, mid);
    let (root, rest) = nodes.split_first_mut().expect("not empty");
    let (left, right) = rest.split_at_mut(mid);
    arrange(left, depth + 1);
    arrange(right, depth + 1);
    for child in [left.first(), right.first()].into_iter().flatten() {
        let b = child.bbox;
        root.bbox.expand_to(&Point::new(b.min_x, b.min_y));
        root.bbox.expand_to(&Point::new(b.max_x, b.max_y));
    }
}

impl KdTree {
    /// Builds a kd-tree over `points` in `O(n log n)`. Duplicates are
    /// allowed; each input index appears exactly once in query results.
    ///
    /// # Panics
    ///
    /// When `points` holds 2³² points or more.
    pub fn build(points: &[Point]) -> Self {
        assert!(
            u32::try_from(points.len()).is_ok(),
            "a kd-tree holds fewer than 2^32 points"
        );
        let mut nodes: Vec<Node> = points
            .iter()
            .enumerate()
            .map(|(i, &point)| Node {
                point,
                bbox: BoundingBox::from_corners(point, point),
                index: i as u32,
            })
            .collect();
        arrange(&mut nodes, 0);
        KdTree { nodes }
    }

    /// Number of points stored in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the tree holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The stored indices in the tree's preorder, in which neighbouring
    /// entries tend to be near each other: a caller querying every point
    /// does so in this order, so that successive searches walk the same
    /// nodes.
    pub fn preorder(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.nodes.iter().map(|node| node.index as usize)
    }

    /// Index (into the original slice) and distance of the point nearest to
    /// `query`, or `None` when the tree is empty. Of several points at the
    /// same distance, the first one the depth-first search meets wins.
    pub fn nearest(&self, query: &Point) -> Option<(usize, f64)> {
        self.nearest_filtered(query, |_| true)
    }

    /// Nearest point whose original index satisfies `accept`; the tests
    /// build [`KdTree::k_nearest`]'s oracle from repeated calls.
    fn nearest_filtered<F: Fn(usize) -> bool>(
        &self,
        query: &Point,
        accept: F,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        if !self.nodes.is_empty() {
            self.nearest_recursive(0, self.nodes.len(), query, &accept, &mut best);
        }
        best.map(|(i, d2)| (i, d2.sqrt()))
    }

    fn nearest_recursive<F: Fn(usize) -> bool>(
        &self,
        slot: usize,
        len: usize,
        query: &Point,
        accept: &F,
        best: &mut Option<(usize, f64)>,
    ) {
        let node = &self.nodes[slot];
        // Prune whole subtrees that cannot contain a closer accepted point.
        if let Some((_, best_d2)) = best {
            if node.bbox.distance_squared_to(query) > *best_d2 {
                return;
            }
        }
        let d2 = node.point.distance_squared(query);
        let index = node.index as usize;
        if accept(index) && best.map(|(_, b)| d2 < b).unwrap_or(true) {
            *best = Some((index, d2));
        }
        // Visit the child on the query's side first for better pruning;
        // on a tie, the left one.
        let ((l, l_len), (r, r_len)) = children(slot, len);
        if r_len > 0 {
            let dl = self.nodes[l].bbox.distance_squared_to(query);
            let dr = self.nodes[r].bbox.distance_squared_to(query);
            let order = if dr < dl {
                [(r, r_len), (l, l_len)]
            } else {
                [(l, l_len), (r, r_len)]
            };
            for (child, child_len) in order {
                self.nearest_recursive(child, child_len, query, accept, best);
            }
        } else if l_len > 0 {
            self.nearest_recursive(l, l_len, query, accept, best);
        }
    }

    /// `k` nearest neighbours of `query` (fewer when the tree is smaller),
    /// sorted by increasing distance. Points at equal distance keep the
    /// order in which the depth-first search meets them, so the result is
    /// exactly what `k` successive nearest-point searches — each excluding
    /// the hits before it — would return.
    pub fn k_nearest(&self, query: &Point, k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        self.k_nearest_into(query, k, &mut out);
        out
    }

    /// [`KdTree::k_nearest`] into a caller-owned buffer (cleared first), so
    /// a caller querying every point allocates once instead of per query.
    ///
    /// One depth-first traversal in the same child order as
    /// [`KdTree::nearest`], driven by a fixed stack of pending subtrees,
    /// keeping the best `k` hits sorted by squared distance. A new hit is
    /// inserted after every kept hit at the same distance — it was met
    /// later — which reproduces the tie order of repeated filtered
    /// searches; a subtree is pruned once its box is no closer than the
    /// current `k`-th hit.
    pub fn k_nearest_into(&self, query: &Point, k: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        if k == 0 || self.nodes.is_empty() {
            return;
        }
        let box_d2 = |slot: usize| self.nodes[slot].bbox.distance_squared_to(query);
        // `(slot, len, squared distance to the subtree's box)`, the nearer
        // child on top so that it is searched first.
        let mut stack = [(0usize, 0usize, 0.0f64); STACK];
        stack[0] = (0, self.nodes.len(), box_d2(0));
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let (slot, len, d2_box) = stack[top];
            let full = out.len() == k;
            if full && d2_box >= out[k - 1].1 {
                continue;
            }
            let node = &self.nodes[slot];
            let d2 = node.point.distance_squared(query);
            if !full || d2 < out[k - 1].1 {
                if full {
                    out.pop();
                }
                let at = out.partition_point(|&(_, b)| b <= d2);
                out.insert(at, (node.index as usize, d2));
            }
            let ((l, l_len), (r, r_len)) = children(slot, len);
            if r_len > 0 {
                let (dl, dr) = (box_d2(l), box_d2(r));
                let (near, far) = if dr < dl {
                    ((r, r_len, dr), (l, l_len, dl))
                } else {
                    ((l, l_len, dl), (r, r_len, dr))
                };
                stack[top] = far;
                stack[top + 1] = near;
                top += 2;
            } else if l_len > 0 {
                stack[top] = (l, l_len, box_d2(l));
                top += 1;
            }
        }
        for hit in out.iter_mut() {
            hit.1 = hit.1.sqrt();
        }
    }
}

/// `(slot, len)` of the left and right child of the subtree at `slot` with
/// `len` nodes; an absent child has length 0.
#[inline]
fn children(slot: usize, len: usize) -> ((usize, usize), (usize, usize)) {
    let half = len / 2;
    ((slot + 1, half), (slot + 1 + half, len - 1 - half))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
            Point::new(5.0, 5.0),
            Point::new(100.0, 100.0),
        ]
    }

    #[test]
    fn nearest_finds_the_geometrically_closest_point() {
        let pts = sample_points();
        let tree = KdTree::build(&pts);
        let (idx, d) = tree.nearest(&Point::new(6.0, 6.0)).unwrap();
        assert_eq!(idx, 4);
        assert!(approx_eq(d, 2.0_f64.sqrt()));
    }

    #[test]
    fn nearest_of_empty_tree_is_none() {
        let tree = KdTree::build(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(tree.nearest(&Point::ORIGIN).is_none());
    }

    #[test]
    fn nearest_filtered_skips_rejected_indices() {
        let pts = sample_points();
        let tree = KdTree::build(&pts);
        let (idx, _) = tree
            .nearest_filtered(&Point::new(6.0, 6.0), |i| i != 4)
            .unwrap();
        assert_eq!(idx, 2, "with (5,5) excluded, (10,10) is next closest");
        assert!(tree.nearest_filtered(&Point::ORIGIN, |_| false).is_none());
    }

    #[test]
    fn k_nearest_is_sorted_by_distance_and_bounded_by_tree_size() {
        let pts = sample_points();
        let tree = KdTree::build(&pts);
        let knn = tree.k_nearest(&Point::new(0.0, 0.0), 3);
        assert_eq!(knn.len(), 3);
        assert_eq!(knn[0].0, 0);
        for w in knn.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let all = tree.k_nearest(&Point::new(0.0, 0.0), 99);
        assert_eq!(all.len(), pts.len());
    }

    #[test]
    fn brute_force_agreement_on_a_fixed_grid() {
        // Exhaustive cross-check of nearest() against brute force over a
        // deterministic grid of query points.
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new((i * 37 % 100) as f64, (i * 59 % 100) as f64))
            .collect();
        let tree = KdTree::build(&pts);
        for qi in 0..25 {
            let q = Point::new((qi * 13 % 100) as f64 + 0.5, (qi * 7 % 100) as f64 + 0.25);
            let (tree_idx, tree_d) = tree.nearest(&q).unwrap();
            let brute = pts
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.distance_squared(&q)
                        .total_cmp(&b.1.distance_squared(&q))
                })
                .unwrap();
            assert!(approx_eq(tree_d, brute.1.distance(&q)));
            assert!(approx_eq(pts[tree_idx].distance(&q), brute.1.distance(&q)));
        }
    }

    #[test]
    fn k_nearest_matches_successive_filtered_searches() {
        // A 6 x 6 lattice of 10 m spacing, every third site doubled, so
        // many hits tie on distance and some coincide.
        let site = |i: usize| Point::new((i % 6 * 10) as f64, (i / 6 * 10) as f64);
        let pts: Vec<Point> = (0..36).chain((0..36).step_by(3)).map(site).collect();
        let tree = KdTree::build(&pts);
        let queries = pts
            .iter()
            .copied()
            .chain([Point::new(25.0, 25.0), Point::new(-7.0, 31.0)]);
        for q in queries {
            for k in [1, 5, 11, pts.len()] {
                let mut want: Vec<(usize, f64)> = Vec::new();
                while want.len() < k {
                    let hit = tree.nearest_filtered(&q, |i| want.iter().all(|&(w, _)| w != i));
                    want.push(hit.expect("k <= n"));
                }
                assert_eq!(tree.k_nearest(&q, k), want, "query {q:?}, k {k}");
            }
        }
    }

    #[test]
    fn duplicate_points_are_all_retrievable() {
        let pts = vec![Point::new(1.0, 1.0); 4];
        let tree = KdTree::build(&pts);
        let knn = tree.k_nearest(&Point::new(1.0, 1.0), 4);
        let mut indices: Vec<usize> = knn.iter().map(|(i, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3]);
    }
}
