//! The kd-tree `mule_geom::KdTree` replaced, kept as the oracle of its
//! tests: one node per point with its subtree's box and `Option` child
//! links, each level built with a full stable `sort_by` (`O(n log² n)`),
//! recursive queries, and a filtered nearest-point search.
//!
//! Shared by the integration tests that include it as a module; each uses
//! part of it.
#![allow(dead_code)]

use mule_geom::{BoundingBox, Point};

/// A static (build-once) kd-tree over a set of points, one boxed node per
/// point with explicit children, each level built by a stable sort.
#[derive(Debug, Clone)]
pub struct KdTree {
    nodes: Vec<Node>,
    root: Option<usize>,
    size: usize,
}

#[derive(Debug, Clone)]
struct Node {
    point: Point,
    /// Index of this point in the slice the tree was built from.
    index: usize,
    left: Option<usize>,
    right: Option<usize>,
    /// Bounding box of the subtree rooted here, used for pruning.
    bbox: BoundingBox,
}

impl KdTree {
    /// Builds a kd-tree over `points`. Duplicates are allowed; each input
    /// index appears exactly once in query results.
    pub fn build(points: &[Point]) -> Self {
        let mut indexed: Vec<(usize, Point)> = points.iter().copied().enumerate().collect();
        let mut nodes = Vec::with_capacity(points.len());
        let root = Self::build_recursive(&mut indexed[..], 0, &mut nodes);
        KdTree {
            nodes,
            root,
            size: points.len(),
        }
    }

    /// Number of points stored in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Returns `true` when the tree holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The stored indices in node order, which is preorder: each node is
    /// pushed before its subtrees are built.
    pub fn preorder(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().map(|node| node.index)
    }

    fn build_recursive(
        items: &mut [(usize, Point)],
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> Option<usize> {
        if items.is_empty() {
            return None;
        }
        let axis = depth % 2;
        items.sort_by(|a, b| {
            let (ka, kb) = if axis == 0 {
                (a.1.x, b.1.x)
            } else {
                (a.1.y, b.1.y)
            };
            ka.total_cmp(&kb)
        });
        let mid = items.len() / 2;
        let (orig_index, point) = items[mid];

        let node_slot = nodes.len();
        nodes.push(Node {
            point,
            index: orig_index,
            left: None,
            right: None,
            bbox: BoundingBox::from_corners(point, point),
        });

        // Split the slice around the median without re-borrowing `items`.
        let (left_slice, rest) = items.split_at_mut(mid);
        let right_slice = &mut rest[1..];
        let left = Self::build_recursive(left_slice, depth + 1, nodes);
        let right = Self::build_recursive(right_slice, depth + 1, nodes);

        let mut bbox = BoundingBox::from_corners(point, point);
        if let Some(l) = left {
            let b = nodes[l].bbox;
            bbox.expand_to(&Point::new(b.min_x, b.min_y));
            bbox.expand_to(&Point::new(b.max_x, b.max_y));
        }
        if let Some(r) = right {
            let b = nodes[r].bbox;
            bbox.expand_to(&Point::new(b.min_x, b.min_y));
            bbox.expand_to(&Point::new(b.max_x, b.max_y));
        }
        nodes[node_slot].left = left;
        nodes[node_slot].right = right;
        nodes[node_slot].bbox = bbox;
        Some(node_slot)
    }

    /// Index (into the original slice) and distance of the point nearest to
    /// `query`, or `None` when the tree is empty.
    pub fn nearest(&self, query: &Point) -> Option<(usize, f64)> {
        self.nearest_filtered(query, |_| true)
    }

    /// Nearest point whose original index satisfies `accept`. Lets callers
    /// exclude already-visited targets or the querying mule itself.
    pub fn nearest_filtered<F: Fn(usize) -> bool>(
        &self,
        query: &Point,
        accept: F,
    ) -> Option<(usize, f64)> {
        let root = self.root?;
        let mut best: Option<(usize, f64)> = None;
        self.nearest_recursive(root, query, &accept, &mut best);
        best.map(|(i, d2)| (i, d2.sqrt()))
    }

    fn nearest_recursive<F: Fn(usize) -> bool>(
        &self,
        node_idx: usize,
        query: &Point,
        accept: &F,
        best: &mut Option<(usize, f64)>,
    ) {
        let node = &self.nodes[node_idx];
        // Prune whole subtrees that cannot contain a closer accepted point.
        if let Some((_, best_d2)) = best {
            if node.bbox.distance_squared_to(query) > *best_d2 {
                return;
            }
        }
        let d2 = node.point.distance_squared(query);
        if accept(node.index) && best.map(|(_, b)| d2 < b).unwrap_or(true) {
            *best = Some((node.index, d2));
        }
        // Visit the child on the query's side first for better pruning.
        let children = [node.left, node.right];
        let mut order = [0usize, 1usize];
        if let (Some(l), Some(r)) = (node.left, node.right) {
            let dl = self.nodes[l].bbox.distance_squared_to(query);
            let dr = self.nodes[r].bbox.distance_squared_to(query);
            if dr < dl {
                order = [1, 0];
            }
        }
        for &side in &order {
            if let Some(child) = children[side] {
                self.nearest_recursive(child, query, accept, best);
            }
        }
    }

    /// `k` nearest neighbours of `query` (fewer when the tree is smaller),
    /// sorted by increasing distance. Points at equal distance keep the
    /// order in which the depth-first search meets them, so the result is
    /// exactly what `k` successive [`KdTree::nearest_filtered`] queries —
    /// each excluding the hits before it — would return.
    pub fn k_nearest(&self, query: &Point, k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(k.min(self.size));
        self.k_nearest_into(query, k, &mut out);
        out
    }

    /// [`KdTree::k_nearest`] into a caller-owned buffer (cleared first), so
    /// a caller querying every point allocates once instead of per query.
    ///
    /// One depth-first traversal in the same child order as
    /// [`KdTree::nearest_filtered`], keeping the best `k` hits sorted by
    /// squared distance. A new hit is inserted after every kept hit at the
    /// same distance — it was met later — which reproduces the tie order of
    /// repeated filtered searches; a subtree is pruned once its box is no
    /// closer than the current `k`-th hit.
    pub fn k_nearest_into(&self, query: &Point, k: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        if let (Some(root), true) = (self.root, k > 0) {
            let box_d2 = self.nodes[root].bbox.distance_squared_to(query);
            self.k_nearest_recursive(root, box_d2, query, k, out);
        }
        for hit in out.iter_mut() {
            hit.1 = hit.1.sqrt();
        }
    }

    /// Collects into `best` (sorted by squared distance, at most `k` long)
    /// the hits below `node_idx`, whose box lies `box_d2` (squared) from
    /// `query` — the distance the parent already computed to order its
    /// children.
    fn k_nearest_recursive(
        &self,
        node_idx: usize,
        box_d2: f64,
        query: &Point,
        k: usize,
        best: &mut Vec<(usize, f64)>,
    ) {
        let node = &self.nodes[node_idx];
        let full = best.len() == k;
        if full && box_d2 >= best[k - 1].1 {
            return;
        }
        let d2 = node.point.distance_squared(query);
        if !full || d2 < best[k - 1].1 {
            if full {
                best.pop();
            }
            let at = best.partition_point(|&(_, b)| b <= d2);
            best.insert(at, (node.index, d2));
        }
        // Same child order as `nearest_recursive`.
        let box_d2 = |child: usize| self.nodes[child].bbox.distance_squared_to(query);
        match (node.left, node.right) {
            (Some(l), Some(r)) => {
                let (dl, dr) = (box_d2(l), box_d2(r));
                let order = if dr < dl {
                    [(r, dr), (l, dl)]
                } else {
                    [(l, dl), (r, dr)]
                };
                for (child, d2) in order {
                    self.k_nearest_recursive(child, d2, query, k, best);
                }
            }
            (Some(only), None) | (None, Some(only)) => {
                self.k_nearest_recursive(only, box_d2(only), query, k, best);
            }
            (None, None) => {}
        }
    }
}
