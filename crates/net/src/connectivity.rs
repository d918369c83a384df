//! Connectivity analysis of the static target network.
//!
//! The premise of the paper is that "target points may be distributed over
//! several disconnected areas" so that no static multi-hop network can reach
//! all of them, which is exactly why mobile data mules are used. The
//! workload generator uses the functions here to *verify* that a generated
//! scenario really is disconnected at the targets' communication range, and
//! the tests use them to characterise scenarios.

use mule_geom::Point;

/// A classic union-find (disjoint-set) structure with path compression and
/// union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` when the structure tracks no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of the set containing `x`.
    pub fn find(&mut self, x: usize) -> usize {
        // Iterative path halving keeps the stack flat for large inputs.
        let mut x = x;
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets containing `a` and `b`; returns `true` when they were
    /// previously separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        self.components -= 1;
        true
    }

    /// Returns `true` when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets currently tracked.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.components
    }
}

/// Groups `n` elements into connected components of the unit-disk graph
/// with radius `range` under an arbitrary pairwise distance: elements `i`
/// and `j` are adjacent when `dist(i, j) <= range`. This is the
/// metric-agnostic core behind [`connected_components`] — road-metric
/// scenarios pass their travel distance here, so "reachable" means
/// reachable *by travel* rather than as the crow flies. Returns one vector
/// of indices per component, each sorted ascending, with components
/// ordered by their smallest member.
pub fn connected_components_by<F: Fn(usize, usize) -> f64>(
    n: usize,
    range: f64,
    dist: F,
) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if dist(i, j) <= range {
                uf.union(i, j);
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let root = uf.find(i);
        groups.entry(root).or_default().push(i);
    }
    let mut components: Vec<Vec<usize>> = groups.into_values().collect();
    components.sort_by_key(|c| c[0]);
    components
}

/// Groups `points` into connected components of the unit-disk graph with
/// radius `range`: two points are adjacent when they are within `range`
/// metres of each other (straight-line). Returns one vector of point
/// indices per component, each sorted ascending, with components ordered
/// by their smallest member.
pub fn connected_components(points: &[Point], range: f64) -> Vec<Vec<usize>> {
    connected_components_by(points.len(), range, |i, j| points[i].distance(&points[j]))
}

/// Returns `true` when the unit-disk graph over `points` at communication
/// radius `range` has more than one connected component — i.e. a static
/// network could not cover all targets and data mules are required.
pub fn is_disconnected(points: &[Point], range: f64) -> bool {
    connected_components(points, range).len() > 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_merges_and_counts_components() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0), "already merged");
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 3));
        assert!(uf.union(1, 4));
        assert!(uf.connected(0, 3));
        assert_eq!(uf.component_count(), 2);
        assert_eq!(uf.len(), 5);
    }

    #[test]
    fn empty_union_find_is_consistent() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
    }

    #[test]
    fn two_clusters_form_two_components() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(500.0, 500.0),
            Point::new(510.0, 500.0),
        ];
        let comps = connected_components(&points, 15.0);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4]);
        assert!(is_disconnected(&points, 15.0));
    }

    #[test]
    fn large_range_connects_everything() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(300.0, 0.0),
            Point::new(600.0, 600.0),
        ];
        let comps = connected_components(&points, 10_000.0);
        assert_eq!(comps.len(), 1);
        assert!(!is_disconnected(&points, 10_000.0));
    }

    #[test]
    fn zero_range_isolates_every_point() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let comps = connected_components(&points, 0.5);
        assert_eq!(comps.len(), 3);
    }

    #[test]
    fn empty_and_single_point_inputs() {
        assert!(connected_components(&[], 10.0).is_empty());
        assert!(!is_disconnected(&[], 10.0));
        let single = connected_components(&[Point::ORIGIN], 10.0);
        assert_eq!(single, vec![vec![0]]);
        assert!(!is_disconnected(&[Point::ORIGIN], 10.0));
    }

    #[test]
    fn generic_distance_components_mirror_the_point_based_ones() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(400.0, 400.0),
        ];
        let by = connected_components_by(points.len(), 15.0, |i, j| points[i].distance(&points[j]));
        assert_eq!(by, connected_components(&points, 15.0));

        // A non-Euclidean distance (here: a blocked pair) changes the
        // answer — the point of the generic API.
        let blocked = connected_components_by(points.len(), 15.0, |i, j| {
            if (i, j) == (0, 1) || (i, j) == (1, 0) {
                1e9 // a wall between 0 and 1
            } else {
                points[i].distance(&points[j])
            }
        });
        assert_eq!(blocked.len(), 3);
    }

    #[test]
    fn connectivity_is_transitive_through_chains() {
        // A chain of points each 10 m apart is one component at range 10
        // even though the ends are 40 m apart.
        let chain: Vec<Point> = (0..5).map(|i| Point::new(10.0 * i as f64, 0.0)).collect();
        let comps = connected_components(&chain, 10.0);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 5);
    }
}
