//! Dense pairwise travel-distance matrix.
//!
//! All tour heuristics and the WPP/WRP break-edge searches are expressed in
//! terms of inter-target distances. Computing them once per scenario and
//! sharing the matrix keeps the heuristics allocation-free in their inner
//! loops. The matrix is metric-agnostic: [`DistanceMatrix::from_points`]
//! fills it with Euclidean distances (the historical behaviour, bit for
//! bit), while [`DistanceMatrix::from_metric`] accepts any
//! [`mule_road::TravelMetric`] — road matrices cost one Dijkstra per
//! distinct snapped node instead of `O(n²)` subtractions, but every
//! consumer downstream is oblivious to the difference.

use mule_geom::Point;
use mule_road::TravelMetric;

/// An `n × n` matrix of travel distances, stored row-major in a single flat
/// allocation.
///
/// Every public constructor writes `d(i, j)` and `d(j, i)` from one value,
/// so production matrices are bit-symmetric and a column is its row. A
/// directed matrix (the test-only `from_rows`) stores its transpose after
/// the rows, so [`DistanceMatrix::column`] reads `data` from
/// `data.len() − n²` on: offset 0 when symmetric, the transpose when not.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds the matrix from a point slice (Euclidean distances).
    pub fn from_points(points: &[Point]) -> Self {
        let n = points.len();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            // The matrix is symmetric; fill both triangles in one pass.
            for j in (i + 1)..n {
                let d = points[i].distance(&points[j]);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix { n, data }
    }

    /// Builds the matrix under an arbitrary travel metric. The Euclidean
    /// metric routes through [`DistanceMatrix::from_points`] so the bytes
    /// (and the float operations producing them) are identical to the
    /// pre-metric era; a road metric reads the road index's shortest-path
    /// tables ([`mule_road::RoadIndex::pairwise`]).
    pub fn from_metric(points: &[Point], metric: &TravelMetric) -> Self {
        match metric.road_index() {
            None => DistanceMatrix::from_points(points),
            Some(index) => {
                let _s = mule_obs::span("graph.distance_matrix");
                mule_obs::add("n", points.len() as u64);
                DistanceMatrix {
                    n: points.len(),
                    data: index.pairwise(points),
                }
            }
        }
    }

    /// Number of points the matrix was built from.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for a 0 × 0 matrix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j`.
    ///
    /// This is the single hottest accessor in the workspace (every exact
    /// local-search pair evaluation goes through it four times), so the
    /// friendly bounds message is a `debug_assert!`: debug builds still
    /// panic with "index out of range", release builds rely on the flat
    /// slice index alone (which catches any access beyond `n²` but maps
    /// in-bounds mixes of bad `i`/`j` to a wrong cell — an out-of-range
    /// target index is a programming error either way).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n, "index out of range");
        self.data[i * self.n + j]
    }

    /// Distances from point `i`: `row(i)[j] == get(i, j)`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Distances to point `j`: `column(j)[i] == get(i, j)`, bit for bit.
    /// For a symmetric matrix this is `row(j)`.
    #[inline]
    pub fn column(&self, j: usize) -> &[f64] {
        let columns = self.data.len() - self.n * self.n;
        &self.data[columns + j * self.n..columns + (j + 1) * self.n]
    }

    /// The nearest other point to `i` that satisfies `accept`, as
    /// `(index, distance)`. Returns `None` when no acceptable point exists.
    pub fn nearest_to<F: Fn(usize) -> bool>(&self, i: usize, accept: F) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.n {
            if j == i || !accept(j) {
                continue;
            }
            let d = self.get(i, j);
            if best.map(|(_, b)| d < b).unwrap_or(true) {
                best = Some((j, d));
            }
        }
        best
    }

    /// The pair of distinct points with the largest separation, as
    /// `(i, j, distance)`. Returns `None` for fewer than two points.
    pub fn farthest_pair(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let d = self.get(i, j);
                if best.map(|(_, _, b)| d > b).unwrap_or(true) {
                    best = Some((i, j, d));
                }
            }
        }
        best
    }

    /// Total length of a closed tour visiting `order` (indices into the
    /// original point slice) and returning to its first entry.
    pub fn cycle_length(&self, order: &[usize]) -> f64 {
        if order.len() < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        for w in order.windows(2) {
            total += self.get(w[0], w[1]);
        }
        total + self.get(*order.last().unwrap(), order[0])
    }

    /// Total length of an open path visiting `order` in sequence.
    pub fn path_length(&self, order: &[usize]) -> f64 {
        order.windows(2).map(|w| self.get(w[0], w[1])).sum()
    }
}

#[cfg(test)]
impl DistanceMatrix {
    /// A directed matrix over `n` points from row-major `data`. Every
    /// production matrix is bit-symmetric; this one exists so the local
    /// searches are tested on costs where `d(i, j) != d(j, i)`. Its
    /// transpose is stored after the rows for [`DistanceMatrix::column`].
    pub(crate) fn from_rows(n: usize, mut data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n);
        let transpose: Vec<f64> = (0..n * n).map(|k| data[(k % n) * n + k / n]).collect();
        data.extend(transpose);
        DistanceMatrix { n, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let dm = DistanceMatrix::from_points(&unit_square());
        assert_eq!(dm.len(), 4);
        for i in 0..4 {
            assert_eq!(dm.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(dm.get(i, j), dm.get(j, i));
            }
        }
        assert!((dm.get(0, 2) - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(dm.get(0, 1), 1.0);
    }

    #[test]
    fn columns_read_the_transpose_of_a_directed_matrix() {
        let data = vec![0.0, 1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0];
        let dm = DistanceMatrix::from_rows(3, data);
        assert_eq!(dm.row(1), [3.0, 0.0, 4.0]);
        assert_eq!(dm.column(1), [1.0, 0.0, 6.0]);
        let square = DistanceMatrix::from_points(&unit_square());
        assert_eq!(square.column(2), square.row(2));
    }

    #[test]
    fn empty_and_single_point_matrices() {
        let empty = DistanceMatrix::from_points(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.cycle_length(&[]), 0.0);
        let single = DistanceMatrix::from_points(&[Point::new(3.0, 3.0)]);
        assert_eq!(single.len(), 1);
        assert_eq!(single.get(0, 0), 0.0);
        assert_eq!(single.cycle_length(&[0]), 0.0);
    }

    // The friendly bounds check is debug-only (see `get`); release test
    // runs would fall through to raw slice indexing with a different (or
    // no) panic.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_access_panics() {
        let dm = DistanceMatrix::from_points(&unit_square());
        let _ = dm.get(0, 10);
    }

    #[test]
    fn nearest_to_respects_the_filter() {
        let dm = DistanceMatrix::from_points(&unit_square());
        let (j, d) = dm.nearest_to(0, |_| true).unwrap();
        assert!(j == 1 || j == 3);
        assert_eq!(d, 1.0);
        let (j2, d2) = dm.nearest_to(0, |k| k == 2).unwrap();
        assert_eq!(j2, 2);
        assert!((d2 - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(dm.nearest_to(0, |_| false).is_none());
    }

    #[test]
    fn farthest_pair_is_the_diagonal_of_the_square() {
        let dm = DistanceMatrix::from_points(&unit_square());
        let (i, j, d) = dm.farthest_pair().unwrap();
        assert!((d - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!((i == 0 && j == 2) || (i == 1 && j == 3));
        assert!(DistanceMatrix::from_points(&[Point::ORIGIN])
            .farthest_pair()
            .is_none());
    }

    #[test]
    fn from_metric_euclidean_is_identical_to_from_points() {
        let pts = unit_square();
        let a = DistanceMatrix::from_points(&pts);
        let b = DistanceMatrix::from_metric(&pts, &TravelMetric::Euclidean);
        assert_eq!(a, b);
    }

    #[test]
    fn from_metric_road_dominates_euclidean_and_stays_symmetric() {
        use mule_geom::BoundingBox;
        let idx = mule_road::RoadIndex::for_field(
            mule_road::RoadNetKind::Grid,
            &BoundingBox::square(800.0),
            5,
        );
        let metric = TravelMetric::road(idx);
        let pts: Vec<Point> = (0..60u64)
            .map(|i| {
                Point::new(
                    (i.wrapping_mul(193) % 797) as f64 + 0.25,
                    (i.wrapping_mul(389) % 791) as f64 + 0.5,
                )
            })
            .collect();
        let dm = DistanceMatrix::from_metric(&pts, &metric);
        for i in 0..pts.len() {
            assert_eq!(dm.get(i, i), 0.0);
            for j in 0..pts.len() {
                assert_eq!(dm.get(i, j).to_bits(), dm.get(j, i).to_bits(), "({i}, {j})");
                assert_eq!(dm.column(j)[i].to_bits(), dm.get(i, j).to_bits());
                if i != j {
                    assert!(
                        dm.get(i, j) >= pts[i].distance(&pts[j]) - 1e-9,
                        "road distance dominates the straight line"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_and_path_lengths() {
        let dm = DistanceMatrix::from_points(&unit_square());
        assert!((dm.cycle_length(&[0, 1, 2, 3]) - 4.0).abs() < 1e-12);
        assert!((dm.path_length(&[0, 1, 2, 3]) - 3.0).abs() < 1e-12);
        assert_eq!(dm.cycle_length(&[2]), 0.0);
        assert_eq!(dm.path_length(&[2]), 0.0);
    }
}
