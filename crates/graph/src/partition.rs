//! Spatial partitioning of target sets.
//!
//! The Sweep baseline (paper reference \[4\]) "divides the DMs into several
//! groups and then each DM individually patrols the targets of one group".
//! [`angular_partition`] provides that grouping: contiguous angular sectors
//! around a pivot, balanced by count. It returns one vector of indices (into
//! the input slice) per group; every input index appears in exactly one
//! group and empty groups are allowed only when there are fewer points than
//! groups.

use mule_geom::Point;

/// Groups `points` into `groups` contiguous angular sectors around `pivot`,
/// balanced by count. Returns `groups` vectors of indices (some possibly
/// empty when there are fewer points than groups).
pub fn angular_partition(points: &[Point], pivot: &Point, groups: usize) -> Vec<Vec<usize>> {
    let groups = groups.max(1);
    let mut indexed: Vec<(usize, f64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i, (*p - *pivot).angle()))
        .collect();
    indexed.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut out = vec![Vec::new(); groups];
    if indexed.is_empty() {
        return out;
    }
    let per_group = indexed.len().div_ceil(groups);
    for (rank, (idx, _)) in indexed.into_iter().enumerate() {
        out[(rank / per_group).min(groups - 1)].push(idx);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum over groups of the total pairwise within-group distance — a
    /// compactness score for comparing partitions (smaller is more compact).
    fn group_spread(points: &[Point], groups: &[Vec<usize>]) -> f64 {
        let mut total = 0.0;
        for group in groups {
            for (a_pos, &a) in group.iter().enumerate() {
                for &b in &group[a_pos + 1..] {
                    total += points[a].distance(&points[b]);
                }
            }
        }
        total
    }

    fn is_partition(n: usize, groups: &[Vec<usize>]) -> bool {
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        all == (0..n).collect::<Vec<_>>()
    }

    fn three_clusters() -> Vec<Point> {
        let mut pts = Vec::new();
        for (cx, cy) in [(100.0, 100.0), (700.0, 120.0), (400.0, 700.0)] {
            for k in 0..6 {
                pts.push(Point::new(
                    cx + (k % 3) as f64 * 8.0,
                    cy + (k / 3) as f64 * 8.0,
                ));
            }
        }
        pts
    }

    #[test]
    fn angular_partition_is_a_balanced_partition() {
        let pts = three_clusters();
        let groups = angular_partition(&pts, &Point::new(400.0, 300.0), 3);
        assert_eq!(groups.len(), 3);
        assert!(is_partition(pts.len(), &groups));
        assert!(groups.iter().all(|g| g.len() == 6));
        // The clusters sit in distinct sectors, so each sector is one
        // cluster and the grouping is as compact as the clusters themselves.
        let clusters: Vec<Vec<usize>> = (0..3).map(|c| (6 * c..6 * c + 6).collect()).collect();
        assert!((group_spread(&pts, &groups) - group_spread(&pts, &clusters)).abs() < 1e-9);
    }

    #[test]
    fn angular_partition_handles_degenerate_inputs() {
        assert_eq!(angular_partition(&[], &Point::ORIGIN, 3).len(), 3);
        let single = angular_partition(&[Point::new(1.0, 1.0)], &Point::ORIGIN, 4);
        assert_eq!(single.iter().map(Vec::len).sum::<usize>(), 1);
        // Zero groups clamps to one.
        let one = angular_partition(&three_clusters(), &Point::ORIGIN, 0);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len(), 18);
    }

    #[test]
    fn group_spread_of_singletons_is_zero() {
        let pts = three_clusters();
        let singletons: Vec<Vec<usize>> = (0..pts.len()).map(|i| vec![i]).collect();
        assert_eq!(group_spread(&pts, &singletons), 0.0);
    }
}
