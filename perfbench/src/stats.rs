//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints comes from the sorted raw samples
//! (nearest-rank definition), never from `mule_metrics::LatencyHistogram`
//! buckets: a bucketed quantile reports the upper edge of a bucket up to
//! 12.5 % wide, which hides exactly the size of change an A/B run looks
//! for.

/// A percentile read from raw samples, with the counts that say how much
/// it can be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Number of samples it was read from.
    pub samples: usize,
    /// Number of samples strictly beyond its rank.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile of `samples` (`q` in `(0, 1]`): the smallest
/// sample with at least `ceil(q·n)` samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Nearest-rank median (`0.0` for no samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// Arithmetic mean (`0.0` for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_metrics::LatencyHistogram;

    #[test]
    fn nearest_rank_percentiles_count_the_samples_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&samples, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert_eq!(percentile(&[7.0], 0.9).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn bucketed_median_is_a_bucket_edge_not_the_sample_median() {
        // Latencies between 90.2 µs and 92.0 µs all fall into the histogram
        // bucket [90 112, 98 303] ns, so its p50 is the bucket's upper edge
        // (0.098303 ms, the figure a histogram-based report shows) while the
        // true sample median is about 91.1 µs — 7.9 % lower. One slow 1 ms
        // sample keeps the histogram's maximum above the bucket edge.
        let mut samples_ms: Vec<f64> = (0..=180).map(|i| 0.0902 + f64::from(i) * 1e-5).collect();
        samples_ms.push(1.0);
        let mut hist = LatencyHistogram::new();
        for &ms in &samples_ms {
            hist.record(ms / 1e3);
        }
        let bucketed_ms = hist.p50() * 1e3;
        let exact_ms = median(&samples_ms);
        assert!((bucketed_ms - 0.098303).abs() < 1e-9, "{bucketed_ms}");
        assert!((exact_ms - 0.0911).abs() < 1e-9, "{exact_ms}");
        assert!(bucketed_ms / exact_ms > 1.07);
    }
}
