//! Log-bucketed latency histograms for the serving path.
//!
//! `mule-serve`'s `/metrics` endpoint needs a cheap request-latency
//! histogram. A sorted-sample percentile is exact but O(n) memory per
//! request stream; a [`LatencyHistogram`] is O(1) per observation, at a
//! bounded relative error.
//!
//! ## Bucket layout
//!
//! Observations are bucketed on integer **nanoseconds** with a
//! log-linear layout (the HdrHistogram idea, radically simplified): every
//! power-of-two octave is split into [`SUB_BUCKETS`] equal-width linear
//! sub-buckets. Below `SUB_BUCKETS` nanoseconds each bucket holds exactly
//! one nanosecond value, so the layout is exact there. The scheme is
//! *static* — no configuration, no rescaling — so the `/metrics` bucket
//! bounds never move between scrapes.
//!
//! The width of a bucket in octave `e` is `2^(e-3)` ns while its smallest
//! member is at least `8 · 2^(e-3)` ns, so a reported quantile (the
//! **upper bound** of the bucket holding the requested rank) overestimates
//! the true sample quantile by at most 12.5 %.

use std::time::Duration;

/// Number of linear sub-buckets per power-of-two octave (must be a power
/// of two; 8 gives ≤ 12.5 % relative quantile error).
pub const SUB_BUCKETS: u64 = 8;

/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Total bucket count: one exact bucket per nanosecond below
/// [`SUB_BUCKETS`], then [`SUB_BUCKETS`] per octave up to `u64::MAX` ns.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB_BUCKETS as usize;

/// Bucket index of a nanosecond observation. Total and monotone over the
/// whole `u64` range: every value lands in exactly one bucket, and larger
/// values never land in earlier buckets.
pub fn bucket_index(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS {
        return nanos as usize;
    }
    let e = 63 - nanos.leading_zeros(); // position of the leading bit, ≥ SUB_BITS
    let shift = e - SUB_BITS;
    let sub = (nanos >> shift) & (SUB_BUCKETS - 1);
    ((e - SUB_BITS + 1) as usize) * SUB_BUCKETS as usize + sub as usize
}

/// Inclusive `[lower, upper]` nanosecond range of bucket `index`.
///
/// Every `n` with `bucket_index(n) == index` lies in this range, and the
/// bounds themselves map back to `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let sub_buckets = SUB_BUCKETS as usize;
    if index < sub_buckets {
        return (index as u64, index as u64);
    }
    let e = (index / sub_buckets) as u32 + SUB_BITS - 1;
    let sub = (index % sub_buckets) as u64;
    let width = 1u64 << (e - SUB_BITS);
    let lower = (SUB_BUCKETS + sub) << (e - SUB_BITS);
    (lower, lower + (width - 1))
}

/// A log-bucketed latency histogram with exact count / sum / max and
/// bounded-error quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Per-bucket observation counts (see [`bucket_index`]).
    counts: Vec<u64>,
    /// Total observations.
    count: u64,
    /// Sum of all observations, nanoseconds. Integer so that the sum is
    /// exact whatever the recording order.
    sum_ns: u128,
    /// Largest observation, nanoseconds.
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one observation given in seconds. Negative and non-finite
    /// values clamp to zero (they can only come from clock misuse and must
    /// not poison the buckets).
    pub fn record(&mut self, seconds: f64) {
        let nanos = if seconds.is_finite() && seconds > 0.0 {
            let ns = (seconds * 1e9).round();
            if ns >= u64::MAX as f64 {
                u64::MAX
            } else {
                ns as u64
            }
        } else {
            0
        };
        self.record_nanos(nanos);
    }

    /// Records one observation given as a [`Duration`].
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// Records one observation given in integer nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.counts[bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(nanos);
        self.max_ns = self.max_ns.max(nanos);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact largest observation, seconds (0 when empty).
    pub fn max_s(&self) -> f64 {
        self.max_ns as f64 / 1e9
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) in seconds: the upper
    /// bound of the bucket containing the observation of rank
    /// `ceil(q · count)`. Overestimates the true sample quantile by at
    /// most 12.5 % (and never past the recorded maximum). Zero when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = bucket_bounds(i);
                return upper.min(self.max_ns) as f64 / 1e9;
            }
        }
        self.max_s()
    }

    /// Median latency, seconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// The non-empty buckets as `(upper_bound_ns, count)` pairs in
    /// ascending bucket order. The upper bound is inclusive (see
    /// [`bucket_bounds`]), matching the inclusive `le` semantics of
    /// Prometheus histogram buckets; `/metrics` renders these
    /// cumulatively as the `_bucket` series.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).1, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_below_sub_buckets_are_exact() {
        for n in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(n), n as usize);
            assert_eq!(bucket_bounds(n as usize), (n, n));
        }
    }

    #[test]
    fn exact_bucket_boundaries_first_octaves() {
        // First bucketed octave [8, 16): width 1, still exact.
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        // Second octave [16, 32): width 2.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16, "16 and 17 share a bucket");
        assert_eq!(bucket_index(18), 17);
        assert_eq!(bucket_index(31), 23);
        // Third octave [32, 64): width 4.
        assert_eq!(bucket_index(32), 24);
        assert_eq!(bucket_index(35), 24);
        assert_eq!(bucket_index(36), 25);
        assert_eq!(bucket_bounds(24), (32, 35));
    }

    #[test]
    fn bounds_and_index_are_mutually_consistent() {
        // For a spread of buckets: every value in [lower, upper] maps back
        // to the bucket, and the neighbours map outside it.
        for index in [0usize, 7, 8, 15, 16, 23, 24, 100, 200, 300, 400] {
            let (lower, upper) = bucket_bounds(index);
            assert_eq!(bucket_index(lower), index, "lower bound of {index}");
            assert_eq!(bucket_index(upper), index, "upper bound of {index}");
            if lower > 0 {
                assert_eq!(bucket_index(lower - 1), index - 1);
            }
            if upper < u64::MAX {
                assert_eq!(bucket_index(upper + 1), index + 1);
            }
        }
    }

    #[test]
    fn index_is_total_and_monotone_at_extremes() {
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert!(bucket_index(u64::MAX / 2) < bucket_index(u64::MAX));
        let (_, upper) = bucket_bounds(NUM_BUCKETS - 1);
        assert_eq!(upper, u64::MAX);
    }

    #[test]
    fn count_mean_max_are_exact() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        for ms in [1.0, 2.0, 3.0, 10.0] {
            h.record(ms / 1000.0);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum_s() / h.count() as f64 - 0.004).abs() < 1e-9);
        assert!((h.max_s() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_within_the_error_bound() {
        let mut h = LatencyHistogram::new();
        // 1..=1000 µs, uniformly.
        for us in 1..=1000u64 {
            h.record_nanos(us * 1000);
        }
        for (q, exact_us) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got_us = h.quantile(q) * 1e6;
            assert!(
                got_us >= exact_us && got_us <= exact_us * 1.125 + 1.0,
                "q={q}: got {got_us} µs, exact {exact_us} µs"
            );
        }
        assert_eq!(h.p50(), h.quantile(0.5));
        assert!(h.p50() <= h.quantile(0.95) && h.quantile(0.95) <= h.quantile(0.99));
        assert!(h.quantile(0.99) <= h.max_s());
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.sum_s(), 0.0);
        assert_eq!(empty.max_s(), 0.0);

        let mut one = LatencyHistogram::new();
        one.record(0.001);
        // Every quantile of a single observation is that observation's
        // bucket, capped at the recorded max — i.e. exactly 1 ms here.
        assert_eq!(one.quantile(0.0), 0.001);
        assert_eq!(one.quantile(1.0), 0.001);

        let mut h = LatencyHistogram::new();
        h.record(-5.0); // clamps to zero instead of corrupting state
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_s(), 0.0);
    }

    #[test]
    fn duration_recording_matches_seconds() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_duration(Duration::from_micros(1500));
        b.record(0.0015);
        assert_eq!(a, b);
    }

    #[test]
    fn p999_sits_between_p99_and_max() {
        let mut h = LatencyHistogram::new();
        for us in 1..=2000u64 {
            h.record_nanos(us * 1000);
        }
        assert!(h.quantile(0.99) <= h.quantile(0.999));
        assert!(h.quantile(0.999) <= h.max_s());
        let exact_us = 1998.0; // rank ceil(0.999 · 2000)
        let got_us = h.quantile(0.999) * 1e6;
        assert!(
            got_us >= exact_us && got_us <= exact_us * 1.125 + 1.0,
            "p999 {got_us} µs vs exact {exact_us} µs"
        );
    }

    #[test]
    fn nonzero_buckets_carry_inclusive_upper_bounds() {
        let mut h = LatencyHistogram::new();
        h.record_nanos(3);
        h.record_nanos(3);
        h.record_nanos(40);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (3, 2)); // exact bucket below SUB_BUCKETS
        let (upper, count) = buckets[1];
        assert_eq!(count, 1);
        assert_eq!(bucket_index(upper), bucket_index(40));
        assert!(upper >= 40, "upper bound is inclusive");
        // Ascending order, and totals match the recorded count.
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert!((h.sum_s() - 46e-9).abs() < 1e-15);
    }
}
