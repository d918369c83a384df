//! The host-speed reference every timed workload is measured against.
//!
//! The benchmark's host is a share of a machine whose speed drifts: for
//! stretches of seconds to minutes, the same 3,000-target plan takes 85 ms
//! or 150 ms. A run that falls in a slow stretch reads slow however long it
//! runs, so raw per-operation latencies spread between runs by as much as
//! the host drifts. The reference is a fixed computation frozen in the
//! benchmark itself — a nearest-neighbour tour improved by full 2-opt over
//! 300 seeded points, the same kind of branchy, cache-resident search the
//! planners do — that no change to the repository can make faster or
//! slower. Timed between operations, it slows down with the host and only
//! with the host, so an operation's latency divided by the reference time
//! around it (its cost in *reference units*) moves with the code under test
//! and hardly at all with the host's phases.

use crate::{mix, ms_since, stats};
use std::hint::black_box;
use std::time::Instant;

/// Points of the reference tour.
const POINTS: usize = 300;
const SEED: u64 = 0x5eed_7e5f;

/// Runs the reference computation once; its wall time in milliseconds.
pub fn reference_ms() -> f64 {
    let points: Vec<(f64, f64)> = (0..POINTS as u64)
        .map(|i| {
            let h = mix(SEED, i);
            ((h & 0xffff) as f64, ((h >> 16) & 0xffff) as f64)
        })
        .collect();
    let start = Instant::now();
    let d = |a: usize, b: usize| {
        let (p, q) = (points[a], points[b]);
        ((p.0 - q.0).powi(2) + (p.1 - q.1).powi(2)).sqrt()
    };
    let mut used = vec![false; POINTS];
    let mut tour = Vec::with_capacity(POINTS);
    tour.push(0);
    used[0] = true;
    for _ in 1..POINTS {
        let last = tour[tour.len() - 1];
        let next = (0..POINTS)
            .filter(|&j| !used[j])
            .min_by(|&a, &b| d(last, a).total_cmp(&d(last, b)))
            .expect("an unvisited point");
        used[next] = true;
        tour.push(next);
    }
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..POINTS - 2 {
            for j in i + 2..POINTS {
                let (a, b, c, e) = (tour[i], tour[i + 1], tour[j], tour[(j + 1) % POINTS]);
                if d(a, c) + d(b, e) < d(a, b) + d(c, e) - 1e-9 {
                    tour[i + 1..=j].reverse();
                    improved = true;
                }
            }
        }
    }
    black_box(&tour);
    ms_since(start)
}

/// References on each side of an operation that its latency is divided by.
const REFERENCES_EACH_SIDE: usize = 3;

/// A run's operation latencies and reference times, in the order they
/// were taken. Each latency is divided by the median of the
/// [`REFERENCES_EACH_SIDE`] reference times before it and as many after it
/// (more on one side where the other runs out), so it is measured against
/// the host's speed within about a second of it.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Latency of each operation (ms) and how many reference times were
    /// taken before it.
    ops: Vec<(f64, usize)>,
    references_ms: Vec<f64>,
}

impl Timeline {
    /// Records one operation's latency.
    pub fn push(&mut self, ms: f64) {
        self.ops.push((ms, self.references_ms.len()));
    }

    /// Records operations that ran between the same two reference times.
    pub fn extend(&mut self, ms: &[f64]) {
        for &ms in ms {
            self.push(ms);
        }
    }

    /// Times the reference once.
    pub fn reference(&mut self) {
        self.references_ms.push(reference_ms());
    }

    /// The run: raw latencies (ms), latencies in reference units, and every
    /// reference time (ms). A run with no reference time yet is timed once.
    pub fn finish(mut self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        if self.references_ms.is_empty() {
            self.reference();
        }
        let references = &self.references_ms;
        let span = (2 * REFERENCES_EACH_SIDE).min(references.len());
        let units = self
            .ops
            .iter()
            .map(|&(ms, before)| {
                let first = before
                    .saturating_sub(REFERENCES_EACH_SIDE)
                    .min(references.len() - span);
                ms / stats::median(&references[first..first + span])
            })
            .collect();
        let raw = self.ops.iter().map(|&(ms, _)| ms).collect();
        (raw, units, self.references_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_a_fixed_computation_of_about_a_millisecond() {
        let times: Vec<f64> = (0..5).map(|_| reference_ms()).collect();
        let median = stats::median(&times);
        assert!(median > 0.01 && median < 100.0, "{median}");
    }

    #[test]
    fn each_latency_is_divided_by_the_references_around_it() {
        let mut t = Timeline::default();
        t.references_ms.extend([1.0, 1.0, 1.0]);
        t.push(6.0); // references 0..6: median of 1,1,1,2,2,2 (nearest rank) is 1
        t.references_ms.extend([2.0, 2.0, 2.0]);
        t.references_ms.extend([4.0, 4.0, 4.0, 4.0]);
        t.push(8.0); // references 7..13 clipped to 4..10: 2,2,4,4,4,4 -> 4
        t.extend(&[12.0, 24.0]);
        let (raw, units, references) = t.finish();
        assert_eq!(raw, vec![6.0, 8.0, 12.0, 24.0]);
        assert_eq!(units, vec![6.0, 2.0, 3.0, 6.0]);
        assert_eq!(references.len(), 10);
    }

    #[test]
    fn a_run_without_a_reference_times_one() {
        let mut t = Timeline::default();
        t.push(1.0);
        let (raw, units, references) = t.finish();
        assert_eq!(raw.len(), units.len());
        assert_eq!(references.len(), 1);
        assert!(units[0] > 0.0 && units[0].is_finite());
    }
}
