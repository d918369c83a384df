//! Deterministic head-based trace sampling.
//!
//! The keep/drop decision is a **pure function** of `(trace_id, rate)`:
//! the trace id runs through one SplitMix64 finaliser round, the top 53
//! bits become a uniform draw in `[0, 1)`, and the trace is kept iff the
//! draw falls below the rate. No process state, no clocks, no RNG stream
//! — the same `(trace_id, rate)` pair answers the same way on every run,
//! every worker thread, and every machine, which is what lets a serving
//! replay (same admission order, same seed) retain the exact same set of
//! traces. See `docs/DETERMINISM.md`, "Trace sampling".
//!
//! Tail-based promotion (always keeping slow and error traces) is the
//! caller's OR on top of this head decision; mule-serve applies it in
//! `handle_connection`.

/// Whether the trace with the given id should be kept at the given
/// sampling rate. Pure: same `(trace_id, rate)`, same answer, everywhere.
///
/// Edge cases are exact, not probabilistic: `rate <= 0` never keeps and
/// `rate >= 1` always keeps (NaN rates behave as 0 — a misparsed rate
/// must fail closed, not sample noisily).
pub fn sample_keep(trace_id: u64, rate: f64) -> bool {
    if rate.is_nan() || rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    // One SplitMix64 round suffices: the input is already well-mixed when
    // it is a serve trace token, and the finaliser's avalanche covers
    // sequential ids too.
    let z = splitmix64(trace_id);
    // Top 53 bits → uniform in [0, 1); every f64 in that range is exact.
    let draw = (z >> 11) as f64 / (1u64 << 53) as f64;
    draw < rate
}

/// One SplitMix64 round: adds the golden-ratio increment to `x` and runs
/// the finaliser. The workspace's one copy of the mixer, behind trace
/// sampling, the serve trace tokens, mule-fault's decision draws and the
/// route bench's query stream.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_outputs() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn decision_is_a_pure_function_of_id_and_rate() {
        for id in [0u64, 1, 42, u64::MAX, 0x9e3779b97f4a7c15] {
            for rate in [0.01, 0.25, 0.5, 0.99] {
                let first = sample_keep(id, rate);
                for _ in 0..10 {
                    assert_eq!(sample_keep(id, rate), first, "id={id} rate={rate}");
                }
            }
        }
    }

    #[test]
    fn decision_is_identical_across_threads() {
        let ids: Vec<u64> = (0..1000).collect();
        let baseline: Vec<bool> = ids.iter().map(|&id| sample_keep(id, 0.3)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ids = ids.clone();
                std::thread::spawn(move || {
                    ids.iter()
                        .map(|&id| sample_keep(id, 0.3))
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), baseline);
        }
    }

    #[test]
    fn rate_zero_never_keeps_and_rate_one_always_keeps() {
        for id in 0..10_000u64 {
            assert!(!sample_keep(id, 0.0), "rate 0 kept id {id}");
            assert!(sample_keep(id, 1.0), "rate 1 dropped id {id}");
        }
        // Out-of-range and non-finite rates clamp to the edges.
        assert!(!sample_keep(7, -0.5));
        assert!(sample_keep(7, 1.5));
        assert!(!sample_keep(7, f64::NAN), "NaN must fail closed");
    }

    #[test]
    fn keep_fraction_tracks_the_rate() {
        let n = 100_000u64;
        for rate in [0.05, 0.5, 0.9] {
            let kept = (0..n).filter(|&id| sample_keep(id, rate)).count() as f64;
            let fraction = kept / n as f64;
            assert!(
                (fraction - rate).abs() < 0.01,
                "rate {rate}: kept fraction {fraction}"
            );
        }
    }

    #[test]
    fn sequential_ids_are_decorrelated() {
        // Runs of identical decisions on sequential ids should stay short
        // at rate 0.5 — a weak mixer would keep long blocks together.
        let mut longest = 0usize;
        let mut run = 0usize;
        let mut last = None;
        for id in 0..10_000u64 {
            let keep = sample_keep(id, 0.5);
            if Some(keep) == last {
                run += 1;
            } else {
                run = 1;
                last = Some(keep);
            }
            longest = longest.max(run);
        }
        assert!(
            longest < 30,
            "suspicious run of {longest} identical decisions"
        );
    }
}
