//! Replication support: "each simulation result is obtained from the
//! average results of 20 simulations" (paper §5.1).
//!
//! [`seed_fan`] expands a base seed into the decorrelated seeds of its
//! replicas; `mule-sim`'s `run_sweep` gives replica `k` of a cell the
//! configuration `base.with_seed(seed_fan(base.seed, n)[k])`.

/// Derives `count` distinct, deterministic seeds from a base seed.
///
/// A SplitMix64 step keeps the fan decorrelated even for adjacent base
/// seeds, which matters because figure sweeps use base seeds 0, 1, 2, …
pub fn seed_fan(base_seed: u64, count: usize) -> Vec<u64> {
    let mut state = base_seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fan_is_deterministic_and_distinct() {
        let a = seed_fan(7, 20);
        let b = seed_fan(7, 20);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        let unique: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn adjacent_base_seeds_produce_disjoint_fans() {
        let a: std::collections::HashSet<u64> = seed_fan(0, 20).into_iter().collect();
        let b: std::collections::HashSet<u64> = seed_fan(1, 20).into_iter().collect();
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn zero_count_fan_is_empty() {
        assert!(seed_fan(123, 0).is_empty());
    }
}
