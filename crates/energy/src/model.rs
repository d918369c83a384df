//! The energy consumption model.
//!
//! Constants follow the paper's simulation model (§5.1): moving one metre
//! costs 8.267 J and collecting one target's data costs 0.075 J (the paper
//! states 0.075 J/s for the collection radio and charges it per collection
//! event; we keep the same per-collection accounting).

/// Per-activity energy costs of a data mule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy to move one metre, in joules (`c_m` in Eq. 4).
    pub move_cost_j_per_m: f64,
    /// Energy to collect one target's data, in joules (`c_s` in Eq. 4).
    pub collect_cost_j: f64,
    /// Moving speed of the mule in metres per second (2 m/s in the paper).
    pub speed_m_per_s: f64,
    /// Initial battery energy `M_Energy` in joules.
    pub initial_energy_j: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::paper_default()
    }
}

impl EnergyModel {
    /// The paper's simulation constants. The initial energy is sized so a
    /// mule can cover several complete 800 m × 800 m patrolling rounds
    /// before needing the recharge station (the paper does not state
    /// `M_Energy` explicitly; 200 kJ ≈ 6–8 rounds at the stated costs, which
    /// reproduces the "recharge every r rounds" behaviour).
    pub fn paper_default() -> Self {
        EnergyModel {
            move_cost_j_per_m: 8.267,
            collect_cost_j: 0.075,
            speed_m_per_s: 2.0,
            initial_energy_j: 200_000.0,
        }
    }

    /// Energy to travel `distance_m` metres.
    #[inline]
    pub fn movement_energy(&self, distance_m: f64) -> f64 {
        self.move_cost_j_per_m * distance_m.max(0.0)
    }

    /// Energy to perform `collections` data collections.
    #[inline]
    pub fn collection_energy(&self, collections: usize) -> f64 {
        self.collect_cost_j * collections as f64
    }

    /// Energy to complete one traversal of a closed path of length
    /// `path_length_m` that performs `collections` collections — the
    /// denominator of Eq. 4.
    #[inline]
    pub fn round_energy(&self, path_length_m: f64, collections: usize) -> f64 {
        self.movement_energy(path_length_m) + self.collection_energy(collections)
    }

    /// Maximum distance a mule can travel on `energy_j` joules if it does
    /// nothing but move.
    #[inline]
    pub fn range_on(&self, energy_j: f64) -> f64 {
        if self.move_cost_j_per_m <= 0.0 {
            f64::INFINITY
        } else {
            energy_j.max(0.0) / self.move_cost_j_per_m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let m = EnergyModel::paper_default();
        assert_eq!(m.move_cost_j_per_m, 8.267);
        assert_eq!(m.collect_cost_j, 0.075);
        assert_eq!(m.speed_m_per_s, 2.0);
        assert_eq!(EnergyModel::default(), m);
    }

    #[test]
    fn movement_energy_is_linear_and_clamps_negative_distances() {
        let m = EnergyModel::paper_default();
        assert!((m.movement_energy(100.0) - 826.7).abs() < 1e-9);
        assert_eq!(m.movement_energy(-50.0), 0.0);
    }

    #[test]
    fn collection_energy_counts_events() {
        let m = EnergyModel::paper_default();
        assert!((m.collection_energy(10) - 0.75).abs() < 1e-12);
        assert_eq!(m.collection_energy(0), 0.0);
    }

    #[test]
    fn round_energy_is_the_sum_of_both_terms() {
        let m = EnergyModel::paper_default();
        let e = m.round_energy(1000.0, 10);
        assert!((e - (8267.0 + 0.75)).abs() < 1e-9);
    }

    #[test]
    fn range_on_inverts_movement_energy() {
        let m = EnergyModel::paper_default();
        let d = 1234.0;
        let e = m.movement_energy(d);
        assert!((m.range_on(e) - d).abs() < 1e-9);
        assert_eq!(m.range_on(-10.0), 0.0);
    }
}
