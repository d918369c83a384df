//! Eq. 4 of the paper: the patrol-round budget.
//!
//! `r = ⌊ M_Energy / (|P̂|·c_m + h·c_s) ⌋`
//!
//! where `|P̂|` is the length of the recharge path, `c_m` / `c_s` the
//! movement / collection costs and `h` the number of targets. A mule can
//! afford `r` complete rounds per battery charge; RW-TCTP therefore patrols
//! the ordinary weighted patrolling path for `r − 1` rounds and takes the
//! recharge path on round `r`.

use crate::model::EnergyModel;

/// The recharge schedule derived from Eq. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatrolRounds {
    /// Total rounds affordable per charge (`r` in Eq. 4, at least 1).
    pub rounds_per_charge: u32,
    /// Energy consumed by one round of the path used for the estimate.
    pub energy_per_round_j: f64,
    /// Energy left over after `rounds_per_charge` rounds (safety margin).
    pub residual_energy_j: f64,
}

impl PatrolRounds {
    /// Evaluates Eq. 4 for a path of length `path_length_m` containing
    /// `collections_per_round` data collections, with the battery capacity
    /// and costs taken from `model`.
    ///
    /// The result is clamped to at least one round: a path so long that even
    /// a single traversal exceeds the battery is still "planned" as one
    /// round so the caller can detect the infeasibility via
    /// [`PatrolRounds::is_feasible`].
    pub fn evaluate(model: &EnergyModel, path_length_m: f64, collections_per_round: usize) -> Self {
        let per_round = model.round_energy(path_length_m, collections_per_round);
        let raw = if per_round <= 0.0 {
            // A zero-cost round can be repeated arbitrarily often; pick a
            // large but finite schedule so downstream arithmetic stays sane.
            u32::MAX
        } else {
            (model.initial_energy_j / per_round).floor() as u32
        };
        let rounds = raw.max(1);
        let residual = model.initial_energy_j - per_round * f64::from(rounds.min(raw.max(1)));
        PatrolRounds {
            rounds_per_charge: rounds,
            energy_per_round_j: per_round,
            residual_energy_j: residual.max(0.0),
        }
    }

    /// Returns `true` when at least one full round fits in the battery.
    pub fn is_feasible(&self, model: &EnergyModel) -> bool {
        self.energy_per_round_j <= model.initial_energy_j
    }

    /// Number of ordinary (non-recharge) rounds between recharge rounds:
    /// `r − 1`.
    pub fn patrol_rounds_between_recharges(&self) -> u32 {
        self.rounds_per_charge.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with_energy(e: f64) -> EnergyModel {
        EnergyModel {
            initial_energy_j: e,
            ..EnergyModel::paper_default()
        }
    }

    #[test]
    fn evaluate_matches_hand_computed_eq4() {
        // 1000 m path, 10 targets: per round = 8267 + 0.75 = 8267.75 J.
        let model = model_with_energy(50_000.0);
        let r = PatrolRounds::evaluate(&model, 1000.0, 10);
        assert!((r.energy_per_round_j - 8267.75).abs() < 1e-9);
        assert_eq!(r.rounds_per_charge, 6); // floor(50000 / 8267.75) = 6
        assert!(r.is_feasible(&model));
        assert_eq!(r.patrol_rounds_between_recharges(), 5);
        assert!((r.residual_energy_j - (50_000.0 - 6.0 * 8267.75)).abs() < 1e-6);
    }

    #[test]
    fn infeasible_paths_are_clamped_to_one_round_and_flagged() {
        let model = model_with_energy(100.0);
        let r = PatrolRounds::evaluate(&model, 1000.0, 5);
        assert_eq!(r.rounds_per_charge, 1);
        assert!(!r.is_feasible(&model));
        assert_eq!(r.patrol_rounds_between_recharges(), 0);
        assert_eq!(r.residual_energy_j, 0.0);
    }

    #[test]
    fn zero_cost_rounds_do_not_divide_by_zero() {
        let model = EnergyModel {
            move_cost_j_per_m: 0.0,
            collect_cost_j: 0.0,
            ..EnergyModel::paper_default()
        };
        let r = PatrolRounds::evaluate(&model, 500.0, 10);
        assert_eq!(r.rounds_per_charge, u32::MAX);
        assert!(r.is_feasible(&model));
    }

    #[test]
    fn residual_energy_never_negative_and_less_than_one_round() {
        let model = model_with_energy(30_000.0);
        let r = PatrolRounds::evaluate(&model, 700.0, 20);
        assert!(r.residual_energy_j >= 0.0);
        assert!(r.residual_energy_j < r.energy_per_round_j);
    }
}
