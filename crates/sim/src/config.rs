//! Simulation configuration.

use mule_energy::EnergyModel;

/// Knobs of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Energy model (speed, movement/collection costs, battery capacity).
    pub energy: EnergyModel,
    /// Time a mule dwells at a target while collecting its data, seconds.
    /// The paper charges collection as an energy cost only, so the default
    /// is zero dwell.
    pub collection_dwell_s: f64,
    /// Simulation horizon in seconds. `run_for` overrides this; it is the
    /// default used by [`crate::Simulation::run`].
    pub horizon_s: f64,
    /// Whether mules consume energy at all. Disabling energy turns the
    /// simulator into a pure timing model (useful for the unweighted
    /// figures, which do not involve batteries).
    pub energy_enabled: bool,
    /// When `true` (the default, matching the paper's two-phase strategy),
    /// all mules hold at their start points until the slowest mule has
    /// finished its location-initialisation move, then begin patrolling
    /// simultaneously. This is what keeps consecutive TCTP mules exactly
    /// `|P|/n` apart and the visiting intervals constant.
    pub synchronized_start: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            energy: EnergyModel::paper_default(),
            collection_dwell_s: 0.0,
            // Long enough for ~40 visits of every target in the paper's
            // default field with 4 mules.
            horizon_s: 80_000.0,
            energy_enabled: true,
            synchronized_start: true,
        }
    }
}

impl SimulationConfig {
    /// A pure timing configuration (energy accounting disabled) — used by
    /// the DCDT / SD figures that do not involve recharge.
    pub fn timing_only() -> Self {
        SimulationConfig {
            energy_enabled: false,
            ..SimulationConfig::default()
        }
    }

    /// Builder-style override of the horizon.
    pub fn with_horizon(mut self, horizon_s: f64) -> Self {
        self.horizon_s = horizon_s.max(0.0);
        self
    }

    /// Builder-style override of the energy model.
    pub fn with_energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_paper_energy_model_and_positive_horizon() {
        let c = SimulationConfig::default();
        assert_eq!(c.energy, EnergyModel::paper_default());
        assert!(c.horizon_s > 0.0);
        assert_eq!(c.collection_dwell_s, 0.0);
        assert!(c.energy_enabled);
    }

    #[test]
    fn timing_only_disables_energy() {
        let c = SimulationConfig::timing_only();
        assert!(!c.energy_enabled);
    }

    #[test]
    fn builders_clamp_negative_values() {
        let c = SimulationConfig::default().with_horizon(-5.0);
        assert_eq!(c.horizon_s, 0.0);
        let e = EnergyModel {
            speed_m_per_s: 5.0,
            ..EnergyModel::paper_default()
        };
        assert_eq!(
            SimulationConfig::default()
                .with_energy(e)
                .energy
                .speed_m_per_s,
            5.0
        );
    }
}
