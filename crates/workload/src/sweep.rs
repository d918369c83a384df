//! Declarative experiment sweeps: a parameter grid over seeds, mule
//! counts, mule speeds and disruption configurations.
//!
//! A [`SweepSpec`] is pure data — it describes *which* cells an experiment
//! visits, not how they run. [`SweepSpec::cells`] expands the grid into the
//! full cartesian product in a fixed, documented order (seeds outermost,
//! disruptions innermost), so a sweep's cell list — and therefore every
//! derived scenario and every aggregated table row — is identical on every
//! machine and for every worker count. `mule-sim`'s `montecarlo` module
//! executes the cells in parallel; `patrolctl sweep` drives it from the
//! command line.

use crate::config::ScenarioConfig;
use crate::disruption::DisruptionConfig;

/// Mule speed of the paper's §5.1 energy model, metres per second. Used as
/// the default (single-element) speed axis; kept in sync with
/// `mule_energy::EnergyModel::paper_default()` by a test in `mule-sim`.
pub const PAPER_SPEED_M_PER_S: f64 = 2.0;

/// A declarative experiment grid: the cartesian product of a seed axis, a
/// mule-count axis, a speed axis and a disruption axis, each cell replicated
/// `replicas` times over a deterministic seed fan.
///
/// An **empty axis produces an empty grid** (the cartesian product with an
/// empty set is empty); [`SweepSpec::new`] therefore starts every axis as a
/// one-element vector taken from the base configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Configuration shared by every cell; each cell overrides its `seed`
    /// and `mule_count` fields.
    pub base: ScenarioConfig,
    /// Base seeds (one replication fan per seed).
    pub seeds: Vec<u64>,
    /// Fleet sizes to sweep.
    pub mule_counts: Vec<usize>,
    /// Mule speeds to sweep, metres per second (overrides the energy
    /// model's nominal speed).
    pub speeds_m_per_s: Vec<f64>,
    /// Disruption axis: `None` runs the static engine, `Some(config)` runs
    /// the dynamic engine with that disruption template. The template's
    /// `seed` and `horizon_s` are overridden per replica so disruptions
    /// stay decorrelated across the fan (see `mule-sim`'s `run_sweep`).
    pub disruptions: Vec<Option<DisruptionConfig>>,
    /// Replications per cell (the paper averages over 20).
    pub replicas: usize,
    /// Simulation horizon per replica, seconds.
    pub horizon_s: f64,
}

/// One cell of an expanded sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in [`SweepSpec::cells`] order (stable across runs).
    pub index: usize,
    /// Base seed of this cell's replication fan.
    pub seed: u64,
    /// Fleet size.
    pub mules: usize,
    /// Mule speed, metres per second.
    pub speed_m_per_s: f64,
    /// Disruption template (`None` = static run).
    pub disruption: Option<DisruptionConfig>,
}

impl SweepCell {
    /// Short label of the disruption axis value for tables and CSV.
    pub fn disruption_label(&self) -> String {
        match &self.disruption {
            None => "none".to_string(),
            Some(d) => {
                let mut parts = Vec::new();
                if d.target_failures > 0 {
                    parts.push(format!("fail={}", d.target_failures));
                }
                if d.recover_after_s.is_some() {
                    parts.push("recover".to_string());
                }
                if d.late_arrivals > 0 {
                    parts.push(format!("late={}", d.late_arrivals));
                }
                if d.mule_breakdowns > 0 {
                    parts.push(format!("bd={}", d.mule_breakdowns));
                }
                if d.speed_windows > 0 {
                    parts.push(format!("slow={}", d.speed_windows));
                }
                if parts.is_empty() {
                    "noop".to_string()
                } else {
                    parts.join(",")
                }
            }
        }
    }
}

impl SweepSpec {
    /// A single-cell sweep around `base`: its seed, its mule count, the
    /// paper's nominal speed, no disruptions, 8 replicas.
    pub fn new(base: ScenarioConfig) -> Self {
        SweepSpec {
            seeds: vec![base.seed],
            mule_counts: vec![base.mule_count],
            speeds_m_per_s: vec![PAPER_SPEED_M_PER_S],
            disruptions: vec![None],
            replicas: 8,
            horizon_s: 40_000.0,
            base,
        }
    }

    /// Builder-style override of the seed axis.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Builder-style override of the mule-count axis.
    pub fn with_mule_counts(mut self, counts: Vec<usize>) -> Self {
        self.mule_counts = counts;
        self
    }

    /// Builder-style override of the speed axis.
    pub fn with_speeds(mut self, speeds_m_per_s: Vec<f64>) -> Self {
        self.speeds_m_per_s = speeds_m_per_s;
        self
    }

    /// Builder-style override of the disruption axis.
    pub fn with_disruptions(mut self, disruptions: Vec<Option<DisruptionConfig>>) -> Self {
        self.disruptions = disruptions;
        self
    }

    /// Builder-style override of the per-cell replica count.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Builder-style override of the horizon.
    pub fn with_horizon(mut self, horizon_s: f64) -> Self {
        self.horizon_s = horizon_s.max(0.0);
        self
    }

    /// Number of cells the grid expands to (the product of the axis
    /// lengths; zero when any axis is empty).
    pub fn cell_count(&self) -> usize {
        self.seeds.len()
            * self.mule_counts.len()
            * self.speeds_m_per_s.len()
            * self.disruptions.len()
    }

    /// Total number of simulation runs (`cell_count × replicas`).
    pub fn run_count(&self) -> usize {
        self.cell_count() * self.replicas
    }

    /// Expands the grid into its cells, in the fixed nesting order
    /// `seeds → mule_counts → speeds → disruptions` (disruptions vary
    /// fastest). Cell `index` equals the position in the returned vector.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for &seed in &self.seeds {
            for &mules in &self.mule_counts {
                for &speed in &self.speeds_m_per_s {
                    for disruption in &self.disruptions {
                        cells.push(SweepCell {
                            index: cells.len(),
                            seed,
                            mules,
                            speed_m_per_s: speed,
                            disruption: *disruption,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The scenario configuration of one cell: the base with the cell's
    /// seed and mule count applied. (Speed lives in the simulator's energy
    /// model, not the scenario; the sweep runner applies it there.)
    pub fn scenario_config(&self, cell: &SweepCell) -> ScenarioConfig {
        self.base.with_seed(cell.seed).with_mules(cell.mules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::new(ScenarioConfig::paper_default())
    }

    #[test]
    fn new_is_a_single_cell_around_the_base() {
        let s = spec();
        assert_eq!(s.cell_count(), 1);
        let cells = s.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].seed, s.base.seed);
        assert_eq!(cells[0].mules, s.base.mule_count);
        assert_eq!(cells[0].speed_m_per_s, PAPER_SPEED_M_PER_S);
        assert!(cells[0].disruption.is_none());
        assert_eq!(s.run_count(), s.replicas);
    }

    #[test]
    fn cell_count_is_the_cartesian_product_of_the_axes() {
        let s = spec()
            .with_seeds(vec![1, 2, 3])
            .with_mule_counts(vec![2, 4])
            .with_speeds(vec![1.0, 2.0])
            .with_disruptions(vec![
                None,
                Some(DisruptionConfig::default_mixed(1, 40_000.0)),
            ]);
        assert_eq!(s.cell_count(), 3 * 2 * 2 * 2);
        assert_eq!(s.cells().len(), 24);
        assert_eq!(s.with_replicas(5).run_count(), 24 * 5);
    }

    #[test]
    fn empty_axes_produce_an_empty_grid() {
        assert_eq!(spec().with_seeds(vec![]).cell_count(), 0);
        assert!(spec().with_seeds(vec![]).cells().is_empty());
        assert_eq!(spec().with_mule_counts(vec![]).cell_count(), 0);
        assert_eq!(spec().with_speeds(vec![]).cell_count(), 0);
        assert_eq!(spec().with_disruptions(vec![]).cell_count(), 0);
        assert_eq!(spec().with_speeds(vec![]).run_count(), 0);
    }

    #[test]
    fn cells_enumerate_in_documented_nesting_order() {
        let s = spec()
            .with_seeds(vec![10, 20])
            .with_mule_counts(vec![3, 5])
            .with_speeds(vec![2.0]);
        let cells = s.cells();
        assert_eq!(cells.len(), 4);
        // Disruptions (len 1) and speeds (len 1) vary fastest; mules next.
        assert_eq!((cells[0].seed, cells[0].mules), (10, 3));
        assert_eq!((cells[1].seed, cells[1].mules), (10, 5));
        assert_eq!((cells[2].seed, cells[2].mules), (20, 3));
        assert_eq!((cells[3].seed, cells[3].mules), (20, 5));
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let s = spec()
            .with_seeds(vec![1, 2])
            .with_mule_counts(vec![2, 4])
            .with_speeds(vec![1.5, 2.5]);
        assert_eq!(s.cells(), s.cells());
    }

    #[test]
    fn scenario_config_applies_cell_seed_and_mules() {
        let s = spec().with_seeds(vec![42]).with_mule_counts(vec![7]);
        let cells = s.cells();
        let cfg = s.scenario_config(&cells[0]);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.mule_count, 7);
        assert_eq!(cfg.target_count, s.base.target_count);
    }

    #[test]
    fn disruption_labels_summarise_the_template() {
        let cell = |d| SweepCell {
            index: 0,
            seed: 1,
            mules: 4,
            speed_m_per_s: 2.0,
            disruption: d,
        };
        assert_eq!(cell(None).disruption_label(), "none");
        let mixed = DisruptionConfig::default_mixed(1, 40_000.0);
        let label = cell(Some(mixed)).disruption_label();
        assert!(label.contains("fail="), "label was {label}");
        assert!(label.contains("bd="), "label was {label}");
    }
}
