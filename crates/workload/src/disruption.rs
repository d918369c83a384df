//! Disruption plans: the mid-run events a dynamic scenario throws at the
//! fleet.
//!
//! A [`DisruptionPlan`] is pure data — *what* happens and *when* — so it can
//! be generated here (seeded, reproducible), inspected, and then compiled
//! onto the `mule-events` timeline by the simulator. Four disruption
//! families are modelled:
//!
//! * **Target failure / recovery** — a target stops producing data and
//!   (optionally) comes back later.
//! * **Late target arrival** — a target that is part of the field but only
//!   comes online mid-run; until then it is inactive and the initial plan
//!   should not cover it.
//! * **Mule breakdown** — a mule permanently leaves the fleet.
//! * **Speed windows** — a global speed multiplier applies during a time
//!   window (head-wind, terrain, duty-cycling).

use crate::Scenario;
use mule_net::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// One disruption of a dynamic scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disruption {
    /// `target` stops producing data at `at_s`.
    TargetFailure {
        /// The failing target.
        target: NodeId,
        /// Failure time, seconds.
        at_s: f64,
    },
    /// A previously failed `target` comes back online at `at_s`.
    TargetRecovery {
        /// The recovering target.
        target: NodeId,
        /// Recovery time, seconds.
        at_s: f64,
    },
    /// `target` joins the field at `at_s`; it is inactive before that.
    TargetArrival {
        /// The late target.
        target: NodeId,
        /// Arrival time, seconds.
        at_s: f64,
    },
    /// Mule `mule` permanently breaks down at `at_s`.
    MuleBreakdown {
        /// Scenario index of the breaking mule.
        mule: usize,
        /// Breakdown time, seconds.
        at_s: f64,
    },
    /// The fleet moves at `factor` × nominal speed during
    /// `[start_s, end_s]`.
    SpeedWindow {
        /// Window start, seconds.
        start_s: f64,
        /// Window end, seconds.
        end_s: f64,
        /// Speed multiplier (1.0 = nominal).
        factor: f64,
    },
}

impl Disruption {
    /// The time the disruption (first) takes effect.
    pub fn time_s(&self) -> f64 {
        match *self {
            Disruption::TargetFailure { at_s, .. }
            | Disruption::TargetRecovery { at_s, .. }
            | Disruption::TargetArrival { at_s, .. }
            | Disruption::MuleBreakdown { at_s, .. } => at_s,
            Disruption::SpeedWindow { start_s, .. } => start_s,
        }
    }
}

/// Knobs of the seeded disruption generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisruptionConfig {
    /// RNG seed; equal configs over equal scenarios yield equal plans.
    pub seed: u64,
    /// Horizon the disruption times are placed within, seconds.
    pub horizon_s: f64,
    /// How many targets fail mid-run.
    pub target_failures: usize,
    /// When `Some`, every failed target recovers this many seconds after
    /// its failure (clipped to the horizon).
    pub recover_after_s: Option<f64>,
    /// How many targets arrive late.
    pub late_arrivals: usize,
    /// How many mules break down.
    pub mule_breakdowns: usize,
    /// How many speed windows to open.
    pub speed_windows: usize,
    /// The multiplier each speed window applies.
    pub speed_factor: f64,
}

impl Default for DisruptionConfig {
    fn default() -> Self {
        DisruptionConfig {
            seed: 1,
            horizon_s: 40_000.0,
            target_failures: 1,
            recover_after_s: None,
            late_arrivals: 0,
            mule_breakdowns: 1,
            speed_windows: 0,
            speed_factor: 0.5,
        }
    }
}

impl DisruptionConfig {
    /// Preset: target failures only (two failures, one recovering after a
    /// quarter of the horizon). Used as the `failures` axis value of
    /// `patrolctl sweep`.
    pub fn failures_only(seed: u64, horizon_s: f64) -> Self {
        DisruptionConfig {
            seed,
            horizon_s,
            target_failures: 2,
            recover_after_s: Some(horizon_s.max(0.0) * 0.25),
            late_arrivals: 0,
            mule_breakdowns: 0,
            speed_windows: 0,
            speed_factor: 0.5,
        }
    }

    /// Preset: a single mule breakdown and nothing else.
    pub fn breakdowns_only(seed: u64, horizon_s: f64) -> Self {
        DisruptionConfig {
            seed,
            horizon_s,
            target_failures: 0,
            recover_after_s: None,
            late_arrivals: 0,
            mule_breakdowns: 1,
            speed_windows: 0,
            speed_factor: 0.5,
        }
    }

    /// Preset: a bit of everything — one failure with recovery, one late
    /// arrival, one breakdown, one half-speed window.
    pub fn default_mixed(seed: u64, horizon_s: f64) -> Self {
        DisruptionConfig {
            seed,
            horizon_s,
            target_failures: 1,
            recover_after_s: Some(horizon_s.max(0.0) * 0.2),
            late_arrivals: 1,
            mule_breakdowns: 1,
            speed_windows: 1,
            speed_factor: 0.5,
        }
    }

    /// Returns this template with its `seed` and `horizon_s` replaced —
    /// how the sweep runner derives each replica's disruption plan from
    /// one axis value.
    pub fn reseeded(mut self, seed: u64, horizon_s: f64) -> Self {
        self.seed = seed;
        self.horizon_s = horizon_s;
        self
    }
}

/// The disruptions of one dynamic scenario, in nondecreasing time order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DisruptionPlan {
    /// The disruptions, sorted by [`Disruption::time_s`].
    pub disruptions: Vec<Disruption>,
}

impl DisruptionPlan {
    /// A plan with no disruptions (a dynamic run degenerates to a static
    /// one).
    pub fn none() -> Self {
        DisruptionPlan::default()
    }

    /// Samples a disruption plan for `scenario`. Fully determined by
    /// `config` (including its seed): failing targets, late targets and
    /// breaking mules are drawn without replacement — a target is never
    /// both failing and late — and all times land inside the horizon.
    ///
    /// Requests exceeding the available population are clamped (e.g. five
    /// breakdowns of a three-mule fleet breaks all three mules).
    pub fn seeded(scenario: &Scenario, config: &DisruptionConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let horizon = config.horizon_s.max(0.0);
        let mut disruptions = Vec::new();

        // Draw the failing and late targets from one shuffled pool so the
        // two sets never overlap.
        let mut targets = scenario.field().target_ids();
        targets.shuffle(&mut rng);
        let failures = config.target_failures.min(targets.len());
        let late = config.late_arrivals.min(targets.len() - failures);
        for &target in targets.iter().take(failures) {
            let at_s = rng.random_range(0.25..0.55) * horizon;
            disruptions.push(Disruption::TargetFailure { target, at_s });
            if let Some(after) = config.recover_after_s {
                let recover_s = at_s + after.max(0.0);
                if recover_s < horizon {
                    disruptions.push(Disruption::TargetRecovery {
                        target,
                        at_s: recover_s,
                    });
                }
            }
        }
        for &target in targets.iter().skip(failures).take(late) {
            let at_s = rng.random_range(0.10..0.35) * horizon;
            disruptions.push(Disruption::TargetArrival { target, at_s });
        }

        let mut mules: Vec<usize> = (0..scenario.mule_count()).collect();
        mules.shuffle(&mut rng);
        for &mule in mules.iter().take(config.mule_breakdowns.min(mules.len())) {
            let at_s = rng.random_range(0.30..0.70) * horizon;
            disruptions.push(Disruption::MuleBreakdown { mule, at_s });
        }

        for _ in 0..config.speed_windows {
            let start_s = rng.random_range(0.20..0.60) * horizon;
            let end_s = (start_s + 0.2 * horizon).min(horizon);
            disruptions.push(Disruption::SpeedWindow {
                start_s,
                end_s,
                factor: config.speed_factor.max(0.01),
            });
        }

        let mut plan = DisruptionPlan { disruptions };
        plan.sort();
        plan
    }

    /// Sorts the disruptions by effect time (NaN-safe).
    pub fn sort(&mut self) {
        self.disruptions
            .sort_by(|a, b| a.time_s().total_cmp(&b.time_s()));
    }

    /// Number of disruptions.
    pub fn len(&self) -> usize {
        self.disruptions.len()
    }

    /// `true` when there are no disruptions.
    pub fn is_empty(&self) -> bool {
        self.disruptions.is_empty()
    }

    /// Targets that arrive late — i.e. are inactive from time zero until
    /// their arrival event. The initial plan should exclude them.
    pub fn late_target_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .disruptions
            .iter()
            .filter_map(|d| match d {
                Disruption::TargetArrival { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The distinct times at which the collection workload changes —
    /// the phase boundaries the per-phase delay metrics report over.
    /// Speed windows contribute both edges.
    pub fn phase_boundaries_s(&self) -> Vec<f64> {
        let mut times = Vec::new();
        for d in &self.disruptions {
            times.push(d.time_s());
            if let Disruption::SpeedWindow { end_s, .. } = d {
                times.push(*end_s);
            }
        }
        times.sort_by(|a, b| a.total_cmp(b));
        times.dedup_by(|a, b| a.total_cmp(b).is_eq());
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;

    fn scenario() -> Scenario {
        ScenarioConfig::paper_default()
            .with_targets(10)
            .with_mules(4)
            .with_seed(7)
            .generate()
    }

    fn config() -> DisruptionConfig {
        DisruptionConfig {
            seed: 11,
            horizon_s: 10_000.0,
            target_failures: 2,
            recover_after_s: Some(1_000.0),
            late_arrivals: 2,
            mule_breakdowns: 1,
            speed_windows: 1,
            speed_factor: 0.5,
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let s = scenario();
        let a = DisruptionPlan::seeded(&s, &config());
        let b = DisruptionPlan::seeded(&s, &config());
        assert_eq!(a, b);
        let c = DisruptionPlan::seeded(
            &s,
            &DisruptionConfig {
                seed: 12,
                ..config()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_plans_respect_the_requested_counts() {
        let s = scenario();
        let plan = DisruptionPlan::seeded(&s, &config());
        let count = |f: fn(&Disruption) -> bool| plan.disruptions.iter().filter(|d| f(d)).count();
        assert_eq!(count(|d| matches!(d, Disruption::TargetFailure { .. })), 2);
        assert_eq!(count(|d| matches!(d, Disruption::TargetRecovery { .. })), 2);
        assert_eq!(count(|d| matches!(d, Disruption::TargetArrival { .. })), 2);
        assert_eq!(count(|d| matches!(d, Disruption::MuleBreakdown { .. })), 1);
        assert_eq!(count(|d| matches!(d, Disruption::SpeedWindow { .. })), 1);
        assert_eq!(plan.late_target_ids().len(), 2);
    }

    #[test]
    fn failing_and_late_targets_never_overlap() {
        let s = scenario();
        let plan = DisruptionPlan::seeded(&s, &config());
        let failing: Vec<NodeId> = plan
            .disruptions
            .iter()
            .filter_map(|d| match d {
                Disruption::TargetFailure { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        for late in plan.late_target_ids() {
            assert!(!failing.contains(&late));
        }
    }

    #[test]
    fn times_are_sorted_and_inside_the_horizon() {
        let s = scenario();
        let plan = DisruptionPlan::seeded(&s, &config());
        let times: Vec<f64> = plan.disruptions.iter().map(Disruption::time_s).collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(times.iter().all(|&t| (0.0..10_000.0).contains(&t)));
        let boundaries = plan.phase_boundaries_s();
        for w in boundaries.windows(2) {
            assert!(w[0] < w[1], "boundaries deduped and sorted");
        }
    }

    #[test]
    fn oversized_requests_are_clamped() {
        let s = ScenarioConfig::paper_default()
            .with_targets(2)
            .with_mules(1)
            .with_seed(3)
            .generate();
        let cfg = DisruptionConfig {
            target_failures: 5,
            late_arrivals: 5,
            mule_breakdowns: 5,
            ..config()
        };
        let plan = DisruptionPlan::seeded(&s, &cfg);
        let failures = plan
            .disruptions
            .iter()
            .filter(|d| matches!(d, Disruption::TargetFailure { .. }))
            .count();
        let breakdowns = plan
            .disruptions
            .iter()
            .filter(|d| matches!(d, Disruption::MuleBreakdown { .. }))
            .count();
        assert_eq!(failures, 2, "only two targets exist");
        assert!(
            plan.late_target_ids().is_empty(),
            "no targets left for late arrivals"
        );
        assert_eq!(breakdowns, 1, "only one mule exists");
    }

    #[test]
    fn empty_plan_is_the_static_degenerate_case() {
        let plan = DisruptionPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(plan.phase_boundaries_s().is_empty());
        assert!(plan.late_target_ids().is_empty());
    }
}
