//! Dynamic scenario execution: disruptions plus online replanning.
//!
//! [`DynamicSimulation`] runs a [`PatrolPlan`] like [`crate::Simulation`]
//! does, but first compiles a [`DisruptionPlan`] onto the event timeline
//! and (optionally) reacts to every world-changing disruption by invoking
//! a [`Replanner`]. The result, a [`DynamicOutcome`], carries the ordinary
//! [`SimulationOutcome`] plus the applied-event timeline and the phase
//! boundaries the per-phase delay metrics report over.
//!
//! Everything is deterministic: the same scenario, plan, disruption plan
//! and replanner produce bit-identical outcomes on every run.

use crate::config::SimulationConfig;
use crate::engine::EngineCore;
use crate::outcome::SimulationOutcome;
use mule_workload::{DisruptionPlan, Scenario};
use patrol_core::{PatrolPlan, Replanner};

/// One applied event of a dynamic run (a disruption taking effect, a
/// replan, a failure to replan).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Human-readable description.
    pub description: String,
}

/// The complete result of one dynamic run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicOutcome {
    /// The ordinary simulation outcome (visits, mule reports).
    pub outcome: SimulationOutcome,
    /// Applied disruptions and replans, in time order.
    pub timeline: Vec<TimelineEntry>,
    /// Times at which a replan was adopted.
    pub replan_times_s: Vec<f64>,
    /// Phase boundaries for per-phase metrics: every disruption effect
    /// time (and speed-window end) inside the horizon.
    pub phase_boundaries_s: Vec<f64>,
    /// Total events fired on the timeline (arrivals + disruptions +
    /// replans) — a cheap sanity metric for tests and reports.
    pub events_fired: u64,
}

impl DynamicOutcome {
    /// Number of replans performed.
    pub fn replan_count(&self) -> usize {
        self.replan_times_s.len()
    }
}

/// A simulation with mid-run disruptions and optional online replanning.
pub struct DynamicSimulation<'a> {
    scenario: &'a Scenario,
    plan: &'a PatrolPlan,
    config: SimulationConfig,
    disruptions: &'a DisruptionPlan,
    replanner: Option<&'a dyn Replanner>,
}

impl<'a> DynamicSimulation<'a> {
    /// Creates a dynamic simulation with the default configuration and no
    /// replanner (disruptions apply, but the fleet keeps flying the
    /// original plan).
    pub fn new(
        scenario: &'a Scenario,
        plan: &'a PatrolPlan,
        disruptions: &'a DisruptionPlan,
    ) -> Self {
        DynamicSimulation {
            scenario,
            plan,
            config: SimulationConfig::default(),
            disruptions,
            replanner: None,
        }
    }

    /// Overrides the simulation configuration.
    pub fn with_config(mut self, config: SimulationConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a replanner invoked after every world-changing disruption.
    pub fn with_replanner(mut self, replanner: &'a dyn Replanner) -> Self {
        self.replanner = Some(replanner);
        self
    }

    /// Runs until the configured horizon.
    pub fn run(&self) -> DynamicOutcome {
        self.run_for(self.config.horizon_s)
    }

    /// Runs until `horizon_s` seconds of simulated time.
    pub fn run_for(&self, horizon_s: f64) -> DynamicOutcome {
        let run = EngineCore::run(
            self.scenario,
            self.plan,
            self.config,
            self.disruptions,
            self.replanner,
            horizon_s,
        );
        let horizon = horizon_s.max(0.0);
        let phase_boundaries_s: Vec<f64> = self
            .disruptions
            .phase_boundaries_s()
            .into_iter()
            .filter(|t| (0.0..=horizon).contains(t))
            .collect();
        DynamicOutcome {
            outcome: run.outcome,
            timeline: run.timeline,
            replan_times_s: run.replan_times_s,
            phase_boundaries_s,
            events_fired: run.events_fired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_net::NodeId;
    use mule_workload::{Disruption, DisruptionConfig, ScenarioConfig};
    use patrol_core::{BTctp, Planner, ReplanWithPlanner};

    fn scenario(seed: u64) -> Scenario {
        ScenarioConfig::paper_default().with_seed(seed).generate()
    }

    fn failure_of(s: &Scenario, index: usize, at_s: f64) -> (NodeId, DisruptionPlan) {
        // Index into the *target* list (skipping the sink).
        let target = s.field().target_ids()[index];
        (
            target,
            DisruptionPlan {
                disruptions: vec![Disruption::TargetFailure { target, at_s }],
            },
        )
    }

    #[test]
    fn empty_disruption_plan_matches_the_static_engine_exactly() {
        let s = scenario(41);
        let plan = BTctp::new().plan(&s).unwrap();
        let config = SimulationConfig::timing_only();
        let static_outcome = crate::Simulation::with_config(&s, &plan, config).run_for(30_000.0);
        let empty = DisruptionPlan::none();
        let dynamic = DynamicSimulation::new(&s, &plan, &empty)
            .with_config(config)
            .run_for(30_000.0);
        assert_eq!(dynamic.outcome, static_outcome);
        assert!(dynamic.timeline.is_empty());
        assert_eq!(dynamic.replan_count(), 0);
        assert!(dynamic.phase_boundaries_s.is_empty());
    }

    #[test]
    fn failed_targets_receive_no_visits_after_the_failure() {
        let s = scenario(43);
        let plan = BTctp::new().plan(&s).unwrap();
        let (victim, disruptions) = failure_of(&s, 2, 8_000.0);
        let outcome = DynamicSimulation::new(&s, &plan, &disruptions)
            .with_config(SimulationConfig::timing_only())
            .run_for(40_000.0);
        let after: Vec<f64> = outcome
            .outcome
            .visits
            .iter()
            .filter(|v| v.node == victim && v.time_s > 8_000.0)
            .map(|v| v.time_s)
            .collect();
        assert!(after.is_empty(), "dead target visited at {after:?}");
        // Without a replanner the mules keep the old cycle: other targets
        // are still served.
        assert!(outcome.outcome.total_visits() > 0);
        assert_eq!(outcome.timeline.len(), 1);
        assert_eq!(outcome.phase_boundaries_s, vec![8_000.0]);
    }

    #[test]
    fn replanning_shortens_the_cycle_after_a_failure() {
        let s = scenario(47);
        let plan = BTctp::new().plan(&s).unwrap();
        let (victim, disruptions) = failure_of(&s, 0, 6_000.0);
        let replanner = ReplanWithPlanner::new(BTctp::new());
        let config = SimulationConfig::timing_only();
        let with_replan = DynamicSimulation::new(&s, &plan, &disruptions)
            .with_config(config)
            .with_replanner(&replanner)
            .run_for(60_000.0);
        let without = DynamicSimulation::new(&s, &plan, &disruptions)
            .with_config(config)
            .run_for(60_000.0);
        assert_eq!(with_replan.replan_count(), 1);
        assert_eq!(with_replan.replan_times_s, vec![6_000.0]);
        // The replanned fleet stops travelling to the dead target, so the
        // surviving targets are visited at least as often.
        let survivors: Vec<NodeId> = s
            .patrolled_ids()
            .into_iter()
            .filter(|&id| id != victim)
            .collect();
        let count_visits = |o: &DynamicOutcome| -> usize {
            o.outcome
                .visits
                .iter()
                .filter(|v| survivors.contains(&v.node) && v.time_s > 6_000.0)
                .count()
        };
        assert!(
            count_visits(&with_replan) >= count_visits(&without),
            "replanning must not reduce surviving-target service"
        );
    }

    #[test]
    fn breakdown_with_replanning_keeps_every_target_covered() {
        let s = scenario(53);
        let plan = BTctp::new().plan(&s).unwrap();
        let disruptions = DisruptionPlan {
            disruptions: vec![Disruption::MuleBreakdown {
                mule: 1,
                at_s: 10_000.0,
            }],
        };
        let replanner = ReplanWithPlanner::new(BTctp::new());
        let outcome = DynamicSimulation::new(&s, &plan, &disruptions)
            .with_config(SimulationConfig::timing_only())
            .with_replanner(&replanner)
            .run_for(80_000.0);
        assert_eq!(outcome.replan_count(), 1);
        let broken = &outcome.outcome.mules[1];
        assert!(matches!(
            broken.status,
            crate::MuleStatus::BrokenDown { .. }
        ));
        assert!(!outcome.outcome.all_mules_survived());
        // The survivors keep every target served after the breakdown.
        let per_node = outcome.outcome.visit_times_per_node();
        for id in s.patrolled_ids() {
            let late_visits = per_node
                .get(&id)
                .map(|t| t.iter().filter(|&&x| x > 10_000.0).count())
                .unwrap_or(0);
            assert!(late_visits > 0, "target {id} abandoned after breakdown");
        }
        // The broken mule never moves after its breakdown.
        let last_visit_of_broken = outcome
            .outcome
            .visits
            .iter()
            .filter(|v| v.mule_index == 1)
            .map(|v| v.time_s)
            .fold(0.0, f64::max);
        assert!(last_visit_of_broken <= 10_000.0);
    }

    #[test]
    fn late_targets_join_the_patrol_after_arrival_when_replanning() {
        let s = scenario(59);
        let late_target = s.field().target_ids()[4];
        let disruptions = DisruptionPlan {
            disruptions: vec![Disruption::TargetArrival {
                target: late_target,
                at_s: 12_000.0,
            }],
        };
        // Plan on the initially-active world (late target excluded).
        let initial_scenario = s.restricted(&[late_target], s.mule_starts().to_vec());
        let plan = BTctp::new().plan(&initial_scenario).unwrap();
        let replanner = ReplanWithPlanner::new(BTctp::new());
        let outcome = DynamicSimulation::new(&s, &plan, &disruptions)
            .with_config(SimulationConfig::timing_only())
            .with_replanner(&replanner)
            .run_for(60_000.0);
        let visit_times: Vec<f64> = outcome
            .outcome
            .visits
            .iter()
            .filter(|v| v.node == late_target)
            .map(|v| v.time_s)
            .collect();
        assert!(!visit_times.is_empty(), "late target never visited");
        assert!(
            visit_times.iter().all(|&t| t >= 12_000.0),
            "late target visited before it arrived: {visit_times:?}"
        );
        // Its first collection's data age counts from arrival, not t=0.
        let first = outcome
            .outcome
            .visits
            .iter()
            .find(|v| v.node == late_target)
            .unwrap();
        assert!(first.data_age_s <= first.time_s - 12_000.0 + 1e-9);
    }

    #[test]
    fn speed_windows_slow_the_fleet_while_open() {
        let s = scenario(61);
        let plan = BTctp::new().plan(&s).unwrap();
        let disruptions = DisruptionPlan {
            disruptions: vec![Disruption::SpeedWindow {
                start_s: 5_000.0,
                end_s: 15_000.0,
                factor: 0.5,
            }],
        };
        let slowed = DynamicSimulation::new(&s, &plan, &disruptions)
            .with_config(SimulationConfig::timing_only())
            .run_for(30_000.0);
        let empty = DisruptionPlan::none();
        let nominal = DynamicSimulation::new(&s, &plan, &empty)
            .with_config(SimulationConfig::timing_only())
            .run_for(30_000.0);
        assert!(
            slowed.outcome.total_distance_m() < nominal.outcome.total_distance_m(),
            "a half-speed window must reduce distance covered"
        );
        assert_eq!(slowed.phase_boundaries_s, vec![5_000.0, 15_000.0]);
        // Both window edges land on the timeline.
        assert_eq!(slowed.timeline.len(), 2);
    }

    #[test]
    fn overlapping_speed_windows_unwind_without_restoring_early() {
        let s = scenario(73);
        let plan = BTctp::new().plan(&s).unwrap();
        // Two half-speed windows overlapping in [8_000, 12_000]; full
        // speed must only return at 16_000, not at the first window's end.
        let overlapping = DisruptionPlan {
            disruptions: vec![
                Disruption::SpeedWindow {
                    start_s: 4_000.0,
                    end_s: 12_000.0,
                    factor: 0.5,
                },
                Disruption::SpeedWindow {
                    start_s: 8_000.0,
                    end_s: 16_000.0,
                    factor: 0.5,
                },
            ],
        };
        let config = SimulationConfig::timing_only();
        let run = |plan_d: &DisruptionPlan| {
            DynamicSimulation::new(&s, &plan, plan_d)
                .with_config(config)
                .run_for(30_000.0)
        };
        let overlapped = run(&overlapping);
        // During the overlap the fleet runs at 0.25×, and it is still at
        // 0.5× in [12_000, 16_000] — so it must cover strictly less
        // distance than two disjoint windows of the same total length.
        let disjoint = DisruptionPlan {
            disruptions: vec![
                Disruption::SpeedWindow {
                    start_s: 4_000.0,
                    end_s: 10_000.0,
                    factor: 0.5,
                },
                Disruption::SpeedWindow {
                    start_s: 18_000.0,
                    end_s: 24_000.0,
                    factor: 0.5,
                },
            ],
        };
        let separated = run(&disjoint);
        assert!(
            overlapped.outcome.total_distance_m() < separated.outcome.total_distance_m(),
            "overlap must compose ({} vs {})",
            overlapped.outcome.total_distance_m(),
            separated.outcome.total_distance_m()
        );
        // The timeline narrates the composed factor at each edge:
        // ×0.50 → ×0.25 → ×0.50 → ×1.00.
        let factors: Vec<&str> = overlapped
            .timeline
            .iter()
            .map(|e| e.description.as_str())
            .collect();
        assert_eq!(
            factors,
            vec![
                "fleet speed ×0.50",
                "fleet speed ×0.25",
                "fleet speed ×0.50",
                "fleet speed ×1.00",
            ]
        );
    }

    #[test]
    fn dynamic_runs_are_deterministic() {
        let s = scenario(67);
        let plan = BTctp::new().plan(&s).unwrap();
        let disruptions = DisruptionPlan::seeded(
            &s,
            &DisruptionConfig {
                seed: 5,
                horizon_s: 40_000.0,
                target_failures: 2,
                recover_after_s: Some(5_000.0),
                late_arrivals: 1,
                mule_breakdowns: 1,
                speed_windows: 1,
                speed_factor: 0.7,
            },
        );
        let replanner = ReplanWithPlanner::new(BTctp::new());
        let run = || {
            DynamicSimulation::new(&s, &plan, &disruptions)
                .with_config(SimulationConfig::timing_only())
                .with_replanner(&replanner)
                .run_for(40_000.0)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.events_fired > 0);
        assert!(!a.timeline.is_empty());
    }

    #[test]
    fn recovered_targets_are_served_again() {
        let s = scenario(71);
        let plan = BTctp::new().plan(&s).unwrap();
        let victim = s.field().target_ids()[1];
        let disruptions = DisruptionPlan {
            disruptions: vec![
                Disruption::TargetFailure {
                    target: victim,
                    at_s: 8_000.0,
                },
                Disruption::TargetRecovery {
                    target: victim,
                    at_s: 20_000.0,
                },
            ],
        };
        let replanner = ReplanWithPlanner::new(BTctp::new());
        let outcome = DynamicSimulation::new(&s, &plan, &disruptions)
            .with_config(SimulationConfig::timing_only())
            .with_replanner(&replanner)
            .run_for(60_000.0);
        assert_eq!(outcome.replan_count(), 2);
        let times: Vec<f64> = outcome
            .outcome
            .visits
            .iter()
            .filter(|v| v.node == victim)
            .map(|v| v.time_s)
            .collect();
        assert!(
            times.iter().any(|&t| t > 20_000.0),
            "recovered target never served again: {times:?}"
        );
        assert!(
            !times.iter().any(|&t| (8_000.0..20_000.0).contains(&t)),
            "failed target served while down: {times:?}"
        );
    }
}
