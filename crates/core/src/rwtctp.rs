//! RW-TCTP: W-TCTP with recharge (paper §IV).
//!
//! Path-construction phase: build the ordinary Weighted Patrolling Path
//! (WPP) exactly as W-TCTP does, then build the **Weighted Recharge Path**
//! (WRP) by splicing the recharge station `R` into the break edge that
//! minimises the added length (Exp. 3).
//!
//! Patrolling phase: Eq. 4 gives the number of rounds `r` a mule can afford
//! per battery charge; the mule follows the WPP for `r − 1` rounds and the
//! WRP on the `r`-th round, recharging at `R`. We encode that schedule
//! directly in the itinerary by concatenating `r − 1` WPP traversals and one
//! WRP traversal into a single repeating cycle, so the simulator needs no
//! planner-specific logic.

use crate::deployment::spread_over;
use crate::plan::{PatrolPlan, PlanError, Walk, Waypoint};
use crate::planner::{validate_common, Planner};
use crate::wtctp::{BreakEdgePolicy, WTctp};
use mule_energy::{EnergyModel, PatrolRounds};
use mule_workload::Scenario;

/// Upper bound on the number of WPP traversals encoded per recharge period.
///
/// Eq. 4 can yield enormous round counts for very short paths or very large
/// batteries; beyond this many rounds the schedule repeats anyway and a
/// longer encoding only wastes memory.
const MAX_ENCODED_ROUNDS: u32 = 256;

/// The RW-TCTP planner.
#[derive(Debug, Clone)]
pub struct RwTctp {
    /// Break-edge policy used for the underlying WPP.
    pub policy: BreakEdgePolicy,
    /// Energy model (battery capacity, movement/collection costs) used to
    /// evaluate Eq. 4.
    pub energy: EnergyModel,
}

impl Default for RwTctp {
    fn default() -> Self {
        RwTctp {
            policy: BreakEdgePolicy::default(),
            energy: EnergyModel::paper_default(),
        }
    }
}

/// The two paths RW-TCTP constructs plus the Eq. 4 schedule, exposed for
/// benches and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RechargeSchedule {
    /// The ordinary weighted patrolling path.
    pub wpp: Vec<Waypoint>,
    /// The weighted recharge path (WPP with the station spliced in).
    pub wrp: Vec<Waypoint>,
    /// Eq. 4 evaluation over the WRP.
    pub rounds: PatrolRounds,
}

impl RechargeSchedule {
    /// Length of one WPP traversal, metres.
    pub fn wpp_length(&self) -> f64 {
        path_length(&self.wpp)
    }

    /// Length of one WRP traversal, metres.
    pub fn wrp_length(&self) -> f64 {
        path_length(&self.wrp)
    }

    /// Extra length of the recharge detour relative to the WPP.
    pub fn recharge_detour(&self) -> f64 {
        self.wrp_length() - self.wpp_length()
    }
}

fn path_length(waypoints: &[Waypoint]) -> f64 {
    mule_geom::Polyline::closed(waypoints.iter().map(|w| w.position).collect()).length()
}

/// Closed-walk length under an arbitrary travel metric (what a mule
/// physically drives on a road network).
fn metric_path_length(waypoints: &[Waypoint], metric: &mule_road::TravelMetric) -> f64 {
    let n = waypoints.len();
    if n < 2 {
        return 0.0;
    }
    (0..n)
        .map(|i| metric.distance(&waypoints[i].position, &waypoints[(i + 1) % n].position))
        .sum()
}

impl RwTctp {
    /// RW-TCTP with the given break-edge policy and the paper's energy
    /// constants.
    pub fn new(policy: BreakEdgePolicy) -> Self {
        RwTctp {
            policy,
            ..RwTctp::default()
        }
    }

    /// RW-TCTP with an explicit energy model.
    pub fn with_energy(policy: BreakEdgePolicy, energy: EnergyModel) -> Self {
        RwTctp { policy, energy }
    }

    /// Builds the WPP, the WRP and the Eq. 4 schedule for `scenario`.
    pub fn build_schedule(&self, scenario: &Scenario) -> Result<RechargeSchedule, PlanError> {
        let station = scenario
            .field()
            .recharge_station()
            .ok_or(PlanError::MissingRechargeStation)?;

        let wpp = WTctp::new(self.policy).build_wpp_waypoints(scenario)?;
        let wrp = splice_station(&wpp, Waypoint::new(station.id, station.position));

        // Eq. 4: r = M_Energy / (|P̂|·c_m + h·c_s), with h the number of
        // collections performed in one recharge-path round. |P̂| must be
        // the distance a mule *actually travels* — under a road metric the
        // chord length underestimates it, which would overbudget rounds
        // and strand mules short of the station.
        let collections = wrp.len();
        let round_length = if scenario.metric().is_euclidean() {
            path_length(&wrp)
        } else {
            metric_path_length(&wrp, scenario.metric())
        };
        let rounds = PatrolRounds::evaluate(&self.energy, round_length, collections);

        Ok(RechargeSchedule { wpp, wrp, rounds })
    }
}

/// Splices the recharge station into the break edge of `wpp` that minimises
/// the added length (Exp. 3). A single-waypoint path simply appends the
/// station.
fn splice_station(wpp: &[Waypoint], station: Waypoint) -> Vec<Waypoint> {
    let n = wpp.len();
    if n == 0 {
        return vec![station];
    }
    if n == 1 {
        return vec![wpp[0], station];
    }
    let mut best_edge = 0;
    let mut best_cost = f64::INFINITY;
    for edge in 0..n {
        let a = wpp[edge].position;
        let b = wpp[(edge + 1) % n].position;
        let cost = a.distance(&station.position) + station.position.distance(&b) - a.distance(&b);
        if cost < best_cost {
            best_cost = cost;
            best_edge = edge;
        }
    }
    let mut wrp = Vec::with_capacity(n + 1);
    wrp.extend_from_slice(&wpp[..=best_edge]);
    wrp.push(station);
    wrp.extend_from_slice(&wpp[best_edge + 1..]);
    wrp
}

impl Planner for RwTctp {
    fn name(&self) -> &'static str {
        "RW-TCTP"
    }

    fn plan(&self, scenario: &Scenario) -> Result<PatrolPlan, PlanError> {
        let _span = mule_obs::span_owned(|| format!("planner.{}", self.name()));
        validate_common(scenario)?;
        let schedule = self.build_schedule(scenario)?;

        // Encode "WPP for r−1 rounds, WRP on round r" as one repeating
        // super-cycle.
        let repeats = schedule
            .rounds
            .patrol_rounds_between_recharges()
            .min(MAX_ENCODED_ROUNDS);
        let mut super_cycle =
            Vec::with_capacity(schedule.wpp.len() * repeats as usize + schedule.wrp.len());
        for _ in 0..repeats {
            super_cycle.extend_from_slice(&schedule.wpp);
        }
        super_cycle.extend_from_slice(&schedule.wrp);

        // Mules spread over the super-cycle exactly as in W-TCTP.
        Ok(spread_over(self.name(), Walk::from(super_cycle), scenario))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_net::NodeKind;
    use mule_workload::{ScenarioConfig, WeightSpec};

    fn scenario(seed: u64) -> Scenario {
        ScenarioConfig::paper_default()
            .with_targets(12)
            .with_weights(WeightSpec::UniformVips {
                count: 2,
                weight: 3,
            })
            .with_recharge_station(true)
            .with_seed(seed)
            .generate()
    }

    #[test]
    fn schedule_contains_the_station_only_in_the_wrp() {
        let s = scenario(3);
        let schedule = RwTctp::default().build_schedule(&s).unwrap();
        let station = s.field().recharge_station().unwrap().id;
        assert_eq!(
            schedule.wpp.iter().filter(|w| w.node == station).count(),
            0,
            "WPP never visits the station"
        );
        assert_eq!(
            schedule.wrp.iter().filter(|w| w.node == station).count(),
            1,
            "WRP visits the station exactly once"
        );
        assert_eq!(schedule.wrp.len(), schedule.wpp.len() + 1);
    }

    #[test]
    fn wrp_detour_is_the_minimum_over_break_edges() {
        let s = scenario(5);
        let schedule = RwTctp::default().build_schedule(&s).unwrap();
        let station = s.field().recharge_station().unwrap().position;
        // Brute-force the best splice cost over the WPP and compare.
        let n = schedule.wpp.len();
        let mut best = f64::INFINITY;
        for edge in 0..n {
            let a = schedule.wpp[edge].position;
            let b = schedule.wpp[(edge + 1) % n].position;
            let cost = a.distance(&station) + station.distance(&b) - a.distance(&b);
            best = best.min(cost);
        }
        assert!((schedule.recharge_detour() - best).abs() < 1e-6);
        assert!(schedule.recharge_detour() >= -1e-9);
        assert!(schedule.wrp_length() >= schedule.wpp_length() - 1e-9);
    }

    #[test]
    fn missing_station_is_reported() {
        let s = ScenarioConfig::paper_default().with_seed(1).generate();
        assert_eq!(
            RwTctp::default().plan(&s),
            Err(PlanError::MissingRechargeStation)
        );
    }

    #[test]
    fn plan_encodes_r_minus_one_wpp_rounds_plus_one_wrp_round() {
        let s = scenario(7);
        let planner = RwTctp::default();
        let schedule = planner.build_schedule(&s).unwrap();
        let plan = planner.plan(&s).unwrap();
        let it = &plan.itineraries[0];
        let station = s.field().recharge_station().unwrap().id;
        // The super-cycle visits the station exactly once per recharge
        // period.
        assert_eq!(it.visits_per_round(station), 1);
        let repeats = schedule.rounds.patrol_rounds_between_recharges().min(256) as usize;
        assert_eq!(
            it.cycle.len(),
            schedule.wpp.len() * repeats + schedule.wrp.len()
        );
        // Every target appears (repeats + 1) × weight times.
        for node in s.field().patrolled_nodes() {
            assert_eq!(
                it.visits_per_round(node.id),
                (repeats + 1) * node.weight.value() as usize,
                "node {}",
                node.id
            );
        }
    }

    #[test]
    fn rounds_follow_eq4_for_the_paper_energy_model() {
        let s = scenario(11);
        let planner = RwTctp::default();
        let schedule = planner.build_schedule(&s).unwrap();
        let expected = (planner.energy.initial_energy_j
            / (schedule.wrp_length() * planner.energy.move_cost_j_per_m
                + schedule.wrp.len() as f64 * planner.energy.collect_cost_j))
            .floor() as u32;
        assert_eq!(schedule.rounds.rounds_per_charge, expected.max(1));
        assert!(schedule.rounds.is_feasible(&planner.energy));
    }

    #[test]
    fn tiny_batteries_still_produce_a_plan_with_frequent_recharges() {
        let s = scenario(13);
        let tiny = EnergyModel {
            initial_energy_j: 10_000.0,
            ..EnergyModel::paper_default()
        };
        let planner = RwTctp::with_energy(BreakEdgePolicy::ShortestLength, tiny);
        let schedule = planner.build_schedule(&s).unwrap();
        // 10 kJ cannot cover a multi-kilometre round: recharge every round.
        assert_eq!(schedule.rounds.patrol_rounds_between_recharges(), 0);
        let plan = planner.plan(&s).unwrap();
        let station = s.field().recharge_station().unwrap().id;
        assert_eq!(plan.itineraries[0].visits_per_round(station), 1);
        assert_eq!(plan.itineraries[0].cycle.len(), schedule.wrp.len());
    }

    #[test]
    fn station_node_kind_is_preserved_in_the_plan() {
        let s = scenario(17);
        let plan = RwTctp::default().plan(&s).unwrap();
        let station = s.field().recharge_station().unwrap();
        assert_eq!(station.kind, NodeKind::RechargeStation);
        assert!(plan.covered_nodes().contains(&station.id));
    }

    #[test]
    fn planner_name_matches_paper() {
        assert_eq!(RwTctp::default().name(), "RW-TCTP");
    }
}
