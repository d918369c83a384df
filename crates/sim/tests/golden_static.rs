//! Golden equivalence test: on static scenarios, the event-timeline engine
//! must produce **byte-identical** `SimulationOutcome`s to the original
//! fixed-plan engine (the private `Arrival`-heap implementation this crate
//! shipped with before the `mule-events` refactor).
//!
//! The original engine is preserved here, verbatim in behaviour, as a
//! reference implementation built purely on public APIs. Every comparison
//! is exact `PartialEq` — times, distances, energies and byte counts must
//! match to the last bit, which holds because the refactored engine
//! performs the identical floating-point operations in the identical
//! order.
//!
//! The reference pops one heap event per vertex of each walk, the bends of
//! road legs included, while the engine arrives at most bends inside the
//! handler of the vertex before them. The road cases below check that
//! this folding moves no bit, including a battery that runs out between
//! two bends.

use mule_energy::{Battery, ConsumptionLedger, EnergyCause};
use mule_net::{DataBuffer, MulePayload, NodeId, NodeKind};
use mule_sim::{
    MuleReport, MuleStatus, Simulation, SimulationConfig, SimulationOutcome, VisitRecord,
};
use mule_energy::EnergyModel;
use mule_road::RoadNetKind;
use mule_workload::{MetricSpec, Scenario, ScenarioConfig, WeightSpec};
use patrol_core::baselines::{ChbPlanner, SweepPlanner};
use patrol_core::{BTctp, PatrolPlan, Planner, RwTctp};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

// --- The pre-refactor engine, kept as the reference oracle ---------------

#[derive(Debug, Clone, Copy, PartialEq)]
struct Arrival {
    time_s: f64,
    mule: usize,
}

impl Eq for Arrival {}

impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time_s
            .partial_cmp(&self.time_s)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.mule.cmp(&self.mule))
    }
}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct RefRoute {
    positions: Vec<mule_geom::Point>,
    /// The node at each vertex; `None` at a bend of a road leg.
    nodes: Vec<Option<NodeId>>,
    cumulative: Vec<f64>,
    total_length: f64,
}

impl RefRoute {
    /// Every vertex of the itinerary's walk, bends of road legs included.
    fn from_itinerary(it: &patrol_core::MuleItinerary) -> Self {
        let (positions, nodes): (Vec<mule_geom::Point>, Vec<Option<NodeId>>) =
            it.cycle.vertices().unzip();
        let mut cumulative = Vec::with_capacity(positions.len() + 1);
        let mut acc = 0.0;
        cumulative.push(0.0);
        for i in 0..positions.len() {
            let next = (i + 1) % positions.len().max(1);
            acc += positions[i].distance(&positions[next]);
            cumulative.push(acc);
        }
        let total_length = if positions.len() >= 2 { acc } else { 0.0 };
        RefRoute {
            positions,
            nodes,
            cumulative,
            total_length,
        }
    }

    fn len(&self) -> usize {
        self.positions.len()
    }

    /// The node a mule heading for vertex `wp` is travelling to: the first
    /// real node at or after it, wrapping round the cycle.
    fn destination(&self, wp: usize) -> Option<NodeId> {
        (0..self.len()).find_map(|step| self.nodes[(wp + step) % self.len()])
    }
}

struct RefMule {
    battery: Battery,
    ledger: ConsumptionLedger,
    payload: MulePayload,
    distance_m: f64,
    visits: usize,
    recharges: usize,
    status: MuleStatus,
    next_waypoint: usize,
    next_arrival_s: f64,
}

fn consume_movement(
    config: &SimulationConfig,
    scenario: &Scenario,
    state: &mut RefMule,
    distance_m: f64,
    route: &RefRoute,
    destination_wp: usize,
) -> bool {
    if distance_m <= 0.0 {
        return true;
    }
    if !config.energy_enabled {
        state.distance_m += distance_m;
        return true;
    }
    let energy = config.energy.movement_energy(distance_m);
    if !state.battery.can_afford(energy) {
        let affordable = config.energy.range_on(state.battery.remaining());
        state.distance_m += affordable.min(distance_m);
        state.battery.draw(energy);
        return false;
    }
    state.battery.draw(energy);
    state.distance_m += distance_m;
    let field = scenario.field();
    let dest_is_station = route
        .destination(destination_wp)
        .and_then(|id| field.node(id))
        .map(|n| n.kind == NodeKind::RechargeStation)
        .unwrap_or(false);
    let cause = if dest_is_station {
        EnergyCause::RechargeMovement
    } else {
        EnergyCause::PatrolMovement
    };
    state.ledger.record(cause, energy);
    true
}

/// The original `Simulation::run_for`, operation for operation, with one
/// heap event per vertex, bends of road legs included. Also returns how
/// many mules ran out of battery on a leg from one bend to another.
fn reference_run(
    scenario: &Scenario,
    plan: &PatrolPlan,
    config: &SimulationConfig,
    horizon_s: f64,
) -> (SimulationOutcome, usize) {
    let horizon = horizon_s.max(0.0);
    let speed = config.energy.speed_m_per_s.max(1e-9);
    let field = scenario.field();

    let mut buffers: HashMap<NodeId, DataBuffer> = field
        .nodes()
        .iter()
        .filter(|n| n.kind == NodeKind::Target)
        .map(|n| (n.id, DataBuffer::new(scenario.data_rate_bps())))
        .collect();
    let mut last_visit: HashMap<NodeId, f64> = field.nodes().iter().map(|n| (n.id, 0.0)).collect();

    let routes: Vec<RefRoute> = plan
        .itineraries
        .iter()
        .map(RefRoute::from_itinerary)
        .collect();
    let mut states: Vec<RefMule> = plan
        .itineraries
        .iter()
        .map(|it| RefMule {
            battery: Battery::full(config.energy.initial_energy_j),
            ledger: ConsumptionLedger::new(),
            payload: MulePayload::new(),
            distance_m: 0.0,
            visits: 0,
            recharges: 0,
            status: if it.cycle.len() < 2 {
                MuleStatus::Idle
            } else {
                MuleStatus::Active
            },
            next_waypoint: 0,
            next_arrival_s: 0.0,
        })
        .collect();

    let mut queue: BinaryHeap<Arrival> = BinaryHeap::new();
    let mut visits: Vec<VisitRecord> = Vec::new();
    let mut depleted_between_bends = 0;

    let deploy_dists: Vec<f64> = plan
        .itineraries
        .iter()
        .enumerate()
        .map(|(m, it)| {
            if routes[m].len() == 0 {
                0.0
            } else {
                it.start_position.distance(&it.entry_point())
            }
        })
        .collect();
    let fleet_ready_s = deploy_dists.iter().cloned().fold(0.0, f64::max) / speed;

    for (m, it) in plan.itineraries.iter().enumerate() {
        let route = &routes[m];
        if route.len() == 0 {
            continue;
        }
        let entry_offset = if route.total_length > 1e-9 {
            it.entry_offset_m.rem_euclid(route.total_length)
        } else {
            0.0
        };
        let deploy_dist = deploy_dists[m];

        let (first_wp, partial_dist) = if route.total_length <= 1e-9 {
            (0usize, 0.0)
        } else {
            let mut found = None;
            for i in 0..route.len() {
                if route.cumulative[i] >= entry_offset - 1e-9 {
                    found = Some((i, route.cumulative[i] - entry_offset));
                    break;
                }
            }
            found.unwrap_or((0, route.total_length - entry_offset))
        };

        let travel = deploy_dist + partial_dist.max(0.0);
        if !consume_movement(config, scenario, &mut states[m], travel, route, first_wp) {
            states[m].status = MuleStatus::Depleted { at_s: 0.0 };
            continue;
        }
        let patrol_start_s = if config.synchronized_start {
            fleet_ready_s
        } else {
            deploy_dist / speed
        };
        states[m].next_waypoint = first_wp;
        states[m].next_arrival_s = patrol_start_s + partial_dist.max(0.0) / speed;
        if states[m].next_arrival_s <= horizon {
            queue.push(Arrival {
                time_s: states[m].next_arrival_s,
                mule: m,
            });
        }
    }

    while let Some(Arrival { time_s: now, mule }) = queue.pop() {
        if now > horizon {
            continue;
        }
        let route = &routes[mule];
        let wp = states[mule].next_waypoint;
        let node = route.nodes[wp];
        let node_kind = node.and_then(|id| field.node(id)).map(|n| n.kind);

        match (node_kind, node) {
            (Some(NodeKind::Target), Some(node_id)) => {
                let age = now - last_visit.get(&node_id).copied().unwrap_or(0.0);
                let bytes = buffers
                    .get_mut(&node_id)
                    .map(|b| b.collect(now).0)
                    .unwrap_or(0.0);
                states[mule].payload.load(node_id, bytes);
                if config.energy_enabled {
                    let e = config.energy.collection_energy(1);
                    states[mule].battery.draw(e);
                    states[mule].ledger.record(EnergyCause::Collection, e);
                }
                states[mule].visits += 1;
                last_visit.insert(node_id, now);
                visits.push(VisitRecord {
                    time_s: now,
                    mule_index: mule,
                    node: node_id,
                    data_age_s: age.max(0.0),
                    bytes,
                });
            }
            (Some(NodeKind::Sink), Some(node_id)) => {
                let age = now - last_visit.get(&node_id).copied().unwrap_or(0.0);
                states[mule].payload.deliver_all();
                states[mule].visits += 1;
                last_visit.insert(node_id, now);
                visits.push(VisitRecord {
                    time_s: now,
                    mule_index: mule,
                    node: node_id,
                    data_age_s: age.max(0.0),
                    bytes: 0.0,
                });
            }
            (Some(NodeKind::RechargeStation), Some(node_id)) => {
                if config.energy_enabled {
                    states[mule].battery.recharge_full();
                }
                states[mule].recharges += 1;
                last_visit.insert(node_id, now);
            }
            _ => {}
        }

        if route.total_length <= 1e-9 && config.collection_dwell_s <= 0.0 {
            continue;
        }
        let next_wp = (wp + 1) % route.len();
        let leg = route.positions[wp].distance(&route.positions[next_wp]);
        if !consume_movement(config, scenario, &mut states[mule], leg, route, next_wp) {
            states[mule].status = MuleStatus::Depleted { at_s: now };
            if node.is_none() && route.nodes[next_wp].is_none() {
                depleted_between_bends += 1;
            }
            continue;
        }
        // Mules dwell at real stops only, not at the bends of a road leg.
        let dwell = if node.is_some() {
            config.collection_dwell_s
        } else {
            0.0
        };
        let arrival = now + dwell + leg / speed;
        states[mule].next_waypoint = next_wp;
        states[mule].next_arrival_s = arrival;
        if arrival <= horizon {
            queue.push(Arrival {
                time_s: arrival,
                mule,
            });
        }
    }

    visits.sort_by(|a, b| {
        a.time_s
            .partial_cmp(&b.time_s)
            .unwrap_or(Ordering::Equal)
            .then(a.mule_index.cmp(&b.mule_index))
    });

    let outcome = SimulationOutcome {
        planner_name: plan.planner_name.clone(),
        horizon_s: horizon,
        visits,
        mules: plan
            .itineraries
            .iter()
            .zip(states.iter())
            .map(|(it, s)| MuleReport {
                mule_index: it.mule_index,
                status: s.status,
                distance_m: s.distance_m,
                visits: s.visits,
                recharges: s.recharges,
                remaining_energy_j: s.battery.remaining(),
                ledger: s.ledger.clone(),
                delivered_bytes: s.payload.delivered_bytes(),
            })
            .collect(),
    };
    (outcome, depleted_between_bends)
}

// --- The comparisons ------------------------------------------------------

/// Asserts the engine matches the reference and returns how many mules
/// ran out of battery between two bends.
fn assert_identical(
    scenario: &Scenario,
    plan: &PatrolPlan,
    config: SimulationConfig,
    horizon: f64,
) -> usize {
    let (reference, depleted_between_bends) = reference_run(scenario, plan, &config, horizon);
    let actual = Simulation::with_config(scenario, plan, config).run_for(horizon);
    assert_eq!(
        actual, reference,
        "event-loop engine diverged from the reference engine ({} @ horizon {horizon})",
        plan.planner_name
    );
    depleted_between_bends
}

#[test]
fn btctp_outcomes_are_byte_identical_across_seeds() {
    for seed in [1, 7, 23, 101, 4242] {
        let s = ScenarioConfig::paper_default().with_seed(seed).generate();
        let plan = BTctp::new().plan(&s).unwrap();
        assert_identical(&s, &plan, SimulationConfig::timing_only(), 40_000.0);
        assert_identical(&s, &plan, SimulationConfig::default(), 25_000.0);
    }
}

#[test]
fn baseline_planners_are_byte_identical_too() {
    let s = ScenarioConfig::paper_default()
        .with_targets(14)
        .with_mules(3)
        .with_seed(99)
        .generate();
    for plan in [
        ChbPlanner::new().plan(&s).unwrap(),
        SweepPlanner::new().plan(&s).unwrap(),
        BTctp::new().plan(&s).unwrap(),
    ] {
        assert_identical(&s, &plan, SimulationConfig::timing_only(), 60_000.0);
    }
}

#[test]
fn recharge_and_energy_paths_are_byte_identical() {
    let s = ScenarioConfig::paper_default()
        .with_targets(10)
        .with_weights(WeightSpec::UniformVips {
            count: 2,
            weight: 2,
        })
        .with_recharge_station(true)
        .with_seed(19)
        .generate();
    let plan = RwTctp::default().plan(&s).unwrap();
    assert_identical(&s, &plan, SimulationConfig::default(), 100_000.0);
}

#[test]
fn degenerate_cases_are_byte_identical() {
    // More mules than targets → idle itineraries.
    let sparse = ScenarioConfig::paper_default()
        .with_targets(2)
        .with_mules(5)
        .with_seed(8)
        .generate();
    let plan = SweepPlanner::new().plan(&sparse).unwrap();
    assert_identical(&sparse, &plan, SimulationConfig::timing_only(), 10_000.0);
    // Zero horizon.
    let s = ScenarioConfig::paper_default().with_seed(29).generate();
    let plan = BTctp::new().plan(&s).unwrap();
    assert_identical(&s, &plan, SimulationConfig::timing_only(), 0.0);
    // Unsynchronized start and nonzero dwell.
    let config = SimulationConfig {
        synchronized_start: false,
        collection_dwell_s: 12.5,
        ..SimulationConfig::timing_only()
    };
    assert_identical(&s, &plan, config, 20_000.0);
}

fn road_scenario(kind: RoadNetKind, seed: u64, recharge: bool) -> Scenario {
    let weights = if recharge {
        WeightSpec::UniformVips {
            count: 2,
            weight: 2,
        }
    } else {
        WeightSpec::AllNormal
    };
    ScenarioConfig::paper_default()
        .with_targets(14)
        .with_weights(weights)
        .with_recharge_station(recharge)
        .with_metric(MetricSpec::Road(kind))
        .with_seed(seed)
        .generate()
}

#[test]
fn road_plans_are_byte_identical_bend_by_bend() {
    for kind in [RoadNetKind::Grid, RoadNetKind::Planar] {
        for seed in [3, 11] {
            let s = road_scenario(kind, seed, false);
            let plan = BTctp::new().plan(&s).unwrap();
            assert!(plan.itineraries.iter().all(|it| it.cycle.is_routed()));
            assert_identical(&s, &plan, SimulationConfig::timing_only(), 40_000.0);
            assert_identical(&s, &plan, SimulationConfig::default(), 25_000.0);
            // Dwell applies at real stops only, not at bends.
            let dwell = SimulationConfig {
                synchronized_start: false,
                collection_dwell_s: 12.5,
                ..SimulationConfig::timing_only()
            };
            assert_identical(&s, &plan, dwell, 20_000.0);

            let s = road_scenario(kind, seed, true);
            let plan = RwTctp::default().plan(&s).unwrap();
            assert!(plan.itineraries.iter().all(|it| it.cycle.is_routed()));
            assert_identical(&s, &plan, SimulationConfig::default(), 100_000.0);
        }
    }
}

#[test]
fn a_battery_running_out_between_two_bends_is_byte_identical() {
    let s = road_scenario(RoadNetKind::Grid, 5, false);
    let plan = BTctp::new().plan(&s).unwrap();
    let small = EnergyModel {
        initial_energy_j: 2_500.0,
        ..EnergyModel::paper_default()
    };
    let config = SimulationConfig::default().with_energy(small);
    assert_eq!(assert_identical(&s, &plan, config, 30_000.0), 1);
}
