//! Property-based tests of the planners' structural invariants.

use mule_workload::{ScenarioConfig, WeightSpec};
use patrol_core::baselines::{ChbPlanner, RandomPlanner, SweepPlanner};
use patrol_core::{BTctp, BreakEdgePolicy, Planner, RwTctp, WTctp};
use proptest::prelude::*;

fn weighted_config(
    seed: u64,
    targets: usize,
    mules: usize,
    vips: usize,
    weight: u32,
    recharge: bool,
) -> ScenarioConfig {
    ScenarioConfig::paper_default()
        .with_targets(targets)
        .with_mules(mules)
        .with_seed(seed)
        .with_weights(if vips > 0 {
            WeightSpec::UniformVips {
                count: vips,
                weight,
            }
        } else {
            WeightSpec::AllNormal
        })
        .with_recharge_station(recharge)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every planner produces one itinerary per mule, each a closed walk
    /// over valid node ids with finite positive length (or an idle walk).
    #[test]
    fn all_planners_produce_structurally_valid_plans(
        seed in 0u64..10_000,
        targets in 2usize..20,
        mules in 1usize..6,
    ) {
        let scenario = weighted_config(seed, targets, mules, 0, 1, false).generate();
        let planners: Vec<Box<dyn Planner>> = vec![
            Box::new(BTctp::new()),
            Box::new(ChbPlanner::new()),
            Box::new(SweepPlanner::new()),
            Box::new(RandomPlanner::with_rounds(4)),
            Box::new(WTctp::new(BreakEdgePolicy::ShortestLength)),
        ];
        let valid_ids: std::collections::HashSet<usize> =
            scenario.field().nodes().iter().map(|n| n.id.index()).collect();
        for planner in planners {
            let plan = planner.plan(&scenario).unwrap();
            prop_assert_eq!(plan.mule_count(), mules, "{}", plan.planner_name);
            for it in &plan.itineraries {
                prop_assert!(it.cycle_length().is_finite());
                prop_assert!(it.entry_offset_m >= 0.0);
                for w in &it.cycle {
                    prop_assert!(valid_ids.contains(&w.node.index()));
                    prop_assert!(w.position.is_finite());
                }
            }
        }
    }

    /// The WPP produced by the patrolling rule preserves the undirected edge
    /// multiset of the constructed walk: the rule only fixes the traversal
    /// order, it never adds or removes path segments.
    #[test]
    fn patrol_rule_preserves_wpp_edge_multiset(
        seed in 0u64..10_000,
        targets in 5usize..18,
        vips in 1usize..4,
        weight in 2u32..5,
    ) {
        let scenario = weighted_config(seed, targets, 1, vips, weight, false).generate();
        for policy in BreakEdgePolicy::ALL {
            let wpp = WTctp::new(policy).build_wpp_waypoints(&scenario).unwrap();
            // Total node occurrences = Σ weights.
            let expected: usize = scenario
                .field()
                .patrolled_nodes()
                .iter()
                .map(|n| n.weight.value() as usize)
                .sum();
            prop_assert_eq!(wpp.len(), expected);
        }
    }

    /// B-TCTP deployments assign each mule a distinct start point and the
    /// set of entry offsets is invariant under a permutation of the mule
    /// start positions (the greedy matching is symmetric in the fleet).
    #[test]
    fn btctp_assigns_distinct_start_points(
        seed in 0u64..10_000,
        targets in 3usize..20,
        mules in 2usize..7,
    ) {
        let scenario = weighted_config(seed, targets, mules, 0, 1, false).generate();
        let plan = BTctp::new().plan(&scenario).unwrap();
        let mut offsets: Vec<u64> = plan
            .itineraries
            .iter()
            .map(|i| (i.entry_offset_m * 1_000.0).round() as u64)
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        prop_assert_eq!(offsets.len(), mules, "distinct start points per mule");
    }

    /// RW-TCTP invariants: the WRP contains the station exactly once, is at
    /// least as long as the WPP, and the encoded super-cycle visits the
    /// station exactly once per recharge period regardless of the battery.
    #[test]
    fn rwtctp_schedule_invariants(
        seed in 0u64..10_000,
        targets in 4usize..15,
        vips in 0usize..3,
        battery in 20_000.0f64..400_000.0,
    ) {
        let scenario = weighted_config(seed, targets, 2, vips, 3, true).generate();
        let energy = mule_energy::EnergyModel {
            initial_energy_j: battery,
            ..mule_energy::EnergyModel::paper_default()
        };
        let planner = RwTctp::with_energy(BreakEdgePolicy::ShortestLength, energy);
        let schedule = planner.build_schedule(&scenario).unwrap();
        let station = scenario.field().recharge_station().unwrap().id;
        prop_assert_eq!(
            schedule.wrp.iter().filter(|w| w.node == station).count(),
            1
        );
        prop_assert!(schedule.wrp_length() >= schedule.wpp_length() - 1e-9);
        prop_assert!(schedule.rounds.rounds_per_charge >= 1);

        let plan = planner.plan(&scenario).unwrap();
        prop_assert_eq!(plan.itineraries[0].visits_per_round(station), 1);
    }

    /// Sweep partitions the targets: the union of the per-mule covered
    /// target sets equals the target set and the sets are pairwise disjoint.
    #[test]
    fn sweep_groups_partition_targets(
        seed in 0u64..10_000,
        targets in 1usize..25,
        mules in 1usize..6,
    ) {
        let scenario = weighted_config(seed, targets, mules, 0, 1, false).generate();
        let plan = SweepPlanner::new().plan(&scenario).unwrap();
        let sink = scenario.field().sink().unwrap().id;
        let mut seen = std::collections::HashMap::new();
        for it in &plan.itineraries {
            for node in it.covered_nodes() {
                if node != sink {
                    *seen.entry(node).or_insert(0usize) += 1;
                }
            }
        }
        for node in scenario.field().patrolled_nodes() {
            if node.id != sink {
                prop_assert_eq!(seen.get(&node.id), Some(&1), "target {} owned once", node.id);
            }
        }
    }
}

/// Under a road metric every distinct leg of a plan is routed by one A*
/// at most, however many mules share the cycle and however often a
/// weighted walk repeats it; RW-TCTP adds one distance query per leg of
/// its recharge path when it sizes the Eq. 4 rounds.
#[test]
fn road_plans_run_one_astar_per_distinct_leg() {
    use mule_road::RoadNetKind;
    use mule_workload::MetricSpec;
    use std::collections::BTreeSet;

    let rw = RwTctp::default();
    let planners: [(&dyn Planner, usize, bool); 3] = [
        (&BTctp::new(), 0, false),
        (&WTctp::new(BreakEdgePolicy::BalancingLength), 5, false),
        (&rw, 0, true),
    ];
    for (planner, vips, recharge) in planners {
        for mules in [2, 8] {
            let scenario = weighted_config(3, 50, mules, vips, 3, recharge)
                .with_metric(MetricSpec::Road(RoadNetKind::Grid))
                .generate();
            let (plan, trace) = mule_obs::capture(|| planner.plan(&scenario).unwrap());
            let queries: u64 = trace
                .spans
                .iter()
                .flat_map(|s| &s.counters)
                .filter(|(name, _)| name == "alt_queries")
                .map(|&(_, v)| v)
                .sum();
            let legs: BTreeSet<[u64; 4]> = plan
                .itineraries
                .iter()
                .flat_map(|it| {
                    let n = it.cycle.len();
                    (0..n).map(move |i| {
                        let (a, b) = (it.cycle[i].position, it.cycle[(i + 1) % n].position);
                        [a.x, a.y, b.x, b.y].map(f64::to_bits)
                    })
                })
                .collect();
            let wrp_legs = if recharge {
                rw.build_schedule(&scenario).unwrap().wrp.len()
            } else {
                0
            };
            let bound = (legs.len() + wrp_legs) as u64;
            assert!(
                queries <= bound,
                "{} with {mules} mules: {queries} A* queries for {} legs + {wrp_legs} WRP legs",
                planner.name(),
                legs.len()
            );
        }
    }
}

/// B-, W- and RW-TCTP hand every mule the same walk, not equal copies of
/// it, and so does a replan through one of them: on the Euclidean metric
/// and after routing on roads.
#[test]
fn tctp_plans_and_replans_share_one_walk() {
    use mule_road::RoadNetKind;
    use mule_workload::MetricSpec;
    use patrol_core::{PatrolPlan, ReplanContext, ReplanWithPlanner, Replanner, Walk};

    fn assert_one_walk(plan: &PatrolPlan, what: &str) {
        let first = &plan.itineraries[0].cycle;
        assert!(
            plan.itineraries
                .iter()
                .all(|it| Walk::ptr_eq(&it.cycle, first)),
            "{what}: every mule holds one walk"
        );
    }

    let rw = RwTctp::default();
    let planners: [(&dyn Planner, usize, bool); 4] = [
        (&BTctp::new(), 0, false),
        (&WTctp::new(BreakEdgePolicy::ShortestLength), 5, false),
        (&WTctp::new(BreakEdgePolicy::BalancingLength), 5, false),
        (&rw, 0, true),
    ];
    for metric in [MetricSpec::Euclidean, MetricSpec::Road(RoadNetKind::Grid)] {
        for (planner, vips, recharge) in planners {
            let scenario = weighted_config(3, 30, 4, vips, 3, recharge)
                .with_metric(metric)
                .generate();
            let plan = planner.plan(&scenario).unwrap();
            assert_eq!(
                plan.itineraries[0].cycle.is_routed(),
                metric != MetricSpec::Euclidean
            );
            assert_one_walk(&plan, &format!("{} on {metric:?}", planner.name()));
        }

        let scenario = weighted_config(3, 30, 4, 0, 1, false)
            .with_metric(metric)
            .generate();
        let initial = BTctp::new().plan(&scenario).unwrap();
        let positions = vec![scenario.field().sink().unwrap().position; 3];
        let replan = ReplanWithPlanner::new(BTctp::new())
            .replan(&ReplanContext {
                scenario: &scenario,
                inactive_targets: &[scenario.patrolled_ids()[4]],
                active_mules: &[0, 1, 3],
                mule_positions: &positions,
                previous: &initial,
                time_s: 1_000.0,
            })
            .unwrap();
        assert_eq!(replan.mule_count(), 3);
        assert_one_walk(&replan, &format!("a B-TCTP replan on {metric:?}"));
    }
}
