//! The Sweep baseline (reference \[4\]).
//!
//! "The Sweep approach initially divides the DMs into several groups and
//! then each DM individually patrols the targets of one group" (paper §V).
//! We partition the targets into as many groups as there are mules using
//! angular sectors around the sink (a natural sweep-coverage grouping),
//! build a CHB circuit per group (always including the sink so every group
//! can deliver its data), and assign each group's circuit to one mule.
//! Because group circuits have very different lengths, visiting intervals
//! differ across targets — the imbalance Fig. 7 shows for Sweep.

use crate::plan::{MuleItinerary, PatrolPlan, PlanError, Waypoint};
use crate::planner::{validate_common, Planner};
use mule_geom::Point;
use mule_graph::{construct_circuit, ChbConfig};
use mule_net::NodeKind;
use mule_workload::Scenario;

/// The Sweep baseline planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepPlanner;

impl SweepPlanner {
    /// Sweep with angular grouping.
    pub fn new() -> Self {
        Self
    }

    /// Splits the targets of `scenario` into `groups` angular sectors
    /// around the sink (the field centre without one), returning one vector
    /// of node indices (into the field's node list) per group. Sectors are
    /// balanced in size by splitting the angle-sorted target list into
    /// contiguous chunks.
    pub fn group_targets(scenario: &Scenario, groups: usize) -> Vec<Vec<usize>> {
        let field = scenario.field();
        let targets: Vec<(usize, Point)> = field
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Target)
            .map(|n| (n.id.index(), n.position))
            .collect();
        let positions: Vec<Point> = targets.iter().map(|(_, p)| *p).collect();
        let sink = field
            .sink()
            .map(|s| s.position)
            .unwrap_or_else(|| field.bounds().center());
        mule_graph::angular_partition(&positions, &sink, groups)
            .into_iter()
            .map(|group| group.into_iter().map(|local| targets[local].0).collect())
            .collect()
    }
}

impl Planner for SweepPlanner {
    fn name(&self) -> &'static str {
        "Sweep"
    }

    fn plan(&self, scenario: &Scenario) -> Result<PatrolPlan, PlanError> {
        let _span = mule_obs::span_owned(|| format!("planner.{}", self.name()));
        validate_common(scenario)?;
        let field = scenario.field();
        let sink_node = field.sink();
        let groups = Self::group_targets(scenario, scenario.mule_count());

        let itineraries = scenario
            .mule_starts()
            .iter()
            .enumerate()
            .map(|(m, start)| {
                let group = &groups[m.min(groups.len() - 1)];
                // The group's patrol set: its targets plus the sink.
                let mut nodes: Vec<(usize, Point)> = group
                    .iter()
                    .filter_map(|&idx| field.nodes().get(idx).map(|n| (idx, n.position)))
                    .collect();
                if let Some(sink) = sink_node {
                    nodes.push((sink.id.index(), sink.position));
                }
                if nodes.is_empty() {
                    // A mule with no targets idles at its start position.
                    return MuleItinerary::new(m, *start, vec![]);
                }
                let positions: Vec<Point> = nodes.iter().map(|(_, p)| *p).collect();
                let tour = construct_circuit(&positions, scenario.metric(), &ChbConfig::default());
                let cycle: Vec<Waypoint> = tour
                    .order()
                    .iter()
                    .map(|&local| {
                        let (idx, pos) = nodes[local];
                        Waypoint::new(mule_net::NodeId(idx), pos)
                    })
                    .collect();
                MuleItinerary::new(m, *start, cycle)
            })
            .collect();

        Ok(PatrolPlan::new(self.name(), itineraries).with_metric_geometry(scenario.metric()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_workload::ScenarioConfig;

    fn scenario(seed: u64) -> Scenario {
        ScenarioConfig::paper_default()
            .with_targets(16)
            .with_seed(seed)
            .generate()
    }

    #[test]
    fn groups_partition_the_targets() {
        let s = scenario(3);
        let groups = SweepPlanner::group_targets(&s, 4);
        assert_eq!(groups.len(), 4);
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        assert_eq!(all.len(), 16, "every target is in exactly one group");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16);
        // Balanced sizes: no group larger than ceil(16/4) = 4.
        assert!(groups.iter().all(|g| g.len() <= 4));
    }

    #[test]
    fn every_target_is_covered_by_exactly_one_mule() {
        let s = scenario(5);
        let plan = SweepPlanner::new().plan(&s).unwrap();
        let mut covered = std::collections::HashMap::new();
        for it in &plan.itineraries {
            for node in it.covered_nodes() {
                *covered.entry(node).or_insert(0usize) += 1;
            }
        }
        for node in s.field().patrolled_nodes() {
            if node.kind == NodeKind::Target {
                assert_eq!(covered.get(&node.id), Some(&1), "target {}", node.id);
            }
        }
        // The sink is shared by every group.
        let sink = s.field().sink().unwrap().id;
        assert_eq!(covered.get(&sink), Some(&plan.mule_count()));
    }

    #[test]
    fn group_circuits_include_the_sink_and_are_valid_cycles() {
        let s = scenario(7);
        let plan = SweepPlanner::new().plan(&s).unwrap();
        let sink = s.field().sink().unwrap().id;
        for it in &plan.itineraries {
            assert!(it.visits_per_round(sink) == 1, "sink on every group route");
            assert!(it.cycle_length() > 0.0);
        }
    }

    #[test]
    fn more_mules_than_targets_leaves_spare_mules_idle() {
        let s = ScenarioConfig::paper_default()
            .with_targets(2)
            .with_mules(5)
            .with_seed(8)
            .generate();
        let plan = SweepPlanner::new().plan(&s).unwrap();
        assert_eq!(plan.mule_count(), 5);
        let idle = plan
            .itineraries
            .iter()
            .filter(|it| it.cycle.len() <= 1)
            .count();
        assert!(
            idle >= 2,
            "at least the surplus mules idle or only visit the sink"
        );
    }

    #[test]
    fn zero_groups_is_clamped_and_errors_propagate() {
        let s = scenario(9);
        let groups = SweepPlanner::group_targets(&s, 0);
        assert_eq!(groups.len(), 1);
        let empty = ScenarioConfig::paper_default().with_mules(0).generate();
        assert_eq!(SweepPlanner::new().plan(&empty), Err(PlanError::NoMules));
        assert_eq!(SweepPlanner::new().name(), "Sweep");
    }
}
