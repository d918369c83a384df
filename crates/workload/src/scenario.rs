//! The generated scenario: a concrete field plus mule start positions.

use crate::config::{LayoutKind, MetricSpec, MuleStartKind, ScenarioConfig};
use crate::layout::{clustered_layout, uniform_layout};
use crate::weights::assign_weights;
use mule_geom::{BoundingBox, Point};
use mule_net::{Field, NodeId};
use mule_road::{RoadIndex, TravelMetric};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A fully instantiated problem instance: the monitoring field (targets,
/// sink, optional recharge station, weights), the travel metric of the
/// world, and where each mule starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    config: ScenarioConfig,
    field: Field,
    mule_starts: Vec<Point>,
    metric: TravelMetric,
}

impl Scenario {
    /// Generates the scenario described by `config`. Equal configs (same
    /// seed included) generate identical scenarios.
    ///
    /// With a road metric, the network is generated first (from a seed
    /// stream decoupled from the target stream, so Euclidean scenarios
    /// remain byte-identical) and every *patrolled* location — targets,
    /// sink, recharge station — snaps to its nearest road node: mules
    /// cannot stop off-road. Random mule start positions stay unsnapped
    /// (mules are dropped anywhere and drive onto the network).
    pub fn generate(config: &ScenarioConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let bounds = BoundingBox::square(config.field_side_m.max(1.0));

        // The travel metric of the world (seed stream independent of the
        // target RNG below).
        let metric = match config.metric {
            MetricSpec::Euclidean => TravelMetric::Euclidean,
            MetricSpec::Road(kind) => {
                TravelMetric::road(RoadIndex::for_field(kind, &bounds, config.seed))
            }
        };
        let place = |p: Point| match metric.road_index() {
            None => p,
            Some(index) => index.snap_position(&p),
        };

        // Target positions according to the layout.
        let targets = match config.layout {
            LayoutKind::Uniform => uniform_layout(&mut rng, &bounds, config.target_count),
            LayoutKind::DisconnectedClusters {
                clusters,
                cluster_radius_m,
            } => clustered_layout(
                &mut rng,
                &bounds,
                config.target_count,
                clusters,
                cluster_radius_m,
            ),
        };

        // VIP weights, aligned with the target order.
        let weights = assign_weights(&mut rng, targets.len(), &config.weights);

        // Assemble the field. The sink is placed at the field centre; the
        // paper treats it as an ordinary target on the patrolling path.
        let mut builder = Field::builder(bounds);
        let sink_position = place(bounds.center());
        builder.add_sink(sink_position);
        for (pos, w) in targets.iter().zip(weights.iter()) {
            builder.add_target(place(*pos), *w);
        }
        if config.with_recharge_station {
            // The recharge station sits at a random field location, away
            // from the sink so the WRP detour is non-trivial.
            let station = Point::new(
                rng.random_range(bounds.min_x..=bounds.max_x),
                rng.random_range(bounds.min_y..=bounds.max_y),
            );
            builder.add_recharge_station(place(station));
        }
        let field = builder.build();

        // Mule start positions.
        let mule_starts = match config.mule_start {
            MuleStartKind::AtSink => vec![sink_position; config.mule_count],
            MuleStartKind::Random => (0..config.mule_count)
                .map(|_| {
                    Point::new(
                        rng.random_range(bounds.min_x..=bounds.max_x),
                        rng.random_range(bounds.min_y..=bounds.max_y),
                    )
                })
                .collect(),
        };

        Scenario {
            config: *config,
            field,
            mule_starts,
            metric,
        }
    }

    /// The configuration this scenario was generated from.
    #[inline]
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The monitoring field.
    #[inline]
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// Mule start positions (one per mule).
    #[inline]
    pub fn mule_starts(&self) -> &[Point] {
        &self.mule_starts
    }

    /// Number of mules.
    #[inline]
    pub fn mule_count(&self) -> usize {
        self.mule_starts.len()
    }

    /// Positions of the patrolled nodes (sink + targets) in node-id order —
    /// the point set handed to the planners.
    pub fn patrolled_positions(&self) -> Vec<Point> {
        self.field.patrolled_positions()
    }

    /// Node ids of the patrolled nodes, aligned with
    /// [`Scenario::patrolled_positions`].
    pub fn patrolled_ids(&self) -> Vec<NodeId> {
        self.field.patrolled_ids()
    }

    /// Per-target data generation rate.
    #[inline]
    pub fn data_rate_bps(&self) -> f64 {
        self.config.data_rate_bps
    }

    /// The travel metric of the world (Euclidean or a road network).
    #[inline]
    pub fn metric(&self) -> &TravelMetric {
        &self.metric
    }

    /// Groups the patrolled nodes into connected components of the
    /// unit-disk graph at communication radius `range`, measured under the
    /// scenario's travel metric: with a road metric, two targets separated
    /// by a wall of deleted blocks are *not* neighbours even if they are
    /// geometrically close — radios still propagate straight, but a
    /// patrolled network's relevant notion of "reachable" is travel, which
    /// is what this check feeds (see `mule_net::connectivity`).
    pub fn patrolled_components(&self, range: f64) -> Vec<Vec<usize>> {
        let positions = self.patrolled_positions();
        let metric = &self.metric;
        mule_net::connectivity::connected_components_by(positions.len(), range, |i, j| {
            metric.distance(&positions[i], &positions[j])
        })
    }

    /// A restricted view of this scenario for (re)planning mid-run:
    /// the targets in `inactive` are deactivated (they keep their ids but
    /// leave the patrolled set) and the fleet is replaced by mules standing
    /// at `mule_starts` — typically the surviving mules' current positions.
    ///
    /// Planners are deterministic functions of a scenario, so replanning on
    /// a restricted scenario is exactly "run the paper's construction on
    /// the surviving world".
    pub fn restricted(&self, inactive: &[NodeId], mule_starts: Vec<Point>) -> Scenario {
        let mut field = self.field.clone();
        for &id in inactive {
            field.set_active(id, false);
        }
        let mut config = self.config;
        config.mule_count = mule_starts.len();
        Scenario {
            config,
            field,
            mule_starts,
            metric: self.metric.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WeightSpec;
    use mule_net::NodeKind;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = ScenarioConfig::paper_default().with_seed(5);
        let a = Scenario::generate(&cfg);
        let b = Scenario::generate(&cfg);
        assert_eq!(a, b);
        let c = Scenario::generate(&cfg.with_seed(6));
        assert_ne!(a, c);
    }

    #[test]
    fn paper_default_scenario_has_expected_shape() {
        let s = ScenarioConfig::paper_default().with_seed(3).generate();
        // Sink + 10 targets, no recharge station.
        assert_eq!(s.field().len(), 11);
        assert_eq!(s.field().target_count(), 10);
        assert!(s.field().recharge_station().is_none());
        assert_eq!(s.mule_count(), 4);
        assert_eq!(s.patrolled_positions().len(), 11);
        assert_eq!(s.patrolled_ids().len(), 11);
        // All mules start at the sink.
        let sink = s.field().sink().unwrap().position;
        assert!(s.mule_starts().iter().all(|p| *p == sink));
    }

    #[test]
    fn recharge_station_is_added_when_requested() {
        let s = ScenarioConfig::paper_default()
            .with_recharge_station(true)
            .with_seed(8)
            .generate();
        let station = s.field().recharge_station().unwrap();
        assert_eq!(station.kind, NodeKind::RechargeStation);
        // The station is not part of the patrolled set.
        assert_eq!(s.patrolled_positions().len(), 11);
        assert_eq!(s.field().len(), 12);
    }

    #[test]
    fn random_mule_starts_lie_in_the_field() {
        let s = ScenarioConfig::paper_default()
            .with_mule_start(MuleStartKind::Random)
            .with_mules(7)
            .with_seed(12)
            .generate();
        assert_eq!(s.mule_count(), 7);
        let bounds = s.field().bounds();
        assert!(s.mule_starts().iter().all(|p| bounds.contains(p)));
        // Random starts should not all coincide.
        let first = s.mule_starts()[0];
        assert!(s.mule_starts().iter().any(|p| *p != first));
    }

    #[test]
    fn vip_weights_flow_into_the_field() {
        let s = ScenarioConfig::paper_default()
            .with_targets(20)
            .with_weights(WeightSpec::UniformVips {
                count: 5,
                weight: 4,
            })
            .with_seed(21)
            .generate();
        let vips = s.field().vips();
        assert_eq!(vips.len(), 5);
        assert!(vips.iter().all(|v| v.weight.value() == 4));
    }

    #[test]
    fn clustered_layout_flows_through_generation() {
        let s = ScenarioConfig::paper_default()
            .with_targets(24)
            .with_layout(LayoutKind::DisconnectedClusters {
                clusters: 3,
                cluster_radius_m: 60.0,
            })
            .with_seed(33)
            .generate();
        assert_eq!(s.field().target_count(), 24);
        let target_positions: Vec<Point> = s
            .field()
            .nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Target)
            .map(|n| n.position)
            .collect();
        assert!(mule_net::is_disconnected(&target_positions, 20.0));
    }

    #[test]
    fn restricted_scenarios_drop_targets_and_replace_the_fleet() {
        let s = ScenarioConfig::paper_default().with_seed(4).generate();
        let victims = [s.patrolled_ids()[1], s.patrolled_ids()[3]];
        let starts = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let r = s.restricted(&victims, starts.clone());
        assert_eq!(r.patrolled_ids().len(), s.patrolled_ids().len() - 2);
        assert!(!r.patrolled_ids().contains(&victims[0]));
        assert_eq!(r.mule_count(), 2);
        assert_eq!(r.mule_starts(), &starts[..]);
        // Surviving nodes keep their original ids.
        for id in r.patrolled_ids() {
            assert!(s.patrolled_ids().contains(&id));
        }
        // The original scenario is untouched.
        assert_eq!(s.patrolled_ids().len(), 11);
    }

    #[test]
    fn road_scenarios_snap_every_patrolled_node_onto_the_network() {
        let cfg = ScenarioConfig::paper_default()
            .with_targets(12)
            .with_recharge_station(true)
            .with_metric(MetricSpec::Road(mule_road::RoadNetKind::Grid))
            .with_seed(7);
        let s = Scenario::generate(&cfg);
        let index = s.metric().road_index().expect("road metric");
        for node in s.field().nodes() {
            assert!(
                index
                    .graph()
                    .positions()
                    .iter()
                    .any(|p| p.distance(&node.position) < 1e-9),
                "node {} at {} sits on a road node",
                node.id,
                node.position
            );
        }
        // Mules start at the (snapped) sink.
        let sink = s.field().sink().unwrap().position;
        assert!(s.mule_starts().iter().all(|p| *p == sink));
        assert_eq!(s.metric().label(), "road-grid");
    }

    #[test]
    fn road_metric_does_not_disturb_the_euclidean_target_stream() {
        // The road network draws from its own seed stream; the *unsnapped*
        // target layout of a road scenario must equal the Euclidean one.
        let base = ScenarioConfig::paper_default().with_targets(9).with_seed(5);
        let euclid = Scenario::generate(&base);
        let road =
            Scenario::generate(&base.with_metric(MetricSpec::Road(mule_road::RoadNetKind::Planar)));
        let index = road.metric().road_index().unwrap();
        for (e, r) in euclid
            .patrolled_positions()
            .iter()
            .zip(road.patrolled_positions())
        {
            assert_eq!(index.snap_position(e), r, "road node = snapped euclid node");
        }
    }

    #[test]
    fn road_generation_is_deterministic_and_fingerprints_differ() {
        let cfg = ScenarioConfig::paper_default()
            .with_metric(MetricSpec::Road(mule_road::RoadNetKind::Grid))
            .with_seed(3);
        assert_eq!(Scenario::generate(&cfg), Scenario::generate(&cfg));
        let euclid = ScenarioConfig::paper_default().with_seed(3).generate();
        assert_ne!(Scenario::generate(&cfg), euclid);
    }

    #[test]
    fn patrolled_components_use_the_travel_metric() {
        let s = ScenarioConfig::paper_default()
            .with_targets(15)
            .with_seed(2)
            .generate();
        // Euclidean: matches the classic point-based check.
        let by_metric = s.patrolled_components(250.0);
        let classic = mule_net::connected_components(&s.patrolled_positions(), 250.0);
        assert_eq!(by_metric, classic);

        // Road: distances only grow, so components can only split further.
        let road = ScenarioConfig::paper_default()
            .with_targets(15)
            .with_seed(2)
            .with_metric(MetricSpec::Road(mule_road::RoadNetKind::Grid))
            .generate();
        let road_comps = road.patrolled_components(250.0);
        let euclid_comps = mule_net::connected_components(&road.patrolled_positions(), 250.0);
        assert!(road_comps.len() >= euclid_comps.len());
    }

    #[test]
    fn zero_targets_and_zero_mules_are_representable() {
        let s = ScenarioConfig::paper_default()
            .with_targets(0)
            .with_mules(0)
            .with_seed(2)
            .generate();
        assert_eq!(s.field().target_count(), 0);
        assert_eq!(s.mule_count(), 0);
        // The sink is always present.
        assert_eq!(s.patrolled_positions().len(), 1);
    }
}
