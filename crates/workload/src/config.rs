//! Scenario configuration: every knob the paper's evaluation sweeps.

use mule_road::RoadNetKind;

/// Which travel metric the scenario's world uses.
///
/// This is scenario *data* (seeded, serialisable, fingerprintable); the
/// queryable [`mule_road::TravelMetric`] is derived from it at generation
/// time. The default is [`MetricSpec::Euclidean`] — absent from canonical
/// spec strings, so every pre-road fingerprint and cache key is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricSpec {
    /// Straight-line travel (the historical behaviour).
    #[default]
    Euclidean,
    /// Travel over a generated road network of the given kind; the network
    /// itself is a deterministic function of the field bounds and the
    /// scenario seed (see `mule_road::RoadIndex::for_field`).
    Road(RoadNetKind),
}

impl MetricSpec {
    /// The wire name used by `--metric` flags, JSON specs and canonical
    /// strings.
    pub fn wire_name(&self) -> &'static str {
        match self {
            MetricSpec::Euclidean => "euclidean",
            MetricSpec::Road(RoadNetKind::Grid) => "road-grid",
            MetricSpec::Road(RoadNetKind::Planar) => "road-planar",
        }
    }

    /// Parses a wire name (case-insensitive). `road` is an alias for the
    /// grid network.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "euclidean" | "euclid" => Some(MetricSpec::Euclidean),
            "road" | "road-grid" | "grid" => Some(MetricSpec::Road(RoadNetKind::Grid)),
            "road-planar" | "planar" => Some(MetricSpec::Road(RoadNetKind::Planar)),
            _ => None,
        }
    }
}

/// How targets are laid out in the field.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LayoutKind {
    /// Uniformly random positions over the whole field (the paper's base
    /// setup: "the locations of targets are randomly distributed over the
    /// monitoring region").
    #[default]
    Uniform,
    /// Targets grouped into `clusters` disconnected areas whose centres are
    /// spread across the field and whose members lie within
    /// `cluster_radius_m` of the centre. This realises the "targets may be
    /// distributed over several disconnected areas" motivation.
    DisconnectedClusters {
        /// Number of disconnected areas.
        clusters: usize,
        /// Radius of each area in metres.
        cluster_radius_m: f64,
    },
}

/// How VIP weights are assigned to targets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeightSpec {
    /// Every target is a Normal Target Point (weight 1).
    #[default]
    AllNormal,
    /// Exactly `count` targets (chosen at random) are VIPs with the given
    /// uniform weight; the rest are NTPs. This matches the Fig. 9/10 sweep
    /// axes "number of VIP" and "weighted value".
    UniformVips {
        /// How many VIPs to create.
        count: usize,
        /// The weight value assigned to each VIP (≥ 2 to be a real VIP).
        weight: u32,
    },
    /// Each target independently becomes a VIP with probability `p`, with a
    /// weight drawn uniformly from `min_weight..=max_weight`.
    RandomVips {
        /// Probability that a target is a VIP.
        p: f64,
        /// Smallest VIP weight.
        min_weight: u32,
        /// Largest VIP weight.
        max_weight: u32,
    },
}

/// Where the mules start before location initialisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MuleStartKind {
    /// All mules start at the sink (the common deployment story: mules are
    /// launched from the base station).
    #[default]
    AtSink,
    /// Mules start at uniformly random positions in the field, which is the
    /// situation B-TCTP's "move to the closest start point" initialisation
    /// is designed for.
    Random,
}

/// Full configuration of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Side length of the square monitoring field, metres.
    pub field_side_m: f64,
    /// Number of targets (excluding the sink).
    pub target_count: usize,
    /// Number of data mules.
    pub mule_count: usize,
    /// Target layout.
    pub layout: LayoutKind,
    /// VIP weight assignment.
    pub weights: WeightSpec,
    /// Mule starting positions.
    pub mule_start: MuleStartKind,
    /// Whether the scenario includes a recharge station (required by
    /// RW-TCTP).
    pub with_recharge_station: bool,
    /// Per-target data generation rate, bytes per second (only affects the
    /// byte-level reporting, not the timing metrics).
    pub data_rate_bps: f64,
    /// Travel metric of the world: Euclidean (default) or a seeded road
    /// network. With a road metric, targets, sink and recharge station
    /// snap onto the nearest road node (mules cannot stop off-road).
    pub metric: MetricSpec,
    /// RNG seed. Scenarios with equal configs and seeds are identical.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig::paper_default()
    }
}

impl ScenarioConfig {
    /// The paper's §5.1 setup: 800 m × 800 m field, uniformly random
    /// targets, 10 targets, 4 mules, no VIPs, no recharge station.
    pub fn paper_default() -> Self {
        ScenarioConfig {
            field_side_m: 800.0,
            target_count: 10,
            mule_count: 4,
            layout: LayoutKind::Uniform,
            weights: WeightSpec::AllNormal,
            mule_start: MuleStartKind::AtSink,
            with_recharge_station: false,
            data_rate_bps: 64.0,
            metric: MetricSpec::Euclidean,
            seed: 1,
        }
    }

    /// Builder-style override of the target count.
    pub fn with_targets(mut self, count: usize) -> Self {
        self.target_count = count;
        self
    }

    /// Builder-style override of the mule count.
    pub fn with_mules(mut self, count: usize) -> Self {
        self.mule_count = count;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the layout.
    pub fn with_layout(mut self, layout: LayoutKind) -> Self {
        self.layout = layout;
        self
    }

    /// Builder-style override of the weight specification.
    pub fn with_weights(mut self, weights: WeightSpec) -> Self {
        self.weights = weights;
        self
    }

    /// Builder-style override of the mule start positions.
    pub fn with_mule_start(mut self, start: MuleStartKind) -> Self {
        self.mule_start = start;
        self
    }

    /// Builder-style toggle for the recharge station.
    pub fn with_recharge_station(mut self, enabled: bool) -> Self {
        self.with_recharge_station = enabled;
        self
    }

    /// Builder-style override of the travel metric.
    pub fn with_metric(mut self, metric: MetricSpec) -> Self {
        self.metric = metric;
        self
    }

    /// Generates the scenario described by this configuration.
    pub fn generate(&self) -> crate::Scenario {
        crate::Scenario::generate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5_1() {
        let c = ScenarioConfig::paper_default();
        assert_eq!(c.field_side_m, 800.0);
        assert_eq!(c.target_count, 10);
        assert_eq!(c.mule_count, 4);
        assert_eq!(c.layout, LayoutKind::Uniform);
        assert_eq!(c.weights, WeightSpec::AllNormal);
        assert!(!c.with_recharge_station);
        assert_eq!(ScenarioConfig::default(), c);
    }

    #[test]
    fn builder_methods_override_individual_fields() {
        let c = ScenarioConfig::paper_default()
            .with_targets(25)
            .with_mules(6)
            .with_seed(99)
            .with_layout(LayoutKind::DisconnectedClusters {
                clusters: 3,
                cluster_radius_m: 50.0,
            })
            .with_weights(WeightSpec::UniformVips {
                count: 2,
                weight: 3,
            })
            .with_mule_start(MuleStartKind::Random)
            .with_recharge_station(true);
        assert_eq!(c.target_count, 25);
        assert_eq!(c.mule_count, 6);
        assert_eq!(c.seed, 99);
        assert!(matches!(
            c.layout,
            LayoutKind::DisconnectedClusters { clusters: 3, .. }
        ));
        assert!(matches!(
            c.weights,
            WeightSpec::UniformVips {
                count: 2,
                weight: 3
            }
        ));
        assert_eq!(c.mule_start, MuleStartKind::Random);
        assert!(c.with_recharge_station);
    }

    #[test]
    fn defaults_for_enums_are_the_paper_base_case() {
        assert_eq!(LayoutKind::default(), LayoutKind::Uniform);
        assert_eq!(WeightSpec::default(), WeightSpec::AllNormal);
        assert_eq!(MuleStartKind::default(), MuleStartKind::AtSink);
        assert_eq!(MetricSpec::default(), MetricSpec::Euclidean);
    }

    #[test]
    fn metric_spec_wire_names_round_trip() {
        for spec in [
            MetricSpec::Euclidean,
            MetricSpec::Road(RoadNetKind::Grid),
            MetricSpec::Road(RoadNetKind::Planar),
        ] {
            assert_eq!(MetricSpec::parse(spec.wire_name()), Some(spec));
        }
        assert_eq!(
            MetricSpec::parse("road"),
            Some(MetricSpec::Road(RoadNetKind::Grid)),
            "bare `road` aliases the grid network"
        );
        assert_eq!(
            MetricSpec::parse("PLANAR"),
            Some(MetricSpec::Road(RoadNetKind::Planar))
        );
        assert_eq!(MetricSpec::parse("teleport"), None);
    }
}
