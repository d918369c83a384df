//! Pins the bytes of dynamic (replanning) sweeps and of road-metric plan
//! responses.
//!
//! `sweep_determinism.rs` only compares runs with each other and
//! `golden_euclidean.rs` covers the Euclidean metric only; nothing else
//! fixes what a replan under a road metric produces. Each sweep below runs
//! mixed disruptions (a target failure with recovery, a late arrival, a
//! mule breakdown and a speed window) on 50 targets with 2 and 8 mules, so
//! every planner replans several times per replica. The FNV-1a-64 hashes
//! cover the rendered `SweepReport` CSV and the raw `SweepCellOutcome`s
//! (their `Debug` form prints every float in its shortest round-trip
//! form, so equal text means equal bits).
//!
//! The hashes were captured before replanning started to reuse road
//! Dijkstra tables, leg paths and Or-opt buffers; that work must not move
//! a single byte, so a mismatch here is a bug, not a re-pin.

use mule_metrics::SweepReport;
use mule_road::RoadNetKind;
use mule_serve::api::plan_response_json;
use mule_sim::{run_sweep, SimulationConfig, SweepCellOutcome};
use mule_workload::{
    DisruptionConfig, MetricSpec, ScenarioConfig, ScenarioSpec, SweepSpec, WeightSpec,
};
use patrol_core::{Planner, PlannerKind};

/// FNV-1a 64-bit — the same stable hash the spec fingerprint uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const TARGETS: usize = 50;
const HORIZON_S: f64 = 12_000.0;

/// The scenario a planner is evaluated on in the paper's grid: VIPs for
/// W-TCTP (balancing), a recharge station for RW-TCTP.
fn base_config(planner: &str, metric: MetricSpec) -> ScenarioConfig {
    let weights = if planner == "w-tctp-balancing" {
        WeightSpec::UniformVips {
            count: 5,
            weight: 3,
        }
    } else {
        WeightSpec::AllNormal
    };
    ScenarioConfig::paper_default()
        .with_targets(TARGETS)
        .with_weights(weights)
        .with_recharge_station(planner == "rw-tctp")
        .with_metric(metric)
}

/// Runs the pinned mixed-disruption sweep for one planner and metric and
/// returns `(csv hash, raw outcome hash)`.
fn dynamic_sweep(planner: &'static str, metric: MetricSpec) -> (u64, u64) {
    let spec = SweepSpec::new(base_config(planner, metric))
        .with_seeds(vec![5])
        .with_mule_counts(vec![2, 8])
        .with_disruptions(vec![Some(DisruptionConfig::default_mixed(3, HORIZON_S))])
        .with_replicas(2)
        .with_horizon(HORIZON_S);
    let config = if planner == "rw-tctp" {
        SimulationConfig::default()
    } else {
        SimulationConfig::timing_only()
    };
    let factory = move || -> Box<dyn Planner> {
        PlannerKind::lookup(planner)
            .expect("registered planner")
            .build()
    };
    let cells: Vec<SweepCellOutcome> = run_sweep(&factory, &spec, &config, Some(2));
    for cell in &cells {
        assert!(cell.failures.is_empty() && cell.quarantined.is_empty());
        assert_eq!(cell.outcomes.len(), 2);
        assert!(
            cell.replans > 0,
            "{planner}: the sweep exercises replanning"
        );
    }
    let csv = SweepReport::from_cells(&cells).to_csv();
    (
        fnv1a(csv.as_bytes()),
        fnv1a(format!("{cells:?}").as_bytes()),
    )
}

fn assert_sweep(planner: &'static str, metric: MetricSpec, want: (u64, u64)) {
    let (csv, raw) = dynamic_sweep(planner, metric);
    assert_eq!(
        (csv, raw),
        want,
        "{planner} on {metric:?}: got ({csv:#018x}, {raw:#018x})"
    );
}

const ROAD: MetricSpec = MetricSpec::Road(RoadNetKind::Grid);

#[test]
fn btctp_euclidean_replans_are_pinned() {
    assert_sweep(
        "b-tctp",
        MetricSpec::Euclidean,
        (0x047d_3f33_d50c_a0cb, 0xd74a_927d_6c2f_ac8a),
    );
}

#[test]
fn btctp_road_replans_are_pinned() {
    assert_sweep(
        "b-tctp",
        ROAD,
        (0x9178_4dd6_7674_7100, 0xdd43_45b1_e274_5b1c),
    );
}

#[test]
fn wtctp_balancing_euclidean_replans_are_pinned() {
    assert_sweep(
        "w-tctp-balancing",
        MetricSpec::Euclidean,
        (0x8107_9f20_b235_8cf9, 0x5abf_3269_92bb_bea5),
    );
}

#[test]
fn wtctp_balancing_road_replans_are_pinned() {
    assert_sweep(
        "w-tctp-balancing",
        ROAD,
        (0x2e8c_fa73_9c3e_f416, 0x81ca_008b_d9c6_35a2),
    );
}

#[test]
fn rwtctp_euclidean_replans_are_pinned() {
    assert_sweep(
        "rw-tctp",
        MetricSpec::Euclidean,
        (0x0dd9_f080_24a6_98e2, 0x4bdc_3be7_a2ad_7665),
    );
}

#[test]
fn rwtctp_road_replans_are_pinned() {
    assert_sweep(
        "rw-tctp",
        ROAD,
        (0x5fbf_65db_bb25_e05a, 0x0b40_048d_ccf6_ab2c),
    );
}

/// An 8-mule road-grid `/v1/plan` response of each planner: every mule
/// carries its own copy of the shared cycle's leg geometry. The CHB, Sweep
/// and Random baselines are pinned too, since they share the circuit and
/// angular-grouping code with the TCTP planners.
#[test]
fn road_plan_responses_are_pinned() {
    let pinned: [(&str, u64); 7] = [
        ("b-tctp", 0x7b1a_b6a5_785d_9ad5),
        ("w-tctp-balancing", 0x8d53_65b3_d17e_1f25),
        ("rw-tctp", 0x74cd_ec55_6bce_4400),
        ("w-tctp-shortest", 0x93a1_ef63_7c3e_95ec),
        ("chb", 0x6e07_962e_abe5_865e),
        ("sweep", 0x747a_30b0_7f45_ecd5),
        ("random", 0x584b_ad4f_4ebf_7cd1),
    ];
    for (planner, want) in pinned {
        let spec = ScenarioSpec {
            targets: TARGETS,
            mules: 8,
            seed: 9,
            vips: if planner.starts_with("w-tctp") { 5 } else { 0 },
            vip_weight: 3,
            recharge: planner == "rw-tctp",
            planner: planner.to_string(),
            metric: ROAD,
            ..ScenarioSpec::default()
        };
        let json = plan_response_json(&spec).expect("plan");
        let got = fnv1a(json.as_bytes());
        assert_eq!(got, want, "{planner}: got {got:#018x}");
    }
}

/// The road-grid twin of `golden_euclidean.rs`'s single-waypoint pin:
/// Sweep's sink-only walks have no legs to route, so they render no
/// `path` and a `-0.0` length.
#[test]
fn road_single_waypoint_walks_are_pinned() {
    let spec = ScenarioSpec {
        targets: 5,
        mules: 8,
        seed: 3,
        planner: "sweep".to_string(),
        metric: ROAD,
        ..ScenarioSpec::default()
    };
    let got = fnv1a(plan_response_json(&spec).expect("plan").as_bytes());
    assert_eq!(got, 0xeea1_bca1_de63_9564, "got {got:#018x}");
}
