//! Pins the default (Euclidean) outputs byte-for-byte against the
//! pre-road-metric state.
//!
//! The road-metric subsystem threads a `TravelMetric` through every layer
//! of the stack; the contract (docs/DETERMINISM.md, "Road metrics") is
//! that scenarios which do not opt in are **bit-for-bit unchanged** —
//! same plans, same service responses, same sweep statistics. These
//! FNV-1a-64 hashes were captured from the tree immediately *before* the
//! road subsystem landed; they must never change as a side effect of
//! metric work. (An intentional, reviewed output change elsewhere in the
//! stack may re-pin them — with the diff in hand, not by reflex.)

use patrol_cli::args::parse_args;
use patrol_cli::commands::run_command;

/// FNV-1a 64-bit — the same stable hash the spec fingerprint uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn run(cmdline: &str) -> patrol_cli::commands::CommandOutput {
    run_command(&parse_args(&argv(cmdline)).unwrap()).unwrap()
}

#[test]
fn default_plan_response_is_byte_identical_to_pre_road_output() {
    let out = run("plan");
    assert_eq!(
        fnv1a(out.text.as_bytes()),
        0xce63_f754_91df_2162,
        "`patrolctl plan` (default spec) drifted from the pre-road bytes"
    );
}

#[test]
fn pinned_plan_response_is_byte_identical_to_pre_road_output() {
    let out = run("plan --targets 12 --mules 3 --seed 7");
    assert_eq!(
        fnv1a(out.text.as_bytes()),
        0xcf67_9c09_7f94_9e4b,
        "`patrolctl plan --targets 12 --mules 3 --seed 7` drifted from the pre-road bytes"
    );
}

#[test]
fn pinned_sweep_csv_is_byte_identical_to_pre_road_output() {
    let dir = std::env::temp_dir().join("patrolctl_golden_euclidean");
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("sweep.csv");
    let cmdline = format!(
        "sweep --targets 8 --seeds 1,2 --mule-counts 2,3 --replicas 2 --horizon 5000 --csv {}",
        csv_path.display()
    );
    let _ = run(&cmdline);
    let csv = std::fs::read(&csv_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        fnv1a(&csv),
        0xa52f_bd00_bd21_83b0,
        "the pinned sweep CSV drifted from the pre-road bytes"
    );
}

/// Plan documents large enough to take the candidate-list tour engine,
/// where every mule shares one cycle, plus a planner whose mules each get
/// their own cycle. They pin the rendering of repeated and distinct
/// cycles byte-for-byte.
#[test]
fn large_plan_responses_are_byte_identical() {
    for (cmdline, expected) in [
        (
            "plan --targets 1000 --mules 8 --seed 7",
            0x78ec_0e8f_bf02_0d27,
        ),
        (
            "plan --targets 1000 --mules 4 --seed 7 --recharge --planner rw-tctp",
            0x6f43_6223_9deb_a765,
        ),
        (
            "plan --targets 200 --mules 4 --seed 3 --planner sweep",
            0x4d95_62f9_4dc6_57f4,
        ),
    ] {
        let out = run(cmdline);
        assert_eq!(
            fnv1a(out.text.as_bytes()),
            expected,
            "`patrolctl {cmdline}` drifted"
        );
    }
}

/// Sweep with more mules than angular groups leaves the extra mules a walk
/// of one waypoint, the sink: no leg to drive, so its length is the empty
/// sum and prints as `-0.0`.
#[test]
fn single_waypoint_walk_plan_response_is_byte_identical() {
    let cmdline = "plan --targets 5 --mules 8 --seed 3 --planner sweep";
    assert_eq!(
        fnv1a(run(cmdline).text.as_bytes()),
        0x8264_1292_6abd_e57f,
        "`patrolctl {cmdline}` drifted"
    );
}

/// Plan documents on the exact CHB path (insertion, 2-opt and Or-opt over
/// the full matrix) for every TCTP planner. 127 targets plus the sink are
/// 128 circuit points, the largest instance `SearchMode::Auto` keeps exact.
/// W-TCTP runs both break-edge policies, Balancing at two VIP loads.
#[test]
fn exact_path_plan_responses_are_byte_identical() {
    let mut drifted = Vec::new();
    for (cmdline, expected) in [
        ("plan --targets 100 --mules 4 --seed 7 --planner b-tctp", 0x7360_df5b_0a56_396b),
        (
            "plan --targets 100 --mules 4 --seed 7 --planner w-tctp-balancing --vips 5 --vip-weight 3",
            0x77dc_767a_89f7_6dad,
        ),
        (
            "plan --targets 100 --mules 4 --seed 7 --planner w-tctp-balancing --vips 8 --vip-weight 5",
            0xe4c8_8c81_5512_90af,
        ),
        (
            "plan --targets 100 --mules 4 --seed 7 --planner w-tctp-shortest --vips 5 --vip-weight 3",
            0x623d_d7fe_699a_6cb8,
        ),
        (
            "plan --targets 100 --mules 4 --seed 7 --planner rw-tctp --recharge",
            0x9a35_8362_53c1_1d31,
        ),
        ("plan --targets 127 --mules 4 --seed 7 --planner b-tctp", 0x240d_1a54_4daf_5cd2),
        (
            "plan --targets 127 --mules 4 --seed 7 --planner w-tctp-balancing --vips 5 --vip-weight 3",
            0x9230_6477_d0d3_e6cb,
        ),
        (
            "plan --targets 127 --mules 4 --seed 7 --planner w-tctp-balancing --vips 8 --vip-weight 5",
            0x7dee_c4a9_888f_5aaf,
        ),
        (
            "plan --targets 127 --mules 4 --seed 7 --planner w-tctp-shortest --vips 5 --vip-weight 3",
            0x53a6_76e6_de38_d6b7,
        ),
        (
            "plan --targets 127 --mules 4 --seed 7 --planner rw-tctp --recharge",
            0x9f79_6545_f360_6fa0,
        ),
    ] {
        let got = fnv1a(run(cmdline).text.as_bytes());
        if got != expected {
            drifted.push(format!("`patrolctl {cmdline}`: {got:#018x}"));
        }
    }
    assert!(drifted.is_empty(), "drifted:\n{}", drifted.join("\n"));
}
