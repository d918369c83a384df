//! Pins the paper-figure outputs byte-for-byte.
//!
//! Each test runs one figure (or table) of the harness at its binary's
//! `--quick` parameters and hashes the CSV it prints. The existing unit
//! tests only check the qualitative shape of each figure; these hashes
//! catch any change to the numbers themselves. Refactors of the
//! replication path must leave them unchanged. An intentional output
//! change may re-pin them, with the diff in hand.

use mule_bench::ablations::{self, RechargeAblationParams, SpreadAblationParams};
use mule_bench::fig10;
use mule_bench::fig7::{self, Fig7Params};
use mule_bench::fig8::{self, Fig8Params};
use mule_bench::fig9::{self, VipSweepParams};
use mule_bench::pathlen::{self, PathLenParams};
use mule_metrics::TextTable;

/// FNV-1a 64-bit — the same stable hash the spec fingerprint uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn assert_pinned(name: &str, table: &TextTable, expected: u64) {
    let csv = table.to_csv();
    let actual = fnv1a(csv.as_bytes());
    assert_eq!(
        actual, expected,
        "{name} CSV drifted: got {actual:#018x}, pinned {expected:#018x}\n{csv}"
    );
}

fn vip_quick() -> VipSweepParams {
    VipSweepParams {
        vip_counts: vec![1, 4, 8],
        vip_weights: vec![2, 4],
        replicas: 5,
        horizon_s: 80_000.0,
        ..VipSweepParams::default()
    }
}

#[test]
fn fig7_csv_is_pinned() {
    let params = Fig7Params {
        replicas: 5,
        horizon_s: 60_000.0,
        ..Fig7Params::default()
    };
    assert_pinned(
        "fig7",
        &fig7::table(&fig7::run(&params)),
        0x711c_e6f7_0a17_3f0c,
    );
}

#[test]
fn fig8_csv_is_pinned() {
    let params = Fig8Params {
        target_counts: vec![10, 20],
        mule_counts: vec![2, 4, 8],
        replicas: 5,
        horizon_s: 60_000.0,
        ..Fig8Params::default()
    };
    assert_pinned(
        "fig8",
        &fig8::table(&fig8::run(&params)),
        0x2e63_006d_01f9_f020,
    );
}

#[test]
fn fig9_csv_is_pinned() {
    assert_pinned(
        "fig9",
        &fig9::table(&fig9::run(&vip_quick())),
        0xcb74_c510_141f_41f7,
    );
}

#[test]
fn fig10_csv_is_pinned() {
    assert_pinned(
        "fig10",
        &fig10::table(&fig10::run(&vip_quick())),
        0x374f_8697_d53e_00ae,
    );
}

#[test]
fn pathlen_tables_are_pinned() {
    let params = PathLenParams {
        target_counts: vec![10, 20, 30],
        replicas: 5,
        ..PathLenParams::default()
    };
    assert_pinned(
        "tour length",
        &pathlen::tour_length_table(&params),
        0x270f_e647_95e6_80ab,
    );
    assert_pinned(
        "WPP overhead",
        &pathlen::wpp_overhead_table(&params),
        0x2557_ad92_ab16_196f,
    );
    assert_pinned(
        "WRP overhead",
        &pathlen::wrp_overhead_table(&params),
        0xeff8_bcbd_4a4f_2041,
    );
}

#[test]
fn recharge_ablation_csv_is_pinned() {
    let params = RechargeAblationParams {
        battery_capacities_j: vec![40_000.0, 160_000.0],
        replicas: 4,
        horizon_s: 60_000.0,
        ..RechargeAblationParams::default()
    };
    assert_pinned(
        "recharge ablation",
        &ablations::recharge_ablation(&params),
        0x8f62_a950_09a7_1db6,
    );
}

#[test]
fn spread_ablation_csv_is_pinned() {
    let params = SpreadAblationParams {
        mule_counts: vec![2, 6],
        replicas: 4,
        horizon_s: 50_000.0,
        ..SpreadAblationParams::default()
    };
    assert_pinned(
        "spread ablation",
        &ablations::spread_ablation(&params),
        0x2756_c93b_76ba_6260,
    );
}
