//! Pins the paper-figure outputs byte-for-byte.
//!
//! Each test runs one figure (or table) through the runner behind the
//! `figures` binary, at its `--quick` size, and hashes the CSV it prints:
//! what `figures <name> --quick --csv` writes to stdout. The existing unit
//! tests only check the qualitative shape of each figure; these hashes
//! catch any change to the numbers themselves. Refactors of the
//! replication path must leave them unchanged. An intentional output
//! change may re-pin them, with the diff in hand.

use mule_bench::figures::{find, Run};
use std::io;

/// FNV-1a 64-bit — the same stable hash the spec fingerprint uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What `figures <name> --quick --csv` prints on stdout.
fn quick_csv(name: &str) -> String {
    let figure = find(name).expect("a figure name");
    let mut out = Vec::new();
    figure(&mut Run {
        quick: true,
        csv: true,
        out: &mut out,
        log: &mut io::sink(),
    })
    .expect("in-memory output");
    String::from_utf8(out).expect("UTF-8 CSV")
}

fn assert_pinned(name: &str, csv: &str, expected: u64) {
    let actual = fnv1a(csv.as_bytes());
    assert_eq!(
        actual, expected,
        "{name} CSV drifted: got {actual:#018x}, pinned {expected:#018x}\n{csv}"
    );
}

#[test]
fn fig7_csv_is_pinned() {
    assert_pinned("fig7", &quick_csv("fig7"), 0x711c_e6f7_0a17_3f0c);
}

#[test]
fn fig8_csv_is_pinned() {
    assert_pinned("fig8", &quick_csv("fig8"), 0x2e63_006d_01f9_f020);
}

#[test]
fn fig9_csv_is_pinned() {
    assert_pinned("fig9", &quick_csv("fig9"), 0xcb74_c510_141f_41f7);
}

#[test]
fn fig10_csv_is_pinned() {
    assert_pinned("fig10", &quick_csv("fig10"), 0x374f_8697_d53e_00ae);
}

#[test]
fn pathlen_tables_are_pinned() {
    // Three tables, each followed by a blank line.
    let csv = quick_csv("table_pathlen");
    let tables: Vec<&str> = csv
        .split_inclusive("\n\n")
        .map(|t| &t[..t.len() - 1])
        .collect();
    let [tour, wpp, wrp] = tables[..] else {
        panic!("expected three tables:\n{csv}");
    };
    assert_pinned("tour length", tour, 0x270f_e647_95e6_80ab);
    assert_pinned("WPP overhead", wpp, 0x2557_ad92_ab16_196f);
    assert_pinned("WRP overhead", wrp, 0xeff8_bcbd_4a4f_2041);
}

#[test]
fn recharge_ablation_csv_is_pinned() {
    let csv = quick_csv("ablation_recharge");
    assert_pinned("recharge ablation", &csv, 0x8f62_a950_09a7_1db6);
}

#[test]
fn spread_ablation_csv_is_pinned() {
    let csv = quick_csv("ablation_spread");
    assert_pinned("spread ablation", &csv, 0x2756_c93b_76ba_6260);
}
