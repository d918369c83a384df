//! Pins the candidate tour engine byte-for-byte.
//!
//! Every data mule must compute the same CHB circuit from the same target
//! list, so speed work on the engine may never change a tour. These
//! FNV-1a-64 hashes were captured from the engine *before* its
//! sub-quadratic rewrite (all-points hull-insertion offers, one filtered
//! kd-tree search per neighbour, splice-rebuilt Or-opt moves) and cover
//! every stage the rewrite touched:
//!
//! * the raw `convex_hull_insertion_incremental` order,
//! * the full `construct_circuit_with(·, default)` circuit,
//! * the `CandidateLists::build(·, 10)` neighbour lists, and
//! * the road generator's edge list (`KdTree::k_nearest` feeds the planar
//!   network's candidate edges).
//!
//! Instances are uniform float points and integer-grid points with many
//! duplicates — the case where exact distance ties decide the order.

use mule_geom::{BoundingBox, Point};
use mule_graph::{
    construct_circuit_with, convex_hull_insertion_incremental, CandidateLists, ChbConfig,
};
use mule_road::{RoadIndex, RoadNetKind};

/// FNV-1a 64-bit over the little-endian bytes of each value.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// SplitMix64 stream, so the fixtures do not depend on any RNG crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` uniform points on a 2 km square.
fn uniform(n: usize, seed: u64) -> Vec<Point> {
    let mut s = seed;
    let mut coord = || (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64 * 2000.0;
    (0..n).map(|_| Point::new(coord(), coord())).collect()
}

/// `n` points on an integer lattice of 20 m spacing with about
/// `sites_per_point` lattice sites per point, so points coincide and
/// distances tie exactly.
fn lattice(n: usize, sites_per_point: f64, seed: u64) -> Vec<Point> {
    let side = ((n as f64 * sites_per_point).sqrt().ceil() as u64).max(2);
    let mut s = seed;
    (0..n)
        .map(|_| {
            let x = splitmix(&mut s) % side;
            let y = splitmix(&mut s) % side;
            Point::new(20.0 * x as f64, 20.0 * y as f64)
        })
        .collect()
}

fn instances() -> Vec<(&'static str, Vec<Point>)> {
    vec![
        ("uniform-200", uniform(200, 11)),
        ("uniform-3000", uniform(3000, 12)),
        ("grid-200", lattice(200, 0.7, 13)),
        ("grid-3000", lattice(3000, 0.7, 14)),
    ]
}

fn order_hash(order: &[usize]) -> u64 {
    fnv1a(order.iter().map(|&i| i as u64))
}

/// Asserts every `(label, hash)` at once, so a drift report shows all
/// stages that moved, not just the first.
fn assert_hashes(got: Vec<(String, u64)>, want: &[(&str, u64)]) {
    let fmt = |rows: &mut dyn Iterator<Item = (&str, u64)>| {
        rows.map(|(label, h)| format!("{label}: {h:#018x}"))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        fmt(&mut got.iter().map(|(l, h)| (l.as_str(), *h))),
        fmt(&mut want.iter().copied()),
        "candidate engine output drifted from the pinned hashes"
    );
}

#[test]
fn incremental_insertion_orders_are_pinned() {
    let got = instances()
        .into_iter()
        .map(|(name, points)| {
            let tour = convex_hull_insertion_incremental(&points);
            (name.to_string(), order_hash(tour.order()))
        })
        .collect();
    assert_hashes(
        got,
        &[
            ("uniform-200", 0x7125_7d80_1186_f985),
            ("uniform-3000", 0xc35b_ae0a_0ceb_4665),
            ("grid-200", 0xeab0_3436_c290_86e5),
            ("grid-3000", 0x62a5_e17a_2740_b865),
        ],
    );
}

/// The lazy heap keeps superseded entries of points still waiting for
/// insertion, and this instance shows why. When a rescore ties two edges
/// exactly, an older entry for the other edge can become valid again and
/// win on the `(from, to)` tie-break. Compacting the heap down to the
/// entries whose cost matches each point's current best drops that entry
/// and changes this tour.
#[test]
fn superseded_heap_entries_decide_exact_ties() {
    let points = lattice(2000, 2.0, 4);
    let tour = convex_hull_insertion_incremental(&points);
    assert_hashes(
        vec![("lattice-2000".to_string(), order_hash(tour.order()))],
        &[("lattice-2000", 0xc67b_687f_8078_66bd)],
    );
}

#[test]
fn default_circuits_are_pinned() {
    let got = instances()
        .into_iter()
        .map(|(name, points)| {
            let tour = construct_circuit_with(&points, &ChbConfig::default());
            (name.to_string(), order_hash(tour.order()))
        })
        .collect();
    assert_hashes(
        got,
        &[
            ("uniform-200", 0x3707_6dea_9a4f_14a5),
            ("uniform-3000", 0x3bce_06ea_edfe_3a4d),
            ("grid-200", 0x1fed_9a46_4a33_7dc5),
            ("grid-3000", 0xc974_4171_b70e_5691),
        ],
    );
}

#[test]
fn candidate_lists_are_pinned() {
    let got = instances()
        .into_iter()
        .map(|(name, points)| {
            let lists = CandidateLists::build(&points, 10);
            let flat = (0..points.len()).flat_map(|i| lists.neighbors(i).iter().copied());
            (
                name.to_string(),
                fnv1a(flat.map(u64::from).collect::<Vec<_>>()),
            )
        })
        .collect();
    assert_hashes(
        got,
        &[
            ("uniform-200", 0xcb7b_eab2_2401_5e42),
            ("uniform-3000", 0xb672_f7a6_b9ab_4234),
            ("grid-200", 0xd6a5_c054_1a63_564b),
            ("grid-3000", 0x20f0_282f_3b2a_05cd),
        ],
    );
}

#[test]
fn road_edge_lists_are_pinned() {
    let fields = [
        (RoadNetKind::Planar, 1500.0),
        (RoadNetKind::Planar, 5000.0),
        (RoadNetKind::Grid, 1500.0),
    ];
    let got = fields
        .iter()
        .map(|&(kind, side)| {
            let index = RoadIndex::for_field(kind, &BoundingBox::square(side), 21);
            let edges = index
                .graph()
                .edges()
                .map(|(u, v, class)| (u64::from(u) << 32 | u64::from(v)) ^ (class as u64) << 62);
            (format!("{kind:?}-{side}"), fnv1a(edges.collect::<Vec<_>>()))
        })
        .collect();
    assert_hashes(
        got,
        &[
            ("Planar-1500", 0xfa2c_7742_bbcc_f15f),
            ("Planar-5000", 0x4fb6_da65_8aa6_df66),
            ("Grid-1500", 0xda68_91c9_7a21_0518),
        ],
    );
}
