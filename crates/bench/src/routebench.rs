//! The tracked road-routing benchmark behind `patrolctl bench-routes`.
//!
//! Measures point-to-point query throughput of the three routing flavours
//! — plain Dijkstra, A* with the Euclidean heuristic, and ALT (landmark)
//! A* — on seeded grid road networks, and serialises the result as the
//! tracked `BENCH_routes.json` artefact through the shared
//! [`crate::harness`] writer. Alongside wall time the report keeps the
//! mean settled-node count per query, which is machine-independent and
//! explains *why* the speedups happen.
//!
//! The tracked claim (gated in CI via `--min-speedup`): at 10 000 nodes,
//! ALT answers point-to-point queries at least 3× faster than plain
//! Dijkstra. During every timed run the three flavours' costs are
//! cross-checked — a benchmark that silently computed different answers
//! would be worthless.

use crate::harness::{artefact_json, min_time_ms};
use mule_geom::BoundingBox;
use mule_metrics::TextTable;
use mule_obs::json::JsonValue;
use mule_road::{astar, astar_alt, dijkstra_to, grid_with_deletions, Landmarks, RoadGraph};

/// Parameters of one `bench-routes` run.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteBenchParams {
    /// Approximate node counts of the benched networks (the grid uses
    /// `⌈√n⌉ × ⌈√n⌉` intersections before deletions).
    pub sizes: Vec<usize>,
    /// Seed of the deterministic networks and query pairs.
    pub seed: u64,
    /// Point-to-point queries timed per flavour.
    pub queries: usize,
    /// ALT landmarks.
    pub landmarks: usize,
}

impl Default for RouteBenchParams {
    fn default() -> Self {
        RouteBenchParams {
            sizes: vec![1_000, 10_000],
            seed: 42,
            queries: 200,
            landmarks: 8,
        }
    }
}

/// One benched network size.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteBenchRow {
    /// Actual node count after deletions and component restriction.
    pub nodes: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// ALT preprocessing wall clock (landmark selection), milliseconds.
    pub preprocess_ms: f64,
    /// Mean Dijkstra query time, microseconds.
    pub dijkstra_us: f64,
    /// Mean A* query time, microseconds.
    pub astar_us: f64,
    /// Mean ALT query time, microseconds.
    pub alt_us: f64,
    /// Mean settled nodes per Dijkstra query.
    pub dijkstra_settled: f64,
    /// Mean settled nodes per A* query.
    pub astar_settled: f64,
    /// Mean settled nodes per ALT query.
    pub alt_settled: f64,
}

impl RouteBenchRow {
    /// Dijkstra time over A* time.
    pub fn astar_speedup(&self) -> f64 {
        safe_ratio(self.dijkstra_us, self.astar_us)
    }

    /// Dijkstra time over ALT time — the tracked headline number.
    pub fn alt_speedup(&self) -> f64 {
        safe_ratio(self.dijkstra_us, self.alt_us)
    }
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::INFINITY
    }
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteBenchReport {
    /// Parameters the report was generated with.
    pub params: RouteBenchParams,
    /// One row per benched size, in input order.
    pub rows: Vec<RouteBenchRow>,
}

impl RouteBenchReport {
    /// The ALT speedup of the largest benched network — the value the
    /// `--min-speedup` regression gate inspects.
    pub fn largest_alt_speedup(&self) -> Option<f64> {
        self.rows
            .iter()
            .max_by_key(|r| r.nodes)
            .map(RouteBenchRow::alt_speedup)
    }

    /// Renders the human-readable summary table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "nodes",
            "edges",
            "dijkstra (µs)",
            "A* (µs)",
            "ALT (µs)",
            "A* speedup",
            "ALT speedup",
            "settled D/A*/ALT",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.nodes.to_string(),
                row.edges.to_string(),
                format!("{:.1}", row.dijkstra_us),
                format!("{:.1}", row.astar_us),
                format!("{:.1}", row.alt_us),
                format!("{:.1}×", row.astar_speedup()),
                format!("{:.1}×", row.alt_speedup()),
                format!(
                    "{:.0}/{:.0}/{:.0}",
                    row.dijkstra_settled, row.astar_settled, row.alt_settled
                ),
            ]);
        }
        table
    }

    /// Serialises the report as the tracked `BENCH_routes.json` document.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                JsonValue::object(vec![
                    ("nodes", row.nodes.into()),
                    ("edges", row.edges.into()),
                    ("preprocess_ms", row.preprocess_ms.into()),
                    ("dijkstra_us", row.dijkstra_us.into()),
                    ("astar_us", row.astar_us.into()),
                    ("alt_us", row.alt_us.into()),
                    ("astar_speedup", row.astar_speedup().into()),
                    ("alt_speedup", row.alt_speedup().into()),
                    (
                        "settled",
                        JsonValue::object(vec![
                            ("dijkstra", row.dijkstra_settled.into()),
                            ("astar", row.astar_settled.into()),
                            ("alt", row.alt_settled.into()),
                        ]),
                    ),
                ])
            })
            .collect();
        let p = &self.params;
        artefact_json(
            "bench-routes/v1",
            vec![
                ("seed", p.seed.into()),
                ("queries", p.queries.into()),
                ("landmarks", p.landmarks.into()),
            ],
            rows,
        )
    }
}

/// Deterministic query endpoints spread over the node range (no RNG state
/// shared with the generators, so adding queries never changes networks).
fn query_pairs(node_count: usize, queries: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed | 1;
    let mut next = move || {
        // SplitMix64 step, local to the query stream.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..queries)
        .map(|_| {
            (
                (next() % node_count as u64) as u32,
                (next() % node_count as u64) as u32,
            )
        })
        .collect()
}

/// Times one flavour over all query pairs; returns (mean µs, mean settled)
/// and cross-checks each cost against `expected` (from Dijkstra).
fn time_flavour<F: Fn(u32, u32) -> Option<mule_road::Route>>(
    pairs: &[(u32, u32)],
    expected: Option<&[f64]>,
    run: F,
) -> (f64, f64, Vec<f64>) {
    let (elapsed_ms, (costs, settled_total)) = min_time_ms(1, || {
        let mut costs = Vec::with_capacity(pairs.len());
        let mut settled_total = 0usize;
        for &(s, t) in pairs {
            let route = run(s, t).expect("benchmark networks are connected");
            settled_total += route.settled;
            costs.push(route.cost);
        }
        (costs, settled_total)
    });
    if let Some(expected) = expected {
        for (got, want) in costs.iter().zip(expected) {
            assert!(
                (got - want).abs() < 1e-6,
                "flavours disagree on a query cost: {got} vs {want}"
            );
        }
    }
    let n = pairs.len().max(1) as f64;
    (elapsed_ms * 1000.0 / n, settled_total as f64 / n, costs)
}

/// Builds the benchmark network for a requested size: a square grid with
/// 15% deleted edges over a field scaled to keep ~70 m blocks.
pub fn bench_network(size: usize, seed: u64) -> RoadGraph {
    let side = (size.max(4) as f64).sqrt().ceil() as usize;
    let bounds = BoundingBox::square(side as f64 * 70.0);
    grid_with_deletions(&bounds, side, side, 0.15, seed).graph
}

/// Runs the routing benchmark over the configured sizes.
pub fn run_route_bench(params: &RouteBenchParams) -> RouteBenchReport {
    let rows = params
        .sizes
        .iter()
        .map(|&size| {
            let graph = bench_network(size, params.seed);
            let pairs = query_pairs(graph.len(), params.queries.max(1), params.seed);

            let (preprocess_ms, landmarks) =
                min_time_ms(1, || Landmarks::select(&graph, params.landmarks.max(1)));

            let (dijkstra_us, dijkstra_settled, costs) =
                time_flavour(&pairs, None, |s, t| dijkstra_to(&graph, s, t));
            let (astar_us, astar_settled, _) =
                time_flavour(&pairs, Some(&costs), |s, t| astar(&graph, s, t));
            let (alt_us, alt_settled, _) = time_flavour(&pairs, Some(&costs), |s, t| {
                astar_alt(&graph, &landmarks, s, t)
            });

            RouteBenchRow {
                nodes: graph.len(),
                edges: graph.edge_count(),
                preprocess_ms,
                dijkstra_us,
                astar_us,
                alt_us,
                dijkstra_settled,
                astar_settled,
                alt_settled,
            }
        })
        .collect();

    RouteBenchReport {
        params: params.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> RouteBenchParams {
        RouteBenchParams {
            sizes: vec![100, 400],
            seed: 7,
            queries: 40,
            landmarks: 4,
        }
    }

    #[test]
    fn report_has_one_row_per_size_with_positive_measurements() {
        let report = run_route_bench(&quick_params());
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.nodes > 50);
            assert!(row.edges > row.nodes / 2);
            assert!(row.dijkstra_us > 0.0);
            assert!(row.astar_us > 0.0);
            assert!(row.alt_us > 0.0);
            assert!(row.dijkstra_settled >= row.astar_settled);
            assert!(row.astar_settled >= 1.0);
        }
        assert!(report.largest_alt_speedup().is_some());
    }

    #[test]
    fn alt_settles_fewer_nodes_than_astar_and_dijkstra() {
        // Wall-clock is machine noise at test sizes; the settled-node
        // counts are deterministic and must already show the ordering the
        // tracked artefact claims.
        let report = run_route_bench(&quick_params());
        let big = report.rows.iter().max_by_key(|r| r.nodes).unwrap();
        assert!(
            big.alt_settled < big.astar_settled,
            "ALT ({}) must search less than A* ({})",
            big.alt_settled,
            big.astar_settled
        );
        assert!(
            big.alt_settled * 2.0 < big.dijkstra_settled,
            "ALT ({}) must search far less than Dijkstra ({})",
            big.alt_settled,
            big.dijkstra_settled
        );
    }

    #[test]
    fn benchmark_is_deterministic_modulo_timing() {
        let a = run_route_bench(&quick_params());
        let b = run_route_bench(&quick_params());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.edges, y.edges);
            assert_eq!(x.dijkstra_settled, y.dijkstra_settled);
            assert_eq!(x.astar_settled, y.astar_settled);
            assert_eq!(x.alt_settled, y.alt_settled);
        }
    }

    #[test]
    fn json_is_flat_and_well_formed() {
        let report = run_route_bench(&quick_params());
        let doc = mule_obs::json::parse(&report.to_json()).expect("artefact parses");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("bench-routes/v1")
        );
        let row = &doc.get("sizes").and_then(JsonValue::as_array).unwrap()[0];
        assert!(row.get("alt_speedup").and_then(JsonValue::as_f64).is_some());
        assert!(row
            .get("settled")
            .and_then(|s| s.get("alt"))
            .and_then(JsonValue::as_f64)
            .is_some());
    }

    #[test]
    fn table_renders_all_columns() {
        let report = run_route_bench(&quick_params());
        let rendered = report.to_table().render();
        assert!(rendered.contains("ALT speedup"));
        assert!(rendered.contains("settled D/A*/ALT"));
    }
}
