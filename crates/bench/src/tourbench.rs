//! The tracked tour-engine benchmark behind `patrolctl bench-tours`.
//!
//! Measures `construct_circuit` wall-clock and tour quality across instance
//! sizes, exact pipeline vs. candidate-list pipeline, and serialises the
//! result as the `BENCH_tours.json` artefact through the shared
//! [`crate::harness`] writer.
//!
//! The exact pipeline is `O(n³)` in construction, so it is only timed up to
//! [`TourBenchParams::exact_cap`] points; above the cap the speedup and
//! length-ratio columns are `null` in the JSON (explicitly, not silently
//! dropped).

use crate::harness::{artefact_json, measure_memory, min_time_ms};
use mule_graph::{construct_circuit_with, ChbConfig, SearchMode};
use mule_metrics::TextTable;
use mule_obs::json::JsonValue;
use mule_workload::layout::bench_layout;

/// Parameters of one `bench-tours` run.
#[derive(Debug, Clone, PartialEq)]
pub struct TourBenchParams {
    /// Instance sizes (target counts) to bench.
    pub sizes: Vec<usize>,
    /// Seed of the deterministic topologies.
    pub seed: u64,
    /// Candidate-list width for the candidates pipeline.
    pub k: usize,
    /// Largest size at which the exact pipeline is still timed; above it
    /// only the candidate pipeline runs (`O(n³)` exact construction is
    /// minutes-to-hours at 5000 points).
    pub exact_cap: usize,
    /// Timed repetitions per measurement; the minimum is reported, which
    /// is the stablest wall-clock statistic on a noisy machine.
    pub samples: usize,
}

impl Default for TourBenchParams {
    fn default() -> Self {
        TourBenchParams {
            sizes: vec![50, 200, 1000, 5000],
            seed: 42,
            k: mule_graph::chb::DEFAULT_CANDIDATES_K,
            exact_cap: 1000,
            samples: 3,
        }
    }
}

/// One benched instance size.
#[derive(Debug, Clone, PartialEq)]
pub struct TourBenchRow {
    /// Number of targets.
    pub n: usize,
    /// Exact-pipeline wall clock, milliseconds (`None` above `exact_cap`).
    pub exact_ms: Option<f64>,
    /// Candidate-pipeline wall clock, milliseconds.
    pub candidates_ms: f64,
    /// Exact tour length, metres (`None` above `exact_cap`).
    pub exact_len: Option<f64>,
    /// Candidate tour length, metres.
    pub candidates_len: f64,
    /// Construction-phase time (seed tour + candidate lists) of one traced
    /// candidates run, milliseconds. Measured separately from the timed
    /// samples, so span collection never pollutes `candidates_ms`.
    pub phase_construction_ms: f64,
    /// Local-search time (2-opt + Or-opt passes) of the same traced run,
    /// milliseconds.
    pub phase_local_search_ms: f64,
    /// Peak resident set size after the traced candidates run, kB
    /// (`None` off-Linux). Never pinned by a gate: RSS depends on the
    /// allocator and the platform.
    pub peak_rss_kb: Option<u64>,
    /// Bytes allocated by one candidates construction, measured with the
    /// counting allocator armed around the traced run.
    pub alloc_bytes: u64,
}

impl TourBenchRow {
    /// Exact time over candidate time (`None` when exact was not run).
    pub fn speedup(&self) -> Option<f64> {
        self.exact_ms.map(|e| {
            if self.candidates_ms > 0.0 {
                e / self.candidates_ms
            } else {
                f64::INFINITY
            }
        })
    }

    /// Candidate tour length over exact tour length (`None` when exact was
    /// not run). 1.0 means identical quality; the tracked bound is 1.02.
    pub fn len_ratio(&self) -> Option<f64> {
        self.exact_len.map(|e| {
            if e > 0.0 {
                self.candidates_len / e
            } else {
                1.0
            }
        })
    }
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct TourBenchReport {
    /// Parameters the report was generated with.
    pub params: TourBenchParams,
    /// One row per benched size, in input order.
    pub rows: Vec<TourBenchRow>,
}

impl TourBenchReport {
    /// Largest tour-length ratio across rows where exact ran, if any.
    pub fn max_len_ratio(&self) -> Option<f64> {
        self.rows
            .iter()
            .filter_map(TourBenchRow::len_ratio)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Renders the human-readable summary table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "n",
            "exact (ms)",
            "candidates (ms)",
            "speedup",
            "length ratio",
            "constr (ms)",
            "search (ms)",
            "alloc (MB)",
            "peak RSS (MB)",
        ]);
        let na = "-".to_string();
        for row in &self.rows {
            table.add_row(vec![
                row.n.to_string(),
                row.exact_ms
                    .map(|m| format!("{m:.2}"))
                    .unwrap_or_else(|| na.clone()),
                format!("{:.2}", row.candidates_ms),
                row.speedup()
                    .map(|s| format!("{s:.1}×"))
                    .unwrap_or_else(|| na.clone()),
                row.len_ratio()
                    .map(|r| format!("{r:.4}"))
                    .unwrap_or_else(|| na.clone()),
                format!("{:.2}", row.phase_construction_ms),
                format!("{:.2}", row.phase_local_search_ms),
                format!("{:.1}", row.alloc_bytes as f64 / (1024.0 * 1024.0)),
                row.peak_rss_kb
                    .map(|kb| format!("{:.1}", kb as f64 / 1024.0))
                    .unwrap_or_else(|| na.clone()),
            ]);
        }
        table
    }

    /// Serialises the report as the tracked `BENCH_tours.json` document.
    /// Schema `v2` appends `alloc_bytes` and `peak_rss_kb` per row; every
    /// `v1` field is unchanged.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                JsonValue::object(vec![
                    ("n", row.n.into()),
                    ("exact_ms", row.exact_ms.into()),
                    ("candidates_ms", row.candidates_ms.into()),
                    ("speedup", row.speedup().into()),
                    ("exact_len", row.exact_len.into()),
                    ("candidates_len", row.candidates_len.into()),
                    ("len_ratio", row.len_ratio().into()),
                    ("phase_construction_ms", row.phase_construction_ms.into()),
                    ("phase_local_search_ms", row.phase_local_search_ms.into()),
                    ("alloc_bytes", row.alloc_bytes.into()),
                    ("peak_rss_kb", row.peak_rss_kb.into()),
                ])
            })
            .collect();
        let p = &self.params;
        artefact_json(
            "bench-tours/v2",
            vec![
                ("seed", p.seed.into()),
                ("k", p.k.into()),
                ("exact_cap", p.exact_cap.into()),
                ("samples", p.samples.into()),
            ],
            rows,
        )
    }
}

/// Runs the tour benchmark over the configured sizes.
pub fn run_tour_bench(params: &TourBenchParams) -> TourBenchReport {
    let exact_config = ChbConfig::default().with_search(SearchMode::Exact);
    let fast_config = ChbConfig::default().with_search(SearchMode::Candidates(params.k.max(1)));

    let rows = params
        .sizes
        .iter()
        .map(|&n| {
            let points = bench_layout(params.seed, n);
            let (candidates_ms, candidates_len) = min_time_ms(params.samples, || {
                construct_circuit_with(&points, &fast_config).length(&points)
            });
            let (exact_ms, exact_len) = if n <= params.exact_cap {
                let (ms, len) = min_time_ms(params.samples, || {
                    construct_circuit_with(&points, &exact_config).length(&points)
                });
                (Some(ms), Some(len))
            } else {
                (None, None)
            };
            // One extra traced and armed run — after the timed samples —
            // yields the per-phase breakdown and the memory columns
            // without touching the timed numbers.
            let ((_, trace), alloc, peak_rss_kb) = measure_memory(|| {
                mule_obs::capture(|| {
                    construct_circuit_with(&points, &fast_config);
                })
            });
            let profile = mule_obs::FlatProfile::of(&trace);
            let phase_construction_ms = profile.total_ms_where(|name| {
                matches!(
                    name,
                    "chb.nn_seed"
                        | "chb.hull_insertion"
                        | "chb.candidate_lists"
                        | "graph.distance_matrix"
                )
            });
            let phase_local_search_ms =
                profile.total_ms_where(|name| matches!(name, "chb.two_opt" | "chb.or_opt"));
            TourBenchRow {
                n,
                exact_ms,
                candidates_ms,
                exact_len,
                candidates_len,
                phase_construction_ms,
                phase_local_search_ms,
                peak_rss_kb,
                alloc_bytes: alloc.allocated_bytes,
            }
        })
        .collect();

    TourBenchReport {
        params: params.clone(),
        rows,
    }
}

/// Measures the wall-clock overhead of span collection *plus the armed
/// counting allocator* on the candidates pipeline at the largest
/// configured size: `min(traced+armed) / min(plain)`. The CI gate
/// (`bench-tours --overhead-gate 1.05`) pins this ratio — both tracing
/// and allocation accounting must stay cheap enough to leave on in
/// production paths.
pub fn tracing_overhead_ratio(params: &TourBenchParams) -> f64 {
    let n = params.sizes.iter().copied().max().unwrap_or(200);
    let points = bench_layout(params.seed, n);
    let config = ChbConfig::default().with_search(SearchMode::Candidates(params.k.max(1)));
    // Minimum-of-samples on both sides; a floor of 5 samples keeps the
    // ratio stable on noisy machines even when `--samples` is lower.
    let samples = params.samples.max(5);
    let build = || construct_circuit_with(&points, &config).length(&points);
    let (plain_ms, _) = min_time_ms(samples, build);
    mule_obs::alloc::arm();
    let (traced_ms, _) = min_time_ms(samples, || mule_obs::capture(build));
    mule_obs::alloc::disarm();
    if plain_ms > 0.0 {
        traced_ms / plain_ms
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> TourBenchParams {
        TourBenchParams {
            sizes: vec![30, 60],
            seed: 7,
            k: 8,
            exact_cap: 50,
            samples: 1,
        }
    }

    #[test]
    fn report_has_one_row_per_size_and_respects_the_exact_cap() {
        let report = run_tour_bench(&quick_params());
        assert_eq!(report.rows.len(), 2);
        let small = &report.rows[0];
        assert_eq!(small.n, 30);
        assert!(small.exact_ms.is_some());
        assert!(small.speedup().is_some());
        assert!(small.len_ratio().is_some());
        let large = &report.rows[1];
        assert_eq!(large.n, 60);
        assert!(large.exact_ms.is_none(), "above the cap exact is skipped");
        assert!(large.speedup().is_none());
        assert!(large.candidates_ms >= 0.0);
        assert!(large.candidates_len > 0.0);
    }

    #[test]
    fn quality_stays_within_the_tracked_bound_on_small_instances() {
        let report = run_tour_bench(&quick_params());
        let ratio = report.max_len_ratio().unwrap();
        assert!(ratio <= 1.02, "length ratio {ratio}");
    }

    #[test]
    fn json_is_flat_well_formed_and_null_aware() {
        let report = run_tour_bench(&quick_params());
        let doc = mule_obs::json::parse(&report.to_json()).expect("artefact parses");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("bench-tours/v2")
        );
        let rows = doc.get("sizes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows[0].get("n").and_then(JsonValue::as_u64), Some(30));
        assert_eq!(
            rows[1].get("exact_ms"),
            Some(&JsonValue::Null),
            "cap row is explicit"
        );
    }

    #[test]
    fn phase_breakdown_is_populated_and_serialised() {
        let report = run_tour_bench(&quick_params());
        for row in &report.rows {
            assert!(row.phase_construction_ms >= 0.0);
            assert!(
                row.phase_local_search_ms > 0.0,
                "local search always runs at n={}",
                row.n
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"phase_construction_ms\""));
        assert!(json.contains("\"phase_local_search_ms\""));
    }

    #[test]
    fn memory_columns_are_measured_and_serialised() {
        let report = run_tour_bench(&quick_params());
        for row in &report.rows {
            assert!(
                row.alloc_bytes > 0,
                "armed traced run allocates at n={}",
                row.n
            );
            if cfg!(target_os = "linux") {
                assert!(row.peak_rss_kb.is_some(), "procfs RSS available on Linux");
            }
        }
        let json = report.to_json();
        assert!(json.contains("\"alloc_bytes\""));
        assert!(json.contains("\"peak_rss_kb\""));
    }

    #[test]
    fn tracing_overhead_is_modest() {
        let params = TourBenchParams {
            sizes: vec![200],
            samples: 3,
            ..quick_params()
        };
        let ratio = tracing_overhead_ratio(&params);
        // Generous bound for a shared test machine; the tracked CI gate
        // pins 1.05 on the dedicated bench-smoke job.
        assert!(ratio < 1.5, "tracing overhead ratio {ratio}");
    }

    #[test]
    fn table_renders_all_columns() {
        let report = run_tour_bench(&quick_params());
        let rendered = report.to_table().render();
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("length ratio"));
        assert!(rendered.contains(" - "), "capped cells show a dash");
    }
}
