//! The tracked memory-scale benchmark behind `patrolctl bench-scale`.
//!
//! Measures matrix-free candidate-pipeline circuit **construction**
//! ([`mule_graph::construct_circuit_with`], which never allocates `O(n²)`
//! state) at large instance sizes and records, next to wall-clock, the
//! memory figures the ROADMAP's million-target item is gated on:
//! allocation count and bytes, the live-bytes high-water mark, peak
//! process RSS, and bytes per target.
//!
//! Timing follows the `bench-tours` convention: minimum over disarmed,
//! untraced samples; the allocation figures come from one extra **armed**
//! run after the timed samples ([`crate::harness::measure_memory`]), so
//! instrumentation never pollutes the timed numbers.
//!
//! Determinism contract: `alloc_count` is a pure function of the seeded
//! workload; every bytes/peak/RSS figure is machine-dependent and never
//! pinned (`docs/DETERMINISM.md`, "Memory").

use crate::harness::{artefact_json, measure_memory, min_time_ms};
use mule_graph::{construct_circuit_with, ChbConfig, SearchMode};
use mule_metrics::TextTable;
use mule_obs::alloc::Measurement;
use mule_obs::json::JsonValue;
use mule_workload::layout::bench_layout;

/// Parameters of one `bench-scale` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchParams {
    /// Instance sizes (target counts) to bench.
    pub sizes: Vec<usize>,
    /// Seed of the deterministic topologies.
    pub seed: u64,
    /// Candidate-list width.
    pub k: usize,
    /// Timed repetitions per measurement (minimum reported).
    pub samples: usize,
}

impl Default for ScaleBenchParams {
    fn default() -> Self {
        ScaleBenchParams {
            sizes: vec![10_000, 100_000],
            seed: 42,
            k: mule_graph::chb::DEFAULT_CANDIDATES_K,
            samples: 3,
        }
    }
}

/// One benched instance size.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchRow {
    /// Number of targets.
    pub n: usize,
    /// Construction wall clock, milliseconds (min over samples, measured
    /// disarmed and untraced).
    pub construction_ms: f64,
    /// Tour length, metres (deterministic).
    pub tour_len: f64,
    /// Allocation figures of one armed construction run (`events` is a
    /// pure function of the seeded workload).
    pub alloc: Measurement,
    /// Process peak RSS (kB) right after the armed run; `None` where
    /// procfs is unavailable.
    pub peak_rss_kb: Option<u64>,
}

impl ScaleBenchRow {
    /// Peak live bytes per target — the scaling figure the regression
    /// gate (`--max-bytes-per-target`) pins.
    pub fn bytes_per_target(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.alloc.peak_live_bytes as f64 / self.n as f64
        }
    }
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleBenchReport {
    /// Parameters the report was generated with.
    pub params: ScaleBenchParams,
    /// One row per benched size, in input order.
    pub rows: Vec<ScaleBenchRow>,
}

impl ScaleBenchReport {
    /// Largest bytes-per-target figure across rows.
    pub fn max_bytes_per_target(&self) -> f64 {
        self.rows
            .iter()
            .map(ScaleBenchRow::bytes_per_target)
            .fold(0.0, f64::max)
    }

    /// Renders the human-readable summary table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "n",
            "construction (ms)",
            "allocs",
            "peak live (MB)",
            "bytes/target",
            "peak RSS (MB)",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.n.to_string(),
                format!("{:.2}", row.construction_ms),
                row.alloc.events.to_string(),
                format!(
                    "{:.1}",
                    row.alloc.peak_live_bytes as f64 / (1024.0 * 1024.0)
                ),
                format!("{:.0}", row.bytes_per_target()),
                row.peak_rss_kb.map_or_else(
                    || "-".to_string(),
                    |kb| format!("{:.1}", kb as f64 / 1024.0),
                ),
            ]);
        }
        table
    }

    /// Serialises the report as the tracked `BENCH_scale.json` document.
    /// Schema `v2` drops v1's matrix-backed columns and `len_ratio`; every
    /// other field is unchanged.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                JsonValue::object(vec![
                    ("n", row.n.into()),
                    ("construction_ms", row.construction_ms.into()),
                    ("peak_rss_kb", row.peak_rss_kb.into()),
                    ("alloc_count", row.alloc.events.into()),
                    ("alloc_bytes", row.alloc.allocated_bytes.into()),
                    ("peak_live_bytes", row.alloc.peak_live_bytes.into()),
                    ("bytes_per_target", row.bytes_per_target().into()),
                ])
            })
            .collect();
        let p = &self.params;
        artefact_json(
            "bench-scale/v2",
            vec![
                ("seed", p.seed.into()),
                ("k", p.k.into()),
                ("samples", p.samples.into()),
            ],
            rows,
        )
    }
}

/// Runs the scale benchmark over the configured sizes.
pub fn run_scale_bench(params: &ScaleBenchParams) -> ScaleBenchReport {
    let config = ChbConfig::default().with_search(SearchMode::Candidates(params.k.max(1)));
    let rows = params
        .sizes
        .iter()
        .map(|&n| {
            let points = bench_layout(params.seed, n);
            let build = || construct_circuit_with(&points, &config).length(&points);
            let (construction_ms, tour_len) = min_time_ms(params.samples, build);
            let (_, alloc, peak_rss_kb) = measure_memory(build);
            ScaleBenchRow {
                n,
                construction_ms,
                tour_len,
                alloc,
                peak_rss_kb,
            }
        })
        .collect();
    ScaleBenchReport {
        params: params.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> ScaleBenchParams {
        ScaleBenchParams {
            sizes: vec![300, 600],
            seed: 7,
            k: 8,
            samples: 1,
        }
    }

    #[test]
    fn report_has_one_row_per_size() {
        let report = run_scale_bench(&quick_params());
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.construction_ms >= 0.0);
            assert!(row.tour_len > 0.0);
        }
    }

    #[test]
    fn armed_run_attributes_allocations() {
        let report = run_scale_bench(&quick_params());
        for row in &report.rows {
            assert!(row.alloc.events > 0, "armed run saw allocations");
            assert!(row.alloc.allocated_bytes > 0);
            // At least the candidate lists (k·n indices) are live at the
            // peak.
            assert!(
                row.alloc.peak_live_bytes as usize >= 8 * row.n,
                "peak {} at n={}",
                row.alloc.peak_live_bytes,
                row.n
            );
        }
    }

    #[test]
    fn alloc_count_is_deterministic_run_to_run() {
        let params = ScaleBenchParams {
            sizes: vec![300],
            ..quick_params()
        };
        // Warm-up absorbs one-time lazy initialisation.
        run_scale_bench(&params);
        let a = run_scale_bench(&params);
        let b = run_scale_bench(&params);
        assert_eq!(a.rows[0].alloc.events, b.rows[0].alloc.events);
        assert_eq!(a.rows[0].tour_len, b.rows[0].tour_len);
    }

    #[test]
    fn json_is_flat_well_formed_and_null_aware() {
        let report = run_scale_bench(&quick_params());
        let doc = mule_obs::json::parse(&report.to_json()).expect("artefact parses");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("bench-scale/v2")
        );
        let rows = doc.get("sizes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        for key in [
            "construction_ms",
            "peak_rss_kb",
            "alloc_count",
            "alloc_bytes",
            "peak_live_bytes",
            "bytes_per_target",
        ] {
            assert!(rows[0].get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn gate_figures_are_populated() {
        let report = run_scale_bench(&quick_params());
        assert!(report.max_bytes_per_target() > 0.0);
        let rendered = report.to_table().render();
        assert!(rendered.contains("bytes/target"));
    }
}
