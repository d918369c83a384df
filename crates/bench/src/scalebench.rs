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
//! run after the timed samples ([`crate::harness::measure_memory`]), and
//! the per-stage times (the [`STAGES`] spans) from one more **captured**
//! run, so instrumentation never pollutes the timed or the memory numbers.
//! Every time is also reported as a log-log scaling exponent against the
//! previous size — the figure complexity claims are checked with.
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
            sizes: vec![10_000, 30_000, 100_000],
            seed: 42,
            k: mule_graph::chb::DEFAULT_CANDIDATES_K,
            samples: 3,
        }
    }
}

/// The CHB pipeline spans whose times each row records, in pipeline
/// order (`chb.two_opt` sums both 2-opt passes).
pub const STAGES: [&str; 4] = [
    "chb.hull_insertion",
    "chb.candidate_lists",
    "chb.two_opt",
    "chb.or_opt",
];

/// The log-log scaling exponent `ln(t₂/t₁) / ln(n₂/n₁)` between two
/// `(n, ms)` measurements; `None` when either time is not positive or the
/// sizes do not grow.
pub fn scaling_exponent((n1, t1): (usize, f64), (n2, t2): (usize, f64)) -> Option<f64> {
    (n2 > n1 && t1 > 0.0 && t2 > 0.0).then(|| (t2 / t1).ln() / (n2 as f64 / n1 as f64).ln())
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
    /// Total milliseconds of each [`STAGES`] span in one extra captured
    /// run.
    pub stage_ms: [f64; STAGES.len()],
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

    /// Scaling exponent of each row's time (picked by `time`) against the
    /// previous row's; `None` for the first row.
    fn exponents(&self, time: impl Fn(&ScaleBenchRow) -> f64) -> Vec<Option<f64>> {
        let mut prev: Option<(usize, f64)> = None;
        self.rows
            .iter()
            .map(|row| {
                let cur = (row.n, time(row));
                prev.replace(cur).and_then(|p| scaling_exponent(p, cur))
            })
            .collect()
    }

    /// Renders the per-stage times with their scaling exponents against
    /// the previous size (`-` for the first size).
    pub fn to_stage_table(&self) -> TextTable {
        let mut header = vec!["n".to_string()];
        for stage in STAGES {
            header.push(format!("{stage} (ms)"));
            header.push("exp".to_string());
        }
        let mut table = TextTable::new(header);
        let exponents: Vec<Vec<Option<f64>>> = (0..STAGES.len())
            .map(|s| self.exponents(|row| row.stage_ms[s]))
            .collect();
        for (r, row) in self.rows.iter().enumerate() {
            let mut cells = vec![row.n.to_string()];
            for (s, ms) in row.stage_ms.iter().enumerate() {
                cells.push(format!("{ms:.2}"));
                cells.push(exponents[s][r].map_or_else(|| "-".to_string(), |e| format!("{e:.2}")));
            }
            table.add_row(cells);
        }
        table
    }

    /// Renders the human-readable summary table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "n",
            "construction (ms)",
            "exp",
            "allocs",
            "peak live (MB)",
            "bytes/target",
            "peak RSS (MB)",
        ]);
        let exponents = self.exponents(|row| row.construction_ms);
        for (row, exp) in self.rows.iter().zip(exponents) {
            table.add_row(vec![
                row.n.to_string(),
                format!("{:.2}", row.construction_ms),
                exp.map_or_else(|| "-".to_string(), |e| format!("{e:.2}")),
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
    /// Schema `v3` adds to each `v2` row the scaling exponent of the
    /// construction time and, per [`STAGES`] span, `<stage>_ms` and
    /// `<stage>_exp` (stage names without the `chb.` prefix); exponents
    /// are `null` on the first row.
    pub fn to_json(&self) -> String {
        let construction_exp = self.exponents(|row| row.construction_ms);
        let stage_exp: Vec<Vec<Option<f64>>> = (0..STAGES.len())
            .map(|s| self.exponents(|row| row.stage_ms[s]))
            .collect();
        let rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let mut fields: Vec<(String, JsonValue)> = [
                    ("n", row.n.into()),
                    ("construction_ms", row.construction_ms.into()),
                    ("construction_exp", construction_exp[r].into()),
                    ("peak_rss_kb", row.peak_rss_kb.into()),
                    ("alloc_count", row.alloc.events.into()),
                    ("alloc_bytes", row.alloc.allocated_bytes.into()),
                    ("peak_live_bytes", row.alloc.peak_live_bytes.into()),
                    ("bytes_per_target", row.bytes_per_target().into()),
                ]
                .into_iter()
                .map(|(k, v): (&str, JsonValue)| (k.to_string(), v))
                .collect();
                for (s, stage) in STAGES.iter().enumerate() {
                    let name = stage.trim_start_matches("chb.");
                    fields.push((format!("{name}_ms"), row.stage_ms[s].into()));
                    fields.push((format!("{name}_exp"), stage_exp[s][r].into()));
                }
                JsonValue::Object(fields)
            })
            .collect();
        let p = &self.params;
        artefact_json(
            "bench-scale/v3",
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
            let (_, trace) = mule_obs::capture(build);
            let profile = mule_obs::FlatProfile::of(&trace);
            ScaleBenchRow {
                n,
                construction_ms,
                tour_len,
                alloc,
                peak_rss_kb,
                stage_ms: STAGES.map(|stage| profile.total_ms_where(|name| name == stage)),
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
            Some("bench-scale/v3")
        );
        let rows = doc.get("sizes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        for key in [
            "construction_ms",
            "construction_exp",
            "peak_rss_kb",
            "alloc_count",
            "alloc_bytes",
            "peak_live_bytes",
            "bytes_per_target",
            "hull_insertion_ms",
            "hull_insertion_exp",
            "candidate_lists_ms",
            "two_opt_ms",
            "or_opt_exp",
        ] {
            assert!(rows[0].get(key).is_some(), "missing {key}");
        }
        // Exponents compare against the previous size: none for the first.
        assert_eq!(rows[0].get("construction_exp"), Some(&JsonValue::Null));
        assert!(rows[1]
            .get("construction_exp")
            .and_then(JsonValue::as_f64)
            .is_some());
    }

    #[test]
    fn every_stage_is_timed_from_the_captured_run() {
        let report = run_scale_bench(&quick_params());
        for row in &report.rows {
            for (stage, ms) in STAGES.iter().zip(row.stage_ms) {
                assert!(ms > 0.0, "{stage} not captured at n={}", row.n);
            }
        }
        let rendered = report.to_stage_table().render();
        assert!(rendered.contains("chb.hull_insertion (ms)"));
    }

    #[test]
    fn scaling_exponent_is_the_log_log_slope() {
        let e = scaling_exponent((1000, 10.0), (4000, 160.0)).unwrap();
        assert!((e - 2.0).abs() < 1e-12, "quadrupling n at 16x time is n^2");
        assert!((scaling_exponent((10, 3.0), (20, 3.0)).unwrap()).abs() < 1e-12);
        assert_eq!(scaling_exponent((10, 0.0), (20, 3.0)), None);
        assert_eq!(scaling_exponent((20, 1.0), (20, 3.0)), None);
    }

    #[test]
    fn gate_figures_are_populated() {
        let report = run_scale_bench(&quick_params());
        assert!(report.max_bytes_per_target() > 0.0);
        let rendered = report.to_table().render();
        assert!(rendered.contains("bytes/target"));
    }
}
