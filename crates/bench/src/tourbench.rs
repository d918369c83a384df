//! The tracked tour-engine benchmark behind `patrolctl bench-tours`.
//!
//! Measures `construct_circuit` across instance sizes, exact pipeline vs.
//! candidate-list pipeline, and serialises the result as the
//! `BENCH_tours.json` artefact through the shared [`crate::harness`]
//! writer. Per size it runs four measurements, each on its own so that
//! instrumentation never pollutes another's numbers:
//!
//! 1. the timed candidate samples (minimum over disarmed, untraced runs);
//! 2. the timed exact samples, up to [`TourBenchParams::exact_cap`];
//! 3. one **armed**, untraced candidates run for the allocation figures,
//!    peak live bytes per target and peak RSS
//!    ([`crate::harness::measure_memory`]);
//! 4. one **captured** candidates run for the per-stage times (the
//!    [`STAGES`] spans).
//!
//! The exact pipeline grows as about `n^2` and needs an `n × n` matrix, so
//! above the cap its time, length, speedup and length-ratio columns are
//! `null` in the JSON (explicitly, not silently dropped). Every candidate
//! time is also reported as a log-log scaling exponent against the
//! previous size — the figure complexity claims are checked with.
//!
//! Determinism contract: tour lengths and `alloc_count` are pure functions
//! of the seeded workload; every time, bytes, peak and RSS figure is
//! machine-dependent and never pinned (`docs/DETERMINISM.md`, "Memory").

use crate::harness::{artefact_json, measure_memory, min_time_ms};
use mule_graph::{construct_circuit_with, ChbConfig, SearchMode};
use mule_metrics::TextTable;
use mule_obs::alloc::Measurement;
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
    /// only the candidate pipeline runs (the exact pipeline's matrix alone
    /// is 200 MB at 5000 points).
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

/// The CHB candidate-pipeline spans whose times each row records, in
/// pipeline order (`chb.two_opt` sums both 2-opt passes). The first two
/// are the construction phase, the last two the local search.
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
    /// Allocation figures of one armed, untraced candidates run (`events`
    /// is a pure function of the seeded workload).
    pub alloc: Measurement,
    /// Process peak RSS (kB) right after the armed run; `None` where
    /// procfs is unavailable. Never gated: RSS depends on the allocator
    /// and the platform.
    pub peak_rss_kb: Option<u64>,
    /// Total milliseconds of each [`STAGES`] span in one captured
    /// candidates run.
    pub stage_ms: [f64; STAGES.len()],
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

    /// Construction-phase time (hull insertion + candidate lists) of the
    /// captured run, milliseconds.
    pub fn phase_construction_ms(&self) -> f64 {
        self.stage_ms[0] + self.stage_ms[1]
    }

    /// Local-search time (2-opt + Or-opt passes) of the captured run,
    /// milliseconds.
    pub fn phase_local_search_ms(&self) -> f64 {
        self.stage_ms[2] + self.stage_ms[3]
    }

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

    /// Largest bytes-per-target figure across rows.
    pub fn max_bytes_per_target(&self) -> f64 {
        self.rows
            .iter()
            .map(TourBenchRow::bytes_per_target)
            .fold(0.0, f64::max)
    }

    /// Scaling exponent of each row's time (picked by `time`) against the
    /// previous row's; `None` for the first row.
    fn exponents(&self, time: impl Fn(&TourBenchRow) -> f64) -> Vec<Option<f64>> {
        let mut prev: Option<(usize, f64)> = None;
        self.rows
            .iter()
            .map(|row| {
                let cur = (row.n, time(row));
                prev.replace(cur).and_then(|p| scaling_exponent(p, cur))
            })
            .collect()
    }

    /// The scaling exponents of every [`STAGES`] span, one vector per
    /// stage.
    fn stage_exponents(&self) -> Vec<Vec<Option<f64>>> {
        (0..STAGES.len())
            .map(|s| self.exponents(|row| row.stage_ms[s]))
            .collect()
    }

    /// Renders the human-readable summary table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "n",
            "exact (ms)",
            "candidates (ms)",
            "exp",
            "speedup",
            "length ratio",
            "allocs",
            "peak live (MB)",
            "bytes/target",
            "peak RSS (MB)",
        ]);
        let na = || "-".to_string();
        let exponents = self.exponents(|row| row.candidates_ms);
        for (row, exp) in self.rows.iter().zip(exponents) {
            table.add_row(vec![
                row.n.to_string(),
                row.exact_ms.map_or_else(na, |m| format!("{m:.2}")),
                format!("{:.2}", row.candidates_ms),
                exp.map_or_else(na, |e| format!("{e:.2}")),
                row.speedup().map_or_else(na, |s| format!("{s:.1}×")),
                row.len_ratio().map_or_else(na, |r| format!("{r:.4}")),
                row.alloc.events.to_string(),
                format!(
                    "{:.1}",
                    row.alloc.peak_live_bytes as f64 / (1024.0 * 1024.0)
                ),
                format!("{:.0}", row.bytes_per_target()),
                row.peak_rss_kb
                    .map_or_else(na, |kb| format!("{:.1}", kb as f64 / 1024.0)),
            ]);
        }
        table
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
        let exponents = self.stage_exponents();
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

    /// Serialises the report as the tracked `BENCH_tours.json` document.
    /// Schema `v3` keeps every `v2` field except `alloc_bytes`, which now
    /// comes from the armed untraced run, and adds per row the scaling
    /// exponent of the candidate time (`candidates_exp`), `alloc_count`,
    /// `peak_live_bytes`, `bytes_per_target` and, per [`STAGES`] span,
    /// `<stage>_ms` and `<stage>_exp` (stage names without the `chb.`
    /// prefix); exponents are `null` on the first row.
    pub fn to_json(&self) -> String {
        let candidates_exp = self.exponents(|row| row.candidates_ms);
        let stage_exp = self.stage_exponents();
        let rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let mut fields: Vec<(String, JsonValue)> = [
                    ("n", row.n.into()),
                    ("exact_ms", row.exact_ms.into()),
                    ("candidates_ms", row.candidates_ms.into()),
                    ("candidates_exp", candidates_exp[r].into()),
                    ("speedup", row.speedup().into()),
                    ("exact_len", row.exact_len.into()),
                    ("candidates_len", row.candidates_len.into()),
                    ("len_ratio", row.len_ratio().into()),
                    ("phase_construction_ms", row.phase_construction_ms().into()),
                    ("phase_local_search_ms", row.phase_local_search_ms().into()),
                    ("alloc_count", row.alloc.events.into()),
                    ("alloc_bytes", row.alloc.allocated_bytes.into()),
                    ("peak_live_bytes", row.alloc.peak_live_bytes.into()),
                    ("bytes_per_target", row.bytes_per_target().into()),
                    ("peak_rss_kb", row.peak_rss_kb.into()),
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
            "bench-tours/v3",
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
            let build = || construct_circuit_with(&points, &fast_config).length(&points);
            let (candidates_ms, candidates_len) = min_time_ms(params.samples, build);
            let (exact_ms, exact_len) = if n <= params.exact_cap {
                let (ms, len) = min_time_ms(params.samples, || {
                    construct_circuit_with(&points, &exact_config).length(&points)
                });
                (Some(ms), Some(len))
            } else {
                (None, None)
            };
            let (_, alloc, peak_rss_kb) = measure_memory(build);
            let (_, trace) = mule_obs::capture(build);
            let profile = mule_obs::FlatProfile::of(&trace);
            TourBenchRow {
                n,
                exact_ms,
                candidates_ms,
                exact_len,
                candidates_len,
                alloc,
                peak_rss_kb,
                stage_ms: STAGES.map(|stage| profile.total_ms_where(|name| name == stage)),
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

    /// Sizes large enough for every stage and the allocation peak to
    /// register, with the exact pipeline skipped.
    fn scale_params() -> TourBenchParams {
        TourBenchParams {
            sizes: vec![300, 600],
            exact_cap: 0,
            ..quick_params()
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
    fn sizes_above_the_exact_cap_get_one_candidate_row_each() {
        let report = run_tour_bench(&scale_params());
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.exact_ms.is_none(), "exact skipped at n={}", row.n);
            assert!(row.candidates_ms >= 0.0);
            assert!(row.candidates_len > 0.0);
        }
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
            Some("bench-tours/v3")
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
    fn json_carries_memory_and_stage_columns_with_a_null_first_exponent() {
        let report = run_tour_bench(&scale_params());
        let doc = mule_obs::json::parse(&report.to_json()).expect("artefact parses");
        let rows = doc.get("sizes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        for key in [
            "candidates_exp",
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
        assert_eq!(rows[0].get("candidates_exp"), Some(&JsonValue::Null));
        assert!(rows[1]
            .get("candidates_exp")
            .and_then(JsonValue::as_f64)
            .is_some());
    }

    #[test]
    fn phase_breakdown_is_populated_and_serialised() {
        let report = run_tour_bench(&quick_params());
        for row in &report.rows {
            assert!(row.phase_construction_ms() >= 0.0);
            assert!(
                row.phase_local_search_ms() > 0.0,
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
                row.alloc.allocated_bytes > 0,
                "armed run allocates at n={}",
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
    fn armed_run_attributes_allocations() {
        let report = run_tour_bench(&scale_params());
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
        let params = TourBenchParams {
            sizes: vec![300],
            ..scale_params()
        };
        // Warm-up absorbs one-time lazy initialisation.
        run_tour_bench(&params);
        let a = run_tour_bench(&params);
        let b = run_tour_bench(&params);
        assert_eq!(a.rows[0].alloc.events, b.rows[0].alloc.events);
        assert_eq!(a.rows[0].candidates_len, b.rows[0].candidates_len);
    }

    #[test]
    fn every_stage_is_timed_from_the_captured_run() {
        let report = run_tour_bench(&scale_params());
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
        let report = run_tour_bench(&scale_params());
        assert!(report.max_bytes_per_target() > 0.0);
        assert_eq!(report.max_len_ratio(), None, "no exact run below the cap");
        let rendered = report.to_table().render();
        assert!(rendered.contains("bytes/target"));
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
