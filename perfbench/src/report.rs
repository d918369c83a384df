//! The result of one benchmark run: checked-operation counts, named
//! metrics with units, and the one-line JSON document that ends the
//! benchmark's standard output.

use crate::reference::Timeline;
use crate::stats;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations run (timed and untimed ones whose output was checked).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// What the failed checks found, one line each (capped).
    pub problems: Vec<String>,
    /// Human-readable context printed before the JSON line (sample
    /// counts, host probes).
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Most problem lines kept; the count in `failed` is always exact.
const MAX_PROBLEMS: usize = 20;

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one operation whose output check failed.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem.into());
        }
    }

    /// Counts `count` failed operations described by `problems`.
    pub fn add_failures(&mut self, count: u64, problems: Vec<String>) {
        self.failed += count;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(problems.into_iter().take(room));
    }

    /// Checks `condition` for one operation's output: returns it, and
    /// counts a failure when it does not hold.
    pub fn check(&mut self, condition: bool, problem: impl FnOnce() -> String) -> bool {
        if !condition {
            self.fail(problem());
        }
        condition
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// `true` when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The end-to-end metrics every workload reports, from the median
    /// set-up time and the run's timeline of operation latencies with the
    /// reference times around them (see [`crate::reference`]). Latency and
    /// throughput are in reference units: `ops_per_kref` is `callers`
    /// (concurrent closed-loop callers) × 1000 over the mean latency in
    /// reference units. The raw figures in milliseconds are `#` lines.
    pub fn end_to_end(
        &mut self,
        setups_s: &[f64],
        timeline: Timeline,
        callers: usize,
        max_cycle_length_m: f64,
    ) {
        let (raw_ms, units, references_ms) = timeline.finish();
        self.metric("setup_s", stats::median(setups_s), "s");
        let callers = callers as f64;
        self.metric(
            "ops_per_kref",
            callers * 1e3 / stats::mean(&units),
            "1/kref",
        );
        for (name, q) in [("latency_p50_ref", 0.5), ("latency_p90_ref", 0.9)] {
            let p = stats::percentile(&units, q).unwrap_or(stats::Percentile {
                value: f64::NAN,
                samples: 0,
                beyond: 0,
            });
            let ms = stats::percentile(&raw_ms, q).map_or(f64::NAN, |r| r.value);
            self.note(format!(
                "{name} = {:.4} from {} samples, {} beyond it; raw {ms:.4} ms",
                p.value, p.samples, p.beyond
            ));
            self.metric(name, p.value, "ref");
        }
        let reference = stats::percentile(&references_ms, 0.5).map_or(f64::NAN, |r| r.value);
        self.note(format!(
            "raw ops_per_s = {:.4}; reference median {reference:.4} ms over {} timings",
            callers * 1e3 / stats::mean(&raw_ms),
            references_ms.len()
        ));
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let passed = self.attempted.saturating_sub(self.failed);
        self.metric(
            "success_rate",
            passed as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        self.metric("max_cycle_length_m", max_cycle_length_m, "m");
        self.note(format!("set-up runs (s): {setups_s:?}"));
    }

    /// The final line of standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float with every digit Rust's shortest round-trip form keeps
/// (`null` for the non-finite values `correct()` already rejects).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    mule_obs::alloc::rss_peak_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.fail("bad output");
        assert!(!r.correct());
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }

    #[test]
    fn non_finite_metrics_make_the_run_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("x", f64::NAN, "ms");
        assert!(!r.correct());
    }
}
