//! The measurement and artefact code the tracked suites share
//! ([`crate::tourbench`], [`crate::routebench`], [`crate::scalebench`]).
//!
//! * [`min_time_ms`] — the one wall-clock timer: minimum over samples,
//!   the stablest single statistic on a noisy machine.
//! * [`measure_memory`] — the one armed allocation measurement: one run
//!   with the counting allocator armed, after the timed samples, so
//!   instrumentation never pollutes the timed numbers.
//! * [`artefact_json`] — the one artefact writer: every tracked
//!   `BENCH_*.json` is `{schema, <params>, sizes: [rows]}`, written by
//!   [`mule_obs::json`].
//!
//! Speed claims are `perfbench` A/B runs (`BENCHMARK.json`); these suites
//! record single-host snapshots and gate correctness-level bounds.

use mule_obs::alloc::Measurement;
use mule_obs::json::JsonValue;
use std::time::Instant;

/// Runs `f` `samples` times (at least once) and returns the minimum
/// wall-clock in milliseconds with the last run's result.
pub fn min_time_ms<T>(samples: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best_ms = f64::INFINITY;
    let mut value = None;
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let run = f();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1000.0);
        // Replacing the previous result drops it outside the timed span.
        value = Some(run);
    }
    (best_ms, value.expect("at least one sample ran"))
}

/// Runs `f` once with the counting allocator armed (thread-local
/// tallies, so allocation on other threads cannot pollute the figures)
/// and the kernel's peak-RSS mark reset. Returns its result, the run's
/// allocation figures, and the process peak RSS in kB sampled right after
/// (`None` where procfs is unavailable; never gated, since it depends on
/// the allocator and the platform).
pub fn measure_memory<T>(f: impl FnOnce() -> T) -> (T, Measurement, Option<u64>) {
    mule_obs::alloc::reset_rss_peak();
    let (value, alloc) = mule_obs::alloc::measure(f);
    (value, alloc, mule_obs::alloc::rss_peak_kb())
}

/// Renders a tracked artefact: `schema`, then the run parameters, then
/// one object per benched size under `sizes`. Non-finite numbers render
/// as `null`.
pub fn artefact_json(schema: &str, params: Vec<(&str, JsonValue)>, rows: Vec<JsonValue>) -> String {
    let mut pairs = vec![("schema", JsonValue::from(schema))];
    pairs.extend(params);
    pairs.push(("sizes", JsonValue::Array(rows)));
    JsonValue::object(pairs).to_pretty_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_time_runs_every_sample_and_keeps_the_minimum() {
        let mut runs = 0;
        let (ms, last) = min_time_ms(3, || {
            runs += 1;
            runs
        });
        assert_eq!((runs, last), (3, 3));
        assert!(ms.is_finite() && ms >= 0.0);
        // Zero samples still measure once.
        let (_, once) = min_time_ms(0, || 7);
        assert_eq!(once, 7);
    }

    #[test]
    fn artefact_has_schema_params_and_sizes_in_order() {
        let text = artefact_json(
            "bench-test/v1",
            vec![("seed", 7u64.into())],
            vec![JsonValue::object(vec![
                ("n", 10u64.into()),
                ("ms", f64::NAN.into()),
                ("opt", None::<u64>.into()),
            ])],
        );
        let doc = mule_obs::json::parse(&text).expect("artefact parses");
        let JsonValue::Object(pairs) = &doc else {
            panic!("artefact is an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "seed", "sizes"]);
        let row = &doc.get("sizes").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(row.get("ms"), Some(&JsonValue::Null));
        assert_eq!(row.get("opt"), Some(&JsonValue::Null));
        assert!(text.ends_with("}\n"));
    }
}
