//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <plan-3k|sweep-paper|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds its inputs from the seed, sets up (median of
//! [`SETUP_REPEATS`] set-ups is reported), runs the workload's operation in
//! a closed loop for `--seconds`, checks every output and prints metrics:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Per-layer figures are measured from outside the program —
//! by timing calls into each crate's public functions and by reading the
//! spans the program already records — so the traced run adds nothing
//! inside the code under test. The last line of standard output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`); the exit
//! code is non-zero when any output check failed. See `perfbench/METRICS.md`
//! for what each workload and metric is for.

mod client;
mod layers;
mod plan3k;
mod reference;
mod report;
mod serve;
mod stats;
mod sweep;

use report::Report;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Seed of the untimed warm-up inputs of plan-3k and sweep-paper. It is
/// the same for every run, so `setup_s` times the same work whatever
/// `--seed` says.
pub const WARMUP_SEED: u64 = 0;

/// Every per-layer metric a traced run prints, with its unit. A layer the
/// workload's operation never reaches reads 0 (see `METRICS.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.hull_insertion_ms", "ms"),
    ("graph.hull_insertion_alloc_mb", "MB"),
    ("graph.candidate_lists_ms", "ms"),
    ("graph.candidate_lists_allocs", "count"),
    ("graph.two_opt_ms", "ms"),
    ("graph.two_opt_moves", "count"),
    ("graph.or_opt_ms", "ms"),
    ("graph.or_opt_moves", "count"),
    ("graph.or_opt_alloc_mb", "MB"),
    ("graph.unattributed_ms", "ms"),
    ("graph.replay_valid", "ratio"),
    ("graph.distance_matrix_ms", "ms"),
    ("graph.exact_insertion_ms", "ms"),
    ("graph.exact_two_opt_ms", "ms"),
    ("graph.exact_or_opt_ms", "ms"),
    ("graph.exact_or_opt_moves", "count"),
    ("core.btctp_ms", "ms"),
    ("core.rwtctp_ms", "ms"),
    ("core.wtctp_balancing_ms", "ms"),
    ("core.wpp_balancing_ms", "ms"),
    ("core.planner_self_ms", "ms"),
    ("workload.generate_ms", "ms"),
    ("road.index_build_ms", "ms"),
    ("road.pairwise_ms", "ms"),
    ("sim.static_run_ms", "ms"),
    ("sim.visits", "count"),
    ("sim.dynamic_run_ms", "ms"),
    ("sim.replans", "count"),
    ("sim.max_interval_s", "s"),
    ("par.speedup", "ratio"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected_503", "count"),
    ("serve.response_kb", "KB"),
    ("serve.parse_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("serve.cache_hit_us", "us"),
    ("serve.plan_response_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.request_self_us", "us"),
    ("serve.request.parse_self_us", "us"),
    ("serve.request.fingerprint_self_us", "us"),
    ("serve.request.cache_lookup_self_us", "us"),
    ("serve.request.plan_self_us", "us"),
    ("serve.request.serialize_self_us", "us"),
    ("serve.plan_spans_self_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("host.probe_ms", "ms"),
];

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_kref", "1/kref"),
    ("latency_p50_ref", "ref"),
    ("latency_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("max_cycle_length_m", "m"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <plan-3k|sweep-paper|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// splitmix64 of `a` and `b`: the benchmark's only source of derived seeds,
/// so every input is a pure function of `--seed`.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` [`SETUP_REPEATS`] times, returning the last result and every
/// set-up's duration in seconds.
pub fn repeated_setup<T>(
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        // Drop the previous set-up's state first so two never coexist.
        drop(last.take());
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS > 0"), times))
}

/// Iterations of the host probe's reference loop.
const PROBE_ITERS: u64 = 2_000_000;
/// Words in the probe's buffer (8 MiB, past most last-level cache shares).
const PROBE_WORDS: usize = 1 << 20;

/// A fixed reference loop, timed: hashing plus random read-modify-writes
/// over an 8 MiB buffer, so it slows down both when the host's cores and
/// when its memory system are contended. It moves with the host, not with
/// the code under test, so a slow probe marks a slow host phase.
fn host_probe_ms() -> f64 {
    let mut buffer = vec![1u64; PROBE_WORDS];
    let start = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..PROBE_ITERS {
        x = mix(x, i);
        let slot = x as usize & (PROBE_WORDS - 1);
        buffer[slot] = buffer[slot].wrapping_add(x);
    }
    black_box(&buffer);
    ms_since(start)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let probe_start = host_probe_ms();
    let result = match options.workload.as_str() {
        "plan-3k" => plan3k::run(&options),
        "sweep-paper" => sweep::run(&options),
        "serve-mixed" => serve::run(&options),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let probe_end = host_probe_ms();
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", options.workload);
            return ExitCode::from(1);
        }
    };
    report.note(format!(
        "host.probe_ms: {probe_start:.3} at start, {probe_end:.3} at end; {} cores",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let wanted = if options.trace {
        report.metric("host.probe_ms", (probe_start + probe_end) / 2.0, "ms");
        PER_LAYER
    } else {
        END_TO_END
    };
    finalize_metrics(&mut report, wanted);

    for line in &report.problems {
        eprintln!("perfbench: check failed: {line}");
    }
    for line in &report.notes {
        println!("# {line}");
    }
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Puts the report's metrics in the canonical order of `wanted`, fills
/// the ones the workload does not reach with 0, and fails the run on any
/// metric that is not in `wanted` or carries the wrong unit.
fn finalize_metrics(report: &mut Report, wanted: &[(&'static str, &'static str)]) {
    let mut measured = std::mem::take(&mut report.metrics);
    for &(name, unit) in wanted {
        let value = match measured.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = measured.swap_remove(i);
                if m.unit != unit {
                    report.fail(format!("{name} measured in {} not {unit}", m.unit));
                }
                m.value
            }
            None => 0.0,
        };
        report.metric(name, value, unit);
    }
    for m in measured {
        report.fail(format!("metric {} is not declared for this mode", m.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mule_serve::JsonValue;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_parse_and_reject() {
        let o = parse_options(&args("--workload plan-3k --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            o,
            Options {
                workload: "plan-3k".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload plan-3k --seed 7 --seconds 10",
            "--workload plan-3k --seed x --seconds 10 --trace 0",
            "--workload plan-3k --seed 7 --seconds 0 --trace 0",
            "--workload plan-3k --seed 7 --seconds 10 --trace 2",
            "--workload plan-3k --seed 7 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn mix_is_a_pure_function_that_spreads_nearby_inputs() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 1));
    }

    #[test]
    fn finalize_orders_fills_and_rejects_undeclared_metrics() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("ops_per_kref", 5.0, "1/kref");
        finalize_metrics(&mut r, END_TO_END);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert!(r.correct());
        r.metric("made_up", 1.0, "ms");
        finalize_metrics(&mut r, END_TO_END);
        assert!(!r.correct());
    }

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = mule_serve::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
