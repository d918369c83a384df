//! Prometheus text exposition (format version 0.0.4) writer and reader.
//!
//! A small append-only builder producing output a Prometheus scraper (or
//! the CI smoke checker) accepts: `# HELP` / `# TYPE` headers followed by
//! samples with escaped label values. Histogram families are emitted from
//! pre-cumulated `(upper_bound_seconds, cumulative_count)` pairs plus the
//! mandatory `+Inf` bucket, `_sum` and `_count` series. [`sum`] reads a
//! rendered document back, one series or one family at a time.

/// The `Content-Type` a 0.0.4 text exposition should be served with.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Escapes a label value (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// An exposition document under construction.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        PromText::default()
    }

    /// Starts a metric family: `# HELP` and `# TYPE` lines. `kind` is
    /// `counter`, `gauge`, `histogram`, `summary` or `untyped`.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
        self
    }

    /// Appends one integer sample.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) -> &mut Self {
        self.out
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
        self
    }

    /// Appends one float sample. Rust's `{}` for `f64` never uses
    /// exponent notation, which keeps the output within what every
    /// exposition parser accepts.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
        self
    }

    /// Emits a full histogram family from **cumulative** bucket pairs
    /// `(upper_bound_seconds, cumulative_count)` in ascending bound
    /// order. The `+Inf` bucket, `_sum` (seconds) and `_count` series
    /// are appended automatically.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        buckets: &[(f64, u64)],
        sum_seconds: f64,
        count: u64,
    ) -> &mut Self {
        self.family(name, "histogram", help);
        for (le, cumulative) in buckets {
            self.out.push_str(&format!(
                "{name}_bucket{{le=\"{le}\"}} {cumulative}\n",
                le = le,
                cumulative = cumulative
            ));
        }
        self.out
            .push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        self.out.push_str(&format!("{name}_sum {sum_seconds}\n"));
        self.out.push_str(&format!("{name}_count {count}\n"));
        self
    }

    /// Finishes the document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Reads an exposition document back: the sum of the samples `selector`
/// picks, or `None` when it picks none. A bare name
/// (`mule_requests_total`) picks every sample of that name whatever its
/// labels; a full series (`mule_requests_total{route="plan"}`, labels in
/// rendered order) picks exactly that sample.
pub fn sum(text: &str, selector: &str) -> Option<f64> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(selector)?;
            let value = match rest.strip_prefix(' ') {
                Some(value) => value,
                None if rest.starts_with('{') => rest.rsplit_once("} ")?.1,
                None => return None,
            };
            value.parse::<f64>().ok()
        })
        .fold(None, |total, value| Some(total.unwrap_or(0.0) + value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_and_samples_render_in_exposition_format() {
        let mut p = PromText::new();
        p.family("mule_requests_total", "counter", "Requests by route.")
            .sample_u64("mule_requests_total", &[("route", "plan")], 3)
            .sample_u64("mule_requests_total", &[], 5);
        let text = p.finish();
        assert!(text.contains("# HELP mule_requests_total Requests by route.\n"));
        assert!(text.contains("# TYPE mule_requests_total counter\n"));
        assert!(text.contains("mule_requests_total{route=\"plan\"} 3\n"));
        assert!(text.contains("mule_requests_total 5\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromText::new();
        p.sample_u64("m", &[("l", "a\"b\\c\nd")], 1);
        assert_eq!(p.finish(), "m{l=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn histograms_emit_buckets_sum_count_and_inf() {
        let mut p = PromText::new();
        p.histogram("lat", "Latency.", &[(0.001, 2), (0.01, 5)], 0.025, 6);
        let text = p.finish();
        assert!(text.contains("# TYPE lat histogram\n"));
        assert!(text.contains("lat_bucket{le=\"0.001\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"0.01\"} 5\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("lat_sum 0.025\n"));
        assert!(text.contains("lat_count 6\n"));
    }

    #[test]
    fn sum_reads_one_series_or_a_whole_family() {
        let mut p = PromText::new();
        p.family("req_total", "counter", "Requests.")
            .sample_u64("req_total", &[("route", "plan")], 3)
            .sample_u64("req_total", &[("route", "a} b")], 4)
            .sample_u64("req_total_other", &[], 100)
            .sample_f64("rate", &[("window", "1m")], 0.5);
        let text = p.finish();
        assert_eq!(sum(&text, "req_total"), Some(7.0));
        assert_eq!(sum(&text, "req_total{route=\"plan\"}"), Some(3.0));
        assert_eq!(sum(&text, "req_total_other"), Some(100.0));
        assert_eq!(sum(&text, "rate{window=\"1m\"}"), Some(0.5));
        assert_eq!(sum(&text, "req"), None, "a name prefix is not a name");
        assert_eq!(sum(&text, "req_total{route=\"sim\"}"), None);
    }

    #[test]
    fn float_samples_never_use_exponent_notation() {
        let mut p = PromText::new();
        p.sample_f64("tiny", &[], 0.000001)
            .sample_f64("big", &[], 123456789.5);
        let text = p.finish();
        assert!(!text.contains('e') && !text.contains('E'), "{text}");
    }
}
