//! Basic sample statistics shared by every report.

/// Min / max / mean / standard deviation of a sample.
///
/// The standard deviation uses the `n − 1` (sample) denominator, matching
/// the paper's SD formula in §V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStatistics {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two samples).
    pub std_dev: f64,
}

impl SummaryStatistics {
    /// Computes the statistics of `samples`.
    pub fn from_samples(samples: &[f64]) -> Self {
        let count = samples.len();
        if count == 0 {
            return SummaryStatistics {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
            sum += s;
        }
        let mean = sum / count as f64;
        let std_dev = if count >= 2 {
            let var: f64 = samples
                .iter()
                .map(|&s| (s - mean) * (s - mean))
                .sum::<f64>()
                / (count as f64 - 1.0);
            var.sqrt()
        } else {
            0.0
        };
        SummaryStatistics {
            count,
            min,
            max,
            mean,
            std_dev,
        }
    }

    /// The empty statistics value.
    pub fn empty() -> Self {
        Self::from_samples(&[])
    }

    /// Half-width of the normal-approximation 95 % confidence interval of
    /// the mean: `1.96 · s / √n`. Zero for fewer than two samples (no
    /// spread estimate exists).
    ///
    /// The sweeps this backs average ≥ 8 replications per cell, where the
    /// normal approximation is the conventional reporting choice; the
    /// paper's own "average of 20 simulations" tables do the same.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.std_dev / (self.count as f64).sqrt()
    }

    /// The mean formatted as `mean ±ci95` for result tables.
    pub fn mean_with_ci(&self, precision: usize) -> String {
        format!(
            "{:.prec$} ±{:.prec$}",
            self.mean,
            self.ci95_half_width(),
            prec = precision
        )
    }
}

/// Sample standard deviation of `samples` (the paper's SD formula, `n − 1`
/// denominator). Zero for fewer than two samples.
pub fn sample_std_dev(samples: &[f64]) -> f64 {
    SummaryStatistics::from_samples(samples).std_dev
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_gives_zeroes() {
        let s = SummaryStatistics::empty();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = SummaryStatistics::from_samples(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn known_sample_statistics() {
        // 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample variance 32/7.
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = SummaryStatistics::from_samples(&data);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((sample_std_dev(&data) - s.std_dev).abs() < 1e-15);
    }

    #[test]
    fn identical_samples_have_zero_std_dev() {
        let s = SummaryStatistics::from_samples(&[3.0; 10]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn ci95_follows_the_normal_approximation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = SummaryStatistics::from_samples(&data);
        let expected = 1.96 * s.std_dev / (8.0f64).sqrt();
        assert!((s.ci95_half_width() - expected).abs() < 1e-12);
        assert_eq!(SummaryStatistics::empty().ci95_half_width(), 0.0);
        assert_eq!(
            SummaryStatistics::from_samples(&[1.0]).ci95_half_width(),
            0.0
        );
        let rendered = s.mean_with_ci(1);
        assert!(rendered.starts_with("5.0 ±"), "rendered: {rendered}");
    }

    #[test]
    fn negative_samples_are_handled() {
        let s = SummaryStatistics::from_samples(&[-5.0, 5.0]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, -5.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - (50.0f64).sqrt()).abs() < 1e-12);
    }
}
