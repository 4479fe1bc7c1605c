//! Order statistics over raw samples.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile of a fixed ladder that still has at least ten samples beyond
//! it, computed from the raw samples themselves (never from bucketed
//! histograms, whose quantiles are bucket upper bounds).

/// Percentiles considered for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Summary of one set of raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// `(percentile, value)` of the highest ladder percentile with at least
    /// ten samples beyond it; `None` when there are fewer than 20 samples.
    pub tail: Option<(f64, f64)>,
    /// Smallest and largest sample.
    pub range: (f64, f64),
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or a NaN sample; both are benchmark
    /// bugs.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let tail = TAIL_LADDER
            .iter()
            .find(|&&p| sorted.len() as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND)
            .map(|&p| (p, percentile_sorted(&sorted, p)));
        Summary {
            n: sorted.len(),
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            tail,
            range: (sorted[0], sorted[sorted.len() - 1]),
        }
    }

    /// One human-readable line: `q1 …, median …, pXX … (n=…, range …)`.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {:.4} {unit}", v * scale),
            None => String::new(),
        };
        format!(
            "q1 {:.4} {unit}, median {:.4} {unit}{tail} (n={}, range {:.4}..{:.4})",
            self.q1 * scale,
            self.median * scale,
            self.n,
            self.range.0 * scale,
            self.range.1 * scale
        )
    }
}

/// Linear-interpolated percentile `p` (0..=100) of an ascending slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (see [`Summary::of`]).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Lower quartile of `samples` (see [`Summary::of`]).
pub fn lower_quartile(samples: &[f64]) -> f64 {
    Summary::of(samples).q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(Summary::of(&few).tail, None);
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(Summary::of(&twenty).tail.map(|t| t.0), Some(50.0));
        let many: Vec<f64> = (0..400).map(f64::from).collect();
        let (p, v) = Summary::of(&many).tail.expect("400 samples have a tail");
        assert_eq!(p, 95.0);
        // The value is a sample-space quantile, never above the maximum.
        assert!(v <= 399.0 && v > 370.0, "{v}");
    }
}
