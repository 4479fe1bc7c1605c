//! Empirical distributions (CDFs and weighted CDFs).
//!
//! Used for the temporal-stream-length distribution of Figure 6 (left) and
//! for reporting sweeps.

/// An empirical cumulative distribution over `u64` values, optionally
/// weighted.
///
/// # Example
///
/// ```
/// use stms_stats::Cdf;
///
/// let cdf = Cdf::from_values([1u64, 2, 2, 10]);
/// assert_eq!(cdf.fraction_at_or_below(2), 0.75);
/// assert_eq!(cdf.percentile(0.5), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    /// Sorted (value, cumulative weight) points.
    points: Vec<(u64, f64)>,
    total_weight: f64,
}

impl Cdf {
    /// Builds a CDF where every sample has weight one.
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        Self::from_weighted(values.into_iter().map(|v| (v, 1.0)))
    }

    /// Builds a CDF from `(value, weight)` samples. The weight lets
    /// "blocks streamed" be attributed to the length of the stream they came
    /// from, as in Figure 6 (left).
    pub fn from_weighted<I: IntoIterator<Item = (u64, f64)>>(samples: I) -> Self {
        let mut raw: Vec<(u64, f64)> = samples.into_iter().collect();
        raw.sort_by_key(|&(v, _)| v);
        let mut points: Vec<(u64, f64)> = Vec::new();
        let mut cumulative = 0.0;
        for (value, weight) in raw {
            cumulative += weight;
            match points.last_mut() {
                Some(last) if last.0 == value => last.1 = cumulative,
                _ => points.push((value, cumulative)),
            }
        }
        Cdf {
            points,
            total_weight: cumulative,
        }
    }

    /// Whether the distribution has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total weight of all samples.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Fraction of the total weight at values `<= value` (0 if empty).
    pub fn fraction_at_or_below(&self, value: u64) -> f64 {
        if self.total_weight == 0.0 {
            return 0.0;
        }
        match self.points.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(idx) => self.points[idx].1 / self.total_weight,
            Err(0) => 0.0,
            Err(idx) => self.points[idx - 1].1 / self.total_weight,
        }
    }

    /// Smallest value at which the CDF reaches `q` (a fraction in `[0,1]`).
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!(!self.is_empty(), "percentile of an empty distribution");
        let target = q.clamp(0.0, 1.0) * self.total_weight;
        for &(value, cum) in &self.points {
            if cum >= target {
                return value;
            }
        }
        self.points.last().expect("non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unweighted_basics() {
        let cdf = Cdf::from_values([5u64, 1, 3, 3]);
        assert_eq!(cdf.total_weight(), 4.0);
        assert_eq!(cdf.fraction_at_or_below(0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1), 0.25);
        assert_eq!(cdf.fraction_at_or_below(3), 0.75);
        assert_eq!(cdf.fraction_at_or_below(100), 1.0);
        assert_eq!(cdf.percentile(0.5), 3);
        assert_eq!(cdf.percentile(1.0), 5);
    }

    #[test]
    fn weighted_attribution() {
        // One stream of length 2 (2 blocks) and one of length 100 (100 blocks).
        let cdf = Cdf::from_weighted([(2u64, 2.0), (100, 100.0)]);
        assert!((cdf.fraction_at_or_below(2) - 2.0 / 102.0).abs() < 1e-9);
        assert_eq!(cdf.fraction_at_or_below(100), 1.0);
        assert_eq!(cdf.percentile(0.5), 100);
    }

    #[test]
    fn empty_distribution() {
        let cdf = Cdf::from_values(Vec::<u64>::new());
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(10), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_empty_panics() {
        let _ = Cdf::from_values(Vec::<u64>::new()).percentile(0.5);
    }

    proptest! {
        /// The CDF is monotonically non-decreasing and reaches 1.0 at the max.
        #[test]
        fn prop_monotone_and_complete(values in proptest::collection::vec(0u64..1000, 1..200)) {
            let cdf = Cdf::from_values(values.clone());
            let mut prev = 0.0;
            for v in 0..1000u64 {
                let f = cdf.fraction_at_or_below(v);
                prop_assert!(f + 1e-12 >= prev);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
                prev = f;
            }
            let max = *values.iter().max().unwrap();
            prop_assert!((cdf.fraction_at_or_below(max) - 1.0).abs() < 1e-9);
        }

        /// The p-quantile always has at least fraction p of weight at or below it.
        #[test]
        fn prop_percentile_consistent(values in proptest::collection::vec(0u64..500, 1..100), q in 0.0f64..1.0) {
            let cdf = Cdf::from_values(values);
            let p = cdf.percentile(q);
            prop_assert!(cdf.fraction_at_or_below(p) + 1e-9 >= q);
        }
    }
}
