//! Probabilistic index-update sampling (§4.4).
//!
//! For every potential index-table update, a biased coin flip decides whether
//! the update is actually performed. Index-update bandwidth is directly
//! proportional to the sampling probability, while coverage degrades only
//! slowly because long streams get an entry a few blocks in and short streams
//! recur often enough to be indexed eventually.

/// A deterministic Bernoulli sampler driven by an xorshift64* sequence.
///
/// Determinism matters for reproducible experiments: two runs with the same
/// seed and probability skip exactly the same updates.
///
/// # Example
///
/// ```
/// use stms_core::UpdateSampler;
///
/// let mut sampler = UpdateSampler::new(0.125, 42);
/// let accepted = (0..10_000).filter(|_| sampler.should_update()).count();
/// assert!((accepted as f64 - 1250.0).abs() < 200.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateSampler {
    probability: f64,
    state: u64,
}

impl UpdateSampler {
    /// Creates a sampler that accepts updates with the given probability.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is not in `[0, 1]`.
    pub fn new(probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "sampling probability must be in [0,1], got {probability}"
        );
        UpdateSampler {
            probability,
            state: seed | 1,
        }
    }

    /// The configured sampling probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Draws the next coin flip: `true` means the index update should be
    /// performed.
    pub fn should_update(&mut self) -> bool {
        if self.probability >= 1.0 {
            return true;
        }
        if self.probability <= 0.0 {
            return false;
        }
        // xorshift64* — cheap, deterministic, good enough for Bernoulli draws.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let value = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let unit = (value >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn always_and_never() {
        let mut all = UpdateSampler::new(1.0, 7);
        let mut none = UpdateSampler::new(0.0, 7);
        for _ in 0..100 {
            assert!(all.should_update());
            assert!(!none.should_update());
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = UpdateSampler::new(0.3, 99);
        let mut b = UpdateSampler::new(0.3, 99);
        let seq_a: Vec<bool> = (0..1000).map(|_| a.should_update()).collect();
        let seq_b: Vec<bool> = (0..1000).map(|_| b.should_update()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = UpdateSampler::new(0.5, 1);
        let mut b = UpdateSampler::new(0.5, 2);
        let seq_a: Vec<bool> = (0..64).map(|_| a.should_update()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.should_update()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn invalid_probability_panics() {
        let _ = UpdateSampler::new(1.5, 0);
    }

    proptest! {
        /// The observed acceptance rate converges to the configured
        /// probability.
        #[test]
        fn prop_rate_matches_probability(p in 0.05f64..0.95, seed in any::<u64>()) {
            let mut s = UpdateSampler::new(p, seed);
            let n = 20_000;
            let accepted = (0..n).filter(|_| s.should_update()).count();
            let rate = accepted as f64 / n as f64;
            prop_assert!((rate - p).abs() < 0.03, "rate {} vs p {}", rate, p);
            prop_assert!((s.probability() - p).abs() < 1e-12);
        }
    }
}
