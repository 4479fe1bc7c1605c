//! Distributions used by the synthetic workload generators.

use rand::Rng;
use stms_types::hash::hash_f64;

/// Distribution of temporal-stream lengths (in cache blocks).
///
/// Offline analyses cited by the paper (and its Figure 6) show that temporal
/// streams in commercial workloads vary from two to hundreds of blocks, with
/// about half of the streams shorter than ten blocks, while scientific codes
/// have a single iteration-length stream. Two shapes cover both cases:
///
/// * [`LengthDist::Pareto`] — a bounded power-law, parameterised by its
///   median and maximum, used for commercial workloads;
/// * [`LengthDist::Fixed`] — a constant length, used for the scientific
///   iteration streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDist {
    /// Bounded Pareto (power-law) distribution over `[min, max]`.
    Pareto {
        /// Smallest possible stream length.
        min: u64,
        /// Largest possible stream length.
        max: u64,
        /// Tail exponent; larger values concentrate mass near `min`.
        alpha: f64,
    },
    /// All streams have exactly this length.
    Fixed(u64),
}

// Part of `WorkloadSpec`'s identity (see its `Hash` impl): the float
// parameter compares with `==` and hashes through `hash_f64`. The presets
// never compute `alpha`, so `0.1 + 0.2`-style drift does not arise.
impl Eq for LengthDist {}

impl std::hash::Hash for LengthDist {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match *self {
            LengthDist::Pareto { min, max, alpha } => {
                0u8.hash(state);
                min.hash(state);
                max.hash(state);
                hash_f64(alpha, state);
            }
            LengthDist::Fixed(n) => {
                1u8.hash(state);
                n.hash(state);
            }
        }
    }
}

impl LengthDist {
    /// A bounded Pareto whose median is approximately `median`.
    ///
    /// With tail index `alpha`, the median of an (unbounded) Pareto with
    /// scale `min` is `min * 2^(1/alpha)`; this constructor solves for `min`.
    pub fn pareto_with_median(median: u64, max: u64, alpha: f64) -> Self {
        let min = ((median as f64) / 2f64.powf(1.0 / alpha)).max(2.0).round() as u64;
        LengthDist::Pareto {
            min,
            max: max.max(min + 1),
            alpha,
        }
    }

    /// Draws one stream length.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            LengthDist::Fixed(n) => n.max(1),
            LengthDist::Pareto { min, max, alpha } => {
                // Inverse-CDF sampling of a bounded Pareto.
                let (l, h) = (min as f64, max as f64);
                let u: f64 = rng.gen_range(0.0..1.0);
                let ha = h.powf(-alpha);
                let la = l.powf(-alpha);
                let x = (-(u * (la - ha) - la)).powf(-1.0 / alpha);
                (x.round() as u64).clamp(min, max)
            }
        }
    }

    /// Expected value of the distribution (approximate for the bounded
    /// Pareto), useful for sizing stream pools.
    pub fn mean(&self) -> f64 {
        match *self {
            LengthDist::Fixed(n) => n as f64,
            LengthDist::Pareto { min, max, alpha } => {
                let (l, h) = (min as f64, max as f64);
                if (alpha - 1.0).abs() < 1e-9 {
                    (h / l).ln() * l
                } else {
                    let la = l.powf(alpha);
                    let num = alpha * la / (alpha - 1.0);
                    num * (l.powf(1.0 - alpha) - h.powf(1.0 - alpha)) / (1.0 - (l / h).powf(alpha))
                }
            }
        }
    }
}

/// Samples a compute gap (non-memory instructions between accesses) from a
/// geometric-like distribution with the given mean.
pub fn sample_gap<R: Rng + ?Sized>(rng: &mut R, mean: u32) -> u32 {
    if mean == 0 {
        return 0;
    }
    // A simple two-point mixture keeps the mean while providing variance:
    // mostly `mean`, occasionally a longer pause.
    let r: f64 = rng.gen_range(0.0..1.0);
    if r < 0.8 {
        rng.gen_range(0..=mean)
    } else {
        rng.gen_range(mean..=mean * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_always_returns_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = LengthDist::Fixed(42);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 42);
        }
        assert_eq!(d.mean(), 42.0);
        assert_eq!(LengthDist::Fixed(0).sample(&mut rng), 1);
    }

    #[test]
    fn pareto_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = LengthDist::Pareto {
            min: 2,
            max: 500,
            alpha: 1.2,
        };
        for _ in 0..5000 {
            let x = d.sample(&mut rng);
            assert!((2..=500).contains(&x));
        }
    }

    #[test]
    fn pareto_median_is_approximately_requested() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = LengthDist::pareto_with_median(10, 2000, 1.1);
        let mut samples: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        assert!(
            (6..=16).contains(&median),
            "median {median} should be near 10 for {d:?}"
        );
        // The tail must produce some long streams.
        assert!(*samples.last().unwrap() > 200);
    }

    #[test]
    fn pareto_mean_is_positive_and_above_min() {
        let d = LengthDist::Pareto {
            min: 4,
            max: 1000,
            alpha: 1.3,
        };
        assert!(d.mean() > 4.0);
        assert!(d.mean() < 1000.0);
    }

    #[test]
    fn gap_sampling_stays_in_range_and_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(4);
        let mean = 20u32;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| sample_gap(&mut rng, mean) as u64).sum();
        let avg = total as f64 / n as f64;
        assert!(avg > 8.0 && avg < 40.0, "avg gap {avg}");
        assert_eq!(sample_gap(&mut rng, 0), 0);
    }
}
