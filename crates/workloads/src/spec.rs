//! Workload specifications: the tunable parameters of the synthetic trace
//! generators.

use crate::dist::LengthDist;
use std::fmt;
use stms_types::hash::hash_f64;

/// The four workload classes studied by the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Web serving (SPECweb99 on Apache / Zeus).
    Web,
    /// Online transaction processing (TPC-C on Oracle / DB2).
    Oltp,
    /// Decision support (TPC-H on DB2).
    Dss,
    /// Scientific computing (em3d, moldyn, ocean).
    Sci,
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkloadClass::Web => "Web",
            WorkloadClass::Oltp => "OLTP",
            WorkloadClass::Dss => "DSS",
            WorkloadClass::Sci => "Sci",
        };
        f.write_str(s)
    }
}

/// Parameters of the synthetic workload generator.
///
/// The generator models program execution as an interleaving, per core, of:
///
/// * **temporal-stream activity** — replaying either a brand-new stream of
///   fresh addresses (first occurrence) or a stream drawn from the shared
///   pool of previously-emitted streams (a recurrence, which a temporal
///   prefetcher can cover);
/// * **noise / scan activity** — cold accesses visited only once (optionally
///   as sequential runs that the baseline stride prefetcher covers);
/// * **hot-set accesses** — references to a small, cache-resident footprint
///   that produce L1/L2 hits and dilute memory-boundedness.
///
/// The parameters are calibrated per named workload (see
/// [`crate::presets`]) so that the resulting miss streams reproduce the
/// statistics the paper reports: temporal-stream length distribution
/// (Fig. 6 left), memory-level parallelism (Table 2), idealized coverage
/// (Fig. 4 left) and memory-boundedness / speedup potential (Fig. 4 right).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable name, e.g. `"OLTP Oracle"`.
    pub name: String,
    /// Workload class.
    pub class: WorkloadClass,
    /// Number of cores emitting accesses.
    pub cores: usize,
    /// Default trace length in accesses.
    pub accesses: usize,
    /// Probability that a new activity replays a stream from the pool rather
    /// than creating a new one.
    pub p_repeat: f64,
    /// Distribution of temporal-stream lengths in blocks.
    pub stream_len: LengthDist,
    /// Maximum number of streams retained in the shared pool (bounds the
    /// meta-data reuse distance).
    pub max_pool_streams: usize,
    /// Whether all cores draw recurrences from one shared stream pool
    /// (commercial workloads, where cores serve similar requests over shared
    /// data) or each core owns a private pool (scientific workloads, where
    /// cores iterate over disjoint partitions).
    pub shared_pool: bool,
    /// Probability that a new activity is a one-off cold access (or scan run)
    /// instead of any stream activity.
    pub p_noise: f64,
    /// Length of cold scan runs; `1` produces isolated cold accesses, larger
    /// values produce sequential runs that the stride prefetcher captures.
    pub scan_run: u64,
    /// Fraction of accesses directed at the hot (cache-resident) set.
    pub hot_fraction: f64,
    /// Number of distinct hot lines.
    pub hot_lines: u64,
    /// Probability that an access is data-dependent on the core's previous
    /// off-chip miss (controls MLP, Table 2).
    pub p_dependent: f64,
    /// Mean number of non-memory instructions between accesses.
    pub mean_gap: u32,
    /// Per-block probability that a stream replay diverges (ends early).
    pub p_divergence: f64,
    /// Fraction of accesses that are writes.
    pub p_write: f64,
    /// Default random seed.
    pub seed: u64,
}

// `Hash`/`Eq` are a job's identity: the campaign keys traces, batch dedup
// and job fingerprints on them. Floats compare with the derived `PartialEq`
// and hash through `hash_f64`, so two specs are one key exactly when every
// generator parameter is numerically identical, which is what makes a
// shared trace a faithful stand-in for regeneration. The exhaustive
// destructuring below fails to compile until a new field is hashed.
impl Eq for WorkloadSpec {}

impl std::hash::Hash for WorkloadSpec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let WorkloadSpec {
            name,
            class,
            cores,
            accesses,
            p_repeat,
            stream_len,
            max_pool_streams,
            shared_pool,
            p_noise,
            scan_run,
            hot_fraction,
            hot_lines,
            p_dependent,
            mean_gap,
            p_divergence,
            p_write,
            seed,
        } = self;
        name.hash(state);
        class.hash(state);
        cores.hash(state);
        accesses.hash(state);
        hash_f64(*p_repeat, state);
        stream_len.hash(state);
        max_pool_streams.hash(state);
        shared_pool.hash(state);
        hash_f64(*p_noise, state);
        scan_run.hash(state);
        hash_f64(*hot_fraction, state);
        hot_lines.hash(state);
        hash_f64(*p_dependent, state);
        mean_gap.hash(state);
        hash_f64(*p_divergence, state);
        hash_f64(*p_write, state);
        seed.hash(state);
    }
}

impl WorkloadSpec {
    /// Approximate number of distinct lines the workload touches, used to
    /// size predictor structures in the experiments.
    pub fn approx_footprint_lines(&self) -> u64 {
        let stream_lines = self.max_pool_streams as f64 * self.stream_len.mean();
        let noise_lines = self.accesses as f64 * self.p_noise * 0.5;
        (stream_lines + noise_lines) as u64 + self.hot_lines
    }

    /// The most accesses any one core issues in this spec's trace:
    /// [`crate::generate`] deals the accesses to the cores round-robin, so
    /// each core gets `accesses / cores`, rounded up. A per-core structure
    /// with at least this many entries never drops one. Zero cores, which
    /// [`WorkloadSpec::validate`] rejects, count as one.
    pub fn max_accesses_per_core(&self) -> usize {
        self.accesses.div_ceil(self.cores.max(1))
    }

    /// Returns a copy with a different trace length.
    pub fn with_accesses(mut self, accesses: usize) -> Self {
        self.accesses = accesses;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates that probabilities are in range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("p_repeat", self.p_repeat),
            ("p_noise", self.p_noise),
            ("hot_fraction", self.hot_fraction),
            ("p_dependent", self.p_dependent),
            ("p_divergence", self.p_divergence),
            ("p_write", self.p_write),
        ];
        for (name, v) in probs {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
        }
        if self.cores == 0 {
            return Err("cores must be non-zero".into());
        }
        if self.max_pool_streams == 0 {
            return Err("max_pool_streams must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test".into(),
            class: WorkloadClass::Web,
            cores: 4,
            accesses: 1000,
            p_repeat: 0.5,
            stream_len: LengthDist::Fixed(10),
            max_pool_streams: 100,
            shared_pool: true,
            p_noise: 0.1,
            scan_run: 1,
            hot_fraction: 0.3,
            hot_lines: 500,
            p_dependent: 0.5,
            mean_gap: 10,
            p_divergence: 0.01,
            p_write: 0.1,
            seed: 1,
        }
    }

    #[test]
    fn validate_accepts_sane_spec() {
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut s = spec();
        s.p_repeat = 1.5;
        assert!(s.validate().unwrap_err().contains("p_repeat"));
        let mut s = spec();
        s.hot_fraction = -0.1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_cores_or_pool() {
        let mut s = spec();
        s.cores = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.max_pool_streams = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn footprint_estimate_grows_with_pool() {
        let small = spec();
        let mut large = spec();
        large.max_pool_streams = 1000;
        assert!(large.approx_footprint_lines() > small.approx_footprint_lines());
    }

    #[test]
    fn builder_style_setters() {
        let s = spec().with_accesses(5000).with_seed(99);
        assert_eq!(s.accesses, 5000);
        assert_eq!(s.seed, 99);
    }

    #[test]
    fn spec_is_usable_as_a_hash_map_key() {
        use std::collections::HashMap;
        let mut map: HashMap<WorkloadSpec, u32> = HashMap::new();
        map.insert(spec(), 1);
        // Identical parameters hit the same entry...
        assert_eq!(map.get(&spec()), Some(&1));
        // ...while any parameter difference (trace length, seed, a float
        // knob) is a distinct key.
        assert!(!map.contains_key(&spec().with_accesses(2000)));
        assert!(!map.contains_key(&spec().with_seed(2)));
        let mut warped = spec();
        warped.p_repeat += 1e-9;
        assert!(!map.contains_key(&warped));
    }

    #[test]
    fn negative_zero_hashes_like_the_positive_zero_it_equals() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut pos = spec();
        pos.p_noise = 0.0;
        let mut neg = spec();
        neg.p_noise = -0.0;
        assert_eq!(pos, neg, "== treats the zeros as equal");
        let digest = |s: &WorkloadSpec| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&pos), digest(&neg), "so Hash must agree");
    }

    #[test]
    fn fingerprint_tracks_every_generator_parameter() {
        use std::hash::Hash as _;
        let fingerprint = |spec: &WorkloadSpec| {
            let mut fp = stms_types::Fingerprinter::new();
            spec.hash(&mut fp);
            fp.finish()
        };
        // Identical specs fingerprint identically…
        assert_eq!(fingerprint(&spec()), fingerprint(&spec()));
        // …and a change to any one field is a different key.
        let variations: [fn(&mut WorkloadSpec); 17] = [
            |s| s.name.push('2'),
            |s| s.class = WorkloadClass::Sci,
            |s| s.cores += 1,
            |s| s.accesses += 1,
            |s| s.p_repeat += 1e-9,
            |s| s.stream_len = LengthDist::Fixed(11),
            |s| s.max_pool_streams += 1,
            |s| s.shared_pool = !s.shared_pool,
            |s| s.p_noise += 1e-9,
            |s| s.scan_run += 1,
            |s| s.hot_fraction += 1e-9,
            |s| s.hot_lines += 1,
            |s| s.p_dependent += 1e-9,
            |s| s.mean_gap += 1,
            |s| s.p_divergence += 1e-9,
            |s| s.p_write += 1e-9,
            |s| s.seed += 1,
        ];
        for (field, vary) in variations.iter().enumerate() {
            let mut variant = spec();
            vary(&mut variant);
            assert_ne!(fingerprint(&spec()), fingerprint(&variant), "field {field}");
        }
    }

    #[test]
    fn class_display() {
        assert_eq!(WorkloadClass::Web.to_string(), "Web");
        assert_eq!(WorkloadClass::Oltp.to_string(), "OLTP");
        assert_eq!(WorkloadClass::Dss.to_string(), "DSS");
        assert_eq!(WorkloadClass::Sci.to_string(), "Sci");
    }
}
