//! STMS configuration.

/// Configuration of the Sampled Temporal Memory Streaming prefetcher.
///
/// The defaults mirror the paper's design points: 64-byte index-table buckets
/// holding 12 `{address, history pointer}` pairs, history-buffer writes
/// packed 12 entries per block, an 8 KB on-chip bucket buffer and a 12.5%
/// index-update sampling probability (§4.3–§5.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StmsConfig {
    /// Number of cores (one private history buffer per core; the index table
    /// is shared).
    pub cores: usize,
    /// History-buffer capacity per core, in entries (miss addresses).
    pub history_entries_per_core: usize,
    /// History entries packed into one 64-byte memory block (write
    /// accumulation and read granularity).
    pub entries_per_history_block: usize,
    /// Number of hash buckets in the shared index table. Each bucket is one
    /// 64-byte memory block.
    pub index_buckets: usize,
    /// `{address, pointer}` pairs per bucket (12 in the paper).
    pub entries_per_bucket: usize,
    /// Capacity of the on-chip bucket buffer, in buckets (128 x 64 B = 8 KB).
    pub bucket_buffer_blocks: usize,
    /// Probability that a potential index-table update is actually performed
    /// (probabilistic update, §4.4). `1.0` disables sampling.
    pub sampling_probability: f64,
    /// Seed of the deterministic sampling sequence.
    pub sampling_seed: u64,
}

// Floats compare with `==` and hash through `hash_f64`; the exhaustive
// destructuring fails to compile until a new field is hashed.
impl Eq for StmsConfig {}

impl std::hash::Hash for StmsConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let StmsConfig {
            cores,
            history_entries_per_core,
            entries_per_history_block,
            index_buckets,
            entries_per_bucket,
            bucket_buffer_blocks,
            sampling_probability,
            sampling_seed,
        } = self;
        cores.hash(state);
        history_entries_per_core.hash(state);
        entries_per_history_block.hash(state);
        index_buckets.hash(state);
        entries_per_bucket.hash(state);
        bucket_buffer_blocks.hash(state);
        stms_types::hash::hash_f64(*sampling_probability, state);
        sampling_seed.hash(state);
    }
}

impl StmsConfig {
    /// The paper's full-scale design point: 64 MB of main-memory meta-data
    /// (roughly 32 MB of history buffers plus a 16 MB index table), 12.5%
    /// update sampling.
    pub fn paper_default() -> Self {
        StmsConfig {
            cores: 4,
            // 32 MB of history across 4 cores at 4 bytes per entry.
            history_entries_per_core: 2 * 1024 * 1024,
            entries_per_history_block: 12,
            // 16 MB of index table in 64-byte buckets.
            index_buckets: 256 * 1024,
            entries_per_bucket: 12,
            bucket_buffer_blocks: 128,
            sampling_probability: 0.125,
            sampling_seed: 0x57A7_15ED_5EED_0001,
        }
    }

    /// A design point scaled to the reproduction's synthetic workloads
    /// (footprints roughly an order of magnitude smaller than the paper's
    /// full-system traces); meta-data capacities shrink by the same factor.
    pub fn scaled_default() -> Self {
        StmsConfig {
            history_entries_per_core: 128 * 1024,
            index_buckets: 16 * 1024,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different sampling probability.
    pub fn with_sampling(mut self, probability: f64) -> Self {
        self.sampling_probability = probability;
        self
    }

    /// Returns a copy with a different per-core history capacity (in
    /// entries).
    pub fn with_history_entries(mut self, entries: usize) -> Self {
        self.history_entries_per_core = entries;
        self
    }

    /// Returns a copy with a different index-table size (in buckets).
    pub fn with_index_buckets(mut self, buckets: usize) -> Self {
        self.index_buckets = buckets;
        self
    }

    /// Total main-memory meta-data footprint in bytes (history buffers plus
    /// index table), assuming 4-byte history entries and 64-byte buckets.
    pub fn metadata_bytes(&self) -> u64 {
        let history = self.cores as u64 * self.history_entries_per_core as u64 * 4;
        let index = self.index_buckets as u64 * 64;
        history + index
    }

    /// On-chip storage required per core in bytes: the 2 KB prefetch buffer
    /// plus the (negligible) address queue, as discussed in §5.3.
    pub fn on_chip_bytes_per_core(&self) -> u64 {
        2048 + 128
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be non-zero".into());
        }
        if self.history_entries_per_core == 0 {
            return Err("history_entries_per_core must be non-zero".into());
        }
        if self.entries_per_history_block == 0 || self.entries_per_bucket == 0 {
            return Err("block/bucket entry counts must be non-zero".into());
        }
        if self.index_buckets == 0 {
            return Err("index_buckets must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.sampling_probability) {
            return Err(format!(
                "sampling_probability must be in [0,1], got {}",
                self.sampling_probability
            ));
        }
        Ok(())
    }
}

impl Default for StmsConfig {
    fn default() -> Self {
        Self::scaled_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_design_point() {
        let cfg = StmsConfig::paper_default();
        assert_eq!(cfg.entries_per_bucket, 12);
        assert_eq!(cfg.entries_per_history_block, 12);
        assert_eq!(
            cfg.bucket_buffer_blocks * 64,
            8 * 1024,
            "8 KB bucket buffer"
        );
        assert!((cfg.sampling_probability - 0.125).abs() < 1e-12);
        // 64 MB of meta-data: 32 MB history + 16 MB index.
        assert_eq!(cfg.metadata_bytes(), 32 * 1024 * 1024 + 16 * 1024 * 1024);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn scaled_default_is_smaller_but_valid() {
        let cfg = StmsConfig::scaled_default();
        assert!(cfg.metadata_bytes() < StmsConfig::paper_default().metadata_bytes());
        assert!(cfg.validate().is_ok());
        assert_eq!(StmsConfig::default(), cfg);
    }

    #[test]
    fn builder_setters() {
        let cfg = StmsConfig::scaled_default()
            .with_sampling(0.5)
            .with_history_entries(1000)
            .with_index_buckets(64);
        assert_eq!(cfg.sampling_probability, 0.5);
        assert_eq!(cfg.history_entries_per_core, 1000);
        assert_eq!(cfg.index_buckets, 64);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(StmsConfig {
            cores: 0,
            ..StmsConfig::scaled_default()
        }
        .validate()
        .is_err());
        assert!(StmsConfig {
            sampling_probability: 1.5,
            ..StmsConfig::scaled_default()
        }
        .validate()
        .is_err());
        assert!(StmsConfig {
            index_buckets: 0,
            ..StmsConfig::scaled_default()
        }
        .validate()
        .is_err());
        assert!(StmsConfig {
            history_entries_per_core: 0,
            ..StmsConfig::scaled_default()
        }
        .validate()
        .is_err());
        assert!(StmsConfig {
            entries_per_bucket: 0,
            ..StmsConfig::scaled_default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn on_chip_storage_is_small() {
        let cfg = StmsConfig::paper_default();
        assert!(
            cfg.on_chip_bytes_per_core() < 4 * 1024,
            "per-core on-chip cost stays tiny"
        );
    }
}
