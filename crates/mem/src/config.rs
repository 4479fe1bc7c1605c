//! System model configuration (the paper's Table 1).

use std::hash::{Hash, Hasher};
use stms_types::hash::hash_f64;
use stms_types::Cycle;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access (hit) latency in core cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of cache lines the cache can hold.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lines() / self.associativity
    }
}

/// Main-memory (DRAM channel) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Uncontended access latency in core cycles.
    pub latency_cycles: u64,
    /// Peak transfer bandwidth in bytes per core cycle.
    pub bytes_per_cycle: f64,
    /// Transfer granularity in bytes (one cache line).
    pub transfer_bytes: usize,
}

// `DramConfig` and `CoreConfig` hold floats, which compare with `==` and
// hash through `hash_f64`; the exhaustive destructuring fails to compile
// until a new field is hashed.
impl Eq for DramConfig {}

impl Hash for DramConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let DramConfig {
            latency_cycles,
            bytes_per_cycle,
            transfer_bytes,
        } = self;
        latency_cycles.hash(state);
        hash_f64(*bytes_per_cycle, state);
        transfer_bytes.hash(state);
    }
}

impl DramConfig {
    /// Cycles the channel is occupied by one transfer of `bytes`.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        ((bytes as f64) / self.bytes_per_cycle).ceil() as u64
    }
}

/// Per-core out-of-order window parameters used by the timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Reorder-buffer size in instructions; off-chip misses more than this
    /// many instructions apart cannot overlap.
    pub rob_size: u64,
    /// Maximum outstanding off-chip misses per core (L1 MSHRs).
    pub mshrs: usize,
    /// Core clock frequency in GHz (used only to convert DRAM nanoseconds).
    pub freq_ghz: f64,
}

impl Eq for CoreConfig {}

impl Hash for CoreConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let CoreConfig {
            rob_size,
            mshrs,
            freq_ghz,
        } = self;
        rob_size.hash(state);
        mshrs.hash(state);
        hash_f64(*freq_ghz, state);
    }
}

/// Stride-prefetcher configuration for the baseline system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrideConfig {
    /// Number of concurrently tracked strided streams.
    pub streams: usize,
    /// Prefetch degree: how many lines ahead are fetched once a stride locks.
    pub degree: usize,
    /// Number of identical deltas required before prefetching begins.
    pub confidence: u32,
}

/// Complete system model configuration (Table 1 of the paper).
///
/// # Example
///
/// ```
/// use stms_mem::SystemConfig;
/// let cfg = SystemConfig::hpca09_baseline();
/// assert_eq!(cfg.cores, 4);
/// assert_eq!(cfg.dram.latency_cycles, 180); // 45 ns at 4 GHz
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Number of cores on the chip.
    pub cores: usize,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// Main memory channel.
    pub dram: DramConfig,
    /// Core window parameters.
    pub core: CoreConfig,
    /// Baseline stride prefetcher.
    pub stride: StrideConfig,
}

impl SystemConfig {
    /// The 4-core CMP configuration from Table 1 of the paper: 64 KB 2-way
    /// L1s (2-cycle), 8 MB 16-way shared L2 (20-cycle), 3 GB memory at 45 ns
    /// and 28.4 GB/s, 4 GHz cores with 96-entry ROB and a 32-entry stride
    /// prefetcher.
    pub fn hpca09_baseline() -> Self {
        let freq_ghz = 4.0;
        SystemConfig {
            cores: 4,
            l1: CacheConfig {
                capacity_bytes: 64 * 1024,
                associativity: 2,
                line_bytes: 64,
                hit_latency: 2,
            },
            l2: CacheConfig {
                capacity_bytes: 8 * 1024 * 1024,
                associativity: 16,
                line_bytes: 64,
                hit_latency: 20,
            },
            dram: DramConfig {
                latency_cycles: Cycle::from_nanos(45.0, freq_ghz),
                // 28.4 GB/s at 4 GHz = 7.1 bytes per core cycle.
                bytes_per_cycle: 28.4 / freq_ghz,
                transfer_bytes: 64,
            },
            core: CoreConfig {
                rob_size: 96,
                mshrs: 32,
                freq_ghz,
            },
            stride: StrideConfig {
                streams: 32,
                degree: 2,
                confidence: 2,
            },
        }
    }

    /// A scaled-down configuration for fast unit tests: tiny caches so that
    /// short synthetic traces still produce off-chip misses.
    pub fn tiny_for_tests() -> Self {
        let mut cfg = Self::hpca09_baseline();
        cfg.l1.capacity_bytes = 4 * 1024;
        cfg.l2.capacity_bytes = 64 * 1024;
        cfg
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::hpca09_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let cfg = SystemConfig::hpca09_baseline();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.l1.capacity_bytes, 64 * 1024);
        assert_eq!(cfg.l1.associativity, 2);
        assert_eq!(cfg.l1.hit_latency, 2);
        assert_eq!(cfg.l2.capacity_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.l2.associativity, 16);
        assert_eq!(cfg.l2.hit_latency, 20);
        assert_eq!(cfg.core.rob_size, 96);
        assert_eq!(cfg.stride.streams, 32);
        assert_eq!(cfg.dram.latency_cycles, 180);
    }

    #[test]
    fn cache_geometry_derivations() {
        let cfg = SystemConfig::hpca09_baseline();
        assert_eq!(cfg.l1.lines(), 1024);
        assert_eq!(cfg.l1.sets(), 512);
        assert_eq!(cfg.l2.lines(), 131072);
        assert_eq!(cfg.l2.sets(), 8192);
    }

    #[test]
    fn dram_transfer_cycles_rounds_up() {
        let cfg = SystemConfig::hpca09_baseline();
        let cycles = cfg.dram.transfer_cycles(64);
        // 64 bytes at 7.1 B/cycle is just over 9 cycles.
        assert_eq!(cycles, 10);
        assert_eq!(cfg.dram.transfer_cycles(0), 0);
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(SystemConfig::default(), SystemConfig::hpca09_baseline());
    }

    #[test]
    fn tiny_config_is_smaller() {
        let tiny = SystemConfig::tiny_for_tests();
        assert!(tiny.l2.capacity_bytes < SystemConfig::hpca09_baseline().l2.capacity_bytes);
    }
}
