//! Experiment-level configuration: the scaled system model and simulation
//! options shared by every reproduced figure.
//!
//! The paper's workloads have multi-gigabyte footprints and are simulated for
//! billions of instructions; this reproduction scales both the workloads
//! (`stms-workloads` presets) and the cache/predictor capacities down by
//! roughly an order of magnitude so that every figure regenerates in seconds
//! on a laptop. The *ratios* that drive the paper's conclusions (footprint vs
//! L2 capacity, history size vs reuse distance, index size vs distinct miss
//! addresses, meta-data traffic vs demand traffic) are preserved.

use stms_mem::{SimOptions, SystemConfig};

/// Scale factor applied to capacity axes when reporting "paper-equivalent"
/// sizes: the synthetic footprints are roughly 16x smaller than the paper's
/// workloads, so a 2 MB history buffer here corresponds to a 32 MB buffer in
/// the paper.
pub const CAPACITY_SCALE: u64 = 16;

/// Configuration of one experiment campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The simulated system (caches, DRAM, cores).
    pub system: SystemConfig,
    /// Engine options (prefetch buffer size, lookahead, warm-up).
    pub sim: SimOptions,
    /// Trace length (accesses across all cores) for each workload.
    pub accesses: usize,
}

impl ExperimentConfig {
    /// The system model used by the experiments: the paper's 4-core CMP with
    /// the cache hierarchy scaled down to match the synthetic workloads'
    /// footprints (16 KB L1s, 256 KB shared L2).
    pub fn scaled_system() -> SystemConfig {
        let mut sys = SystemConfig::hpca09_baseline();
        sys.l1.capacity_bytes = 16 * 1024;
        sys.l2.capacity_bytes = 256 * 1024;
        sys
    }

    /// The default campaign: scaled system, 600 K accesses per workload, 30%
    /// warm-up (long enough to cover the first iteration of the scientific
    /// workloads, mirroring the paper's warmed checkpoints).
    pub fn scaled() -> Self {
        ExperimentConfig {
            system: Self::scaled_system(),
            sim: SimOptions {
                warmup_fraction: 0.3,
                ..SimOptions::default()
            },
            accesses: 600_000,
        }
    }

    /// A fast campaign for tests and micro-benchmarks (shorter traces, same
    /// system).
    pub fn quick() -> Self {
        ExperimentConfig {
            accesses: 60_000,
            ..Self::scaled()
        }
    }

    /// Returns a copy with a different trace length.
    pub fn with_accesses(mut self, accesses: usize) -> Self {
        self.accesses = accesses;
        self
    }

    /// Converts a scaled meta-data capacity in bytes to the
    /// "paper-equivalent" megabytes reported on the figures' axes.
    pub fn paper_equivalent_mb(&self, scaled_bytes: u64) -> f64 {
        (scaled_bytes * CAPACITY_SCALE) as f64 / (1024.0 * 1024.0)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_system_shrinks_caches_only() {
        let scaled = ExperimentConfig::scaled_system();
        let paper = SystemConfig::hpca09_baseline();
        assert!(scaled.l2.capacity_bytes < paper.l2.capacity_bytes);
        assert!(scaled.l1.capacity_bytes < paper.l1.capacity_bytes);
        assert_eq!(scaled.cores, paper.cores);
        assert_eq!(scaled.dram, paper.dram);
        // Geometry still valid (power-of-two sets).
        assert!(scaled.l1.sets().is_power_of_two());
        assert!(scaled.l2.sets().is_power_of_two());
    }

    #[test]
    fn quick_is_shorter_than_scaled() {
        assert!(ExperimentConfig::quick().accesses < ExperimentConfig::scaled().accesses);
        assert_eq!(ExperimentConfig::default(), ExperimentConfig::scaled());
    }

    #[test]
    fn paper_equivalent_scaling() {
        let cfg = ExperimentConfig::scaled();
        let mb = cfg.paper_equivalent_mb(2 * 1024 * 1024);
        assert!((mb - 32.0).abs() < 1e-9);
    }

    #[test]
    fn with_accesses_overrides() {
        assert_eq!(ExperimentConfig::scaled().with_accesses(123).accesses, 123);
    }
}
