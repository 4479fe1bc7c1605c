//! Main-memory channel model: latency, bandwidth occupancy and a two-priority
//! scheduling policy.
//!
//! Demand fetches are high priority; all prefetcher-related traffic (prefetch
//! data, meta-data lookups, updates and history-buffer writes) is low
//! priority, matching the paper's observation (§4.3) that "assigning a low
//! priority to predictor memory traffic is essential to minimize
//! queueing-related stalls". Low-priority transfers never delay demand
//! transfers but do compete with each other, so meta-data traffic bursts make
//! prefetches arrive later (which the coverage accounting observes as
//! partially-covered misses).

use crate::config::DramConfig;
use std::fmt;
use stms_types::Cycle;

/// Classification of memory traffic, used both for scheduling priority and
/// for the traffic-overhead breakdown of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Demand cache-line fetch triggered by an off-chip miss.
    DemandFill,
    /// Dirty line written back to memory.
    Writeback,
    /// Line fetched by the baseline stride prefetcher (part of the base
    /// system, not counted as temporal-streaming overhead).
    StridePrefetch,
    /// Line fetched by the temporal-streaming prefetcher.
    PrefetchData,
    /// Index-table or history-buffer read performed during a lookup.
    MetaLookup,
    /// Index-table read-modify-write performed during an update.
    MetaUpdate,
    /// History-buffer append (recording the miss sequence).
    MetaRecord,
}

impl TrafficClass {
    /// All traffic classes, in display order.
    pub const ALL: [TrafficClass; 7] = [
        TrafficClass::DemandFill,
        TrafficClass::Writeback,
        TrafficClass::StridePrefetch,
        TrafficClass::PrefetchData,
        TrafficClass::MetaLookup,
        TrafficClass::MetaUpdate,
        TrafficClass::MetaRecord,
    ];

    /// Whether this class is scheduled at demand (high) priority.
    pub fn is_high_priority(self) -> bool {
        matches!(self, TrafficClass::DemandFill | TrafficClass::Writeback)
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::DemandFill => "demand",
            TrafficClass::Writeback => "writeback",
            TrafficClass::StridePrefetch => "stride",
            TrafficClass::PrefetchData => "prefetch-data",
            TrafficClass::MetaLookup => "meta-lookup",
            TrafficClass::MetaUpdate => "meta-update",
            TrafficClass::MetaRecord => "meta-record",
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Byte counters per traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Bytes transferred for demand fills.
    pub demand_fill: u64,
    /// Bytes transferred for writebacks.
    pub writeback: u64,
    /// Bytes transferred by the stride prefetcher.
    pub stride_prefetch: u64,
    /// Bytes transferred for temporal-streaming prefetch data.
    pub prefetch_data: u64,
    /// Bytes transferred for meta-data lookups.
    pub meta_lookup: u64,
    /// Bytes transferred for meta-data (index) updates.
    pub meta_update: u64,
    /// Bytes transferred for history-buffer recording.
    pub meta_record: u64,
}

impl TrafficStats {
    /// Adds `bytes` to the counter for `class`.
    pub fn add(&mut self, class: TrafficClass, bytes: u64) {
        match class {
            TrafficClass::DemandFill => self.demand_fill += bytes,
            TrafficClass::Writeback => self.writeback += bytes,
            TrafficClass::StridePrefetch => self.stride_prefetch += bytes,
            TrafficClass::PrefetchData => self.prefetch_data += bytes,
            TrafficClass::MetaLookup => self.meta_lookup += bytes,
            TrafficClass::MetaUpdate => self.meta_update += bytes,
            TrafficClass::MetaRecord => self.meta_record += bytes,
        }
    }

    /// Returns the counter for `class`.
    pub fn get(&self, class: TrafficClass) -> u64 {
        match class {
            TrafficClass::DemandFill => self.demand_fill,
            TrafficClass::Writeback => self.writeback,
            TrafficClass::StridePrefetch => self.stride_prefetch,
            TrafficClass::PrefetchData => self.prefetch_data,
            TrafficClass::MetaLookup => self.meta_lookup,
            TrafficClass::MetaUpdate => self.meta_update,
            TrafficClass::MetaRecord => self.meta_record,
        }
    }

    /// Total bytes across all classes.
    pub fn total(&self) -> u64 {
        TrafficClass::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Bytes of base-system traffic (demand fills, writebacks and stride
    /// prefetches): the denominator of the overhead-per-useful-byte metric.
    pub fn base_system(&self) -> u64 {
        self.demand_fill + self.writeback + self.stride_prefetch
    }

    /// Bytes of temporal-streaming meta-data traffic (lookup + update +
    /// record).
    pub fn meta_total(&self) -> u64 {
        self.meta_lookup + self.meta_update + self.meta_record
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for class in TrafficClass::ALL {
            self.add(class, other.get(class));
        }
    }
}

/// The DRAM channel model.
///
/// # Example
///
/// ```
/// use stms_mem::{DramModel, SystemConfig, TrafficClass};
/// use stms_types::Cycle;
///
/// let cfg = SystemConfig::hpca09_baseline();
/// let mut dram = DramModel::new(cfg.dram);
/// let done = dram.access(TrafficClass::DemandFill, 64, Cycle::new(1000));
/// assert_eq!(done.raw(), 1000 + 180);
/// assert_eq!(dram.traffic().demand_fill, 64);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    /// Cycle until which the channel is busy with demand-priority transfers.
    demand_busy_until: Cycle,
    /// Cycle until which the channel is busy counting low-priority transfers
    /// as well (always >= `demand_busy_until`).
    low_busy_until: Cycle,
    /// `cfg.transfer_cycles(cfg.transfer_bytes)`, the occupancy of the
    /// line-sized transfers nearly every access makes.
    line_transfer_cycles: u64,
    traffic: TrafficStats,
}

impl DramModel {
    /// Creates a DRAM channel.
    pub fn new(cfg: DramConfig) -> Self {
        DramModel {
            cfg,
            demand_busy_until: Cycle::ZERO,
            low_busy_until: Cycle::ZERO,
            line_transfer_cycles: cfg.transfer_cycles(cfg.transfer_bytes as u64),
            traffic: TrafficStats::default(),
        }
    }

    /// Configuration this channel was built with.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Performs an access of `bytes` bytes issued at `now`, returning the
    /// cycle at which the data is available.
    ///
    /// High-priority (demand) accesses queue only behind other high-priority
    /// transfers; low-priority accesses queue behind all traffic.
    pub fn access(&mut self, class: TrafficClass, bytes: u64, now: Cycle) -> Cycle {
        self.traffic.add(class, bytes);
        let transfer = if bytes == self.cfg.transfer_bytes as u64 {
            self.line_transfer_cycles
        } else {
            self.cfg.transfer_cycles(bytes)
        };
        if class.is_high_priority() {
            let start = now.max(self.demand_busy_until);
            let completion = start + self.cfg.latency_cycles;
            self.demand_busy_until = start + transfer;
            self.low_busy_until = self.low_busy_until.max(self.demand_busy_until);
            completion
        } else {
            let start = now.max(self.low_busy_until);
            let completion = start + self.cfg.latency_cycles;
            self.low_busy_until = start + transfer;
            completion
        }
    }

    /// Per-class byte counters accumulated so far.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn dram() -> DramModel {
        DramModel::new(SystemConfig::hpca09_baseline().dram)
    }

    #[test]
    fn uncontended_demand_access_takes_latency() {
        let mut d = dram();
        let done = d.access(TrafficClass::DemandFill, 64, Cycle::new(100));
        assert_eq!(done, Cycle::new(280));
    }

    #[test]
    fn back_to_back_demand_accesses_queue_on_bandwidth() {
        let mut d = dram();
        let first = d.access(TrafficClass::DemandFill, 64, Cycle::new(0));
        let second = d.access(TrafficClass::DemandFill, 64, Cycle::new(0));
        // The second transfer starts only after the first occupies the channel.
        assert_eq!(first, Cycle::new(180));
        assert!(second > first);
        assert_eq!(second, Cycle::new(10 + 180));
    }

    #[test]
    fn low_priority_never_delays_demand() {
        let mut d = dram();
        // Saturate the channel with low-priority traffic.
        for _ in 0..100 {
            d.access(TrafficClass::MetaUpdate, 128, Cycle::new(0));
        }
        let demand = d.access(TrafficClass::DemandFill, 64, Cycle::new(0));
        assert_eq!(
            demand,
            Cycle::new(180),
            "demand must not queue behind meta-data"
        );
    }

    #[test]
    fn demand_delays_low_priority() {
        let mut d = dram();
        for _ in 0..10 {
            d.access(TrafficClass::DemandFill, 64, Cycle::new(0));
        }
        let meta = d.access(TrafficClass::MetaLookup, 64, Cycle::new(0));
        assert!(meta > Cycle::new(180), "meta-data queues behind demand");
    }

    #[test]
    fn traffic_accounting_by_class() {
        let mut d = dram();
        d.access(TrafficClass::DemandFill, 64, Cycle::ZERO);
        d.access(TrafficClass::MetaUpdate, 128, Cycle::ZERO);
        d.access(TrafficClass::MetaLookup, 64, Cycle::ZERO);
        d.access(TrafficClass::PrefetchData, 64, Cycle::ZERO);
        d.access(TrafficClass::MetaRecord, 64, Cycle::ZERO);
        let t = d.traffic();
        assert_eq!(t.demand_fill, 64);
        assert_eq!(t.meta_update, 128);
        assert_eq!(t.meta_lookup, 64);
        assert_eq!(t.prefetch_data, 64);
        assert_eq!(t.meta_record, 64);
        assert_eq!(t.total(), 64 + 128 + 64 + 64 + 64);
        assert_eq!(t.base_system(), 64);
        assert_eq!(t.meta_total(), 128 + 64 + 64);
    }

    #[test]
    fn traffic_merge_adds_counters() {
        let mut a = TrafficStats::default();
        a.add(TrafficClass::DemandFill, 10);
        let mut b = TrafficStats::default();
        b.add(TrafficClass::DemandFill, 5);
        b.add(TrafficClass::Writeback, 7);
        a.merge(&b);
        assert_eq!(a.demand_fill, 15);
        assert_eq!(a.writeback, 7);
    }

    #[test]
    fn class_predicates() {
        assert!(TrafficClass::DemandFill.is_high_priority());
        assert!(TrafficClass::Writeback.is_high_priority());
        assert!(!TrafficClass::MetaLookup.is_high_priority());
        for c in TrafficClass::ALL {
            assert!(!c.label().is_empty());
            assert_eq!(c.to_string(), c.label());
        }
    }
}
