//! Single-table, fixed-prefetch-depth correlation prefetchers.
//!
//! This family models the prior-work designs the paper contrasts with STMS:
//! a set-associative correlation table whose entries store a *fixed-length*
//! sequence of successor addresses (three to six in EBCP \[6\], ULMT \[23\] and
//! similar designs). A single lookup can prefetch at most `depth` blocks, so
//! long temporal streams are fragmented into many lookups (§5.4 and Figure 6,
//! right). The table can be placed on-chip (idealized, no meta-data traffic)
//! or off-chip (each lookup/update costs main-memory accesses), which is how
//! the EBCP-like and ULMT-like baselines of Figure 1 (right) are modelled.

use crate::correlation::{CorrelationTable, MAX_SUCCESSORS};
use std::collections::VecDeque;
use stms_mem::{DramModel, Prefetcher, StreamChunk, TrafficClass};
use stms_types::{CoreId, Cycle, LineAddr};

/// Where the correlation table lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TablePlacement {
    /// Idealized on-chip table: zero lookup latency, no meta-data traffic.
    OnChip,
    /// Main-memory table: each lookup and each update cost whole-cache-line
    /// accesses at low priority.
    OffChip {
        /// Memory accesses per predictor lookup.
        lookup_accesses: u32,
        /// Memory accesses per table update (read-modify-write).
        update_accesses: u32,
    },
}

/// Configuration of a fixed-depth correlation prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedDepthConfig {
    /// Number of cores.
    pub cores: usize,
    /// Total number of correlation-table entries.
    pub entries: usize,
    /// Table associativity.
    pub associativity: usize,
    /// Successor addresses stored per entry (the prefetch depth).
    pub depth: usize,
    /// Table placement.
    pub placement: TablePlacement,
}

impl FixedDepthConfig {
    /// An EBCP-like configuration: six-deep entries in main memory, one
    /// memory access per lookup and a read-modify-write (three accesses,
    /// as published) per update.
    pub fn ebcp_like(cores: usize) -> Self {
        FixedDepthConfig {
            cores,
            entries: 1 << 17,
            associativity: 8,
            depth: 6,
            placement: TablePlacement::OffChip {
                lookup_accesses: 1,
                update_accesses: 3,
            },
        }
    }

    /// A ULMT-like configuration: four-deep entries in main memory, one
    /// access per lookup, three per update.
    pub fn ulmt_like(cores: usize) -> Self {
        FixedDepthConfig {
            cores,
            entries: 1 << 17,
            associativity: 8,
            depth: 4,
            placement: TablePlacement::OffChip {
                lookup_accesses: 1,
                update_accesses: 3,
            },
        }
    }

    /// An idealized on-chip table with the given depth, used for the
    /// prefetch-depth sweep of Figure 6 (right) where only the fragmentation
    /// effect of bounded depth should be visible.
    pub fn on_chip_with_depth(cores: usize, depth: usize) -> Self {
        FixedDepthConfig {
            cores,
            entries: 1 << 20,
            associativity: 16,
            depth,
            placement: TablePlacement::OnChip,
        }
    }
}

impl Default for FixedDepthConfig {
    fn default() -> Self {
        FixedDepthConfig::ebcp_like(4)
    }
}

/// A single-table correlation prefetcher with bounded prefetch depth.
///
/// # Example
///
/// ```
/// use stms_prefetch::{FixedDepthConfig, FixedDepthPrefetcher};
/// use stms_mem::{DramModel, Prefetcher, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let cfg = FixedDepthConfig::on_chip_with_depth(1, 2);
/// let mut pf = FixedDepthPrefetcher::new(cfg);
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// let core = CoreId::new(0);
/// for l in [1u64, 2, 3, 4] {
///     pf.record(core, LineAddr::new(l), false, Cycle::ZERO, &mut dram);
/// }
/// let chunk = pf.on_trigger(core, LineAddr::new(1), Cycle::ZERO, &mut dram).unwrap();
/// // Depth 2: only two successors can be prefetched per lookup.
/// assert_eq!(chunk.addresses, vec![LineAddr::new(2), LineAddr::new(3)]);
/// ```
#[derive(Debug)]
pub struct FixedDepthPrefetcher {
    cfg: FixedDepthConfig,
    table: CorrelationTable,
    /// Per-core trailing window of recent misses used to fill entries: the
    /// entry for a miss M receives the next `depth` misses that follow M.
    recent: Vec<VecDeque<LineAddr>>,
}

impl FixedDepthPrefetcher {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (entries not a multiple of
    /// associativity, a non-power-of-two set count, or more than
    /// `u32::MAX` entries), or if `depth` is zero or above 65,535.
    pub fn new(cfg: FixedDepthConfig) -> Self {
        assert!(
            (1..=MAX_SUCCESSORS).contains(&cfg.depth),
            "depth must be between 1 and {MAX_SUCCESSORS}"
        );
        FixedDepthPrefetcher {
            cfg,
            table: CorrelationTable::new(cfg.entries, cfg.associativity, cfg.depth),
            // Built one by one: a cloned `VecDeque` drops the capacity.
            recent: (0..cfg.cores)
                .map(|_| VecDeque::with_capacity(cfg.depth + 1))
                .collect(),
        }
    }

    /// The configured prefetch depth.
    pub fn depth(&self) -> usize {
        self.cfg.depth
    }

    /// Number of correlation entries currently stored.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    fn charge_meta(
        &self,
        accesses: u32,
        now: Cycle,
        dram: &mut DramModel,
        class: TrafficClass,
    ) -> Cycle {
        let mut done = now;
        for _ in 0..accesses {
            done = dram.access(class, 64, done);
        }
        done
    }
}

impl Prefetcher for FixedDepthPrefetcher {
    fn name(&self) -> &'static str {
        match self.cfg.placement {
            TablePlacement::OnChip => "fixed-depth-onchip",
            TablePlacement::OffChip { .. } => "fixed-depth-offchip",
        }
    }

    fn on_trigger(
        &mut self,
        _core: CoreId,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        let ready_at = match self.cfg.placement {
            TablePlacement::OnChip => now,
            TablePlacement::OffChip {
                lookup_accesses, ..
            } => self.charge_meta(lookup_accesses, now, dram, TrafficClass::MetaLookup),
        };
        let successors = self.table.lookup(line)?;
        Some(StreamChunk {
            addresses: successors.to_vec(),
            ready_at,
        })
    }

    fn next_chunk(&mut self, _core: CoreId, now: Cycle, _dram: &mut DramModel) -> StreamChunk {
        // The defining limitation of single-table designs: a lookup yields at
        // most `depth` addresses and the stream cannot be extended.
        StreamChunk::empty(now)
    }

    fn record(
        &mut self,
        core: CoreId,
        line: LineAddr,
        _prefetched: bool,
        now: Cycle,
        dram: &mut DramModel,
    ) {
        // Feed this miss into the entries of the preceding `depth` misses.
        for &trigger in &self.recent[core.index()] {
            self.table.append(trigger, line);
        }
        // Update traffic: one table update per recorded miss (read-modify-write
        // of the trigger entry) for off-chip placements.
        if let TablePlacement::OffChip {
            update_accesses, ..
        } = self.cfg.placement
        {
            self.charge_meta(update_accesses, now, dram, TrafficClass::MetaUpdate);
        }
        let recent = &mut self.recent[core.index()];
        recent.push_back(line);
        if recent.len() > self.cfg.depth {
            recent.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_mem::SystemConfig;

    fn dram() -> DramModel {
        DramModel::new(SystemConfig::hpca09_baseline().dram)
    }

    fn record_seq(p: &mut FixedDepthPrefetcher, core: u16, lines: &[u64], dram: &mut DramModel) {
        for &l in lines {
            p.record(
                CoreId::new(core),
                LineAddr::new(l),
                false,
                Cycle::ZERO,
                dram,
            );
        }
    }

    #[test]
    fn depth_limits_predicted_sequence() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(1, 3));
        let mut d = dram();
        record_seq(&mut p, 0, &[1, 2, 3, 4, 5, 6, 7], &mut d);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(
            c.addresses,
            vec![LineAddr::new(2), LineAddr::new(3), LineAddr::new(4)]
        );
        assert!(p.next_chunk(CoreId::new(0), Cycle::ZERO, &mut d).is_empty());
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn on_chip_lookup_is_free_and_immediate() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(1, 2));
        let mut d = dram();
        record_seq(&mut p, 0, &[1, 2, 3], &mut d);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::new(55), &mut d)
            .unwrap();
        assert_eq!(c.ready_at, Cycle::new(55));
        assert_eq!(d.traffic().total(), 0);
        assert_eq!(p.name(), "fixed-depth-onchip");
    }

    #[test]
    fn off_chip_lookup_and_update_cost_memory_traffic() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::ebcp_like(1));
        let mut d = dram();
        record_seq(&mut p, 0, &[1, 2, 3], &mut d);
        assert_eq!(
            d.traffic().meta_update,
            3 * 3 * 64,
            "3 updates x 3 accesses x 64B"
        );
        let before = d.traffic().meta_lookup;
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::new(0), &mut d)
            .unwrap();
        assert!(
            c.ready_at >= Cycle::new(180),
            "off-chip lookup takes at least one DRAM latency"
        );
        assert_eq!(d.traffic().meta_lookup, before + 64);
        assert_eq!(p.name(), "fixed-depth-offchip");
    }

    #[test]
    fn unknown_trigger_returns_none_but_still_counts_lookup() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::ebcp_like(1));
        let mut d = dram();
        assert!(p
            .on_trigger(CoreId::new(0), LineAddr::new(9), Cycle::ZERO, &mut d)
            .is_none());
        // The off-chip table is read whether or not it holds the trigger.
        assert_eq!(d.traffic().meta_lookup, 64);
    }

    #[test]
    fn recurrence_with_same_successors_is_predicted() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(1, 4));
        let mut d = dram();
        // The stream A B C D recurs; the entry for A accumulates B C D.
        record_seq(&mut p, 0, &[10, 11, 12, 13, 99, 10, 11, 12, 13], &mut d);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(10), Cycle::ZERO, &mut d)
            .unwrap();
        assert!(c.addresses.starts_with(&[
            LineAddr::new(11),
            LineAddr::new(12),
            LineAddr::new(13)
        ]));
    }

    #[test]
    fn per_core_windows_do_not_mix() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(2, 2));
        let mut d = dram();
        p.record(CoreId::new(0), LineAddr::new(1), false, Cycle::ZERO, &mut d);
        p.record(
            CoreId::new(1),
            LineAddr::new(50),
            false,
            Cycle::ZERO,
            &mut d,
        );
        p.record(CoreId::new(0), LineAddr::new(2), false, Cycle::ZERO, &mut d);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(c.addresses, vec![LineAddr::new(2)]);
        assert!(p
            .on_trigger(CoreId::new(1), LineAddr::new(50), Cycle::ZERO, &mut d)
            .is_none());
    }

    #[test]
    fn presets_have_expected_shapes() {
        let e = FixedDepthConfig::ebcp_like(4);
        let u = FixedDepthConfig::ulmt_like(4);
        assert_eq!(e.depth, 6);
        assert_eq!(u.depth, 4);
        assert!(matches!(e.placement, TablePlacement::OffChip { .. }));
        assert_eq!(FixedDepthConfig::default(), FixedDepthConfig::ebcp_like(4));
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_panics() {
        let mut cfg = FixedDepthConfig::on_chip_with_depth(1, 1);
        cfg.depth = 0;
        let _ = FixedDepthPrefetcher::new(cfg);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn depth_beyond_the_count_field_panics() {
        let mut cfg = FixedDepthConfig::on_chip_with_depth(1, 1);
        cfg.depth = usize::from(u16::MAX) + 1;
        let _ = FixedDepthPrefetcher::new(cfg);
    }
}
