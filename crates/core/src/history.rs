//! Off-chip, per-core history buffers (§4.2).
//!
//! Each core logs its correct-path off-chip misses and prefetched hits in a
//! circular buffer allocated in main memory. To keep recording cheap, entries
//! are accumulated in a cache-block-sized write buffer and written to memory
//! as a group (one 64-byte write per `entries_per_block` appends). Reads
//! during stream-following fetch one block (up to `entries_per_block`
//! consecutive addresses) per main-memory access.
//!
//! The buffer also stores the *end-of-stream annotations* of §4.5: the entry
//! following the last contiguously-prefetched address of a followed stream is
//! marked, and later reads stop when they encounter a mark.

use stms_mem::{DramModel, TrafficClass};
use stms_prefetch::HistoryLog;
use stms_types::hash::IntHashSet;
use stms_types::{CoreId, Cycle, LineAddr};

/// One block read from a history buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryBlock {
    /// Addresses read, in history order (possibly truncated at an
    /// end-of-stream mark or at the log's write point).
    pub addresses: Vec<LineAddr>,
    /// Cycle at which the data is available (after the memory access).
    pub ready_at: Cycle,
    /// Whether the read stopped because it reached an end-of-stream mark.
    pub hit_end_mark: bool,
}

/// Per-core off-chip history buffers with write accumulation and
/// end-of-stream annotations.
///
/// # Example
///
/// ```
/// use stms_core::OffChipHistory;
/// use stms_mem::{DramModel, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// let mut history = OffChipHistory::new(1, 1024, 12);
/// let core = CoreId::new(0);
/// for i in 0..24u64 {
///     history.append(core, LineAddr::new(i), Cycle::ZERO, &mut dram);
/// }
/// // 24 appends = 2 packed 64-byte writes.
/// assert_eq!(dram.traffic().meta_record, 2 * 64);
/// let block = history.read_block(core, 0, Cycle::ZERO, &mut dram);
/// assert_eq!(block.addresses.len(), 12);
/// ```
#[derive(Debug)]
pub struct OffChipHistory {
    logs: Vec<HistoryLog>,
    end_marks: Vec<IntHashSet<u64>>,
    pending_writes: Vec<usize>,
    entries_per_block: usize,
}

impl OffChipHistory {
    /// Creates history buffers for `cores` cores, each retaining
    /// `entries_per_core` addresses, packed `entries_per_block` per memory
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(cores: usize, entries_per_core: usize, entries_per_block: usize) -> Self {
        assert!(cores > 0 && entries_per_core > 0 && entries_per_block > 0);
        OffChipHistory {
            logs: (0..cores)
                .map(|_| HistoryLog::new(entries_per_core))
                .collect(),
            end_marks: vec![IntHashSet::default(); cores],
            pending_writes: vec![0; cores],
            entries_per_block,
        }
    }

    /// Appends one address to `core`'s history, issuing a packed block write
    /// when the accumulation buffer fills. Returns the entry's position.
    pub fn append(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> u64 {
        let idx = core.index();
        let pos = self.logs[idx].append(line);
        self.pending_writes[idx] += 1;
        if self.pending_writes[idx] >= self.entries_per_block {
            dram.access(TrafficClass::MetaRecord, 64, now);
            self.pending_writes[idx] = 0;
        }
        pos
    }

    /// Reads one block (up to `entries_per_block` addresses) of `core`'s
    /// history starting at `pos`, stopping early at an end-of-stream mark or
    /// at the write point. Always costs one low-priority memory access.
    pub fn read_block(
        &mut self,
        core: CoreId,
        pos: u64,
        now: Cycle,
        dram: &mut DramModel,
    ) -> HistoryBlock {
        let idx = core.index();
        let ready_at = dram.access(TrafficClass::MetaLookup, 64, now);
        let (log, marks) = (&self.logs[idx], &self.end_marks[idx]);
        let mut addresses = Vec::with_capacity(self.entries_per_block);
        let mut hit_end_mark = false;
        for p in pos..pos.saturating_add(self.entries_per_block as u64) {
            let Some(line) = log.get(p) else { break };
            if marks.contains(&p) {
                hit_end_mark = true;
                break;
            }
            addresses.push(line);
        }
        HistoryBlock {
            addresses,
            ready_at,
            hit_end_mark,
        }
    }

    /// Marks `pos` in `core`'s history as the end of a followed stream
    /// (§4.5). Marking is an on-chip annotation and costs no traffic.
    pub fn mark_stream_end(&mut self, core: CoreId, pos: u64) {
        self.end_marks[core.index()].insert(pos);
    }

    /// Flushes partially-filled write-accumulation buffers (end of
    /// simulation).
    pub fn flush(&mut self, now: Cycle, dram: &mut DramModel) {
        for pending in &mut self.pending_writes {
            if *pending > 0 {
                dram.access(TrafficClass::MetaRecord, 64, now);
                *pending = 0;
            }
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

    #[test]
    fn record_traffic_is_amortized_over_block_size() {
        let mut d = dram();
        let mut h = OffChipHistory::new(2, 256, 12);
        for i in 0..23u64 {
            h.append(CoreId::new(0), LineAddr::new(i), Cycle::ZERO, &mut d);
        }
        assert_eq!(d.traffic().meta_record, 64, "only one full block so far");
        let pos = h.append(CoreId::new(0), LineAddr::new(99), Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_record, 2 * 64);
        assert_eq!(pos, 23);
    }

    #[test]
    fn flush_writes_partial_blocks() {
        let mut d = dram();
        let mut h = OffChipHistory::new(2, 256, 12);
        h.append(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d);
        h.append(CoreId::new(1), LineAddr::new(2), Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_record, 0);
        h.flush(Cycle::ZERO, &mut d);
        assert_eq!(
            d.traffic().meta_record,
            2 * 64,
            "one partial block per core"
        );
        // Flushing again writes nothing more.
        h.flush(Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_record, 2 * 64);
    }

    #[test]
    fn read_block_returns_consecutive_addresses_and_costs_one_access() {
        let mut d = dram();
        let mut h = OffChipHistory::new(1, 256, 4);
        for i in 0..10u64 {
            h.append(CoreId::new(0), LineAddr::new(100 + i), Cycle::ZERO, &mut d);
        }
        let lookups_before = d.traffic().meta_lookup;
        let block = h.read_block(CoreId::new(0), 2, Cycle::new(50), &mut d);
        assert_eq!(
            block.addresses,
            vec![
                LineAddr::new(102),
                LineAddr::new(103),
                LineAddr::new(104),
                LineAddr::new(105)
            ]
        );
        assert!(block.ready_at >= Cycle::new(50 + 180));
        assert!(!block.hit_end_mark);
        assert_eq!(d.traffic().meta_lookup, lookups_before + 64);
    }

    #[test]
    fn read_stops_at_end_mark() {
        let mut d = dram();
        let mut h = OffChipHistory::new(1, 256, 8);
        for i in 0..8u64 {
            h.append(CoreId::new(0), LineAddr::new(i), Cycle::ZERO, &mut d);
        }
        h.mark_stream_end(CoreId::new(0), 5);
        let block = h.read_block(CoreId::new(0), 3, Cycle::ZERO, &mut d);
        assert_eq!(block.addresses, vec![LineAddr::new(3), LineAddr::new(4)]);
        assert!(block.hit_end_mark);
    }

    #[test]
    fn read_past_write_point_truncates() {
        let mut d = dram();
        let mut h = OffChipHistory::new(1, 256, 12);
        h.append(CoreId::new(0), LineAddr::new(7), Cycle::ZERO, &mut d);
        let block = h.read_block(CoreId::new(0), 0, Cycle::ZERO, &mut d);
        assert_eq!(block.addresses, vec![LineAddr::new(7)]);
        let empty = h.read_block(CoreId::new(0), 5, Cycle::ZERO, &mut d);
        assert!(empty.addresses.is_empty());
    }

    #[test]
    fn per_core_positions_are_independent() {
        let mut d = dram();
        let mut h = OffChipHistory::new(2, 64, 4);
        assert_eq!(
            h.append(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d),
            0
        );
        assert_eq!(
            h.append(CoreId::new(1), LineAddr::new(2), Cycle::ZERO, &mut d),
            0
        );
        assert_eq!(
            h.append(CoreId::new(0), LineAddr::new(3), Cycle::ZERO, &mut d),
            1
        );
        assert_eq!(
            h.append(CoreId::new(1), LineAddr::new(4), Cycle::ZERO, &mut d),
            1
        );
    }

    #[test]
    fn old_entries_age_out_of_circular_buffer() {
        let mut d = dram();
        let mut h = OffChipHistory::new(1, 8, 4);
        for i in 0..20u64 {
            h.append(CoreId::new(0), LineAddr::new(i), Cycle::ZERO, &mut d);
        }
        let block = h.read_block(CoreId::new(0), 0, Cycle::ZERO, &mut d);
        assert!(
            block.addresses.is_empty(),
            "position 0 has been overwritten"
        );
        let recent = h.read_block(CoreId::new(0), 16, Cycle::ZERO, &mut d);
        assert_eq!(recent.addresses[0], LineAddr::new(16));
    }

    #[test]
    #[should_panic]
    fn zero_geometry_panics() {
        let _ = OffChipHistory::new(0, 10, 10);
    }
}
