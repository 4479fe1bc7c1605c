//! The idealized temporal memory streaming prefetcher (TMS) used as the
//! upper bound in the paper (§5.2).
//!
//! The idealized prefetcher records the off-chip miss sequence of each core
//! in a "magic" on-chip history buffer with zero-latency, infinite-bandwidth
//! lookup, and maps every miss address to its most recent occurrence through
//! an index with either unbounded or LRU-bounded capacity (the bounded
//! variant backs the correlation-table-entries sweep of Figure 1, left).

use crate::history::HistoryLog;
use crate::lru_index::LruIndex;
use stms_mem::{DramModel, Prefetcher, StreamChunk};
use stms_types::hash::IntHashMap;
use stms_types::{CoreId, Cycle, LineAddr};

/// Configuration of the idealized TMS prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealTmsConfig {
    /// Number of cores (one history log per core).
    pub cores: usize,
    /// History entries retained per core.
    pub history_entries_per_core: usize,
    /// Bound on index entries (`None` = unbounded, the idealized setting).
    pub index_entries: Option<usize>,
    /// Number of addresses handed to the stream engine per chunk.
    pub chunk_size: usize,
}

impl Default for IdealTmsConfig {
    fn default() -> Self {
        IdealTmsConfig {
            cores: 4,
            history_entries_per_core: 1 << 22,
            index_entries: None,
            chunk_size: 32,
        }
    }
}

/// Cursor into another (or the same) core's history, used to keep following a
/// stream across chunks.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    src_core: usize,
    next_pos: u64,
}

/// The idealized temporal streaming prefetcher.
///
/// # Example
///
/// ```
/// use stms_prefetch::{IdealTms, IdealTmsConfig};
/// use stms_mem::{DramModel, Prefetcher, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let mut tms = IdealTms::new(IdealTmsConfig { cores: 1, ..Default::default() });
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// let core = CoreId::new(0);
/// // First occurrence of the stream A B C.
/// for l in [1u64, 2, 3] {
///     tms.record(core, LineAddr::new(l), false, Cycle::ZERO, &mut dram);
/// }
/// // On the recurrence of A, the predictor streams B and C.
/// let chunk = tms.on_trigger(core, LineAddr::new(1), Cycle::ZERO, &mut dram).unwrap();
/// assert_eq!(chunk.addresses, vec![LineAddr::new(2), LineAddr::new(3)]);
/// ```
#[derive(Debug)]
pub struct IdealTms {
    cfg: IdealTmsConfig,
    histories: Vec<HistoryLog>,
    /// Unbounded index (used when `index_entries` is `None`).
    index_unbounded: IntHashMap<LineAddr, u64>,
    /// Bounded LRU index (used when `index_entries` is `Some`).
    index_bounded: Option<LruIndex>,
    cursors: Vec<Option<Cursor>>,
}

impl IdealTms {
    /// Creates an idealized prefetcher.
    pub fn new(cfg: IdealTmsConfig) -> Self {
        assert!(cfg.cores > 0, "cores must be non-zero");
        IdealTms {
            cfg,
            histories: (0..cfg.cores)
                .map(|_| HistoryLog::new(cfg.history_entries_per_core))
                .collect(),
            index_unbounded: IntHashMap::default(),
            index_bounded: cfg.index_entries.map(LruIndex::new),
            cursors: vec![None; cfg.cores],
        }
    }

    /// Number of index entries currently stored.
    pub fn index_len(&self) -> usize {
        match &self.index_bounded {
            Some(idx) => idx.len(),
            None => self.index_unbounded.len(),
        }
    }

    fn encode(core: usize, pos: u64) -> u64 {
        (core as u64) << 48 | pos
    }

    fn decode(value: u64) -> (usize, u64) {
        ((value >> 48) as usize, value & ((1 << 48) - 1))
    }

    fn index_insert(&mut self, line: LineAddr, core: usize, pos: u64) {
        let value = Self::encode(core, pos);
        match &mut self.index_bounded {
            Some(idx) => {
                idx.insert(line, value);
            }
            None => {
                self.index_unbounded.insert(line, value);
            }
        }
    }

    fn index_get(&mut self, line: LineAddr) -> Option<(usize, u64)> {
        let value = match &mut self.index_bounded {
            Some(idx) => idx.get(line),
            None => self.index_unbounded.get(&line).copied(),
        }?;
        Some(Self::decode(value))
    }

    fn read_chunk(&mut self, core: CoreId) -> Vec<LineAddr> {
        let Some(cursor) = self.cursors[core.index()] else {
            return Vec::new();
        };
        let chunk = self.histories[cursor.src_core].read_from(cursor.next_pos, self.cfg.chunk_size);
        self.cursors[core.index()] = Some(Cursor {
            src_core: cursor.src_core,
            next_pos: cursor.next_pos + chunk.len() as u64,
        });
        chunk
    }
}

impl Prefetcher for IdealTms {
    fn name(&self) -> &'static str {
        if self.cfg.index_entries.is_some() {
            "ideal-tms-bounded"
        } else {
            "ideal-tms"
        }
    }

    fn on_trigger(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
        _dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        let (src_core, pos) = self.index_get(line)?;
        // Follow the sequence of misses that followed `line` last time.
        self.cursors[core.index()] = Some(Cursor {
            src_core,
            next_pos: pos + 1,
        });
        let addresses = self.read_chunk(core);
        if addresses.is_empty() {
            self.cursors[core.index()] = None;
            return None;
        }
        Some(StreamChunk {
            addresses,
            ready_at: now,
        })
    }

    fn next_chunk(&mut self, core: CoreId, now: Cycle, _dram: &mut DramModel) -> StreamChunk {
        let addresses = self.read_chunk(core);
        StreamChunk {
            addresses,
            ready_at: now,
        }
    }

    fn record(
        &mut self,
        core: CoreId,
        line: LineAddr,
        _prefetched: bool,
        _now: Cycle,
        _dram: &mut DramModel,
    ) {
        let pos = self.histories[core.index()].append(line);
        self.index_insert(line, core.index(), pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_mem::SystemConfig;

    fn dram() -> DramModel {
        DramModel::new(SystemConfig::hpca09_baseline().dram)
    }

    fn record_seq(tms: &mut IdealTms, core: CoreId, lines: &[u64]) {
        let mut d = dram();
        for &l in lines {
            tms.record(core, LineAddr::new(l), false, Cycle::ZERO, &mut d);
        }
    }

    #[test]
    fn trigger_without_history_finds_nothing() {
        let mut tms = IdealTms::new(IdealTmsConfig {
            cores: 2,
            ..Default::default()
        });
        let mut d = dram();
        assert!(tms
            .on_trigger(CoreId::new(0), LineAddr::new(5), Cycle::ZERO, &mut d)
            .is_none());
        assert_eq!(d.traffic().total(), 0);
    }

    #[test]
    fn stream_is_replayed_after_recording() {
        let mut tms = IdealTms::new(IdealTmsConfig {
            cores: 1,
            chunk_size: 2,
            ..Default::default()
        });
        record_seq(&mut tms, CoreId::new(0), &[10, 20, 30, 40, 50]);
        let mut d = dram();
        let chunk = tms
            .on_trigger(CoreId::new(0), LineAddr::new(10), Cycle::new(7), &mut d)
            .expect("index hit");
        assert_eq!(chunk.addresses, vec![LineAddr::new(20), LineAddr::new(30)]);
        assert_eq!(
            chunk.ready_at,
            Cycle::new(7),
            "idealized lookup has zero latency"
        );
        // Further chunks continue the stream until the history ends.
        let c2 = tms.next_chunk(CoreId::new(0), Cycle::new(8), &mut d);
        assert_eq!(c2.addresses, vec![LineAddr::new(40), LineAddr::new(50)]);
        let c3 = tms.next_chunk(CoreId::new(0), Cycle::new(9), &mut d);
        assert!(c3.is_empty());
        // No meta-data traffic for the idealized design.
        assert_eq!(d.traffic().total(), 0);
    }

    #[test]
    fn index_points_to_most_recent_occurrence() {
        let mut tms = IdealTms::new(IdealTmsConfig {
            cores: 1,
            ..Default::default()
        });
        // A appears twice with different successors; the later one wins.
        record_seq(&mut tms, CoreId::new(0), &[1, 2, 3, 1, 7, 8]);
        let mut d = dram();
        let chunk = tms
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(chunk.addresses[0], LineAddr::new(7));
    }

    #[test]
    fn cross_core_streams_are_found_via_shared_index() {
        let mut tms = IdealTms::new(IdealTmsConfig {
            cores: 2,
            ..Default::default()
        });
        record_seq(&mut tms, CoreId::new(0), &[100, 101, 102, 103]);
        let mut d = dram();
        // Core 1 misses on an address recorded by core 0.
        let chunk = tms
            .on_trigger(CoreId::new(1), LineAddr::new(100), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(chunk.addresses[0], LineAddr::new(101));
    }

    #[test]
    fn bounded_index_forgets_old_correlations() {
        let mut tms = IdealTms::new(IdealTmsConfig {
            cores: 1,
            index_entries: Some(4),
            ..Default::default()
        });
        record_seq(&mut tms, CoreId::new(0), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut d = dram();
        assert!(
            tms.on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
                .is_none(),
            "entry for 1 should have been evicted from a 4-entry index"
        );
        assert!(tms
            .on_trigger(CoreId::new(0), LineAddr::new(7), Cycle::ZERO, &mut d)
            .is_some());
        assert!(tms.index_len() <= 4);
        assert_eq!(tms.name(), "ideal-tms-bounded");
    }

    #[test]
    fn unbounded_name_and_stats() {
        let mut tms = IdealTms::new(IdealTmsConfig {
            cores: 1,
            ..Default::default()
        });
        assert_eq!(tms.name(), "ideal-tms");
        record_seq(&mut tms, CoreId::new(0), &[1, 2]);
        assert_eq!(tms.index_len(), 2);
    }

    #[test]
    fn trigger_at_end_of_history_returns_none() {
        let mut tms = IdealTms::new(IdealTmsConfig {
            cores: 1,
            ..Default::default()
        });
        record_seq(&mut tms, CoreId::new(0), &[1, 2, 3]);
        let mut d = dram();
        // 3 is the last recorded miss: there is no successor yet.
        assert!(tms
            .on_trigger(CoreId::new(0), LineAddr::new(3), Cycle::ZERO, &mut d)
            .is_none());
    }
}
