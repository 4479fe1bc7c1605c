//! The Markov prefetcher of Joseph and Grunwald (pair-wise address
//! correlation), the simplest baseline discussed in §2.
//!
//! The hardware is a set-associative correlation table mapping a miss address
//! to a few recently-observed successor addresses. Each prediction covers at
//! most `successors` misses, so memory-level parallelism and lookahead
//! are limited — the key shortcoming that temporal streaming addresses.

use crate::correlation::{CorrelationTable, MAX_SUCCESSORS};
use stms_mem::{DramModel, Prefetcher, StreamChunk};
use stms_types::{CoreId, Cycle, LineAddr};

/// Configuration of the Markov prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarkovConfig {
    /// Number of cores (for per-core last-miss tracking).
    pub cores: usize,
    /// Total number of correlation-table entries.
    pub entries: usize,
    /// Table associativity.
    pub associativity: usize,
    /// Successors stored (and prefetched) per entry.
    pub successors: usize,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        MarkovConfig {
            cores: 4,
            entries: 64 * 1024,
            associativity: 8,
            successors: 2,
        }
    }
}

/// The pair-wise correlating (Markov) prefetcher.
///
/// # Example
///
/// ```
/// use stms_prefetch::{MarkovConfig, MarkovPrefetcher};
/// use stms_mem::{DramModel, Prefetcher, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let mut markov = MarkovPrefetcher::new(MarkovConfig { cores: 1, ..Default::default() });
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// let core = CoreId::new(0);
/// for l in [1u64, 2, 1, 2] {
///     markov.record(core, LineAddr::new(l), false, Cycle::ZERO, &mut dram);
/// }
/// let chunk = markov.on_trigger(core, LineAddr::new(1), Cycle::ZERO, &mut dram).unwrap();
/// assert_eq!(chunk.addresses, vec![LineAddr::new(2)]);
/// ```
#[derive(Debug)]
pub struct MarkovPrefetcher {
    table: CorrelationTable,
    last_miss: Vec<Option<LineAddr>>,
}

impl MarkovPrefetcher {
    /// Creates a Markov prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `associativity`, the
    /// resulting set count is not a power of two, `entries` exceeds
    /// `u32::MAX`, or `successors` is zero or above 65,535.
    pub fn new(cfg: MarkovConfig) -> Self {
        assert!(
            (1..=MAX_SUCCESSORS).contains(&cfg.successors),
            "successors must be between 1 and {MAX_SUCCESSORS}"
        );
        MarkovPrefetcher {
            table: CorrelationTable::new(cfg.entries, cfg.associativity, cfg.successors),
            last_miss: vec![None; cfg.cores],
        }
    }

    /// Number of valid correlation entries currently stored.
    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }
}

impl Prefetcher for MarkovPrefetcher {
    fn name(&self) -> &'static str {
        "markov"
    }

    fn on_trigger(
        &mut self,
        _core: CoreId,
        line: LineAddr,
        now: Cycle,
        _dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        let successors = self.table.lookup(line)?;
        Some(StreamChunk {
            addresses: successors.to_vec(),
            ready_at: now,
        })
    }

    fn next_chunk(&mut self, _core: CoreId, now: Cycle, _dram: &mut DramModel) -> StreamChunk {
        // Pair-wise correlation predicts only immediate successors; there is
        // never a second chunk.
        StreamChunk::empty(now)
    }

    fn record(
        &mut self,
        core: CoreId,
        line: LineAddr,
        _prefetched: bool,
        _now: Cycle,
        _dram: &mut DramModel,
    ) {
        if let Some(prev) = self.last_miss[core.index()] {
            if prev != line {
                self.table.push_front_unique(prev, line);
            }
        }
        self.last_miss[core.index()] = Some(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_mem::SystemConfig;

    fn dram() -> DramModel {
        DramModel::new(SystemConfig::hpca09_baseline().dram)
    }

    fn small() -> MarkovPrefetcher {
        MarkovPrefetcher::new(MarkovConfig {
            cores: 2,
            entries: 16,
            associativity: 2,
            successors: 2,
        })
    }

    fn record_seq(p: &mut MarkovPrefetcher, core: u16, lines: &[u64]) {
        let mut d = dram();
        for &l in lines {
            p.record(
                CoreId::new(core),
                LineAddr::new(l),
                false,
                Cycle::ZERO,
                &mut d,
            );
        }
    }

    #[test]
    fn learns_pairwise_successor() {
        let mut p = small();
        record_seq(&mut p, 0, &[10, 20, 30]);
        let mut d = dram();
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(10), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(c.addresses, vec![LineAddr::new(20)]);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(20), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(c.addresses, vec![LineAddr::new(30)]);
        assert!(p
            .on_trigger(CoreId::new(0), LineAddr::new(30), Cycle::ZERO, &mut d)
            .is_none());
        assert!(p.next_chunk(CoreId::new(0), Cycle::ZERO, &mut d).is_empty());
    }

    #[test]
    fn multiple_successors_most_recent_first() {
        let mut p = small();
        record_seq(&mut p, 0, &[1, 2, 1, 3]);
        let mut d = dram();
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(c.addresses, vec![LineAddr::new(3), LineAddr::new(2)]);
    }

    #[test]
    fn successor_list_is_bounded_and_deduplicated() {
        let mut p = small();
        record_seq(&mut p, 0, &[1, 2, 1, 3, 1, 4, 1, 2]);
        let mut d = dram();
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(c.addresses.len(), 2, "bounded to `successors`");
        assert_eq!(c.addresses[0], LineAddr::new(2), "most recent first");
    }

    #[test]
    fn per_core_training_is_separate() {
        let mut p = small();
        // Interleave two cores; correlations must not cross cores.
        let mut d = dram();
        for (core, line) in [(0u16, 1u64), (1, 100), (0, 2), (1, 200)] {
            p.record(
                CoreId::new(core),
                LineAddr::new(line),
                false,
                Cycle::ZERO,
                &mut d,
            );
        }
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(c.addresses, vec![LineAddr::new(2)]);
        let c = p
            .on_trigger(CoreId::new(1), LineAddr::new(100), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(c.addresses, vec![LineAddr::new(200)]);
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut p = small();
        record_seq(&mut p, 0, &(0..1000u64).collect::<Vec<_>>());
        assert!(p.occupancy() <= 16);
    }

    #[test]
    fn no_metadata_traffic_for_on_chip_table() {
        let mut p = small();
        let mut d = dram();
        p.record(CoreId::new(0), LineAddr::new(1), false, Cycle::ZERO, &mut d);
        p.record(CoreId::new(0), LineAddr::new(2), false, Cycle::ZERO, &mut d);
        let _ = p.on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().total(), 0);
    }

    #[test]
    #[should_panic(expected = "successors")]
    fn zero_successors_panics() {
        let _ = MarkovPrefetcher::new(MarkovConfig {
            successors: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "successors")]
    fn successors_beyond_the_count_field_panic() {
        let _ = MarkovPrefetcher::new(MarkovConfig {
            successors: usize::from(u16::MAX) + 1,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        let _ = MarkovPrefetcher::new(MarkovConfig {
            cores: 1,
            entries: 10,
            associativity: 3,
            successors: 1,
        });
    }
}
