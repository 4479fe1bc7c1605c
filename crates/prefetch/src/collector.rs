//! A pseudo-prefetcher that records the off-chip read-miss sequence of the
//! baseline system.
//!
//! Several analyses need the raw miss stream rather than aggregate counters:
//! the temporal-stream length CDF of Figure 6 (left), the
//! correlation-table-entries sweep of Figure 1 (left) and the MLP analysis of
//! Table 2 all start from it. Running the simulation engine with a
//! [`MissTraceCollector`] yields exactly the miss addresses that a temporal
//! prefetcher would observe, in order, per core.

use stms_mem::{DramModel, Prefetcher, StreamChunk};
use stms_types::{CoreId, Cycle, LineAddr};

/// Records every off-chip demand read miss without prefetching anything.
///
/// # Example
///
/// ```
/// use stms_prefetch::MissTraceCollector;
/// use stms_mem::{DramModel, Prefetcher, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let mut collector = MissTraceCollector::new(2);
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// collector.record(CoreId::new(0), LineAddr::new(7), false, Cycle::ZERO, &mut dram);
/// collector.record(CoreId::new(1), LineAddr::new(9), false, Cycle::ZERO, &mut dram);
/// assert_eq!(collector.misses().len(), 2);
/// assert_eq!(collector.per_core(CoreId::new(1)), vec![LineAddr::new(9)]);
/// ```
#[derive(Debug, Clone)]
pub struct MissTraceCollector {
    cores: usize,
    misses: Vec<(CoreId, LineAddr)>,
}

impl MissTraceCollector {
    /// Creates a collector for a system with `cores` cores.
    pub fn new(cores: usize) -> Self {
        MissTraceCollector {
            cores,
            misses: Vec::new(),
        }
    }

    /// All recorded off-chip read misses in global order.
    pub fn misses(&self) -> &[(CoreId, LineAddr)] {
        &self.misses
    }

    /// The miss sequence of one core.
    pub fn per_core(&self, core: CoreId) -> Vec<LineAddr> {
        self.misses
            .iter()
            .filter(|(c, _)| *c == core)
            .map(|&(_, l)| l)
            .collect()
    }

    /// The miss sequences of every core, indexed by core id.
    pub fn all_cores(&self) -> Vec<Vec<LineAddr>> {
        (0..self.cores)
            .map(|c| self.per_core(CoreId::new(c as u16)))
            .collect()
    }
}

impl Prefetcher for MissTraceCollector {
    fn name(&self) -> &'static str {
        "miss-collector"
    }

    fn on_trigger(
        &mut self,
        _core: CoreId,
        _line: LineAddr,
        _now: Cycle,
        _dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        None
    }

    fn next_chunk(&mut self, _core: CoreId, now: Cycle, _dram: &mut DramModel) -> StreamChunk {
        StreamChunk::empty(now)
    }

    fn record(
        &mut self,
        core: CoreId,
        line: LineAddr,
        prefetched: bool,
        _now: Cycle,
        _dram: &mut DramModel,
    ) {
        debug_assert!(
            !prefetched,
            "a collector never prefetches, so hits cannot be prefetched"
        );
        self.misses.push((core, line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_mem::SystemConfig;

    #[test]
    fn collects_in_order_and_per_core() {
        let mut c = MissTraceCollector::new(2);
        let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
        for (core, line) in [(0u16, 1u64), (1, 2), (0, 3), (1, 4)] {
            c.record(
                CoreId::new(core),
                LineAddr::new(line),
                false,
                Cycle::ZERO,
                &mut dram,
            );
        }
        assert_eq!(c.misses().len(), 4);
        assert_eq!(
            c.per_core(CoreId::new(0)),
            vec![LineAddr::new(1), LineAddr::new(3)]
        );
        assert_eq!(c.all_cores().len(), 2);
        assert_eq!(c.all_cores()[1], vec![LineAddr::new(2), LineAddr::new(4)]);
        assert_eq!(c.name(), "miss-collector");
    }

    #[test]
    fn never_returns_streams() {
        let mut c = MissTraceCollector::new(1);
        let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
        assert!(c
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut dram)
            .is_none());
        assert!(c
            .next_chunk(CoreId::new(0), Cycle::ZERO, &mut dram)
            .is_empty());
        assert_eq!(dram.traffic().total(), 0);
    }
}
