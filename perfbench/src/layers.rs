//! Standalone probes of single layers, fed with a workload's own inputs.
//!
//! Each probe builds the layer's public structure by itself and replays
//! the inputs the simulator would hand it, timing every call. A call costs
//! a few nanoseconds, about as much as reading the clock, so each mean has
//! the calibrated cost of an empty timed region subtracted.

use crate::adapter::Observed;
use crate::inputs::stms_config;
use std::hint::black_box;
use std::time::Instant;
use stms_core::{HashIndexTable, HistoryPointer, OffChipHistory, UpdateSampler};
use stms_mem::{DramModel, PrefetchBuffer, SetAssocCache, SystemConfig};
use stms_types::{AccessKind, Trace};

/// Cost of timing an empty region, measured in this process.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// What an empty timed region reads, in ns.
    pub reading_ns: f64,
    /// Wall time one timed region adds around the timed code, in ns.
    pub overhead_ns: f64,
}

impl ClockCost {
    /// Measures both costs (the minimum over a few batches, which is the
    /// least disturbed estimate).
    pub fn calibrate() -> Self {
        const N: u32 = 200_000;
        let mut best = ClockCost {
            reading_ns: f64::MAX,
            overhead_ns: f64::MAX,
        };
        for _ in 0..5 {
            let mut read_sum = 0u128;
            let batch = Instant::now();
            for _ in 0..N {
                let started = Instant::now();
                read_sum += black_box(started.elapsed()).as_nanos();
            }
            let overhead = batch.elapsed().as_nanos() as f64 / f64::from(N);
            best.reading_ns = best.reading_ns.min(read_sum as f64 / f64::from(N));
            best.overhead_ns = best.overhead_ns.min(overhead);
        }
        best
    }
}

/// Summed duration and count of one kind of timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTime {
    /// Summed raw durations, in ns.
    pub ns: f64,
    /// Calls timed.
    pub n: u64,
}

impl OpTime {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.ns += started.elapsed().as_nanos() as f64;
        self.n += 1;
        out
    }

    /// Mean ns per call with the clock's own reading removed.
    pub fn per_call(&self, clock: &ClockCost) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.ns / self.n as f64 - clock.reading_ns).max(0.0)
        }
    }
}

/// `mem.cache` timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTimes {
    /// L1 `access` calls.
    pub l1_access: OpTime,
    /// L2 `access` calls (L1 misses).
    pub l2_access: OpTime,
    /// `fill` calls at either level.
    pub fill: OpTime,
}

/// Re-drives `trace`'s per-core line stream through standalone L1s and a
/// shared L2 of `sys`'s geometry, L1 misses feeding the L2 and misses
/// filling both levels as the engine does.
pub fn drive_caches(sys: &SystemConfig, trace: &Trace, times: &mut CacheTimes) {
    let mut l1: Vec<SetAssocCache> = (0..sys.cores).map(|_| SetAssocCache::new(sys.l1)).collect();
    let mut l2 = SetAssocCache::new(sys.l2);
    for access in trace.accesses() {
        let core = access.core.index();
        let is_write = access.kind == AccessKind::Write;
        let line = access.line;
        if times
            .l1_access
            .time(|| l1[core].access(line, is_write))
            .is_hit()
        {
            continue;
        }
        if !times.l2_access.time(|| l2.access(line, false)).is_hit() {
            times.fill.time(|| l2.fill(line, false));
        }
        if let Some(victim) = times.fill.time(|| l1[core].fill(line, is_write)) {
            if victim.dirty {
                times.fill.time(|| l2.fill(victim.line, true));
            }
        }
    }
}

/// `mem.prefetch_buffer` timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferTimes {
    /// `take` calls.
    pub take: OpTime,
    /// `insert` calls.
    pub insert: OpTime,
}

/// Replays a prefetcher's observed chunk addresses through standalone
/// per-core prefetch buffers of `lines` lines: every chunk address not yet
/// buffered is inserted, and every recorded miss or prefetched hit takes
/// its line.
pub fn drive_prefetch_buffers(
    cores: usize,
    lines: usize,
    log: &[Observed],
    times: &mut BufferTimes,
) {
    let mut buffers: Vec<PrefetchBuffer> = (0..cores).map(|_| PrefetchBuffer::new(lines)).collect();
    for event in log {
        match *event {
            Observed::Chunk(core, line, ready) => {
                let buffer = &mut buffers[core.index()];
                if !buffer.contains(line) {
                    times.insert.time(|| buffer.insert(line, ready));
                }
            }
            Observed::Record(core, line, _) => {
                let buffer = &mut buffers[core.index()];
                times.take.time(|| buffer.take(line));
            }
            Observed::Trigger(..) => {}
        }
    }
}

/// `core.index` and `core.history` timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetaTimes {
    /// `HashIndexTable::lookup` calls.
    pub lookup: OpTime,
    /// `HashIndexTable::update` calls.
    pub update: OpTime,
    /// `OffChipHistory::append` calls.
    pub append: OpTime,
    /// `OffChipHistory::read_block` calls.
    pub read_block: OpTime,
}

/// Drives a standalone STMS index table and history buffer (the default
/// design point) with the miss addresses STMS recorded and the triggers it
/// looked up: records append to the history and, when the update sampler
/// says so, update the index; triggers look the index up and read the
/// history block after a hit.
pub fn drive_meta_data(sys: &SystemConfig, log: &[Observed], times: &mut MetaTimes) {
    let cfg = stms_config(sys.cores);
    let mut history = OffChipHistory::new(
        cfg.cores,
        cfg.history_entries_per_core,
        cfg.entries_per_history_block,
    );
    let mut index = HashIndexTable::new(
        cfg.index_buckets,
        cfg.entries_per_bucket,
        cfg.bucket_buffer_blocks,
    );
    let mut sampler = UpdateSampler::new(cfg.sampling_probability, cfg.sampling_seed);
    let mut dram = DramModel::new(sys.dram);
    for event in log {
        match *event {
            Observed::Trigger(_, line, now) => {
                let (pointer, ready) = times.lookup.time(|| index.lookup(line, now, &mut dram));
                if let Some(p) = pointer {
                    times
                        .read_block
                        .time(|| history.read_block(p.core, p.position + 1, ready, &mut dram));
                }
            }
            Observed::Record(core, line, now) => {
                let position = times
                    .append
                    .time(|| history.append(core, line, now, &mut dram));
                if sampler.should_update() {
                    let pointer = HistoryPointer { core, position };
                    times
                        .update
                        .time(|| index.update(line, pointer, now, &mut dram));
                }
            }
            Observed::Chunk(..) => {}
        }
    }
}
