//! Naive reference models of the index table's on-chip bucket buffer and of
//! the off-chip history buffers, and differential tests that hold
//! [`HashIndexTable`] and [`OffChipHistory`] to them.
//!
//! The index reference keeps the buffer as a `Vec<(bucket, dirty)>` in
//! recency order, least recently used first: a hit is found with `position`
//! and moved to the back, a miss evicts `remove(0)`. The bucket contents are
//! kept the same way as in the real table. The test drives both with the
//! same random lookups and updates and compares every result, ready cycle,
//! [`IndexStats`] and the DRAM traffic they cause.
//!
//! The history reference keeps every line ever appended and a set of marked
//! positions per core; an entry is readable while it is among the last
//! `entries_per_core` appends of its core. The property drives both with
//! the same appends, marks, reads and flushes and compares every block read
//! and the DRAM traffic.

use crate::history::{HistoryBlock, OffChipHistory};
use crate::index::{bucket_of, HashIndexTable, HistoryPointer, IndexStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use stms_mem::{DramModel, SystemConfig, TrafficClass};
use stms_types::{CoreId, Cycle, LineAddr};

/// Index table whose bucket buffer is a linearly scanned `Vec`.
#[derive(Debug)]
struct VecBufferIndex {
    buckets: Vec<Vec<(LineAddr, HistoryPointer)>>,
    entries_per_bucket: usize,
    /// (bucket, dirty), most recently used at the back.
    buffer: Vec<(usize, bool)>,
    buffer_capacity: usize,
    stats: IndexStats,
}

impl VecBufferIndex {
    fn new(buckets: usize, entries_per_bucket: usize, buffer_capacity: usize) -> Self {
        VecBufferIndex {
            buckets: vec![Vec::new(); buckets],
            entries_per_bucket,
            buffer: Vec::new(),
            buffer_capacity,
            stats: IndexStats::default(),
        }
    }

    fn acquire_bucket(
        &mut self,
        bucket: usize,
        now: Cycle,
        dram: &mut DramModel,
        class: TrafficClass,
    ) -> Cycle {
        if let Some(pos) = self.buffer.iter().position(|&(b, _)| b == bucket) {
            let entry = self.buffer.remove(pos);
            self.buffer.push(entry);
            self.stats.buffer_hits += 1;
            return now;
        }
        let ready = dram.access(class, 64, now);
        if self.buffer.len() >= self.buffer_capacity && self.buffer_capacity > 0 {
            let (_, dirty) = self.buffer.remove(0);
            if dirty {
                dram.access(TrafficClass::MetaUpdate, 64, now);
                self.stats.writebacks += 1;
            }
        }
        if self.buffer_capacity > 0 {
            self.buffer.push((bucket, false));
        }
        ready
    }

    fn lookup(
        &mut self,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> (Option<HistoryPointer>, Cycle) {
        self.stats.lookups += 1;
        let bucket = bucket_of(line, self.buckets.len());
        let ready = self.acquire_bucket(bucket, now, dram, TrafficClass::MetaLookup);
        let entries = &mut self.buckets[bucket];
        let Some(pos) = entries.iter().position(|e| e.0 == line) else {
            return (None, ready);
        };
        let entry = entries.remove(pos);
        entries.insert(0, entry);
        self.stats.hits += 1;
        (Some(entry.1), ready)
    }

    fn update(
        &mut self,
        line: LineAddr,
        pointer: HistoryPointer,
        now: Cycle,
        dram: &mut DramModel,
    ) {
        self.stats.updates += 1;
        let bucket = bucket_of(line, self.buckets.len());
        self.acquire_bucket(bucket, now, dram, TrafficClass::MetaUpdate);
        match self.buffer.iter_mut().find(|(b, _)| *b == bucket) {
            Some(entry) => entry.1 = true,
            None => {
                dram.access(TrafficClass::MetaUpdate, 64, now);
                self.stats.writebacks += 1;
            }
        }
        let entries = &mut self.buckets[bucket];
        entries.retain(|e| e.0 != line);
        entries.insert(0, (line, pointer));
        entries.truncate(self.entries_per_bucket);
    }

    fn flush(&mut self, now: Cycle, dram: &mut DramModel) {
        for (_, dirty) in &mut self.buffer {
            if *dirty {
                dram.access(TrafficClass::MetaUpdate, 64, now);
                self.stats.writebacks += 1;
                *dirty = false;
            }
        }
    }
}

fn dram() -> DramModel {
    DramModel::new(SystemConfig::hpca09_baseline().dram)
}

#[test]
fn bucket_buffer_matches_reference() {
    for buffer_blocks in [0, 1, 2, 128] {
        for buckets in [1, 7, 64, 300] {
            for seed in 0..6u64 {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ ((buckets * 1000 + buffer_blocks) as u64) << 8);
                let (mut real_dram, mut naive_dram) = (dram(), dram());
                let mut real = HashIndexTable::new(buckets, 4, buffer_blocks);
                let mut naive = VecBufferIndex::new(buckets, 4, buffer_blocks);
                // Enough lines to overflow a 128-bucket buffer, some of
                // them just below u64::MAX.
                let pool = 400u64;
                let mut now = 0u64;
                for step in 0..3_000 {
                    let ctx = format!(
                        "{buckets} buckets, buffer {buffer_blocks}, seed {seed} step {step}"
                    );
                    let i = rng.gen_range(0..pool);
                    let line = LineAddr::new(if rng.gen_range(0..4u32) == 0 {
                        u64::MAX - i
                    } else {
                        i
                    });
                    now += rng.gen_range(0..50u64);
                    let at = Cycle::new(now);
                    if rng.gen_range(0..2u32) == 0 {
                        assert_eq!(
                            real.lookup(line, at, &mut real_dram),
                            naive.lookup(line, at, &mut naive_dram),
                            "{ctx}"
                        );
                    } else {
                        let pointer = HistoryPointer {
                            core: CoreId::new(rng.gen_range(0..4u16)),
                            position: step,
                        };
                        real.update(line, pointer, at, &mut real_dram);
                        naive.update(line, pointer, at, &mut naive_dram);
                    }
                    assert_eq!(real.stats(), naive.stats, "{ctx}");
                    assert_eq!(real_dram.traffic(), naive_dram.traffic(), "{ctx}");
                }
                let at = Cycle::new(now);
                real.flush(at, &mut real_dram);
                naive.flush(at, &mut naive_dram);
                assert_eq!(real.stats(), naive.stats);
                assert_eq!(real_dram.traffic(), naive_dram.traffic());
                // The channels are equally busy after the flush.
                assert_eq!(
                    real_dram.access(TrafficClass::MetaLookup, 64, at),
                    naive_dram.access(TrafficClass::MetaLookup, 64, at)
                );
                let occupancy: usize = naive.buckets.iter().map(Vec::len).sum();
                assert_eq!(real.occupancy(), occupancy);
            }
        }
    }
}

/// Per-core history buffers that keep every appended line.
#[derive(Debug)]
struct NaiveHistory {
    lines: Vec<Vec<LineAddr>>,
    marks: Vec<HashSet<u64>>,
    /// Per core, how many of its lines have been written to memory.
    written: Vec<usize>,
    entries_per_core: usize,
    entries_per_block: usize,
}

impl NaiveHistory {
    fn new(cores: usize, entries_per_core: usize, entries_per_block: usize) -> Self {
        NaiveHistory {
            lines: vec![Vec::new(); cores],
            marks: vec![HashSet::new(); cores],
            written: vec![0; cores],
            entries_per_core,
            entries_per_block,
        }
    }

    fn append(&mut self, core: usize, line: LineAddr, now: Cycle, dram: &mut DramModel) -> u64 {
        self.lines[core].push(line);
        let len = self.lines[core].len();
        if len - self.written[core] == self.entries_per_block {
            dram.access(TrafficClass::MetaRecord, 64, now);
            self.written[core] = len;
        }
        (len - 1) as u64
    }

    fn read_block(&self, core: usize, pos: u64, now: Cycle, dram: &mut DramModel) -> HistoryBlock {
        let ready_at = dram.access(TrafficClass::MetaLookup, 64, now);
        let lines = &self.lines[core];
        let retained = lines.len().saturating_sub(self.entries_per_core) as u64..lines.len() as u64;
        let mut addresses = Vec::new();
        let mut hit_end_mark = false;
        for p in pos..pos + self.entries_per_block as u64 {
            if !retained.contains(&p) {
                break;
            }
            if self.marks[core].contains(&p) {
                hit_end_mark = true;
                break;
            }
            addresses.push(lines[p as usize]);
        }
        HistoryBlock {
            addresses,
            ready_at,
            hit_end_mark,
        }
    }

    fn flush(&mut self, now: Cycle, dram: &mut DramModel) {
        for (lines, written) in self.lines.iter().zip(&mut self.written) {
            if lines.len() > *written {
                dram.access(TrafficClass::MetaRecord, 64, now);
                *written = lines.len();
            }
        }
    }
}

proptest! {
    /// Small rings wrap many times; marks and reads land before, inside
    /// and beyond each core's write point.
    #[test]
    fn history_matches_reference(
        cores in 1usize..4,
        entries_per_core in 1usize..20,
        entries_per_block in 1usize..7,
        ops in collection::vec((0u8..10, 0usize..3, -24i64..6, 0u64..40), 1..400),
    ) {
        let (mut real_dram, mut naive_dram) = (dram(), dram());
        let mut real = OffChipHistory::new(cores, entries_per_core, entries_per_block);
        let mut naive = NaiveHistory::new(cores, entries_per_core, entries_per_block);
        let mut now = 0u64;
        for (step, (op, core, offset, value)) in ops.into_iter().enumerate() {
            let core = core % cores;
            // A position `offset` entries from the core's write point.
            let pos = (naive.lines[core].len() as i64 + offset).max(0) as u64;
            now += value;
            let at = Cycle::new(now);
            let id = CoreId::new(core as u16);
            let ctx = format!("step {step}: op {op}, core {core}, pos {pos}");
            match op {
                0..=4 => prop_assert_eq!(
                    real.append(id, LineAddr::new(value), at, &mut real_dram),
                    naive.append(core, LineAddr::new(value), at, &mut naive_dram),
                    "{}", ctx
                ),
                5 | 6 => {
                    real.mark_stream_end(id, pos);
                    naive.marks[core].insert(pos);
                }
                7 | 8 => prop_assert_eq!(
                    real.read_block(id, pos, at, &mut real_dram),
                    naive.read_block(core, pos, at, &mut naive_dram),
                    "{}", ctx
                ),
                _ => {
                    real.flush(at, &mut real_dram);
                    naive.flush(at, &mut naive_dram);
                }
            }
            prop_assert_eq!(real_dram.traffic(), naive_dram.traffic(), "{}", ctx);
        }
    }
}
