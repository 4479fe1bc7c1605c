//! The Sampled Temporal Memory Streaming prefetcher (STMS) — the paper's
//! contribution.
//!
//! STMS keeps all predictor meta-data in main memory:
//!
//! * per-core circular **history buffers** log correct-path off-chip misses
//!   and prefetched hits, with writes packed twelve entries per 64-byte
//!   block ([`crate::OffChipHistory`]);
//! * a shared, bucketized **hash index table** maps a miss address to a
//!   pointer into some core's history buffer; one bucket is one 64-byte
//!   block, so a lookup costs a single memory access
//!   ([`crate::HashIndexTable`]);
//! * **probabilistic update** applies only a sampled subset of index-table
//!   updates ([`crate::UpdateSampler`]), trading a small coverage loss for a
//!   large reduction in meta-data write traffic;
//! * the split history/index organization lets a single lookup stream an
//!   arbitrarily long miss sequence, amortizing the two off-chip round trips
//!   (index read + history read) over tens to hundreds of prefetches;
//! * **end-of-stream annotations** stop streaming past the last
//!   successfully-prefetched block of a previously-followed stream (§4.5).

use crate::config::StmsConfig;
use crate::history::OffChipHistory;
use crate::index::{HashIndexTable, HistoryPointer};
use crate::sampler::UpdateSampler;
use stms_mem::{DramModel, Prefetcher, StreamChunk};
use stms_types::{CoreId, Cycle, LineAddr};

/// Counters describing STMS behaviour, exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmsStats {
    /// Trigger events (off-chip read misses presented to the predictor).
    pub triggers: u64,
    /// Triggers whose index lookup found a history pointer.
    pub index_hits: u64,
    /// Addresses recorded into history buffers.
    pub recorded: u64,
    /// Index updates actually performed (after sampling).
    pub updates_performed: u64,
    /// Index updates skipped by probabilistic sampling.
    pub updates_skipped: u64,
    /// History blocks read while following streams.
    pub history_blocks_read: u64,
    /// End-of-stream annotations written.
    pub end_marks: u64,
}

/// Cursor of an in-progress stream follow.
#[derive(Debug, Clone, Copy)]
struct StreamCursor {
    /// Core whose history buffer the stream lives in.
    src_core: CoreId,
    /// Position of the first streamed (not trigger) entry.
    start_pos: u64,
    /// Next position to read from.
    next_pos: u64,
    /// Prefetched hits consumed so far on this stream.
    hits: u64,
    /// Whether the history read hit an end-of-stream mark or ran out.
    exhausted: bool,
}

/// The STMS prefetcher. Implements [`stms_mem::Prefetcher`] and plugs into
/// the `stms-mem` simulation engine.
///
/// # Example
///
/// ```
/// use stms_core::{Stms, StmsConfig};
/// use stms_mem::{DramModel, Prefetcher, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let mut stms = Stms::new(StmsConfig { cores: 1, sampling_probability: 1.0, ..StmsConfig::scaled_default() });
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// let core = CoreId::new(0);
/// // First occurrence of the stream A B C D.
/// for l in [1u64, 2, 3, 4] {
///     stms.record(core, LineAddr::new(l), false, Cycle::ZERO, &mut dram);
/// }
/// // On the recurrence of A, the index lookup plus one history-block read
/// // yields the successors B C D. The recently-updated bucket is still in
/// // the on-chip bucket buffer, so only the history read pays a memory
/// // round trip here; a cold lookup would pay two.
/// let chunk = stms.on_trigger(core, LineAddr::new(1), Cycle::ZERO, &mut dram).unwrap();
/// assert_eq!(chunk.addresses, vec![LineAddr::new(2), LineAddr::new(3), LineAddr::new(4)]);
/// assert!(chunk.ready_at.raw() >= 180);
/// ```
#[derive(Debug)]
pub struct Stms {
    cfg: StmsConfig,
    history: OffChipHistory,
    index: HashIndexTable,
    sampler: UpdateSampler,
    cursors: Vec<Option<StreamCursor>>,
    stats: StmsStats,
}

impl Stms {
    /// Creates an STMS prefetcher from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`StmsConfig::validate`].
    pub fn new(cfg: StmsConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid STMS configuration: {e}");
        }
        Stms {
            history: OffChipHistory::new(
                cfg.cores,
                cfg.history_entries_per_core,
                cfg.entries_per_history_block,
            ),
            index: HashIndexTable::new(
                cfg.index_buckets,
                cfg.entries_per_bucket,
                cfg.bucket_buffer_blocks,
            ),
            sampler: UpdateSampler::new(cfg.sampling_probability, cfg.sampling_seed),
            cursors: vec![None; cfg.cores],
            stats: StmsStats::default(),
            cfg,
        }
    }

    /// The configuration this prefetcher was built with.
    pub fn config(&self) -> &StmsConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> StmsStats {
        self.stats
    }

    /// Index-table statistics (lookups, buffer hits, write-backs).
    pub fn index_stats(&self) -> crate::index::IndexStats {
        self.index.stats()
    }

    /// Ends the stream currently followed on behalf of `core`, writing an
    /// end-of-stream annotation after the last contiguously-prefetched
    /// address (§4.5).
    fn close_stream(&mut self, core: CoreId) {
        if let Some(cursor) = self.cursors[core.index()].take() {
            if cursor.hits > 0 {
                self.history
                    .mark_stream_end(cursor.src_core, cursor.start_pos + cursor.hits);
                self.stats.end_marks += 1;
            }
        }
    }

    /// Reads the next history block for `core`'s cursor, advancing it.
    fn read_next_block(&mut self, core: CoreId, now: Cycle, dram: &mut DramModel) -> StreamChunk {
        let Some(mut cursor) = self.cursors[core.index()] else {
            return StreamChunk::empty(now);
        };
        if cursor.exhausted {
            return StreamChunk::empty(now);
        }
        let block = self
            .history
            .read_block(cursor.src_core, cursor.next_pos, now, dram);
        self.stats.history_blocks_read += 1;
        cursor.next_pos += block.addresses.len() as u64;
        cursor.exhausted = block.hit_end_mark || block.addresses.is_empty();
        self.cursors[core.index()] = Some(cursor);
        StreamChunk {
            addresses: block.addresses,
            ready_at: block.ready_at,
        }
    }
}

impl Prefetcher for Stms {
    fn name(&self) -> &'static str {
        "stms"
    }

    fn on_trigger(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        self.stats.triggers += 1;
        // A genuinely new trigger means the previously-followed stream (if
        // any) has ended: annotate its end before starting a new follow.
        self.close_stream(core);

        // Round trip 1: index-table bucket.
        let (pointer, index_ready) = self.index.lookup(line, now, dram);
        let pointer = pointer?;
        self.stats.index_hits += 1;

        // Round trip 2: first history-buffer block, dependent on the index
        // read having completed.
        let start_pos = pointer.position + 1;
        let block = self
            .history
            .read_block(pointer.core, start_pos, index_ready, dram);
        self.stats.history_blocks_read += 1;
        if block.addresses.is_empty() {
            return None;
        }
        self.cursors[core.index()] = Some(StreamCursor {
            src_core: pointer.core,
            start_pos,
            next_pos: start_pos + block.addresses.len() as u64,
            hits: 0,
            exhausted: block.hit_end_mark,
        });
        Some(StreamChunk {
            addresses: block.addresses,
            ready_at: block.ready_at,
        })
    }

    fn next_chunk(&mut self, core: CoreId, now: Cycle, dram: &mut DramModel) -> StreamChunk {
        self.read_next_block(core, now, dram)
    }

    fn record(
        &mut self,
        core: CoreId,
        line: LineAddr,
        prefetched: bool,
        now: Cycle,
        dram: &mut DramModel,
    ) {
        self.stats.recorded += 1;
        let position = self.history.append(core, line, now, dram);
        if self.sampler.should_update() {
            self.index
                .update(line, HistoryPointer { core, position }, now, dram);
            self.stats.updates_performed += 1;
        } else {
            self.stats.updates_skipped += 1;
        }
        if prefetched {
            if let Some(cursor) = &mut self.cursors[core.index()] {
                cursor.hits += 1;
            }
        }
    }

    fn finish(&mut self, now: Cycle, dram: &mut DramModel) {
        self.history.flush(now, dram);
        self.index.flush(now, dram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_mem::SystemConfig;

    fn dram() -> DramModel {
        DramModel::new(SystemConfig::hpca09_baseline().dram)
    }

    fn small_cfg() -> StmsConfig {
        StmsConfig {
            cores: 2,
            history_entries_per_core: 4096,
            entries_per_history_block: 4,
            index_buckets: 256,
            entries_per_bucket: 12,
            bucket_buffer_blocks: 16,
            sampling_probability: 1.0,
            sampling_seed: 7,
        }
    }

    fn record_seq(stms: &mut Stms, core: u16, lines: &[u64], dram: &mut DramModel) {
        for &l in lines {
            stms.record(
                CoreId::new(core),
                LineAddr::new(l),
                false,
                Cycle::ZERO,
                dram,
            );
        }
    }

    #[test]
    fn lookup_takes_two_round_trips_and_returns_one_block() {
        let mut d = dram();
        // Disable the bucket buffer so the index lookup cannot be satisfied
        // on chip: the two serialized memory round trips become visible.
        let mut stms = Stms::new(StmsConfig {
            bucket_buffer_blocks: 0,
            ..small_cfg()
        });
        record_seq(&mut stms, 0, &[10, 20, 30, 40, 50, 60], &mut d);
        let chunk = stms
            .on_trigger(CoreId::new(0), LineAddr::new(10), Cycle::ZERO, &mut d)
            .expect("index hit");
        // One block of 4 entries starting after the trigger.
        assert_eq!(
            chunk.addresses,
            vec![
                LineAddr::new(20),
                LineAddr::new(30),
                LineAddr::new(40),
                LineAddr::new(50)
            ]
        );
        assert!(
            chunk.ready_at.raw() >= 2 * 180,
            "index read + history read are serialized: {}",
            chunk.ready_at
        );
        assert_eq!(stms.stats().index_hits, 1);
    }

    #[test]
    fn next_chunk_continues_the_stream() {
        let mut d = dram();
        let mut stms = Stms::new(small_cfg());
        record_seq(
            &mut stms,
            0,
            &(0..20u64).map(|i| 100 + i).collect::<Vec<_>>(),
            &mut d,
        );
        let first = stms
            .on_trigger(CoreId::new(0), LineAddr::new(100), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(first.addresses.len(), 4);
        let second = stms.next_chunk(CoreId::new(0), Cycle::ZERO, &mut d);
        assert_eq!(second.addresses[0], LineAddr::new(105));
        // Each continuation costs exactly one more history-block read.
        assert_eq!(stms.stats().history_blocks_read, 2);
    }

    #[test]
    fn unknown_trigger_returns_none() {
        let mut d = dram();
        let mut stms = Stms::new(small_cfg());
        record_seq(&mut stms, 0, &[1, 2, 3], &mut d);
        assert!(stms
            .on_trigger(CoreId::new(0), LineAddr::new(999), Cycle::ZERO, &mut d)
            .is_none());
        assert_eq!(stms.stats().triggers, 1);
        assert_eq!(stms.stats().index_hits, 0);
    }

    #[test]
    fn cross_core_stream_is_found_through_shared_index() {
        let mut d = dram();
        let mut stms = Stms::new(small_cfg());
        record_seq(&mut stms, 0, &[7, 8, 9, 10], &mut d);
        let chunk = stms
            .on_trigger(CoreId::new(1), LineAddr::new(7), Cycle::ZERO, &mut d)
            .expect("stream recorded by core 0 is visible to core 1");
        assert_eq!(chunk.addresses[0], LineAddr::new(8));
    }

    #[test]
    fn sampling_skips_most_updates_at_low_probability() {
        let mut d = dram();
        let mut cfg = small_cfg();
        cfg.sampling_probability = 0.125;
        let mut stms = Stms::new(cfg);
        record_seq(&mut stms, 0, &(0..4000u64).collect::<Vec<_>>(), &mut d);
        let s = stms.stats();
        assert_eq!(s.updates_performed + s.updates_skipped, 4000);
        let rate = s.updates_performed as f64 / 4000.0;
        assert!((rate - 0.125).abs() < 0.04, "observed sampling rate {rate}");
        // Update traffic is roughly proportional to the sampling rate.
        assert!(d.traffic().meta_update < 4000 * 64);
    }

    #[test]
    fn full_sampling_updates_every_record() {
        let mut d = dram();
        let mut stms = Stms::new(small_cfg());
        record_seq(&mut stms, 0, &[1, 2, 3, 4, 5], &mut d);
        assert_eq!(stms.stats().updates_performed, 5);
        assert_eq!(stms.stats().updates_skipped, 0);
    }

    #[test]
    fn record_traffic_is_packed() {
        let mut d = dram();
        let mut cfg = small_cfg();
        cfg.sampling_probability = 0.0; // isolate record traffic
        let mut stms = Stms::new(cfg);
        record_seq(&mut stms, 0, &(0..16u64).collect::<Vec<_>>(), &mut d);
        // 16 appends at 4 entries/block = 4 packed writes.
        assert_eq!(d.traffic().meta_record, 4 * 64);
        assert_eq!(d.traffic().meta_update, 0);
    }

    #[test]
    fn end_of_stream_annotation_stops_later_follows() {
        let mut d = dram();
        let mut stms = Stms::new(small_cfg());
        // Record a stream A..H on core 0.
        record_seq(&mut stms, 0, &[1, 2, 3, 4, 5, 6, 7, 8], &mut d);
        // Follow it from A, consume 2 prefetched hits, then trigger elsewhere.
        let chunk = stms
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert!(!chunk.addresses.is_empty());
        stms.record(CoreId::new(0), LineAddr::new(2), true, Cycle::ZERO, &mut d);
        stms.record(CoreId::new(0), LineAddr::new(3), true, Cycle::ZERO, &mut d);
        // New trigger on an unrelated address ends the stream and writes a
        // mark after the last contiguous hit (position of address 4).
        let _ = stms.on_trigger(CoreId::new(0), LineAddr::new(777), Cycle::ZERO, &mut d);
        assert_eq!(stms.stats().end_marks, 1);
        // Following the stream again stops at the mark.
        let chunk = stms
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(chunk.addresses, vec![LineAddr::new(2), LineAddr::new(3)]);
        let next = stms.next_chunk(CoreId::new(0), Cycle::ZERO, &mut d);
        assert!(next.is_empty(), "stream is paused at the end mark");
    }

    #[test]
    fn finish_flushes_buffers() {
        let mut d = dram();
        let mut stms = Stms::new(small_cfg());
        record_seq(&mut stms, 0, &[1, 2], &mut d);
        let record_before = d.traffic().meta_record;
        stms.finish(Cycle::ZERO, &mut d);
        assert!(
            d.traffic().meta_record > record_before,
            "partial history block flushed"
        );
    }

    #[test]
    fn next_chunk_without_active_stream_is_empty() {
        let mut d = dram();
        let mut stms = Stms::new(small_cfg());
        assert!(stms
            .next_chunk(CoreId::new(0), Cycle::ZERO, &mut d)
            .is_empty());
        assert_eq!(stms.name(), "stms");
        assert_eq!(stms.config().cores, 2);
    }

    #[test]
    #[should_panic(expected = "invalid STMS configuration")]
    fn invalid_config_panics() {
        let mut cfg = small_cfg();
        cfg.sampling_probability = 2.0;
        let _ = Stms::new(cfg);
    }

    #[test]
    fn index_points_to_most_recent_occurrence_when_sampled_in() {
        let mut d = dram();
        let mut stms = Stms::new(small_cfg());
        record_seq(&mut stms, 0, &[1, 2, 3, 1, 9, 10], &mut d);
        let chunk = stms
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(
            chunk.addresses[0],
            LineAddr::new(9),
            "latest occurrence wins at 100% sampling"
        );
    }
}
