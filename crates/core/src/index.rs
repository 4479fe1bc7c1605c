//! The hardware-managed, bucketized main-memory hash index table (§4.3) and
//! its on-chip bucket buffer.
//!
//! Physical (line) addresses hash to a bucket; each bucket occupies exactly
//! one 64-byte memory block and holds up to 12 `{address, history pointer}`
//! pairs kept in LRU order. A lookup retrieves the whole bucket with a single
//! main-memory access and searches it linearly (the search is free relative
//! to the access latency). Updates read the bucket, replace the LRU entry if
//! the address is absent, and write the bucket back.
//!
//! The small on-chip *bucket buffer* (8 KB = 128 buckets) holds recently
//! accessed buckets so that an update immediately following a lookup of the
//! same bucket does not pay a second memory round trip, and so that dirty
//! buckets are written back lazily when bandwidth is available. Each
//! buffer slot has a `u32` lane holding its bucket's index plus one (0
//! marks a free slot), so finding a buffered bucket is one branch-free
//! compare of all lanes, and a [`RecencyList`] over the slots gives the
//! least recently used one, the victim, in O(1).

use stms_mem::lanes::Lanes;
use stms_mem::recency::{Link, Linked, RecencyList};
use stms_mem::{DramModel, TrafficClass};
use stms_types::{CoreId, Cycle, LineAddr};

/// A pointer into a history buffer: which core's buffer and which position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryPointer {
    /// The core whose history buffer contains the stream.
    pub core: CoreId,
    /// Absolute position within that history buffer.
    pub position: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BucketEntry {
    line: LineAddr,
    pointer: HistoryPointer,
}

/// The bucket of `buckets` that `line` hashes to.
pub(crate) fn bucket_of(line: LineAddr, buckets: usize) -> usize {
    // SplitMix64-style finalizer: spreads even highly-structured line
    // addresses (e.g. strided allocations) evenly across buckets.
    let mut h = line.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % buckets as u64) as usize
}

/// A bucket-buffer slot: its bucket's dirty bit, and its place in recency
/// order.
#[derive(Debug, Clone, Copy)]
struct BufferSlot {
    dirty: bool,
    link: Link,
}

impl Linked for BufferSlot {
    fn link(&mut self) -> &mut Link {
        &mut self.link
    }
}

/// One 64-byte bucket: entries kept in MRU-first order.
#[derive(Debug, Clone, Default)]
struct Bucket {
    entries: Vec<BucketEntry>,
}

/// Counters describing index-table behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that found the address.
    pub hits: u64,
    /// Updates performed (after sampling).
    pub updates: u64,
    /// Lookups or updates satisfied by the on-chip bucket buffer (no memory
    /// read needed).
    pub buffer_hits: u64,
    /// Dirty buckets written back to memory.
    pub writebacks: u64,
}

/// The shared, bucketized main-memory index table with its on-chip bucket
/// buffer.
///
/// # Example
///
/// ```
/// use stms_core::{HashIndexTable, HistoryPointer};
/// use stms_mem::{DramModel, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// let mut index = HashIndexTable::new(1024, 12, 16);
/// let ptr = HistoryPointer { core: CoreId::new(0), position: 99 };
/// index.update(LineAddr::new(5), ptr, Cycle::ZERO, &mut dram);
/// let (found, _ready) = index.lookup(LineAddr::new(5), Cycle::ZERO, &mut dram);
/// assert_eq!(found, Some(ptr));
/// ```
#[derive(Debug)]
pub struct HashIndexTable {
    buckets: Vec<Bucket>,
    entries_per_bucket: usize,
    /// Each bucket-buffer slot's bucket index plus one; 0 marks a free slot.
    held: Lanes,
    /// The bucket buffer's slots; grows to `buffer_capacity` and then
    /// stays full.
    buffer: Vec<BufferSlot>,
    buffer_capacity: usize,
    /// The buffer's slots by recency; the oldest is the victim once the
    /// buffer is full.
    recency: RecencyList,
    stats: IndexStats,
}

impl HashIndexTable {
    /// Creates an index table with `buckets` buckets of `entries_per_bucket`
    /// entries and an on-chip buffer of `bucket_buffer_blocks` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` or `entries_per_bucket` is zero, or if `buckets`
    /// does not fit a `u32` lane.
    pub fn new(buckets: usize, entries_per_bucket: usize, bucket_buffer_blocks: usize) -> Self {
        assert!(buckets > 0 && entries_per_bucket > 0);
        assert!(
            buckets < u32::MAX as usize,
            "too many buckets for a u32 lane"
        );
        HashIndexTable {
            buckets: vec![Bucket::default(); buckets],
            entries_per_bucket,
            held: Lanes::new(bucket_buffer_blocks),
            buffer: Vec::with_capacity(bucket_buffer_blocks),
            buffer_capacity: bucket_buffer_blocks,
            recency: RecencyList::default(),
            stats: IndexStats::default(),
        }
    }

    /// Total entries currently stored across all buckets.
    pub fn occupancy(&self) -> usize {
        self.buckets.iter().map(|b| b.entries.len()).sum()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    fn bucket_of(&self, line: LineAddr) -> usize {
        bucket_of(line, self.buckets.len())
    }

    /// Brings `bucket` into the on-chip buffer, charging a memory read if it
    /// was not already buffered. Returns the cycle at which the bucket's
    /// contents are available, and the buffer slot now holding it (none
    /// when the buffer has no capacity).
    fn acquire_bucket(
        &mut self,
        bucket: usize,
        now: Cycle,
        dram: &mut DramModel,
        class: TrafficClass,
    ) -> (Cycle, Option<usize>) {
        if self.buffer_capacity == 0 {
            return (dram.access(class, 64, now), None);
        }
        let lane = bucket as u32 + 1;
        if let Some(slot) = self.held.find(lane, |_| true) {
            self.recency.push_newest(&mut self.buffer, slot as u32);
            self.stats.buffer_hits += 1;
            return (now, Some(slot));
        }
        let ready = dram.access(class, 64, now);
        let slot = if self.buffer.len() < self.buffer_capacity {
            self.buffer.push(BufferSlot {
                dirty: false,
                link: Link::default(),
            });
            self.buffer.len() - 1
        } else {
            let victim = self.recency.oldest().expect("a full buffer has a slot") as usize;
            if self.buffer[victim].dirty {
                dram.access(TrafficClass::MetaUpdate, 64, now);
                self.stats.writebacks += 1;
            }
            self.buffer[victim].dirty = false;
            victim
        };
        self.held.set(slot, lane);
        self.recency.push_newest(&mut self.buffer, slot as u32);
        (ready, Some(slot))
    }

    /// Looks up the history pointer for `line`. Returns the pointer (if any)
    /// and the cycle at which it is known (one memory round trip unless the
    /// bucket was resident in the bucket buffer).
    pub fn lookup(
        &mut self,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> (Option<HistoryPointer>, Cycle) {
        self.stats.lookups += 1;
        let bucket_idx = self.bucket_of(line);
        let (ready, _) = self.acquire_bucket(bucket_idx, now, dram, TrafficClass::MetaLookup);
        let entries = &mut self.buckets[bucket_idx].entries;
        if let Some(pos) = entries.iter().position(|e| e.line == line) {
            // Move to MRU position.
            let entry = entries.remove(pos);
            entries.insert(0, entry);
            self.stats.hits += 1;
            (Some(entry.pointer), ready)
        } else {
            (None, ready)
        }
    }

    /// Inserts or refreshes the mapping `line -> pointer`, replacing the LRU
    /// entry of the bucket if it is full.
    pub fn update(
        &mut self,
        line: LineAddr,
        pointer: HistoryPointer,
        now: Cycle,
        dram: &mut DramModel,
    ) {
        self.stats.updates += 1;
        let bucket_idx = self.bucket_of(line);
        // An update is a read-modify-write of the bucket; the read is skipped
        // when the bucket is buffered, the write is deferred until eviction.
        // Without a buffer the write goes back at once.
        let (_, slot) = self.acquire_bucket(bucket_idx, now, dram, TrafficClass::MetaUpdate);
        match slot {
            Some(slot) => self.buffer[slot].dirty = true,
            None => {
                dram.access(TrafficClass::MetaUpdate, 64, now);
                self.stats.writebacks += 1;
            }
        }
        let entries_per_bucket = self.entries_per_bucket;
        let entries = &mut self.buckets[bucket_idx].entries;
        if let Some(pos) = entries.iter().position(|e| e.line == line) {
            entries.remove(pos);
        }
        entries.insert(0, BucketEntry { line, pointer });
        entries.truncate(entries_per_bucket);
    }

    /// Writes back every dirty buffered bucket (end of simulation).
    pub fn flush(&mut self, now: Cycle, dram: &mut DramModel) {
        for slot in &mut self.buffer {
            if slot.dirty {
                dram.access(TrafficClass::MetaUpdate, 64, now);
                self.stats.writebacks += 1;
                slot.dirty = false;
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

    fn ptr(core: u16, position: u64) -> HistoryPointer {
        HistoryPointer {
            core: CoreId::new(core),
            position,
        }
    }

    #[test]
    fn update_then_lookup_round_trips() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 12, 8);
        idx.update(LineAddr::new(10), ptr(1, 500), Cycle::ZERO, &mut d);
        let (found, _) = idx.lookup(LineAddr::new(10), Cycle::ZERO, &mut d);
        assert_eq!(found, Some(ptr(1, 500)));
        let (missing, _) = idx.lookup(LineAddr::new(11), Cycle::ZERO, &mut d);
        assert_eq!(missing, None);
        assert_eq!(idx.stats().lookups, 2);
        assert_eq!(idx.stats().hits, 1);
        assert_eq!(idx.stats().updates, 1);
        assert_eq!(idx.occupancy(), 1);
    }

    #[test]
    fn update_refreshes_existing_entry_without_growth() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 12, 8);
        idx.update(LineAddr::new(10), ptr(0, 1), Cycle::ZERO, &mut d);
        idx.update(LineAddr::new(10), ptr(0, 2), Cycle::ZERO, &mut d);
        assert_eq!(idx.occupancy(), 1);
        let (found, _) = idx.lookup(LineAddr::new(10), Cycle::ZERO, &mut d);
        assert_eq!(found, Some(ptr(0, 2)), "latest pointer wins");
    }

    #[test]
    fn bucket_lru_replacement_when_full() {
        let mut d = dram();
        // One bucket only: everything collides; 3 entries per bucket.
        let mut idx = HashIndexTable::new(1, 3, 8);
        for i in 0..3u64 {
            idx.update(LineAddr::new(i), ptr(0, i), Cycle::ZERO, &mut d);
        }
        // Touch line 0 so it becomes MRU, then insert a fourth entry.
        let _ = idx.lookup(LineAddr::new(0), Cycle::ZERO, &mut d);
        idx.update(LineAddr::new(99), ptr(0, 99), Cycle::ZERO, &mut d);
        assert_eq!(idx.occupancy(), 3);
        // Line 1 was the LRU entry and must be gone; 0 and 2's relative order:
        // 1 was older than 2? order after ops: [0 (MRU), 2, 1] -> inserting 99
        // drops 1.
        assert_eq!(idx.lookup(LineAddr::new(1), Cycle::ZERO, &mut d).0, None);
        assert!(idx
            .lookup(LineAddr::new(0), Cycle::ZERO, &mut d)
            .0
            .is_some());
        assert!(idx
            .lookup(LineAddr::new(99), Cycle::ZERO, &mut d)
            .0
            .is_some());
    }

    #[test]
    fn lookup_costs_one_memory_access_when_not_buffered() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(1024, 12, 4);
        let (none, ready) = idx.lookup(LineAddr::new(5), Cycle::new(10), &mut d);
        assert_eq!(none, None);
        assert!(ready >= Cycle::new(10 + 180), "one DRAM round trip");
        assert_eq!(d.traffic().meta_lookup, 64);
    }

    #[test]
    fn bucket_buffer_absorbs_update_after_lookup() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(1024, 12, 4);
        let line = LineAddr::new(77);
        let _ = idx.lookup(line, Cycle::ZERO, &mut d);
        let lookup_bytes = d.traffic().meta_lookup;
        let update_bytes = d.traffic().meta_update;
        // The following update hits the buffered bucket: no additional read.
        idx.update(line, ptr(0, 3), Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_lookup, lookup_bytes);
        assert_eq!(
            d.traffic().meta_update,
            update_bytes,
            "write-back is deferred"
        );
        assert_eq!(idx.stats().buffer_hits, 1);
        // Flush forces the dirty bucket out.
        idx.flush(Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_update, update_bytes + 64);
        assert_eq!(idx.stats().writebacks, 1);
    }

    #[test]
    fn evicting_dirty_buffered_bucket_writes_back() {
        let mut d = dram();
        // Buffer of one bucket so every new bucket evicts the previous one.
        let mut idx = HashIndexTable::new(1024, 12, 1);
        idx.update(LineAddr::new(1), ptr(0, 1), Cycle::ZERO, &mut d);
        let before = idx.stats().writebacks;
        // Touch a different bucket: the dirty one must be written back.
        let mut other = LineAddr::new(2);
        // Find a line that maps to a different bucket.
        while idx.bucket_of(other) == idx.bucket_of(LineAddr::new(1)) {
            other = LineAddr::new(other.raw() + 1);
        }
        idx.update(other, ptr(0, 2), Cycle::ZERO, &mut d);
        assert_eq!(idx.stats().writebacks, before + 1);
    }

    #[test]
    fn flush_twice_is_idempotent() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 12, 8);
        idx.update(LineAddr::new(1), ptr(0, 1), Cycle::ZERO, &mut d);
        idx.flush(Cycle::ZERO, &mut d);
        let wb = idx.stats().writebacks;
        idx.flush(Cycle::ZERO, &mut d);
        assert_eq!(idx.stats().writebacks, wb);
    }

    #[test]
    fn addresses_spread_over_buckets() {
        let idx = HashIndexTable::new(256, 12, 8);
        let mut used = std::collections::HashSet::new();
        for i in 0..1000u64 {
            used.insert(idx.bucket_of(LineAddr::new(i * 64 + 7)));
        }
        assert!(
            used.len() > 200,
            "hashing should spread addresses, got {} buckets",
            used.len()
        );
    }

    #[test]
    fn zero_buffer_capacity_still_works() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 4, 0);
        idx.update(LineAddr::new(3), ptr(0, 9), Cycle::ZERO, &mut d);
        let (found, _) = idx.lookup(LineAddr::new(3), Cycle::ZERO, &mut d);
        assert_eq!(found, Some(ptr(0, 9)));
    }

    #[test]
    fn zero_buffer_update_reads_and_writes_the_bucket() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 4, 0);
        idx.update(LineAddr::new(3), ptr(0, 9), Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_update, 2 * 64, "one read, one write");
        assert_eq!(idx.stats().writebacks, 1);
        // Nothing is left to flush.
        idx.flush(Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_update, 2 * 64);
    }

    #[test]
    #[should_panic]
    fn zero_buckets_panics() {
        let _ = HashIndexTable::new(0, 12, 8);
    }
}
