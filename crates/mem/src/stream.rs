//! On-chip stream-following machinery: the per-core FIFO address queue and
//! the small fully-associative prefetch buffer (§4.2 of the paper).
//!
//! These structures are owned by the simulation engine and shared by every
//! prefetcher implementation; they correspond to the "stream engine",
//! "prefetch buffer" and "address queue" blocks of Figure 2.

use crate::lanes;
use crate::recency::{Link, Linked, RecencyList};
use std::collections::VecDeque;
use stms_types::{Cycle, LineAddr};

/// One prefetched block held in the prefetch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchedBlock {
    /// The prefetched line.
    pub line: LineAddr,
    /// Cycle at which the data arrives from memory.
    pub available_at: Cycle,
}

/// A prefetch-buffer slot: its block, and its place in fill order.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    block: PrefetchedBlock,
    link: Link,
}

impl Linked for Slot {
    fn link(&mut self) -> &mut Link {
        &mut self.link
    }
}

/// The small, fully-associative per-core prefetch buffer (2 KB = 32 lines in
/// the paper). Prefetched blocks are held here instead of polluting the
/// caches; demand accesses that match are "covered" misses.
///
/// Blocks sit in fixed slots with a `u32` fingerprint lane each (see
/// [`crate::lanes`]), so a lookup is one branch-free compare of all lanes
/// plus an exact line check at each match. A [`RecencyList`] orders the
/// slots by when they were last filled. A full buffer holds a block in
/// every slot, so its oldest slot holds the block inserted first, the
/// victim, found in O(1).
///
/// # Example
///
/// ```
/// use stms_mem::PrefetchBuffer;
/// use stms_types::{Cycle, LineAddr};
///
/// let mut buf = PrefetchBuffer::new(2);
/// buf.insert(LineAddr::new(1), Cycle::new(100));
/// buf.insert(LineAddr::new(2), Cycle::new(120));
/// // Inserting a third block evicts the oldest unused one.
/// let evicted = buf.insert(LineAddr::new(3), Cycle::new(140)).unwrap();
/// assert_eq!(evicted.line, LineAddr::new(1));
/// assert!(buf.take(LineAddr::new(2)).is_some());
/// assert!(buf.take(LineAddr::new(2)).is_none(), "consumed");
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    capacity: usize,
    len: usize,
    /// Fingerprint of each slot's line, [`lanes::FREE`] for an empty slot.
    lanes: lanes::Lanes,
    slots: Vec<Slot>,
    /// The slots by when they were last filled.
    filled: RecencyList,
}

impl PrefetchBuffer {
    /// Creates a prefetch buffer holding up to `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch buffer capacity must be non-zero");
        PrefetchBuffer {
            capacity,
            len: 0,
            lanes: lanes::Lanes::new(capacity),
            slots: vec![Slot::default(); capacity],
            filled: RecencyList::default(),
        }
    }

    /// Number of blocks currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot holding `line`, if buffered.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let slots = &self.slots;
        self.lanes.find(lanes::fingerprint(line.raw()), |slot| {
            slots[slot].block.line == line
        })
    }

    /// Whether `line` is buffered (without consuming it).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Inserts a prefetched block, evicting the oldest block if full. The
    /// evicted block (which was never used) is returned so the caller can
    /// account for it as an erroneous prefetch. Re-inserting an already
    /// buffered line refreshes its availability and evicts nothing.
    pub fn insert(&mut self, line: LineAddr, available_at: Cycle) -> Option<PrefetchedBlock> {
        if let Some(slot) = self.find(line) {
            let existing = &mut self.slots[slot].block;
            existing.available_at = existing.available_at.min(available_at);
            return None;
        }
        let (slot, evicted) = if self.len == self.capacity {
            let oldest = self.filled.oldest().expect("a full buffer has a block") as usize;
            (oldest, Some(self.slots[oldest].block))
        } else {
            self.len += 1;
            let free = self.lanes.find(lanes::FREE, |_| true);
            (free.expect("a buffer below capacity has a free slot"), None)
        };
        self.lanes.set(slot, lanes::fingerprint(line.raw()));
        self.slots[slot].block = PrefetchedBlock { line, available_at };
        self.filled.push_newest(&mut self.slots, slot as u32);
        evicted
    }

    /// Consumes `line` if buffered, returning the block. This models a demand
    /// access being satisfied from the prefetch buffer.
    pub fn take(&mut self, line: LineAddr) -> Option<PrefetchedBlock> {
        let slot = self.find(line)?;
        self.lanes.set(slot, lanes::FREE);
        self.len -= 1;
        Some(self.slots[slot].block)
    }

    /// Discards every buffered block and returns how many there were
    /// (end-of-simulation accounting of never-used prefetches).
    pub fn clear(&mut self) -> usize {
        let dropped = self.len;
        self.lanes.clear();
        self.len = 0;
        dropped
    }
}

/// The per-core stream state: the FIFO queue of predicted addresses not yet
/// prefetched, plus the stream's availability time.
#[derive(Debug, Clone, Default)]
pub struct StreamState {
    queue: VecDeque<LineAddr>,
    ready_at: Cycle,
    active: bool,
    exhausted: bool,
}

impl StreamState {
    /// Creates an inactive stream.
    pub fn new() -> Self {
        StreamState::default()
    }

    /// Whether a stream is currently being followed.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the predictor has said it has no more addresses for this
    /// stream.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Cycle at which queued addresses are available for prefetching.
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }

    /// Number of queued (not yet prefetched) addresses.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Begins a new stream, discarding any previous one.
    pub fn start(&mut self, addresses: Vec<LineAddr>, ready_at: Cycle) {
        self.queue = addresses.into();
        self.ready_at = ready_at;
        self.active = true;
        self.exhausted = false;
    }

    /// Appends more addresses supplied by the predictor.
    pub fn extend(&mut self, addresses: Vec<LineAddr>, ready_at: Cycle) {
        if addresses.is_empty() {
            self.exhausted = true;
            return;
        }
        self.ready_at = self.ready_at.max(ready_at);
        self.queue.extend(addresses);
    }

    /// Stops following the current stream.
    pub fn squash(&mut self) {
        self.queue.clear();
        self.active = false;
        self.exhausted = false;
    }

    /// Whether `line` is waiting in the queue.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.queue.iter().any(|&l| l == line)
    }

    /// Pops the next address to prefetch.
    pub fn pop(&mut self) -> Option<LineAddr> {
        self.queue.pop_front()
    }

    /// Drops queue entries up to and including `line` (used when a demand
    /// miss overtakes the stream: earlier entries are behind the demand
    /// point and no longer worth prefetching). Returns how many entries were
    /// dropped, including the matching one.
    pub fn drop_through(&mut self, line: LineAddr) -> usize {
        let Some(pos) = self.queue.iter().position(|&l| l == line) else {
            return 0;
        };
        let dropped = pos + 1;
        self.queue.drain(..dropped);
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_buffer_insert_take() {
        let mut b = PrefetchBuffer::new(4);
        assert!(b.is_empty());
        assert!(b.insert(LineAddr::new(1), Cycle::new(10)).is_none());
        assert!(b.contains(LineAddr::new(1)));
        assert_eq!(b.len(), 1);
        let blk = b.take(LineAddr::new(1)).unwrap();
        assert_eq!(blk.available_at, Cycle::new(10));
        assert!(b.take(LineAddr::new(1)).is_none());
    }

    #[test]
    fn prefetch_buffer_fifo_eviction() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(LineAddr::new(1), Cycle::new(1));
        b.insert(LineAddr::new(2), Cycle::new(2));
        let ev = b.insert(LineAddr::new(3), Cycle::new(3)).unwrap();
        assert_eq!(ev.line, LineAddr::new(1));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn prefetch_buffer_reinsert_keeps_earliest_availability() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(LineAddr::new(1), Cycle::new(100));
        assert!(b.insert(LineAddr::new(1), Cycle::new(50)).is_none());
        assert_eq!(
            b.take(LineAddr::new(1)).unwrap().available_at,
            Cycle::new(50)
        );
    }

    #[test]
    fn prefetch_buffer_clear_counts_unused() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(LineAddr::new(1), Cycle::new(1));
        b.insert(LineAddr::new(2), Cycle::new(2));
        assert_eq!(b.clear(), 2);
        assert!(b.is_empty());
        assert!(!b.contains(LineAddr::new(1)));
        assert_eq!(b.clear(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn prefetch_buffer_zero_capacity_panics() {
        let _ = PrefetchBuffer::new(0);
    }

    #[test]
    fn stream_state_lifecycle() {
        let mut s = StreamState::new();
        assert!(!s.is_active());
        s.start(vec![LineAddr::new(1), LineAddr::new(2)], Cycle::new(500));
        assert!(s.is_active());
        assert_eq!(s.ready_at(), Cycle::new(500));
        assert_eq!(s.queued(), 2);
        assert!(s.contains(LineAddr::new(2)));
        assert_eq!(s.pop(), Some(LineAddr::new(1)));
        s.squash();
        assert!(!s.is_active());
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn stream_extend_and_exhaustion() {
        let mut s = StreamState::new();
        s.start(vec![LineAddr::new(1)], Cycle::new(10));
        s.extend(vec![LineAddr::new(2)], Cycle::new(20));
        assert_eq!(s.queued(), 2);
        assert_eq!(s.ready_at(), Cycle::new(20));
        assert!(!s.is_exhausted());
        s.extend(Vec::new(), Cycle::new(30));
        assert!(s.is_exhausted());
    }

    #[test]
    fn stream_drop_through() {
        let mut s = StreamState::new();
        s.start(
            vec![
                LineAddr::new(1),
                LineAddr::new(2),
                LineAddr::new(3),
                LineAddr::new(4),
            ],
            Cycle::ZERO,
        );
        assert_eq!(s.drop_through(LineAddr::new(3)), 3);
        assert_eq!(s.queued(), 1);
        assert!(s.contains(LineAddr::new(4)));
        assert_eq!(s.drop_through(LineAddr::new(99)), 0);
    }
}
