//! A bounded LRU map from miss addresses to history-buffer positions.
//!
//! This models an idealized on-chip *index table* with a bounded number of
//! entries and true least-recently-used replacement. It backs the
//! correlation-table-entries sweep of Figure 1 (left) and the idealized TMS
//! prefetcher.
//!
//! Memory follows occupancy, not the bound. Entries live in a slab of
//! slots that grows by one slot per new line until it holds `capacity`
//! slots; after that a new line takes the least recently used slot. A
//! [`RecencyList`] threaded through the slots keeps them in recency order,
//! and a hash map from line to slot starts empty and grows with the slab.
//! Nothing is sized by `capacity` before the first insert: Figure 1 (left)
//! sweeps the bound up to 2^20 entries, while a figure trace fills a few
//! tens of thousands.

use stms_mem::recency::{Link, Linked, RecencyList};
use stms_types::hash::IntHashMap;
use stms_types::LineAddr;

/// One entry: its line, its value and its place in the recency order.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    value: u64,
    link: Link,
}

impl Linked for Slot {
    fn link(&mut self) -> &mut Link {
        &mut self.link
    }
}

/// A bounded LRU map `LineAddr -> u64` with O(1) operations.
///
/// # Example
///
/// ```
/// use stms_prefetch::LruIndex;
/// use stms_types::LineAddr;
///
/// let mut idx = LruIndex::new(2);
/// idx.insert(LineAddr::new(1), 100);
/// idx.insert(LineAddr::new(2), 200);
/// idx.get(LineAddr::new(1)); // touch 1 so 2 becomes LRU
/// idx.insert(LineAddr::new(3), 300);
/// assert_eq!(idx.get(LineAddr::new(2)), None);
/// assert_eq!(idx.get(LineAddr::new(1)), Some(100));
/// ```
#[derive(Debug, Clone)]
pub struct LruIndex {
    capacity: usize,
    slots: Vec<Slot>,
    map: IntHashMap<LineAddr, u32>,
    recency: RecencyList,
}

impl LruIndex {
    /// Creates an index holding at most `capacity` entries. A capacity of
    /// zero creates an index that never stores anything.
    pub fn new(capacity: usize) -> Self {
        LruIndex {
            capacity,
            slots: Vec::new(),
            map: IntHashMap::default(),
            recency: RecencyList::default(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up `line`, refreshing its recency.
    pub fn get(&mut self, line: LineAddr) -> Option<u64> {
        let slot = *self.map.get(&line)?;
        self.recency.push_newest(&mut self.slots, slot);
        Some(self.slots[slot as usize].value)
    }

    /// Looks up `line` without refreshing recency.
    pub fn peek(&self, line: LineAddr) -> Option<u64> {
        self.map
            .get(&line)
            .map(|&slot| self.slots[slot as usize].value)
    }

    /// Inserts or updates `line -> value`, evicting the least recently used
    /// entry if the index is full. Returns the evicted line, if any.
    pub fn insert(&mut self, line: LineAddr, value: u64) -> Option<LineAddr> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.map.get(&line) {
            self.slots[slot as usize].value = value;
            self.recency.push_newest(&mut self.slots, slot);
            return None;
        }
        let (slot, evicted) = if self.slots.len() < self.capacity {
            let slot = u32::try_from(self.slots.len()).expect("index slot numbers fit a u32");
            self.slots.push(Slot {
                line,
                value,
                link: Link::default(),
            });
            (slot, None)
        } else {
            let slot = self.recency.oldest().expect("a full index links its slots");
            let victim = &mut self.slots[slot as usize];
            let old = std::mem::replace(&mut victim.line, line);
            victim.value = value;
            self.map.remove(&old);
            (slot, Some(old))
        };
        self.map.insert(line, slot);
        self.recency.push_newest(&mut self.slots, slot);
        evicted
    }

    /// Slots and map buckets allocated, for the memory tests.
    #[cfg(test)]
    fn allocated(&self) -> (usize, usize) {
        (self.slots.capacity(), self.map.capacity())
    }
}

/// The lazy-queue index this module replaced, kept as the differential
/// tests' reference: every touch pushes a `(line, tick)` record onto a
/// queue, and eviction pops stale records until one still matches the map.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::VecDeque;
    use stms_types::hash::IntHashMap;
    use stms_types::LineAddr;

    #[derive(Debug)]
    pub(crate) struct QueueLruIndex {
        capacity: usize,
        map: IntHashMap<LineAddr, (u64, u64)>, // value, last-touch tick
        recency: VecDeque<(LineAddr, u64)>,
        tick: u64,
    }

    impl QueueLruIndex {
        pub(crate) fn new(capacity: usize) -> Self {
            QueueLruIndex {
                capacity,
                map: IntHashMap::default(),
                recency: VecDeque::new(),
                tick: 0,
            }
        }

        pub(crate) fn len(&self) -> usize {
            self.map.len()
        }

        pub(crate) fn get(&mut self, line: LineAddr) -> Option<u64> {
            let value = self.map.get(&line).map(|&(v, _)| v)?;
            self.tick += 1;
            let tick = self.tick;
            if let Some(entry) = self.map.get_mut(&line) {
                entry.1 = tick;
                self.recency.push_back((line, tick));
            }
            self.compact();
            Some(value)
        }

        pub(crate) fn peek(&self, line: LineAddr) -> Option<u64> {
            self.map.get(&line).map(|&(v, _)| v)
        }

        pub(crate) fn insert(&mut self, line: LineAddr, value: u64) -> Option<LineAddr> {
            if self.capacity == 0 {
                return None;
            }
            self.tick += 1;
            let tick = self.tick;
            let existed = self.map.insert(line, (value, tick)).is_some();
            self.recency.push_back((line, tick));
            if existed || self.map.len() <= self.capacity {
                self.compact();
                return None;
            }
            while let Some((old_line, old_tick)) = self.recency.pop_front() {
                match self.map.get(&old_line) {
                    Some(&(_, current_tick)) if current_tick == old_tick => {
                        self.map.remove(&old_line);
                        return Some(old_line);
                    }
                    _ => continue,
                }
            }
            None
        }

        /// Drops stale records once the queue outgrows the map several
        /// times over.
        fn compact(&mut self) {
            if self.recency.len() < self.map.len().saturating_mul(4) + 64 {
                return;
            }
            let map = &self.map;
            self.recency.retain(
                |&(line, tick)| matches!(map.get(&line), Some(&(_, current)) if current == tick),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::QueueLruIndex;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_get() {
        let mut idx = LruIndex::new(4);
        assert!(idx.is_empty());
        assert!(idx.insert(LineAddr::new(1), 11).is_none());
        assert_eq!(idx.get(LineAddr::new(1)), Some(11));
        assert_eq!(idx.peek(LineAddr::new(1)), Some(11));
        assert_eq!(idx.get(LineAddr::new(2)), None);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.capacity(), 4);
    }

    #[test]
    fn update_replaces_value_without_eviction() {
        let mut idx = LruIndex::new(2);
        idx.insert(LineAddr::new(1), 10);
        idx.insert(LineAddr::new(2), 20);
        assert!(idx.insert(LineAddr::new(1), 15).is_none());
        assert_eq!(idx.get(LineAddr::new(1)), Some(15));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut idx = LruIndex::new(2);
        idx.insert(LineAddr::new(1), 10);
        idx.insert(LineAddr::new(2), 20);
        idx.get(LineAddr::new(1));
        let evicted = idx.insert(LineAddr::new(3), 30);
        assert_eq!(evicted, Some(LineAddr::new(2)));
        assert_eq!(idx.get(LineAddr::new(2)), None);
        assert_eq!(idx.get(LineAddr::new(1)), Some(10));
        assert_eq!(idx.get(LineAddr::new(3)), Some(30));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut idx = LruIndex::new(0);
        assert!(idx.insert(LineAddr::new(1), 10).is_none());
        assert_eq!(idx.get(LineAddr::new(1)), None);
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.allocated(), (0, 0));
    }

    #[test]
    fn heavy_retouching_does_not_grow_unboundedly() {
        let mut idx = LruIndex::new(8);
        for i in 0..8u64 {
            idx.insert(LineAddr::new(i), i);
        }
        let full = idx.allocated();
        for _ in 0..10_000 {
            idx.get(LineAddr::new(3));
            idx.insert(LineAddr::new(5), 50);
        }
        assert_eq!(idx.len(), 8);
        assert_eq!(idx.slots.len(), idx.len());
        assert_eq!(idx.map.len(), idx.len());
        assert_eq!(idx.allocated(), full, "re-touches allocate nothing");
    }

    #[test]
    fn memory_grows_with_occupancy() {
        // Figure 1 (left)'s largest bound: nothing is reserved for it.
        let mut idx = LruIndex::new(1 << 20);
        assert_eq!(idx.allocated(), (0, 0));
        let n = 1000;
        for l in 0..n as u64 {
            idx.insert(LineAddr::new(l), l);
        }
        let (slots, buckets) = idx.allocated();
        assert_eq!(idx.len(), n);
        assert!(slots <= 2 * n, "{slots} slots for {n} entries");
        assert!(buckets <= 2 * n, "{buckets} map buckets for {n} entries");
    }

    /// A capacity of 0-8 and a script of `(op, line, value)` steps over a
    /// small key range, so the index fills, evicts and re-touches often.
    /// `op` 0 inserts, 1 gets, 2 peeks.
    type Script = (usize, Vec<(u8, u64, u64)>);

    fn arb_script() -> impl Strategy<Value = Script> {
        (
            0usize..9,
            proptest::collection::vec((0u8..3, 0u64..16, 0u64..1000), 0..500),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Every return value, every evicted line and the length match the
        /// lazy-queue reference after every step.
        #[test]
        fn matches_queue_reference(script in arb_script()) {
            let (capacity, ops) = script;
            let mut idx = LruIndex::new(capacity);
            let mut reference = QueueLruIndex::new(capacity);
            for (op, raw, value) in ops {
                let line = LineAddr::new(raw);
                match op {
                    0 => prop_assert_eq!(idx.insert(line, value), reference.insert(line, value)),
                    1 => prop_assert_eq!(idx.get(line), reference.get(line)),
                    _ => prop_assert_eq!(idx.peek(line), reference.peek(line)),
                }
                prop_assert_eq!(idx.len(), reference.len());
            }
        }

        /// The index never exceeds its capacity and always returns the most
        /// recently inserted value for a key.
        #[test]
        fn prop_capacity_respected_and_values_current(
            ops in proptest::collection::vec((0u64..50, 0u64..1000), 1..500),
            capacity in 1usize..16,
        ) {
            let mut idx = LruIndex::new(capacity);
            let mut last_value = std::collections::HashMap::new();
            for (line, value) in ops {
                idx.insert(LineAddr::new(line), value);
                last_value.insert(line, value);
                prop_assert!(idx.len() <= capacity);
            }
            // Every entry still present must hold its most recent value.
            for (&line, &value) in &last_value {
                if let Some(v) = idx.peek(LineAddr::new(line)) {
                    prop_assert_eq!(v, value);
                }
            }
        }

        /// With capacity >= number of distinct keys, nothing is ever evicted.
        #[test]
        fn prop_no_eviction_when_capacity_sufficient(
            keys in proptest::collection::vec(0u64..20, 1..200),
        ) {
            let mut idx = LruIndex::new(32);
            for (i, k) in keys.iter().enumerate() {
                prop_assert!(idx.insert(LineAddr::new(*k), i as u64).is_none());
            }
            for k in keys {
                prop_assert!(idx.peek(LineAddr::new(k)).is_some());
            }
        }
    }
}
