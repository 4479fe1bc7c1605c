//! A bounded LRU map from miss addresses to history-buffer positions.
//!
//! This models an idealized on-chip *index table* with a bounded number of
//! entries and true least-recently-used replacement. It backs the
//! correlation-table-entries sweep of Figure 1 (left) and the idealized TMS
//! prefetcher.

use std::collections::VecDeque;
use stms_types::hash::IntHashMap;
use stms_types::LineAddr;

/// A bounded LRU map `LineAddr -> u64` with amortized O(1) operations.
///
/// Recency is tracked lazily: every touch pushes a `(line, tick)` pair onto a
/// queue, and eviction pops stale pairs until it finds one that still matches
/// the map.
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
    map: IntHashMap<LineAddr, (u64, u64)>, // value, last-touch tick
    recency: VecDeque<(LineAddr, u64)>,
    tick: u64,
}

impl LruIndex {
    /// Creates an index holding at most `capacity` entries. A capacity of
    /// zero creates an index that never stores anything.
    pub fn new(capacity: usize) -> Self {
        LruIndex {
            capacity,
            map: IntHashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            recency: VecDeque::new(),
            tick: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn touch(&mut self, line: LineAddr) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&line) {
            entry.1 = tick;
            self.recency.push_back((line, tick));
        }
        self.compact();
    }

    /// Looks up `line`, refreshing its recency.
    pub fn get(&mut self, line: LineAddr) -> Option<u64> {
        let value = self.map.get(&line).map(|&(v, _)| v)?;
        self.touch(line);
        Some(value)
    }

    /// Looks up `line` without refreshing recency.
    pub fn peek(&self, line: LineAddr) -> Option<u64> {
        self.map.get(&line).map(|&(v, _)| v)
    }

    /// Inserts or updates `line -> value`, evicting the least recently used
    /// entry if the index is full. Returns the evicted line, if any.
    pub fn insert(&mut self, line: LineAddr, value: u64) -> Option<LineAddr> {
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
        // Evict the least recently used entry: pop stale recency records
        // until one matches the map's current tick for that line.
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

    /// Drops stale recency records if the queue grows far beyond the map
    /// (keeps memory bounded under heavy re-touching). Runs in time linear in
    /// the queue length but only once the queue has grown several times
    /// larger than the map, so the amortized cost per touch is constant.
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

#[cfg(test)]
mod tests {
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
    }

    #[test]
    fn heavy_retouching_does_not_grow_unboundedly() {
        let mut idx = LruIndex::new(8);
        for i in 0..8u64 {
            idx.insert(LineAddr::new(i), i);
        }
        for _ in 0..10_000 {
            idx.get(LineAddr::new(3));
        }
        assert!(
            idx.recency.len() < 1000,
            "recency queue should be compacted"
        );
        assert_eq!(idx.len(), 8);
    }

    proptest! {
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
