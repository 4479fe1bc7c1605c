//! The shared pool of previously-emitted temporal streams.
//!
//! The generator records every newly-created stream here; recurrences are
//! produced by drawing streams back out of the pool. Bounding the pool's
//! capacity bounds the *reuse distance* of the synthetic workload, which is
//! what the history-buffer-size sweep of Figure 5 (left) measures.

use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use stms_types::LineAddr;

/// A temporal stream: a fixed sequence of cache-line addresses that recurs
/// over the course of the synthetic program's execution.
pub type SharedStream = Arc<Vec<LineAddr>>;

/// A bounded FIFO pool of temporal streams shared by all cores.
///
/// # Example
///
/// ```
/// use stms_workloads::StreamPool;
/// use stms_types::LineAddr;
/// use rand::SeedableRng;
///
/// let mut pool = StreamPool::new(2);
/// pool.add(vec![LineAddr::new(1), LineAddr::new(2)]);
/// pool.add(vec![LineAddr::new(3)]);
/// pool.add(vec![LineAddr::new(4)]); // evicts the oldest stream
/// assert_eq!(pool.len(), 2);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert!(pool.pick(&mut rng).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct StreamPool {
    streams: VecDeque<SharedStream>,
    capacity: usize,
}

impl StreamPool {
    /// Creates a pool retaining at most `capacity` streams.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stream pool capacity must be non-zero");
        StreamPool {
            streams: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Number of streams currently retained.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the pool holds no streams.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Adds a newly-created stream, evicting the oldest stream if the pool is
    /// full. Returns a shared handle to the added stream.
    pub fn add(&mut self, stream: Vec<LineAddr>) -> SharedStream {
        let shared: SharedStream = Arc::new(stream);
        if self.streams.len() >= self.capacity {
            self.streams.pop_front();
        }
        self.streams.push_back(Arc::clone(&shared));
        shared
    }

    /// Draws a uniformly random stream from the pool, if any.
    pub fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<SharedStream> {
        if self.streams.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.streams.len());
        Some(Arc::clone(&self.streams[idx]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lines(v: &[u64]) -> Vec<LineAddr> {
        v.iter().copied().map(LineAddr::new).collect()
    }

    #[test]
    fn add_and_pick() {
        let mut pool = StreamPool::new(4);
        assert!(pool.is_empty());
        pool.add(lines(&[1, 2, 3]));
        pool.add(lines(&[4, 5]));
        assert_eq!(pool.len(), 2);
        let mut rng = StdRng::seed_from_u64(7);
        let s = pool.pick(&mut rng).unwrap();
        assert!(!s.is_empty());
    }

    #[test]
    fn pick_from_empty_pool_is_none() {
        let pool = StreamPool::new(4);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(pool.pick(&mut rng).is_none());
    }

    #[test]
    fn capacity_bounds_pool_and_block_count() {
        let mut pool = StreamPool::new(2);
        pool.add(lines(&[1, 2, 3, 4]));
        pool.add(lines(&[5, 6]));
        pool.add(lines(&[7]));
        assert_eq!(pool.len(), 2);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            let s = pool.pick(&mut rng).unwrap();
            assert_ne!(s.len(), 4, "the evicted stream never comes back");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = StreamPool::new(0);
    }
}
