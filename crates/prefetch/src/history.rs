//! A bounded, append-only log of miss addresses ("history buffer").
//!
//! This is the in-memory data structure shared by the idealized temporal
//! streaming prefetcher and (conceptually) by the Global History Buffer
//! baseline: addresses are appended in miss order and addressed by an
//! absolute, monotonically-increasing position. Old entries beyond the
//! capacity are forgotten; reads of forgotten positions return nothing.

use stms_types::LineAddr;

/// An append-only circular log of line addresses with absolute positions.
///
/// # Example
///
/// ```
/// use stms_prefetch::HistoryLog;
/// use stms_types::LineAddr;
///
/// let mut log = HistoryLog::new(4);
/// for i in 0..6u64 {
///     log.append(LineAddr::new(i));
/// }
/// // Positions 0 and 1 have been overwritten by 4 and 5.
/// assert_eq!(log.get(0), None);
/// assert_eq!(log.get(3), Some(LineAddr::new(3)));
/// assert_eq!(log.read_from(2, 10), vec![LineAddr::new(2), LineAddr::new(3), LineAddr::new(4), LineAddr::new(5)]);
/// ```
#[derive(Debug, Clone)]
pub struct HistoryLog {
    buf: Vec<LineAddr>,
    capacity: usize,
    /// Total number of entries ever appended; the next append gets this
    /// position.
    next_pos: u64,
}

impl HistoryLog {
    /// Creates a log holding up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be non-zero");
        HistoryLog {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            next_pos: 0,
        }
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no entries have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Oldest position still retained.
    pub fn oldest_position(&self) -> u64 {
        self.next_pos.saturating_sub(self.buf.len() as u64)
    }

    /// Appends an address and returns its absolute position.
    pub fn append(&mut self, line: LineAddr) -> u64 {
        let pos = self.next_pos;
        if self.buf.len() < self.capacity {
            self.buf.push(line);
        } else {
            let idx = (pos % self.capacity as u64) as usize;
            self.buf[idx] = line;
        }
        self.next_pos += 1;
        pos
    }

    /// Returns the address at an absolute position, if still retained.
    pub fn get(&self, pos: u64) -> Option<LineAddr> {
        if pos >= self.next_pos || pos < self.oldest_position() {
            return None;
        }
        let idx = (pos % self.capacity as u64) as usize;
        Some(self.buf[idx])
    }

    /// Reads up to `n` consecutive entries starting at `pos`, stopping at the
    /// end of the log or at the retention horizon.
    pub fn read_from(&self, pos: u64, n: usize) -> Vec<LineAddr> {
        let mut out = Vec::with_capacity(n.min(64));
        for p in pos..pos.saturating_add(n as u64) {
            match self.get(p) {
                Some(line) => out.push(line),
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn append_and_get() {
        let mut log = HistoryLog::new(8);
        assert!(log.is_empty());
        assert_eq!(log.append(LineAddr::new(10)), 0);
        assert_eq!(log.append(LineAddr::new(11)), 1);
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(0), Some(LineAddr::new(10)));
        assert_eq!(log.get(1), Some(LineAddr::new(11)));
        assert_eq!(log.get(2), None, "position 2 is the write point");
        assert_eq!(log.oldest_position(), 0);
    }

    #[test]
    fn wrap_around_forgets_old_entries() {
        let mut log = HistoryLog::new(3);
        for i in 0..7u64 {
            log.append(LineAddr::new(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.oldest_position(), 4);
        assert_eq!(log.get(3), None);
        assert_eq!(log.get(4), Some(LineAddr::new(4)));
        assert_eq!(log.get(6), Some(LineAddr::new(6)));
    }

    #[test]
    fn read_from_stops_at_end() {
        let mut log = HistoryLog::new(10);
        for i in 0..5u64 {
            log.append(LineAddr::new(i * 2));
        }
        assert_eq!(
            log.read_from(3, 10),
            vec![LineAddr::new(6), LineAddr::new(8)]
        );
        assert!(log.read_from(99, 4).is_empty());
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(HistoryLog::new(17).capacity(), 17);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = HistoryLog::new(0);
    }

    proptest! {
        /// Retained entries always read back exactly what was appended.
        #[test]
        fn prop_retained_entries_match(
            lines in proptest::collection::vec(0u64..1_000_000, 1..300),
            capacity in 1usize..64,
        ) {
            let mut log = HistoryLog::new(capacity);
            for &l in &lines {
                log.append(LineAddr::new(l));
            }
            let oldest = log.oldest_position();
            let write_point = lines.len() as u64;
            for pos in oldest..write_point {
                prop_assert_eq!(log.get(pos), Some(LineAddr::new(lines[pos as usize])));
            }
            // Nothing before the horizon or at/after the write point resolves.
            if oldest > 0 {
                prop_assert_eq!(log.get(oldest - 1), None);
            }
            prop_assert_eq!(log.get(write_point), None);
            prop_assert_eq!(log.len(), capacity.min(lines.len()));
        }

        /// read_from agrees with repeated get.
        #[test]
        fn prop_read_from_matches_get(
            lines in proptest::collection::vec(0u64..1000, 1..200),
            start in 0u64..250,
            n in 0usize..50,
        ) {
            let mut log = HistoryLog::new(64);
            for &l in &lines {
                log.append(LineAddr::new(l));
            }
            let run = log.read_from(start, n);
            for (i, line) in run.iter().enumerate() {
                prop_assert_eq!(Some(*line), log.get(start + i as u64));
            }
        }
    }
}
