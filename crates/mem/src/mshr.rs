//! Miss Status Holding Register (MSHR) file.
//!
//! The timing model uses an MSHR file per core to bound how many off-chip
//! misses can be outstanding simultaneously (and therefore how much
//! memory-level parallelism a core can express). Requests to the same line
//! merge into the existing entry.

use stms_types::{Cycle, LineAddr};

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// The missing line.
    pub line: LineAddr,
    /// Cycle at which the fill completes.
    pub completes_at: Cycle,
}

/// A bounded file of outstanding misses.
///
/// # Example
///
/// ```
/// use stms_mem::MshrFile;
/// use stms_types::{Cycle, LineAddr};
///
/// let mut mshrs = MshrFile::new(2);
/// assert!(mshrs.allocate(LineAddr::new(1), Cycle::new(100)));
/// assert!(mshrs.allocate(LineAddr::new(2), Cycle::new(120)));
/// assert!(!mshrs.allocate(LineAddr::new(3), Cycle::new(130)), "file is full");
/// mshrs.retire_completed(Cycle::new(110));
/// assert_eq!(mshrs.outstanding(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<MshrEntry>,
    /// Earliest `completes_at` among `entries` (`None` when empty). While
    /// it lies in the future nothing can retire, so the engine's per-access
    /// [`MshrFile::retire_completed`] call returns without a scan.
    earliest: Option<Cycle>,
}

impl MshrFile {
    /// Creates an MSHR file with space for `capacity` outstanding misses.
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            earliest: None,
        }
    }

    /// Number of outstanding misses.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Whether no more misses can be tracked.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Whether a miss to `line` is already outstanding.
    pub fn lookup(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// Tries to track a new outstanding miss. Returns `false` (and does
    /// nothing) if the file is full. A request to an already-outstanding line
    /// merges and always succeeds.
    pub fn allocate(&mut self, line: LineAddr, completes_at: Cycle) -> bool {
        if self.lookup(line).is_some() {
            return true;
        }
        if self.is_full() {
            return false;
        }
        self.entries.push(MshrEntry { line, completes_at });
        self.earliest = Some(self.earliest.map_or(completes_at, |e| e.min(completes_at)));
        true
    }

    /// Removes entries whose fills completed at or before `now`, returning
    /// how many were retired.
    pub fn retire_completed(&mut self, now: Cycle) -> usize {
        match self.earliest {
            Some(earliest) if earliest <= now => {}
            _ => return 0,
        }
        let before = self.entries.len();
        self.entries.retain(|e| e.completes_at > now);
        self.earliest = self.entries.iter().map(|e| e.completes_at).min();
        before - self.entries.len()
    }

    /// Earliest completion time among outstanding misses.
    pub fn earliest_completion(&self) -> Option<Cycle> {
        self.earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(2);
        assert!(!m.is_full());
        assert!(m.allocate(LineAddr::new(1), Cycle::new(10)));
        assert!(m.allocate(LineAddr::new(2), Cycle::new(20)));
        assert!(m.is_full());
        assert!(!m.allocate(LineAddr::new(3), Cycle::new(30)));
        assert_eq!(m.outstanding(), 2);
    }

    #[test]
    fn same_line_merges_even_when_full() {
        let mut m = MshrFile::new(1);
        assert!(m.allocate(LineAddr::new(1), Cycle::new(10)));
        assert!(m.allocate(LineAddr::new(1), Cycle::new(99)));
        assert_eq!(m.outstanding(), 1);
        // The completion time of the original entry is preserved.
        assert_eq!(
            m.lookup(LineAddr::new(1)).unwrap().completes_at,
            Cycle::new(10)
        );
    }

    #[test]
    fn retire_removes_only_completed() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr::new(1), Cycle::new(10));
        m.allocate(LineAddr::new(2), Cycle::new(20));
        m.allocate(LineAddr::new(3), Cycle::new(30));
        assert_eq!(m.retire_completed(Cycle::new(20)), 2);
        assert_eq!(m.outstanding(), 1);
        assert!(m.lookup(LineAddr::new(3)).is_some());
    }

    #[test]
    fn earliest_completion_and_clear() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.earliest_completion(), None);
        m.allocate(LineAddr::new(1), Cycle::new(50));
        m.allocate(LineAddr::new(2), Cycle::new(40));
        assert_eq!(m.earliest_completion(), Some(Cycle::new(40)));
        assert_eq!(m.retire_completed(Cycle::new(50)), 2);
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.earliest_completion(), None);
    }
}
