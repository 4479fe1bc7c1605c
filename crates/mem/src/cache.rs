//! Set-associative cache model with LRU replacement.
//!
//! Used for both the per-core L1 data caches and the shared L2 of the
//! simulated CMP. The model is functional (tag-only): it tracks presence and
//! dirtiness of lines, not their contents.

use crate::config::CacheConfig;
use stms_types::LineAddr;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent.
    Miss,
}

impl CacheOutcome {
    /// Whether the access hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Address of the evicted line.
    pub line: LineAddr,
    /// Whether the evicted line was dirty (requires a writeback).
    pub dirty: bool,
}

/// A set-associative, write-back, LRU cache.
///
/// # Example
///
/// ```
/// use stms_mem::{CacheConfig, SetAssocCache};
/// use stms_types::LineAddr;
///
/// let mut cache = SetAssocCache::new(CacheConfig {
///     capacity_bytes: 4096,
///     associativity: 2,
///     line_bytes: 64,
///     hit_latency: 2,
/// });
/// let line = LineAddr::new(7);
/// assert!(!cache.access(line, false).is_hit());
/// cache.fill(line, false);
/// assert!(cache.access(line, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    // Way `w` of set `s` is index `s * associativity + w` of the three
    // parallel arrays, so a lookup scans one contiguous run of tags.
    tags: Vec<u64>,
    /// Recency stamps: larger = more recently used. A way is valid exactly
    /// when its stamp is non-zero: the stamp clock starts at 1 and every
    /// access or fill takes a fresh stamp, while invalid ways keep 0. So
    /// the first way of a set with the smallest stamp is its first invalid
    /// way if it has one and its least recently used way otherwise, which
    /// is the victim rule.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    associativity: usize,
    set_mask: u64,
    /// `log2` of the set count: the tag is the line address shifted right
    /// by this much.
    set_bits: u32,
    lru_clock: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the number of sets is not a power of two or associativity is
    /// zero.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(cfg.associativity > 0, "associativity must be non-zero");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        let ways = sets * cfg.associativity;
        SetAssocCache {
            cfg,
            tags: vec![0; ways],
            stamps: vec![0; ways],
            dirty: vec![false; ways],
            associativity: cfg.associativity,
            set_mask: (sets - 1) as u64,
            set_bits: sets.trailing_zeros(),
            lru_clock: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The set index and tag of `line`.
    fn locate(&self, line: LineAddr) -> (usize, u64) {
        (
            (line.raw() & self.set_mask) as usize,
            line.raw() >> self.set_bits,
        )
    }

    /// The array indices of `set`'s ways.
    fn ways(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.associativity;
        base..base + self.associativity
    }

    /// The array index of the valid way of `set` holding `tag`.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let ways = self.ways(set);
        let base = ways.start;
        self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .position(|(&t, &stamp)| t == tag && stamp != 0)
            .map(|w| base + w)
    }

    /// Performs a lookup; on a hit the line's recency is updated and, for
    /// writes, the line is marked dirty. Misses do **not** allocate — call
    /// [`SetAssocCache::fill`] once the miss is serviced.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> CacheOutcome {
        let (set, tag) = self.locate(line);
        self.lru_clock += 1;
        if let Some(w) = self.find(set, tag) {
            self.stamps[w] = self.lru_clock;
            self.dirty[w] |= is_write;
            return CacheOutcome::Hit;
        }
        CacheOutcome::Miss
    }

    /// Checks presence without updating recency.
    pub fn probe(&self, line: LineAddr) -> bool {
        let (set, tag) = self.locate(line);
        self.find(set, tag).is_some()
    }

    /// Inserts a line, evicting the LRU way of its set if needed. Returns the
    /// eviction, if any. If the line is already present the call only updates
    /// its dirty bit and recency.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction> {
        self.fill_way(line, dirty).1
    }

    /// [`SetAssocCache::fill`], also naming the way of the line's set that
    /// now holds it when the fill inserted the line (`None` when it was
    /// already present).
    pub fn fill_way(&mut self, line: LineAddr, dirty: bool) -> (Option<usize>, Option<Eviction>) {
        let (set_idx, tag) = self.locate(line);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let ways = self.ways(set_idx);
        let tags = &mut self.tags[ways.clone()];
        let stamps = &mut self.stamps[ways.clone()];
        let dirty_bits = &mut self.dirty[ways];
        // One pass finds a hit, or else the first way with the smallest
        // stamp: the first invalid way, or the LRU way when all are valid.
        let (mut victim, mut victim_stamp) = (0, u64::MAX);
        for (w, (&t, &stamp)) in tags.iter().zip(stamps.iter()).enumerate() {
            if t == tag && stamp != 0 {
                dirty_bits[w] |= dirty;
                stamps[w] = clock;
                return (None, None);
            }
            if stamp < victim_stamp {
                (victim, victim_stamp) = (w, stamp);
            }
        }
        let eviction = (victim_stamp != 0).then(|| Eviction {
            line: LineAddr::new((tags[victim] << self.set_bits) | set_idx as u64),
            dirty: dirty_bits[victim],
        });
        tags[victim] = tag;
        stamps[victim] = clock;
        dirty_bits[victim] = dirty;
        (Some(victim), eviction)
    }

    /// Removes a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, tag) = self.locate(line);
        let w = self.find(set, tag)?;
        self.stamps[w] = 0;
        Some(self.dirty[w])
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.stamps.iter().filter(|&&stamp| stamp != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(assoc: usize) -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 64 * 8 * assoc, // 8 sets
            associativity: assoc,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(2);
        let l = LineAddr::new(3);
        assert_eq!(c.access(l, false), CacheOutcome::Miss);
        assert!(c.fill(l, false).is_none());
        assert_eq!(c.access(l, false), CacheOutcome::Hit);
        assert!(c.probe(l));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache(2);
        // Three lines mapping to the same set (8 sets => stride of 8 lines).
        let a = LineAddr::new(0);
        let b = LineAddr::new(8);
        let d = LineAddr::new(16);
        c.fill(a, false);
        c.fill(b, false);
        // Touch `a` so `b` becomes LRU.
        assert!(c.access(a, false).is_hit());
        let evicted = c.fill(d, false).expect("set is full");
        assert_eq!(evicted.line, b);
        assert!(c.probe(a));
        assert!(c.probe(d));
        assert!(!c.probe(b));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small_cache(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(8);
        c.fill(a, false);
        assert!(c.access(a, true).is_hit()); // make dirty via a write hit
        let ev = c.fill(b, false).expect("direct-mapped conflict");
        assert!(ev.dirty);
        assert_eq!(ev.line, a);
    }

    #[test]
    fn fill_existing_line_does_not_evict() {
        let mut c = small_cache(2);
        let a = LineAddr::new(5);
        c.fill(a, false);
        assert!(c.fill(a, true).is_none());
        // The line is now dirty: evicting it reports dirty.
        let conflicting = LineAddr::new(5 + 8);
        c.fill(conflicting, false);
        let ev = c.fill(LineAddr::new(5 + 16), false).expect("evicts LRU");
        assert_eq!(ev.line, a);
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache(2);
        let a = LineAddr::new(9);
        c.fill(a, true);
        assert_eq!(c.invalidate(a), Some(true));
        assert!(!c.probe(a));
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = small_cache(2);
        assert_eq!(c.occupancy(), 0);
        for i in 0..5 {
            c.fill(LineAddr::new(i), false);
        }
        assert_eq!(c.occupancy(), 5);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = SetAssocCache::new(CacheConfig {
            capacity_bytes: 64 * 3,
            associativity: 1,
            line_bytes: 64,
            hit_latency: 1,
        });
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = small_cache(1);
        let victim = LineAddr::new(0x1234 * 8 + 3);
        c.fill(victim, false);
        let ev = c.fill(LineAddr::new(0x9999 * 8 + 3), false).unwrap();
        assert_eq!(ev.line, victim);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small_cache(1);
        for i in 0..8 {
            c.fill(LineAddr::new(i), false);
        }
        for i in 0..8 {
            assert!(
                c.probe(LineAddr::new(i)),
                "line {i} should still be resident"
            );
        }
    }
}
