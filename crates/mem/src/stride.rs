//! The base system's stride prefetcher (Table 1: 32-entry buffer, at most 16
//! distinct strides).
//!
//! All results in the paper report coverage *in excess of* this prefetcher,
//! so it is part of the simulated base system rather than of the temporal
//! prefetchers under study. It trains on the off-chip miss stream, detects
//! constant-stride sequences within 4 KB regions and, once confident,
//! prefetches `degree` lines ahead directly into the shared L2.
//!
//! The table is associative over (region, core). Each entry has a `u32`
//! fingerprint lane (see [`crate::lanes`]), so a lookup is one branch-free
//! compare of all lanes plus an exact key check at each match, and a
//! [`RecencyList`] keeps the entries in recency order. Entries are never
//! invalidated, so until the table is full a miss takes the next unused
//! slot, and afterwards the least recently used one, whose entry and lane
//! it overwrites.

use crate::config::StrideConfig;
use crate::lanes;
use crate::recency::{Link, Linked, RecencyList};
use stms_types::{CoreId, LineAddr};

/// Lines per 4 KB detection region.
const REGION_LINES: u64 = 64;

/// The hashed key of (region, core). Distinct pairs may share it; the
/// exact check on `region` and `core` separates them.
pub(crate) fn entry_key(region: u64, core: u16) -> u64 {
    region ^ (u64::from(core) << 48)
}

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    /// Region tag (line address / REGION_LINES) plus core, to separate
    /// per-core streams.
    region: u64,
    core: u16,
    last_line: LineAddr,
    stride: i64,
    confidence: u32,
    link: Link,
}

impl Linked for StrideEntry {
    fn link(&mut self) -> &mut Link {
        &mut self.link
    }
}

/// The lines one training observation asks to prefetch: `line + k * stride`
/// for `k` in `1..=count`, computed on demand so training never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridePredictions {
    line: LineAddr,
    stride: i64,
    next: u64,
    count: u64,
}

impl StridePredictions {
    const NONE: StridePredictions = StridePredictions {
        line: LineAddr::new(0),
        stride: 0,
        next: 1,
        count: 0,
    };

    /// The distance in lines from the training line to the first
    /// prediction; the `k`-th prediction is `k` strides away. A stride
    /// stays inside its 64-line region, so its magnitude is below 64.
    pub fn stride(&self) -> i64 {
        self.stride
    }
}

impl Iterator for StridePredictions {
    type Item = LineAddr;

    fn next(&mut self) -> Option<LineAddr> {
        if self.next > self.count {
            return None;
        }
        let k = self.next as i64;
        self.next += 1;
        Some(self.line.offset(self.stride * k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.count + 1 - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for StridePredictions {}

/// A simple per-region constant-stride detector.
///
/// # Example
///
/// ```
/// use stms_mem::{StrideConfig, StridePrefetcher};
/// use stms_types::{CoreId, LineAddr};
///
/// let mut sp = StridePrefetcher::new(StrideConfig { streams: 8, degree: 2, confidence: 2 });
/// let core = CoreId::new(0);
/// // A unit-stride scan: after a couple of observations it starts prefetching.
/// let mut predicted = Vec::new();
/// for i in 0..6u64 {
///     predicted.extend(sp.train(core, LineAddr::new(1000 + i)));
/// }
/// assert!(predicted.contains(&LineAddr::new(1004)));
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    /// Allocated entries; grows to `cfg.streams` and then stays full.
    entries: Vec<StrideEntry>,
    /// Fingerprint of each entry's key, slot-parallel to `entries`.
    lanes: lanes::Lanes,
    /// The entries by recency; the oldest is the victim once the table is
    /// full.
    recency: RecencyList,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with the given table size and degree.
    pub fn new(cfg: StrideConfig) -> Self {
        StridePrefetcher {
            cfg,
            entries: Vec::with_capacity(cfg.streams),
            lanes: lanes::Lanes::new(cfg.streams),
            recency: RecencyList::default(),
        }
    }

    /// Observes an off-chip miss and returns the lines to prefetch (possibly
    /// none).
    pub fn train(&mut self, core: CoreId, line: LineAddr) -> StridePredictions {
        let region = line.raw() / REGION_LINES;
        let core_idx = core.index() as u16;

        let fp = lanes::fingerprint(entry_key(region, core_idx));
        let entries = &self.entries;
        let found = self.lanes.find(fp, |slot| {
            let e = &entries[slot];
            e.region == region && e.core == core_idx
        });
        match found {
            Some(slot) => {
                self.recency.push_newest(&mut self.entries, slot as u32);
                let entry = &mut self.entries[slot];
                let delta = line.delta_from(entry.last_line);
                if delta == 0 {
                    return StridePredictions::NONE;
                }
                if delta == entry.stride {
                    entry.confidence = entry.confidence.saturating_add(1);
                } else {
                    entry.stride = delta;
                    entry.confidence = 1;
                }
                entry.last_line = line;
                if entry.confidence >= self.cfg.confidence && entry.stride != 0 {
                    return StridePredictions {
                        line,
                        stride: entry.stride,
                        next: 1,
                        count: self.cfg.degree as u64,
                    };
                }
            }
            None => self.allocate(region, core_idx, fp, line),
        }
        StridePredictions::NONE
    }

    /// Installs a new entry for the absent key (region, core), whose
    /// fingerprint is `fp`: in the next unused slot while the table has
    /// one, else in place of the least recently used entry.
    fn allocate(&mut self, region: u64, core: u16, fp: u32, line: LineAddr) {
        let mut entry = StrideEntry {
            region,
            core,
            last_line: line,
            stride: 0,
            confidence: 0,
            link: Link::default(),
        };
        let slot = if self.entries.len() < self.cfg.streams {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let victim = self.recency.oldest().expect("streams > 0") as usize;
            // The victim keeps its place in the list until it is pushed.
            entry.link = self.entries[victim].link;
            self.entries[victim] = entry;
            victim
        };
        self.lanes.set(slot, fp);
        self.recency.push_newest(&mut self.entries, slot as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> StridePrefetcher {
        StridePrefetcher::new(StrideConfig {
            streams: 4,
            degree: 2,
            confidence: 2,
        })
    }

    fn train(p: &mut StridePrefetcher, core: CoreId, line: u64) -> Vec<LineAddr> {
        p.train(core, LineAddr::new(line)).collect()
    }

    #[test]
    fn unit_stride_detected_after_confidence() {
        let mut p = sp();
        let core = CoreId::new(0);
        assert!(train(&mut p, core, 100).is_empty());
        assert!(train(&mut p, core, 101).is_empty(), "confidence 1 of 2");
        let out = train(&mut p, core, 102);
        assert_eq!(out, vec![LineAddr::new(103), LineAddr::new(104)]);
    }

    #[test]
    fn non_unit_stride_detected() {
        let mut p = sp();
        let core = CoreId::new(1);
        train(&mut p, core, 200);
        train(&mut p, core, 204);
        let out = train(&mut p, core, 208);
        assert_eq!(out, vec![LineAddr::new(212), LineAddr::new(216)]);
    }

    #[test]
    fn random_pattern_never_prefetches() {
        let mut p = sp();
        let core = CoreId::new(0);
        let mut total = 0;
        for line in [5u64, 900, 17, 3000, 42, 77777, 13] {
            total += p.train(core, LineAddr::new(line)).len();
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = sp();
        let core = CoreId::new(0);
        train(&mut p, core, 10);
        train(&mut p, core, 11);
        train(&mut p, core, 12); // locked, prefetching
        assert!(train(&mut p, core, 20).is_empty(), "stride broke");
        // After two consecutive identical deltas the new stride locks again.
        assert_eq!(
            train(&mut p, core, 28),
            vec![LineAddr::new(36), LineAddr::new(44)],
            "locked onto new stride"
        );
    }

    #[test]
    fn distinct_cores_do_not_interfere() {
        let mut p = sp();
        train(&mut p, CoreId::new(0), 100);
        train(&mut p, CoreId::new(1), 101);
        train(&mut p, CoreId::new(0), 101);
        train(&mut p, CoreId::new(1), 102);
        // Each core has seen only one delta so far; nobody should have locked.
        assert_eq!(train(&mut p, CoreId::new(0), 102).len(), 2);
    }

    #[test]
    fn duplicate_miss_is_ignored() {
        let mut p = sp();
        let core = CoreId::new(0);
        train(&mut p, core, 50);
        assert!(train(&mut p, core, 50).is_empty());
    }

    #[test]
    fn table_replacement_evicts_lru_region() {
        let mut p = sp();
        let core = CoreId::new(0);
        // Touch 5 distinct regions with a 4-entry table.
        for r in 0..5u64 {
            train(&mut p, core, r * REGION_LINES);
        }
        // Region 0 was evicted; training it again restarts from scratch.
        train(&mut p, core, 1);
        train(&mut p, core, 2);
        let out = train(&mut p, core, 3);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn predictions_report_their_length() {
        let mut p = sp();
        let core = CoreId::new(0);
        train(&mut p, core, 7);
        train(&mut p, core, 9);
        let mut out = p.train(core, LineAddr::new(11));
        assert_eq!(out.len(), 2);
        assert_eq!(out.next(), Some(LineAddr::new(13)));
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "streams > 0")]
    fn zero_stream_table_panics_on_first_allocation() {
        let mut p = StridePrefetcher::new(StrideConfig {
            streams: 0,
            degree: 2,
            confidence: 2,
        });
        p.train(CoreId::new(0), LineAddr::new(1));
    }
}
