//! Naive reference models of the engine's per-access structures, and
//! differential tests that hold the real structures to them.
//!
//! Each reference is the obvious linear-scan implementation: a
//! `Vec<Vec<Way>>` cache with a `min_by_key` LRU victim, a stride table
//! searched with `find` and replaced with `min_by_key`, and an MSHR file
//! that runs `retain` on every retire. The tests drive a reference and the
//! real structure with the same random operation sequences and compare
//! every return value.

use crate::cache::{CacheOutcome, CacheStats, Eviction, SetAssocCache};
use crate::config::{CacheConfig, StrideConfig};
use crate::mshr::MshrFile;
use crate::stride::{StridePrefetcher, StrideStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stms_types::{CoreId, Cycle, LineAddr};

#[derive(Debug, Clone, Copy)]
struct NaiveWay {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Set-associative LRU cache: one `Vec` per set, linear scans.
#[derive(Debug)]
struct NaiveCache {
    sets: Vec<Vec<NaiveWay>>,
    set_mask: u64,
    lru_clock: u64,
    stats: CacheStats,
}

impl NaiveCache {
    fn new(cfg: CacheConfig) -> Self {
        let empty = NaiveWay {
            tag: 0,
            valid: false,
            dirty: false,
            lru: 0,
        };
        NaiveCache {
            sets: vec![vec![empty; cfg.associativity]; cfg.sets()],
            set_mask: (cfg.sets() - 1) as u64,
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn split(&self, line: LineAddr) -> (usize, u64) {
        let set_bits = self.set_mask.count_ones();
        (
            (line.raw() & self.set_mask) as usize,
            line.raw() >> set_bits,
        )
    }

    fn access(&mut self, line: LineAddr, is_write: bool) -> CacheOutcome {
        let (set, tag) = self.split(line);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                way.lru = clock;
                way.dirty |= is_write;
                self.stats.hits += 1;
                return CacheOutcome::Hit;
            }
        }
        self.stats.misses += 1;
        CacheOutcome::Miss
    }

    fn probe(&self, line: LineAddr) -> bool {
        let (set, tag) = self.split(line);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction> {
        let (set_idx, tag) = self.split(line);
        let set_bits = self.set_mask.count_ones();
        self.lru_clock += 1;
        let clock = self.lru_clock;
        self.stats.fills += 1;
        let fresh = NaiveWay {
            tag,
            valid: true,
            dirty,
            lru: clock,
        };
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.dirty |= dirty;
            way.lru = clock;
            return None;
        }
        if let Some(way) = set.iter_mut().find(|w| !w.valid) {
            *way = fresh;
            return None;
        }
        let victim = set.iter_mut().min_by_key(|w| w.lru).expect("non-empty set");
        let eviction = Eviction {
            line: LineAddr::new((victim.tag << set_bits) | set_idx as u64),
            dirty: victim.dirty,
        };
        if eviction.dirty {
            self.stats.dirty_evictions += 1;
        }
        *victim = fresh;
        Some(eviction)
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, tag) = self.split(line);
        let way = self.sets[set]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)?;
        way.valid = false;
        Some(way.dirty)
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().flatten().filter(|w| w.valid).count()
    }
}

#[derive(Debug, Clone, Copy)]
struct NaiveStrideEntry {
    region: u64,
    core: u16,
    last_line: LineAddr,
    stride: i64,
    confidence: u32,
    lru: u64,
    valid: bool,
}

/// Stride table searched with `find`, victim chosen with `min_by_key`.
#[derive(Debug)]
struct NaiveStride {
    cfg: StrideConfig,
    entries: Vec<NaiveStrideEntry>,
    clock: u64,
    stats: StrideStats,
}

impl NaiveStride {
    fn new(cfg: StrideConfig) -> Self {
        let empty = NaiveStrideEntry {
            region: 0,
            core: 0,
            last_line: LineAddr::new(0),
            stride: 0,
            confidence: 0,
            lru: 0,
            valid: false,
        };
        NaiveStride {
            cfg,
            entries: vec![empty; cfg.streams],
            clock: 0,
            stats: StrideStats::default(),
        }
    }

    fn train(&mut self, core: CoreId, line: LineAddr) -> Vec<LineAddr> {
        self.clock += 1;
        self.stats.trained += 1;
        let clock = self.clock;
        let region = line.raw() / 64;
        let core_idx = core.index() as u16;
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.valid && e.region == region && e.core == core_idx)
        {
            let delta = line.delta_from(entry.last_line);
            entry.lru = clock;
            if delta == 0 {
                return Vec::new();
            }
            if delta == entry.stride {
                entry.confidence = entry.confidence.saturating_add(1);
            } else {
                entry.stride = delta;
                entry.confidence = 1;
            }
            entry.last_line = line;
            if entry.confidence >= self.cfg.confidence && entry.stride != 0 {
                let stride = entry.stride;
                self.stats.prefetches += self.cfg.degree as u64;
                return (1..=self.cfg.degree as i64)
                    .map(|k| line.offset(stride * k))
                    .collect();
            }
            return Vec::new();
        }
        let victim = self
            .entries
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("streams > 0");
        *victim = NaiveStrideEntry {
            region,
            core: core_idx,
            last_line: line,
            stride: 0,
            confidence: 0,
            lru: clock,
            valid: true,
        };
        Vec::new()
    }
}

/// MSHR file that scans with `retain` on every retire.
#[derive(Debug)]
struct NaiveMshr {
    capacity: usize,
    entries: Vec<(LineAddr, Cycle, u32)>,
}

impl NaiveMshr {
    fn allocate(&mut self, line: LineAddr, completes_at: Cycle) -> bool {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.0 == line) {
            entry.2 += 1;
            return true;
        }
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push((line, completes_at, 1));
        true
    }

    fn retire_completed(&mut self, now: Cycle) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.1 > now);
        before - self.entries.len()
    }
}

/// A line from a small pool, so operations collide: low addresses, and
/// addresses within a few sets of `u64::MAX`.
fn pool_line(rng: &mut StdRng, pool: u64) -> LineAddr {
    let i = rng.gen_range(0..pool);
    if rng.gen_range(0..4u32) == 0 {
        LineAddr::new(u64::MAX - i)
    } else {
        LineAddr::new(i)
    }
}

fn cache_config(sets: usize, associativity: usize) -> CacheConfig {
    CacheConfig {
        capacity_bytes: 64 * sets * associativity,
        associativity,
        line_bytes: 64,
        hit_latency: 1,
    }
}

#[test]
fn cache_matches_reference() {
    // One set, direct-mapped, and the engine's associativities.
    for (sets, ways) in [(1, 1), (1, 4), (8, 1), (8, 2), (4, 16), (64, 2)] {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ ((sets * 100 + ways) as u64) << 8);
            let cfg = cache_config(sets, ways);
            let mut real = SetAssocCache::new(cfg);
            let mut naive = NaiveCache::new(cfg);
            let pool = (sets * ways * 3) as u64;
            for step in 0..3_000 {
                let line = pool_line(&mut rng, pool);
                let ctx = format!("{sets}x{ways} seed {seed} step {step} {line}");
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        let write = rng.gen_range(0..3u32) == 0;
                        assert_eq!(real.access(line, write), naive.access(line, write), "{ctx}");
                    }
                    4..=7 => {
                        let dirty = rng.gen_range(0..3u32) == 0;
                        assert_eq!(real.fill(line, dirty), naive.fill(line, dirty), "{ctx}");
                    }
                    8 => assert_eq!(real.probe(line), naive.probe(line), "{ctx}"),
                    _ => assert_eq!(real.invalidate(line), naive.invalidate(line), "{ctx}"),
                }
                assert_eq!(real.stats(), naive.stats, "{ctx}");
                assert_eq!(real.occupancy(), naive.occupancy(), "{ctx}");
            }
        }
    }
}

#[test]
fn stride_matches_reference() {
    for (streams, degree, confidence) in [(1, 2, 2), (2, 1, 1), (4, 2, 2), (32, 2, 2), (8, 4, 0)] {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ (streams as u64) << 16);
            let cfg = StrideConfig {
                streams,
                degree,
                confidence,
            };
            let mut real = StridePrefetcher::new(cfg);
            let mut naive = NaiveStride::new(cfg);
            // Each core walks with its own stride through a few shared
            // regions (low ones and the last ones below u64::MAX), jumping
            // to a random line now and then.
            let cores = 4usize;
            let mut cursor = vec![0u64; cores];
            let mut stride = vec![1u64; cores];
            for step in 0..4_000 {
                let c = rng.gen_range(0..cores);
                if rng.gen_range(0..5u32) == 0 {
                    let region = rng.gen_range(0..6u64);
                    let base = if region < 3 {
                        region * 64
                    } else {
                        u64::MAX - (region - 3) * 64 - 63
                    };
                    cursor[c] = base + rng.gen_range(0..64u64);
                    stride[c] = rng.gen_range(0..4u64);
                } else {
                    cursor[c] = cursor[c].wrapping_add(stride[c]);
                }
                let (core, line) = (CoreId::new(c as u16), LineAddr::new(cursor[c]));
                let predicted: Vec<LineAddr> = real.train(core, line).collect();
                assert_eq!(
                    predicted,
                    naive.train(core, line),
                    "{cfg:?} seed {seed} step {step} {line}"
                );
                assert_eq!(real.stats(), naive.stats);
            }
        }
    }
}

#[test]
fn mshr_matches_reference() {
    for capacity in [1, 2, 4, 32] {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ (capacity as u64) << 16);
            let mut real = MshrFile::new(capacity);
            let mut naive = NaiveMshr {
                capacity,
                entries: Vec::new(),
            };
            let mut now = 0u64;
            for step in 0..3_000 {
                let ctx = format!("capacity {capacity} seed {seed} step {step}");
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let line = pool_line(&mut rng, capacity as u64 * 2);
                        let at = Cycle::new(now + rng.gen_range(0..400u64));
                        assert_eq!(real.allocate(line, at), naive.allocate(line, at), "{ctx}");
                    }
                    5..=8 => {
                        now += rng.gen_range(0..120u64);
                        // Mostly the engine's monotone clock, sometimes a
                        // step back.
                        let at = Cycle::new(now.saturating_sub(rng.gen_range(0..2u64) * 200));
                        assert_eq!(
                            real.retire_completed(at),
                            naive.retire_completed(at),
                            "{ctx}"
                        );
                    }
                    _ => {
                        if rng.gen_range(0..20u32) == 0 {
                            real.clear();
                            naive.entries.clear();
                        }
                    }
                }
                assert_eq!(real.outstanding(), naive.entries.len(), "{ctx}");
                assert_eq!(
                    real.is_full(),
                    naive.entries.len() >= naive.capacity,
                    "{ctx}"
                );
                assert_eq!(
                    real.earliest_completion(),
                    naive.entries.iter().map(|e| e.1).min(),
                    "{ctx}"
                );
                for &(line, completes_at, merged) in &naive.entries {
                    let entry = real.lookup(line).expect("outstanding line");
                    assert_eq!((entry.completes_at, entry.merged), (completes_at, merged));
                }
            }
        }
    }
}
