//! Naive reference models of the engine's per-access structures, and
//! differential tests that hold the real structures to them.
//!
//! Most references are the obvious linear-scan implementation: a
//! `Vec<Vec<Way>>` cache with a `min_by_key` LRU victim, a stride table
//! searched with `find` and replaced with `min_by_key`, a `VecDeque`
//! prefetch buffer, and an MSHR file that runs `retain` on every retire.
//! The stride table has a second reference, the open-addressed layout
//! (linear probing, backward-shift deletion) that preceded the fingerprint
//! lanes. The tests drive a reference and the real structure with the same
//! random operation sequences and compare every return value.

use crate::cache::{CacheOutcome, CacheStats, Eviction, SetAssocCache};
use crate::config::{CacheConfig, StrideConfig};
use crate::lanes;
use crate::mshr::MshrFile;
use crate::stream::{PrefetchBuffer, PrefetchedBlock};
use crate::stride::{entry_key, StridePrefetcher, StrideStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
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

/// Marks an empty index slot and the ends of the recency list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct OaStrideEntry {
    region: u64,
    core: u16,
    last_line: LineAddr,
    stride: i64,
    confidence: u32,
    newer: u32,
    older: u32,
}

/// Stride table whose open-addressed index (linear probing, at least twice
/// `streams` slots, backward-shift deletion) maps (region, core) to its
/// entry; an intrusive list keeps recency order.
#[derive(Debug)]
struct OpenAddressStride {
    cfg: StrideConfig,
    entries: Vec<OaStrideEntry>,
    index: Vec<u32>,
    index_shift: u32,
    newest: u32,
    oldest: u32,
    stats: StrideStats,
}

impl OpenAddressStride {
    fn new(cfg: StrideConfig) -> Self {
        let slots = (cfg.streams.max(1) * 2).next_power_of_two();
        OpenAddressStride {
            cfg,
            entries: Vec::with_capacity(cfg.streams),
            index: vec![NIL; slots],
            index_shift: 64 - slots.trailing_zeros(),
            newest: NIL,
            oldest: NIL,
            stats: StrideStats::default(),
        }
    }

    fn train(&mut self, core: CoreId, line: LineAddr) -> Vec<LineAddr> {
        self.stats.trained += 1;
        let region = line.raw() / 64;
        let core_idx = core.index() as u16;
        match self.find_slot(region, core_idx) {
            Ok(slot) => {
                let id = self.index[slot];
                self.touch(id);
                let entry = &mut self.entries[id as usize];
                let delta = line.delta_from(entry.last_line);
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
            }
            Err(_) => self.allocate(region, core_idx, line),
        }
        Vec::new()
    }

    fn home_slot(&self, region: u64, core: u16) -> usize {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        (entry_key(region, core).wrapping_mul(MIX) >> self.index_shift) as usize
    }

    fn find_slot(&self, region: u64, core: u16) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home_slot(region, core);
        loop {
            let id = self.index[slot];
            if id == NIL {
                return Err(slot);
            }
            let e = &self.entries[id as usize];
            if e.region == region && e.core == core {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn allocate(&mut self, region: u64, core: u16, line: LineAddr) {
        let entry = OaStrideEntry {
            region,
            core,
            last_line: line,
            stride: 0,
            confidence: 0,
            newer: NIL,
            older: NIL,
        };
        let id = if self.entries.len() < self.cfg.streams {
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        } else {
            let victim = self.oldest;
            self.unlink(victim);
            let old = self.entries[victim as usize];
            let victim_slot = self.find_slot(old.region, old.core).expect("indexed");
            self.remove_slot(victim_slot);
            self.entries[victim as usize] = entry;
            victim
        };
        let slot = self.find_slot(region, core).expect_err("absent");
        self.index[slot] = id;
        self.push_newest(id);
    }

    fn remove_slot(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let id = self.index[slot];
            if id == NIL {
                break;
            }
            let e = &self.entries[id as usize];
            let home = self.home_slot(e.region, e.core);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = id;
                hole = slot;
            }
        }
        self.index[hole] = NIL;
    }

    fn touch(&mut self, id: u32) {
        if self.newest != id {
            self.unlink(id);
            self.push_newest(id);
        }
    }

    fn push_newest(&mut self, id: u32) {
        let old_newest = self.newest;
        let e = &mut self.entries[id as usize];
        e.newer = NIL;
        e.older = old_newest;
        if old_newest == NIL {
            self.oldest = id;
        } else {
            self.entries[old_newest as usize].newer = id;
        }
        self.newest = id;
    }

    fn unlink(&mut self, id: u32) {
        let OaStrideEntry { newer, older, .. } = self.entries[id as usize];
        if newer == NIL {
            self.newest = older;
        } else {
            self.entries[newer as usize].older = older;
        }
        if older == NIL {
            self.oldest = newer;
        } else {
            self.entries[older as usize].newer = newer;
        }
    }
}

/// Prefetch buffer as a FIFO `VecDeque`, searched with `iter().position`.
#[derive(Debug)]
struct DequePrefetchBuffer {
    capacity: usize,
    blocks: VecDeque<PrefetchedBlock>,
}

impl DequePrefetchBuffer {
    fn contains(&self, line: LineAddr) -> bool {
        self.blocks.iter().any(|b| b.line == line)
    }

    fn insert(&mut self, line: LineAddr, available_at: Cycle) -> Option<PrefetchedBlock> {
        if let Some(existing) = self.blocks.iter_mut().find(|b| b.line == line) {
            existing.available_at = existing.available_at.min(available_at);
            return None;
        }
        let evicted = if self.blocks.len() >= self.capacity {
            self.blocks.pop_front()
        } else {
            None
        };
        self.blocks
            .push_back(PrefetchedBlock { line, available_at });
        evicted
    }

    fn take(&mut self, line: LineAddr) -> Option<PrefetchedBlock> {
        let idx = self.blocks.iter().position(|b| b.line == line)?;
        self.blocks.remove(idx)
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

/// The highest region, and a region whose key with core 0 equals the
/// highest region's key with core 1 (and vice versa), so the two share a
/// fingerprint lane value.
const TOP_REGION: u64 = u64::MAX / 64;
const TWIN_REGION: u64 = TOP_REGION ^ (1 << 48);

#[test]
fn stride_twin_regions_collide() {
    for (a, b) in [(0, 1), (1, 0)] {
        assert_eq!(entry_key(TOP_REGION, a), entry_key(TWIN_REGION, b));
    }
    assert_eq!(
        lanes::fingerprint(entry_key(TOP_REGION, 1)),
        lanes::fingerprint(entry_key(TWIN_REGION, 0))
    );
}

#[test]
fn stride_matches_reference() {
    let shapes = [
        (1, 2, 2),
        (2, 1, 1),
        (4, 2, 2),
        (31, 2, 2),
        (32, 2, 2),
        (33, 2, 2),
        (64, 2, 2),
        (8, 4, 0),
    ];
    for (streams, degree, confidence) in shapes {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ (streams as u64) << 16);
            let cfg = StrideConfig {
                streams,
                degree,
                confidence,
            };
            let mut real = StridePrefetcher::new(cfg);
            let mut naive = NaiveStride::new(cfg);
            let mut open = OpenAddressStride::new(cfg);
            // Each core walks with its own stride through shared regions
            // (low ones, the last ones below u64::MAX, and the two twin
            // regions whose keys collide across cores 0 and 1), jumping to
            // a random line now and then. With more streams than regions
            // the walks wander into fresh regions, so the table still fills.
            let cores = 4usize;
            let regions = 8 + streams as u64 / 2;
            let mut cursor = vec![0u64; cores];
            let mut stride = vec![1u64; cores];
            for step in 0..4_000 {
                let c = rng.gen_range(0..cores);
                if rng.gen_range(0..5u32) == 0 {
                    let region = match rng.gen_range(0..regions) {
                        0 => TOP_REGION,
                        1 => TWIN_REGION,
                        r @ 2..=4 => TOP_REGION - (r - 1),
                        r => r - 5,
                    };
                    cursor[c] = region * 64 + rng.gen_range(0..64u64);
                    stride[c] = rng.gen_range(0..4u64) * rng.gen_range(1..40u64);
                } else {
                    cursor[c] = cursor[c].wrapping_add(stride[c]);
                }
                let (core, line) = (CoreId::new(c as u16), LineAddr::new(cursor[c]));
                let predicted: Vec<LineAddr> = real.train(core, line).collect();
                let ctx = format!("{cfg:?} seed {seed} step {step} {line}");
                assert_eq!(predicted, naive.train(core, line), "{ctx}");
                assert_eq!(predicted, open.train(core, line), "{ctx}");
                assert_eq!(real.stats(), naive.stats, "{ctx}");
                assert_eq!(real.stats(), open.stats, "{ctx}");
            }
        }
    }
}

/// The multiplicative inverse of the fingerprint multiplier: lines `b` and
/// `b + INVERSE_MIX` hash one apart, so their fingerprints (the high half)
/// agree unless the low half carries.
fn inverse_mix() -> u64 {
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
    // Newton's iteration doubles the correct low bits each round.
    let mut inv: u64 = MIX;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(MIX.wrapping_mul(inv)));
    }
    assert_eq!(MIX.wrapping_mul(inv), 1);
    inv
}

/// Lines from a small pool: low addresses, addresses just below
/// `u64::MAX`, and partners of both that share their fingerprint.
fn buffer_line(rng: &mut StdRng, pool: u64, twin: u64) -> LineAddr {
    let i = rng.gen_range(0..pool);
    let base = if rng.gen_range(0..2u32) == 0 {
        i
    } else {
        u64::MAX - i
    };
    if rng.gen_range(0..3u32) == 0 {
        LineAddr::new(base.wrapping_add(twin))
    } else {
        LineAddr::new(base)
    }
}

#[test]
fn prefetch_buffer_twin_lines_collide() {
    let twin = inverse_mix();
    for base in [0u64, 7, u64::MAX, u64::MAX - 5] {
        let partner = base.wrapping_add(twin);
        assert_ne!(base, partner);
        assert_eq!(lanes::fingerprint(base), lanes::fingerprint(partner));
    }
}

#[test]
fn prefetch_buffer_matches_reference() {
    let twin = inverse_mix();
    for capacity in [1, 2, 31, 32, 33, 64] {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ (capacity as u64) << 16);
            let mut real = PrefetchBuffer::new(capacity);
            let mut deque = DequePrefetchBuffer {
                capacity,
                blocks: VecDeque::new(),
            };
            let pool = capacity as u64 + 4;
            for step in 0..3_000 {
                let line = buffer_line(&mut rng, pool, twin);
                let ctx = format!("capacity {capacity} seed {seed} step {step} {line}");
                match rng.gen_range(0..20u32) {
                    0..=8 => {
                        let at = Cycle::new(rng.gen_range(0..1_000u64));
                        assert_eq!(real.insert(line, at), deque.insert(line, at), "{ctx}");
                    }
                    9..=15 => assert_eq!(real.take(line), deque.take(line), "{ctx}"),
                    16..=18 => assert_eq!(real.contains(line), deque.contains(line), "{ctx}"),
                    _ => {
                        if rng.gen_range(0..10u32) == 0 {
                            assert_eq!(real.clear(), deque.blocks.len(), "{ctx}");
                            deque.blocks.clear();
                        }
                    }
                }
                assert_eq!(real.len(), deque.blocks.len(), "{ctx}");
                assert_eq!(real.is_empty(), deque.blocks.is_empty(), "{ctx}");
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
