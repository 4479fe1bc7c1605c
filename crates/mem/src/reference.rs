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
//!
//! The whole engine has a reference too: [`FusedSimulator`] is the engine
//! as it was before the hierarchy/lane split, one fused step per access
//! that touches the caches, the stride table and the lane state in turn
//! (with the writeback of a dirty L2 line displaced by an L1 victim, which
//! the fused engine dropped). The engine tests compare its
//! [`SimResult::encode`] with those of the live lane and the logged lane.

use crate::cache::{CacheOutcome, Eviction, SetAssocCache};
use crate::config::{CacheConfig, StrideConfig, SystemConfig};
use crate::dram::{DramModel, TrafficClass, TrafficStats};
use crate::engine::{CmpSimulator, CoreState, SimOptions, MAX_WARMUP_FRACTION};
use crate::hierarchy::HierarchyLog;
use crate::lanes;
use crate::mshr::MshrFile;
use crate::prefetcher::{NullPrefetcher, Prefetcher, StreamChunk};
use crate::result::SimResult;
use crate::stream::{PrefetchBuffer, PrefetchedBlock};
use crate::stride::{entry_key, StridePrefetcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use stms_types::{AccessKind, CoreId, Cycle, LineAddr, MemAccess, Trace, TraceMeta};

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
                return CacheOutcome::Hit;
            }
        }
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
        }
    }

    fn train(&mut self, core: CoreId, line: LineAddr) -> Vec<LineAddr> {
        self.clock += 1;
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
        }
    }

    fn train(&mut self, core: CoreId, line: LineAddr) -> Vec<LineAddr> {
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
    entries: Vec<(LineAddr, Cycle)>,
}

impl NaiveMshr {
    fn allocate(&mut self, line: LineAddr, completes_at: Cycle) -> bool {
        if self.entries.iter().any(|e| e.0 == line) {
            return true;
        }
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push((line, completes_at));
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
                        // Now and then retire everything.
                        if rng.gen_range(0..20u32) == 0 {
                            let end = Cycle::new(u64::MAX);
                            assert_eq!(
                                real.retire_completed(end),
                                naive.retire_completed(end),
                                "{ctx}"
                            );
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
                for &(line, completes_at) in &naive.entries {
                    let entry = real.lookup(line).expect("outstanding line");
                    assert_eq!(entry.completes_at, completes_at);
                }
            }
        }
    }
}

/// The engine before the hierarchy/lane split: one fused step per access.
#[derive(Debug)]
pub(crate) struct FusedSimulator<'a> {
    cfg: &'a SystemConfig,
    opts: SimOptions,
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    stride: StridePrefetcher,
    dram: DramModel,
    cores: Vec<CoreState>,
    res: SimResult,
    warmup_traffic: TrafficStats,
}

impl<'a> FusedSimulator<'a> {
    pub(crate) fn new(cfg: &'a SystemConfig, opts: SimOptions) -> Self {
        let cores = (0..cfg.cores).map(|_| CoreState::new(cfg, &opts)).collect();
        FusedSimulator {
            cfg,
            opts,
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: SetAssocCache::new(cfg.l2),
            stride: StridePrefetcher::new(cfg.stride),
            dram: DramModel::new(cfg.dram),
            cores,
            res: SimResult::default(),
            warmup_traffic: TrafficStats::default(),
        }
    }

    pub(crate) fn run<P: Prefetcher + ?Sized>(
        mut self,
        trace: &Trace,
        prefetcher: &mut P,
    ) -> SimResult {
        self.res.prefetcher = prefetcher.name().to_string();
        self.res.workload = trace.meta().workload.clone();
        let total = trace.len();
        let warmup_end =
            ((total as f64) * self.opts.warmup_fraction.clamp(0.0, MAX_WARMUP_FRACTION)) as usize;
        for (idx, access) in trace.accesses().iter().enumerate() {
            if idx == warmup_end {
                self.end_warmup();
            }
            self.step(*access, prefetcher, idx >= warmup_end);
        }
        self.finish(total, prefetcher, warmup_end)
    }

    /// Marks the end of the warm-up period: statistics collected so far are
    /// discarded.
    fn end_warmup(&mut self) {
        let traffic_snapshot = *self.dram.traffic();
        self.warmup_traffic = traffic_snapshot;
        for core in &mut self.cores {
            core.warmup_clock = core.clock;
            core.warmup_instructions = core.instructions;
        }
        let prefetcher = std::mem::take(&mut self.res.prefetcher);
        let workload = std::mem::take(&mut self.res.workload);
        self.res = SimResult {
            prefetcher,
            workload,
            ..SimResult::default()
        };
    }

    fn step<P: Prefetcher + ?Sized>(&mut self, a: MemAccess, prefetcher: &mut P, measure: bool) {
        let core_idx = a.core.index();

        // Advance the core clock over the compute gap (one instruction per cycle).
        {
            let st = &mut self.cores[core_idx];
            st.clock += a.compute_gap as u64;
            st.instructions += a.compute_gap as u64 + 1;
            st.epoch_instr += a.compute_gap as u64 + 1;
            let now = st.clock;
            st.mshrs.retire_completed(now);
        }
        if measure {
            self.res.accesses += 1;
        }
        let is_write = a.kind == AccessKind::Write;

        // L1 lookup.
        if self.l1[core_idx].access(a.line, is_write).is_hit() {
            if measure {
                self.res.l1_hits += 1;
            }
            // L1 hits are pipelined; no stall charged.
            return;
        }

        // The baseline stride prefetcher observes every L1 miss; its fills go
        // straight into the shared L2.
        {
            let now = self.cores[core_idx].clock;
            for predicted in self.stride.train(a.core, a.line) {
                if !self.l2.probe(predicted) {
                    self.dram.access(
                        TrafficClass::StridePrefetch,
                        self.cfg.l2.line_bytes as u64,
                        now,
                    );
                    self.l2_fill(predicted, false);
                }
            }
        }

        // Prefetch buffer lookup (reads only; stores retire via the store buffer).
        if !is_write {
            let taken = self.cores[core_idx].pfb.take(a.line);
            if let Some(block) = taken {
                let st = &mut self.cores[core_idx];
                st.inflight_prefetches = st.inflight_prefetches.saturating_sub(1);
                st.stream_hits += 1;
                let fully_covered = block.available_at <= st.clock;
                if fully_covered {
                    // A fully-covered miss behaves like an L2 hit.
                    st.clock += if a.dependent {
                        self.cfg.l2.hit_latency
                    } else {
                        self.cfg.l2.hit_latency / 4
                    };
                } else {
                    // Partially covered: the demand request arrives while the
                    // prefetch is still in flight. The core waits for the
                    // earlier of (a) the low-priority prefetch completing and
                    // (b) a freshly-issued demand fetch (the request is
                    // escalated / merged at demand priority), so a late
                    // prefetch can never be slower than an ordinary miss.
                    // Like ordinary misses, independent waits within one ROB
                    // window overlap with the epoch leader instead of
                    // serializing.
                    let remaining = block.available_at - st.clock;
                    let demand_equivalent = self.cfg.l2.hit_latency + self.cfg.dram.latency_cycles;
                    let wait = remaining.min(demand_equivalent);
                    let joins_epoch = st.epoch_open
                        && !a.dependent
                        && st.epoch_instr < self.cfg.core.rob_size
                        && !st.mshrs.is_full();
                    if !joins_epoch {
                        st.clock += wait;
                        st.epoch_open = true;
                        st.epoch_instr = 0;
                        st.epoch_misses = 0;
                    }
                }
                if measure {
                    if fully_covered {
                        self.res.covered_full += 1;
                    } else {
                        self.res.covered_partial += 1;
                    }
                    self.res.prefetches_used += 1;
                }
                // Install the used block on chip.
                self.fill_on_chip(core_idx, a.line, false);
                let now = self.cores[core_idx].clock;
                prefetcher.record(a.core, a.line, true, now, &mut self.dram);
                self.pump_stream(core_idx, a.core, prefetcher);
                return;
            }
        }

        // L2 lookup.
        if self.l2.access(a.line, false).is_hit() {
            let st = &mut self.cores[core_idx];
            // Dependent loads expose the full L2 latency; independent ones are
            // largely hidden by out-of-order execution.
            st.clock += if a.dependent {
                self.cfg.l2.hit_latency
            } else {
                self.cfg.l2.hit_latency / 4
            };
            if measure {
                self.res.l2_hits += 1;
            }
            self.l1_fill(core_idx, a.line, is_write);
            return;
        }

        // ---- Off-chip miss. ----
        let now = self.cores[core_idx].clock;

        if is_write {
            // Non-blocking store miss: fetch the line (read-for-ownership) but
            // charge no stall.
            if measure {
                self.res.write_misses += 1;
            }
            self.dram
                .access(TrafficClass::DemandFill, self.cfg.l2.line_bytes as u64, now);
            self.fill_on_chip(core_idx, a.line, true);
            return;
        }

        // Demand read miss.
        let in_stream =
            self.cores[core_idx].stream.is_active() && self.cores[core_idx].stream.contains(a.line);

        if measure {
            self.res.uncovered_misses += 1;
            if in_stream {
                self.res.stream_lost_misses += 1;
            }
        }

        // Timing: epoch model of overlapping off-chip misses.
        self.account_read_miss_timing(core_idx, &a, measure);

        // Possibly trigger a new stream, then record the miss in predictor
        // meta-data. The lookup must happen before the record so that it
        // finds the *previous* occurrence of the miss address rather than the
        // entry being written for the current miss.
        let now = self.cores[core_idx].clock;
        if in_stream {
            // The stream fell behind the demand point (lookup latency or
            // limited lookahead): skip past this address but keep streaming.
            self.cores[core_idx].stream.drop_through(a.line);
        } else {
            // A genuinely new stream trigger: abandon the old stream. Blocks
            // already prefetched for it stay in the prefetch buffer until
            // they age out (and count as erroneous if never used).
            self.cores[core_idx].stream.squash();
            self.cores[core_idx].inflight_prefetches = 0;
            self.cores[core_idx].stream_hits = 0;
            if let Some(chunk) = prefetcher.on_trigger(a.core, a.line, now, &mut self.dram) {
                let st = &mut self.cores[core_idx];
                st.stream.start(chunk.addresses, chunk.ready_at);
            }
        }
        prefetcher.record(a.core, a.line, false, now, &mut self.dram);
        self.fill_on_chip(core_idx, a.line, false);
        self.pump_stream(core_idx, a.core, prefetcher);
    }

    /// Applies the epoch timing model to an uncovered demand read miss.
    fn account_read_miss_timing(&mut self, core_idx: usize, a: &MemAccess, measure: bool) {
        let issue_at = self.cores[core_idx].clock + self.cfg.l2.hit_latency;
        let completion = self.dram.access(
            TrafficClass::DemandFill,
            self.cfg.l2.line_bytes as u64,
            issue_at,
        );
        let st = &mut self.cores[core_idx];
        let joins_epoch = st.epoch_open
            && !a.dependent
            && st.epoch_instr < self.cfg.core.rob_size
            && !st.mshrs.is_full();
        st.mshrs.allocate(a.line, completion);
        if joins_epoch {
            st.epoch_misses += 1;
        } else {
            // Close the previous epoch (epochs opened by partially-covered
            // prefetch waits contain no demand misses and are not counted in
            // the MLP statistics).
            if st.epoch_open && st.epoch_misses > 0 && measure {
                self.res.miss_epochs += 1;
                self.res.epoch_misses += st.epoch_misses;
            }
            // The core stalls for the full round trip of the epoch leader.
            st.clock = completion;
            st.epoch_open = true;
            st.epoch_instr = 0;
            st.epoch_misses = 1;
        }
    }

    /// Issues prefetches for the core's active stream, keeping up to
    /// `stream_lookahead` unconsumed prefetched blocks in flight.
    fn pump_stream<P: Prefetcher + ?Sized>(
        &mut self,
        core_idx: usize,
        core: stms_types::CoreId,
        prefetcher: &mut P,
    ) {
        loop {
            let st = &mut self.cores[core_idx];
            if !st.stream.is_active() {
                return;
            }
            // Confidence-ramped lookahead: a freshly-triggered stream runs
            // only a few blocks ahead; each confirmed hit widens the
            // window up to the configured maximum, so mispredicted streams
            // waste little bandwidth while accurate ones reach full depth.
            let effective_lookahead =
                (4 + 2 * st.stream_hits as usize).min(self.opts.stream_lookahead);
            if st.inflight_prefetches >= effective_lookahead {
                return;
            }
            if st.stream.queued() < self.opts.refill_threshold && !st.stream.is_exhausted() {
                let now = st.clock;
                let chunk = prefetcher.next_chunk(core, now, &mut self.dram);
                let ready = chunk.ready_at;
                self.cores[core_idx].stream.extend(chunk.addresses, ready);
            }
            let st = &mut self.cores[core_idx];
            let Some(line) = st.stream.pop() else {
                if st.stream.is_exhausted() {
                    st.stream.squash();
                }
                return;
            };
            // Skip lines that are already on chip or already prefetched.
            if self.l1[core_idx].probe(line)
                || self.l2.probe(line)
                || self.cores[core_idx].pfb.contains(line)
            {
                continue;
            }
            let st = &mut self.cores[core_idx];
            let issue_at = st.clock.max(st.stream.ready_at());
            let completion = self.dram.access(
                TrafficClass::PrefetchData,
                self.cfg.l2.line_bytes as u64,
                issue_at,
            );
            self.res.prefetches_issued += 1;
            self.cores[core_idx].inflight_prefetches += 1;
            if let Some(evicted) = self.cores[core_idx].pfb.insert(line, completion) {
                self.res.prefetches_unused += 1;
                prefetcher.on_unused(core, evicted.line);
            }
        }
    }

    fn l1_fill(&mut self, core_idx: usize, line: LineAddr, dirty: bool) {
        if let Some(evicted) = self.l1[core_idx].fill(line, dirty) {
            if evicted.dirty {
                // Dirty L1 victim is absorbed by the L2, which may write a
                // dirty line of its own back.
                self.l2_fill(evicted.line, true);
            }
        }
    }

    fn l2_fill(&mut self, line: LineAddr, dirty: bool) {
        if let Some(evicted) = self.l2.fill(line, dirty) {
            if evicted.dirty {
                let now = self.max_clock();
                self.dram
                    .access(TrafficClass::Writeback, self.cfg.l2.line_bytes as u64, now);
            }
        }
    }

    fn fill_on_chip(&mut self, core_idx: usize, line: LineAddr, dirty: bool) {
        self.l2_fill(line, false);
        self.l1_fill(core_idx, line, dirty);
    }

    fn max_clock(&self) -> Cycle {
        self.cores
            .iter()
            .map(|c| c.clock)
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    fn finish<P: Prefetcher + ?Sized>(
        mut self,
        replayed: usize,
        prefetcher: &mut P,
        warmup_end: usize,
    ) -> SimResult {
        // If the trace was so short that warm-up never ended, end it now so
        // counters are at least well-defined.
        if warmup_end >= replayed && replayed > 0 {
            self.end_warmup();
        }
        let now = self.max_clock();
        prefetcher.finish(now, &mut self.dram);

        // Close open epochs.
        for st in &mut self.cores {
            if st.epoch_open && st.epoch_misses > 0 {
                self.res.miss_epochs += 1;
                self.res.epoch_misses += st.epoch_misses;
            }
            st.epoch_open = false;
        }
        // Remaining never-used prefetched blocks are erroneous.
        for st in &mut self.cores {
            let unused = st.pfb.clear() as u64;
            self.res.prefetches_unused += unused;
        }

        self.res.instructions = self
            .cores
            .iter()
            .map(|c| c.instructions - c.warmup_instructions)
            .sum();
        self.res.cycles = self
            .cores
            .iter()
            .map(|c| c.clock.saturating_since(c.warmup_clock))
            .max()
            .unwrap_or(0);

        // Traffic accumulated after warm-up only.
        let total = *self.dram.traffic();
        let mut measured = TrafficStats::default();
        for class in TrafficClass::ALL {
            measured.add(
                class,
                total
                    .get(class)
                    .saturating_sub(self.warmup_traffic.get(class)),
            );
        }
        self.res.traffic = measured;
        self.res
    }
}

/// A toy prefetcher that always predicts the next `n` sequential lines
/// with zero lookup latency.
#[derive(Debug)]
pub(crate) struct NextLines(pub(crate) usize);

impl Prefetcher for NextLines {
    fn name(&self) -> &'static str {
        "next-lines"
    }
    fn on_trigger(
        &mut self,
        _core: CoreId,
        line: LineAddr,
        now: Cycle,
        _dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        let addresses = (1..=self.0 as u64)
            .map(|k| LineAddr::new(line.raw().wrapping_add(k)))
            .collect();
        Some(StreamChunk {
            addresses,
            ready_at: now,
        })
    }
    fn next_chunk(&mut self, _core: CoreId, now: Cycle, _dram: &mut DramModel) -> StreamChunk {
        StreamChunk::empty(now)
    }
    fn record(
        &mut self,
        _core: CoreId,
        _line: LineAddr,
        _prefetched: bool,
        _now: Cycle,
        _dram: &mut DramModel,
    ) {
    }
}

/// A random multi-core trace with writes, dependent accesses, stride runs
/// (some crossing zero), a hot pool and cold lines.
fn random_trace(rng: &mut StdRng, cores: u16, len: usize) -> Trace {
    let mut trace = Trace::new(TraceMeta {
        workload: "random".into(),
        cores: cores.into(),
        ..Default::default()
    });
    let mut cursors: Vec<(u64, i64)> = (0..cores).map(|c| (u64::from(c) * 4096, 1)).collect();
    for _ in 0..len {
        let core = rng.gen_range(0..cores);
        let cursor = &mut cursors[usize::from(core)];
        let line = match rng.gen_range(0..10u32) {
            0..=3 => {
                if rng.gen_range(0..16u32) == 0 {
                    *cursor = (
                        rng.gen_range(0..64u64),
                        [-2, -1, 1, 3][rng.gen_range(0..4usize)],
                    );
                }
                cursor.0 = cursor.0.wrapping_add(cursor.1 as u64);
                LineAddr::new(cursor.0)
            }
            4..=7 => pool_line(rng, 96),
            _ => LineAddr::new(rng.gen_range(0..1u64 << 20)),
        };
        let access = if rng.gen_range(0..4u32) == 0 {
            MemAccess::write(CoreId::new(core), line)
        } else {
            MemAccess::read(CoreId::new(core), line)
        };
        trace.push(
            access
                .with_gap(rng.gen_range(0..24))
                .with_dependence(rng.gen_range(0..3u32) == 0),
        );
    }
    trace
}

/// Geometries from one-set caches up to the test system.
fn engine_systems() -> Vec<SystemConfig> {
    let mut systems = Vec::new();
    for (l1, l2) in [
        (cache_config(2, 1), cache_config(1, 2)),
        (cache_config(2, 2), cache_config(4, 4)),
        (cache_config(8, 2), cache_config(16, 8)),
    ] {
        let mut cfg = SystemConfig::tiny_for_tests();
        cfg.l1 = CacheConfig {
            hit_latency: 2,
            ..l1
        };
        cfg.l2 = CacheConfig {
            hit_latency: 20,
            ..l2
        };
        systems.push(cfg);
    }
    let mut deep = SystemConfig::tiny_for_tests();
    deep.stride.degree = 5;
    systems.push(deep);
    systems
}

/// The fused reference, the live lane and the logged lane agree on every
/// counter.
fn assert_engines_agree<P: Prefetcher>(
    cfg: &SystemConfig,
    opts: SimOptions,
    trace: &Trace,
    log: &HierarchyLog,
    mut prefetcher: impl FnMut() -> P,
) {
    let fused = FusedSimulator::new(cfg, opts).run(trace, &mut prefetcher());
    let live = CmpSimulator::new(cfg, opts).run(trace, &mut prefetcher());
    let logged = CmpSimulator::new(cfg, opts).run_logged(trace, log, &mut prefetcher());
    assert_eq!(live.encode(), fused.encode(), "live lane, {cfg:?}");
    assert_eq!(logged.encode(), fused.encode(), "logged lane, {cfg:?}");
}

#[test]
fn engines_match_the_fused_reference() {
    let mut rng = StdRng::seed_from_u64(0x57a5);
    let mut writebacks = 0;
    for cfg in engine_systems() {
        for _ in 0..3 {
            let trace = random_trace(&mut rng, 4, 3_000);
            let log = HierarchyLog::record(&cfg, &trace).expect("small geometries log");
            assert!(
                log.size_bytes() <= 5 * trace.len(),
                "{} bytes",
                log.size_bytes()
            );
            for warmup_fraction in [0.0, 0.3] {
                let opts = SimOptions {
                    warmup_fraction,
                    ..SimOptions::default()
                };
                assert_engines_agree(&cfg, opts, &trace, &log, NullPrefetcher::new);
                assert_engines_agree(&cfg, opts, &trace, &log, || NextLines(6));
                writebacks += CmpSimulator::new(&cfg, opts)
                    .run(&trace, &mut NextLines(6))
                    .traffic
                    .writeback;
            }
        }
    }
    assert!(writebacks > 0, "the traces displace dirty L2 lines");
}
