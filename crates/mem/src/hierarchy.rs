//! The prefetcher-independent half of the engine: the per-core L1s, the
//! shared L2 and the base system's stride prefetcher.
//!
//! Every access of a trace does the same thing to these structures
//! whatever temporal prefetcher the run evaluates: the L1 access, stride
//! training with its L2 probes and fills, the L2 access and its fill on a
//! miss, and the L1 fill with the L2 fill of a dirty L1 victim. A
//! `HierarchyStep` is the compact record of what one access did there; the
//! engine's lane (core clocks, DRAM, prefetch buffers, stream engine,
//! prefetcher callbacks) consumes it, and asks its backend whether a line
//! is on chip before it prefetches the line.
//!
//! There are two backends:
//!
//! * `Hierarchy`, the live caches, which simulates each step as the lane
//!   asks for it;
//! * a replay of a [`HierarchyLog`], which a campaign records once per
//!   trace and system and replays under every prefetcher: each step is
//!   decoded from the log, and a tag-only mirror of the caches applies the
//!   recorded way writes so the lane's on-chip probes see the same lines.
//!
//! # Why the hierarchy does not depend on the prefetcher
//!
//! A read that hits in the prefetch buffer only needs its line installed
//! in the L2, which `fill` alone would do. The hierarchy step makes the
//! canonical L2 `access` instead, and `fill`s on a miss. Both leave the
//! same lines in the same recency order; only the absolute LRU stamps
//! differ, and victims are chosen by their order. The lane's probes
//! mutate nothing. So the caches evolve identically under every
//! prefetcher, and the L2 hit flag of a step matters to the lane only when
//! the prefetch buffer missed.

use crate::cache::{Eviction, SetAssocCache};
use crate::config::{CacheConfig, SystemConfig};
use crate::stride::{StridePredictions, StridePrefetcher};
use stms_types::{AccessKind, LineAddr, MemAccess, Trace};

/// The L1 hit.
const L1_HIT: u8 = 1 << 0;
/// The canonical L2 access hit.
const L2_HIT: u8 = 1 << 1;
/// The stride prefetcher predicted lines (their codes follow in a log).
const STRIDE: u8 = 1 << 2;
/// The L2 fill of the missing line evicted a dirty line.
const L2_WRITEBACK: u8 = 1 << 3;
/// The L2 fill of a dirty L1 victim evicted a dirty line.
const VICTIM_WRITEBACK: u8 = 1 << 4;
/// The flags a log stores in an access's header byte.
const HEADER: u8 = L1_HIT | L2_HIT | STRIDE;

/// Bit 7 of a fill code: the fill evicted a dirty line. The low seven bits
/// are zero when the fill found the line present, else one plus the way
/// written.
const CODE_DIRTY: u8 = 0x80;

/// The largest associativity a [`HierarchyLog`] can encode.
const MAX_LOGGED_WAYS: usize = (CODE_DIRTY - 1) as usize;

/// The largest stride-prefetch degree a [`HierarchyStep`] can describe.
const MAX_STRIDE_DEGREE: usize = u32::BITS as usize;

/// What one access did to the L1s, the L2 and the stride prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HierarchyStep {
    flags: u8,
    /// Bit `k`: the `k`-th stride prediction was not on chip and was
    /// fetched into the L2.
    stride_issued: u32,
    /// Bit `k`: the L2 fill of the `k`-th stride prediction evicted a dirty
    /// line.
    stride_writebacks: u32,
}

impl HierarchyStep {
    /// Whether the access hit in its core's L1. Nothing else happened.
    pub(crate) fn l1_hit(self) -> bool {
        self.flags & L1_HIT != 0
    }

    /// Whether the access hit in the L2 (after the stride fills).
    pub(crate) fn l2_hit(self) -> bool {
        self.flags & L2_HIT != 0
    }

    /// The stride predictions fetched into the L2, bit `k` for the `k`-th.
    pub(crate) fn stride_issued(self) -> u32 {
        self.stride_issued
    }

    /// The stride fills that evicted a dirty L2 line, bit `k` for the
    /// `k`-th prediction.
    pub(crate) fn stride_writebacks(self) -> u32 {
        self.stride_writebacks
    }

    /// How many dirty L2 lines the fills of the accessed line displaced:
    /// the L2 fill on a miss, and the L2 fill of the dirty L1 victim.
    pub(crate) fn fill_writebacks(self) -> u32 {
        u32::from(self.flags & L2_WRITEBACK != 0) + u32::from(self.flags & VICTIM_WRITEBACK != 0)
    }
}

/// The answers a lane needs from the base hierarchy.
pub(crate) trait HierarchyBackend {
    /// Applies `access` to the hierarchy and reports what it did.
    fn step(&mut self, access: &MemAccess) -> HierarchyStep;

    /// Whether `line` is in core `core`'s L1 or in the L2. Changes nothing.
    fn on_chip(&self, core: usize, line: LineAddr) -> bool;
}

/// Where a step writes its fill codes: nowhere on a live run, into the
/// log while one is recorded.
trait CodeSink {
    fn push(&mut self, code: u8);
}

impl CodeSink for () {
    #[inline(always)]
    fn push(&mut self, _code: u8) {}
}

impl CodeSink for Vec<u8> {
    fn push(&mut self, code: u8) {
        Vec::push(self, code);
    }
}

/// The fill code of one cache fill ([`SetAssocCache::fill_way`]).
fn fill_code(way: Option<usize>, evicted: Option<Eviction>) -> u8 {
    let Some(way) = way else { return 0 };
    let dirty = if evicted.is_some_and(|e| e.dirty) {
        CODE_DIRTY
    } else {
        0
    };
    (way + 1) as u8 | dirty
}

/// The live caches and stride table.
#[derive(Debug)]
pub(crate) struct Hierarchy {
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    stride: StridePrefetcher,
}

impl Hierarchy {
    /// Empty caches and stride table for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the stride degree exceeds 32.
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        assert!(
            cfg.stride.degree <= MAX_STRIDE_DEGREE,
            "stride degree {} exceeds the supported {MAX_STRIDE_DEGREE}",
            cfg.stride.degree
        );
        Hierarchy {
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: SetAssocCache::new(cfg.l2),
            stride: StridePrefetcher::new(cfg.stride),
        }
    }

    /// One access; the fill codes of a log go to `sink` in the order a log
    /// stores them.
    #[inline(always)]
    fn step_into<S: CodeSink>(&mut self, a: &MemAccess, sink: &mut S) -> HierarchyStep {
        let core = a.core.index();
        let is_write = a.kind == AccessKind::Write;
        let mut step = HierarchyStep::default();
        if self.l1[core].access(a.line, is_write).is_hit() {
            step.flags = L1_HIT;
            return step;
        }

        // The stride prefetcher observes every L1 miss; its fills go
        // straight into the shared L2.
        let predictions = self.stride.train(a.core, a.line);
        if predictions.len() > 0 {
            self.stride_fills(predictions, &mut step, sink);
        }

        if self.l2.access(a.line, false).is_hit() {
            step.flags |= L2_HIT;
        } else {
            let (way, evicted) = self.l2.fill_way(a.line, false);
            if evicted.is_some_and(|e| e.dirty) {
                step.flags |= L2_WRITEBACK;
            }
            sink.push(fill_code(way, evicted));
        }

        let (way, evicted) = self.l1[core].fill_way(a.line, is_write);
        sink.push(fill_code(way, evicted));
        if let Some(victim) = evicted.filter(|e| e.dirty) {
            // A dirty L1 victim is absorbed by the L2.
            let (way, evicted) = self.l2.fill_way(victim.line, true);
            if evicted.is_some_and(|e| e.dirty) {
                step.flags |= VICTIM_WRITEBACK;
            }
            sink.push(fill_code(way, evicted));
        }
        step
    }
}

impl Hierarchy {
    /// Fetches the stride predictions that are not on chip into the L2.
    /// Kept out of line: most L1 misses predict nothing, and inlining this
    /// loop into the step made live replays 5-8% slower (2-vCPU x86-64 VM).
    #[inline(never)]
    fn stride_fills<S: CodeSink>(
        &mut self,
        predictions: StridePredictions,
        step: &mut HierarchyStep,
        sink: &mut S,
    ) {
        step.flags |= STRIDE;
        let stride = i8::try_from(predictions.stride()).expect("strides stay in their region");
        sink.push(stride as u8);
        for (k, predicted) in predictions.enumerate() {
            if self.l2.probe(predicted) {
                sink.push(0);
                continue;
            }
            let (way, evicted) = self.l2.fill_way(predicted, false);
            step.stride_issued |= 1 << k;
            if evicted.is_some_and(|e| e.dirty) {
                step.stride_writebacks |= 1 << k;
            }
            sink.push(fill_code(way, evicted));
        }
    }
}

impl HierarchyBackend for Hierarchy {
    #[inline(always)]
    fn step(&mut self, access: &MemAccess) -> HierarchyStep {
        self.step_into(access, &mut ())
    }

    #[inline]
    fn on_chip(&self, core: usize, line: LineAddr) -> bool {
        self.l1[core].probe(line) || self.l2.probe(line)
    }
}

/// Panics if any access names a core the system does not have.
pub(crate) fn check_cores(trace: &Trace, cores: usize) {
    if let Some(core) = trace.highest_core().filter(|c| c.index() >= cores) {
        panic!(
            "trace references core {} beyond configured {cores}",
            core.index()
        );
    }
}

/// The hierarchy steps of a whole trace under one system, recorded once and
/// replayed by every run of that trace ([`crate::CmpSimulator::run_logged`]).
///
/// Each access takes one header byte; an L1 miss adds one fill code per
/// stride prediction (after a stride byte), one for the L2 fill on a miss,
/// one for the L1 fill and one for the L2 fill of a dirty L1 victim.
///
/// # Example
///
/// ```
/// use stms_mem::{CmpSimulator, HierarchyLog, NullPrefetcher, SimOptions, SystemConfig};
/// use stms_types::{CoreId, LineAddr, MemAccess, Trace, TraceMeta};
///
/// let mut trace = Trace::new(TraceMeta { workload: "demo".into(), cores: 1, ..Default::default() });
/// for i in 0..500u64 {
///     trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(i * 37 % 300)).with_gap(4));
/// }
/// let cfg = SystemConfig::tiny_for_tests();
/// let log = HierarchyLog::record(&cfg, &trace).expect("geometry fits a log");
/// let live = CmpSimulator::new(&cfg, SimOptions::default()).run(&trace, &mut NullPrefetcher::new());
/// let logged = CmpSimulator::new(&cfg, SimOptions::default())
///     .run_logged(&trace, &log, &mut NullPrefetcher::new());
/// assert_eq!(live.encode(), logged.encode());
/// ```
#[derive(Debug, Clone)]
pub struct HierarchyLog {
    system: SystemConfig,
    accesses: usize,
    bytes: Vec<u8>,
}

impl HierarchyLog {
    /// Simulates `trace` through `cfg`'s hierarchy and records every step,
    /// or returns `None` when a log cannot describe `cfg`'s hierarchy: a
    /// cache of more than 127 ways, or a stride degree above 32.
    ///
    /// # Panics
    ///
    /// Panics if the trace references a core `cfg` does not have.
    pub fn record(cfg: &SystemConfig, trace: &Trace) -> Option<Self> {
        if cfg.l1.associativity > MAX_LOGGED_WAYS
            || cfg.l2.associativity > MAX_LOGGED_WAYS
            || cfg.stride.degree > MAX_STRIDE_DEGREE
        {
            return None;
        }
        check_cores(trace, cfg.cores);
        let accesses = trace.accesses();
        let mut hierarchy = Hierarchy::new(cfg);
        let mut bytes = Vec::with_capacity(accesses.len() * 3);
        for access in accesses {
            let header = bytes.len();
            bytes.push(0);
            let step = hierarchy.step_into(access, &mut bytes);
            bytes[header] = step.flags & HEADER;
        }
        // Peak RSS turns on glibc's dynamic mmap threshold, which the order
        // of large frees moves. One-thread runs of the figure grid at 120k
        // accesses per trace (perfbench grid-cold, 8 seeds, 6-8 alternating
        // runs each) peaked at a median 23.9 MiB (max 26.9) with
        // `shrink_to_fit`, 23.7 (max 29.7) keeping the over-sized buffer,
        // and 26.4 (max 30.9) copying into an exact-size one.
        bytes.shrink_to_fit();
        Some(HierarchyLog {
            system: cfg.clone(),
            accesses: accesses.len(),
            bytes,
        })
    }

    /// The number of accesses recorded.
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// The size of the log in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The system the log was recorded under.
    pub(crate) fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// A backend that replays this log from its first access.
    pub(crate) fn replay(&self) -> LogReplay<'_> {
        LogReplay {
            bytes: &self.bytes,
            pos: 0,
            degree: self.system.stride.degree,
            l1: (0..self.system.cores)
                .map(|_| TagMirror::new(self.system.l1))
                .collect(),
            l2: TagMirror::new(self.system.l2),
        }
    }
}

/// The lines of one cache, without recency or dirty bits. Ways are never
/// invalidated, and a fill takes a set's first invalid way while it has
/// one, so the valid ways of a set are always its first `filled[set]`.
#[derive(Debug)]
struct TagMirror {
    lines: Vec<u64>,
    filled: Vec<u8>,
    associativity: usize,
    set_mask: u64,
}

impl TagMirror {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        TagMirror {
            lines: vec![0; sets * cfg.associativity],
            filled: vec![0; sets],
            associativity: cfg.associativity,
            set_mask: (sets - 1) as u64,
        }
    }

    /// The set of `line` and the array index of its first way.
    fn set_of(&self, line: LineAddr) -> (usize, usize) {
        let set = (line.raw() & self.set_mask) as usize;
        (set, set * self.associativity)
    }

    fn probe(&self, line: LineAddr) -> bool {
        let (set, base) = self.set_of(line);
        let filled = usize::from(self.filled[set]);
        self.lines[base..base + filled].contains(&line.raw())
    }

    /// Applies a fill code for `line`, returning the line it replaced, if
    /// any.
    fn apply(&mut self, line: LineAddr, code: u8) -> Option<LineAddr> {
        let way = usize::from(code & !CODE_DIRTY);
        if way == 0 {
            return None;
        }
        let way = way - 1;
        let (set, base) = self.set_of(line);
        let filled = &mut self.filled[set];
        let replaced = if way < usize::from(*filled) {
            Some(LineAddr::new(self.lines[base + way]))
        } else {
            debug_assert_eq!(way, usize::from(*filled), "fills take the first free way");
            *filled += 1;
            None
        };
        self.lines[base + way] = line.raw();
        replaced
    }
}

/// The replaying backend of a [`HierarchyLog`].
#[derive(Debug)]
pub(crate) struct LogReplay<'a> {
    bytes: &'a [u8],
    pos: usize,
    degree: usize,
    l1: Vec<TagMirror>,
    l2: TagMirror,
}

impl LogReplay<'_> {
    #[inline(always)]
    fn next_byte(&mut self) -> u8 {
        let byte = self.bytes[self.pos];
        self.pos += 1;
        byte
    }
}

impl HierarchyBackend for LogReplay<'_> {
    #[inline]
    fn step(&mut self, a: &MemAccess) -> HierarchyStep {
        let header = self.next_byte();
        let mut step = HierarchyStep {
            flags: header,
            ..HierarchyStep::default()
        };
        if header & L1_HIT != 0 {
            return step;
        }
        if header & STRIDE != 0 {
            let stride = i64::from(self.next_byte() as i8);
            for k in 0..self.degree {
                let code = self.next_byte();
                if code == 0 {
                    continue;
                }
                step.stride_issued |= 1 << k;
                if code & CODE_DIRTY != 0 {
                    step.stride_writebacks |= 1 << k;
                }
                self.l2.apply(a.line.offset(stride * (k as i64 + 1)), code);
            }
        }
        if header & L2_HIT == 0 {
            let code = self.next_byte();
            if code & CODE_DIRTY != 0 {
                step.flags |= L2_WRITEBACK;
            }
            self.l2.apply(a.line, code);
        }
        let code = self.next_byte();
        let replaced = self.l1[a.core.index()].apply(a.line, code);
        if code & CODE_DIRTY != 0 {
            let victim = replaced.expect("a dirty victim was resident");
            let code = self.next_byte();
            if code & CODE_DIRTY != 0 {
                step.flags |= VICTIM_WRITEBACK;
            }
            self.l2.apply(victim, code);
        }
        step
    }

    #[inline]
    fn on_chip(&self, core: usize, line: LineAddr) -> bool {
        self.l1[core].probe(line) || self.l2.probe(line)
    }
}
