//! The trace-driven, cycle-approximate CMP simulation engine.
//!
//! The engine replays a [`Trace`] through per-core L1 caches, a shared L2,
//! the baseline stride prefetcher and the DRAM channel, while driving a
//! temporal-streaming [`Prefetcher`] through its trigger/record hooks and
//! managing the on-chip stream machinery (address queues and prefetch
//! buffers).
//!
//! # Timing model
//!
//! Timing is approximated with an *epoch* model of memory-level parallelism
//! (in the spirit of Chou et al. \[7\] as used by the paper): off-chip demand
//! read misses that are (a) independent (not flagged as pointer-dependent on
//! the previous miss), (b) within one reorder-buffer window of the epoch's
//! first miss and (c) within the per-core MSHR limit, overlap with the
//! epoch's first miss and add no further stall. Dependent misses, or misses
//! beyond the window, start a new epoch and stall the core for a full memory
//! round trip. L2 hits charge their hit latency when dependent and a small
//! pipelined cost otherwise. Write misses are treated as non-blocking (they
//! consume bandwidth but add no stall). Covered misses (prefetch-buffer hits)
//! charge either the L2 hit latency (fully covered) or the remaining fetch
//! time (partially covered).
//!
//! The workload's MLP (Table 2) is an emergent property of the trace's
//! dependence flags and compute gaps under this model, and is reported in the
//! [`SimResult`].

use crate::config::SystemConfig;
use crate::dram::{DramModel, TrafficClass, TrafficStats};
use crate::hierarchy::{check_cores, Hierarchy, HierarchyBackend, HierarchyLog, HierarchyStep};
use crate::mshr::MshrFile;
use crate::prefetcher::Prefetcher;
use crate::result::SimResult;
use crate::stream::{PrefetchBuffer, StreamState};
use std::fmt;
use stms_types::{AccessKind, Cycle, MemAccess, Trace};

/// Tunables of the simulation engine that are not part of the system model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Capacity of each core's prefetch buffer in lines (2 KB = 32 lines).
    pub prefetch_buffer_lines: usize,
    /// Maximum prefetched-but-unused blocks the engine keeps in flight per
    /// core (stream lookahead / prefetch depth of the stream engine).
    pub stream_lookahead: usize,
    /// When the address queue holds fewer than this many entries the engine
    /// asks the prefetcher for the next chunk.
    pub refill_threshold: usize,
    /// Fraction of the trace used to warm caches and predictor meta-data
    /// before statistics are collected, at most 0.95.
    pub warmup_fraction: f64,
}

/// The largest warm-up fraction the engine honours: it leaves at least 5%
/// of every trace measured. [`SimOptions::validate`] refuses a larger one
/// and the replay loops clamp to it.
pub(crate) const MAX_WARMUP_FRACTION: f64 = 0.95;

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            prefetch_buffer_lines: 32,
            stream_lookahead: 12,
            refill_threshold: 8,
            warmup_fraction: 0.2,
        }
    }
}

// Floats compare with `==` and hash through `hash_f64`, so a `-0.0`
// warm-up is the same job as `0.0`; the exhaustive destructuring fails to
// compile until a new field is hashed.
impl Eq for SimOptions {}

impl std::hash::Hash for SimOptions {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let SimOptions {
            prefetch_buffer_lines,
            stream_lookahead,
            refill_threshold,
            warmup_fraction,
        } = self;
        prefetch_buffer_lines.hash(state);
        stream_lookahead.hash(state);
        refill_threshold.hash(state);
        stms_types::hash::hash_f64(*warmup_fraction, state);
    }
}

/// Error describing why a [`SimOptions`] value is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidSimOptions(String);

impl fmt::Display for InvalidSimOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulation options: {}", self.0)
    }
}

impl std::error::Error for InvalidSimOptions {}

impl SimOptions {
    /// Fallible builder: these options with the given warm-up fraction,
    /// validated. This is the construction path for values coming from
    /// untrusted sources — the `stms-experiments` CLI routes `--warmup`
    /// through it before any simulation starts.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSimOptions`] under the same conditions as
    /// [`SimOptions::validate`].
    pub fn try_with_warmup(self, warmup_fraction: f64) -> Result<Self, InvalidSimOptions> {
        let opts = SimOptions {
            warmup_fraction,
            ..self
        };
        opts.validate()?;
        Ok(opts)
    }

    /// Checks that every option is in its meaningful range.
    ///
    /// The engine itself assumes these invariants: a zero-capacity prefetch
    /// buffer silently drops every prefetched line, a zero refill threshold
    /// never asks the prefetcher for addresses, and the replay clamps a
    /// warm-up fraction above 0.95, so a larger one would silently run as
    /// 0.95.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSimOptions`] naming the first offending field.
    pub fn validate(&self) -> Result<(), InvalidSimOptions> {
        if !(0.0..=MAX_WARMUP_FRACTION).contains(&self.warmup_fraction) {
            return Err(InvalidSimOptions(format!(
                "warmup_fraction must be in [0, {MAX_WARMUP_FRACTION}], got {}",
                self.warmup_fraction
            )));
        }
        if self.prefetch_buffer_lines == 0 {
            return Err(InvalidSimOptions(
                "prefetch_buffer_lines must be non-zero (a zero-capacity buffer drops every \
                 prefetch)"
                    .into(),
            ));
        }
        if self.refill_threshold == 0 {
            return Err(InvalidSimOptions(
                "refill_threshold must be non-zero (the engine would never request addresses)"
                    .into(),
            ));
        }
        if self.stream_lookahead == 0 {
            return Err(InvalidSimOptions(
                "stream_lookahead must be non-zero (no prefetch could ever be in flight)".into(),
            ));
        }
        Ok(())
    }
}

/// Per-core dynamic state.
#[derive(Debug)]
pub(crate) struct CoreState {
    pub(crate) clock: Cycle,
    pub(crate) instructions: u64,
    /// Clock and instruction count at the end of warm-up (subtracted from
    /// the final figures).
    pub(crate) warmup_clock: Cycle,
    pub(crate) warmup_instructions: u64,
    pub(crate) epoch_open: bool,
    pub(crate) epoch_instr: u64,
    pub(crate) epoch_misses: u64,
    pub(crate) mshrs: MshrFile,
    pub(crate) stream: StreamState,
    pub(crate) pfb: PrefetchBuffer,
    /// Prefetches issued for the currently-followed stream that have not yet
    /// been consumed by a demand access (bounds the stream lookahead).
    pub(crate) inflight_prefetches: usize,
    /// Demand hits observed on the currently-followed stream; used to ramp
    /// the lookahead so that mispredicted streams waste few prefetches.
    pub(crate) stream_hits: u64,
}

impl CoreState {
    pub(crate) fn new(cfg: &SystemConfig, opts: &SimOptions) -> Self {
        CoreState {
            clock: Cycle::ZERO,
            instructions: 0,
            warmup_clock: Cycle::ZERO,
            warmup_instructions: 0,
            epoch_open: false,
            epoch_instr: 0,
            epoch_misses: 0,
            mshrs: MshrFile::new(cfg.core.mshrs),
            stream: StreamState::new(),
            pfb: PrefetchBuffer::new(opts.prefetch_buffer_lines),
            inflight_prefetches: 0,
            stream_hits: 0,
        }
    }
}

/// The simulation engine. Create one per run with [`CmpSimulator::new`] and
/// call [`CmpSimulator::run`].
///
/// The engine is the *lane* of a run: core clocks, epochs and MSHRs, the
/// DRAM channel, the prefetch buffers, the stream engine and the
/// prefetcher callbacks. It takes the L1/L2/stride outcome of every access
/// from the live caches for [`CmpSimulator::run`], or from a recorded
/// [`HierarchyLog`] for [`CmpSimulator::run_logged`] (see
/// [`crate::hierarchy`]).
///
/// # Example
///
/// ```
/// use stms_mem::{CmpSimulator, NullPrefetcher, SimOptions, SystemConfig};
/// use stms_types::{CoreId, LineAddr, MemAccess, Trace, TraceMeta};
///
/// let mut trace = Trace::new(TraceMeta { workload: "demo".into(), cores: 1, ..Default::default() });
/// for i in 0..100u64 {
///     trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(i * 1000)).with_gap(4));
/// }
/// let cfg = SystemConfig::tiny_for_tests();
/// let result = CmpSimulator::new(&cfg, SimOptions { warmup_fraction: 0.0, ..Default::default() })
///     .run(&trace, &mut NullPrefetcher::new());
/// assert!(result.uncovered_misses > 0);
/// ```
#[derive(Debug)]
pub struct CmpSimulator<'a> {
    cfg: &'a SystemConfig,
    opts: SimOptions,
    dram: DramModel,
    cores: Vec<CoreState>,
    res: SimResult,
    warmup_traffic: TrafficStats,
}

impl<'a> CmpSimulator<'a> {
    /// Creates an engine for the given system model.
    pub fn new(cfg: &'a SystemConfig, opts: SimOptions) -> Self {
        let cores = (0..cfg.cores).map(|_| CoreState::new(cfg, &opts)).collect();
        CmpSimulator {
            cfg,
            opts,
            dram: DramModel::new(cfg.dram),
            cores,
            res: SimResult::default(),
            warmup_traffic: TrafficStats::default(),
        }
    }

    /// Replays `trace` with `prefetcher`, returning the collected metrics.
    ///
    /// The first `warmup_fraction` of the trace trains caches and predictor
    /// meta-data but is excluded from all reported counters.
    pub fn run<P: Prefetcher + ?Sized>(self, trace: &Trace, prefetcher: &mut P) -> SimResult {
        let mut hierarchy = Hierarchy::new(self.cfg);
        self.replay(trace, &mut hierarchy, prefetcher)
    }

    /// Replays `trace` with `prefetcher`, taking every L1, L2 and stride
    /// outcome from `log` instead of simulating the caches. The metrics are
    /// bit-identical to [`CmpSimulator::run`]; a campaign records the log
    /// once per trace and runs every prefetcher of the trace this way.
    ///
    /// # Panics
    ///
    /// Panics if `log` was recorded under another system or for a trace of
    /// another length.
    pub fn run_logged<P: Prefetcher + ?Sized>(
        self,
        trace: &Trace,
        log: &HierarchyLog,
        prefetcher: &mut P,
    ) -> SimResult {
        assert!(
            log.system() == self.cfg && log.accesses() == trace.len(),
            "hierarchy log recorded for another system or trace"
        );
        self.replay(trace, &mut log.replay(), prefetcher)
    }

    /// The replay loop shared by both entry points: one hierarchy step and
    /// one lane step per access.
    fn replay<P, H>(mut self, trace: &Trace, hierarchy: &mut H, prefetcher: &mut P) -> SimResult
    where
        P: Prefetcher + ?Sized,
        H: HierarchyBackend,
    {
        self.res.prefetcher = prefetcher.name().to_string();
        self.res.workload = trace.meta().workload.clone();
        check_cores(trace, self.cores.len());
        let accesses = trace.accesses();
        let warmup = self.opts.warmup_fraction.clamp(0.0, MAX_WARMUP_FRACTION);
        let warmup_end = ((accesses.len() as f64) * warmup) as usize;

        for (idx, access) in accesses.iter().enumerate() {
            if idx == warmup_end {
                self.end_warmup();
            }
            let step = hierarchy.step(access);
            self.step(*access, step, hierarchy, prefetcher, idx >= warmup_end);
        }
        self.finish(accesses.len(), prefetcher, warmup_end)
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

    /// The lane's half of one access, given what the access did to the
    /// hierarchy.
    fn step<P, H>(
        &mut self,
        a: MemAccess,
        hs: HierarchyStep,
        chip: &H,
        prefetcher: &mut P,
        measure: bool,
    ) where
        P: Prefetcher + ?Sized,
        H: HierarchyBackend,
    {
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

        if hs.l1_hit() {
            if measure {
                self.res.l1_hits += 1;
            }
            // L1 hits are pipelined; no stall charged.
            return;
        }

        if hs.stride_issued() != 0 {
            self.stride_traffic(core_idx, hs);
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
                // The used block is installed on chip.
                self.fill_writebacks(hs);
                let now = self.cores[core_idx].clock;
                prefetcher.record(a.core, a.line, true, now, &mut self.dram);
                self.pump_stream(core_idx, a.core, chip, prefetcher);
                return;
            }
        }

        if hs.l2_hit() {
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
            self.fill_writebacks(hs);
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
            self.fill_writebacks(hs);
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
        self.fill_writebacks(hs);
        self.pump_stream(core_idx, a.core, chip, prefetcher);
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
    fn pump_stream<P, H>(
        &mut self,
        core_idx: usize,
        core: stms_types::CoreId,
        chip: &H,
        prefetcher: &mut P,
    ) where
        P: Prefetcher + ?Sized,
        H: HierarchyBackend,
    {
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
            if chip.on_chip(core_idx, line) || self.cores[core_idx].pfb.contains(line) {
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

    /// Charges the stride prefetcher's fills into the L2, and the
    /// writebacks of the dirty lines they displaced. Out of line for the
    /// same reason as the hierarchy's stride fills.
    #[inline(never)]
    fn stride_traffic(&mut self, core_idx: usize, hs: HierarchyStep) {
        let now = self.cores[core_idx].clock;
        let mut issued = hs.stride_issued();
        while issued != 0 {
            let k = issued.trailing_zeros();
            issued &= issued - 1;
            self.dram.access(
                TrafficClass::StridePrefetch,
                self.cfg.l2.line_bytes as u64,
                now,
            );
            if hs.stride_writebacks() & (1 << k) != 0 {
                self.writeback();
            }
        }
    }

    /// Charges the writebacks of the dirty L2 lines that filling the
    /// accessed line displaced.
    #[inline]
    fn fill_writebacks(&mut self, hs: HierarchyStep) {
        for _ in 0..hs.fill_writebacks() {
            self.writeback();
        }
    }

    /// One dirty L2 line written back to memory.
    fn writeback(&mut self) {
        let now = self.max_clock();
        self.dram
            .access(TrafficClass::Writeback, self.cfg.l2.line_bytes as u64, now);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::prefetcher::NullPrefetcher;
    use crate::reference::NextLines;
    use stms_types::{CoreId, LineAddr, TraceMeta};

    fn trace_of(lines: &[u64], core: u16) -> Trace {
        let mut t = Trace::new(TraceMeta {
            workload: "t".into(),
            cores: 4,
            ..Default::default()
        });
        for &l in lines {
            t.push(MemAccess::read(CoreId::new(core), LineAddr::new(l)).with_gap(2));
        }
        t
    }

    fn opts_no_warmup() -> SimOptions {
        SimOptions {
            warmup_fraction: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn sim_options_validation_rejects_out_of_range_fields() {
        assert!(SimOptions::default().validate().is_ok());
        assert!(SimOptions::default().try_with_warmup(0.0).is_ok());
        let kept = SimOptions {
            stream_lookahead: 7,
            ..Default::default()
        }
        .try_with_warmup(0.95)
        .expect("valid warm-up");
        assert_eq!(kept.stream_lookahead, 7, "other fields pass through");
        assert_eq!(kept.warmup_fraction, 0.95);

        for bad in [0.96, 0.999, 1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = SimOptions::default().try_with_warmup(bad).unwrap_err();
            assert!(err.to_string().contains("warmup_fraction"), "{err}");
        }
        let err = SimOptions {
            prefetch_buffer_lines: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("prefetch_buffer_lines"), "{err}");
        let err = SimOptions {
            refill_threshold: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("refill_threshold"), "{err}");
        let err = SimOptions {
            stream_lookahead: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("stream_lookahead"), "{err}");
    }

    #[test]
    fn cold_misses_are_uncovered() {
        let cfg = SystemConfig::tiny_for_tests();
        let lines: Vec<u64> = (0..200).map(|i| i * 5000 + 7).collect();
        let t = trace_of(&lines, 0);
        let res = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NullPrefetcher::new());
        assert_eq!(res.accesses, 200);
        assert_eq!(res.uncovered_misses, 200);
        assert_eq!(res.covered_full + res.covered_partial, 0);
        assert_eq!(res.coverage(), 0.0);
        assert!(res.cycles > 0);
        assert_eq!(res.traffic.demand_fill, 200 * 64);
    }

    #[test]
    fn repeated_line_hits_l1() {
        let cfg = SystemConfig::tiny_for_tests();
        let t = trace_of(&[42, 42, 42, 42], 0);
        let res = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NullPrefetcher::new());
        assert_eq!(res.uncovered_misses, 1);
        assert_eq!(res.l1_hits, 3);
    }

    #[test]
    fn stride_pattern_becomes_l2_hits() {
        let cfg = SystemConfig::tiny_for_tests();
        // A long unit-stride scan: after training, lines are prefetched to L2.
        let lines: Vec<u64> = (0..300).map(|i| 100_000 + i).collect();
        let t = trace_of(&lines, 0);
        let res = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NullPrefetcher::new());
        assert!(
            res.l2_hits > 200,
            "stride prefetcher should cover the scan, got {}",
            res.l2_hits
        );
        assert!(res.traffic.stride_prefetch > 0);
    }

    #[test]
    fn dependent_misses_do_not_overlap() {
        let cfg = SystemConfig::tiny_for_tests();
        let make = |dependent: bool| {
            let mut t = Trace::new(TraceMeta {
                workload: "t".into(),
                cores: 4,
                ..Default::default()
            });
            for i in 0..400u64 {
                t.push(
                    MemAccess::read(CoreId::new(0), LineAddr::new(i * 3000 + 11))
                        .with_gap(1)
                        .with_dependence(dependent),
                );
            }
            t
        };
        let dep =
            CmpSimulator::new(&cfg, opts_no_warmup()).run(&make(true), &mut NullPrefetcher::new());
        let indep =
            CmpSimulator::new(&cfg, opts_no_warmup()).run(&make(false), &mut NullPrefetcher::new());
        assert!(dep.cycles > indep.cycles, "dependent chains must be slower");
        assert!(dep.mlp() < 1.1);
        assert!(
            indep.mlp() > 2.0,
            "independent misses should overlap, mlp={}",
            indep.mlp()
        );
    }

    #[test]
    fn perfect_prediction_gives_high_coverage_and_speedup() {
        let mut cfg = SystemConfig::tiny_for_tests();
        // Disable the stride prefetcher so the temporal prefetcher gets credit.
        cfg.stride.confidence = u32::MAX;
        // A latency-bound pointer chase: every access depends on the previous
        // miss, so the baseline pays a full memory round trip per miss.
        let mut t = Trace::new(TraceMeta {
            workload: "chase".into(),
            cores: 4,
            ..Default::default()
        });
        for i in 0..2000u64 {
            t.push(
                MemAccess::read(CoreId::new(0), LineAddr::new(1_000_000 + i))
                    .with_gap(30)
                    .with_dependence(true),
            );
        }
        let base = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NullPrefetcher::new());
        let pf = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NextLines(64));
        assert!(pf.coverage() > 0.8, "coverage {}", pf.coverage());
        assert!(base.mlp() < 1.1, "pointer chase has no MLP");
        assert!(
            pf.speedup_over(&base) > 0.5,
            "speedup {}",
            pf.speedup_over(&base)
        );
        assert!(pf.prefetches_used > 0);
        assert!(pf.traffic.prefetch_data > 0);
    }

    #[test]
    fn bandwidth_bound_scan_is_not_slowed_down_much() {
        let mut cfg = SystemConfig::tiny_for_tests();
        cfg.stride.confidence = u32::MAX;
        // Independent back-to-back misses saturate the memory channel; the
        // prefetcher cannot help, but it must not hurt by more than a little.
        let lines: Vec<u64> = (0..2000).map(|i| 1_000_000 + i).collect();
        let t = trace_of(&lines, 0);
        let base = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NullPrefetcher::new());
        let pf = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NextLines(64));
        assert!(
            pf.speedup_over(&base) > -0.5,
            "prefetching must not catastrophically slow a bandwidth-bound scan: {}",
            pf.speedup_over(&base)
        );
    }

    #[test]
    fn erroneous_prefetches_are_counted() {
        let mut cfg = SystemConfig::tiny_for_tests();
        cfg.stride.confidence = u32::MAX;
        // Random-ish lines: sequential predictions are always wrong.
        let lines: Vec<u64> = (0..500).map(|i| (i * 7919 + 13) % 1_000_000).collect();
        let t = trace_of(&lines, 0);
        let pf = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NextLines(4));
        assert!(pf.prefetches_unused > 0);
        assert!(pf.accuracy() < 0.5);
    }

    #[test]
    fn warmup_excludes_early_accesses() {
        let cfg = SystemConfig::tiny_for_tests();
        let lines: Vec<u64> = (0..1000).map(|i| i * 777).collect();
        let t = trace_of(&lines, 0);
        let opts = SimOptions {
            warmup_fraction: 0.5,
            ..Default::default()
        };
        let res = CmpSimulator::new(&cfg, opts).run(&t, &mut NullPrefetcher::new());
        assert_eq!(res.accesses, 500);
        assert!(res.traffic.demand_fill <= 500 * 64);
    }

    #[test]
    fn multi_core_traces_share_the_l2() {
        let cfg = SystemConfig::tiny_for_tests();
        let mut t = Trace::new(TraceMeta {
            workload: "mc".into(),
            cores: 4,
            ..Default::default()
        });
        for i in 0..400u64 {
            let core = (i % 4) as u16;
            t.push(MemAccess::read(CoreId::new(core), LineAddr::new(i / 4 * 9000)).with_gap(1));
        }
        let res = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NullPrefetcher::new());
        // Same line touched by 4 cores: one off-chip miss, one L2-hit-ish per
        // other core (plus their own L1 misses).
        assert!(res.l2_hits > 0);
        assert!(res.uncovered_misses >= 100);
        assert_eq!(res.accesses, 400);
    }

    #[test]
    #[should_panic(expected = "beyond configured")]
    fn trace_with_too_many_cores_panics() {
        let cfg = SystemConfig::tiny_for_tests();
        let t = trace_of(&[1, 2, 3], 7);
        let _ = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NullPrefetcher::new());
    }

    #[test]
    fn an_l1_victim_that_displaces_a_dirty_l2_line_is_written_back() {
        // Two direct-mapped L1 sets over a one-set, two-way L2, stride off.
        let mut cfg = SystemConfig::tiny_for_tests();
        let cache = |associativity: usize, hit_latency: u64| CacheConfig {
            capacity_bytes: 128,
            associativity,
            line_bytes: 64,
            hit_latency,
        };
        cfg.l1 = cache(1, 2);
        cfg.l2 = cache(2, 20);
        cfg.stride.confidence = u32::MAX;
        // Writes to lines 0 and 1 fill both L1 sets dirty. Line 2 evicts
        // the dirty 0 from the L1 into the L2. Line 3 evicts the dirty 1,
        // whose L2 fill displaces the L2's now-dirty copy of 0.
        let mut t = Trace::new(TraceMeta {
            workload: "victims".into(),
            cores: 1,
            ..Default::default()
        });
        for line in 0..4 {
            t.push(MemAccess::write(CoreId::new(0), LineAddr::new(line)));
        }
        let res = CmpSimulator::new(&cfg, opts_no_warmup()).run(&t, &mut NullPrefetcher::new());
        assert_eq!(res.write_misses, 4);
        assert_eq!(res.traffic.writeback, 64, "one dirty line written back");
        let log = HierarchyLog::record(&cfg, &t).expect("tiny geometry logs");
        let logged = CmpSimulator::new(&cfg, opts_no_warmup()).run_logged(
            &t,
            &log,
            &mut NullPrefetcher::new(),
        );
        assert_eq!(logged.encode(), res.encode());
    }

    #[test]
    fn a_log_describes_caches_of_up_to_127_ways() {
        let mut cfg = SystemConfig::tiny_for_tests();
        let t = trace_of(&[1, 2, 3], 0);
        for (ways, fits) in [(127, true), (128, false)] {
            cfg.l2.associativity = ways;
            cfg.l2.capacity_bytes = ways * 64;
            assert_eq!(
                HierarchyLog::record(&cfg, &t).is_some(),
                fits,
                "{ways} ways"
            );
        }
    }
}
