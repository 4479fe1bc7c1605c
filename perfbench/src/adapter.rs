//! A benchmark-side [`Prefetcher`] that times the callbacks of the real
//! prefetcher it wraps, and optionally logs what it observes so the layer
//! probes can re-drive standalone structures with the same inputs.
//!
//! Only the traced run uses it; end-to-end numbers come from untraced runs.

use std::time::Instant;
use stms_mem::{DramModel, Prefetcher, StreamChunk};
use stms_types::{CoreId, Cycle, LineAddr};

/// The callback kinds the adapter attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `on_trigger`.
    Trigger = 0,
    /// `next_chunk`.
    NextChunk = 1,
    /// `record`.
    Record = 2,
    /// `on_unused` and `finish`.
    Other = 3,
}

/// Per-callback call counts and durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallbackTimes {
    /// Calls per [`Callback`].
    pub calls: [u64; 4],
    /// Summed duration of the calls, in nanoseconds.
    pub ns: [u64; 4],
}

impl CallbackTimes {
    /// Mean duration of one `kind` call (0 with no calls).
    pub fn mean_ns(&self, kind: Callback) -> f64 {
        let k = kind as usize;
        if self.calls[k] == 0 {
            0.0
        } else {
            self.ns[k] as f64 / self.calls[k] as f64
        }
    }

    /// Calls of every kind.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &CallbackTimes) {
        for k in 0..4 {
            self.calls[k] += other.calls[k];
            self.ns[k] += other.ns[k];
        }
    }
}

/// What the adapter saw, in engine order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// `on_trigger(core, line, now)`.
    Trigger(CoreId, LineAddr, Cycle),
    /// One address of a chunk returned to `core` at `ready_at`.
    Chunk(CoreId, LineAddr, Cycle),
    /// `record(core, line, _, now)`.
    Record(CoreId, LineAddr, Cycle),
}

/// Times every callback of `inner`, or logs what it observes.
///
/// Every call is timed rather than a sample of them: an estimate scaled up
/// from samples multiplies any sample that the host happened to preempt,
/// and the engine-self time derived from it could then go negative.
#[derive(Debug)]
pub struct Timed<'a, P: Prefetcher + ?Sized> {
    inner: &'a mut P,
    /// Counts and durations so far (empty when logging).
    pub times: CallbackTimes,
    /// Observed calls, when logging was requested.
    pub log: Option<Vec<Observed>>,
}

impl<'a, P: Prefetcher + ?Sized> Timed<'a, P> {
    /// Wraps `inner`, timing every call.
    pub fn new(inner: &'a mut P) -> Self {
        Timed {
            inner,
            times: CallbackTimes::default(),
            log: None,
        }
    }

    /// Wraps `inner` without timing anything, logging every observed call.
    pub fn logging(inner: &'a mut P) -> Self {
        Timed {
            inner,
            times: CallbackTimes::default(),
            log: Some(Vec::new()),
        }
    }

    fn call<T>(&mut self, kind: Callback, f: impl FnOnce(&mut P) -> T) -> T {
        if self.log.is_some() {
            return f(&mut *self.inner);
        }
        let started = Instant::now();
        let out = f(&mut *self.inner);
        let k = kind as usize;
        self.times.ns[k] += started.elapsed().as_nanos() as u64;
        self.times.calls[k] += 1;
        out
    }

    fn observe_chunk(&mut self, core: CoreId, chunk: &StreamChunk) {
        if let Some(log) = &mut self.log {
            log.extend(
                chunk
                    .addresses
                    .iter()
                    .map(|&line| Observed::Chunk(core, line, chunk.ready_at)),
            );
        }
    }
}

impl<P: Prefetcher + ?Sized> Prefetcher for Timed<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_trigger(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        if let Some(log) = &mut self.log {
            log.push(Observed::Trigger(core, line, now));
        }
        let chunk = self.call(Callback::Trigger, |p| p.on_trigger(core, line, now, dram));
        if let Some(chunk) = &chunk {
            self.observe_chunk(core, chunk);
        }
        chunk
    }

    fn next_chunk(&mut self, core: CoreId, now: Cycle, dram: &mut DramModel) -> StreamChunk {
        let chunk = self.call(Callback::NextChunk, |p| p.next_chunk(core, now, dram));
        self.observe_chunk(core, &chunk);
        chunk
    }

    fn record(
        &mut self,
        core: CoreId,
        line: LineAddr,
        prefetched: bool,
        now: Cycle,
        dram: &mut DramModel,
    ) {
        if let Some(log) = &mut self.log {
            log.push(Observed::Record(core, line, now));
        }
        self.call(Callback::Record, |p| {
            p.record(core, line, prefetched, now, dram)
        });
    }

    fn on_unused(&mut self, core: CoreId, line: LineAddr) {
        self.call(Callback::Other, |p| p.on_unused(core, line));
    }

    fn finish(&mut self, now: Cycle, dram: &mut DramModel) {
        self.call(Callback::Other, |p| p.finish(now, dram));
    }
}
