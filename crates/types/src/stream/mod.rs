//! Chunked trace streaming: the out-of-core currency of replay.
//!
//! Most of the workspace moves traces around as fully materialized
//! [`Trace`] values, which caps trace length at available memory. This
//! module defines the streaming alternative used from the generator to the
//! simulator:
//!
//! * [`AccessChunk`] — a borrowed window of consecutive accesses;
//! * [`TraceSource`] — anything that can hand out a trace chunk by chunk:
//!   a materialized [`Trace`] via [`Trace::chunks`], or the resumable
//!   generator in `stms-workloads`. Neither can fail, so neither can a
//!   source.
//!
//! # Example
//!
//! ```
//! use stms_types::{stream, CoreId, LineAddr, MemAccess, Trace, TraceMeta};
//!
//! let mut trace = Trace::new(TraceMeta { workload: "demo".into(), cores: 1, ..Default::default() });
//! for i in 0..1000u64 {
//!     trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(i * 17)));
//! }
//!
//! // Replay it 128 accesses at a time.
//! let mut source = trace.chunks(128);
//! let mut chunks = 0;
//! while let Some(chunk) = stream::TraceSource::next_chunk(&mut source) {
//!     assert_eq!(chunk.first_index, chunks * 128);
//!     chunks += 1;
//! }
//! assert_eq!(chunks, 8);
//! assert_eq!(stream::collect_trace(&mut trace.chunks(128)), trace);
//! ```

use crate::{MemAccess, Trace, TraceMeta};

/// Default accesses per chunk (64 Ki accesses): large enough that per-chunk
/// dispatch cost vanishes against simulation work, small enough that a
/// streamed replay's resident window stays ~megabytes no matter how long
/// the trace is.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// A borrowed window of consecutive trace accesses handed out by a
/// [`TraceSource`].
#[derive(Debug, Clone, Copy)]
pub struct AccessChunk<'a> {
    /// The accesses of this chunk, in trace order.
    pub accesses: &'a [MemAccess],
    /// Index (within the whole trace) of the first access of the chunk.
    pub first_index: u64,
}

/// Anything that can hand out a trace chunk by chunk, in trace order.
///
/// The contract mirrors a lending iterator: each returned [`AccessChunk`]
/// borrows from the source and is consumed before the next call. The total
/// access count and metadata are known up front (every implementor knows
/// them from its spec or header), which is what lets the simulator compute
/// its warm-up boundary without a first pass.
pub trait TraceSource {
    /// Metadata of the streamed trace.
    fn meta(&self) -> &TraceMeta;

    /// Total number of accesses the source will yield across all chunks.
    fn total_accesses(&self) -> u64;

    /// The next chunk, or `None` once the source is exhausted.
    fn next_chunk(&mut self) -> Option<AccessChunk<'_>>;
}

/// [`TraceSource`] over a materialized [`Trace`], yielding borrowed
/// sub-slices (no copies). See [`Trace::chunks`].
#[derive(Debug)]
pub struct TraceChunks<'a> {
    trace: &'a Trace,
    pos: usize,
    chunk_len: usize,
}

impl Trace {
    /// Streams the trace as chunks of at most `chunk_len` accesses — the
    /// adapter that lets every materialized trace flow through the same
    /// [`TraceSource`]-consuming paths as out-of-core streams.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn chunks(&self, chunk_len: usize) -> TraceChunks<'_> {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        TraceChunks {
            trace: self,
            pos: 0,
            chunk_len,
        }
    }
}

impl TraceSource for TraceChunks<'_> {
    fn meta(&self) -> &TraceMeta {
        self.trace.meta()
    }

    fn total_accesses(&self) -> u64 {
        self.trace.len() as u64
    }

    fn next_chunk(&mut self) -> Option<AccessChunk<'_>> {
        let all = self.trace.accesses();
        if self.pos >= all.len() {
            return None;
        }
        let start = self.pos;
        let end = (start + self.chunk_len).min(all.len());
        self.pos = end;
        Some(AccessChunk {
            accesses: &all[start..end],
            first_index: start as u64,
        })
    }
}

/// Collects a whole source into a materialized [`Trace`] (the bridge back
/// from streaming land).
pub fn collect_trace(source: &mut dyn TraceSource) -> Trace {
    let mut trace = Trace::new(source.meta().clone());
    while let Some(chunk) = source.next_chunk() {
        trace.extend(chunk.accesses.iter().copied());
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, CoreId, LineAddr};

    fn sample_trace(len: usize) -> Trace {
        let meta = TraceMeta {
            workload: "stream-unit".into(),
            cores: 4,
            seed: 99,
            footprint_lines: 4096,
        };
        let mut t = Trace::new(meta);
        for i in 0..len as u64 {
            let core = CoreId::new((i % 4) as u16);
            let mut a = MemAccess::read(core, LineAddr::new(i * 31 % 10_000))
                .with_gap((i % 13) as u32)
                .with_dependence(i % 5 == 0);
            if i % 7 == 0 {
                a = a.with_kind(AccessKind::Write);
            }
            t.push(a);
        }
        t
    }

    #[test]
    fn trace_chunks_cover_the_trace_in_order() {
        let t = sample_trace(250);
        let mut source = t.chunks(64);
        assert_eq!(source.total_accesses(), 250);
        assert_eq!(source.meta().workload, "stream-unit");
        let mut seen = Vec::new();
        let mut sizes = Vec::new();
        while let Some(chunk) = source.next_chunk() {
            assert_eq!(chunk.first_index as usize, seen.len());
            sizes.push(chunk.accesses.len());
            seen.extend_from_slice(chunk.accesses);
        }
        assert_eq!(seen, t.accesses());
        assert_eq!(sizes, vec![64, 64, 64, 58]);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new(TraceMeta {
            workload: "empty".into(),
            ..Default::default()
        });
        let mut source = t.chunks(16);
        assert_eq!(source.total_accesses(), 0);
        assert!(source.next_chunk().is_none());
        assert_eq!(collect_trace(&mut t.chunks(16)), t);
    }

    #[test]
    fn collect_trace_rebuilds_the_original() {
        let t = sample_trace(1000);
        let back = collect_trace(&mut t.chunks(100));
        assert_eq!(back, t);
    }
}
