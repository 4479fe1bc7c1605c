//! Chunked trace streaming: the out-of-core currency of the pipeline.
//!
//! The rest of the workspace historically moved traces around as fully
//! materialized [`Trace`] values — fine for paper-scale runs, but it caps
//! trace length at available memory at *every* layer (generation, the disk
//! cache, replay). This module defines the streaming alternative used from
//! the generator all the way to the simulator:
//!
//! * [`AccessChunk`] — a borrowed window of consecutive accesses;
//! * [`TraceSource`] — anything that can hand out a trace chunk by chunk
//!   (a materialized [`Trace`] via [`Trace::chunks`], the resumable
//!   generator in `stms-workloads`, or a disk blob via [`TraceReader`]);
//! * a **chunk-framed codec** that stores access records inside the sealed
//!   [`crate::blob`] envelope, framed into fixed-size chunks each carrying
//!   its own length and checksum — so a reader can verify and replay a
//!   trace without ever holding more than one chunk. Two payload codecs
//!   share this framing (selected by [`TraceCodec`]): **v2**
//!   ([`TRACE_CHUNKED_CODEC_VERSION`]) stores the same big-endian row
//!   records as [`Trace::encode`], and **v3**
//!   ([`TRACE_COLUMNAR_CODEC_VERSION`], the default) re-lays each chunk out
//!   columnarly and compresses per column (see [`columnar`]'s module docs
//!   for the layout);
//! * [`ChunkedTraceWriter`] / [`TraceReader`] — the streaming encoder and
//!   decoder of that format. The v2 writer computes the envelope's payload
//!   length up front (records are fixed width); the v3 writer seeks back
//!   and patches it at finish time (compressed sizes are data-dependent).
//!   Both fold the whole-payload checksum incrementally while chunks flow
//!   through, so sealing never materializes the encoded trace. The reader
//!   dispatches on the codec version in the envelope, so v2 blobs written
//!   by earlier builds stay readable with no flag.
//!
//! The reader is a single serial loop on the calling thread: each
//! [`TraceSource::next_chunk`] reads one frame (header, payload bytes,
//! whole-payload checksum folding), verifies its frame checksum, and only
//! then decodes its records.
//!
//! The classic whole-trace codec ([`Trace::encode`], codec version
//! [`crate::trace::TRACE_CODEC_VERSION`]) remains the single-chunk special
//! case: both codecs share one record encoding, byte for byte.
//!
//! # Example
//!
//! ```
//! use stms_types::{stream, Fingerprint, CoreId, LineAddr, MemAccess, Trace, TraceMeta};
//!
//! let mut trace = Trace::new(TraceMeta { workload: "demo".into(), cores: 1, ..Default::default() });
//! for i in 0..1000u64 {
//!     trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(i * 17)));
//! }
//! let key = Fingerprint::from_raw(42);
//!
//! // Seal chunk-framed (128 accesses per chunk) and replay it chunk by chunk.
//! let sealed = stream::encode_chunked(&trace, key, 128);
//! let mut reader = stream::TraceReader::new(std::io::Cursor::new(&sealed), key).unwrap();
//! let back = stream::collect_trace(&mut reader).unwrap();
//! assert_eq!(back, trace);
//! ```

use crate::blob::{self, BlobError, CHECKSUM_LEN, HEADER_LEN};
use crate::fingerprint::{Fingerprint, Fingerprinter};
use crate::trace::{parse_access, put_access, DecodeTraceError, ACCESS_RECORD_BYTES};
use crate::{MemAccess, Trace, TraceMeta};
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};

pub mod columnar;

/// Version of the chunk-framed **row** trace payload codec (fixed-width
/// records), stamped into the sealed [`crate::blob`] envelope. Distinct
/// from [`crate::trace::TRACE_CODEC_VERSION`] (the whole-trace layout), so
/// a cache file written under either codec can never be misread as the
/// other.
pub const TRACE_CHUNKED_CODEC_VERSION: u16 = 2;

/// Version of the chunk-framed **columnar compressed** trace payload codec
/// (see [`columnar`]). Shares the envelope, per-chunk framing and
/// corruption behaviour of v2; only the bytes inside each frame differ.
pub const TRACE_COLUMNAR_CODEC_VERSION: u16 = 3;

/// Which chunk-framed payload codec a writer emits. Readers never need
/// this: they dispatch on the version stamped in the sealed envelope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TraceCodec {
    /// Fixed-width big-endian row records ([`TRACE_CHUNKED_CODEC_VERSION`]).
    /// Kept writable for compatibility checks and cache interchange with
    /// older builds.
    V2,
    /// Columnar per-chunk compression ([`TRACE_COLUMNAR_CODEC_VERSION`]):
    /// several-fold smaller on disk for the same trace.
    #[default]
    V3,
}

impl TraceCodec {
    /// The codec version stamped into the sealed envelope.
    pub fn version(self) -> u16 {
        match self {
            TraceCodec::V2 => TRACE_CHUNKED_CODEC_VERSION,
            TraceCodec::V3 => TRACE_COLUMNAR_CODEC_VERSION,
        }
    }

    /// Maps an envelope codec version back to a codec, or `None` for
    /// versions this build cannot read.
    pub fn from_version(version: u16) -> Option<Self> {
        match version {
            TRACE_CHUNKED_CODEC_VERSION => Some(TraceCodec::V2),
            TRACE_COLUMNAR_CODEC_VERSION => Some(TraceCodec::V3),
            _ => None,
        }
    }
}

impl fmt::Display for TraceCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCodec::V2 => f.write_str("v2"),
            TraceCodec::V3 => f.write_str("v3"),
        }
    }
}

/// Default accesses per chunk (64 Ki accesses ≈ 1 MB of encoded records):
/// large enough that per-chunk dispatch cost vanishes against simulation
/// work, small enough that a reader's resident window stays ~megabytes no
/// matter how long the trace is.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// Leading magic of the chunk-framed payload: `STMC` ("STMS chunked").
const CHUNKED_MAGIC: u32 = 0x53_54_4d_43;

/// A borrowed window of consecutive trace accesses handed out by a
/// [`TraceSource`].
#[derive(Debug, Clone, Copy)]
pub struct AccessChunk<'a> {
    /// The accesses of this chunk, in trace order.
    pub accesses: &'a [MemAccess],
    /// Index (within the whole trace) of the first access of the chunk.
    pub first_index: u64,
}

/// Why a streaming trace could not be produced or consumed.
///
/// Consumers (the campaign's trace store and job executor) treat every
/// variant the same way: discard the stream, evict the backing file if any,
/// and fall back to regeneration — mirroring how the sealed-blob cache
/// tiers treat [`BlobError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceStreamError {
    /// An underlying I/O operation failed.
    Io {
        /// The rendered I/O error.
        error: String,
    },
    /// The sealed-blob envelope around the stream is unusable (bad magic,
    /// version or key mismatch, truncation, checksum failure).
    Envelope(BlobError),
    /// The chunk-framed trace payload itself is malformed.
    Trace(DecodeTraceError),
}

impl fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStreamError::Io { error } => write!(f, "trace stream i/o error: {error}"),
            TraceStreamError::Envelope(err) => write!(f, "trace stream envelope: {err}"),
            TraceStreamError::Trace(err) => write!(f, "trace stream payload: {err}"),
        }
    }
}

impl std::error::Error for TraceStreamError {}

impl From<io::Error> for TraceStreamError {
    fn from(err: io::Error) -> Self {
        TraceStreamError::Io {
            error: err.to_string(),
        }
    }
}

impl From<BlobError> for TraceStreamError {
    fn from(err: BlobError) -> Self {
        TraceStreamError::Envelope(err)
    }
}

impl From<DecodeTraceError> for TraceStreamError {
    fn from(err: DecodeTraceError) -> Self {
        TraceStreamError::Trace(err)
    }
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

    /// The next chunk, or `Ok(None)` once the source is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`TraceStreamError`] when the underlying stream is unusable
    /// (only disk-backed sources fail; in-memory and generator sources are
    /// infallible).
    fn next_chunk(&mut self) -> Result<Option<AccessChunk<'_>>, TraceStreamError>;
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

    fn next_chunk(&mut self) -> Result<Option<AccessChunk<'_>>, TraceStreamError> {
        let all = self.trace.accesses();
        if self.pos >= all.len() {
            return Ok(None);
        }
        let start = self.pos;
        let end = (start + self.chunk_len).min(all.len());
        self.pos = end;
        Ok(Some(AccessChunk {
            accesses: &all[start..end],
            first_index: start as u64,
        }))
    }
}

/// Collects a whole source into a materialized [`Trace`] (the compatibility
/// bridge back from streaming land).
///
/// # Errors
///
/// Propagates the source's first [`TraceStreamError`].
pub fn collect_trace(source: &mut dyn TraceSource) -> Result<Trace, TraceStreamError> {
    let mut trace = Trace::new(source.meta().clone());
    while let Some(chunk) = source.next_chunk()? {
        trace.extend(chunk.accesses.iter().copied());
    }
    Ok(trace)
}

/// Largest legal `chunk_len` of the chunk-framed codec (4 Mi accesses,
/// a ~60 MB frame). Writers refuse to exceed it and readers reject headers
/// that claim more, bounding the allocation a crafted or vandalized header
/// can make a reader perform before any payload byte is verified.
pub const MAX_CHUNK_LEN: usize = 1 << 22;

/// Byte length of the chunk-framed payload's trace header.
fn payload_header_len(name_len: usize) -> usize {
    4 + 2 + name_len + 2 + 8 + 8 + 8 + 4
}

/// Number of frames a trace of `total` accesses splits into.
fn chunk_count(total: u64, chunk_len: usize) -> u64 {
    if total == 0 {
        0
    } else {
        total.div_ceil(chunk_len as u64)
    }
}

/// Exact payload length of the chunk-framed encoding — computable up front
/// because records are fixed width, which is what lets the streaming writer
/// emit a complete sealed-blob header before the first chunk exists.
///
/// All arithmetic is checked: the reader feeds this *untrusted* header
/// fields, and a vandalized `total` must produce a clean `None` (reported
/// as corruption), never an overflow panic — the same rule
/// [`blob::open_any`] applies to its length field.
fn chunked_payload_len(name_len: usize, total: u64, chunk_len: usize) -> Option<u64> {
    let frames = chunk_count(total, chunk_len).checked_mul(4 + 8)?;
    let records = total.checked_mul(ACCESS_RECORD_BYTES as u64)?;
    (payload_header_len(name_len) as u64)
        .checked_add(frames)?
        .checked_add(records)
}

/// Streaming encoder of the chunk-framed codec: writes a complete sealed
/// blob (envelope + payload + trailing checksum) to `sink` without ever
/// holding more than one chunk of records.
///
/// Feed accesses in trace order through [`ChunkedTraceWriter::push`] (any
/// slicing — the writer reframes internally), then call
/// [`ChunkedTraceWriter::finish`]. The writer enforces that exactly the
/// declared number of accesses flows through.
///
/// The sink must seek: the v3 codec's payload length is data-dependent, so
/// its envelope header is patched at finish time ([`io::Cursor`] for
/// in-memory sinks, `BufWriter<File>` on disk — both seek).
#[derive(Debug)]
pub struct ChunkedTraceWriter<W: Write + Seek> {
    sink: W,
    codec: TraceCodec,
    /// Stream position of the envelope header, for the v3 finish-time
    /// payload-length patch.
    header_start: u64,
    /// Payload bytes emitted so far (excludes envelope and trailing
    /// checksum).
    payload_bytes: u64,
    /// Running whole-payload checksum (identical to what [`blob::seal`]
    /// would record over the same payload bytes).
    payload_fp: Fingerprinter,
    chunk_len: usize,
    total: u64,
    written: u64,
    pending: Vec<MemAccess>,
    scratch: Vec<u8>,
}

impl<W: Write + Seek> ChunkedTraceWriter<W> {
    /// Starts a sealed chunk-framed **v2** stream (see
    /// [`ChunkedTraceWriter::with_codec`]). Kept as the row-codec
    /// constructor because v2's byte layout is pinned by compatibility
    /// tests and cross-build cache interchange.
    ///
    /// # Errors
    ///
    /// See [`ChunkedTraceWriter::with_codec`].
    pub fn new(
        sink: W,
        key: Fingerprint,
        meta: &TraceMeta,
        total_accesses: u64,
        chunk_len: usize,
    ) -> io::Result<Self> {
        Self::with_codec(sink, key, meta, total_accesses, chunk_len, TraceCodec::V2)
    }

    /// Starts a sealed chunk-framed stream under the given payload codec
    /// for a trace of exactly `total_accesses` accesses, writing the
    /// envelope and trace header immediately. For [`TraceCodec::V3`] the
    /// envelope's payload length is a placeholder until
    /// [`ChunkedTraceWriter::finish`] patches it.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error, or `InvalidInput` for a `chunk_len`
    /// outside `1..=MAX_CHUNK_LEN`, an over-long workload name, or a trace
    /// whose encoded size would overflow the length arithmetic.
    ///
    /// # Panics
    ///
    /// Never panics.
    pub fn with_codec(
        mut sink: W,
        key: Fingerprint,
        meta: &TraceMeta,
        total_accesses: u64,
        chunk_len: usize,
        codec: TraceCodec,
    ) -> io::Result<Self> {
        if chunk_len == 0 || chunk_len > MAX_CHUNK_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("chunk_len must be in 1..={MAX_CHUNK_LEN}"),
            ));
        }
        if meta.workload.len() > u16::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "workload name longer than a u16 length prefix",
            ));
        }
        // v2 stamps the exact payload length up front; v3 cannot know it
        // yet, but still refuses totals whose *decoded* size overflows the
        // length arithmetic, so both codecs reject the same degenerate
        // inputs.
        let payload_len = chunked_payload_len(meta.workload.len(), total_accesses, chunk_len)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "trace too large for the chunk-framed length arithmetic",
                )
            })?;
        let header_start = sink.stream_position()?;
        let stamped_len = match codec {
            TraceCodec::V2 => payload_len,
            TraceCodec::V3 => 0,
        };
        sink.write_all(&blob::encode_header(codec.version(), key, stamped_len))?;
        let mut writer = ChunkedTraceWriter {
            sink,
            codec,
            header_start,
            payload_bytes: 0,
            payload_fp: Fingerprinter::new(),
            chunk_len,
            total: total_accesses,
            written: 0,
            pending: Vec::new(),
            scratch: Vec::new(),
        };
        let mut header = Vec::with_capacity(payload_header_len(meta.workload.len()));
        header.extend_from_slice(&CHUNKED_MAGIC.to_be_bytes());
        header.extend_from_slice(&(meta.workload.len() as u16).to_be_bytes());
        header.extend_from_slice(meta.workload.as_bytes());
        header.extend_from_slice(&(meta.cores as u16).to_be_bytes());
        header.extend_from_slice(&meta.seed.to_be_bytes());
        header.extend_from_slice(&meta.footprint_lines.to_be_bytes());
        header.extend_from_slice(&total_accesses.to_be_bytes());
        header.extend_from_slice(&(chunk_len as u32).to_be_bytes());
        writer.emit(&header)?;
        Ok(writer)
    }

    /// Writes payload bytes, folding them into the running checksum and the
    /// running payload length.
    fn emit(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.payload_fp.write_bytes(bytes);
        self.payload_bytes += bytes.len() as u64;
        self.sink.write_all(bytes)
    }

    /// Appends accesses (any slicing; the writer frames them into
    /// `chunk_len`-sized chunks itself).
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error, or `InvalidInput` when more accesses
    /// than declared are pushed.
    pub fn push(&mut self, accesses: &[MemAccess]) -> io::Result<()> {
        let mut rest = accesses;
        if !self.pending.is_empty() {
            let need = self.chunk_len - self.pending.len();
            let take = need.min(rest.len());
            self.pending.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.pending.len() == self.chunk_len {
                let frame = std::mem::take(&mut self.pending);
                self.write_frame(&frame)?;
                self.pending = frame;
                self.pending.clear();
            }
        }
        while rest.len() >= self.chunk_len {
            let (frame, tail) = rest.split_at(self.chunk_len);
            self.write_frame(frame)?;
            rest = tail;
        }
        self.pending.extend_from_slice(rest);
        Ok(())
    }

    fn write_frame(&mut self, accesses: &[MemAccess]) -> io::Result<()> {
        let written = self.written + accesses.len() as u64;
        if written > self.total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "more accesses pushed than declared",
            ));
        }
        self.written = written;
        self.scratch.clear();
        match self.codec {
            TraceCodec::V2 => {
                self.scratch
                    .reserve(accesses.len() * ACCESS_RECORD_BYTES + V2_FRAME_HEADER);
                self.scratch
                    .extend_from_slice(&(accesses.len() as u32).to_be_bytes());
                self.scratch.extend_from_slice(&[0u8; 8]); // checksum placeholder
                for a in accesses {
                    put_access(&mut self.scratch, a);
                }
                // The frame checksum covers only the record bytes.
                let mut fp = Fingerprinter::new();
                fp.write_bytes(&self.scratch[V2_FRAME_HEADER..]);
                let checksum = chunk_checksum(&fp).to_be_bytes();
                self.scratch[4..V2_FRAME_HEADER].copy_from_slice(&checksum);
            }
            TraceCodec::V3 => {
                self.scratch
                    .extend_from_slice(&(accesses.len() as u32).to_be_bytes());
                self.scratch.extend_from_slice(&[0u8; 4]); // compressed-length placeholder
                self.scratch.extend_from_slice(&[0u8; 8]); // checksum placeholder
                columnar::encode_columns(accesses, &mut self.scratch);
                let comp_len = (self.scratch.len() - V3_FRAME_HEADER) as u32;
                self.scratch[4..8].copy_from_slice(&comp_len.to_be_bytes());
                // The frame checksum covers the compressed column bytes, so
                // a flipped bit anywhere inside a column fails the frame
                // before decompression is even attempted.
                let mut fp = Fingerprinter::new();
                fp.write_bytes(&self.scratch[V3_FRAME_HEADER..]);
                let checksum = chunk_checksum(&fp).to_be_bytes();
                self.scratch[8..V3_FRAME_HEADER].copy_from_slice(&checksum);
            }
        }
        let frame = std::mem::take(&mut self.scratch);
        let result = self.emit(&frame);
        self.scratch = frame;
        result
    }

    /// Flushes the final partial chunk and the trailing checksum (patching
    /// the envelope's payload length under v3), returning the sink.
    ///
    /// # Errors
    ///
    /// Returns the sink's I/O error, or `InvalidInput` when fewer accesses
    /// than declared were pushed.
    pub fn finish(mut self) -> io::Result<W> {
        if !self.pending.is_empty() {
            let frame = std::mem::take(&mut self.pending);
            self.write_frame(&frame)?;
        }
        if self.written != self.total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "declared {} accesses but {} were pushed",
                    self.total, self.written
                ),
            ));
        }
        let checksum = payload_checksum(&self.payload_fp);
        self.sink.write_all(&checksum.to_le_bytes())?;
        if self.codec == TraceCodec::V3 {
            // Compressed payload lengths are only known now: patch the
            // envelope's payload-length field in place, then restore the
            // position so the sink ends at end-of-blob like v2.
            let end = self.sink.stream_position()?;
            self.sink.seek(SeekFrom::Start(
                self.header_start + blob::PAYLOAD_LEN_OFFSET as u64,
            ))?;
            self.sink.write_all(&self.payload_bytes.to_le_bytes())?;
            self.sink.seek(SeekFrom::Start(end))?;
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Frame header size of a v2 frame: record count + frame checksum.
const V2_FRAME_HEADER: usize = 4 + 8;

/// Frame header size of a v3 frame: record count + compressed length +
/// frame checksum.
const V3_FRAME_HEADER: usize = 4 + 4 + 8;

/// The frame checksum: the low 64 bits of FNV-1a-128 over the frame's
/// record bytes — deliberately the *same* fold the blob envelope records
/// for whole payloads, so the two can never diverge.
fn chunk_checksum(fp: &Fingerprinter) -> u64 {
    blob::checksum_finish(fp)
}

/// The sealed blob's trailing whole-payload checksum, folded incrementally.
fn payload_checksum(fp: &Fingerprinter) -> u64 {
    blob::checksum_finish(fp)
}

/// Streaming decoder of the chunk-framed codec: verifies the envelope
/// header eagerly, then hands out one verified chunk at a time. Memory use
/// is one chunk, regardless of trace length.
///
/// Integrity is end-to-end: each frame's checksum is verified before its
/// accesses are yielded, and after the last chunk the trailing
/// whole-payload checksum and the absence of trailing bytes are verified
/// before the final `Ok(None)`.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    /// Payload codec the envelope declared; frames are read and decoded
    /// accordingly.
    codec: TraceCodec,
    meta: TraceMeta,
    total: u64,
    chunk_len: usize,
    read_accesses: u64,
    chunk_index: u64,
    payload_fp: Fingerprinter,
    payload_remaining: u64,
    accesses: Vec<MemAccess>,
    byte_buf: Vec<u8>,
    finished: bool,
    /// First error returned, if any. A failed reader is poisoned: the
    /// stream position is indeterminate after an error, so every later
    /// call returns the same error instead of misreading frames.
    failed: Option<TraceStreamError>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a sealed chunk-framed stream, verifying the blob header (magic,
    /// envelope version, codec version, key) and decoding the trace header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceStreamError`] for I/O failures, an unusable envelope
    /// (including a non-chunked codec version and a key mismatch) or a
    /// malformed trace header.
    pub fn new(mut src: R, expected_key: Fingerprint) -> Result<Self, TraceStreamError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_or_truncated(&mut src, &mut header, "header")?;
        let blob_header = blob::parse_header(&header)?;
        let Some(codec) = TraceCodec::from_version(blob_header.codec_version) else {
            return Err(BlobError::CodecVersionMismatch {
                found: blob_header.codec_version,
                expected: TRACE_CHUNKED_CODEC_VERSION,
            }
            .into());
        };
        if blob_header.key != expected_key {
            return Err(BlobError::KeyMismatch.into());
        }
        let mut reader = TraceReader {
            src,
            codec,
            meta: TraceMeta::default(),
            total: 0,
            chunk_len: 0,
            read_accesses: 0,
            chunk_index: 0,
            payload_fp: Fingerprinter::new(),
            payload_remaining: blob_header.payload_len,
            accesses: Vec::new(),
            byte_buf: Vec::new(),
            finished: false,
            failed: None,
        };
        reader.read_trace_header()?;
        // Untrusted header fields: reject framings a well-formed writer can
        // never produce (zero or oversized chunk length) before any sizing
        // arithmetic, bounding what a crafted header can make us allocate.
        if (reader.chunk_len == 0 && reader.total > 0) || reader.chunk_len > MAX_CHUNK_LEN {
            return Err(DecodeTraceError::BadChunkFraming { chunk: 0 }.into());
        }
        match codec {
            // v2's payload length is implied exactly by the header fields;
            // any mismatch (or an overflowing implied length) is a
            // vandalized length field.
            TraceCodec::V2 => {
                let expected = chunked_payload_len(
                    reader.meta.workload.len(),
                    reader.total,
                    reader.chunk_len.max(1),
                );
                if expected != Some(blob_header.payload_len) {
                    return Err(BlobError::Truncated { what: "payload" }.into());
                }
            }
            // v3 payload lengths are data-dependent, but a well-formed
            // stream can never be shorter than its frame headers alone —
            // so a vandalized total still fails closed here, before any
            // frame-sized allocation.
            TraceCodec::V3 => {
                let min = chunk_count(reader.total, reader.chunk_len.max(1))
                    .checked_mul(V3_FRAME_HEADER as u64)
                    .and_then(|frames| {
                        (payload_header_len(reader.meta.workload.len()) as u64).checked_add(frames)
                    });
                match min {
                    Some(min) if blob_header.payload_len >= min => {}
                    _ => return Err(BlobError::Truncated { what: "payload" }.into()),
                }
            }
        }
        Ok(reader)
    }

    fn read_trace_header(&mut self) -> Result<(), TraceStreamError> {
        let mut fixed = [0u8; 4 + 2];
        self.read_payload(&mut fixed, "trace magic")?;
        if u32::from_be_bytes(fixed[0..4].try_into().expect("4 bytes")) != CHUNKED_MAGIC {
            return Err(DecodeTraceError::BadMagic.into());
        }
        let name_len = u16::from_be_bytes(fixed[4..6].try_into().expect("2 bytes")) as usize;
        let mut name = vec![0u8; name_len];
        self.read_payload(&mut name, "workload name")?;
        let workload = String::from_utf8(name).map_err(|_| DecodeTraceError::InvalidName)?;
        let mut tail = [0u8; 2 + 8 + 8 + 8 + 4];
        self.read_payload(&mut tail, "trace header")?;
        self.meta = TraceMeta {
            workload,
            cores: u16::from_be_bytes(tail[0..2].try_into().expect("2 bytes")) as usize,
            seed: u64::from_be_bytes(tail[2..10].try_into().expect("8 bytes")),
            footprint_lines: u64::from_be_bytes(tail[10..18].try_into().expect("8 bytes")),
        };
        self.total = u64::from_be_bytes(tail[18..26].try_into().expect("8 bytes"));
        self.chunk_len = u32::from_be_bytes(tail[26..30].try_into().expect("4 bytes")) as usize;
        Ok(())
    }

    /// Reads exactly `buf.len()` payload bytes, folding them into the
    /// running whole-payload checksum and the remaining-payload budget.
    fn read_payload(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), TraceStreamError> {
        if (buf.len() as u64) > self.payload_remaining {
            return Err(BlobError::Truncated { what }.into());
        }
        read_exact_or_truncated(&mut self.src, buf, what)?;
        self.payload_remaining -= buf.len() as u64;
        self.payload_fp.write_bytes(buf);
        Ok(())
    }

    /// Metadata decoded from the stream header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Total accesses the stream declares.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Verifies the trailing whole-payload checksum and end-of-file after
    /// the last chunk.
    fn finalize(&mut self) -> Result<(), TraceStreamError> {
        if self.payload_remaining != 0 {
            return Err(BlobError::TrailingData.into());
        }
        let mut recorded = [0u8; CHECKSUM_LEN];
        read_exact_or_truncated(&mut self.src, &mut recorded, "checksum")?;
        if u64::from_le_bytes(recorded) != payload_checksum(&self.payload_fp) {
            return Err(BlobError::ChecksumMismatch.into());
        }
        let mut probe = [0u8; 1];
        match self.src.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(BlobError::TrailingData.into()),
            Err(err) => Err(err.into()),
        }
    }

    /// Reads, verifies and decodes the next frame into `self.accesses`,
    /// returning the trace index of its first access, or `None` once the
    /// stream is exhausted and its trailing checksum verified. The first
    /// error is remembered and returned again by every later call.
    fn next_frame(&mut self) -> Result<Option<u64>, TraceStreamError> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        let result = self.read_frame();
        if let Err(err) = &result {
            self.failed = Some(err.clone());
        }
        result
    }

    fn read_frame(&mut self) -> Result<Option<u64>, TraceStreamError> {
        if self.finished {
            return Ok(None);
        }
        if self.read_accesses == self.total {
            self.finalize()?;
            self.finished = true;
            return Ok(None);
        }
        let expected = (self.total - self.read_accesses).min(self.chunk_len as u64);
        let (count, payload_len, recorded) = match self.codec {
            TraceCodec::V2 => {
                let mut frame = [0u8; V2_FRAME_HEADER];
                self.read_payload(&mut frame, "chunk frame")?;
                let count = u32::from_be_bytes(frame[0..4].try_into().expect("4 bytes")) as u64;
                let recorded = u64::from_be_bytes(frame[4..12].try_into().expect("8 bytes"));
                if count != expected {
                    return Err(DecodeTraceError::BadChunkFraming {
                        chunk: self.chunk_index,
                    }
                    .into());
                }
                (count, count as usize * ACCESS_RECORD_BYTES, recorded)
            }
            TraceCodec::V3 => {
                let mut frame = [0u8; V3_FRAME_HEADER];
                self.read_payload(&mut frame, "chunk frame")?;
                let count = u32::from_be_bytes(frame[0..4].try_into().expect("4 bytes")) as u64;
                let comp_len =
                    u32::from_be_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;
                let recorded = u64::from_be_bytes(frame[8..16].try_into().expect("8 bytes"));
                // The compressed length is untrusted: bound it by the
                // worst-case column encoding of `expected` records before
                // allocating, mirroring how v2's count is bounded.
                if count != expected
                    || comp_len > expected as usize * columnar::MAX_ENCODED_RECORD_BYTES
                {
                    return Err(DecodeTraceError::BadChunkFraming {
                        chunk: self.chunk_index,
                    }
                    .into());
                }
                (count, comp_len, recorded)
            }
        };
        let mut bytes = std::mem::take(&mut self.byte_buf);
        bytes.clear();
        bytes.resize(payload_len, 0);
        let read = self.read_payload(&mut bytes, "chunk records");
        self.byte_buf = bytes;
        read?;
        // The frame checksum is verified before a single record is parsed.
        let mut fp = Fingerprinter::new();
        fp.write_bytes(&self.byte_buf);
        if chunk_checksum(&fp) != recorded {
            return Err(DecodeTraceError::ChunkChecksumMismatch {
                chunk: self.chunk_index,
            }
            .into());
        }
        match self.codec {
            TraceCodec::V2 => {
                self.accesses.clear();
                self.accesses.reserve(count as usize);
                let mut records: &[u8] = &self.byte_buf;
                for _ in 0..count {
                    self.accesses.push(parse_access(&mut records)?);
                }
            }
            TraceCodec::V3 => columnar::decode_columns(
                &self.byte_buf,
                count as usize,
                self.chunk_index,
                &mut self.accesses,
            )?,
        }
        let first_index = self.read_accesses;
        self.read_accesses += count;
        self.chunk_index += 1;
        Ok(Some(first_index))
    }
}

impl<R: Read> TraceSource for TraceReader<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn total_accesses(&self) -> u64 {
        self.total
    }

    fn next_chunk(&mut self) -> Result<Option<AccessChunk<'_>>, TraceStreamError> {
        Ok(self.next_frame()?.map(|first_index| AccessChunk {
            accesses: &self.accesses,
            first_index,
        }))
    }
}

/// Reads exactly `buf.len()` bytes, mapping a premature end of stream to a
/// [`BlobError::Truncated`] naming `what`.
fn read_exact_or_truncated(
    src: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), TraceStreamError> {
    src.read_exact(buf).map_err(|err| {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            BlobError::Truncated { what }.into()
        } else {
            err.into()
        }
    })
}

/// Seals a materialized trace with the chunk-framed **v2** row codec (the
/// in-memory convenience over [`ChunkedTraceWriter`]; the disk tier streams
/// instead). Stays pinned to v2 because its byte layout is what
/// compatibility tests and older-build cache files rely on; use
/// [`encode_chunked_with`] to pick the codec.
pub fn encode_chunked(trace: &Trace, key: Fingerprint, chunk_len: usize) -> Vec<u8> {
    encode_chunked_with(trace, key, chunk_len, TraceCodec::V2)
}

/// Seals a materialized trace with the chunk-framed codec of choice (the
/// in-memory convenience over [`ChunkedTraceWriter::with_codec`]).
pub fn encode_chunked_with(
    trace: &Trace,
    key: Fingerprint,
    chunk_len: usize,
    codec: TraceCodec,
) -> Vec<u8> {
    let mut writer = ChunkedTraceWriter::with_codec(
        io::Cursor::new(Vec::new()),
        key,
        trace.meta(),
        trace.len() as u64,
        chunk_len,
        codec,
    )
    .expect("in-memory sink cannot fail");
    writer
        .push(trace.accesses())
        .expect("in-memory sink cannot fail");
    writer
        .finish()
        .expect("declared count matches")
        .into_inner()
}

/// Opens and fully decodes a sealed chunk-framed trace (the in-memory
/// convenience over [`TraceReader`]).
///
/// # Errors
///
/// See [`TraceReader::new`] and [`TraceSource::next_chunk`].
pub fn decode_chunked(data: &[u8], key: Fingerprint) -> Result<Trace, TraceStreamError> {
    let mut reader = TraceReader::new(io::Cursor::new(data), key)?;
    collect_trace(&mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, CoreId, LineAddr};
    use proptest::prelude::*;

    fn key() -> Fingerprint {
        Fingerprint::from_raw(0xabc0_1234_5678_9def)
    }

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
        while let Some(chunk) = source.next_chunk().unwrap() {
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
        let sealed = encode_chunked(&t, key(), 16);
        assert_eq!(decode_chunked(&sealed, key()).unwrap(), t);
        let mut source = t.chunks(16);
        assert!(source.next_chunk().unwrap().is_none());
    }

    #[test]
    fn collect_trace_rebuilds_the_original() {
        let t = sample_trace(1000);
        let back = collect_trace(&mut t.chunks(100)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn writer_reframes_arbitrary_push_slicings() {
        let t = sample_trace(500);
        let reference = encode_chunked(&t, key(), 128);
        // Push in awkward slices: 1, then 200, then the rest one by one.
        let mut writer = ChunkedTraceWriter::new(
            io::Cursor::new(Vec::new()),
            key(),
            t.meta(),
            t.len() as u64,
            128,
        )
        .unwrap();
        let all = t.accesses();
        writer.push(&all[..1]).unwrap();
        writer.push(&all[1..201]).unwrap();
        for a in &all[201..] {
            writer.push(std::slice::from_ref(a)).unwrap();
        }
        let sealed = writer.finish().unwrap().into_inner();
        assert_eq!(sealed, reference, "framing is independent of push slicing");
    }

    #[test]
    fn writer_enforces_the_declared_count() {
        let t = sample_trace(10);
        for codec in [TraceCodec::V2, TraceCodec::V3] {
            let sink = || io::Cursor::new(Vec::new());
            let mut writer =
                ChunkedTraceWriter::with_codec(sink(), key(), t.meta(), 11, 4, codec).unwrap();
            writer.push(t.accesses()).unwrap();
            assert!(writer.finish().is_err(), "one access short ({codec})");

            let mut writer =
                ChunkedTraceWriter::with_codec(sink(), key(), t.meta(), 9, 5, codec).unwrap();
            assert!(writer.push(t.accesses()).is_err(), "one access over");
            assert!(ChunkedTraceWriter::with_codec(sink(), key(), t.meta(), 10, 0, codec).is_err());
        }
    }

    #[test]
    fn reader_rejects_wrong_key_and_wrong_codec() {
        let t = sample_trace(50);
        let sealed = encode_chunked(&t, key(), 16);
        match decode_chunked(&sealed, Fingerprint::from_raw(1)) {
            Err(TraceStreamError::Envelope(BlobError::KeyMismatch)) => {}
            other => panic!("expected key mismatch, got {other:?}"),
        }
        // A whole-trace (v1) sealed blob is refused by codec version.
        let v1 = blob::seal(crate::trace::TRACE_CODEC_VERSION, key(), &t.encode());
        match decode_chunked(&v1, key()) {
            Err(TraceStreamError::Envelope(BlobError::CodecVersionMismatch {
                found: 1,
                expected: TRACE_CHUNKED_CODEC_VERSION,
            })) => {}
            other => panic!("expected codec mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_chunks_are_detected_before_their_accesses_are_yielded() {
        let t = sample_trace(300);
        let sealed = encode_chunked(&t, key(), 64);
        // Flip one record byte in the middle of the payload (third chunk).
        let mut bad = sealed.clone();
        let offset = HEADER_LEN + payload_header_len("stream-unit".len()) + 2 * (12 + 64 * 15) + 40;
        bad[offset] ^= 0x01;
        let mut reader = TraceReader::new(io::Cursor::new(&bad), key()).unwrap();
        let mut yielded = 0u64;
        let err = loop {
            match reader.next_chunk() {
                Ok(Some(chunk)) => yielded += chunk.accesses.len() as u64,
                Ok(None) => panic!("corruption must surface"),
                Err(err) => break err,
            }
        };
        assert_eq!(yielded, 128, "only the intact chunks were yielded");
        assert!(
            matches!(
                err,
                TraceStreamError::Trace(DecodeTraceError::ChunkChecksumMismatch { chunk: 2 })
            ),
            "{err:?}"
        );
        // The error is sticky: the stream position is indeterminate, so a
        // second call repeats it instead of reading on.
        assert_eq!(reader.next_chunk().unwrap_err(), err);
    }

    #[test]
    fn truncated_and_padded_streams_fail_closed() {
        let t = sample_trace(100);
        let sealed = encode_chunked(&t, key(), 32);
        // Truncation anywhere fails with a Truncated error.
        for cut in [
            HEADER_LEN - 1,
            HEADER_LEN + 5,
            sealed.len() - 9,
            sealed.len() - 1,
        ] {
            let result = TraceReader::new(io::Cursor::new(&sealed[..cut]), key())
                .and_then(|mut reader| collect_trace(&mut reader));
            assert!(
                matches!(
                    result,
                    Err(TraceStreamError::Envelope(BlobError::Truncated { .. }))
                ),
                "cut at {cut}: {result:?}"
            );
        }
        // Appended bytes are trailing data.
        let mut long = sealed.clone();
        long.push(0);
        let result = TraceReader::new(io::Cursor::new(&long), key())
            .and_then(|mut reader| collect_trace(&mut reader));
        assert!(
            matches!(
                result,
                Err(TraceStreamError::Envelope(BlobError::TrailingData))
            ),
            "{result:?}"
        );
        // A cut inside the last frame yields every intact frame first.
        let t = sample_trace(200);
        let sealed = encode_chunked(&t, key(), 64);
        let cut = sealed.len() - 20;
        let mut reader = TraceReader::new(io::Cursor::new(&sealed[..cut]), key()).unwrap();
        let mut yielded = 0u64;
        let err = loop {
            match reader.next_chunk() {
                Ok(Some(chunk)) => yielded += chunk.accesses.len() as u64,
                Ok(None) => panic!("truncation must surface"),
                Err(err) => break err,
            }
        };
        assert_eq!(yielded, 192, "three intact chunks, then the error");
        assert!(matches!(err, TraceStreamError::Envelope(_)), "{err:?}");
    }

    #[test]
    fn vandalized_header_fields_fail_cleanly_not_by_overflow_or_allocation() {
        let t = sample_trace(100);
        let sealed = encode_chunked(&t, key(), 32);
        // Offsets inside the payload's trace header ("stream-unit" = 11).
        let total_at = HEADER_LEN + 4 + 2 + 11 + 2 + 8 + 8;
        let chunk_len_at = total_at + 8;

        // A total near u64::MAX must not overflow the payload-length
        // arithmetic (debug builds panic on overflow) — clean error.
        let mut bad = sealed.clone();
        bad[total_at..total_at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        let result = TraceReader::new(io::Cursor::new(&bad), key());
        assert!(
            matches!(
                result,
                Err(TraceStreamError::Envelope(BlobError::Truncated { .. }))
            ),
            "{result:?}"
        );

        // A chunk_len beyond MAX_CHUNK_LEN is rejected before any sizing
        // arithmetic or allocation.
        let mut bad = sealed.clone();
        bad[chunk_len_at..chunk_len_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let result = TraceReader::new(io::Cursor::new(&bad), key());
        assert!(
            matches!(
                result,
                Err(TraceStreamError::Trace(DecodeTraceError::BadChunkFraming {
                    chunk: 0
                }))
            ),
            "{result:?}"
        );

        // And the writer refuses to produce such framings in the first
        // place, under either codec.
        for codec in [TraceCodec::V2, TraceCodec::V3] {
            let sink = || io::Cursor::new(Vec::new());
            assert!(ChunkedTraceWriter::with_codec(
                sink(),
                key(),
                t.meta(),
                10,
                MAX_CHUNK_LEN + 1,
                codec
            )
            .is_err());
            assert!(ChunkedTraceWriter::with_codec(
                sink(),
                key(),
                t.meta(),
                u64::MAX,
                MAX_CHUNK_LEN,
                codec
            )
            .is_err());
        }
    }

    #[test]
    fn v3_round_trips_shrinks_and_reads_with_no_flag() {
        let t = sample_trace(5000);
        let v2 = encode_chunked_with(&t, key(), 256, TraceCodec::V2);
        let v3 = encode_chunked_with(&t, key(), 256, TraceCodec::V3);
        // The reader dispatches on the envelope version: both decode with
        // the same call, no flag, to the same trace.
        assert_eq!(decode_chunked(&v2, key()).unwrap(), t);
        assert_eq!(decode_chunked(&v3, key()).unwrap(), t);
        assert!(
            v3.len() * 2 <= v2.len(),
            "columnar codec must at least halve this trace: v2={} v3={}",
            v2.len(),
            v3.len()
        );
        // The patched envelope payload length is the real payload length.
        let header = blob::parse_header(&v3).unwrap();
        assert_eq!(
            header.payload_len as usize,
            v3.len() - HEADER_LEN - CHECKSUM_LEN
        );
        assert_eq!(header.codec_version, TRACE_COLUMNAR_CODEC_VERSION);
    }

    #[test]
    fn v3_writer_reframes_arbitrary_push_slicings() {
        let t = sample_trace(500);
        let reference = encode_chunked_with(&t, key(), 128, TraceCodec::V3);
        let mut writer = ChunkedTraceWriter::with_codec(
            io::Cursor::new(Vec::new()),
            key(),
            t.meta(),
            t.len() as u64,
            128,
            TraceCodec::V3,
        )
        .unwrap();
        let all = t.accesses();
        writer.push(&all[..7]).unwrap();
        writer.push(&all[7..300]).unwrap();
        for a in &all[300..] {
            writer.push(std::slice::from_ref(a)).unwrap();
        }
        let sealed = writer.finish().unwrap().into_inner();
        assert_eq!(sealed, reference, "framing is independent of push slicing");
    }

    #[test]
    fn v3_empty_trace_round_trips() {
        let t = Trace::new(TraceMeta {
            workload: "empty".into(),
            ..Default::default()
        });
        let sealed = encode_chunked_with(&t, key(), 16, TraceCodec::V3);
        assert_eq!(decode_chunked(&sealed, key()).unwrap(), t);
    }

    #[test]
    fn unknown_codec_versions_are_rejected() {
        let t = sample_trace(20);
        let future = blob::seal(9, key(), &t.encode());
        match decode_chunked(&future, key()) {
            Err(TraceStreamError::Envelope(BlobError::CodecVersionMismatch {
                found: 9,
                expected: TRACE_CHUNKED_CODEC_VERSION,
            })) => {}
            other => panic!("expected codec mismatch, got {other:?}"),
        }
    }

    #[test]
    fn v3_corrupt_compressed_column_fails_the_frame_checksum_in_order() {
        let t = sample_trace(300);
        let sealed = encode_chunked_with(&t, key(), 64, TraceCodec::V3);
        // Walk the variable-length frames to the third one and flip a byte
        // in the middle of its compressed column block.
        let mut at = HEADER_LEN + payload_header_len("stream-unit".len());
        for _ in 0..2 {
            let comp_len = u32::from_be_bytes(sealed[at + 4..at + 8].try_into().unwrap()) as usize;
            at += V3_FRAME_HEADER + comp_len;
        }
        let comp_len = u32::from_be_bytes(sealed[at + 4..at + 8].try_into().unwrap()) as usize;
        let mut bad = sealed.clone();
        bad[at + V3_FRAME_HEADER + comp_len / 2] ^= 0x01;
        let mut reader = TraceReader::new(io::Cursor::new(&bad), key()).unwrap();
        let mut yielded = 0u64;
        let err = loop {
            match reader.next_chunk() {
                Ok(Some(chunk)) => yielded += chunk.accesses.len() as u64,
                Ok(None) => panic!("corruption must surface"),
                Err(err) => break err,
            }
        };
        assert_eq!(yielded, 128, "only the intact chunks were yielded");
        assert!(
            matches!(
                err,
                TraceStreamError::Trace(DecodeTraceError::ChunkChecksumMismatch { chunk: 2 })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn v3_truncated_and_padded_streams_fail_closed() {
        let t = sample_trace(100);
        let sealed = encode_chunked_with(&t, key(), 32, TraceCodec::V3);
        for cut in [
            HEADER_LEN - 1,
            HEADER_LEN + 5,
            sealed.len() - 9,
            sealed.len() - 1,
        ] {
            let result = TraceReader::new(io::Cursor::new(&sealed[..cut]), key())
                .and_then(|mut reader| collect_trace(&mut reader));
            assert!(
                matches!(
                    result,
                    Err(TraceStreamError::Envelope(BlobError::Truncated { .. }))
                ),
                "cut at {cut}: {result:?}"
            );
        }
        let mut long = sealed.clone();
        long.push(0);
        let result = TraceReader::new(io::Cursor::new(&long), key())
            .and_then(|mut reader| collect_trace(&mut reader));
        assert!(
            matches!(
                result,
                Err(TraceStreamError::Envelope(BlobError::TrailingData))
            ),
            "{result:?}"
        );
    }

    #[test]
    fn v3_vandalized_frame_length_fails_before_allocation() {
        let t = sample_trace(100);
        let sealed = encode_chunked_with(&t, key(), 32, TraceCodec::V3);
        // Blow up the first frame's compressed length beyond the worst-case
        // bound: rejected as framing corruption, not attempted as a
        // gigantic read.
        let frame_at = HEADER_LEN + payload_header_len("stream-unit".len());
        let mut bad = sealed.clone();
        bad[frame_at + 4..frame_at + 8].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut reader = TraceReader::new(io::Cursor::new(&bad), key()).unwrap();
        let result = reader.next_chunk();
        assert!(
            matches!(
                result,
                Err(TraceStreamError::Trace(DecodeTraceError::BadChunkFraming {
                    chunk: 0
                }))
            ),
            "{result:?}"
        );
        // A vandalized total fails the minimum-length check cleanly.
        let total_at = HEADER_LEN + 4 + 2 + 11 + 2 + 8 + 8;
        let mut bad = sealed.clone();
        bad[total_at..total_at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        let result = TraceReader::new(io::Cursor::new(&bad), key());
        assert!(
            matches!(
                result,
                Err(TraceStreamError::Envelope(BlobError::Truncated { .. }))
            ),
            "{result:?}"
        );
    }

    #[test]
    fn errors_render_their_cause() {
        let io: TraceStreamError = io::Error::other("disk gone").into();
        assert!(io.to_string().contains("disk gone"));
        let env: TraceStreamError = BlobError::ChecksumMismatch.into();
        assert!(env.to_string().contains("checksum"));
        let tr: TraceStreamError = DecodeTraceError::ChunkChecksumMismatch { chunk: 3 }.into();
        assert!(tr.to_string().contains("chunk 3"));
    }

    proptest! {
        /// The chunk-framed codec round-trips any trace at any chunking, and
        /// the decoded trace is byte-for-byte the same as the whole-trace
        /// codec's view of it.
        #[test]
        fn prop_chunked_roundtrip_matches_whole_trace_codec(
            lines in proptest::collection::vec(0u64..1 << 40, 0..300),
            chunk_len in 1usize..70,
            seed in any::<u64>(),
        ) {
            let meta = TraceMeta { workload: "prop".into(), cores: 4, seed, footprint_lines: 7 };
            let mut t = Trace::new(meta);
            for (i, l) in lines.iter().enumerate() {
                let core = CoreId::new((i % 4) as u16);
                let acc = if i % 3 == 0 {
                    MemAccess::write(core, LineAddr::new(*l))
                } else {
                    MemAccess::read(core, LineAddr::new(*l)).with_dependence(i % 5 == 0)
                };
                t.push(acc.with_gap((i % 17) as u32));
            }
            let sealed = encode_chunked(&t, key(), chunk_len);
            let back = decode_chunked(&sealed, key()).unwrap();
            prop_assert_eq!(&back, &t);
            // Cross-codec identity: decoding the chunked stream and decoding
            // the whole-trace codec agree byte for byte on re-encode.
            prop_assert_eq!(back.encode(), Trace::decode(&t.encode()).unwrap().encode());
            // v2 ↔ v3 cross-decode equality: the columnar codec over the
            // same trace and chunking decodes to the identical trace.
            let columnar = encode_chunked_with(&t, key(), chunk_len, TraceCodec::V3);
            prop_assert_eq!(decode_chunked(&columnar, key()).unwrap(), back);
        }

        /// Record-level byte identity: the concatenated record bytes of the
        /// chunked stream equal the record region of `Trace::encode`,
        /// regardless of chunking — the whole-trace codec really is the
        /// single-chunk special case.
        #[test]
        fn prop_record_bytes_identical_across_codecs(
            lines in proptest::collection::vec(0u64..1 << 30, 1..120),
            chunk_len in 1usize..40,
        ) {
            let meta = TraceMeta { workload: "rec".into(), cores: 2, seed: 1, footprint_lines: 1 };
            let mut t = Trace::new(meta);
            for (i, l) in lines.iter().enumerate() {
                t.push(MemAccess::read(CoreId::new((i % 2) as u16), LineAddr::new(*l)));
            }
            // Record region of the whole-trace codec: everything after its
            // fixed header.
            let whole = t.encode();
            let whole_records = &whole[4 + 2 + 3 + 2 + 8 + 8 + 8..];
            // Record region of the chunked codec: strip envelope, trace
            // header, frame headers and trailing checksum.
            let sealed = encode_chunked(&t, key(), chunk_len);
            let mut chunked_records = Vec::new();
            let mut at = HEADER_LEN + payload_header_len(3);
            let mut remaining = t.len();
            while remaining > 0 {
                let n = remaining.min(chunk_len);
                at += 12; // frame count + checksum
                chunked_records.extend_from_slice(&sealed[at..at + n * ACCESS_RECORD_BYTES]);
                at += n * ACCESS_RECORD_BYTES;
                remaining -= n;
            }
            prop_assert_eq!(chunked_records.as_slice(), whole_records);
        }
    }
}
