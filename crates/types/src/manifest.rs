//! The sealed shard-manifest envelope for distributed campaigns.
//!
//! A campaign split across processes (`--shard I/N`) needs each shard to
//! hand its finished job outputs to a later merge stage as a single sealed
//! artifact. This module defines that artifact's *container*: a
//! [`ShardManifest`] carries the configuration fingerprint the shard ran
//! under, its 1-based `index` out of `count` shards, and an ordered list
//! of `(job fingerprint, payload bytes)` entries. The payload bytes are
//! opaque here — the campaign layer stores `JobOutput::encode` blobs — so
//! the envelope stays free of simulator types, exactly like [`crate::blob`].
//!
//! On disk a manifest is the body encoding sealed in the shared
//! [`crate::blob`] envelope under [`MANIFEST_CODEC_VERSION`], keyed by the
//! fingerprint of the manifest's own header (config fingerprint, index,
//! count). A reader cannot predict that key before parsing, so the open
//! path peeks the envelope with [`crate::blob::parse_header`] and then
//! cross-checks the recorded key against the header it decoded — a renamed
//! or spliced file fails closed.
//!
//! # Layout
//!
//! The body layout is versioned through the blob codec field. Only the
//! current version, [`MANIFEST_CODEC_VERSION`] (v4), is read: manifests
//! are regenerable by re-running their shard, so older layouts get no
//! compatibility reader and fail closed with a codec-version mismatch.
//!
//! Entries are packed into *chunks*, each framed by its own length and
//! checksum. [`ShardManifest::scan`] exploits the framing to validate a
//! manifest of any size in bounded memory (one chunk resident at a time)
//! while handing each entry's absolute payload offset to the caller, so a
//! merge can index payloads and read them back on demand instead of
//! materializing every output at once.
//!
//! # Example
//!
//! ```
//! use stms_types::manifest::ShardManifest;
//! use stms_types::Fingerprint;
//!
//! let manifest = ShardManifest {
//!     config: Fingerprint::from_raw(7),
//!     index: 1,
//!     count: 2,
//!     entries: vec![(Fingerprint::from_raw(11), b"output".to_vec())],
//!     timings: Vec::new(),
//! };
//! let sealed = manifest.seal();
//! let back = ShardManifest::open(&sealed).unwrap();
//! assert_eq!(back, manifest);
//! ```

use crate::blob::{self, BlobError};
use crate::fingerprint::{Fingerprint, Fingerprinter};
use std::fmt;
use std::io::Read;

/// Version of the manifest body layout written and read by
/// [`ShardManifest::seal`] / [`ShardManifest::scan`]. Bump when the
/// encoding changes; v2 appended the per-job timing section, v3 added the
/// balance-mode header byte and chunk-framed entries for bounded-memory
/// streaming reads, v4 dropped the balance-mode byte.
pub const MANIFEST_CODEC_VERSION: u16 = 4;

/// Target encoded size of one entry chunk in a manifest. Chunks are
/// packed greedily: an entry larger than the target gets a chunk of its
/// own (entries are never split, so every payload stays contiguous on
/// disk and addressable by one `(offset, len)` pair).
pub const MANIFEST_CHUNK_BYTES: usize = 256 * 1024;

/// Wall-clock phase timings of one job as measured by the shard that ran
/// it, keyed by the same stable job fingerprint as the output entries.
/// Merge folds these into fleet-wide phase histograms — the calibration
/// input for cost-model shard partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardJobTiming {
    /// Stable fingerprint of the job the timing belongs to.
    pub fingerprint: Fingerprint,
    /// Nanoseconds the job spent queued in the pool before starting.
    pub queue_ns: u64,
    /// Nanoseconds the job spent executing (including memo lookups).
    pub run_ns: u64,
}

/// One shard's sealed output slice: which configuration and shard it came
/// from, plus every finished job keyed by its stable fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Fingerprint of the campaign configuration the shard ran under; merge
    /// rejects manifests whose configuration disagrees with its own.
    pub config: Fingerprint,
    /// 1-based shard index.
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
    /// `(job fingerprint, opaque payload)` pairs, in the shard's job order.
    pub entries: Vec<(Fingerprint, Vec<u8>)>,
    /// Per-job phase timings measured on this shard. Independent of
    /// `entries`: a timing may describe a job whose output was deduplicated
    /// away, and an entry may carry no timing (e.g. a pure memo hit).
    pub timings: Vec<ShardJobTiming>,
}

/// One entry surfaced by [`ShardManifest::scan`], with enough position
/// information for the caller to read the payload back later without
/// keeping it in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry<'a> {
    /// Stable fingerprint of the job this output belongs to.
    pub fingerprint: Fingerprint,
    /// Absolute byte offset of the payload within the sealed file.
    pub offset: u64,
    /// The payload bytes (borrowed from the chunk buffer; copy to keep).
    pub payload: &'a [u8],
}

/// Everything [`ShardManifest::scan`] retains after streaming a manifest:
/// the header fields and the (small) timing section, but none of the
/// entry payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestScan {
    /// Fingerprint of the campaign configuration the shard ran under.
    pub config: Fingerprint,
    /// 1-based shard index.
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
    /// Number of entries the scan surfaced.
    pub entry_count: u64,
    /// Per-job phase timings measured on the shard.
    pub timings: Vec<ShardJobTiming>,
}

impl ShardManifest {
    /// The blob key a manifest with this header seals under: the fingerprint
    /// of `(config, index, count)` behind a versioned domain tag.
    pub fn seal_key(config: Fingerprint, index: u32, count: u32) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        fp.write_str("stms-shard-manifest/v1");
        fp.write_u64(config.raw() as u64);
        fp.write_u64((config.raw() >> 64) as u64);
        fp.write_u32(index);
        fp.write_u32(count);
        fp.finish()
    }

    /// The conventional file name of this manifest, e.g.
    /// `shard-1-of-2.stms`.
    pub fn file_name(&self) -> String {
        format!("shard-{}-of-{}.stms", self.index, self.count)
    }

    /// Encodes and seals the manifest into the bytes written to disk
    /// (current layout, [`MANIFEST_CODEC_VERSION`]).
    pub fn seal(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&self.config.raw().to_le_bytes());
        body.extend_from_slice(&self.index.to_le_bytes());
        body.extend_from_slice(&self.count.to_le_bytes());
        body.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        // Pack entries greedily into framed chunks. Chunk boundaries never
        // split an entry, so a chunk holding one oversized payload may
        // exceed the target; that keeps every payload contiguous.
        let mut chunks: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0;
        let mut chunk_bytes = 0usize;
        for (i, (_, payload)) in self.entries.iter().enumerate() {
            let encoded = 24 + payload.len();
            if i > start && chunk_bytes + encoded > MANIFEST_CHUNK_BYTES {
                chunks.push(start..i);
                start = i;
                chunk_bytes = 0;
            }
            chunk_bytes += encoded;
        }
        if start < self.entries.len() {
            chunks.push(start..self.entries.len());
        }
        body.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
        let mut chunk_body = Vec::new();
        for chunk in chunks {
            chunk_body.clear();
            for (fingerprint, payload) in &self.entries[chunk] {
                chunk_body.extend_from_slice(&fingerprint.raw().to_le_bytes());
                chunk_body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                chunk_body.extend_from_slice(payload);
            }
            let mut hasher = Fingerprinter::new();
            hasher.write_bytes(&chunk_body);
            body.extend_from_slice(&(chunk_body.len() as u64).to_le_bytes());
            body.extend_from_slice(&chunk_body);
            body.extend_from_slice(&blob::checksum_finish(&hasher).to_le_bytes());
        }
        encode_timings(&mut body, &self.timings);
        blob::seal(
            MANIFEST_CODEC_VERSION,
            Self::seal_key(self.config, self.index, self.count),
            &body,
        )
    }

    /// Unseals and decodes a manifest previously produced by
    /// [`ShardManifest::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] when the blob envelope fails, the body is
    /// malformed, the shard header is inconsistent (`index` outside
    /// `1..=count`), the recorded blob key disagrees with the decoded header,
    /// or an entry fingerprint repeats within the manifest.
    pub fn open(data: &[u8]) -> Result<Self, ManifestError> {
        let mut entries = Vec::new();
        let scan = Self::scan(data, |entry| {
            entries.push((entry.fingerprint, entry.payload.to_vec()));
        })?;
        Ok(ShardManifest {
            config: scan.config,
            index: scan.index,
            count: scan.count,
            entries,
            timings: scan.timings,
        })
    }

    /// Streams a sealed manifest from `reader`, invoking `on_entry` once per
    /// entry and returning the header and timing section. Unlike the eager
    /// [`ShardManifest::open`], only one chunk buffer is resident at a
    /// time, so a merge over million-job manifests can validate everything
    /// and index payload offsets without materializing any payload set.
    ///
    /// Every validation `open` performs happens here too — envelope, key,
    /// shard coordinates, per-chunk checksums, the whole-payload checksum
    /// (accumulated incrementally), duplicate fingerprints, trailing data.
    ///
    /// # Errors
    ///
    /// Same as [`ShardManifest::open`], plus [`ManifestError::Io`] when the
    /// reader itself fails.
    pub fn scan<R: Read>(
        reader: R,
        mut on_entry: impl FnMut(ManifestEntry<'_>),
    ) -> Result<ManifestScan, ManifestError> {
        let mut reader = reader;
        let mut header_bytes = [0u8; blob::HEADER_LEN];
        let mut got = 0;
        while got < blob::HEADER_LEN {
            match reader.read(&mut header_bytes[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => {
                    return Err(ManifestError::Io {
                        error: err.to_string(),
                    })
                }
            }
        }
        // On a short file, let `parse_header` name the first missing field
        // so truncated prefixes read exactly as they always have.
        let header = blob::parse_header(&header_bytes[..got])?;
        match header.codec_version {
            MANIFEST_CODEC_VERSION => scan_body(header, reader, &mut on_entry),
            found => Err(ManifestError::Blob(BlobError::CodecVersionMismatch {
                found,
                expected: MANIFEST_CODEC_VERSION,
            })),
        }
    }
}

fn encode_timings(body: &mut Vec<u8>, timings: &[ShardJobTiming]) {
    body.extend_from_slice(&(timings.len() as u64).to_le_bytes());
    for timing in timings {
        body.extend_from_slice(&timing.fingerprint.raw().to_le_bytes());
        body.extend_from_slice(&timing.queue_ns.to_le_bytes());
        body.extend_from_slice(&timing.run_ns.to_le_bytes());
    }
}

fn read_exact<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), ManifestError> {
    reader.read_exact(buf).map_err(|err| {
        if err.kind() == std::io::ErrorKind::UnexpectedEof {
            ManifestError::Truncated { what }
        } else {
            ManifestError::Io {
                error: err.to_string(),
            }
        }
    })
}

/// Streaming body reader: every read is bounds-checked
/// against the declared payload length, folded into the incremental
/// whole-payload checksum, and tracked so absolute offsets can be
/// reported.
struct BodyReader<R> {
    reader: R,
    consumed: u64,
    payload_len: u64,
    hasher: Fingerprinter,
}

impl<R: Read> BodyReader<R> {
    fn read_body(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), ManifestError> {
        if self.consumed + buf.len() as u64 > self.payload_len {
            return Err(ManifestError::Truncated { what });
        }
        read_exact(&mut self.reader, buf, what)?;
        self.hasher.write_bytes(buf);
        self.consumed += buf.len() as u64;
        Ok(())
    }
}

/// Streams the chunk-framed layout: fixed header, framed entry chunks
/// (validated one at a time), timing section, whole-payload checksum.
fn scan_body<R: Read>(
    header: blob::BlobHeader,
    reader: R,
    on_entry: &mut impl FnMut(ManifestEntry<'_>),
) -> Result<ManifestScan, ManifestError> {
    let payload_len = header.payload_len;
    let mut body = BodyReader {
        reader,
        consumed: 0,
        payload_len,
        hasher: Fingerprinter::new(),
    };
    let mut fixed = [0u8; 16 + 4 + 4 + 8 + 8];
    body.read_body(&mut fixed, "manifest header")?;
    let config = Fingerprint::from_raw(u128::from_le_bytes(fixed[0..16].try_into().unwrap()));
    let index = u32::from_le_bytes(fixed[16..20].try_into().unwrap());
    let count = u32::from_le_bytes(fixed[20..24].try_into().unwrap());
    let entry_count = u64::from_le_bytes(fixed[24..32].try_into().unwrap());
    let chunk_count = u64::from_le_bytes(fixed[32..40].try_into().unwrap());
    if count == 0 || index == 0 || index > count {
        return Err(ManifestError::BadShard { index, count });
    }
    if header.key != ShardManifest::seal_key(config, index, count) {
        return Err(ManifestError::KeyMismatch);
    }
    // An entry costs at least 24 framing bytes, a chunk at least 16: a
    // vandalized count cannot force an absurd allocation.
    if entry_count.saturating_mul(24) > payload_len || chunk_count.saturating_mul(16) > payload_len
    {
        return Err(ManifestError::Truncated {
            what: "entry count",
        });
    }
    let mut seen = std::collections::HashSet::with_capacity((entry_count as usize).min(1 << 16));
    let mut surfaced: u64 = 0;
    let mut chunk = Vec::new();
    for chunk_index in 0..chunk_count {
        let mut frame = [0u8; 8];
        body.read_body(&mut frame, "chunk length")?;
        let chunk_len = u64::from_le_bytes(frame);
        if body.consumed + chunk_len + 8 > payload_len {
            return Err(ManifestError::Truncated { what: "chunk body" });
        }
        chunk.clear();
        chunk.resize(chunk_len as usize, 0);
        let chunk_start = blob::HEADER_LEN as u64 + body.consumed;
        body.read_body(&mut chunk, "chunk body")?;
        let mut check = [0u8; 8];
        body.read_body(&mut check, "chunk checksum")?;
        let mut chunk_hasher = Fingerprinter::new();
        chunk_hasher.write_bytes(&chunk);
        if u64::from_le_bytes(check) != blob::checksum_finish(&chunk_hasher) {
            return Err(ManifestError::ChunkChecksum { chunk: chunk_index });
        }
        // Walk the entries packed inside this chunk; they must tile it
        // exactly.
        let mut at = 0usize;
        while at < chunk.len() {
            if chunk.len() - at < 24 {
                return Err(ManifestError::Truncated {
                    what: "chunk entry",
                });
            }
            let fingerprint =
                Fingerprint::from_raw(u128::from_le_bytes(chunk[at..at + 16].try_into().unwrap()));
            let len = u64::from_le_bytes(chunk[at + 16..at + 24].try_into().unwrap()) as usize;
            at += 24;
            let payload = chunk.get(at..at + len).ok_or(ManifestError::Truncated {
                what: "chunk entry",
            })?;
            if !seen.insert(fingerprint) {
                return Err(ManifestError::DuplicateEntry { fingerprint });
            }
            on_entry(ManifestEntry {
                fingerprint,
                offset: chunk_start + at as u64,
                payload,
            });
            at += len;
            surfaced += 1;
        }
    }
    if surfaced != entry_count {
        return Err(ManifestError::Truncated {
            what: "declared entries",
        });
    }
    let mut frame = [0u8; 8];
    body.read_body(&mut frame, "timing count")?;
    let timing_count = u64::from_le_bytes(frame);
    if body.consumed + timing_count.saturating_mul(32) > payload_len {
        return Err(ManifestError::Truncated {
            what: "timing count",
        });
    }
    let mut timings = Vec::with_capacity((timing_count as usize).min(1 << 16));
    for _ in 0..timing_count {
        let mut record = [0u8; 32];
        body.read_body(&mut record, "timing record")?;
        timings.push(ShardJobTiming {
            fingerprint: Fingerprint::from_raw(u128::from_le_bytes(
                record[0..16].try_into().unwrap(),
            )),
            queue_ns: u64::from_le_bytes(record[16..24].try_into().unwrap()),
            run_ns: u64::from_le_bytes(record[24..32].try_into().unwrap()),
        });
    }
    if body.consumed != payload_len {
        return Err(ManifestError::TrailingData);
    }
    let mut recorded = [0u8; 8];
    read_exact(&mut body.reader, &mut recorded, "checksum")?;
    if u64::from_le_bytes(recorded) != blob::checksum_finish(&body.hasher) {
        return Err(ManifestError::Blob(BlobError::ChecksumMismatch));
    }
    let mut extra = [0u8; 1];
    match body.reader.read(&mut extra) {
        Ok(0) => {}
        Ok(_) => return Err(ManifestError::Blob(BlobError::TrailingData)),
        Err(err) => {
            return Err(ManifestError::Io {
                error: err.to_string(),
            })
        }
    }
    Ok(ManifestScan {
        config,
        index,
        count,
        entry_count,
        timings,
    })
}

/// Why a sealed shard manifest could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManifestError {
    /// The outer sealed-blob envelope failed (corruption, truncation, a
    /// different codec version, not a blob at all).
    Blob(BlobError),
    /// The manifest body ended before the named field.
    Truncated {
        /// Which encoded field was cut off.
        what: &'static str,
    },
    /// The header's shard coordinates are inconsistent.
    BadShard {
        /// Index found in the header (must be `1..=count`).
        index: u32,
        /// Count found in the header (must be non-zero).
        count: u32,
    },
    /// The blob key does not match the decoded header — a renamed or
    /// spliced file.
    KeyMismatch,
    /// The same job fingerprint appears twice within one manifest.
    DuplicateEntry {
        /// The repeated fingerprint.
        fingerprint: Fingerprint,
    },
    /// A framed entry chunk failed its own checksum.
    ChunkChecksum {
        /// Zero-based index of the corrupt chunk.
        chunk: u64,
    },
    /// Extra bytes follow the last entry.
    TrailingData,
    /// The underlying reader failed (streaming scans only).
    Io {
        /// The I/O error message.
        error: String,
    },
}

impl From<BlobError> for ManifestError {
    fn from(err: BlobError) -> Self {
        ManifestError::Blob(err)
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Blob(err) => write!(f, "shard manifest envelope: {err}"),
            ManifestError::Truncated { what } => {
                write!(f, "shard manifest truncated at {what}")
            }
            ManifestError::BadShard { index, count } => {
                write!(f, "shard manifest claims invalid shard {index}/{count}")
            }
            ManifestError::KeyMismatch => {
                write!(f, "shard manifest key does not match its header")
            }
            ManifestError::DuplicateEntry { fingerprint } => {
                write!(f, "shard manifest repeats job fingerprint {fingerprint}")
            }
            ManifestError::ChunkChecksum { chunk } => {
                write!(f, "shard manifest entry chunk {chunk} failed its checksum")
            }
            ManifestError::TrailingData => write!(f, "trailing bytes after shard manifest"),
            ManifestError::Io { error } => write!(f, "shard manifest read failed: {error}"),
        }
    }
}

impl std::error::Error for ManifestError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            config: Fingerprint::from_raw(0xfeed_beef),
            index: 2,
            count: 3,
            entries: vec![
                (Fingerprint::from_raw(1), vec![1, 2, 3]),
                (Fingerprint::from_raw(2), Vec::new()),
                (Fingerprint::from_raw(u128::MAX), vec![0; 100]),
            ],
            timings: vec![
                ShardJobTiming {
                    fingerprint: Fingerprint::from_raw(1),
                    queue_ns: 1_200,
                    run_ns: 88_000,
                },
                ShardJobTiming {
                    fingerprint: Fingerprint::from_raw(u128::MAX),
                    queue_ns: 0,
                    run_ns: u64::MAX,
                },
            ],
        }
    }

    /// A manifest body with the given header, no entries and no timings.
    fn empty_body(config: Fingerprint, index: u32, count: u32) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&config.raw().to_le_bytes());
        body.extend_from_slice(&index.to_le_bytes());
        body.extend_from_slice(&count.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes()); // entries
        body.extend_from_slice(&0u64.to_le_bytes()); // chunks
        body.extend_from_slice(&0u64.to_le_bytes()); // timings
        body
    }

    #[test]
    fn seal_open_round_trips() {
        let manifest = sample();
        assert_eq!(ShardManifest::open(&manifest.seal()).unwrap(), manifest);
        // Empty manifests are legal (a shard may own no jobs).
        let empty = ShardManifest {
            entries: Vec::new(),
            ..sample()
        };
        assert_eq!(ShardManifest::open(&empty.seal()).unwrap(), empty);
        assert_eq!(manifest.file_name(), "shard-2-of-3.stms");
    }

    #[test]
    fn unknown_codec_versions_are_rejected() {
        // The legacy flat layout (v2) gets no reader: it fails closed like
        // any version from the future.
        let body = [0u8; 4];
        for found in [2, 9] {
            let sealed = blob::seal(found, Fingerprint::from_raw(1), &body);
            assert_eq!(
                ShardManifest::open(&sealed),
                Err(ManifestError::Blob(BlobError::CodecVersionMismatch {
                    found,
                    expected: MANIFEST_CODEC_VERSION,
                }))
            );
        }
    }

    #[test]
    fn scan_streams_entries_with_their_disk_offsets() {
        // Thirty 10 KiB payloads overflow one 256 KiB chunk target, so this
        // exercises multi-chunk framing; every reported offset must point
        // at the payload bytes inside the sealed file.
        let manifest = ShardManifest {
            entries: (0..30)
                .map(|i| (Fingerprint::from_raw(1000 + i), vec![i as u8; 10 * 1024]))
                .collect(),
            ..sample()
        };
        let sealed = manifest.seal();
        let mut seen = Vec::new();
        let scan = ShardManifest::scan(&sealed[..], |entry| {
            let at = entry.offset as usize;
            assert_eq!(&sealed[at..at + entry.payload.len()], entry.payload);
            seen.push((entry.fingerprint, entry.payload.to_vec()));
        })
        .unwrap();
        assert_eq!(seen, manifest.entries);
        assert_eq!(scan.entry_count, 30);
        assert_eq!(scan.timings, manifest.timings);
        assert_eq!(
            (scan.config, scan.index, scan.count),
            (manifest.config, 2, 3)
        );
    }

    #[test]
    fn corruption_and_truncation_fail_closed() {
        let sealed = sample().seal();
        let mut bad = sealed.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(ShardManifest::open(&bad).is_err());
        assert!(ShardManifest::open(&sealed[..sealed.len() / 2]).is_err());
        assert!(matches!(
            ShardManifest::open(b"not a manifest"),
            Err(ManifestError::Blob(_))
        ));
    }

    #[test]
    fn chunk_corruption_names_the_chunk() {
        // Corrupt one payload byte inside the first framed chunk of a
        // manifest: the per-chunk checksum catches it before the trailing
        // whole-payload checksum is even reached by a streaming scan.
        let manifest = ShardManifest {
            entries: vec![(Fingerprint::from_raw(1), vec![7u8; 64])],
            timings: Vec::new(),
            ..sample()
        };
        let mut sealed = manifest.seal();
        // Fixed header is 40 bytes into the body; chunk length frame is 8
        // more; the first entry's payload starts 24 bytes after that.
        let payload_at = blob::HEADER_LEN + 40 + 8 + 24;
        sealed[payload_at] ^= 0xff;
        assert_eq!(
            ShardManifest::scan(&sealed[..], |_| {}),
            Err(ManifestError::ChunkChecksum { chunk: 0 })
        );
    }

    #[test]
    fn inconsistent_headers_are_rejected() {
        // index 0, index > count, count 0: all invalid. Build them by
        // sealing a body by hand so the blob layer is satisfied.
        for (index, count) in [(0u32, 2u32), (3, 2), (0, 0)] {
            let body = empty_body(Fingerprint::from_raw(7), index, count);
            let sealed = blob::seal(
                MANIFEST_CODEC_VERSION,
                ShardManifest::seal_key(Fingerprint::from_raw(7), index, count),
                &body,
            );
            assert_eq!(
                ShardManifest::open(&sealed),
                Err(ManifestError::BadShard { index, count })
            );
        }
    }

    #[test]
    fn spliced_header_fails_the_key_check() {
        // Seal a valid manifest under the WRONG key (as if a shard-1 file
        // body were copied into a shard-2 file's envelope).
        let manifest = sample();
        let body = empty_body(manifest.config, manifest.index, manifest.count);
        let wrong_key = ShardManifest::seal_key(manifest.config, manifest.index + 1, 9);
        let sealed = blob::seal(MANIFEST_CODEC_VERSION, wrong_key, &body);
        assert_eq!(
            ShardManifest::open(&sealed),
            Err(ManifestError::KeyMismatch)
        );
    }

    #[test]
    fn duplicate_entries_are_rejected() {
        let manifest = ShardManifest {
            entries: vec![
                (Fingerprint::from_raw(5), vec![1]),
                (Fingerprint::from_raw(5), vec![2]),
            ],
            ..sample()
        };
        assert_eq!(
            ShardManifest::open(&manifest.seal()),
            Err(ManifestError::DuplicateEntry {
                fingerprint: Fingerprint::from_raw(5)
            })
        );
    }

    #[test]
    fn seal_keys_separate_shard_coordinates() {
        let config = Fingerprint::from_raw(9);
        let base = ShardManifest::seal_key(config, 1, 2);
        assert_eq!(base, ShardManifest::seal_key(config, 1, 2));
        assert_ne!(base, ShardManifest::seal_key(config, 2, 2));
        assert_ne!(base, ShardManifest::seal_key(config, 1, 3));
        assert_ne!(
            base,
            ShardManifest::seal_key(Fingerprint::from_raw(10), 1, 2)
        );
    }

    #[test]
    fn errors_render_their_cause() {
        assert!(ManifestError::KeyMismatch.to_string().contains("key"));
        assert!(ManifestError::BadShard { index: 3, count: 2 }
            .to_string()
            .contains("3/2"));
        assert!(ManifestError::ChunkChecksum { chunk: 4 }
            .to_string()
            .contains("chunk 4"));
        assert!(ManifestError::Io {
            error: "broken pipe".into()
        }
        .to_string()
        .contains("broken pipe"));
        assert!(ManifestError::from(BlobError::BadMagic)
            .to_string()
            .contains("envelope"));
    }
}
