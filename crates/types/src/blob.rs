//! A versioned, self-checking envelope for on-disk cache files.
//!
//! The campaign layer's persistent result cache (memoized job outputs)
//! and its shard manifests store *payload codecs that will evolve* in files
//! *named after cache keys that must never alias*. This module provides the
//! shared wrapper that makes that safe:
//!
//! ```text
//! magic "STMB" | envelope version u16 | payload codec version u16 |
//! key fingerprint u128 | payload length u64 | payload bytes |
//! payload checksum u64 (low half of FNV-1a-128)
//! ```
//!
//! All integers are little-endian. [`open`] verifies every header field and
//! the payload checksum, so a reader can distinguish "not my format", "a
//! newer codec I cannot read", "a hash-collision or renamed file"
//! ([`BlobError::KeyMismatch`]) and plain corruption — and cache tiers treat
//! *every* failure the same way: discard the file and regenerate.
//!
//! # Example
//!
//! ```
//! use stms_types::{blob, Fingerprint};
//!
//! let key = Fingerprint::from_raw(42);
//! let file = blob::seal(3, key, b"payload");
//! assert_eq!(blob::open(&file, 3, key).unwrap(), b"payload");
//!
//! // A different codec version or key refuses to alias:
//! assert!(blob::open(&file, 4, key).is_err());
//! assert!(blob::open(&file, 3, Fingerprint::from_raw(43)).is_err());
//!
//! // Corruption is caught by the payload checksum:
//! let mut bad = file.clone();
//! *bad.last_mut().unwrap() ^= 0xff;
//! assert!(matches!(blob::open(&bad, 3, key), Err(blob::BlobError::ChecksumMismatch)));
//! ```

use crate::fingerprint::{Fingerprint, Fingerprinter};
use std::fmt;

/// Leading magic of every sealed blob: `STMB` ("STMS blob").
const BLOB_MAGIC: [u8; 4] = *b"STMB";

/// Version of the envelope layout itself (not of the payload codec).
const ENVELOPE_VERSION: u16 = 1;

/// Fixed header size: magic + envelope version + codec version + key +
/// payload length. Public so streaming readers (shard-manifest scans) can
/// frame their I/O without materializing a whole file.
pub const HEADER_LEN: usize = 4 + 2 + 2 + 16 + 8;

/// Trailing checksum size of a sealed blob.
pub const CHECKSUM_LEN: usize = 8;

/// Why a sealed blob could not be opened.
///
/// Marked `#[non_exhaustive]`: future envelope revisions may detect new
/// failure modes without breaking matches. Cache tiers should treat every
/// variant identically — evict the file and regenerate the artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BlobError {
    /// The buffer ended before the named field.
    Truncated {
        /// Which field was cut off.
        what: &'static str,
    },
    /// The leading magic was not `STMB` — not a sealed blob at all.
    BadMagic,
    /// The envelope layout version is one this build cannot read.
    UnsupportedEnvelope {
        /// Version found in the header.
        found: u16,
    },
    /// The payload was written by a different payload codec version.
    CodecVersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Version the reader expected.
        expected: u16,
    },
    /// The header's key fingerprint is not the key the reader derived — a
    /// renamed file or (astronomically unlikely) a fingerprint collision.
    KeyMismatch,
    /// The payload bytes do not match their recorded checksum.
    ChecksumMismatch,
    /// Extra bytes follow the checksum (a partially-overwritten file).
    TrailingData,
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::Truncated { what } => write!(f, "sealed blob truncated at {what}"),
            BlobError::BadMagic => write!(f, "not a sealed blob (bad magic)"),
            BlobError::UnsupportedEnvelope { found } => {
                write!(f, "unsupported blob envelope version {found}")
            }
            BlobError::CodecVersionMismatch { found, expected } => {
                write!(f, "payload codec version {found}, expected {expected}")
            }
            BlobError::KeyMismatch => write!(f, "blob key fingerprint does not match"),
            BlobError::ChecksumMismatch => write!(f, "blob payload checksum mismatch"),
            BlobError::TrailingData => write!(f, "trailing bytes after blob checksum"),
        }
    }
}

impl std::error::Error for BlobError {}

/// Folds an incremental payload hash into the 64-bit checksum recorded at
/// the end of a sealed blob. Streaming readers feed payload bytes through a
/// [`Fingerprinter`] as they go and finish with this, so their checksum is
/// bit-identical to [`seal`]/[`open`] over the same bytes.
pub(crate) fn checksum_finish(fp: &Fingerprinter) -> u64 {
    fp.finish().raw() as u64
}

fn checksum(payload: &[u8]) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_bytes(payload);
    checksum_finish(&fp)
}

/// The decoded fixed-size header of a sealed blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobHeader {
    /// Payload codec version recorded in the header.
    pub codec_version: u16,
    /// Cache-key fingerprint recorded in the header.
    pub key: Fingerprint,
    /// Payload length in bytes (excludes header and trailing checksum).
    pub payload_len: u64,
}

/// Encodes the fixed-size header of a sealed blob.
fn encode_header(codec_version: u16, key: Fingerprint, payload_len: u64) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[0..4].copy_from_slice(&BLOB_MAGIC);
    out[4..6].copy_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    out[6..8].copy_from_slice(&codec_version.to_le_bytes());
    out[8..24].copy_from_slice(&key.raw().to_le_bytes());
    out[24..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    out
}

/// Parses and validates the fixed-size header of a sealed blob: the magic
/// and the envelope version are checked here; the payload codec version and
/// key are returned for the caller to check (a streaming reader reports
/// those through its own error type).
///
/// # Errors
///
/// [`BlobError::Truncated`], [`BlobError::BadMagic`] or
/// [`BlobError::UnsupportedEnvelope`].
pub fn parse_header(data: &[u8]) -> Result<BlobHeader, BlobError> {
    // Name the first missing field, so a truncated prefix reads the same as
    // it always has through `open`.
    for (end, what) in [
        (4, "magic"),
        (6, "envelope version"),
        (8, "codec version"),
        (24, "key fingerprint"),
        (HEADER_LEN, "payload length"),
    ] {
        if data.len() < end {
            return Err(BlobError::Truncated { what });
        }
    }
    if data[0..4] != BLOB_MAGIC {
        return Err(BlobError::BadMagic);
    }
    let envelope = u16::from_le_bytes(data[4..6].try_into().expect("2 bytes"));
    if envelope != ENVELOPE_VERSION {
        return Err(BlobError::UnsupportedEnvelope { found: envelope });
    }
    Ok(BlobHeader {
        codec_version: u16::from_le_bytes(data[6..8].try_into().expect("2 bytes")),
        key: Fingerprint::from_raw(u128::from_le_bytes(
            data[8..24].try_into().expect("16 bytes"),
        )),
        payload_len: u64::from_le_bytes(data[24..32].try_into().expect("8 bytes")),
    })
}

/// Total on-disk size of a sealed blob carrying `payload_len` payload
/// bytes (header + payload + checksum), for cache size accounting.
pub fn sealed_len(payload_len: usize) -> usize {
    HEADER_LEN + payload_len + 8
}

/// Wraps `payload` in a sealed envelope for the given payload codec version
/// and cache key.
pub fn seal(codec_version: u16, key: Fingerprint, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&encode_header(codec_version, key, payload.len() as u64));
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out
}

/// Opens a sealed blob, returning the payload slice after verifying the
/// magic, versions, key fingerprint, payload length and checksum.
///
/// # Errors
///
/// Returns the first [`BlobError`] encountered; see the variant docs. Any
/// error means the file is unusable as a cache entry for `key`.
pub fn open(data: &[u8], codec_version: u16, key: Fingerprint) -> Result<&[u8], BlobError> {
    let (found, payload) = open_any(data, codec_version)?;
    if found != key {
        return Err(BlobError::KeyMismatch);
    }
    Ok(payload)
}

/// Opens a sealed blob whose key the reader cannot derive in advance,
/// returning the *recorded* key alongside the verified payload.
///
/// Cache tiers always know their key (it names the file) and should use
/// [`open`]; this variant exists for self-describing artifacts like shard
/// manifests, whose key is a fingerprint of header fields that live inside
/// the payload. Such callers must re-derive the key from the decoded payload
/// and compare it against the returned one themselves.
///
/// # Errors
///
/// Same as [`open`], except that [`BlobError::KeyMismatch`] is never
/// returned (the caller owns that check).
pub fn open_any(data: &[u8], codec_version: u16) -> Result<(Fingerprint, &[u8]), BlobError> {
    let header = parse_header(data)?;
    if header.codec_version != codec_version {
        return Err(BlobError::CodecVersionMismatch {
            found: header.codec_version,
            expected: codec_version,
        });
    }
    let found_key = header.key.raw();
    let len = header.payload_len as usize;
    // The length field is untrusted on-disk data: all arithmetic on it must
    // be checked, so a vandalized length is a clean Truncated error rather
    // than an overflow panic.
    let payload_end = HEADER_LEN
        .checked_add(len)
        .ok_or(BlobError::Truncated { what: "payload" })?;
    let total = payload_end
        .checked_add(CHECKSUM_LEN)
        .ok_or(BlobError::Truncated { what: "checksum" })?;
    let payload = data
        .get(HEADER_LEN..payload_end)
        .ok_or(BlobError::Truncated { what: "payload" })?;
    let recorded = u64::from_le_bytes(
        data.get(payload_end..payload_end + CHECKSUM_LEN)
            .ok_or(BlobError::Truncated { what: "checksum" })?
            .try_into()
            .expect("8 bytes"),
    );
    if recorded != checksum(payload) {
        return Err(BlobError::ChecksumMismatch);
    }
    if data.len() != total {
        return Err(BlobError::TrailingData);
    }
    Ok((Fingerprint::from_raw(found_key), payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Fingerprint {
        Fingerprint::from_raw(0x1234_5678_9abc_def0_1122_3344_5566_7788)
    }

    #[test]
    fn round_trip() {
        let sealed = seal(7, key(), b"hello cache");
        assert_eq!(open(&sealed, 7, key()).unwrap(), b"hello cache");
        // Empty payloads are legal.
        let empty = seal(7, key(), b"");
        assert_eq!(open(&empty, 7, key()).unwrap(), b"");
    }

    #[test]
    fn every_header_field_is_verified() {
        let sealed = seal(7, key(), b"payload");
        assert_eq!(
            open(&[], 7, key()),
            Err(BlobError::Truncated { what: "magic" })
        );
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert_eq!(open(&bad, 7, key()), Err(BlobError::BadMagic));
        let mut bad = sealed.clone();
        bad[4] = 99;
        assert_eq!(
            open(&bad, 7, key()),
            Err(BlobError::UnsupportedEnvelope { found: 99 })
        );
        assert_eq!(
            open(&sealed, 8, key()),
            Err(BlobError::CodecVersionMismatch {
                found: 7,
                expected: 8
            })
        );
        assert_eq!(
            open(&sealed, 7, Fingerprint::from_raw(1)),
            Err(BlobError::KeyMismatch)
        );
    }

    #[test]
    fn corruption_and_truncation_are_caught() {
        let sealed = seal(7, key(), b"payload bytes");
        // Flip one payload byte: checksum mismatch.
        let mut bad = sealed.clone();
        bad[HEADER_LEN] ^= 0x01;
        assert_eq!(open(&bad, 7, key()), Err(BlobError::ChecksumMismatch));
        // Cut the file short anywhere in the payload/checksum: truncated.
        for cut in [HEADER_LEN + 2, sealed.len() - 1] {
            assert!(matches!(
                open(&sealed[..cut], 7, key()),
                Err(BlobError::Truncated { .. })
            ));
        }
        // Extra appended bytes: trailing data.
        let mut long = sealed.clone();
        long.push(0);
        assert_eq!(open(&long, 7, key()), Err(BlobError::TrailingData));
    }

    #[test]
    fn huge_length_field_is_truncation_not_overflow() {
        // A vandalized payload-length near u64::MAX must not overflow the
        // bounds arithmetic (debug builds panic on overflow).
        let mut sealed = seal(7, key(), b"payload");
        sealed[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            open(&sealed, 7, key()),
            Err(BlobError::Truncated { .. })
        ));
        sealed[24..32].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        assert!(matches!(
            open(&sealed, 7, key()),
            Err(BlobError::Truncated { .. })
        ));
    }

    #[test]
    fn open_any_returns_the_recorded_key_and_still_verifies_content() {
        let sealed = seal(7, key(), b"payload");
        let (found, payload) = open_any(&sealed, 7).unwrap();
        assert_eq!(found, key());
        assert_eq!(payload, b"payload");
        // Everything except the key check still applies.
        assert!(matches!(
            open_any(&sealed, 8),
            Err(BlobError::CodecVersionMismatch { .. })
        ));
        let mut bad = sealed.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert_eq!(open_any(&bad, 7), Err(BlobError::ChecksumMismatch));
    }

    #[test]
    fn errors_render_their_cause() {
        assert!(BlobError::ChecksumMismatch.to_string().contains("checksum"));
        assert!(BlobError::CodecVersionMismatch {
            found: 1,
            expected: 2
        }
        .to_string()
        .contains("expected 2"));
    }
}
