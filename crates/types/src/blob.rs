//! A versioned, self-checking envelope for on-disk cache files.
//!
//! The campaign layer's persistent result cache (memoized job outputs)
//! stores *payload codecs that will evolve* in files *named after cache keys
//! that must never alias*. This module provides the wrapper that makes that
//! safe:
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
/// payload length.
const HEADER_LEN: usize = 4 + 2 + 2 + 16 + 8;

/// Trailing checksum size of a sealed blob.
const CHECKSUM_LEN: usize = 8;

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

/// The 64-bit checksum recorded after the payload: the low half of its
/// FNV-1a-128 fingerprint.
fn checksum(payload: &[u8]) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_bytes(payload);
    fp.finish().raw() as u64
}

/// Wraps `payload` in a sealed envelope for the given payload codec version
/// and cache key.
pub fn seal(codec_version: u16, key: Fingerprint, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&BLOB_MAGIC);
    out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    out.extend_from_slice(&codec_version.to_le_bytes());
    out.extend_from_slice(&key.raw().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
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
    // Name the first missing header field.
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
    let found = u16::from_le_bytes(data[6..8].try_into().expect("2 bytes"));
    if found != codec_version {
        return Err(BlobError::CodecVersionMismatch {
            found,
            expected: codec_version,
        });
    }
    let found_key = u128::from_le_bytes(data[8..24].try_into().expect("16 bytes"));
    let len = u64::from_le_bytes(data[24..HEADER_LEN].try_into().expect("8 bytes")) as usize;
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
        data.get(payload_end..total)
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
    if found_key != key.raw() {
        return Err(BlobError::KeyMismatch);
    }
    Ok(payload)
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
        // The on-disk layout, byte for byte: files written by earlier builds
        // must stay readable.
        let expected: &[u8] = b"STMB\x01\x00\x07\x00\
            \x88\x77\x66\x55\x44\x33\x22\x11\xf0\xde\xbc\x9a\x78\x56\x34\x12\
            \x0b\x00\x00\x00\x00\x00\x00\x00\
            hello cache\
            \x11\xe4\xa6\x8d\x47\xe9\x14\xb9";
        assert_eq!(sealed, expected);
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
