//! Stable content fingerprints for cache keys that outlive a process.
//!
//! The campaign layer's in-memory [`std::collections::HashMap`] tiers key on
//! [`std::hash::Hash`], whose output is explicitly *not* stable across Rust
//! releases, builds, or platforms — fine for one process, useless as an
//! on-disk cache key. This module provides the stable alternative: a
//! [`Fingerprinter`] that hashes a canonical little-endian byte encoding of a
//! value with 128-bit FNV-1a, and a [`Fingerprintable`] trait that each
//! cache-key type implements field by field (so adding a field to a config
//! struct forces a conscious decision about its fingerprint, via the
//! exhaustive destructuring idiom used for `Hash` in `stms-workloads`).
//!
//! Two values produce the same [`Fingerprint`] exactly when they would
//! generate the same artifact, which is what makes a fingerprint-named cache
//! file a faithful stand-in for regeneration on any machine.
//!
//! # Example
//!
//! ```
//! use stms_types::{Fingerprint, Fingerprintable, Fingerprinter};
//!
//! struct Knobs {
//!     accesses: usize,
//!     bias: f64,
//! }
//!
//! impl Fingerprintable for Knobs {
//!     fn fingerprint_into(&self, fp: &mut Fingerprinter) {
//!         fp.write_str("Knobs/v1"); // domain tag: versions the key layout
//!         fp.write_usize(self.accesses);
//!         fp.write_f64(self.bias);
//!     }
//! }
//!
//! let a = Knobs { accesses: 100, bias: 0.5 }.fingerprint();
//! let b = Knobs { accesses: 100, bias: 0.5 }.fingerprint();
//! let c = Knobs { accesses: 101, bias: 0.5 }.fingerprint();
//! assert_eq!(a, b);
//! assert_ne!(a, c);
//! assert_eq!(a.to_hex().len(), 32);
//! ```

use std::fmt;

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit stable content fingerprint.
///
/// Produced by [`Fingerprinter::finish`] (usually via
/// [`Fingerprintable::fingerprint`]). The value depends only on the bytes
/// written, never on the build, platform, or process, so it is safe to use
/// as an on-disk cache-file name ([`Fingerprint::to_hex`]) and to embed in
/// cache-file headers ([`crate::blob`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Reconstructs a fingerprint from its raw value (e.g. read back from a
    /// cache-file header).
    pub fn from_raw(raw: u128) -> Self {
        Fingerprint(raw)
    }

    /// The raw 128-bit value.
    pub fn raw(self) -> u128 {
        self.0
    }

    /// Lower-case hexadecimal rendering (32 characters), suitable as a file
    /// name component.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// An incremental 128-bit FNV-1a hasher over a canonical byte encoding.
///
/// All multi-byte writes use fixed-width little-endian encodings and strings
/// are length-prefixed, so the stream of bytes — and therefore the resulting
/// [`Fingerprint`] — is unambiguous and identical on every platform.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    state: u128,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprinter {
            state: FNV128_OFFSET,
        }
    }

    /// Hashes raw bytes. Prefer the typed writers for anything structured:
    /// raw byte runs of variable length are ambiguous unless the caller
    /// length-prefixes them (as [`Fingerprinter::write_str`] does).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Hashes one byte.
    pub fn write_u8(&mut self, value: u8) {
        self.write_bytes(&[value]);
    }

    /// Hashes a `u32` (little-endian).
    pub fn write_u32(&mut self, value: u32) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Hashes a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Hashes a `usize` widened to 64 bits, so 32- and 64-bit builds agree.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Hashes a boolean as one byte.
    pub fn write_bool(&mut self, value: bool) {
        self.write_u8(u8::from(value));
    }

    /// Hashes an `f64` by bit pattern, with `-0.0` normalized to `+0.0`
    /// first so the two representations `==` considers equal fingerprint
    /// identically (the same normalization `stms-workloads` applies in its
    /// `Hash` impls).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64((value + 0.0).to_bits());
    }

    /// Hashes a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// cannot collide.
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        self.write_bytes(value.as_bytes());
    }

    /// Hashes an optional `u64` with a presence tag.
    pub fn write_option_u64(&mut self, value: Option<u64>) {
        match value {
            None => self.write_u8(0),
            Some(v) => {
                self.write_u8(1);
                self.write_u64(v);
            }
        }
    }

    /// The fingerprint of everything written so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// A type that contributes a stable, build-independent fingerprint.
///
/// Implementations should start with a domain tag ([`Fingerprinter::write_str`]
/// of a `"TypeName/v1"` literal) and bump that tag whenever the field layout
/// changes meaning, so stale cache entries written under an older layout can
/// never alias a current key.
pub trait Fingerprintable {
    /// Writes the value's canonical encoding into `fp`.
    fn fingerprint_into(&self, fp: &mut Fingerprinter);

    /// The value's fingerprint (a fresh hasher over
    /// [`Fingerprintable::fingerprint_into`]).
    fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        self.fingerprint_into(&mut fp);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_the_offset_basis() {
        assert_eq!(Fingerprinter::new().finish().raw(), FNV128_OFFSET);
    }

    #[test]
    fn known_fnv1a_vector() {
        // FNV-1a 128 of "a": xor then multiply once.
        let mut fp = Fingerprinter::new();
        fp.write_bytes(b"a");
        let expect = (FNV128_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV128_PRIME);
        assert_eq!(fp.finish().raw(), expect);
    }

    #[test]
    fn typed_writers_are_unambiguous() {
        let digest = |f: &dyn Fn(&mut Fingerprinter)| {
            let mut fp = Fingerprinter::new();
            f(&mut fp);
            fp.finish()
        };
        // Length prefixes keep adjacent strings apart.
        let ab_c = digest(&|fp| {
            fp.write_str("ab");
            fp.write_str("c");
        });
        let a_bc = digest(&|fp| {
            fp.write_str("a");
            fp.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
        // Width matters: a u8 and a u32 of the same value differ.
        assert_ne!(digest(&|fp| fp.write_u8(7)), digest(&|fp| fp.write_u32(7)));
        // Option presence tag keeps None apart from Some(0).
        assert_ne!(
            digest(&|fp| fp.write_option_u64(None)),
            digest(&|fp| fp.write_option_u64(Some(0)))
        );
    }

    #[test]
    fn negative_zero_normalizes() {
        let mut pos = Fingerprinter::new();
        pos.write_f64(0.0);
        let mut neg = Fingerprinter::new();
        neg.write_f64(-0.0);
        assert_eq!(pos.finish(), neg.finish());
    }

    #[test]
    fn hex_rendering_is_32_lowercase_digits() {
        let fp = Fingerprint::from_raw(0xdead_beef);
        assert_eq!(fp.to_hex().len(), 32);
        assert!(fp.to_hex().ends_with("deadbeef"));
        assert_eq!(fp.to_string(), fp.to_hex());
        assert_eq!(Fingerprint::from_raw(fp.raw()), fp);
    }
}
