//! 128-bit fingerprints for keys consumed within one binary.
//!
//! A [`Fingerprinter`] is a [`std::hash::Hasher`] that runs 128-bit FNV-1a
//! over the bytes a value's [`std::hash::Hash`] impl writes, so a value's
//! [`Fingerprint`] is a thin hash of the same stream that keys the
//! campaign's hash maps, and `Hash`/`Eq` stay the one identity of a job.
//!
//! The `Hash` stream of the standard library's types is fixed within one
//! build, not across Rust releases or platforms: a fingerprint names a
//! value to another process of the same binary, not to a later build.
//! Float fields hash through [`crate::hash::hash_f64`], so `-0.0` and the
//! `0.0` it equals fingerprint alike.
//!
//! # Example
//!
//! ```
//! use std::hash::Hash;
//! use stms_types::{Fingerprint, Fingerprinter};
//!
//! let fingerprint = |value: &(usize, &str)| -> Fingerprint {
//!     let mut fp = Fingerprinter::new();
//!     value.hash(&mut fp);
//!     fp.finish()
//! };
//! assert_eq!(fingerprint(&(100, "web")), fingerprint(&(100, "web")));
//! assert_ne!(fingerprint(&(100, "web")), fingerprint(&(101, "web")));
//! assert_eq!(fingerprint(&(100, "web")).to_hex().len(), 32);
//! ```

use std::fmt;
use std::hash::Hasher;

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content fingerprint, produced by [`Fingerprinter::finish`].
///
/// The value depends only on the bytes written. [`Fingerprint::to_hex`]
/// names a file, and [`crate::blob`] embeds the raw value in its header.
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

/// An incremental 128-bit FNV-1a hasher (see the [module docs](self)).
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

    /// Hashes raw bytes. A run of variable length is ambiguous unless the
    /// caller writes its length first.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Hashes a `usize` widened to a little-endian `u64`.
    pub fn write_usize(&mut self, value: usize) {
        self.write_bytes(&(value as u64).to_le_bytes());
    }

    /// The fingerprint of everything written so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Hasher for Fingerprinter {
    fn write(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }

    /// The low half of [`Fingerprinter::finish`].
    fn finish(&self) -> u64 {
        self.state as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_f64;
    use std::hash::Hash;

    fn digest(value: &impl Hash) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        value.hash(&mut fp);
        fp.finish()
    }

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
        // The `Hash` stream terminates strings, so adjacent ones stay apart.
        assert_ne!(digest(&("ab", "c")), digest(&("a", "bc")));
        // Width matters: a u8 and a u32 of the same value differ.
        assert_ne!(digest(&7u8), digest(&7u32));
        // The discriminant keeps None apart from Some(0).
        assert_ne!(digest(&None::<u64>), digest(&Some(0u64)));
    }

    #[test]
    fn negative_zero_normalizes() {
        let mut pos = Fingerprinter::new();
        hash_f64(0.0, &mut pos);
        let mut neg = Fingerprinter::new();
        hash_f64(-0.0, &mut neg);
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
