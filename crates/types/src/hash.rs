//! A multiplicative hasher for the simulator's integer-keyed hash maps and
//! sets.
//!
//! The standard library's default SipHash resists collision attacks, which
//! a simulator replaying its own traces does not need, and costs several
//! times more per key than one multiply. [`IntHasher`] mixes each written
//! word with a single 64 x 64 -> 128-bit multiplication and XORs the
//! product's two halves, so both the bucket index (low bits) and the
//! control tag (high bits) of `std`'s table depend on every bit of the key.
//!
//! The hash is fixed, not seeded per process, so it has no defence against
//! keys crafted to collide: use it only for keys the simulator makes
//! itself, such as simulated line addresses and history positions. Use
//! these maps only for point lookups and inserts, never where iteration
//! order could reach output.
//!
//! [`hash_f64`] is how every manual `Hash` impl in the workspace hashes a
//! float field.
//!
//! # Example
//!
//! ```
//! use stms_types::hash::IntHashSet;
//!
//! let mut marks = IntHashSet::default();
//! marks.insert(42u64);
//! assert!(marks.contains(&42));
//! assert!(!marks.contains(&43));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Hashes an `f64` field of a manual `Hash` impl: by bit pattern, with
/// `-0.0` normalized to the `0.0` it equals, so the `Hash`/`Eq` contract
/// holds for types that compare floats with `==`. (A NaN field would break
/// `Eq` itself.)
pub fn hash_f64<H: Hasher>(value: f64, state: &mut H) {
    (value + 0.0).to_bits().hash(state);
}

/// A `HashMap` hashed with [`IntHasher`].
pub type IntHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed with [`IntHasher`].
pub type IntHashSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// A one-multiply hasher for integer keys (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher {
    hash: u64,
}

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let product = u128::from(self.hash.rotate_left(5) ^ word) * u128::from(MIX);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(key: u64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn sequential_keys_spread_over_low_and_high_bits() {
        let mut low = HashSet::new();
        let mut high = HashSet::new();
        for key in 0..1024u64 {
            let h = hash_of(key);
            low.insert(h & 1023);
            high.insert(h >> 57);
        }
        assert!(low.len() > 600, "low bits: {}", low.len());
        assert_eq!(high.len(), 128, "every control tag value occurs");
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_low_bits() {
        let low: HashSet<u64> = (0..256u64).map(|k| hash_of(k << 40) & 255).collect();
        assert!(low.len() > 150, "low bits: {}", low.len());
    }

    #[test]
    fn maps_round_trip() {
        let mut map = IntHashMap::default();
        for key in (0..10_000u64).map(|k| k.wrapping_mul(0x1_0001)) {
            map.insert(key, !key);
        }
        assert_eq!(map.len(), 10_000);
        assert!(map.iter().all(|(k, v)| *v == !*k));
        assert_eq!(map.get(&u64::MAX), None);
    }
}
