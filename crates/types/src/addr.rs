//! Physical byte addresses and cache-line addresses.
//!
//! The simulator works almost exclusively at cache-line granularity (the
//! paper's history buffer, index table and prefetch buffers all hold line
//! addresses), so [`LineAddr`] is the workhorse type. [`PhysAddr`] is kept
//! distinct so byte-granular trace generation cannot be accidentally mixed
//! with line-granular predictor state.

use std::fmt;

/// Size of a cache line / memory transfer unit, in bytes (Table 1: 64-byte
/// transfers).
pub const CACHE_LINE_BYTES: usize = 64;

/// Number of low-order bits discarded when converting a byte address to a
/// line address.
pub const CACHE_LINE_SHIFT: u32 = CACHE_LINE_BYTES.trailing_zeros();

/// A physical byte address.
///
/// # Example
///
/// ```
/// use stms_types::PhysAddr;
/// let a = PhysAddr::new(0x1234);
/// assert_eq!(a.raw(), 0x1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache-line address containing this byte address.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> CACHE_LINE_SHIFT)
    }

    /// Returns the offset of this byte address within its cache line.
    pub const fn line_offset(self) -> usize {
        (self.0 & (CACHE_LINE_BYTES as u64 - 1)) as usize
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

impl From<PhysAddr> for u64 {
    fn from(a: PhysAddr) -> u64 {
        a.0
    }
}

/// A cache-line (block) address: a physical address divided by the line size.
///
/// Line addresses are what the prefetchers predict, what the history buffer
/// logs and what the index table maps.
///
/// # Example
///
/// ```
/// use stms_types::{LineAddr, PhysAddr};
/// let line = PhysAddr::new(0x80).line();
/// assert_eq!(line, LineAddr::new(2));
/// assert_eq!(line.next(), LineAddr::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts back to the physical byte address of the first byte of the
    /// line.
    pub const fn to_phys(self) -> PhysAddr {
        PhysAddr(self.0 << CACHE_LINE_SHIFT)
    }

    /// Returns the next sequential line address.
    pub const fn next(self) -> Self {
        LineAddr(self.0 + 1)
    }

    /// Returns this line address offset by `delta` lines (may be negative).
    pub fn offset(self, delta: i64) -> Self {
        LineAddr(self.0.wrapping_add(delta as u64))
    }

    /// Signed distance in lines from `other` to `self`.
    pub fn delta_from(self, other: LineAddr) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl fmt::LowerHex for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

impl From<LineAddr> for u64 {
    fn from(a: LineAddr) -> u64 {
        a.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn line_size_is_power_of_two() {
        assert!(CACHE_LINE_BYTES.is_power_of_two());
        assert_eq!(1usize << CACHE_LINE_SHIFT, CACHE_LINE_BYTES);
    }

    #[test]
    fn phys_to_line_truncates() {
        assert_eq!(PhysAddr::new(0).line(), LineAddr::new(0));
        assert_eq!(PhysAddr::new(63).line(), LineAddr::new(0));
        assert_eq!(PhysAddr::new(64).line(), LineAddr::new(1));
        assert_eq!(PhysAddr::new(130).line(), LineAddr::new(2));
    }

    #[test]
    fn line_offset_within_bounds() {
        assert_eq!(PhysAddr::new(0x41).line_offset(), 1);
        assert_eq!(PhysAddr::new(0x7f).line_offset(), 63);
    }

    #[test]
    fn line_to_phys_round_trips_aligned() {
        let l = LineAddr::new(77);
        assert_eq!(l.to_phys().line(), l);
        assert_eq!(l.to_phys().line_offset(), 0);
    }

    #[test]
    fn next_and_offset_agree() {
        let l = LineAddr::new(10);
        assert_eq!(l.next(), l.offset(1));
        assert_eq!(l.offset(-3), LineAddr::new(7));
        assert_eq!(l.next().delta_from(l), 1);
        assert_eq!(l.delta_from(l.next()), -1);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{}", PhysAddr::new(0x40)), "0x40");
        assert_eq!(format!("{}", LineAddr::new(0x40)), "L0x40");
        assert_eq!(format!("{:x}", PhysAddr::new(255)), "ff");
    }

    #[test]
    fn conversions_via_from() {
        let a: PhysAddr = 42u64.into();
        assert_eq!(u64::from(a), 42);
        let l: LineAddr = 7u64.into();
        assert_eq!(u64::from(l), 7);
    }

    proptest! {
        #[test]
        fn prop_phys_line_roundtrip(raw in 0u64..u64::MAX / 2) {
            let a = PhysAddr::new(raw);
            let line = a.line();
            // The line's base address is <= the original and within one line.
            prop_assert!(line.to_phys().raw() <= raw);
            prop_assert!(raw - line.to_phys().raw() < CACHE_LINE_BYTES as u64);
            prop_assert_eq!(line.to_phys().raw() + a.line_offset() as u64, raw);
        }

        #[test]
        fn prop_line_delta_inverse(a in 0u64..1u64 << 40, d in -1000i64..1000i64) {
            let base = LineAddr::new(a + 2000);
            let moved = base.offset(d);
            prop_assert_eq!(moved.delta_from(base), d);
        }
    }
}
