//! Simulated time.
//!
//! The simulator is cycle-approximate; all timestamps are expressed in core
//! clock cycles of the simulated processor (4 GHz in the paper's Table 1).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in core clock cycles.
///
/// # Example
///
/// ```
/// use stms_types::Cycle;
/// let t = Cycle::new(100) + 20;
/// assert_eq!(t.raw(), 120);
/// assert_eq!(t - Cycle::new(100), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count.
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of two time points, returning the elapsed
    /// number of cycles (zero if `earlier` is later than `self`).
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns the later of two time points.
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two time points.
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Converts a duration in nanoseconds to cycles at the given core
    /// frequency in GHz, rounding up.
    pub fn from_nanos(nanos: f64, freq_ghz: f64) -> u64 {
        (nanos * freq_ghz).ceil() as u64
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let mut t = Cycle::new(10);
        t += 5;
        assert_eq!(t, Cycle::new(15));
        assert_eq!(t + 5, Cycle::new(20));
        assert_eq!(t - Cycle::new(10), 5);
    }

    #[test]
    fn saturating_since_never_underflows() {
        assert_eq!(Cycle::new(5).saturating_since(Cycle::new(10)), 0);
        assert_eq!(Cycle::new(10).saturating_since(Cycle::new(5)), 5);
    }

    #[test]
    fn min_max_order() {
        let a = Cycle::new(3);
        let b = Cycle::new(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn nanos_conversion_matches_table1() {
        // 45 ns main memory access at 4 GHz = 180 cycles.
        assert_eq!(Cycle::from_nanos(45.0, 4.0), 180);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle::new(7).to_string(), "7cy");
    }
}
