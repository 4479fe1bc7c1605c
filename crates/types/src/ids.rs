//! Identifiers for hardware contexts.

use std::fmt;

/// Identifier of a processor core in the simulated chip multiprocessor.
///
/// The paper's system has four cores (Table 1); the simulator supports any
/// number, identified densely from zero.
///
/// # Example
///
/// ```
/// use stms_types::CoreId;
/// let cores: Vec<CoreId> = CoreId::all(4).collect();
/// assert_eq!(cores.len(), 4);
/// assert_eq!(cores[2].index(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u16);

impl CoreId {
    /// Creates a core identifier from a dense index.
    pub const fn new(index: u16) -> Self {
        CoreId(index)
    }

    /// Returns the dense index of this core.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns an iterator over the first `n` core identifiers.
    pub fn all(n: usize) -> impl Iterator<Item = CoreId> {
        (0..n as u16).map(CoreId)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<u16> for CoreId {
    fn from(v: u16) -> Self {
        CoreId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_yields_dense_indices() {
        let ids: Vec<_> = CoreId::all(3).collect();
        assert_eq!(ids, vec![CoreId::new(0), CoreId::new(1), CoreId::new(2)]);
        assert_eq!(ids[1].index(), 1);
    }

    #[test]
    fn all_zero_is_empty() {
        assert_eq!(CoreId::all(0).count(), 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(CoreId::new(3).to_string(), "core3");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CoreId::new(1) < CoreId::new(2));
    }
}
