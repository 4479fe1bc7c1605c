//! Memory access records as produced by the workload generators and consumed
//! by the memory-hierarchy simulator.

use crate::{CoreId, LineAddr};
use std::fmt;

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    #[default]
    Read,
    /// A data store.
    Write,
    /// An instruction fetch. Treated like a read by the data-side simulator
    /// but kept distinct so instruction-stream heavy workloads can be
    /// modelled.
    InstrFetch,
}

impl AccessKind {
    /// Whether this access reads data (loads and instruction fetches).
    pub fn is_read(self) -> bool {
        !matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
            AccessKind::InstrFetch => "I",
        };
        f.write_str(s)
    }
}

/// One memory access in a trace.
///
/// Accesses are recorded at cache-line granularity: the generators emit the
/// line address directly because the prefetchers and caches studied by the
/// paper all operate on 64-byte blocks.
///
/// # Example
///
/// ```
/// use stms_types::{AccessKind, CoreId, LineAddr, MemAccess};
/// let a = MemAccess::read(CoreId::new(0), LineAddr::new(42)).with_gap(10);
/// assert_eq!(a.compute_gap, 10);
/// assert!(a.kind.is_read());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The core that issues the access.
    pub core: CoreId,
    /// The cache line touched.
    pub line: LineAddr,
    /// Load, store or instruction fetch.
    pub kind: AccessKind,
    /// Number of non-memory instructions executed by this core since its
    /// previous recorded access (used by the timing model to advance the
    /// clock at one instruction per cycle).
    pub compute_gap: u32,
    /// Whether the address of this access is data-dependent on the result of
    /// the core's previous off-chip miss (pointer chasing). Dependent misses
    /// cannot overlap with their producer and therefore reduce memory-level
    /// parallelism.
    pub dependent: bool,
}

impl MemAccess {
    /// Creates a read access with no compute gap and no dependence.
    pub fn read(core: CoreId, line: LineAddr) -> Self {
        MemAccess {
            core,
            line,
            kind: AccessKind::Read,
            compute_gap: 0,
            dependent: false,
        }
    }

    /// Creates a write access with no compute gap and no dependence.
    pub fn write(core: CoreId, line: LineAddr) -> Self {
        MemAccess {
            core,
            line,
            kind: AccessKind::Write,
            compute_gap: 0,
            dependent: false,
        }
    }

    /// Sets the number of non-memory instructions preceding this access.
    pub fn with_gap(mut self, gap: u32) -> Self {
        self.compute_gap = gap;
        self
    }

    /// Marks this access as data-dependent on the core's previous off-chip
    /// miss.
    pub fn with_dependence(mut self, dependent: bool) -> Self {
        self.dependent = dependent;
        self
    }

    /// Sets the access kind.
    pub fn with_kind(mut self, kind: AccessKind) -> Self {
        self.kind = kind;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_constructors() {
        let c = CoreId::new(1);
        let l = LineAddr::new(5);
        assert_eq!(MemAccess::read(c, l).kind, AccessKind::Read);
        assert_eq!(MemAccess::write(c, l).kind, AccessKind::Write);
        assert!(MemAccess::read(c, l).kind.is_read());
        assert!(!MemAccess::write(c, l).kind.is_read());
        assert!(AccessKind::InstrFetch.is_read());
    }

    #[test]
    fn builder_setters_chain() {
        let a = MemAccess::read(CoreId::new(0), LineAddr::new(1))
            .with_gap(7)
            .with_dependence(true)
            .with_kind(AccessKind::InstrFetch);
        assert_eq!(a.compute_gap, 7);
        assert!(a.dependent);
        assert_eq!(a.kind, AccessKind::InstrFetch);
    }

    #[test]
    fn kind_display() {
        assert_eq!(AccessKind::Read.to_string(), "R");
        assert_eq!(AccessKind::Write.to_string(), "W");
        assert_eq!(AccessKind::InstrFetch.to_string(), "I");
        assert_eq!(AccessKind::default(), AccessKind::Read);
    }
}
