//! Trace containers.
//!
//! The workload generators produce [`Trace`] values; the simulator replays
//! them. Traces are regenerated from their spec rather than stored, so they
//! carry no codec of their own.

use crate::{CoreId, MemAccess};
use std::sync::Arc;

/// A cheaply-cloneable, immutable handle to a generated trace.
///
/// Traces are large (tens of bytes per access); campaign-style experiment
/// drivers generate each workload trace once and replay it from many worker
/// threads concurrently. `SharedTrace` is the currency of that sharing:
/// cloning is one atomic increment, and the underlying [`Trace`] is immutable
/// for the lifetime of the handle.
pub type SharedTrace = Arc<Trace>;

/// Metadata describing how a trace was produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Human-readable workload name (e.g. `"OLTP Oracle"`).
    pub workload: String,
    /// Number of cores whose accesses are interleaved in the trace.
    pub cores: usize,
    /// Seed of the generator that produced the trace.
    pub seed: u64,
    /// Approximate number of distinct cache lines touched (data footprint).
    pub footprint_lines: u64,
}

/// A sequence of memory accesses from all cores, in program-interleaved
/// order, together with its metadata.
///
/// # Example
///
/// ```
/// use stms_types::{CoreId, LineAddr, MemAccess, Trace, TraceMeta};
/// let mut trace = Trace::new(TraceMeta { workload: "demo".into(), cores: 1, ..Default::default() });
/// trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(1)));
/// trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(2)));
/// assert_eq!(trace.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    meta: TraceMeta,
    accesses: Vec<MemAccess>,
    /// The highest core any access names, kept up to date on every append.
    highest_core: Option<CoreId>,
}

impl Trace {
    /// Creates an empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Self {
        Trace {
            meta,
            accesses: Vec::new(),
            highest_core: None,
        }
    }

    /// Creates a trace from already-collected accesses.
    pub fn from_accesses(meta: TraceMeta, accesses: Vec<MemAccess>) -> Self {
        let highest_core = accesses.iter().map(|a| a.core).max();
        Trace {
            meta,
            accesses,
            highest_core,
        }
    }

    /// Wraps the trace in a [`SharedTrace`] handle for concurrent replay.
    pub fn into_shared(self) -> SharedTrace {
        Arc::new(self)
    }

    /// Returns the trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Appends one access.
    pub fn push(&mut self, access: MemAccess) {
        self.highest_core = self.highest_core.max(Some(access.core));
        self.accesses.push(access);
    }

    /// Number of accesses in the trace.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace contains no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The highest core any access names (`None` for an empty trace), read
    /// in O(1): a replay checks it against the system's core count.
    pub fn highest_core(&self) -> Option<CoreId> {
        self.highest_core
    }

    /// Returns the accesses as a slice.
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, MemAccess> {
        self.accesses.iter()
    }

    /// Returns the accesses issued by one core, preserving order.
    pub fn per_core(&self, core: CoreId) -> Vec<MemAccess> {
        self.accesses
            .iter()
            .copied()
            .filter(|a| a.core == core)
            .collect()
    }
}

impl Extend<MemAccess> for Trace {
    fn extend<T: IntoIterator<Item = MemAccess>>(&mut self, iter: T) {
        for access in iter {
            self.push(access);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for Trace {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, LineAddr};

    fn sample_trace() -> Trace {
        let meta = TraceMeta {
            workload: "unit".into(),
            cores: 2,
            seed: 7,
            footprint_lines: 128,
        };
        let mut t = Trace::new(meta);
        t.push(MemAccess::read(CoreId::new(0), LineAddr::new(10)).with_gap(3));
        t.push(MemAccess::write(CoreId::new(1), LineAddr::new(20)).with_dependence(true));
        t.push(
            MemAccess::read(CoreId::new(0), LineAddr::new(11))
                .with_kind(AccessKind::InstrFetch)
                .with_gap(1),
        );
        t
    }

    #[test]
    fn push_len_iter() {
        let t = sample_trace();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 3);
        assert_eq!((&t).into_iter().count(), 3);
        assert_eq!(t.clone().into_iter().count(), 3);
    }

    #[test]
    fn per_core_filters() {
        let t = sample_trace();
        assert_eq!(t.per_core(CoreId::new(0)).len(), 2);
        assert_eq!(t.per_core(CoreId::new(1)).len(), 1);
        assert_eq!(t.per_core(CoreId::new(2)).len(), 0);
    }

    #[test]
    fn into_shared_is_cheap_to_clone_and_compares_equal() {
        let shared = sample_trace().into_shared();
        let alias = Arc::clone(&shared);
        assert!(Arc::ptr_eq(&shared, &alias));
        assert_eq!(*shared, sample_trace());
    }

    #[test]
    fn extend_appends() {
        let mut t = Trace::new(TraceMeta::default());
        t.extend(vec![MemAccess::read(CoreId::new(0), LineAddr::new(1))]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn highest_core_tracks_every_way_of_building_a_trace() {
        assert_eq!(Trace::new(TraceMeta::default()).highest_core(), None);
        let pushed = sample_trace();
        assert_eq!(pushed.highest_core(), Some(CoreId::new(1)));
        let collected = Trace::from_accesses(TraceMeta::default(), pushed.accesses().to_vec());
        assert_eq!(collected.highest_core(), Some(CoreId::new(1)));
        let mut extended = Trace::new(TraceMeta::default());
        extended.extend(pushed.iter().copied().rev());
        assert_eq!(extended.highest_core(), Some(CoreId::new(1)));
    }
}
