//! A memory cache of generated workload traces.
//!
//! Every figure of the paper replays some subset of the same eight workload
//! traces. [`TraceStore`] keys generated traces by the full
//! [`WorkloadSpec`] identity (every generator parameter, including trace
//! length and seed) and hands out [`SharedTrace`] handles, so each distinct
//! trace is generated once per batch, and dropped after its last job, no
//! matter how many jobs request it, and matched comparisons across figures
//! replay bit-identical inputs.
//!
//! A campaign claims each trace a batch uses once for the batch, and the
//! batch's tasks on the trace share the claim: it drops when the last of
//! them ends. Dropping the last claim on a trace releases it: the store
//! drops the trace with every log recorded for it, so a campaign
//! that runs its batch trace by trace holds about one trace per worker,
//! not every trace it has generated.
//!
//! Traces are never persisted: generating one is cheaper than reading it
//! back from disk. Every replay runs over a materialized trace, so the
//! store also keeps one [`HierarchyLog`] per trace and system
//! ([`TraceStore::get_or_generate_logged`]), and every job on the trace
//! replays only its prefetcher-dependent work:
//!
//! ```
//! use stms_mem::{CmpSimulator, NullPrefetcher, SimOptions, SystemConfig};
//! use stms_sim::campaign::TraceStore;
//! use stms_workloads::presets;
//!
//! let store = TraceStore::new();
//! let spec = presets::web_apache();
//! let system = SystemConfig::hpca09_baseline();
//! let (trace, log) = store.get_or_generate_logged(&spec, 2_000, &system);
//! let log = log.expect("the baseline geometry fits a log");
//! let logged = CmpSimulator::new(&system, SimOptions::default())
//!     .run_logged(&trace, &log, &mut NullPrefetcher::new());
//! let live = CmpSimulator::new(&system, SimOptions::default())
//!     .run(&trace, &mut NullPrefetcher::new());
//! assert_eq!(logged.encode(), live.encode());
//!
//! // A second job on the same trace shares both the trace and its log.
//! let (_, again) = store.get_or_generate_logged(&spec, 2_000, &system);
//! assert!(std::sync::Arc::ptr_eq(&log, &again.unwrap()));
//! let stats = store.stats();
//! assert_eq!((stats.generated, stats.logs_recorded, stats.log_hits), (1, 1, 1));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use stms_mem::{HierarchyLog, SystemConfig};
use stms_types::SharedTrace;
use stms_workloads::{generate, WorkloadSpec};

/// Counters describing how a [`TraceStore`] was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStoreStats {
    /// Requests served from an already-present memory entry (including
    /// requests that waited while another worker generated the trace).
    pub hits: u64,
    /// Requests that created a new memory entry.
    pub misses: u64,
    /// Traces actually generated: one per memory miss (each new entry is
    /// generated exactly once, even under concurrent first requests; a
    /// released trace that is requested again is generated again).
    pub generated: u64,
    /// Hierarchy logs recorded ([`TraceStore::get_or_generate_logged`]):
    /// one per materialized trace and system model.
    pub logs_recorded: u64,
    /// Log requests served by a log already recorded (or being recorded).
    pub log_hits: u64,
    /// Total size of the recorded logs in bytes.
    pub log_bytes: u64,
    /// Traces dropped after their last claim.
    pub released: u64,
    /// The most traces the store held at once.
    pub max_resident: u64,
}

/// A shared, thread-safe store of generated traces keyed by workload spec.
///
/// # Example
///
/// ```
/// use stms_sim::campaign::TraceStore;
/// use stms_workloads::presets;
///
/// let store = TraceStore::new();
/// let a = store.get_or_generate(&presets::web_apache(), 5_000);
/// let b = store.get_or_generate(&presets::web_apache(), 5_000);
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // one generation, shared
/// assert_eq!(store.stats().generated, 1);
/// ```
#[derive(Debug, Default)]
pub struct TraceStore {
    entries: Mutex<HashMap<WorkloadSpec, Arc<OnceLock<SharedTrace>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    generated: AtomicU64,
    /// Hierarchy logs by trace key and system model; the cell holds `None`
    /// when the system's geometry does not fit a log.
    logs: Mutex<HashMap<(WorkloadSpec, SystemConfig), LogCell>>,
    logs_recorded: AtomicU64,
    log_hits: AtomicU64,
    log_bytes: AtomicU64,
    /// Open claims by trace key (see `TraceClaim`).
    claims: Mutex<HashMap<WorkloadSpec, usize>>,
    released: AtomicU64,
    max_resident: AtomicU64,
}

/// One entry of [`TraceStore`]'s hierarchy-log map.
type LogCell = Arc<OnceLock<Option<Arc<HierarchyLog>>>>;

/// Saturating add on a stats counter. Every store counter goes through
/// here: a counter that reaches `u64::MAX` pins there instead of wrapping
/// to a small lie under concurrent updates near the limit.
fn counter_add(counter: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(n))
    });
}

/// `Instant::now()` gated on telemetry being enabled; pair with
/// [`record_elapsed`]. Store paths take their clock reads through this so a
/// disabled registry costs them nothing at all.
fn obs_started() -> Option<std::time::Instant> {
    stms_obs::is_enabled().then(std::time::Instant::now)
}

/// Records the nanoseconds elapsed since `started` into the named global
/// histogram; a `None` start (telemetry disabled at the time) records
/// nothing.
fn record_elapsed(name: &str, started: Option<std::time::Instant>) {
    if let Some(started) = started {
        let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        stms_obs::histogram(name).record(nanos);
    }
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the trace for `spec` at the campaign's trace length,
    /// generating it on first request.
    ///
    /// ```
    /// use stms_sim::campaign::TraceStore;
    /// use stms_workloads::{generate, presets};
    ///
    /// let store = TraceStore::new();
    /// let spec = presets::oltp_db2();
    /// let trace = store.get_or_generate(&spec, 3_000);
    /// // The cached handle is bit-identical to direct generation…
    /// assert_eq!(*trace, generate(&spec.clone().with_accesses(3_000)));
    /// // …and later requests share it instead of regenerating.
    /// let again = store.get_or_generate(&spec, 3_000);
    /// assert!(std::sync::Arc::ptr_eq(&trace, &again));
    /// ```
    ///
    /// Concurrent first requests for the same key resolve the trace exactly
    /// once: the first requester generates while the others block on the
    /// entry's cell and then share the result. Requests for different keys
    /// never contend beyond the brief map lookup.
    pub fn get_or_generate(&self, spec: &WorkloadSpec, accesses: usize) -> SharedTrace {
        let key = spec.clone().with_accesses(accesses);
        let started = obs_started();
        let (cell, hit) = {
            let mut map = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(&key) {
                Some(cell) => {
                    counter_add(&self.hits, 1);
                    (Arc::clone(cell), true)
                }
                None => {
                    counter_add(&self.misses, 1);
                    let cell = Arc::new(OnceLock::new());
                    map.insert(key.clone(), Arc::clone(&cell));
                    let resident = map.len() as u64;
                    self.max_resident.fetch_max(resident, Ordering::Relaxed);
                    stms_obs::gauge("trace.resident_max").record_max(resident);
                    (cell, false)
                }
            }
        };
        // Resolution happens outside the map lock so other keys proceed.
        let trace = Arc::clone(cell.get_or_init(|| self.resolve(&key)));
        record_elapsed(
            if hit {
                "cache.trace.hit_ns"
            } else {
                "cache.trace.miss_ns"
            },
            started,
        );
        trace
    }

    /// [`TraceStore::get_or_generate`], plus the trace's hierarchy log
    /// under `system`: the L1, L2 and stride outcome of every access,
    /// which is the same under every prefetcher. The first request for a
    /// (trace, system) pair records the log; every later one shares it, so
    /// each job on the trace replays only its prefetcher-dependent work
    /// ([`CmpSimulator::run_logged`](stms_mem::CmpSimulator::run_logged)).
    /// The log is `None` when [`HierarchyLog::record`] cannot describe
    /// `system`; jobs then simulate the caches live.
    pub fn get_or_generate_logged(
        &self,
        spec: &WorkloadSpec,
        accesses: usize,
        system: &SystemConfig,
    ) -> (SharedTrace, Option<Arc<HierarchyLog>>) {
        let trace = self.get_or_generate(spec, accesses);
        let key = (spec.clone().with_accesses(accesses), system.clone());
        let cell = {
            let mut logs = self.logs.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(cell) = logs.get(&key) {
                counter_add(&self.log_hits, 1);
                Arc::clone(cell)
            } else {
                let cell = LogCell::default();
                logs.insert(key, Arc::clone(&cell));
                cell
            }
        };
        let log = cell
            .get_or_init(|| {
                let started = obs_started();
                let log = HierarchyLog::record(system, &trace)?;
                record_elapsed("cache.hierarchy_log.record_ns", started);
                let bytes = log.size_bytes() as u64;
                counter_add(&self.logs_recorded, 1);
                counter_add(&self.log_bytes, bytes);
                stms_obs::counter("hierarchy_log.recorded").incr();
                stms_obs::counter("hierarchy_log.bytes").add(bytes);
                Some(Arc::new(log))
            })
            .clone();
        (trace, log)
    }

    /// Generates `key`.
    fn resolve(&self, key: &WorkloadSpec) -> SharedTrace {
        counter_add(&self.generated, 1);
        let started = obs_started();
        let trace = generate(key).into_shared();
        record_elapsed("cache.trace.generate_ns", started);
        trace
    }

    /// Drops the trace for `key` and every hierarchy log recorded for it.
    /// Handles already handed out stay valid; the next request generates
    /// the trace again.
    fn release(&self, key: &WorkloadSpec) {
        let removed = self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(key);
        if removed.is_some() {
            counter_add(&self.released, 1);
        }
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(trace, _), _| trace != key);
    }

    /// Claims the trace for `spec` at `accesses`: the store releases it
    /// once every claim on it is dropped.
    pub(crate) fn claim(&self, spec: &WorkloadSpec, accesses: usize) -> TraceClaim<'_> {
        let key = spec.clone().with_accesses(accesses);
        *self
            .claims
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key.clone())
            .or_default() += 1;
        TraceClaim { store: self, key }
    }

    /// Number of distinct traces currently cached in memory (including any
    /// still being resolved).
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the memory tier holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Usage counters.
    pub fn stats(&self) -> TraceStoreStats {
        TraceStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            generated: self.generated.load(Ordering::Relaxed),
            logs_recorded: self.logs_recorded.load(Ordering::Relaxed),
            log_hits: self.log_hits.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            max_resident: self.max_resident.load(Ordering::Relaxed),
        }
    }
}

/// A claim on a trace (`TraceStore::claim`). A batch's tasks on the trace
/// share one behind an `Arc`, so it drops when the last of them ends,
/// whether it finished, panicked or never ran; the last claim on a trace
/// releases it.
#[derive(Debug)]
pub(crate) struct TraceClaim<'a> {
    store: &'a TraceStore,
    key: WorkloadSpec,
}

impl Drop for TraceClaim<'_> {
    fn drop(&mut self) {
        // The release happens under the claims lock, so a claim taken
        // concurrently either keeps the trace or finds it already gone.
        let mut claims = self
            .store
            .claims
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Every live claim is counted; a drop must not panic regardless.
        let Some(open) = claims.get_mut(&self.key) else {
            return;
        };
        *open -= 1;
        if *open == 0 {
            claims.remove(&self.key);
            self.store.release(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_workloads::presets;

    #[test]
    fn caches_by_full_spec_identity() {
        let store = TraceStore::new();
        let spec = presets::web_apache();

        let first = store.get_or_generate(&spec, 4_000);
        let second = store.get_or_generate(&spec, 4_000);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.len(), 4_000);

        // A different trace length, seed, or workload is a different key.
        let longer = store.get_or_generate(&spec, 8_000);
        assert!(!Arc::ptr_eq(&first, &longer));
        let reseeded = store.get_or_generate(&spec.clone().with_seed(99), 4_000);
        assert!(!Arc::ptr_eq(&first, &reseeded));
        let other = store.get_or_generate(&presets::sci_ocean(), 4_000);
        assert!(!Arc::ptr_eq(&first, &other));

        assert_eq!(store.len(), 4);
        let stats = store.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.generated, 4);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn cached_trace_is_bit_identical_to_direct_generation() {
        let store = TraceStore::new();
        let spec = presets::oltp_db2();
        let cached = store.get_or_generate(&spec, 3_000);
        let direct = generate(&spec.clone().with_accesses(3_000));
        assert_eq!(*cached, direct);
    }

    #[test]
    fn stat_counters_saturate_instead_of_wrapping() {
        let store = TraceStore::new();
        // A counter poised one below the limit must pin at the limit, not
        // wrap to a small lie.
        store.log_bytes.store(u64::MAX - 1, Ordering::Relaxed);
        counter_add(&store.log_bytes, 5);
        assert_eq!(store.stats().log_bytes, u64::MAX);
        counter_add(&store.log_bytes, 1);
        assert_eq!(store.stats().log_bytes, u64::MAX);
        // Zero-adds are free and never touch the cell.
        counter_add(&store.hits, 0);
        assert_eq!(store.stats().hits, 0);
    }
}
