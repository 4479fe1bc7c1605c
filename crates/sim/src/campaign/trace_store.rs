//! A two-tier (memory + optional disk) cache of generated workload traces.
//!
//! Every figure of the paper replays some subset of the same eight workload
//! traces, but the seed driver regenerated the trace inside each figure cell
//! (once per `(figure, sweep point, workload)` — dozens of regenerations per
//! campaign). [`TraceStore`] keys generated traces by the full
//! [`WorkloadSpec`] identity (every generator parameter, including trace
//! length and seed) and hands out [`SharedTrace`] handles, so each distinct
//! trace is generated exactly once per campaign no matter how many jobs
//! request it, and matched comparisons across figures replay bit-identical
//! inputs.
//!
//! # The disk tier
//!
//! Just as the paper's meta-data is practical because it lives *off-chip*
//! and persists across program runs, a store opened with
//! [`TraceStore::with_disk_tier`] persists each generated trace *across
//! campaign processes*: the trace is streamed through the chunk-framed
//! codec ([`stms_types::stream`], sealed in the versioned
//! [`stms_types::blob`] envelope) into `trace-<fingerprint>.stms`, where
//! the fingerprint is the stable [`stms_types::Fingerprintable`] content
//! fingerprint of the generating spec (never `std::hash::Hash`, whose
//! output changes across builds). A later process re-reads the file instead
//! of regenerating — fully decoded on the materialized path, or chunk by
//! chunk via [`TraceStore::replay_streaming`] so a warm campaign replays a
//! trace it never fully decodes. Any stale, truncated or corrupt file fails
//! the envelope, codec or per-chunk checks and is silently evicted and
//! regenerated. An optional byte budget ([`DiskTierConfig::max_bytes`])
//! evicts the oldest entries after each write, and [`TraceStoreStats`]
//! accounts for every disk interaction.
//!
//! ```
//! use stms_sim::campaign::{DiskTierConfig, TraceStore};
//! use stms_workloads::presets;
//!
//! let dir = std::env::temp_dir().join("stms-doc-trace-store-disk-tier");
//! std::fs::remove_dir_all(&dir).ok(); // start cold
//!
//! // First process: generates the trace and persists it.
//! let cold = TraceStore::with_disk_tier(DiskTierConfig::new(&dir)).unwrap();
//! let spec = presets::web_apache();
//! let first = cold.get_or_generate(&spec, 2_000);
//! assert_eq!(cold.stats().generated, 1);
//! assert_eq!(cold.stats().disk_writes, 1);
//!
//! // "Second process" (a fresh store on the same directory): no generation.
//! let warm = TraceStore::with_disk_tier(DiskTierConfig::new(&dir)).unwrap();
//! let second = warm.get_or_generate(&spec, 2_000);
//! assert_eq!(warm.stats().generated, 0);
//! assert_eq!(warm.stats().disk_hits, 1);
//! assert_eq!(*first, *second); // bit-identical replay input
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use stms_mem::{HierarchyLog, SystemConfig};
use stms_types::stream::{
    collect_trace, AccessChunk, ChunkedTraceWriter, TraceCodec, TraceReader, TraceSource,
    TraceStreamError, DEFAULT_CHUNK_LEN,
};
use stms_types::{
    blob, Fingerprint, Fingerprintable, SharedTrace, Trace, TraceMeta, ACCESS_RECORD_BYTES,
};
use stms_workloads::{generate, TraceGenerator, WorkloadSpec};

/// Counters describing how a [`TraceStore`] was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStoreStats {
    /// Requests served from an already-present memory entry (including
    /// requests that waited while another worker generated the trace).
    pub hits: u64,
    /// Requests that created a new memory entry.
    pub misses: u64,
    /// Traces actually generated. Always equals `misses` minus `disk_hits`
    /// once the store is idle: each new entry is loaded from disk or
    /// generated exactly once, even under concurrent first requests.
    pub generated: u64,
    /// Memory misses served by decoding a persisted trace file.
    pub disk_hits: u64,
    /// Memory misses that found no usable trace file (counted only when a
    /// disk tier is configured).
    pub disk_misses: u64,
    /// Unusable trace files evicted after failing the envelope, codec or
    /// verification checks (a subset of `disk_misses`).
    pub disk_corrupt: u64,
    /// Trace files written by this store.
    pub disk_writes: u64,
    /// Trace files evicted to respect [`DiskTierConfig::max_bytes`].
    pub disk_evictions: u64,
    /// Trace-file size accounting: with a byte budget configured, the bytes
    /// resident in the directory after the most recent write/eviction scan;
    /// without one, the cumulative bytes written by this store (the
    /// directory is not rescanned on every write).
    pub disk_bytes: u64,
    /// Replays served as a chunked stream ([`TraceStore::replay_streaming`])
    /// — from a disk-tier reader or straight from the generator — without
    /// ever materializing the trace.
    pub stream_replays: u64,
    /// Chunks handed to streamed replays (including chunks of attempts that
    /// later failed mid-stream).
    pub stream_chunks: u64,
    /// Streamed replay attempts abandoned because the backing file failed
    /// mid-stream (the file is evicted and the replay retried).
    pub stream_fallbacks: u64,
    /// Bytes read from disk by successful streamed replays (sealed file
    /// sizes, i.e. compressed bytes under codec v3).
    pub stream_disk_bytes: u64,
    /// Decoded bytes delivered by those same replays (`accesses ×`
    /// [`ACCESS_RECORD_BYTES`]). The ratio of the two is the effective
    /// compression of the on-disk codec.
    pub stream_decoded_bytes: u64,
    /// Hierarchy logs recorded ([`TraceStore::get_or_generate_logged`]):
    /// one per materialized trace and system model.
    pub logs_recorded: u64,
    /// Log requests served by a log already recorded (or being recorded).
    pub log_hits: u64,
    /// Total size of the recorded logs in bytes.
    pub log_bytes: u64,
}

/// Configuration of the persistent tier of a [`TraceStore`].
#[derive(Debug, Clone)]
pub struct DiskTierConfig {
    /// Directory holding the `trace-<fingerprint>.stms` files (created on
    /// open; may be shared with a result cache and across processes).
    pub dir: PathBuf,
    /// Byte budget for the directory's trace files. After each write the
    /// oldest entries are evicted until the total is back under budget.
    /// `None` (the default) never evicts.
    pub max_bytes: Option<u64>,
    /// When set, a decoded trace is additionally cross-checked against the
    /// requesting spec (trace length, workload name, seed, core count), so
    /// a file whose content was produced by a different generator version
    /// is detected and regenerated rather than trusted.
    pub verify: bool,
}

impl DiskTierConfig {
    /// A disk tier on `dir` with no byte budget and no deep verification.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskTierConfig {
            dir: dir.into(),
            max_bytes: None,
            verify: false,
        }
    }

    /// Returns a copy with a byte budget.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Returns a copy with deep verification enabled.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }
}

/// A shared, thread-safe store of generated traces keyed by workload spec,
/// with an optional persistent tier (see the module-level docs above).
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
    disk: Option<DiskTierConfig>,
    /// Streaming mode: replays flow chunk by chunk through
    /// [`TraceStore::replay_streaming`] instead of materializing traces.
    streaming: bool,
    /// Per-key generation locks of the streaming path (the streaming
    /// counterpart of `entries`: the first requester persists the trace
    /// while concurrent requesters for the same key wait, then stream the
    /// file).
    stream_locks: Mutex<HashMap<WorkloadSpec, Arc<Mutex<()>>>>,
    /// Keys whose chunk-framed file could not be written (full or broken
    /// cache directory); later streamed replays skip straight to the
    /// generator instead of regenerating into the void each time.
    failed_stream_writes: Mutex<HashSet<WorkloadSpec>>,
    /// Payload codec stamped into every trace file this store writes. The
    /// reader side is version-dispatched, so a store always replays files
    /// written under either codec regardless of this setting.
    codec: TraceCodec,
    hits: AtomicU64,
    misses: AtomicU64,
    generated: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_corrupt: AtomicU64,
    disk_writes: AtomicU64,
    disk_evictions: AtomicU64,
    disk_bytes: AtomicU64,
    stream_replays: AtomicU64,
    stream_chunks: AtomicU64,
    stream_fallbacks: AtomicU64,
    stream_disk_bytes: AtomicU64,
    stream_decoded_bytes: AtomicU64,
    /// Hierarchy logs by trace key and system-model fingerprint; the cell
    /// holds `None` when the system's geometry does not fit a log.
    logs: Mutex<HashMap<(WorkloadSpec, Fingerprint), LogCell>>,
    logs_recorded: AtomicU64,
    log_hits: AtomicU64,
    log_bytes: AtomicU64,
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
/// [`record_elapsed`]. Cache paths take their clock reads through this so a
/// disabled registry costs them nothing at all.
pub(crate) fn obs_started() -> Option<std::time::Instant> {
    stms_obs::is_enabled().then(std::time::Instant::now)
}

/// Records the nanoseconds elapsed since `started` into the named global
/// histogram; a `None` start (telemetry disabled at the time) records
/// nothing.
pub(crate) fn record_elapsed(name: &str, started: Option<std::time::Instant>) {
    if let Some(started) = started {
        let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        stms_obs::histogram(name).record(nanos);
    }
}

/// File-name prefix of persisted traces (distinguishes them from result
/// files sharing the same cache directory).
const TRACE_FILE_PREFIX: &str = "trace-";
/// Shared extension of every persisted cache file.
pub(crate) const CACHE_FILE_EXT: &str = "stms";

/// A temp-file name unique across processes (pid) *and* across stores and
/// threads within one process (counter), so concurrent writers of the same
/// key can never interleave on one temp file; the final `rename` is atomic
/// and last-writer-wins with identical content.
pub(crate) fn unique_tmp_name(key: Fingerprint) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        ".tmp-{}-{}-{}.{CACHE_FILE_EXT}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
        key.to_hex()
    )
}

/// Reads and unseals one cache file. Shared by both persistent tiers so
/// the envelope-handling semantics can never diverge between them.
///
/// * `Ok(None)` — no file: a plain cold miss, nothing to evict;
/// * `Err(())` — the file exists but fails the envelope checks: the caller
///   counts it corrupt and evicts it;
/// * `Ok(Some(payload))` — the verified payload bytes.
pub(crate) fn read_sealed(
    path: &Path,
    codec_version: u16,
    key: Fingerprint,
) -> Result<Option<Vec<u8>>, ()> {
    let Ok(bytes) = fs::read(path) else {
        return Ok(None);
    };
    match blob::open(&bytes, codec_version, key) {
        Ok(payload) => Ok(Some(payload.to_vec())),
        Err(_) => Err(()),
    }
}

/// Seals `payload` and atomically publishes it at `path` (unique temp file
/// in `dir`, then `rename`). Shared by both persistent tiers. Returns
/// whether the file was published; failures leave no temp litter and are
/// swallowed by callers — the cache is an optimization, never a
/// correctness dependency.
pub(crate) fn write_sealed(
    dir: &Path,
    path: &Path,
    codec_version: u16,
    key: Fingerprint,
    payload: &[u8],
) -> bool {
    let sealed = blob::seal(codec_version, key, payload);
    let tmp = dir.join(unique_tmp_name(key));
    match fs::write(&tmp, &sealed).and_then(|()| fs::rename(&tmp, path)) {
        Ok(()) => true,
        Err(_) => {
            let _ = fs::remove_file(&tmp);
            false
        }
    }
}

impl TraceStore {
    /// Creates an empty, memory-only store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store whose entries persist under `config.dir`, creating
    /// the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the cache directory.
    pub fn with_disk_tier(config: DiskTierConfig) -> io::Result<Self> {
        fs::create_dir_all(&config.dir)?;
        Ok(TraceStore {
            disk: Some(config),
            ..Self::default()
        })
    }

    /// The persistent tier's directory, when one is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.dir.as_path())
    }

    /// Returns the store with streaming mode switched on or off.
    ///
    /// In streaming mode the campaign replays traces through
    /// [`TraceStore::replay_streaming`] — chunk by chunk, never
    /// materialized — so peak memory is independent of trace length.
    pub fn with_streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Whether replays should stream instead of materializing.
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Returns the store with the given on-disk payload codec. New trace
    /// files are written under it; existing files of either codec stay
    /// readable (the reader dispatches on the envelope version).
    pub fn with_codec(mut self, codec: TraceCodec) -> Self {
        self.codec = codec;
        self
    }

    /// The codec stamped into trace files this store writes.
    pub fn codec(&self) -> TraceCodec {
        self.codec
    }

    /// Replays the trace for `spec` as a chunked stream, without ever
    /// materializing it: `run` receives a [`TraceSource`] and drives the
    /// simulation to completion.
    ///
    /// With a disk tier, the trace is generated *straight to a sealed
    /// chunk-framed file* on first request (concurrent requesters of the
    /// same key wait, then stream the file), and every replay — cold or
    /// warm, this process or a later one — reads it back one chunk at a
    /// time, so neither the encoded nor the decoded trace is ever resident.
    /// Without a disk tier, `run` streams directly from the resumable
    /// generator.
    ///
    /// `run` may be invoked more than once: when a backing file fails
    /// mid-stream (corrupt chunk, truncation), the file is evicted, the
    /// attempt is counted in [`TraceStoreStats::stream_fallbacks`], and the
    /// replay restarts — regenerating the file once, then falling back to
    /// the generator directly. Failures therefore never surface to the
    /// caller; the streamed access sequence is always exactly what
    /// [`TraceStore::get_or_generate`] would have replayed.
    pub fn replay_streaming<T>(
        &self,
        spec: &WorkloadSpec,
        accesses: usize,
        mut run: impl FnMut(&mut dyn TraceSource) -> Result<T, TraceStreamError>,
    ) -> T {
        let key = spec.clone().with_accesses(accesses);
        if let Some(disk) = &self.disk {
            let fingerprint = key.fingerprint();
            // Two rounds: if the file from the first round fails mid-stream
            // it is evicted, and the second round regenerates it once. A
            // key whose file cannot be *written* (full or broken cache
            // directory) skips straight to the generator instead of
            // regenerating into the void every round.
            for round in 0..2 {
                if !self.ensure_on_disk(disk, &key, fingerprint) {
                    break;
                }
                match self.stream_from_disk(disk, &key, fingerprint, &mut run) {
                    Ok(value) => {
                        counter_add(&self.stream_replays, 1);
                        return value;
                    }
                    Err(()) => {
                        counter_add(&self.stream_fallbacks, 1);
                        if round == 0 {
                            continue;
                        }
                    }
                }
            }
        }
        // No disk tier (or a disk that keeps failing): stream straight from
        // the resumable generator.
        counter_add(&self.generated, 1);
        counter_add(&self.stream_replays, 1);
        let mut generator = TraceGenerator::new(&key);
        let mut source = CountingSource::new(&mut generator, &self.stream_chunks);
        run(&mut source).expect("generator-backed trace sources cannot fail")
    }

    /// Makes sure a sealed chunk-framed file exists for `key`, generating
    /// it chunk by chunk if missing, and reports whether the file is
    /// available. Concurrent requesters of the same key serialize on a
    /// per-key lock so the trace is generated at most once; a failed write
    /// is remembered per key, so a full or broken cache directory costs one
    /// wasted generation per key, not one per replay attempt.
    fn ensure_on_disk(
        &self,
        disk: &DiskTierConfig,
        key: &WorkloadSpec,
        fingerprint: Fingerprint,
    ) -> bool {
        let lock = self.stream_lock_for(key);
        let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        if self
            .failed_stream_writes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(key)
        {
            return false;
        }
        let path = trace_path(&disk.dir, fingerprint);
        if path.is_file() {
            return true;
        }
        counter_add(&self.disk_misses, 1);
        counter_add(&self.generated, 1);
        let mut generator = TraceGenerator::new(key);
        match write_chunked_file(&disk.dir, &path, fingerprint, self.codec, &mut generator) {
            Ok(bytes) => {
                counter_add(&self.disk_writes, 1);
                self.enforce_budget(disk, &path, bytes);
                true
            }
            Err(_) => {
                self.failed_stream_writes
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(key.clone());
                false
            }
        }
    }

    /// The per-key serialization point of the streaming path.
    fn stream_lock_for(&self, key: &WorkloadSpec) -> Arc<Mutex<()>> {
        let mut locks = self
            .stream_locks
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            locks
                .entry(key.clone())
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        )
    }

    /// Evicts the streamed cache file for `key` — but only if the file at
    /// `path` is still the one this attempt opened (same length and mtime,
    /// checked under the per-key lock). A concurrent attempt that already
    /// evicted the bad file and regenerated a good one at the same path
    /// must not have its fresh file deleted by a straggler still reading
    /// the old inode.
    fn evict_stream_file(&self, key: &WorkloadSpec, path: &Path, opened: Option<&fs::Metadata>) {
        let lock = self.stream_lock_for(key);
        let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        let unchanged = match (opened, fs::metadata(path)) {
            (Some(opened), Ok(current)) => {
                current.len() == opened.len() && current.modified().ok() == opened.modified().ok()
            }
            // File already gone: nothing to evict.
            (_, Err(_)) => false,
            // Could not stat the opened file: be conservative and evict.
            (None, Ok(_)) => true,
        };
        if unchanged {
            self.evict_corrupt(path);
        }
    }

    /// One streamed replay attempt against the persisted file. `Err(())`
    /// means the file was unusable (now evicted) and the caller should
    /// retry or fall back.
    fn stream_from_disk<T>(
        &self,
        disk: &DiskTierConfig,
        key: &WorkloadSpec,
        fingerprint: Fingerprint,
        run: &mut impl FnMut(&mut dyn TraceSource) -> Result<T, TraceStreamError>,
    ) -> Result<T, ()> {
        let path = trace_path(&disk.dir, fingerprint);
        let Ok(file) = fs::File::open(&path) else {
            return Err(()); // generation failed or the file was evicted
        };
        // Identity of the file this attempt reads, for the eviction check:
        // taken from the open handle, so it cannot race a replacement.
        let opened = file.metadata().ok();
        let mut reader = match TraceReader::new(BufReader::new(file), fingerprint) {
            Ok(reader) => reader,
            Err(_) => {
                self.evict_stream_file(key, &path, opened.as_ref());
                return Err(());
            }
        };
        // Deep verification (`--cache-verify`), mirroring the materialized
        // path's `trace_matches_spec`: the stream's header must describe
        // exactly what generating `key` would produce.
        if disk.verify && !reader_matches_spec(&reader, key) {
            self.evict_stream_file(key, &path, opened.as_ref());
            return Err(());
        }
        let total_accesses = reader.total_accesses();
        match run(&mut CountingSource::new(&mut reader, &self.stream_chunks)) {
            Ok(value) => {
                counter_add(&self.disk_hits, 1);
                // On-disk vs decoded byte accounting of the replay that
                // actually completed: the ratio is the run summary's
                // `compression:` line.
                counter_add(
                    &self.stream_disk_bytes,
                    opened.as_ref().map_or(0, std::fs::Metadata::len),
                );
                counter_add(
                    &self.stream_decoded_bytes,
                    total_accesses.saturating_mul(ACCESS_RECORD_BYTES as u64),
                );
                Ok(value)
            }
            Err(_) => {
                // Corrupt or truncated mid-stream: the partial simulation
                // is discarded with the file (unless a concurrent attempt
                // already replaced it with a regenerated one).
                self.evict_stream_file(key, &path, opened.as_ref());
                Err(())
            }
        }
    }

    /// Returns the trace for `spec` at the campaign's trace length, loading
    /// it from the disk tier or generating it on first request.
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
    /// once: the first requester loads or generates while the others block
    /// on the entry's cell and then share the result. Requests for different
    /// keys never contend beyond the brief map lookup. A freshly generated
    /// trace is persisted before the call returns, so concurrent *processes*
    /// sharing one directory regenerate at most once each, and any unusable
    /// cache file is evicted and regenerated instead of surfacing an error.
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
        let key = (spec.clone().with_accesses(accesses), system.fingerprint());
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

    /// Loads `key` from the disk tier or generates (and persists) it.
    fn resolve(&self, key: &WorkloadSpec) -> SharedTrace {
        let Some(disk) = &self.disk else {
            counter_add(&self.generated, 1);
            let started = obs_started();
            let trace = generate(key).into_shared();
            record_elapsed("cache.trace.generate_ns", started);
            return trace;
        };
        let fingerprint = key.fingerprint();
        let started = obs_started();
        if let Some(trace) = self.load_from_disk(disk, key, fingerprint) {
            counter_add(&self.disk_hits, 1);
            record_elapsed("cache.trace.disk_hit_ns", started);
            return trace.into_shared();
        }
        record_elapsed("cache.trace.disk_miss_ns", started);
        counter_add(&self.disk_misses, 1);
        counter_add(&self.generated, 1);
        let started = obs_started();
        let trace = generate(key);
        record_elapsed("cache.trace.generate_ns", started);
        self.persist(disk, &trace, fingerprint);
        trace.into_shared()
    }

    /// Attempts to open and fully decode the chunk-framed cache file for
    /// `key`, evicting it on any failure.
    fn load_from_disk(
        &self,
        disk: &DiskTierConfig,
        key: &WorkloadSpec,
        fingerprint: Fingerprint,
    ) -> Option<Trace> {
        let path = trace_path(&disk.dir, fingerprint);
        let Ok(file) = fs::File::open(&path) else {
            return None; // plain cold miss
        };
        let trace = TraceReader::new(BufReader::new(file), fingerprint)
            .and_then(|mut reader| collect_trace(&mut reader))
            .ok()
            .filter(|trace| !disk.verify || trace_matches_spec(trace, key));
        if trace.is_none() {
            // Stale or corrupt behind a valid envelope (or a legacy
            // whole-trace blob from an older codec): evict so the
            // regenerated trace replaces it.
            self.evict_corrupt(&path);
        }
        trace
    }

    fn evict_corrupt(&self, path: &Path) {
        counter_add(&self.disk_corrupt, 1);
        let started = obs_started();
        let _ = fs::remove_file(path);
        record_elapsed("cache.trace.evict_ns", started);
    }

    /// Streams the sealed chunk-framed trace blob to disk atomically, then
    /// enforces the byte budget. Persistence failures are deliberately
    /// swallowed: the cache is an optimization, never a correctness
    /// dependency.
    fn persist(&self, disk: &DiskTierConfig, trace: &Trace, fingerprint: Fingerprint) {
        let path = trace_path(&disk.dir, fingerprint);
        let mut source = trace.chunks(DEFAULT_CHUNK_LEN);
        let Ok(bytes) = write_chunked_file(&disk.dir, &path, fingerprint, self.codec, &mut source)
        else {
            return;
        };
        counter_add(&self.disk_writes, 1);
        self.enforce_budget(disk, &path, bytes);
    }

    /// Evicts the oldest trace files until the directory's trace bytes fit
    /// the budget again (never evicting the file just written), and updates
    /// the resident-bytes gauge. Without a budget there is nothing to
    /// evict, so the gauge is advanced without scanning the directory — a
    /// shared cache directory would otherwise pay an O(files) metadata scan
    /// per write.
    fn enforce_budget(&self, disk: &DiskTierConfig, just_written: &Path, written_bytes: u64) {
        let Some(budget) = disk.max_bytes else {
            counter_add(&self.disk_bytes, written_bytes);
            return;
        };
        let mut files = match list_trace_files(&disk.dir) {
            Ok(files) => files,
            Err(_) => return,
        };
        let mut total: u64 = files.iter().map(|f| f.bytes).sum();
        files.sort_by_key(|f| f.modified);
        for file in &files {
            if total <= budget || file.path == just_written {
                continue;
            }
            if fs::remove_file(&file.path).is_ok() {
                counter_add(&self.disk_evictions, 1);
                total -= file.bytes;
            }
        }
        self.disk_bytes.store(total, Ordering::Relaxed);
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
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            disk_corrupt: self.disk_corrupt.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            disk_evictions: self.disk_evictions.load(Ordering::Relaxed),
            disk_bytes: self.disk_bytes.load(Ordering::Relaxed),
            stream_replays: self.stream_replays.load(Ordering::Relaxed),
            stream_chunks: self.stream_chunks.load(Ordering::Relaxed),
            stream_fallbacks: self.stream_fallbacks.load(Ordering::Relaxed),
            stream_disk_bytes: self.stream_disk_bytes.load(Ordering::Relaxed),
            stream_decoded_bytes: self.stream_decoded_bytes.load(Ordering::Relaxed),
            logs_recorded: self.logs_recorded.load(Ordering::Relaxed),
            log_hits: self.log_hits.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached trace from the memory tier and resets the
    /// counters (frees the memory of a finished campaign without discarding
    /// the store). Persisted files are left in place — they are the point
    /// of the disk tier.
    pub fn clear(&self) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.stream_locks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.failed_stream_writes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.logs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        for counter in [
            &self.hits,
            &self.misses,
            &self.generated,
            &self.disk_hits,
            &self.disk_misses,
            &self.disk_corrupt,
            &self.disk_writes,
            &self.disk_evictions,
            &self.disk_bytes,
            &self.stream_replays,
            &self.stream_chunks,
            &self.stream_fallbacks,
            &self.stream_disk_bytes,
            &self.stream_decoded_bytes,
            &self.logs_recorded,
            &self.log_hits,
            &self.log_bytes,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// Streams any [`TraceSource`] into a sealed chunk-framed trace file,
/// atomically (unique temp file, then rename). Returns the sealed size in
/// bytes. Neither the trace nor its encoding is ever materialized — the
/// writer computes the envelope up front and folds the checksum as chunks
/// flow through, so this is the out-of-core write path.
fn write_chunked_file(
    dir: &Path,
    path: &Path,
    key: Fingerprint,
    codec: TraceCodec,
    source: &mut dyn TraceSource,
) -> Result<u64, TraceStreamError> {
    let tmp = dir.join(unique_tmp_name(key));
    let result = (|| {
        let file = fs::File::create(&tmp)?;
        let meta: TraceMeta = source.meta().clone();
        let total = source.total_accesses();
        let mut writer = ChunkedTraceWriter::with_codec(
            BufWriter::new(file),
            key,
            &meta,
            total,
            DEFAULT_CHUNK_LEN,
            codec,
        )?;
        while let Some(chunk) = source.next_chunk()? {
            writer.push(chunk.accesses)?;
        }
        writer.finish()?;
        let bytes = fs::metadata(&tmp)?.len();
        fs::rename(&tmp, path)?;
        Ok(bytes)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A pass-through [`TraceSource`] that counts delivered chunks into a
/// store-level gauge (the `streamed N chunks` line of the run summary) and,
/// while telemetry is enabled, records the simulation time of each chunk —
/// the gap between one chunk's delivery and the next request, which is
/// exactly how long the simulator spent consuming it.
struct CountingSource<'a, S: TraceSource + ?Sized> {
    inner: &'a mut S,
    chunks: &'a AtomicU64,
    simulate: Option<stms_obs::Histogram>,
    delivered: Option<std::time::Instant>,
}

impl<'a, S: TraceSource + ?Sized> CountingSource<'a, S> {
    fn new(inner: &'a mut S, chunks: &'a AtomicU64) -> Self {
        CountingSource {
            inner,
            chunks,
            simulate: stms_obs::is_enabled().then(|| stms_obs::histogram("stream.simulate_ns")),
            delivered: None,
        }
    }
}

impl<S: TraceSource + ?Sized> TraceSource for CountingSource<'_, S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn total_accesses(&self) -> u64 {
        self.inner.total_accesses()
    }

    fn next_chunk(&mut self) -> Result<Option<AccessChunk<'_>>, TraceStreamError> {
        if let (Some(simulate), Some(delivered)) = (&self.simulate, self.delivered.take()) {
            let nanos = delivered.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            simulate.record(nanos);
        }
        let chunks = self.chunks;
        let result = self.inner.next_chunk();
        if let Ok(Some(_)) = &result {
            counter_add(chunks, 1);
            if self.simulate.is_some() {
                self.delivered = Some(std::time::Instant::now());
            }
        }
        result
    }
}

/// Path of the persisted trace for a spec fingerprint.
fn trace_path(dir: &Path, fingerprint: Fingerprint) -> PathBuf {
    dir.join(format!(
        "{TRACE_FILE_PREFIX}{}.{CACHE_FILE_EXT}",
        fingerprint.to_hex()
    ))
}

/// Deep verification: the decoded trace really is what generating `key`
/// would produce.
fn trace_matches_spec(trace: &Trace, key: &WorkloadSpec) -> bool {
    trace.len() == key.accesses
        && trace.meta().workload == key.name
        && trace.meta().seed == key.seed
        && trace.meta().cores == key.cores
}

/// The streaming counterpart of [`trace_matches_spec`]: the same checks
/// against a chunk-framed stream's header, before any chunk is replayed.
fn reader_matches_spec<R: std::io::Read>(reader: &TraceReader<R>, key: &WorkloadSpec) -> bool {
    reader.total_accesses() == key.accesses as u64
        && reader.meta().workload == key.name
        && reader.meta().seed == key.seed
        && reader.meta().cores == key.cores
}

struct CacheFile {
    path: PathBuf,
    bytes: u64,
    modified: std::time::SystemTime,
}

fn list_trace_files(dir: &Path) -> io::Result<Vec<CacheFile>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with(TRACE_FILE_PREFIX) || !name.ends_with(&format!(".{CACHE_FILE_EXT}")) {
            continue;
        }
        let meta = entry.metadata()?;
        files.push(CacheFile {
            path: entry.path(),
            bytes: meta.len(),
            modified: meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH),
        });
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_workloads::presets;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stms-trace-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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
        // No disk tier: disk counters stay untouched.
        assert_eq!(stats.disk_hits + stats.disk_misses + stats.disk_writes, 0);
    }

    #[test]
    fn cached_trace_is_bit_identical_to_direct_generation() {
        let store = TraceStore::new();
        let spec = presets::oltp_db2();
        let cached = store.get_or_generate(&spec, 3_000);
        let direct = generate(&spec.clone().with_accesses(3_000));
        assert_eq!(*cached, direct);
        assert_eq!(cached.encode(), direct.encode());
    }

    #[test]
    fn clear_resets_contents_and_counters() {
        let store = TraceStore::new();
        assert!(store.is_empty());
        store.get_or_generate(&presets::web_apache(), 1_000);
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.stats(), TraceStoreStats::default());
    }

    #[test]
    fn disk_tier_round_trips_across_stores() {
        let dir = temp_dir("round-trip");
        let spec = presets::web_apache();

        let cold = TraceStore::with_disk_tier(DiskTierConfig::new(&dir)).unwrap();
        let generated = cold.get_or_generate(&spec, 2_000);
        let stats = cold.stats();
        assert_eq!(
            (stats.generated, stats.disk_misses, stats.disk_writes),
            (1, 1, 1)
        );
        assert!(stats.disk_bytes > 0);

        let warm = TraceStore::with_disk_tier(DiskTierConfig::new(&dir).with_verify(true)).unwrap();
        let loaded = warm.get_or_generate(&spec, 2_000);
        let stats = warm.stats();
        assert_eq!((stats.generated, stats.disk_hits), (0, 1));
        assert_eq!(*generated, *loaded);

        // A different key is a cold miss even on a warm directory.
        let other = warm.get_or_generate(&spec, 2_500);
        assert_eq!(other.len(), 2_500);
        assert_eq!(warm.stats().generated, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_files_fall_back_to_regeneration() {
        let dir = temp_dir("corrupt");
        let spec = presets::dss_qry17();
        let cold = TraceStore::with_disk_tier(DiskTierConfig::new(&dir)).unwrap();
        let expect = cold.get_or_generate(&spec, 1_500);

        let path = trace_path(&dir, spec.clone().with_accesses(1_500).fingerprint());
        assert!(path.is_file());
        for mutation in ["flip", "truncate", "garbage"] {
            let mut bytes = fs::read(&path).unwrap();
            match mutation {
                "flip" => {
                    let last = bytes.len() - 10;
                    bytes[last] ^= 0xff;
                }
                "truncate" => bytes.truncate(bytes.len() / 2),
                _ => bytes = b"not a sealed blob at all".to_vec(),
            }
            fs::write(&path, &bytes).unwrap();

            let store = TraceStore::with_disk_tier(DiskTierConfig::new(&dir)).unwrap();
            let regenerated = store.get_or_generate(&spec, 1_500);
            assert_eq!(*regenerated, *expect, "mutation `{mutation}`");
            let stats = store.stats();
            assert_eq!(
                (stats.disk_corrupt, stats.generated, stats.disk_writes),
                (1, 1, 1),
                "mutation `{mutation}` must evict and re-persist"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_detects_stale_content_behind_a_valid_envelope() {
        let dir = temp_dir("stale");
        let spec = presets::sci_ocean();
        let key = spec.clone().with_accesses(1_000);

        // Seal a *different* trace under this key's fingerprint (a stale
        // file from an older generator, say).
        let wrong = generate(&spec.clone().with_seed(spec.seed + 1).with_accesses(1_000));
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            trace_path(&dir, key.fingerprint()),
            stms_types::stream::encode_chunked(&wrong, key.fingerprint(), DEFAULT_CHUNK_LEN),
        )
        .unwrap();

        // Without verify the envelope looks fine and the stale trace wins…
        let trusting = TraceStore::with_disk_tier(DiskTierConfig::new(&dir)).unwrap();
        assert_eq!(trusting.stats().disk_corrupt, 0);
        assert_eq!(*trusting.get_or_generate(&spec, 1_000), wrong);

        // …with verify the mismatch is detected and regenerated.
        let verifying =
            TraceStore::with_disk_tier(DiskTierConfig::new(&dir).with_verify(true)).unwrap();
        let fixed = verifying.get_or_generate(&spec, 1_000);
        assert_eq!(*fixed, generate(&key));
        let stats = verifying.stats();
        assert_eq!((stats.disk_corrupt, stats.generated), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Collects a streamed replay into a flat access vector (stand-in for
    /// the simulator driving a [`TraceSource`]).
    fn drain(source: &mut dyn TraceSource) -> Result<Vec<stms_types::MemAccess>, TraceStreamError> {
        let mut all = Vec::new();
        while let Some(chunk) = source.next_chunk()? {
            all.extend_from_slice(chunk.accesses);
        }
        Ok(all)
    }

    #[test]
    fn streaming_replay_without_disk_streams_the_generator() {
        let store = TraceStore::new().with_streaming(true);
        assert!(store.is_streaming());
        let spec = presets::web_apache();
        let accesses = store.replay_streaming(&spec, 2_000, drain);
        assert_eq!(
            accesses,
            generate(&spec.clone().with_accesses(2_000)).accesses()
        );
        let stats = store.stats();
        assert_eq!((stats.generated, stats.stream_replays), (1, 1));
        assert!(stats.stream_chunks >= 1);
        assert_eq!(stats.disk_writes, 0);
    }

    #[test]
    fn streaming_replay_persists_once_and_streams_warm_from_disk() {
        let dir = temp_dir("stream-warm");
        let spec = presets::web_apache();
        let expect = generate(&spec.clone().with_accesses(3_000));

        let cold = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .unwrap()
            .with_streaming(true);
        let first = cold.replay_streaming(&spec, 3_000, drain);
        assert_eq!(first, expect.accesses());
        let stats = cold.stats();
        assert_eq!(
            (stats.generated, stats.disk_writes, stats.disk_hits),
            (1, 1, 1),
            "generated straight to disk, then streamed back"
        );
        // A second replay in the same process streams the same file.
        let again = cold.replay_streaming(&spec, 3_000, drain);
        assert_eq!(again, expect.accesses());
        assert_eq!(cold.stats().generated, 1, "no regeneration");

        // A fresh store (a new process) streams without generating at all.
        let warm = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .unwrap()
            .with_streaming(true);
        let streamed = warm.replay_streaming(&spec, 3_000, drain);
        assert_eq!(streamed, expect.accesses());
        let stats = warm.stats();
        assert_eq!((stats.generated, stats.disk_hits), (0, 1));
        assert!(stats.stream_chunks >= 1);

        // And the file is shared with the materialized path: bit-identical.
        let materialized = TraceStore::with_disk_tier(DiskTierConfig::new(&dir)).unwrap();
        assert_eq!(*materialized.get_or_generate(&spec, 3_000), expect);
        assert_eq!(materialized.stats().disk_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_codec_shrinks_the_warm_tier_at_least_two_fold() {
        let spec = presets::oltp_db2();
        let key = spec.clone().with_accesses(6_000).fingerprint();

        let v2_dir = temp_dir("codec-v2");
        let v2 = TraceStore::with_disk_tier(DiskTierConfig::new(&v2_dir))
            .unwrap()
            .with_streaming(true)
            .with_codec(TraceCodec::V2);
        assert_eq!(v2.codec(), TraceCodec::V2);
        let baseline = v2.replay_streaming(&spec, 6_000, drain);

        let v3_dir = temp_dir("codec-v3");
        let v3 = TraceStore::with_disk_tier(DiskTierConfig::new(&v3_dir))
            .unwrap()
            .with_streaming(true);
        assert_eq!(v3.codec(), TraceCodec::V3, "v3 is the default");
        assert_eq!(v3.replay_streaming(&spec, 6_000, drain), baseline);

        let v2_bytes = fs::metadata(trace_path(&v2_dir, key)).unwrap().len();
        let v3_bytes = fs::metadata(trace_path(&v3_dir, key)).unwrap().len();
        assert!(
            v3_bytes.saturating_mul(2) <= v2_bytes,
            "v3 file must be at least 2x smaller: v2={v2_bytes} v3={v3_bytes}"
        );
        let _ = fs::remove_dir_all(&v2_dir);
        let _ = fs::remove_dir_all(&v3_dir);
    }

    #[test]
    fn v2_files_replay_under_a_v3_default_store() {
        let dir = temp_dir("codec-compat");
        let spec = presets::web_zeus();
        let expect = generate(&spec.clone().with_accesses(2_000));

        // An old deployment populated the cache with v2 files…
        let old = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .unwrap()
            .with_streaming(true)
            .with_codec(TraceCodec::V2);
        old.replay_streaming(&spec, 2_000, drain);

        // …and a v3-default binary must stream them untouched: no flag, no
        // eviction, no regeneration, same bytes.
        let new = TraceStore::with_disk_tier(DiskTierConfig::new(&dir).with_verify(true))
            .unwrap()
            .with_streaming(true);
        assert_eq!(new.replay_streaming(&spec, 2_000, drain), expect.accesses());
        let stats = new.stats();
        assert_eq!(
            (stats.generated, stats.disk_hits, stats.disk_corrupt),
            (0, 1, 0)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_byte_counters_report_on_disk_and_decoded_bytes() {
        let dir = temp_dir("stream-bytes");
        let spec = presets::web_apache();
        let store = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .unwrap()
            .with_streaming(true);
        store.replay_streaming(&spec, 3_000, drain);
        store.replay_streaming(&spec, 3_000, drain);

        let file_len = fs::metadata(trace_path(
            &dir,
            spec.clone().with_accesses(3_000).fingerprint(),
        ))
        .unwrap()
        .len();
        let stats = store.stats();
        assert_eq!(stats.stream_disk_bytes, 2 * file_len);
        assert_eq!(
            stats.stream_decoded_bytes,
            2 * 3_000 * ACCESS_RECORD_BYTES as u64
        );
        assert!(
            stats.stream_disk_bytes < stats.stream_decoded_bytes,
            "the default codec must compress"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_replay_recovers_from_mid_stream_corruption() {
        let dir = temp_dir("stream-corrupt");
        let spec = presets::dss_qry17();
        let expect = generate(&spec.clone().with_accesses(2_500));

        let cold = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .unwrap()
            .with_streaming(true);
        cold.replay_streaming(&spec, 2_500, drain);
        let path = trace_path(&dir, spec.clone().with_accesses(2_500).fingerprint());
        assert!(path.is_file());

        // Corrupt a byte deep in the payload: the header still opens, so the
        // failure only surfaces mid-stream.
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 100;
        bytes[at] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let fresh = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .unwrap()
            .with_streaming(true);
        let streamed = fresh.replay_streaming(&spec, 2_500, drain);
        assert_eq!(streamed, expect.accesses(), "fallback replays correctly");
        let stats = fresh.stats();
        assert!(stats.stream_fallbacks >= 1, "{stats:?}");
        assert_eq!(stats.disk_corrupt, 1, "the bad file was evicted");
        assert_eq!(stats.generated, 1, "regenerated once");
        // The regenerated file is intact for the next replay.
        let verify = TraceStore::with_disk_tier(DiskTierConfig::new(&dir).with_verify(true))
            .unwrap()
            .with_streaming(true);
        assert_eq!(
            verify.replay_streaming(&spec, 2_500, drain),
            expect.accesses()
        );
        assert_eq!(verify.stats().generated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_verify_rejects_stale_content_behind_a_valid_envelope() {
        let dir = temp_dir("stream-stale");
        let spec = presets::sci_ocean();
        let key = spec.clone().with_accesses(1_000);

        // Seal a *different* trace (other seed) under this key's name.
        let wrong = generate(&spec.clone().with_seed(spec.seed + 1).with_accesses(1_000));
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            trace_path(&dir, key.fingerprint()),
            stms_types::stream::encode_chunked(&wrong, key.fingerprint(), DEFAULT_CHUNK_LEN),
        )
        .unwrap();

        // Without verify the envelope looks fine and the stale stream wins…
        let trusting = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .unwrap()
            .with_streaming(true);
        assert_eq!(
            trusting.replay_streaming(&spec, 1_000, drain),
            wrong.accesses()
        );

        // …with verify the header mismatch is caught before any chunk is
        // replayed, the file evicted, and the right trace regenerated.
        let verifying = TraceStore::with_disk_tier(DiskTierConfig::new(&dir).with_verify(true))
            .unwrap()
            .with_streaming(true);
        assert_eq!(
            verifying.replay_streaming(&spec, 1_000, drain),
            generate(&key).accesses()
        );
        let stats = verifying.stats();
        assert_eq!(stats.disk_corrupt, 1, "{stats:?}");
        assert_eq!(stats.generated, 1, "{stats:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_remembers_unwritable_cache_dirs() {
        let dir = temp_dir("stream-unwritable");
        let store = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .unwrap()
            .with_streaming(true);
        // Break the cache directory after the store opened it: every write
        // attempt now fails.
        fs::remove_dir_all(&dir).unwrap();
        fs::write(&dir, b"not a directory").unwrap();

        let spec = presets::web_apache();
        let expect = generate(&spec.clone().with_accesses(1_200));
        assert_eq!(
            store.replay_streaming(&spec, 1_200, drain),
            expect.accesses()
        );
        let after_first = store.stats().generated;
        assert_eq!(
            store.replay_streaming(&spec, 1_200, drain),
            expect.accesses()
        );
        let stats = store.stats();
        assert_eq!(
            stats.generated,
            after_first + 1,
            "the failed write is remembered: later replays generate once, \
             not once per round ({stats:?})"
        );
        assert_eq!(stats.disk_writes, 0);
        assert_eq!(stats.stream_replays, 2);
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn byte_budget_evicts_oldest_entries() {
        let dir = temp_dir("budget");
        let spec = presets::web_apache();

        // Size one entry, then budget for roughly two.
        let probe = TraceStore::with_disk_tier(DiskTierConfig::new(&dir)).unwrap();
        probe.get_or_generate(&spec, 1_000);
        let one = probe.stats().disk_bytes;
        assert!(one > 0);

        let store =
            TraceStore::with_disk_tier(DiskTierConfig::new(&dir).with_max_bytes(one * 5 / 2))
                .unwrap();
        for accesses in [1_100, 1_200, 1_300, 1_400] {
            store.get_or_generate(&spec, accesses);
        }
        let stats = store.stats();
        assert!(
            stats.disk_evictions >= 2,
            "evictions: {}",
            stats.disk_evictions
        );
        assert!(
            stats.disk_bytes <= one * 3,
            "resident {} bytes exceeds budget",
            stats.disk_bytes
        );
        // The most recent entry always survives its own write.
        assert!(trace_path(&dir, spec.clone().with_accesses(1_400).fingerprint()).is_file());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stat_counters_saturate_instead_of_wrapping() {
        let store = TraceStore::new();
        // A counter poised one below the limit must pin at the limit, not
        // wrap to a small lie.
        store.stream_chunks.store(u64::MAX - 1, Ordering::Relaxed);
        counter_add(&store.stream_chunks, 5);
        assert_eq!(store.stats().stream_chunks, u64::MAX);
        counter_add(&store.stream_chunks, 1);
        assert_eq!(store.stats().stream_chunks, u64::MAX);
        // Zero-adds are free and never touch the cell.
        counter_add(&store.hits, 0);
        assert_eq!(store.stats().hits, 0);
    }

    #[test]
    fn concurrent_streamed_replays_count_chunks_exactly() {
        // Regression: chunk counters were bumped with plain loads+stores in
        // an early draft; racing replays must still sum exactly.
        let store = TraceStore::new().with_streaming(true);
        let spec = presets::web_apache();
        // One warm-up replay tells us the per-replay chunk count.
        store.replay_streaming(&spec, 2_000, drain);
        let per_replay = store.stats().stream_chunks;
        assert!(per_replay >= 1);

        const THREADS: u64 = 4;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| store.replay_streaming(&spec, 2_000, drain));
            }
        });
        let stats = store.stats();
        assert_eq!(stats.stream_chunks, per_replay * (THREADS + 1));
        assert_eq!(stats.stream_replays, THREADS + 1);
    }
}
