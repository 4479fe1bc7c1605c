//! A persistent memo of finished job outputs.
//!
//! Replays are deterministic given `(spec, accesses, prefetcher kind,
//! system, sim options)` — the exact key the paper's own meta-data argument
//! rests on: the artifact is a pure function of its generating
//! configuration, so it can live off to the side and be reused. A
//! [`ResultStore`] memoizes every [`JobOutput`] (a [`stms_mem::SimResult`]
//! for replay jobs, per-core miss sequences for collection jobs) by the
//! stable [`stms_types::Fingerprint`] of that tuple, in a memory tier for
//! repeated cells within one campaign and a disk tier for cells across
//! campaign *processes*. Re-rendering one figure after a render-stage tweak
//! then replays nothing at all: every job output is served from
//! `result-<fingerprint>.stms` files.
//!
//! Entries are sealed in the versioned [`stms_types::blob`] envelope; any
//! stale, truncated or corrupt file fails the checks, is evicted, and the
//! job simply runs again.
//!
//! # Example
//!
//! ```
//! use stms_sim::campaign::{JobSpec, ResultStore};
//! use stms_sim::{ExperimentConfig, PrefetcherKind};
//! use stms_workloads::presets;
//!
//! let dir = std::env::temp_dir().join("stms-doc-result-store");
//! std::fs::remove_dir_all(&dir).ok(); // start cold
//!
//! let cfg = ExperimentConfig::quick();
//! let job = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
//! let store = ResultStore::open(&dir).unwrap();
//! let key = store.job_key(&cfg, &job);
//!
//! assert!(store.get(key, &cfg, &job).is_none()); // cold
//! # let output = stms_sim::campaign::JobOutput::Sim(stms_mem::SimResult::default());
//! store.put(key, &output);
//! assert!(store.get(key, &cfg, &job).is_some()); // memoized — and now on disk
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use super::job::{JobOutput, JobSpec};
use crate::system::ExperimentConfig;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use stms_types::{blob, Fingerprint};

/// Version of the [`JobOutput`] *container* layout (variant tags, the
/// miss-sequence encoding). Bump this when the container itself changes.
const JOB_OUTPUT_CONTAINER_VERSION: u16 = 1;

/// Version stamped on persisted [`JobOutput::encode`] blobs: the container
/// version in the high byte composed with the embedded
/// [`stms_mem::SIM_RESULT_CODEC_VERSION`] in the low byte, so a change to
/// *either* layer turns every old file into a clean version-mismatch miss.
pub const JOB_OUTPUT_CODEC_VERSION: u16 =
    (JOB_OUTPUT_CONTAINER_VERSION << 8) | stms_mem::SIM_RESULT_CODEC_VERSION;

/// File-name prefix of persisted job outputs.
const RESULT_FILE_PREFIX: &str = "result-";

/// Shared extension of every persisted cache file.
const CACHE_FILE_EXT: &str = "stms";

/// A temp-file name unique across processes (pid) *and* across stores and
/// threads within one process (counter), so concurrent writers of the same
/// key can never interleave on one temp file; the final `rename` is atomic
/// and last-writer-wins with identical content.
fn unique_tmp_name(key: Fingerprint) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(
        ".tmp-{}-{}-{}.{CACHE_FILE_EXT}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
        key.to_hex()
    )
}

/// Reads and unseals one cache file.
///
/// * `Ok(None)` — no file: a plain cold miss, nothing to evict;
/// * `Err(())` — the file exists but fails the envelope checks: the caller
///   counts it corrupt and evicts it;
/// * `Ok(Some(payload))` — the verified payload bytes.
fn read_sealed(path: &Path, codec_version: u16, key: Fingerprint) -> Result<Option<Vec<u8>>, ()> {
    let Ok(bytes) = fs::read(path) else {
        return Ok(None);
    };
    match blob::open(&bytes, codec_version, key) {
        Ok(payload) => Ok(Some(payload.to_vec())),
        Err(_) => Err(()),
    }
}

/// Seals `payload` and atomically publishes it at `path` (unique temp file
/// in `dir`, then `rename`). Returns whether the file was published;
/// failures leave no temp litter and are swallowed by callers — the cache
/// is an optimization, never a correctness dependency.
fn write_sealed(
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

/// Default byte budget of the in-memory memo tier (encoded-output bytes).
/// Generous enough that a one-shot campaign never evicts — job outputs are
/// kilobytes each — while bounding the tier on an unbounded stream of
/// distinct cells.
pub const DEFAULT_MEMO_BUDGET_BYTES: u64 = 64 << 20;

/// Counters describing how a [`ResultStore`] was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResultStoreStats {
    /// Lookups served from the memory tier.
    pub hits: u64,
    /// Lookups served by decoding a persisted result file.
    pub disk_hits: u64,
    /// Lookups that found nothing usable (the job must run).
    pub misses: u64,
    /// Unusable result files evicted after failing the envelope, codec or
    /// verification checks (a subset of `misses`).
    pub corrupt: u64,
    /// Result files written by this store.
    pub stores: u64,
    /// Memory-tier entries evicted to respect the memo byte budget (the
    /// disk tier still holds them).
    pub memo_evictions: u64,
    /// Encoded bytes currently resident in the memory tier.
    pub memo_bytes: u64,
}

impl ResultStoreStats {
    /// Total lookups served without running a simulation.
    pub fn total_hits(&self) -> u64 {
        self.hits + self.disk_hits
    }
}

/// The bounded in-memory memo tier: an LRU keyed by job fingerprint whose
/// resident size (encoded-output bytes) never exceeds its budget. Recency
/// is a logical clock bumped on every touch; eviction scans for the
/// smallest stamp, which is O(entries) but runs only when an insert pushes
/// the tier over budget — entry counts here are job counts, not accesses.
#[derive(Debug)]
struct MemoTier {
    entries: HashMap<Fingerprint, MemoEntry>,
    budget: u64,
    resident_bytes: u64,
    clock: u64,
}

#[derive(Debug)]
struct MemoEntry {
    output: JobOutput,
    bytes: u64,
    last_used: u64,
}

impl MemoTier {
    fn new(budget: u64) -> Self {
        MemoTier {
            entries: HashMap::new(),
            budget,
            resident_bytes: 0,
            clock: 0,
        }
    }

    fn get(&mut self, key: Fingerprint) -> Option<JobOutput> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|entry| {
            entry.last_used = clock;
            entry.output.clone()
        })
    }

    /// Inserts (or refreshes) an entry, then evicts least-recently-used
    /// entries until the tier fits its budget again. The just-inserted
    /// entry is never evicted: an output larger than the whole budget still
    /// memoizes, the tier just holds that one entry. Returns the eviction
    /// count.
    fn insert(&mut self, key: Fingerprint, output: JobOutput, bytes: u64) -> u64 {
        self.clock += 1;
        let entry = MemoEntry {
            output,
            bytes,
            last_used: self.clock,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.resident_bytes -= old.bytes;
        }
        self.resident_bytes += bytes;
        let mut evicted = 0;
        while self.resident_bytes > self.budget && self.entries.len() > 1 {
            let oldest = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("more than one entry resident");
            let gone = self.entries.remove(&oldest).expect("key from this map");
            self.resident_bytes -= gone.bytes;
            evicted += 1;
        }
        evicted
    }
}

/// A two-tier (memory + disk) memo of job outputs keyed by stable
/// fingerprints (see the module-level docs above).
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    verify: bool,
    memory: Mutex<MemoTier>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    stores: AtomicU64,
    memo_evictions: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) a result cache directory. The directory
    /// may be shared across concurrent processes.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            verify: false,
            memory: Mutex::new(MemoTier::new(DEFAULT_MEMO_BUDGET_BYTES)),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            memo_evictions: AtomicU64::new(0),
        })
    }

    /// Returns a copy with deep verification enabled: a decoded output is
    /// additionally cross-checked against the requesting job (task variant,
    /// workload identity, per-system-core sequence count), catching files
    /// whose content predates a generator or labelling change.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Returns a copy with the memory tier bounded to `bytes` of encoded
    /// output (default [`DEFAULT_MEMO_BUDGET_BYTES`]). Least-recently-used
    /// entries are evicted when an insert pushes the tier over budget; they
    /// remain loadable from disk.
    pub fn with_memory_budget(self, bytes: u64) -> Self {
        self.memory
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .budget = bytes;
        self
    }

    /// The stable cache key of one job under one campaign configuration
    /// (see [`super::job::job_fingerprint`] — batch dedup keys on the same
    /// value). Two campaigns share an entry exactly when a replay would be
    /// bit-identical.
    pub fn job_key(&self, cfg: &ExperimentConfig, job: &JobSpec) -> Fingerprint {
        super::job::job_fingerprint(cfg, job)
    }

    /// Looks up a memoized output, consulting the memory tier first and
    /// then the disk tier. `cfg` and `job` are what the key was derived
    /// from; they drive the deep verification of
    /// [`ResultStore::with_verify`].
    pub fn get(
        &self,
        key: Fingerprint,
        cfg: &ExperimentConfig,
        job: &JobSpec,
    ) -> Option<JobOutput> {
        let started = super::trace_store::obs_started();
        {
            let mut memory = self.memory.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(output) = memory.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                drop(memory);
                super::trace_store::record_elapsed("cache.result.hit_ns", started);
                return Some(output);
            }
        }
        match self.load_from_disk(key, cfg, job) {
            Some((output, bytes)) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.memo_insert(key, output.clone(), bytes);
                super::trace_store::record_elapsed("cache.result.disk_hit_ns", started);
                Some(output)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                super::trace_store::record_elapsed("cache.result.miss_ns", started);
                None
            }
        }
    }

    /// Memoizes a finished job's output in both tiers. Persistence failures
    /// are swallowed — the cache is an optimization, never a correctness
    /// dependency.
    pub fn put(&self, key: Fingerprint, output: &JobOutput) {
        let encoded = output.encode();
        self.memo_insert(key, output.clone(), encoded.len() as u64);
        let path = self.result_path(key);
        if write_sealed(&self.dir, &path, JOB_OUTPUT_CODEC_VERSION, key, &encoded) {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts into the bounded memory tier and accounts for any evictions
    /// the insert forced (store counter, global telemetry counter and
    /// resident-bytes gauge).
    fn memo_insert(&self, key: Fingerprint, output: JobOutput, bytes: u64) {
        let (evicted, resident) = {
            let mut memory = self.memory.lock().unwrap_or_else(PoisonError::into_inner);
            (memory.insert(key, output, bytes), memory.resident_bytes)
        };
        if evicted > 0 {
            self.memo_evictions.fetch_add(evicted, Ordering::Relaxed);
            stms_obs::counter("cache.result.memo_evictions").add(evicted);
        }
        stms_obs::gauge("cache.result.memo_bytes").set(resident);
    }

    /// Usage counters.
    pub fn stats(&self) -> ResultStoreStats {
        ResultStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            memo_evictions: self.memo_evictions.load(Ordering::Relaxed),
            memo_bytes: self
                .memory
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .resident_bytes,
        }
    }

    fn result_path(&self, key: Fingerprint) -> PathBuf {
        self.dir.join(format!(
            "{RESULT_FILE_PREFIX}{}.{CACHE_FILE_EXT}",
            key.to_hex()
        ))
    }

    /// Loads one output from the disk tier, returning it with its encoded
    /// payload size (the memory tier's accounting unit).
    fn load_from_disk(
        &self,
        key: Fingerprint,
        cfg: &ExperimentConfig,
        job: &JobSpec,
    ) -> Option<(JobOutput, u64)> {
        let path = self.result_path(key);
        let payload = match read_sealed(&path, JOB_OUTPUT_CODEC_VERSION, key) {
            Ok(Some(payload)) => payload,
            Ok(None) => return None, // plain cold miss
            Err(()) => {
                self.evict_corrupt(&path);
                return None;
            }
        };
        let output = JobOutput::decode(&payload)
            .ok()
            .filter(|output| !self.verify || output_matches_job(output, cfg, job));
        if output.is_none() {
            self.evict_corrupt(&path);
        }
        output.map(|output| (output, payload.len() as u64))
    }

    fn evict_corrupt(&self, path: &std::path::Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(path);
    }
}

/// Deep verification: the decoded output plausibly belongs to `job` — the
/// variant matches the task and the workload identity carried inside the
/// result matches the requesting spec. Miss sequences carry one entry per
/// *simulated system* core (the collector is sized by `cfg.system.cores`,
/// not by the workload's own core count). The `prefetcher` field holds the
/// engine's *family* name, not the design-point label, so it cannot
/// distinguish sweep points and is deliberately not checked; sweep points
/// are separated by the key fingerprint itself.
fn output_matches_job(output: &JobOutput, cfg: &ExperimentConfig, job: &JobSpec) -> bool {
    match (output, &job.task) {
        (JobOutput::Sim(result), super::job::JobTask::Replay(_)) => {
            result.workload == job.workload.name
        }
        (JobOutput::MissSequences(seqs), super::job::JobTask::CollectMisses) => {
            seqs.len() == cfg.system.cores
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PrefetcherKind;
    use stms_mem::SimResult;
    use stms_types::LineAddr;
    use stms_workloads::presets;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stms-result-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_output(job: &JobSpec) -> JobOutput {
        JobOutput::Sim(SimResult {
            workload: job.workload.name.clone(),
            prefetcher: match &job.task {
                super::super::job::JobTask::Replay(kind) => kind.label(),
                super::super::job::JobTask::CollectMisses => unreachable!(),
            },
            cycles: 1234,
            instructions: 5678,
            ..SimResult::default()
        })
    }

    #[test]
    fn keys_separate_every_dimension() {
        let dir = temp_dir("keys");
        let store = ResultStore::open(&dir).unwrap();
        let cfg = ExperimentConfig::quick();
        let job = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let base = store.job_key(&cfg, &job);

        // Same inputs, same key.
        assert_eq!(base, store.job_key(&cfg, &job));
        // Different prefetcher, workload, trace length, system or options:
        // different key.
        let other_kind = JobSpec::replay(presets::web_apache(), PrefetcherKind::ideal());
        assert_ne!(base, store.job_key(&cfg, &other_kind));
        let other_load = JobSpec::replay(presets::sci_ocean(), PrefetcherKind::Baseline);
        assert_ne!(base, store.job_key(&cfg, &other_load));
        assert_ne!(base, store.job_key(&cfg.clone().with_accesses(1), &job));
        let mut other_sys = cfg.clone();
        other_sys.system.l2.capacity_bytes *= 2;
        assert_ne!(base, store.job_key(&other_sys, &job));
        let mut other_sim = cfg.clone();
        other_sim.sim.stream_lookahead += 1;
        assert_ne!(base, store.job_key(&other_sim, &job));
        // A collection job never aliases a replay of the same workload.
        let collect = JobSpec::collect_misses(presets::web_apache());
        assert_ne!(base, store.job_key(&cfg, &collect));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_across_stores_and_tiers() {
        let dir = temp_dir("round-trip");
        let cfg = ExperimentConfig::quick();
        let job = JobSpec::replay(presets::oltp_db2(), PrefetcherKind::ideal());
        let output = sample_output(&job);

        let first = ResultStore::open(&dir).unwrap();
        let key = first.job_key(&cfg, &job);
        assert!(first.get(key, &cfg, &job).is_none());
        first.put(key, &output);
        // Memory-tier hit.
        let hit = first.get(key, &cfg, &job).expect("memoized");
        assert_eq!(hit.into_sim().cycles, 1234);
        let stats = first.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));

        // A fresh store on the same directory: disk-tier hit, verified.
        let second = ResultStore::open(&dir).unwrap().with_verify(true);
        let hit = second.get(key, &cfg, &job).expect("persisted");
        assert_eq!(hit.into_sim().instructions, 5678);
        let stats = second.stats();
        assert_eq!((stats.disk_hits, stats.hits, stats.misses), (1, 0, 0));
        // And the second lookup is served from memory.
        second.get(key, &cfg, &job).expect("now in memory");
        assert_eq!(second.stats().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn miss_sequences_round_trip() {
        let dir = temp_dir("miss-seqs");
        let cfg = ExperimentConfig::quick();
        let job = JobSpec::collect_misses(presets::web_apache());
        let seqs: Vec<Vec<LineAddr>> = (0..presets::web_apache().cores)
            .map(|c| {
                (0..5)
                    .map(|i| LineAddr::new((c * 100 + i) as u64))
                    .collect()
            })
            .collect();

        let store = ResultStore::open(&dir).unwrap();
        let key = store.job_key(&cfg, &job);
        store.put(key, &JobOutput::MissSequences(seqs.clone()));

        let warm = ResultStore::open(&dir).unwrap().with_verify(true);
        let back = warm
            .get(key, &cfg, &job)
            .expect("persisted")
            .into_miss_sequences();
        assert_eq!(back, seqs);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_sizes_miss_sequences_by_system_cores_not_workload_cores() {
        // The collector emits one sequence per *simulated system* core;
        // a workload whose own core count differs must still verify.
        let dir = temp_dir("cores");
        let cfg = ExperimentConfig::quick();
        let mut spec = presets::web_apache();
        spec.cores = 1;
        assert_ne!(spec.cores, cfg.system.cores, "the interesting case");
        let job = JobSpec::collect_misses(spec);
        let seqs: Vec<Vec<LineAddr>> = (0..cfg.system.cores)
            .map(|c| vec![LineAddr::new(c as u64)])
            .collect();

        let store = ResultStore::open(&dir).unwrap();
        let key = store.job_key(&cfg, &job);
        store.put(key, &JobOutput::MissSequences(seqs));

        let verifying = ResultStore::open(&dir).unwrap().with_verify(true);
        assert!(
            verifying.get(key, &cfg, &job).is_some(),
            "a valid entry must not be treated as corrupt"
        );
        assert_eq!(verifying.stats().corrupt, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_fall_back_to_a_miss() {
        let dir = temp_dir("corrupt");
        let cfg = ExperimentConfig::quick();
        let job = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let store = ResultStore::open(&dir).unwrap();
        let key = store.job_key(&cfg, &job);
        store.put(key, &sample_output(&job));

        let path = store.result_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let fresh = ResultStore::open(&dir).unwrap();
        assert!(fresh.get(key, &cfg, &job).is_none());
        let stats = fresh.stats();
        assert_eq!((stats.corrupt, stats.misses), (1, 1));
        assert!(!path.is_file(), "corrupt entry must be evicted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_store_memoizes_without_touching_disk() {
        let dir = temp_dir("memo-only");
        let cfg = ExperimentConfig::quick();
        let job = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let store = ResultStore::open(&dir).unwrap();
        let key = store.job_key(&cfg, &job);
        assert!(store.get(key, &cfg, &job).is_none());
        store.put(key, &sample_output(&job));
        // With the directory gone, the hit can only come from memory.
        fs::remove_dir_all(&dir).unwrap();
        let hit = store.get(key, &cfg, &job).expect("memoized");
        assert_eq!(hit.into_sim().cycles, 1234);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.disk_hits), (1, 1, 0));
        // A second store shares no memory tier: no hidden global state.
        let other_dir = temp_dir("memo-only-other");
        let other = ResultStore::open(&other_dir).unwrap();
        assert!(other.get(key, &cfg, &job).is_none());
        let _ = fs::remove_dir_all(&other_dir);
    }

    #[test]
    fn memory_tier_evicts_least_recently_used_past_its_byte_budget() {
        let dir = temp_dir("memo-lru");
        let cfg = ExperimentConfig::quick();
        let jobs: Vec<JobSpec> = [
            presets::web_apache(),
            presets::oltp_db2(),
            presets::web_zeus(),
        ]
        .into_iter()
        .map(|spec| JobSpec::replay(spec, PrefetcherKind::Baseline))
        .collect();
        let outputs: Vec<JobOutput> = jobs.iter().map(sample_output).collect();
        let one_entry = outputs[0].encode().len() as u64;
        // Budget fits two entries but not three.
        let store = ResultStore::open(&dir)
            .unwrap()
            .with_memory_budget(one_entry * 5 / 2);
        let keys: Vec<Fingerprint> = jobs.iter().map(|job| store.job_key(&cfg, job)).collect();

        store.put(keys[0], &outputs[0]);
        store.put(keys[1], &outputs[1]);
        assert_eq!(store.stats().memo_evictions, 0);
        // Touch key 0 so key 1 is the least recently used…
        assert!(store.get(keys[0], &cfg, &jobs[0]).is_some());
        // …then overflow: key 1 must go, keys 0 and 2 must stay.
        store.put(keys[2], &outputs[2]);
        let stats = store.stats();
        assert_eq!(stats.memo_evictions, 1);
        assert!(stats.memo_bytes <= one_entry * 5 / 2);
        assert!(store.get(keys[0], &cfg, &jobs[0]).is_some());
        assert!(store.get(keys[2], &cfg, &jobs[2]).is_some());
        assert_eq!(store.stats().disk_hits, 0, "survivors hit in memory");
        assert!(store.get(keys[1], &cfg, &jobs[1]).is_some());
        assert_eq!(
            store.stats().disk_hits,
            1,
            "the evicted entry comes from disk"
        );

        // An entry larger than the whole budget still memoizes (the tier
        // never evicts the entry it just inserted).
        let tiny = ResultStore::open(&dir).unwrap().with_memory_budget(1);
        tiny.put(keys[0], &outputs[0]);
        assert!(tiny.get(keys[0], &cfg, &jobs[0]).is_some());
        assert_eq!(tiny.stats().hits, 1, "served from memory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_backfills_entries_the_memory_tier_evicted() {
        let dir = temp_dir("memo-backfill");
        let cfg = ExperimentConfig::quick();
        let jobs: Vec<JobSpec> = [presets::web_apache(), presets::oltp_db2()]
            .into_iter()
            .map(|spec| JobSpec::replay(spec, PrefetcherKind::Baseline))
            .collect();
        let outputs: Vec<JobOutput> = jobs.iter().map(sample_output).collect();
        let one_entry = outputs[0].encode().len() as u64;
        // Room for one entry only: the second put evicts the first.
        let store = ResultStore::open(&dir)
            .unwrap()
            .with_memory_budget(one_entry * 3 / 2);
        let keys: Vec<Fingerprint> = jobs.iter().map(|job| store.job_key(&cfg, job)).collect();
        store.put(keys[0], &outputs[0]);
        store.put(keys[1], &outputs[1]);
        assert_eq!(store.stats().memo_evictions, 1);
        // The evicted output is still served — from disk — and re-promoted.
        assert!(store.get(keys[0], &cfg, &jobs[0]).is_some());
        let stats = store.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.misses, 0, "the disk tier subsumes the eviction");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_rejects_outputs_that_mismatch_the_job() {
        let dir = temp_dir("verify");
        let cfg = ExperimentConfig::quick();
        let job = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let store = ResultStore::open(&dir).unwrap();
        let key = store.job_key(&cfg, &job);
        // Persist an output whose labels do not match the job (as if the
        // labelling scheme changed since the file was written).
        let mut wrong = sample_output(&job).into_sim();
        wrong.workload = "Somebody Else".into();
        store.put(key, &JobOutput::Sim(wrong));

        let trusting = ResultStore::open(&dir).unwrap();
        assert!(trusting.get(key, &cfg, &job).is_some());
        let verifying = ResultStore::open(&dir).unwrap().with_verify(true);
        assert!(verifying.get(key, &cfg, &job).is_none());
        assert_eq!(verifying.stats().corrupt, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
