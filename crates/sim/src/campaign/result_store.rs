//! A persistent memo of finished job outputs.
//!
//! A [`ResultStore`] memoizes every [`JobOutput`] (a [`stms_mem::SimResult`]
//! for replay jobs, per-core miss sequences for collection jobs) by its
//! [`super::job_fingerprint`], in a memory tier for repeated cells within
//! one campaign and a disk tier of `result-<fingerprint>.stms` files across
//! campaign processes of the same binary: the fingerprint hashes the `Hash`
//! stream, which a later build may change. Only the benchmark's `grid-warm`
//! workload opens one (through
//! [`super::Campaign::with_caches`]); the `stms-experiments` binary does
//! not, because the key cannot see engine changes: a file written by an
//! older engine is served as if it were current.
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
use std::sync::{Mutex, MutexGuard, PoisonError};
use stms_types::{blob, Fingerprint};

/// Version of the [`JobOutput`] *container* layout (variant tags, the
/// miss-sequence encoding). Bump this when the container itself changes.
const JOB_OUTPUT_CONTAINER_VERSION: u16 = 1;

/// Version stamped on persisted [`JobOutput::encode`] blobs: the container
/// version in the high byte composed with the embedded
/// [`stms_mem::SIM_RESULT_CODEC_VERSION`] in the low byte, so a change to
/// *either* layer turns every old file into a clean version-mismatch miss.
const JOB_OUTPUT_CODEC_VERSION: u16 =
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
}

impl ResultStoreStats {
    /// Total lookups served without running a simulation.
    pub fn total_hits(&self) -> u64 {
        self.hits + self.disk_hits
    }
}

/// A two-tier (memory + disk) memo of job outputs keyed by job
/// fingerprints (see the module-level docs above). The memory tier never
/// evicts: the 293 distinct outputs of the 120,000-access figure grid
/// encode to 244,429 bytes.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    verify: bool,
    memory: Mutex<HashMap<Fingerprint, JobOutput>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    stores: AtomicU64,
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
            memory: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stores: AtomicU64::new(0),
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

    /// The cache key of one job under one campaign configuration: its
    /// [`super::job::job_fingerprint`], a 128-bit hash of the values that
    /// batch dedup compares with `Eq`. Two campaigns of one binary share an
    /// entry exactly when those values are equal.
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
        if let Some(output) = self.memory().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(output.clone());
        }
        match self.load_from_disk(key, cfg, job) {
            Some(output) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.memory().insert(key, output.clone());
                Some(output)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a finished job's output in both tiers. Persistence failures
    /// are swallowed — the cache is an optimization, never a correctness
    /// dependency.
    pub fn put(&self, key: Fingerprint, output: &JobOutput) {
        let encoded = output.encode();
        self.memory().insert(key, output.clone());
        let path = self.result_path(key);
        if write_sealed(&self.dir, &path, JOB_OUTPUT_CODEC_VERSION, key, &encoded) {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Usage counters.
    pub fn stats(&self) -> ResultStoreStats {
        ResultStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }

    fn memory(&self) -> MutexGuard<'_, HashMap<Fingerprint, JobOutput>> {
        self.memory.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn result_path(&self, key: Fingerprint) -> PathBuf {
        self.dir.join(format!(
            "{RESULT_FILE_PREFIX}{}.{CACHE_FILE_EXT}",
            key.to_hex()
        ))
    }

    /// Loads one output from the disk tier.
    fn load_from_disk(
        &self,
        key: Fingerprint,
        cfg: &ExperimentConfig,
        job: &JobSpec,
    ) -> Option<JobOutput> {
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
        output
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
