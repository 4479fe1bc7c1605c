//! Distributed campaign sharding: deterministic job partitioning, sealed
//! shard manifests, and manifest merging.
//!
//! A cold `--figures all` campaign is embarrassingly parallel — the grid is
//! an ordered list of independent jobs and the render stage is pure — but
//! until this module it could only fan out across the threads of one
//! process. Sharding splits the *generate/replay* stage across processes
//! (or CI shards, or machines) the same way the paper splits its meta-data
//! lifecycle into independently schedulable stages:
//!
//! 1. **Partition.** Every job has a stable content fingerprint
//!    ([`super::job::job_fingerprint`]). Under the default *count* balance
//!    a [`ShardSpec`] `I/N` owns exactly the jobs whose
//!    `fingerprint % N == I - 1`; under *cost* balance
//!    ([`super::cost::partition`]) ownership comes from deterministic
//!    greedy bin-packing of predicted job costs. Either way the partition
//!    is a pure function of the distinct job set, so for any job list and
//!    any `N` the shards are disjoint, cover every job, and agree across
//!    processes and job-list orderings — no coordination, no shared state.
//!    The mode is sealed into every manifest and cross-checked at merge.
//! 2. **Execute & seal.** [`super::Campaign::run_shard`] runs only the owned
//!    slice and seals the finished outputs into a versioned
//!    [`stms_types::ShardManifest`] (`shard-I-of-N.stms`), each entry keyed
//!    by its job fingerprint.
//! 3. **Merge & render.** [`super::Campaign::merge_shards`] re-derives the
//!    full job list from the same figure selection, validates the manifest
//!    set ([`MergeError`]: stale configuration, disagreeing shard counts,
//!    duplicate shards or jobs, incomplete coverage), hydrates every
//!    output, and runs the unchanged pure render stage — producing stdout
//!    byte-identical to a single-process run.
//!
//! Because both the partition and the manifest entries key on the same
//! fingerprints as the persistent [`super::ResultStore`], shards can also
//! share one `--result-cache` directory; the manifest is the *hand-off*
//! artifact, the cache the *memo*.

use super::job::{job_fingerprint, DecodeJobOutputError, JobSpec};
use crate::system::ExperimentConfig;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use stms_types::{
    Fingerprint, Fingerprintable, ManifestError, ShardBalance, ShardJobTiming, ShardManifest,
};

/// One slice of an `N`-way partition: 1-based `index` out of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// Creates a shard spec, validating `1 <= index <= count`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for out-of-range coordinates.
    pub fn new(index: u32, count: u32) -> Result<Self, String> {
        if count == 0 || index == 0 || index > count {
            return Err(format!(
                "shard index must satisfy 1 <= I <= N, got {index}/{count}"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the CLI form `I/N`, e.g. `"2/4"`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for malformed or out-of-range input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("shard must be of the form I/N, got `{text}`"))?;
        let parse = |part: &str, what: &str| -> Result<u32, String> {
            part.trim()
                .parse()
                .map_err(|_| format!("shard {what} must be a number, got `{part}`"))
        };
        Self::new(parse(index, "index")?, parse(count, "count")?)
    }

    /// Whether this shard owns the job with the given stable fingerprint.
    ///
    /// Ownership is a pure function of `(fingerprint, count)`, so any two
    /// processes partitioning the same job list agree without coordinating,
    /// and reordering the job list cannot move a job between shards.
    pub fn owns(&self, fingerprint: Fingerprint) -> bool {
        fingerprint.raw() % u128::from(self.count) == u128::from(self.index - 1)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The stable fingerprint of every job of a flattened grid, in job order
/// (one entry per *planned* job, duplicates included). Computed once and
/// threaded through partitioning, manifest sealing, and merge hydration so
/// no stage re-derives it.
pub fn job_fingerprints(cfg: &ExperimentConfig, jobs: &[JobSpec]) -> Vec<Fingerprint> {
    jobs.iter().map(|job| job_fingerprint(cfg, job)).collect()
}

/// The distinct jobs of a flattened campaign grid, in first-occurrence
/// order, each with its stable fingerprint.
///
/// Figures share cells (the baseline replay of one workload appears in
/// several plans); partitioning and manifests operate on the *distinct* job
/// set so a shared cell is executed once and hydrated into every figure
/// that planned it.
pub fn distinct_jobs(cfg: &ExperimentConfig, jobs: &[JobSpec]) -> Vec<(Fingerprint, JobSpec)> {
    distinct_with(&job_fingerprints(cfg, jobs), jobs)
}

/// [`distinct_jobs`] over fingerprints the caller already computed
/// (`fingerprints[i]` must belong to `jobs[i]`).
pub fn distinct_with(
    fingerprints: &[Fingerprint],
    jobs: &[JobSpec],
) -> Vec<(Fingerprint, JobSpec)> {
    let mut seen = HashMap::new();
    let mut distinct = Vec::new();
    for (fingerprint, job) in fingerprints.iter().zip(jobs) {
        if seen.insert(*fingerprint, ()).is_none() {
            distinct.push((*fingerprint, job.clone()));
        }
    }
    distinct
}

/// Writes a sealed manifest into `dir` (created if needed) under its
/// conventional name (`shard-I-of-N.stms`), atomically (unique temp file,
/// then rename). Returns the final path and the sealed size in bytes.
///
/// # Errors
///
/// Returns the I/O error from creating the directory or publishing the
/// file. Unlike the result cache, manifest persistence is a *correctness*
/// dependency — a shard whose manifest cannot be written has produced
/// nothing — so failures surface instead of being swallowed.
pub fn write_manifest(dir: &Path, manifest: &ShardManifest) -> io::Result<(PathBuf, u64)> {
    fs::create_dir_all(dir)?;
    let sealed = manifest.seal();
    let path = dir.join(manifest.file_name());
    let tmp = dir.join(super::result_store::unique_tmp_name(
        ShardManifest::seal_key(manifest.config, manifest.index, manifest.count),
    ));
    fs::write(&tmp, &sealed)
        .and_then(|()| fs::rename(&tmp, &path))
        .inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })?;
    Ok((path, sealed.len() as u64))
}

/// Lists the manifest files (`shard-*.stms`) of one shard directory, sorted
/// by file name for deterministic validation order.
///
/// # Errors
///
/// Returns [`MergeError::Io`] when the directory cannot be read.
pub fn list_manifests(dir: &Path) -> Result<Vec<PathBuf>, MergeError> {
    let entries = fs::read_dir(dir).map_err(|e| MergeError::Io {
        path: dir.to_path_buf(),
        error: e.to_string(),
    })?;
    let mut paths = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| MergeError::Io {
            path: dir.to_path_buf(),
            error: e.to_string(),
        })?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("shard-") && name.ends_with(".stms") {
            paths.push(entry.path());
        }
    }
    paths.sort();
    Ok(paths)
}

/// Where one job's encoded output lives on disk: which manifest file, and
/// the payload's exact byte range inside it. The merge indexes these
/// instead of materializing payload bytes, so its resident set tracks the
/// live figure window no matter how large the manifests are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PayloadRef {
    /// Owning shard index (for duplicate-job diagnostics).
    shard: u32,
    /// Index into [`MergedShards::sources`].
    source: u32,
    /// Absolute byte offset of the payload within the sealed file.
    offset: u64,
    /// Payload length in bytes.
    len: u64,
}

/// A validated set of shard manifests, ready to hydrate job outputs.
#[derive(Debug)]
pub struct MergedShards {
    count: u32,
    balance: ShardBalance,
    // Manifest indices seen, sorted (a shard owning no jobs still seals an
    // empty manifest and counts as present).
    present: Vec<u32>,
    // The manifest files, in validation order; payload refs index into
    // this list.
    sources: Vec<PathBuf>,
    // Job fingerprint -> where its encoded output lives.
    outputs: HashMap<Fingerprint, PayloadRef>,
    // Every shard's per-job phase timings, concatenated in manifest order.
    timings: Vec<ShardJobTiming>,
}

impl MergedShards {
    /// Loads and cross-validates every manifest found in `dirs` against the
    /// merging campaign's configuration. Each manifest is *streamed*
    /// ([`ShardManifest::scan`]): validation touches every byte (framing,
    /// checksums, duplicates) but retains only `(fingerprint, offset, len)`
    /// per entry — payload bytes are read back on demand by
    /// [`MergedShards::take_payload`].
    ///
    /// The same directory may be listed more than once (duplicate *paths*
    /// are ignored); two different files claiming the same shard index are
    /// a [`MergeError::DuplicateShard`], and manifests partitioned under
    /// different balance modes are a [`MergeError::BalanceMismatch`].
    ///
    /// # Errors
    ///
    /// See [`MergeError`]. Coverage of a concrete job list is checked
    /// separately by [`MergedShards::check_coverage`], since manifests may
    /// legitimately carry more jobs than a narrower merge selection needs.
    pub fn load(cfg: &ExperimentConfig, dirs: &[PathBuf]) -> Result<Self, MergeError> {
        let expected_config = cfg.fingerprint();
        let mut paths = Vec::new();
        for dir in dirs {
            paths.extend(list_manifests(dir)?);
        }
        paths.sort();
        paths.dedup();
        if paths.is_empty() {
            return Err(MergeError::NoManifests {
                dirs: dirs.to_vec(),
            });
        }
        let mut count: Option<u32> = None;
        let mut balance: Option<ShardBalance> = None;
        let mut seen_shards: HashMap<u32, PathBuf> = HashMap::new();
        let mut sources: Vec<PathBuf> = Vec::new();
        let mut outputs: HashMap<Fingerprint, PayloadRef> = HashMap::new();
        let mut timings: Vec<ShardJobTiming> = Vec::new();
        for path in paths {
            let file = fs::File::open(&path).map_err(|e| MergeError::Io {
                path: path.clone(),
                error: e.to_string(),
            })?;
            let source = sources.len() as u32;
            // Entry keys are collected first (the scan hands out entries
            // before its own shard header is returned), then filed under
            // the validated shard index.
            let mut entries: Vec<(Fingerprint, u64, u64)> = Vec::new();
            let scan = ShardManifest::scan(io::BufReader::new(file), |entry| {
                entries.push((entry.fingerprint, entry.offset, entry.payload.len() as u64));
            })
            .map_err(|error| MergeError::Manifest {
                path: path.clone(),
                error,
            })?;
            if scan.config != expected_config {
                return Err(MergeError::StaleConfig {
                    path,
                    expected: expected_config,
                    found: scan.config,
                });
            }
            let expected_count = *count.get_or_insert(scan.count);
            if scan.count != expected_count {
                return Err(MergeError::CountMismatch {
                    path,
                    expected: expected_count,
                    found: scan.count,
                });
            }
            let expected_balance = *balance.get_or_insert(scan.balance);
            if scan.balance != expected_balance {
                return Err(MergeError::BalanceMismatch {
                    path,
                    expected: expected_balance,
                    found: scan.balance,
                });
            }
            if let Some(first) = seen_shards.insert(scan.index, path.clone()) {
                return Err(MergeError::DuplicateShard {
                    index: scan.index,
                    count: scan.count,
                    first,
                    second: path,
                });
            }
            timings.extend(scan.timings);
            for (fingerprint, offset, len) in entries {
                if let Some(existing) = outputs.get(&fingerprint) {
                    return Err(MergeError::DuplicateJob {
                        fingerprint,
                        shards: (existing.shard, scan.index),
                    });
                }
                outputs.insert(
                    fingerprint,
                    PayloadRef {
                        shard: scan.index,
                        source,
                        offset,
                        len,
                    },
                );
            }
            sources.push(path);
        }
        let mut present: Vec<u32> = seen_shards.into_keys().collect();
        present.sort_unstable();
        Ok(MergedShards {
            count: count.expect("at least one manifest"),
            balance: balance.expect("at least one manifest"),
            present,
            sources,
            outputs,
            timings,
        })
    }

    /// The shard count the manifests agree on.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The balance mode the manifests agree on.
    pub fn balance(&self) -> ShardBalance {
        self.balance
    }

    /// Number of distinct job outputs carried by the manifest set.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the manifest set carries no outputs.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// The shard indices present in the set, sorted.
    pub fn present_shards(&self) -> &[u32] {
        &self.present
    }

    /// The per-job phase timings carried by the manifest set, in manifest
    /// order. A timing describes a job its shard actually *executed*, so
    /// deduplicated or memo-served jobs contribute no entry.
    pub fn timings(&self) -> &[ShardJobTiming] {
        &self.timings
    }

    /// Checks that every planned distinct job has an output in the set.
    ///
    /// # Errors
    ///
    /// [`MergeError::IncompleteCoverage`], naming an example missing job and
    /// every absent shard index.
    pub fn check_coverage(&self, distinct: &[(Fingerprint, JobSpec)]) -> Result<(), MergeError> {
        let missing: Vec<&(Fingerprint, JobSpec)> = distinct
            .iter()
            .filter(|(fingerprint, _)| !self.outputs.contains_key(fingerprint))
            .collect();
        if let Some((fingerprint, job)) = missing.first() {
            let present = self.present_shards();
            let missing_shards = (1..=self.count)
                .filter(|index| !present.contains(index))
                .collect();
            return Err(MergeError::IncompleteCoverage {
                missing_jobs: missing.len(),
                example: job.label(),
                example_fingerprint: *fingerprint,
                missing_shards,
            });
        }
        Ok(())
    }

    /// Removes and returns one job's encoded payload — the compaction hook:
    /// the streaming merge takes each payload when its first consuming
    /// figure decodes it (and drops the decode after the last consumer), so
    /// peak merge memory tracks the *live* figure window instead of the
    /// whole campaign grid.
    ///
    /// The payload bytes are read back from the manifest file here, on
    /// demand — [`MergedShards::load`] validated the file's framing and
    /// checksums but kept only the byte range. A file mutated between load
    /// and read-back surfaces as [`MergeError::Io`] or as a decode failure
    /// downstream; it cannot silently corrupt a figure, because every
    /// payload still passes [`super::JobOutput::decode`]'s own checks.
    pub fn take_payload(
        &mut self,
        fingerprint: Fingerprint,
    ) -> Option<Result<Vec<u8>, MergeError>> {
        let entry = self.outputs.remove(&fingerprint)?;
        let path = &self.sources[entry.source as usize];
        let read = || -> io::Result<Vec<u8>> {
            let mut file = fs::File::open(path)?;
            file.seek(SeekFrom::Start(entry.offset))?;
            let mut payload = vec![0u8; entry.len as usize];
            file.read_exact(&mut payload)?;
            Ok(payload)
        };
        Some(read().map_err(|e| MergeError::Io {
            path: path.clone(),
            error: e.to_string(),
        }))
    }
}

/// Why a set of shard manifests could not be merged.
///
/// Every variant names the file, shard, or job at fault, so a failed CI
/// merge is diagnosable from the log line alone.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// A shard directory or manifest file could not be read.
    Io {
        /// The unreadable path.
        path: PathBuf,
        /// The rendered I/O error.
        error: String,
    },
    /// A manifest file failed to unseal or decode.
    Manifest {
        /// The unusable file.
        path: PathBuf,
        /// Why it could not be opened.
        error: ManifestError,
    },
    /// No `shard-*.stms` file was found in any given directory.
    NoManifests {
        /// The directories that were searched.
        dirs: Vec<PathBuf>,
    },
    /// A manifest was produced under a different campaign configuration
    /// (system model, engine options, or trace length) than the merge's.
    StaleConfig {
        /// The stale file.
        path: PathBuf,
        /// The merging campaign's configuration fingerprint.
        expected: Fingerprint,
        /// The fingerprint the manifest was sealed under.
        found: Fingerprint,
    },
    /// Two manifests disagree about the total shard count.
    CountMismatch {
        /// The disagreeing file.
        path: PathBuf,
        /// Count claimed by the manifests seen so far.
        expected: u32,
        /// Count claimed by this file.
        found: u32,
    },
    /// Two manifests were partitioned under different balance modes —
    /// their ownership functions disagree, so their union cannot be a
    /// consistent partition.
    BalanceMismatch {
        /// The disagreeing file.
        path: PathBuf,
        /// Balance mode claimed by the manifests seen so far.
        expected: ShardBalance,
        /// Balance mode claimed by this file.
        found: ShardBalance,
    },
    /// Two manifest files claim the same shard index.
    DuplicateShard {
        /// The repeated index.
        index: u32,
        /// The agreed shard count.
        count: u32,
        /// The file seen first.
        first: PathBuf,
        /// The file seen second.
        second: PathBuf,
    },
    /// The same job fingerprint appears in two different shards — the
    /// manifests were not produced by one consistent partition.
    DuplicateJob {
        /// The repeated job fingerprint.
        fingerprint: Fingerprint,
        /// The two shard indices carrying it.
        shards: (u32, u32),
    },
    /// Some planned jobs have no output in the manifest set.
    IncompleteCoverage {
        /// How many planned jobs are missing.
        missing_jobs: usize,
        /// Label of one missing job.
        example: String,
        /// Fingerprint of that job.
        example_fingerprint: Fingerprint,
        /// Shard indices absent from the set (empty when every shard is
        /// present but outputs are still missing, e.g. a partial shard run).
        missing_shards: Vec<u32>,
    },
    /// A manifest entry's payload failed to decode as a job output.
    BadOutput {
        /// The entry's job fingerprint.
        fingerprint: Fingerprint,
        /// Why the payload could not be decoded.
        error: DecodeJobOutputError,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Io { path, error } => {
                write!(f, "cannot read `{}`: {error}", path.display())
            }
            MergeError::Manifest { path, error } => {
                write!(f, "unusable shard manifest `{}`: {error}", path.display())
            }
            MergeError::NoManifests { dirs } => {
                write!(f, "no shard manifest (shard-*.stms) found in:")?;
                for dir in dirs {
                    write!(f, " `{}`", dir.display())?;
                }
                Ok(())
            }
            MergeError::StaleConfig {
                path,
                expected,
                found,
            } => write!(
                f,
                "stale shard manifest `{}`: sealed under config {found}, \
                 this campaign is config {expected}",
                path.display()
            ),
            MergeError::CountMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "shard manifest `{}` claims {found} total shards, \
                 other manifests claim {expected}",
                path.display()
            ),
            MergeError::BalanceMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "shard manifest `{}` was partitioned by {found}, \
                 other manifests by {expected}",
                path.display()
            ),
            MergeError::DuplicateShard {
                index,
                count,
                first,
                second,
            } => write!(
                f,
                "duplicate shard {index}/{count}: `{}` and `{}`",
                first.display(),
                second.display()
            ),
            MergeError::DuplicateJob {
                fingerprint,
                shards: (a, b),
            } => write!(
                f,
                "job fingerprint {fingerprint} appears in shard {a} and shard {b} \
                 (inconsistent partition)"
            ),
            MergeError::IncompleteCoverage {
                missing_jobs,
                example,
                example_fingerprint,
                missing_shards,
            } => {
                write!(
                    f,
                    "incomplete shard coverage: {missing_jobs} job(s) missing, \
                     e.g. `{example}` [fp {example_fingerprint}]"
                )?;
                if !missing_shards.is_empty() {
                    write!(f, "; absent shard(s):")?;
                    for index in missing_shards {
                        write!(f, " {index}")?;
                    }
                }
                Ok(())
            }
            MergeError::BadOutput { fingerprint, error } => write!(
                f,
                "manifest entry [fp {fingerprint}] does not decode: {error}"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PrefetcherKind;
    use stms_workloads::presets;

    #[test]
    fn parse_accepts_valid_and_rejects_malformed_specs() {
        assert_eq!(
            ShardSpec::parse("2/4").unwrap(),
            ShardSpec { index: 2, count: 4 }
        );
        assert_eq!(ShardSpec::parse(" 1 / 1 ").unwrap().to_string(), "1/1");
        for bad in ["", "3", "0/2", "3/2", "a/2", "1/b", "1/0", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn every_fingerprint_is_owned_by_exactly_one_shard() {
        for count in [1u32, 2, 3, 7, 16] {
            for raw in [0u128, 1, 2, 99, u128::MAX, 0xdead_beef] {
                let fingerprint = Fingerprint::from_raw(raw);
                let owners: Vec<u32> = (1..=count)
                    .filter(|&index| ShardSpec { index, count }.owns(fingerprint))
                    .collect();
                assert_eq!(owners.len(), 1, "fp {raw} under N={count}: {owners:?}");
            }
        }
    }

    #[test]
    fn distinct_jobs_collapses_repeated_cells_in_first_occurrence_order() {
        let cfg = ExperimentConfig::quick();
        let baseline = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let ideal = JobSpec::replay(presets::web_apache(), PrefetcherKind::ideal());
        let jobs = vec![
            baseline.clone(),
            ideal.clone(),
            baseline.clone(), // fig9 re-plans the table2 baseline cell
            ideal.clone(),
        ];
        let distinct = distinct_jobs(&cfg, &jobs);
        assert_eq!(distinct.len(), 2);
        assert_eq!(distinct[0].0, job_fingerprint(&cfg, &baseline));
        assert_eq!(distinct[1].0, job_fingerprint(&cfg, &ideal));
    }

    #[test]
    fn merge_error_displays_name_the_culprit() {
        let err = MergeError::IncompleteCoverage {
            missing_jobs: 3,
            example: "Web Apache × baseline".into(),
            example_fingerprint: Fingerprint::from_raw(7),
            missing_shards: vec![2],
        };
        let text = err.to_string();
        assert!(text.contains("3 job(s) missing"), "{text}");
        assert!(text.contains("Web Apache × baseline"), "{text}");
        assert!(text.contains("absent shard(s): 2"), "{text}");

        let err = MergeError::DuplicateShard {
            index: 1,
            count: 2,
            first: PathBuf::from("a/shard-1-of-2.stms"),
            second: PathBuf::from("b/shard-1-of-2.stms"),
        };
        assert!(err.to_string().contains("duplicate shard 1/2"));

        let err = MergeError::StaleConfig {
            path: PathBuf::from("x.stms"),
            expected: Fingerprint::from_raw(1),
            found: Fingerprint::from_raw(2),
        };
        assert!(err.to_string().contains("stale"), "{err}");
    }
}
