//! The declarative unit of campaign work.
//!
//! A [`JobSpec`] names one simulation the campaign must run — a workload
//! trace replayed under one prefetcher configuration, or a baseline
//! miss-sequence capture — without saying *when* or *where* it runs. The
//! campaign runs the jobs of every figure as one batch on its
//! [`super::JobPool`], so cells of different figures interleave, and
//! resolves each job's trace through the shared [`super::TraceStore`].

use crate::runner::PrefetcherKind;
use crate::system::ExperimentConfig;
use std::fmt;
use std::hash::Hash;
use stms_mem::SimResult;
use stms_types::{Fingerprint, Fingerprinter, LineAddr};

/// What one job computes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JobTask {
    /// Replay the workload's trace with this prefetcher configuration.
    Replay(PrefetcherKind),
    /// Capture the baseline off-chip read-miss sequence of each core
    /// (Figure 6 left's offline stream analysis).
    CollectMisses,
}

/// One schedulable unit: a workload crossed with a task.
///
/// `Hash`/`Eq` are the job's identity: a campaign runs equal jobs once,
/// after setting each spec's trace length to the campaign's.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// The workload whose trace the job replays.
    pub workload: stms_workloads::WorkloadSpec,
    /// What to compute on that trace.
    pub task: JobTask,
}

impl JobSpec {
    /// A replay job.
    pub fn replay(workload: stms_workloads::WorkloadSpec, kind: PrefetcherKind) -> Self {
        JobSpec {
            workload,
            task: JobTask::Replay(kind),
        }
    }

    /// A miss-sequence capture job.
    pub fn collect_misses(workload: stms_workloads::WorkloadSpec) -> Self {
        JobSpec {
            workload,
            task: JobTask::CollectMisses,
        }
    }

    /// The job with every ideal-TMS bound that cannot bind on its trace
    /// set to one canonical value (`usize::MAX`), so that jobs differing
    /// only in such bounds share one key and a campaign runs them once.
    ///
    /// The engine records at most one entry per access, on the accessing
    /// core, and the generator deals accesses to cores round-robin. So a
    /// per-core history of at least
    /// [`max_accesses_per_core`](stms_workloads::WorkloadSpec::max_accesses_per_core)
    /// entries never wraps, and an index of at least `accesses` entries
    /// never evicts: both then behave exactly as the unbounded structures.
    /// A bounded index keeps `Some` and an unbounded one `None`, because
    /// [`IdealTms`](stms_prefetch::IdealTms) names them apart in its
    /// output. Set-associative tables can evict below their total
    /// capacity, so no other family has such a key.
    pub(crate) fn dedup_key(&self) -> JobSpec {
        let JobTask::Replay(PrefetcherKind::IdealTms {
            index_entries,
            history_entries,
        }) = self.task
        else {
            return self.clone();
        };
        let canonical = |bound: usize, fills_at: usize| {
            if bound >= fills_at.max(1) {
                usize::MAX
            } else {
                bound
            }
        };
        let workload = &self.workload;
        let kind = PrefetcherKind::IdealTms {
            index_entries: index_entries.map(|n| canonical(n, workload.accesses)),
            history_entries: canonical(history_entries, workload.max_accesses_per_core()),
        };
        JobSpec::replay(workload.clone(), kind)
    }

    /// Human-readable identity used in error reports, e.g.
    /// `"Web Apache × stms(p=0.125)"`.
    pub fn label(&self) -> String {
        match &self.task {
            JobTask::Replay(kind) => format!("{} × {}", self.workload.name, kind.label()),
            JobTask::CollectMisses => format!("{} × miss-collection", self.workload.name),
        }
    }
}

/// The 128-bit key of one job under one campaign configuration: a
/// [`Fingerprinter`] over the `Hash` of `(spec at the campaign trace
/// length, system model, engine options, task)`. Two jobs produce
/// bit-identical outputs when their keys agree. The [`super::ResultStore`]
/// stores outputs under it and a [`JobError`] names its job by it; it is
/// stable within one binary, not across builds.
pub fn job_fingerprint(cfg: &ExperimentConfig, job: &JobSpec) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    let workload = job.workload.clone().with_accesses(cfg.accesses);
    (&workload, &cfg.system, &cfg.sim, &job.task).hash(&mut fp);
    fp.finish()
}

/// The result of one finished job, mirroring [`JobTask`].
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Result of a [`JobTask::Replay`].
    Sim(SimResult),
    /// Result of a [`JobTask::CollectMisses`]: one miss sequence per core.
    MissSequences(Vec<Vec<LineAddr>>),
}

impl JobOutput {
    /// Unwraps a replay result.
    ///
    /// # Panics
    ///
    /// Panics if the job was a miss collection; a figure's render stage only
    /// sees outputs of the jobs it planned, so a mismatch is a plan bug.
    pub fn into_sim(self) -> SimResult {
        match self {
            JobOutput::Sim(result) => result,
            JobOutput::MissSequences(_) => {
                panic!("plan bug: expected a replay output, got miss sequences")
            }
        }
    }

    /// Unwraps a miss-collection result.
    ///
    /// # Panics
    ///
    /// Panics if the job was a replay (see [`JobOutput::into_sim`]).
    pub fn into_miss_sequences(self) -> Vec<Vec<LineAddr>> {
        match self {
            JobOutput::MissSequences(seqs) => seqs,
            JobOutput::Sim(_) => {
                panic!("plan bug: expected miss sequences, got a replay output")
            }
        }
    }

    /// Encodes the output as a compact binary record (a variant tag followed
    /// by the variant payload), for persistence in the on-disk result cache.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            JobOutput::Sim(result) => {
                let payload = result.encode();
                let mut out = Vec::with_capacity(1 + payload.len());
                out.push(0u8);
                out.extend_from_slice(&payload);
                out
            }
            JobOutput::MissSequences(seqs) => {
                let addrs: usize = seqs.iter().map(Vec::len).sum();
                let mut out = Vec::with_capacity(1 + 8 + seqs.len() * 8 + addrs * 8);
                out.push(1u8);
                out.extend_from_slice(&(seqs.len() as u64).to_le_bytes());
                for core in seqs {
                    out.extend_from_slice(&(core.len() as u64).to_le_bytes());
                    for addr in core {
                        out.extend_from_slice(&addr.raw().to_le_bytes());
                    }
                }
                out
            }
        }
    }

    /// Decodes an output previously produced by [`JobOutput::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeJobOutputError`] for an unknown variant tag or a
    /// malformed payload. Cache readers treat any error as a miss and re-run
    /// the job.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeJobOutputError> {
        let truncated = |what| DecodeJobOutputError::Truncated { what };
        let (&tag, rest) = data.split_first().ok_or(truncated("variant tag"))?;
        match tag {
            0 => Ok(JobOutput::Sim(SimResult::decode(rest)?)),
            1 => {
                let mut data = rest;
                let mut u64_field = |what| -> Result<u64, DecodeJobOutputError> {
                    let (head, rest) = data.split_at_checked(8).ok_or(truncated(what))?;
                    data = rest;
                    Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
                };
                let cores = u64_field("core count")? as usize;
                let mut seqs = Vec::with_capacity(cores.min(1024));
                for _ in 0..cores {
                    let len = u64_field("sequence length")? as usize;
                    let mut seq = Vec::with_capacity(len.min(1 << 20));
                    for _ in 0..len {
                        seq.push(LineAddr::new(u64_field("miss address")?));
                    }
                    seqs.push(seq);
                }
                if !data.is_empty() {
                    return Err(DecodeJobOutputError::TrailingData);
                }
                Ok(JobOutput::MissSequences(seqs))
            }
            tag => Err(DecodeJobOutputError::UnknownVariant { tag }),
        }
    }
}

/// Error returned when [`JobOutput::decode`] is given a malformed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeJobOutputError {
    /// The buffer ended before the named field.
    Truncated {
        /// Which encoded field was cut off.
        what: &'static str,
    },
    /// The leading variant tag named no known [`JobOutput`] variant.
    UnknownVariant {
        /// The unknown tag value.
        tag: u8,
    },
    /// The embedded simulation result was malformed.
    BadSimResult(stms_mem::DecodeResultError),
    /// Extra bytes followed the last field.
    TrailingData,
}

impl From<stms_mem::DecodeResultError> for DecodeJobOutputError {
    fn from(err: stms_mem::DecodeResultError) -> Self {
        DecodeJobOutputError::BadSimResult(err)
    }
}

impl fmt::Display for DecodeJobOutputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeJobOutputError::Truncated { what } => {
                write!(f, "malformed job output: truncated at {what}")
            }
            DecodeJobOutputError::UnknownVariant { tag } => {
                write!(f, "malformed job output: unknown variant tag {tag}")
            }
            DecodeJobOutputError::BadSimResult(err) => {
                write!(f, "malformed job output: {err}")
            }
            DecodeJobOutputError::TrailingData => {
                write!(f, "malformed job output: trailing bytes")
            }
        }
    }
}

impl std::error::Error for DecodeJobOutputError {}

/// A job that failed (its simulation panicked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// `JobSpec::label()` of the failed job.
    pub job: String,
    /// The [`job_fingerprint`] of the failed job, when the caller had a
    /// configuration to derive it from. Rendered in the `Display` output
    /// so a failure in a CI log identifies the exact configuration that
    /// failed.
    pub fingerprint: Option<Fingerprint>,
    /// The captured panic message.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fingerprint {
            Some(fingerprint) => write!(
                f,
                "job `{}` [fp {fingerprint}] failed: {}",
                self.job, self.message
            ),
            None => write!(f, "job `{}` failed: {}", self.job, self.message),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_workloads::presets;

    #[test]
    fn labels_identify_workload_and_task() {
        let replay = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        assert_eq!(replay.label(), "Web Apache × baseline");
        let collect = JobSpec::collect_misses(presets::sci_ocean());
        assert!(collect.label().contains("miss-collection"));
    }

    #[test]
    fn error_display_names_the_job_and_fingerprint() {
        let err = JobError {
            job: "w × k".into(),
            fingerprint: None,
            message: "boom".into(),
        };
        assert_eq!(err.to_string(), "job `w × k` failed: boom");
        let with_fp = JobError {
            fingerprint: Some(Fingerprint::from_raw(0xabcd)),
            ..err
        };
        let text = with_fp.to_string();
        assert!(text.contains("[fp"), "{text}");
        assert!(text.contains("0000000000000000000000000000abcd"), "{text}");
        assert!(text.ends_with("failed: boom"), "{text}");
    }

    #[test]
    fn job_fingerprints_separate_every_dimension_and_ignore_duplicates() {
        let cfg = ExperimentConfig::quick();
        let job = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let base = job_fingerprint(&cfg, &job);
        // Identical job (cloned spec): identical fingerprint.
        assert_eq!(
            base,
            job_fingerprint(
                &cfg,
                &JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline)
            )
        );
        // Any varied dimension changes it.
        assert_ne!(
            base,
            job_fingerprint(
                &cfg,
                &JobSpec::replay(presets::web_apache(), PrefetcherKind::ideal())
            )
        );
        assert_ne!(
            base,
            job_fingerprint(
                &cfg,
                &JobSpec::replay(presets::sci_ocean(), PrefetcherKind::Baseline)
            )
        );
        assert_ne!(base, job_fingerprint(&cfg.clone().with_accesses(1), &job));
        assert_ne!(
            base,
            job_fingerprint(&cfg, &JobSpec::collect_misses(presets::web_apache()))
        );
    }

    #[test]
    #[should_panic(expected = "plan bug")]
    fn mismatched_output_unwrap_panics() {
        JobOutput::MissSequences(Vec::new()).into_sim();
    }
}
