//! The correctness gate: invariants every job output must satisfy, and a
//! deterministic digest over all outputs.
//!
//! Each job is one operation. A job that panicked, broke an invariant, or
//! whose output differs from another execution of the same job (a repeat,
//! a run on another thread count, or a result decoded from the cache)
//! counts as failed. At seed 0 the digest must also equal the one recorded
//! in `expected_digests.txt`, so a change meant only to make the simulator
//! faster cannot silently change a simulated statistic.

use crate::inputs::Scale;
use stms_mem::SimResult;
use stms_sim::{ExperimentConfig, JobError, JobOutput, JobSpec, JobTask};
use stms_types::{Fingerprint, Fingerprinter};

/// Seed-0 digests, one `workload digest` pair per line.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// The recorded seed-0 digest of `workload`, if one is recorded.
pub fn expected_digest(workload: &str) -> Option<&'static str> {
    EXPECTED_DIGESTS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next() == Some(workload))
            .then(|| fields.next())
            .flatten()
    })
}

/// Fingerprint of one job output.
pub fn output_hash(output: &JobOutput) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.write_bytes(&output.encode());
    fp.finish()
}

/// The digest of a whole set of outputs: a fingerprint over the per-job
/// fingerprints in job order.
pub fn digest(hashes: &[Fingerprint]) -> String {
    let mut fp = Fingerprinter::new();
    fp.write_usize(hashes.len());
    for hash in hashes {
        fp.write_bytes(&hash.raw().to_le_bytes());
    }
    fp.finish().to_hex()
}

/// Checks the invariants of one replay result of a trace of `trace_len`
/// accesses. Returns the first broken invariant.
pub fn check_sim(cfg: &ExperimentConfig, trace_len: usize, r: &SimResult) -> Result<(), String> {
    let warmup_end = (trace_len as f64 * cfg.sim.warmup_fraction.clamp(0.0, 0.95)) as usize;
    let measured = (trace_len - warmup_end) as u64;
    let in_buffers = (cfg.system.cores * cfg.sim.prefetch_buffer_lines) as u64;
    let served = r.l1_hits
        + r.l2_hits
        + r.uncovered_misses
        + r.covered_full
        + r.covered_partial
        + r.write_misses;
    let checks: [(bool, &str); 9] = [
        (
            r.accesses == measured,
            "measured accesses != replayed after warm-up",
        ),
        (
            served == r.accesses,
            "hit/miss counters do not sum to accesses",
        ),
        (
            r.covered_full + r.covered_partial == r.prefetches_used,
            "covered misses != used prefetches",
        ),
        (
            r.stream_lost_misses <= r.uncovered_misses,
            "stream-lost misses exceed uncovered misses",
        ),
        (
            r.miss_epochs <= r.epoch_misses,
            "more miss epochs than epoch misses",
        ),
        (
            (0.0..=1.0).contains(&r.coverage()),
            "coverage outside [0,1]",
        ),
        // Blocks prefetched during warm-up can be used after it, so used
        // prefetches may exceed issued ones by at most what the prefetch
        // buffers held at the boundary.
        (
            r.prefetches_used <= r.prefetches_issued + in_buffers,
            "more used prefetches than issued ones plus buffered blocks",
        ),
        (
            r.full_coverage() <= r.coverage(),
            "full coverage exceeds coverage",
        ),
        (
            r.cycles > 0 && r.instructions >= r.accesses,
            "no cycles or fewer instructions than accesses",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("{} / {}: {what}", r.workload, r.prefetcher)),
        None => Ok(()),
    }
}

/// Checks one job's output against the job that produced it.
pub fn check_job(cfg: &ExperimentConfig, job: &JobSpec, output: &JobOutput) -> Result<(), String> {
    match (&job.task, output) {
        (JobTask::Replay(_), JobOutput::Sim(r)) => {
            if r.workload != job.workload.name {
                return Err(format!("result of {} names {}", job.label(), r.workload));
            }
            check_sim(cfg, cfg.accesses, r)
        }
        (JobTask::CollectMisses, JobOutput::MissSequences(seqs)) => {
            if seqs.len() == cfg.system.cores && seqs.iter().any(|s| !s.is_empty()) {
                Ok(())
            } else {
                Err(format!("{}: malformed miss sequences", job.label()))
            }
        }
        _ => Err(format!("{}: output of the wrong task", job.label())),
    }
}

/// Accumulates operations and failures across a run, and remembers the
/// per-job hashes of the first passing execution of each job so later
/// executions can be compared against them.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    reference: Vec<Option<Fingerprint>>,
    first_error: Option<String>,
}

impl Gate {
    /// A gate over `jobs` operations per pass.
    pub fn new(jobs: usize) -> Self {
        Gate {
            reference: vec![None; jobs],
            ..Gate::default()
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_error.is_none() {
            eprintln!("perfbench: failed operation: {why}");
            self.first_error = Some(why);
        }
    }

    /// Records operation `slot` of a pass with output hash `hash` after its
    /// own invariants were checked (`checked`). The first execution of a
    /// slot becomes the reference; later ones must match it.
    pub fn record(&mut self, slot: usize, checked: Result<Fingerprint, String>) {
        let hash = match checked {
            Ok(hash) => hash,
            Err(why) => return self.fail(why),
        };
        match self.reference[slot] {
            Some(reference) if reference != hash => self.fail(format!(
                "operation {slot}: output differs between executions"
            )),
            Some(_) => self.attempted += 1,
            None => {
                self.reference[slot] = Some(hash);
                self.attempted += 1;
            }
        }
    }

    /// Records a pass of campaign job outcomes, in job order.
    pub fn record_jobs(
        &mut self,
        cfg: &ExperimentConfig,
        jobs: &[JobSpec],
        outcomes: &[Result<JobOutput, JobError>],
    ) {
        for (slot, (job, outcome)) in jobs.iter().zip(outcomes).enumerate() {
            let checked = match outcome {
                Ok(output) => check_job(cfg, job, output).map(|()| output_hash(output)),
                Err(err) => Err(err.to_string()),
            };
            self.record(slot, checked);
        }
    }

    /// The digest of the reference outputs, once every slot has one.
    pub fn digest(&self) -> Option<String> {
        let hashes: Option<Vec<Fingerprint>> = self.reference.iter().copied().collect();
        hashes.map(|h| digest(&h))
    }

    /// Compares the digest with the recorded seed-0 digest of `workload`
    /// (recorded at [`Scale::BENCH`]); a mismatch (or a missing recording)
    /// fails the operations of the reference pass.
    pub fn check_seed0(&mut self, workload: &str, seed: u64, scale: Scale) {
        if seed != 0 || scale != Scale::BENCH {
            return;
        }
        let found = self.digest();
        let expected = expected_digest(workload);
        if found.is_none() || found.as_deref() != expected {
            eprintln!(
                "perfbench: {workload} seed-0 digest {} != recorded {}",
                found.as_deref().unwrap_or("(incomplete)"),
                expected.unwrap_or("(none)")
            );
            let pass = self.reference.len() as u64;
            self.failed = (self.failed + pass).min(self.attempted.max(pass));
            self.attempted = self.attempted.max(pass);
        }
    }

    /// Compares the digest with one computed by another execution of the
    /// same operations (`what`); a mismatch fails every one of them.
    pub fn expect_digest(&mut self, other: &str, what: &str) {
        let n = self.reference.len() as u64;
        if self.digest().as_deref() == Some(other) {
            self.attempted += n;
        } else {
            eprintln!(
                "perfbench: {what} digest {other} differs from {:?}",
                self.digest()
            );
            self.attempted += n;
            self.failed += n;
        }
    }

    /// Adds the operations of another gate (a different set of slots).
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Whether every attempted operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}
