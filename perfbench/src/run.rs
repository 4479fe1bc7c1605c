//! The untraced runs of the three workloads: every end-to-end metric.

use crate::gate::{check_sim, output_hash, Gate};
use crate::inputs::{grid_jobs, replay_jobs, replay_specs, Family};
use crate::report::{end_to_end_names, peak_rss_mb, reset_peak_rss, Report};
use crate::stats::{lower_quartile, median, Summary};
use crate::{Settings, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use stms_mem::{CmpSimulator, SimResult};
use stms_prefetch::MissTraceCollector;
use stms_sim::{
    run_trace, Campaign, CampaignCacheStats, CampaignCaches, ExperimentConfig, JobError, JobOutput,
    JobSpec, JobTask, ResultStore, TraceStore,
};
use stms_types::Trace;
use stms_workloads::generate;

/// Set-up repetitions of the cheap set-ups (building the job list).
const SETUP_REPS_CHEAP: usize = 51;
/// Set-up repetitions of the set-ups that simulate or generate.
const SETUP_REPS: usize = 3;
/// Minimum timed passes, so every run repeats each job at least once.
const MIN_PASSES: usize = 2;

/// Where runs keep their scratch files: `.bench_tmp/` under the working
/// directory (the checkout the benchmark runs in), one directory per
/// process and purpose, removed when the run ends.
pub fn scratch_dir(purpose: &str) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".bench_tmp")
        .join(format!("{purpose}-{}", std::process::id()));
    // A stale directory of a reused pid would pre-populate the cache.
    remove_scratch(&dir);
    Ok(dir)
}

/// Removes a scratch directory and, when it was the last one, `.bench_tmp`.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Runs `pass` until `seconds` have elapsed and at least [`MIN_PASSES`]
/// passes ran.
pub(crate) fn for_seconds(seconds: f64, mut pass: impl FnMut()) {
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        pass();
        passes += 1;
    }
}

/// Times `f` `reps` times, keeping the last result.
pub(crate) fn repeat_timed<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let started = Instant::now();
        last = Some(f()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), times))
}

/// Campaign outcomes of a job list, in job order.
pub type Outcomes = Vec<Result<JobOutput, JobError>>;

/// One campaign over the whole job list: build it with `make`, run every
/// job through one `Campaign::run_jobs` call, drop it. Returns the
/// outcomes, the wall time in seconds (construction and pool shutdown
/// included) and the campaign's cache counters.
pub fn full_pass(
    make: impl FnOnce() -> Result<Campaign, String>,
    jobs: &[JobSpec],
) -> Result<(Outcomes, f64, CampaignCacheStats), String> {
    let batch = jobs.to_vec();
    let started = Instant::now();
    let campaign = make()?;
    let outcomes = campaign.run_jobs(batch);
    let stats = campaign.cache_stats();
    drop(campaign);
    Ok((outcomes, started.elapsed().as_secs_f64(), stats))
}

/// One pass over a job list with per-job timing: `callers` benchmark
/// threads take jobs in plan order and run each with `run`, so every job's
/// host time is measured by the benchmark.
#[derive(Debug)]
pub struct JobPass {
    /// Outcomes in job order.
    pub outcomes: Outcomes,
    /// Host seconds of each job, in job order.
    pub job_s: Vec<f64>,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
}

/// Runs a [`JobPass`].
pub fn per_job_pass<F>(jobs: &[JobSpec], callers: usize, run: F) -> JobPass
where
    F: Fn(&JobSpec) -> Result<JobOutput, JobError> + Sync,
{
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut done: Vec<(usize, Result<JobOutput, JobError>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break done };
                        let job_started = Instant::now();
                        let outcome = run(job);
                        done.push((i, outcome, job_started.elapsed().as_secs_f64()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("job bodies catch their own panics"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    done.sort_by_key(|(i, _, _)| *i);
    let (outcomes, job_s) = done
        .into_iter()
        .map(|(_, outcome, secs)| (outcome, secs))
        .unzip();
    JobPass {
        outcomes,
        job_s,
        wall_s,
    }
}

/// One job through `campaign`'s own `run_jobs`.
pub fn campaign_job(campaign: &Campaign, job: &JobSpec) -> Result<JobOutput, JobError> {
    campaign
        .run_jobs(vec![job.clone()])
        .pop()
        .expect("one job in, one outcome out")
}

/// One cold job on the calling thread, through the public functions a
/// campaign worker calls: the trace from the shared `store` (generated by
/// the first job that needs it), then the replay or the miss capture.
fn direct_job(
    cfg: &ExperimentConfig,
    store: &TraceStore,
    job: &JobSpec,
) -> Result<JobOutput, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let trace = store.get_or_generate(&job.workload, cfg.accesses);
        match &job.task {
            JobTask::Replay(kind) => JobOutput::Sim(run_trace(cfg, &trace, kind)),
            JobTask::CollectMisses => {
                let mut collector = MissTraceCollector::new(cfg.system.cores);
                CmpSimulator::new(&cfg.system, cfg.sim).run(&trace, &mut collector);
                JobOutput::MissSequences(collector.all_cores())
            }
        }
    }))
    .map_err(|_| format!("{} panicked", job.label()))
}

/// One warm job on the calling thread: its output from the result store,
/// as a warm campaign worker reads it.
fn cached_job(
    cfg: &ExperimentConfig,
    store: &ResultStore,
    job: &JobSpec,
) -> Result<JobOutput, String> {
    store
        .get(store.job_key(cfg, job), cfg, job)
        .ok_or_else(|| format!("{} missed the result cache", job.label()))
}

/// A per-job pass of jobs run on the benchmark's threads; outcomes go
/// through the gate, per-job seconds are returned.
fn direct_pass(
    cfg: &ExperimentConfig,
    jobs: &[JobSpec],
    callers: usize,
    gate: &mut Gate,
    run: impl Fn(&JobSpec) -> Result<JobOutput, String> + Sync,
) -> Vec<f64> {
    let pass = per_job_pass(jobs, callers, |job| {
        run(job).map_err(|message| JobError {
            job: job.label(),
            fingerprint: None,
            message,
        })
    });
    gate.record_jobs(cfg, jobs, &pass.outcomes);
    pass.job_s
}

/// Host seconds of each timed cell (one job, or one trace under one
/// family) in every pass.
#[derive(Debug)]
struct Cells {
    family: Vec<Option<Family>>,
    accesses: Vec<usize>,
    secs: Vec<Vec<f64>>,
}

impl Cells {
    fn new(family: Vec<Option<Family>>, accesses: Vec<usize>) -> Self {
        let secs = vec![Vec::new(); family.len()];
        Cells {
            family,
            accesses,
            secs,
        }
    }

    fn grid(jobs: &[JobSpec], accesses: usize) -> Self {
        Cells::new(
            jobs.iter().map(Family::of_job).collect(),
            vec![accesses; jobs.len()],
        )
    }

    fn push_pass(&mut self, secs: &[f64]) {
        for (cell, &s) in self.secs.iter_mut().zip(secs) {
            cell.push(s);
        }
    }

    /// Host ns per simulated access of each family: each cell's lower
    /// quartile over passes, summed over the family's cells and divided by
    /// the accesses those cells simulate. Host noise only ever slows a
    /// cell, and a burst of it disturbs single passes of single cells,
    /// which the lower quartile drops.
    fn family_ns(&self) -> [f64; 5] {
        self.family_ns_by(lower_quartile)
    }

    /// The same per pass (for the notes' median and tail).
    fn family_ns_per_pass(&self) -> [Vec<f64>; 5] {
        let passes = self.secs.first().map_or(0, Vec::len);
        let mut out: [Vec<f64>; 5] = Default::default();
        for pass in 0..passes {
            for (k, ns) in self.family_ns_by(|secs| secs[pass]).into_iter().enumerate() {
                out[k].push(ns);
            }
        }
        out
    }

    fn family_ns_by(&self, pick: impl Fn(&[f64]) -> f64) -> [f64; 5] {
        Family::ALL.map(|family| {
            let (secs, accesses) = (0..self.secs.len())
                .filter(|&c| self.family[c] == Some(family))
                .fold((0.0, 0usize), |(s, a), c| {
                    (s + pick(&self.secs[c]), a + self.accesses[c])
                });
            secs * 1e9 / accesses.max(1) as f64
        })
    }
}

/// STMS coverage relative to idealized TMS, and STMS overhead bytes per
/// useful byte, over `(family, result)` pairs of workloads that ran both.
/// Coverage is aggregated (covered misses over base misses summed across
/// workloads) so workloads with few misses do not dominate.
pub fn stms_quality<'a>(results: impl IntoIterator<Item = (Family, &'a SimResult)>) -> (f64, f64) {
    let mut stms: Vec<&SimResult> = Vec::new();
    let mut ideal: Vec<&SimResult> = Vec::new();
    for (family, result) in results {
        let seen = match family {
            Family::Stms => &mut stms,
            Family::Ideal => &mut ideal,
            _ => continue,
        };
        if !seen.iter().any(|r| r.workload == result.workload) {
            seen.push(result);
        }
    }
    stms.retain(|s| ideal.iter().any(|i| i.workload == s.workload));
    ideal.retain(|i| stms.iter().any(|s| s.workload == i.workload));
    let coverage = |set: &[&SimResult]| {
        let covered: u64 = set.iter().map(|r| r.covered_full + r.covered_partial).sum();
        let base: u64 = set.iter().map(|r| r.base_read_misses()).sum();
        covered as f64 / base.max(1) as f64
    };
    let overhead: u64 = stms.iter().map(|r| r.overhead_bytes()).sum();
    let useful: u64 = stms.iter().map(|r| r.useful_bytes()).sum();
    (
        coverage(&stms) / coverage(&ideal),
        overhead as f64 / useful.max(1) as f64,
    )
}

/// The STMS-default and ideal-TMS results of a grid pass.
fn grid_quality(jobs: &[JobSpec], outcomes: &[Result<JobOutput, JobError>]) -> (f64, f64) {
    let pairs = jobs.iter().zip(outcomes).filter_map(|(job, outcome)| {
        let family = Family::of_job(job)?;
        match (&job.task, outcome) {
            (JobTask::Replay(kind), Ok(JobOutput::Sim(result))) if *kind == family.kind() => {
                Some((family, result))
            }
            _ => None,
        }
    });
    stms_quality(pairs)
}

/// Runs `pass` with the kernel's resident-set high-water mark reset
/// first, returning its output and the pass's peak RSS in MiB.
fn with_peak_rss<T>(pass: impl FnOnce() -> T) -> Result<(T, f64), String> {
    reset_peak_rss();
    let out = pass();
    Ok((out, peak_rss_mb()?))
}

/// Shared tail of every untraced run: the end-to-end metrics. Set-up time
/// is the median of the set-up repetitions. The other host times take the
/// lower quartile over passes (per cell for `ns_per_access`): on a shared
/// host noise only ever adds time, and the notes give each timing's median,
/// tail percentile and sample count besides.
fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    wall_s: &[f64],
    peak_rss_mb: f64,
    accesses_per_pass: f64,
    cells: &Cells,
    quality: (f64, f64),
) {
    let setup = Summary::of(setup_s);
    let wall = Summary::of(wall_s);
    report.note(format!("setup: {}", setup.describe(1.0, "s")));
    report.note(format!("wall: {}", wall.describe(1.0, "s")));
    report.metric("setup_s", setup.median, "s");
    report.metric("wall_s", wall.q1, "s");
    report.metric(
        "sim_maccess_per_s",
        accesses_per_pass / wall.q1 / 1e6,
        "Maccess/s",
    );
    report.metric("peak_rss_mb", peak_rss_mb, "MiB");
    let per_pass = cells.family_ns_per_pass();
    for ((family, ns), passes) in Family::ALL.iter().zip(cells.family_ns()).zip(&per_pass) {
        let name = format!("ns_per_access.{}", family.name());
        report.note(format!(
            "{name} per pass: {}",
            Summary::of(passes).describe(1.0, "ns")
        ));
        report.metric(name, ns, "ns");
    }
    report.metric("stms_coverage_of_ideal", quality.0, "ratio");
    report.metric("stms_meta_overhead", quality.1, "B/B");
    debug_assert_eq!(report.names(), end_to_end_names());
}

/// The one-thread pass of a grid workload, run in a fresh process (this
/// executable with `--one-thread-pass`) so its peak RSS depends neither on
/// which jobs overlap nor on what the allocator kept from earlier passes.
/// Its digest must equal the `nproc`-thread digest.
fn one_thread_child(
    settings: &Settings,
    workload: Workload,
    dir: Option<&Path>,
    gate: &mut Gate,
) -> Result<f64, String> {
    let mut command = std::process::Command::new(&settings.exe);
    command.args([
        "--workload",
        workload.name(),
        "--seed",
        &settings.seed.to_string(),
        "--one-thread-pass",
        &format!(
            "{}:{}",
            settings.scale.grid_accesses, settings.scale.replay_accesses
        ),
    ]);
    if let Some(dir) = dir {
        command.arg("--dir").arg(dir);
    }
    let output = command
        .output()
        .map_err(|e| format!("running {}: {e}", settings.exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| {
        stdout
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .map(str::trim)
    };
    match (
        output.status.success(),
        field("digest "),
        field("peak_rss_mb "),
    ) {
        (true, Some(digest), Some(rss)) => {
            gate.expect_digest(digest, "one-thread pass");
            rss.parse()
                .map_err(|e| format!("one-thread pass printed a bad peak RSS {rss}: {e}"))
        }
        _ => Err(format!(
            "one-thread pass failed: {}",
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

/// The body of `--one-thread-pass`: the workload's jobs on one worker.
/// Returns the digest and this process's peak RSS in MiB.
pub fn one_thread_pass(
    settings: &Settings,
    workload: Workload,
    dir: Option<&Path>,
) -> Result<(String, f64), String> {
    let cfg = settings.scale.grid_cfg();
    let jobs = grid_jobs(&cfg, settings.seed);
    let mut gate = Gate::new(jobs.len());
    let outcomes = match (workload, dir) {
        (Workload::GridCold, _) => Campaign::with_threads(cfg.clone(), 1).run_jobs(jobs.clone()),
        (Workload::GridWarm, Some(dir)) => {
            let campaign = warm_campaign(&cfg, 1, dir)?;
            let outcomes = campaign.run_jobs(jobs.clone());
            check_warm(&mut gate, &campaign.cache_stats());
            outcomes
        }
        _ => return Err(format!("no one-thread pass for {}", workload.name())),
    };
    gate.record_jobs(&cfg, &jobs, &outcomes);
    match gate.digest() {
        Some(digest) if gate.correct() => Ok((digest, peak_rss_mb()?)),
        _ => Err("the one-thread pass failed its own checks".into()),
    }
}

/// `grid-cold`: the full figure grid through a cache-less campaign.
pub fn grid_cold(settings: &Settings) -> Result<(Report, Gate), String> {
    let (seed, threads) = (settings.seed, settings.threads);
    let cfg = settings.scale.grid_cfg();
    let (jobs, setup_s) = repeat_timed(SETUP_REPS_CHEAP, || Ok(grid_jobs(&cfg, seed)))?;
    let mut gate = Gate::new(jobs.len());
    let mut report = Report::default();
    let make = || Ok(Campaign::with_threads(cfg.clone(), threads));
    let mut wall_s = Vec::new();
    let mut cells = Cells::grid(&jobs, cfg.accesses);
    let mut quality = None;
    for_seconds(settings.seconds, || {
        let (outcomes, wall, _) =
            full_pass(make, &jobs).expect("a campaign without caches always opens");
        gate.record_jobs(&cfg, &jobs, &outcomes);
        quality.get_or_insert_with(|| grid_quality(&jobs, &outcomes));
        wall_s.push(wall);
        // Per-job times: the same jobs on the benchmark's own threads
        // through the functions a worker calls, with a fresh trace store so
        // each trace is generated in the pass again.
        let store = TraceStore::new();
        let secs = direct_pass(&cfg, &jobs, threads, &mut gate, |job| {
            direct_job(&cfg, &store, job)
        });
        cells.push_pass(&secs);
    });
    let rss = one_thread_child(settings, Workload::GridCold, None, &mut gate)?;
    gate.check_seed0("grid", seed, settings.scale);
    report.note(format!("digest: {}", gate.digest().unwrap_or_default()));
    let accesses = (jobs.len() * cfg.accesses) as f64;
    let quality = quality.unwrap_or_default();
    end_to_end(
        &mut report,
        &setup_s,
        &wall_s,
        rss,
        accesses,
        &cells,
        quality,
    );
    Ok((report, gate))
}

/// Result-cache-only campaign caches in `dir`.
fn result_cache(dir: &Path) -> CampaignCaches {
    CampaignCaches {
        result_dir: Some(dir.to_path_buf()),
        ..CampaignCaches::default()
    }
}

/// Populates a fresh result cache with the grid (the `grid-warm` set-up),
/// returning the job list and the cold outcomes.
pub fn populate_grid_cache(
    cfg: &ExperimentConfig,
    seed: u64,
    threads: usize,
    dir: &Path,
) -> Result<(Vec<JobSpec>, Outcomes), String> {
    remove_scratch(dir);
    let jobs = grid_jobs(cfg, seed);
    let campaign = Campaign::with_caches(cfg.clone(), threads, result_cache(dir))
        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let outcomes = campaign.run_jobs(jobs.clone());
    Ok((jobs, outcomes))
}

/// A warm campaign on `dir`.
pub fn warm_campaign(
    cfg: &ExperimentConfig,
    threads: usize,
    dir: &Path,
) -> Result<Campaign, String> {
    Campaign::with_caches(cfg.clone(), threads, result_cache(dir))
        .map_err(|e| format!("opening {}: {e}", dir.display()))
}

/// Fails an operation if a warm campaign replayed or generated anything.
pub fn check_warm(gate: &mut Gate, stats: &CampaignCacheStats) {
    let misses = stats.result.map_or(u64::MAX, |r| r.misses);
    if misses != 0 || stats.trace.generated != 0 {
        gate.fail(format!(
            "warm campaign missed the result cache {misses} times and generated {} traces",
            stats.trace.generated
        ));
    }
}

/// `grid-warm`: the same grid served from a result cache populated during
/// set-up.
pub fn grid_warm(settings: &Settings) -> Result<(Report, Gate), String> {
    let dir = scratch_dir("grid-warm")?;
    let outcome = grid_warm_in(settings, &dir);
    remove_scratch(&dir);
    outcome
}

fn grid_warm_in(settings: &Settings, dir: &Path) -> Result<(Report, Gate), String> {
    let (seed, threads) = (settings.seed, settings.threads);
    let cfg = &settings.scale.grid_cfg();
    let ((jobs, cold), setup_s) =
        repeat_timed(SETUP_REPS, || populate_grid_cache(cfg, seed, threads, dir))?;
    let mut gate = Gate::new(jobs.len());
    // The cold outcomes are the reference every warm output must equal.
    gate.record_jobs(cfg, &jobs, &cold);
    let quality = grid_quality(&jobs, &cold);
    let mut report = Report::default();
    let mut wall_s = Vec::new();
    let mut cells = Cells::grid(&jobs, cfg.accesses);
    let mut failure = Ok(());
    for_seconds(settings.seconds, || {
        let warm = || warm_campaign(cfg, threads, dir);
        let pass = full_pass(warm, &jobs).and_then(|(outcomes, wall, stats)| {
            check_warm(&mut gate, &stats);
            gate.record_jobs(cfg, &jobs, &outcomes);
            wall_s.push(wall);
            // Per-job times: each job read back on the benchmark's own
            // threads from a freshly opened store, as a warm worker reads it.
            let store =
                ResultStore::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
            let secs = direct_pass(cfg, &jobs, threads, &mut gate, |job| {
                cached_job(cfg, &store, job)
            });
            cells.push_pass(&secs);
            Ok(())
        });
        if failure.is_ok() {
            failure = pass;
        }
    });
    failure?;
    let rss = one_thread_child(settings, Workload::GridWarm, Some(dir), &mut gate)?;
    gate.check_seed0("grid", seed, settings.scale);
    report.note(format!("digest: {}", gate.digest().unwrap_or_default()));
    let accesses = (jobs.len() * cfg.accesses) as f64;
    end_to_end(
        &mut report,
        &setup_s,
        &wall_s,
        rss,
        accesses,
        &cells,
        quality,
    );
    Ok((report, gate))
}

/// Generates one trace per `replay-long` workload.
pub fn replay_traces(cfg: &ExperimentConfig, seed: u64) -> Vec<Trace> {
    replay_specs(seed)
        .into_iter()
        .map(|spec| generate(&spec.with_accesses(cfg.accesses)))
        .collect()
}

/// Replays `trace` under `family` exactly as `stms_sim::run_trace` does,
/// returning the result (or the panic message) and the host seconds taken,
/// prefetcher construction included.
pub fn replay(
    cfg: &ExperimentConfig,
    trace: &Trace,
    family: Family,
) -> (Result<SimResult, String>, f64) {
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut prefetcher = family.kind().build(cfg.system.cores);
        CmpSimulator::new(&cfg.system, cfg.sim).run(trace, prefetcher.as_mut())
    }));
    let took = started.elapsed().as_secs_f64();
    let panicked = || {
        format!(
            "replay of {} under {} panicked",
            trace.meta().workload,
            family.name()
        )
    };
    (result.map_err(|_| panicked()), took)
}

/// `replay-long`: one long trace per workload class under every family.
pub fn replay_long(settings: &Settings) -> Result<(Report, Gate), String> {
    let seed = settings.seed;
    let cfg = settings.scale.replay_cfg();
    let (traces, setup_s) = repeat_timed(SETUP_REPS, || Ok(replay_traces(&cfg, seed)))?;
    let mut gate = Gate::new(traces.len() * Family::ALL.len());
    let mut report = Report::default();
    let (mut wall_s, mut rss_mb) = (Vec::new(), Vec::new());
    let mut cells = Cells::new(
        traces.iter().flat_map(|_| Family::ALL.map(Some)).collect(),
        traces.iter().flat_map(|t| [t.len(); 5]).collect(),
    );
    let mut results: Vec<(Family, SimResult)> = Vec::new();
    let mut failure = Ok(());
    for_seconds(settings.seconds, || {
        let first = wall_s.is_empty();
        let started = Instant::now();
        // Replays run on this thread one at a time, so a pass's peak RSS
        // is the traces plus the largest replay.
        let pass = with_peak_rss(|| {
            let mut secs = Vec::with_capacity(cells.secs.len());
            for (t, trace) in traces.iter().enumerate() {
                for (f, family) in Family::ALL.into_iter().enumerate() {
                    let (result, took) = replay(&cfg, trace, family);
                    secs.push(took);
                    let checked = result.and_then(|r| {
                        check_sim(&cfg, trace.len(), &r)?;
                        let hash = output_hash(&JobOutput::Sim(r.clone()));
                        if first {
                            results.push((family, r));
                        }
                        Ok(hash)
                    });
                    gate.record(t * Family::ALL.len() + f, checked);
                }
            }
            secs
        });
        let wall = started.elapsed().as_secs_f64();
        match pass {
            Ok((secs, rss)) => {
                cells.push_pass(&secs);
                wall_s.push(wall);
                rss_mb.push(rss);
            }
            Err(why) if failure.is_ok() => failure = Err(why),
            Err(_) => {}
        }
    });
    failure?;
    // The same replays through the campaign on every worker must agree.
    let jobs = replay_jobs(seed);
    let make = || Ok(Campaign::with_threads(cfg.clone(), settings.threads));
    let (outcomes, _, _) = full_pass(make, &jobs)?;
    gate.record_jobs(&cfg, &jobs, &outcomes);
    gate.check_seed0("replay-long", seed, settings.scale);
    report.note(format!("digest: {}", gate.digest().unwrap_or_default()));
    let accesses: usize = traces.iter().map(Trace::len).sum::<usize>() * Family::ALL.len();
    let quality = stms_quality(results.iter().map(|(f, r)| (*f, r)));
    let rss = median(&rss_mb);
    end_to_end(
        &mut report,
        &setup_s,
        &wall_s,
        rss,
        accesses as f64,
        &cells,
        quality,
    );
    Ok((report, gate))
}
