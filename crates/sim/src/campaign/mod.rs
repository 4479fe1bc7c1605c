//! Campaign orchestration: cached trace generation, bounded scheduling, and
//! declarative figure plans.
//!
//! The paper's evaluation is a `(workload × prefetcher × sweep-point)` grid
//! rendered as 13 tables and figures. This module decomposes the run
//! lifecycle into reusable stages:
//!
//! 1. **Generation** — the [`TraceStore`] generates each distinct workload
//!    trace exactly once per campaign and shares it as a
//!    [`stms_types::SharedTrace`];
//! 2. **Scheduling** — the [`JobPool`] replays figure cells on a bounded
//!    set of worker threads, in plan order, with panic-safe, per-job error
//!    reporting; jobs with equal fingerprints in one batch run once;
//! 3. **Aggregation** — each figure is a declarative [`FigurePlan`]: a list
//!    of [`JobSpec`]s plus a render stage that folds the job outputs into a
//!    [`FigureResult`]. [`Campaign::run_figures`] enqueues the jobs of
//!    *every* requested figure up front, so independent cells from
//!    different figures interleave on the same pool.
//!
//! On top of the per-campaign sharing, a *persistent* result cache
//! (enabled with [`Campaign::with_caches`]) extends the sharing across
//! campaign processes, mirroring how the paper's own meta-data earns its
//! keep by living off-chip and persisting across program runs: the
//! [`ResultStore`] memoizes every finished [`JobOutput`] keyed by the
//! fingerprint of `(spec, trace length, task, system, engine options)`, so
//! a warm re-run (say, after a render-stage tweak) replays nothing. It
//! treats every unreadable, stale or corrupt file as a miss — evict and
//! replay — so a cache directory can never poison a result. Traces are
//! not persisted: regenerating one is cheaper than reading it back.
//!
//! # Example
//!
//! ```no_run
//! use stms_sim::campaign::Campaign;
//! use stms_sim::{experiments, ExperimentConfig};
//!
//! let campaign = Campaign::with_threads(ExperimentConfig::quick(), 2);
//! let plans = vec![
//!     experiments::plan_table2(campaign.cfg()),
//!     experiments::plan_fig4(campaign.cfg()),
//! ];
//! for figure in campaign.run_figures(plans) {
//!     println!("{}", figure.expect("no simulation failed").render());
//! }
//! // Both figures replayed the same eight cached traces:
//! assert_eq!(campaign.store().stats().generated, 8);
//! ```

mod job;
mod pool;
mod result_store;
mod trace_store;

pub use job::{job_fingerprint, DecodeJobOutputError, JobError, JobOutput, JobSpec, JobTask};
pub use pool::{BatchHandle, JobPanic, JobPool};
pub use result_store::{
    ResultStore, ResultStoreStats, DEFAULT_MEMO_BUDGET_BYTES, JOB_OUTPUT_CODEC_VERSION,
};
pub use trace_store::{TraceStore, TraceStoreStats};

use crate::experiments::FigureResult;
use crate::system::ExperimentConfig;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stms_mem::{CmpSimulator, Prefetcher};
use stms_prefetch::MissTraceCollector;
use stms_types::Fingerprint;
use stms_workloads::WorkloadSpec;

/// The render stage of a [`FigurePlan`]: folds the plan's job outputs
/// (delivered in job order) into the rendered figure.
pub type RenderFn = Box<dyn FnOnce(&ExperimentConfig, Vec<JobOutput>) -> FigureResult + Send>;

/// A figure expressed as data: its jobs plus a render stage.
///
/// The jobs say *what* to simulate; the render closure folds the outputs
/// (delivered in job order) into the figure's table. Plans are inert until a
/// [`Campaign`] runs them, which is what lets `run_figures` merge the job
/// lists of many figures into one interleaved batch.
pub struct FigurePlan {
    id: String,
    jobs: Vec<JobSpec>,
    render: RenderFn,
}

impl fmt::Debug for FigurePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FigurePlan")
            .field("id", &self.id)
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl FigurePlan {
    /// Creates a plan. `render` receives one [`JobOutput`] per job, in the
    /// order the jobs appear in `jobs`.
    pub fn new(
        id: impl Into<String>,
        jobs: Vec<JobSpec>,
        render: impl FnOnce(&ExperimentConfig, Vec<JobOutput>) -> FigureResult + Send + 'static,
    ) -> Self {
        FigurePlan {
            id: id.into(),
            jobs,
            render: Box::new(render),
        }
    }

    /// The figure id, e.g. `"fig4"`.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Number of simulation jobs the plan schedules.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The plan's jobs, in schedule order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }
}

/// A figure that could not be completed because jobs failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// Id of the affected figure.
    pub figure: String,
    /// Every failed job, each carrying its stable job fingerprint when one
    /// could be derived.
    pub failures: Vec<JobError>,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "figure `{}`: {} job(s) failed: ",
            self.figure,
            self.failures.len()
        )?;
        for (i, failure) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{failure}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CampaignError {}

/// Persistent-cache configuration of a [`Campaign`].
///
/// The default has no persistence: every campaign replays from scratch.
/// Point `result_dir` at a directory to share job outputs across campaign
/// processes. Traces are never persisted; each campaign regenerates the
/// ones its executing jobs need.
#[derive(Debug, Clone, Default)]
pub struct CampaignCaches {
    /// Directory of the [`ResultStore`] (`--result-cache`).
    pub result_dir: Option<std::path::PathBuf>,
    /// Deep verification of decoded results (`--cache-verify`): cross-check
    /// each loaded output against the job that requested it and replay on
    /// mismatch, instead of trusting the sealed envelope.
    pub verify: bool,
    /// Out-of-core replay (`--stream-traces`): jobs replay traces chunk by
    /// chunk through [`TraceStore::replay_streaming`] instead of holding a
    /// materialized [`stms_types::SharedTrace`], so peak memory is
    /// independent of trace length. Each job streams its own generator.
    /// Rendered output is byte-identical either way.
    pub stream_traces: bool,
}

impl CampaignCaches {
    /// A result cache on `dir`.
    pub fn in_dir(dir: impl Into<std::path::PathBuf>) -> Self {
        CampaignCaches {
            result_dir: Some(dir.into()),
            ..Self::default()
        }
    }
}

/// Combined cache counters of one campaign (see [`Campaign::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignCacheStats {
    /// Trace-tier counters.
    pub trace: TraceStoreStats,
    /// Result-tier counters, when a result cache is configured.
    pub result: Option<ResultStoreStats>,
}

/// Appends the result-cache line (plus the streamed-replay counters when
/// that mode is on) to a stderr `run summary:` block, and, once jobs ran,
/// how many executed and how many shared a duplicate's output
/// (`job flights`), and how many jobs replayed a recorded hierarchy log
/// (`hierarchy logs`, with the logs' total size).
pub fn push_cache_reports(summary: &mut stms_stats::RunSummary, campaign: &Campaign) {
    use stms_stats::{CacheReport, StreamReport};
    let stats = campaign.cache_stats();
    let trace = stats.trace;
    if campaign.store().is_streaming() {
        summary.push_stream(StreamReport {
            replays: trace.stream_replays,
            chunks: trace.stream_chunks,
        });
    }
    if let Some(result) = stats.result {
        summary.push(
            CacheReport::new("result cache", result.total_hits(), result.misses)
                .with_detail("replayed", result.misses)
                .with_detail("disk hits", result.disk_hits)
                .with_detail("stores", result.stores)
                .with_detail("corrupt", result.corrupt),
        );
    }
    let flights = campaign.flight_stats();
    if flights.executed + flights.shared > 0 {
        summary.push(CacheReport::new(
            "job flights",
            flights.shared,
            flights.executed,
        ));
    }
    if trace.logs_recorded > 0 {
        summary.push(
            CacheReport::new("hierarchy logs", trace.log_hits, trace.logs_recorded)
                .with_detail("bytes", trace.log_bytes),
        );
    }
}

/// Batch dedup counters (see [`Campaign::flight_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Jobs this campaign actually simulated (result-cache hits excluded).
    pub executed: u64,
    /// Jobs that took the output of an equal-fingerprint job earlier in the
    /// same batch instead of replaying.
    pub shared: u64,
}

/// The live counters behind [`FlightStats`], shared with the job tasks.
#[derive(Debug, Default)]
struct FlightCounters {
    executed: AtomicU64,
    shared: AtomicU64,
}

/// One experiment campaign: a configuration, a shared trace store, an
/// optional persistent result memo, and a bounded job pool.
#[derive(Debug)]
pub struct Campaign {
    cfg: Arc<ExperimentConfig>,
    store: Arc<TraceStore>,
    results: Option<Arc<ResultStore>>,
    flights: Arc<FlightCounters>,
    pool: JobPool,
}

impl Campaign {
    /// A campaign with one worker per available hardware thread.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Self::with_threads(cfg, JobPool::default_threads())
    }

    /// A campaign with an explicit worker count.
    pub fn with_threads(cfg: ExperimentConfig, threads: usize) -> Self {
        Self::with_caches(cfg, threads, CampaignCaches::default())
            .expect("no cache directories to create")
    }

    /// A campaign with persistent caches (see [`CampaignCaches`]).
    ///
    /// ```
    /// use stms_sim::campaign::{Campaign, CampaignCaches};
    /// use stms_sim::{ExperimentConfig, PrefetcherKind};
    /// use stms_workloads::presets;
    ///
    /// let dir = std::env::temp_dir().join("stms-doc-campaign-with-caches");
    /// std::fs::remove_dir_all(&dir).ok(); // start cold
    /// let cfg = ExperimentConfig::quick().with_accesses(2_000);
    ///
    /// // Cold campaign: generates and replays, then persists the outputs.
    /// let cold = Campaign::with_caches(cfg.clone(), 2, CampaignCaches::in_dir(&dir)).unwrap();
    /// cold.run_matched(&presets::web_apache(), &[PrefetcherKind::Baseline]).unwrap();
    /// assert_eq!(cold.store().stats().generated, 1);
    ///
    /// // Warm campaign (a "new process"): replays nothing at all.
    /// let warm = Campaign::with_caches(cfg, 2, CampaignCaches::in_dir(&dir)).unwrap();
    /// warm.run_matched(&presets::web_apache(), &[PrefetcherKind::Baseline]).unwrap();
    /// assert_eq!(warm.store().stats().generated, 0);
    /// assert_eq!(warm.result_store().unwrap().stats().disk_hits, 1);
    /// std::fs::remove_dir_all(&dir).ok();
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the error from creating the result-cache directory.
    pub fn with_caches(
        cfg: ExperimentConfig,
        threads: usize,
        caches: CampaignCaches,
    ) -> std::io::Result<Self> {
        let store = TraceStore::new().with_streaming(caches.stream_traces);
        let results = match &caches.result_dir {
            Some(dir) => Some(Arc::new(ResultStore::open(dir)?.with_verify(caches.verify))),
            None => None,
        };
        Ok(Campaign {
            cfg: Arc::new(cfg),
            store: Arc::new(store),
            results,
            flights: Arc::new(FlightCounters::default()),
            pool: JobPool::new(threads),
        })
    }

    /// The campaign configuration.
    pub fn cfg(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The shared trace store (inspect [`TraceStore::stats`] after a run to
    /// see the generation-sharing at work).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// The persistent result memo, when one is configured.
    pub fn result_store(&self) -> Option<&ResultStore> {
        self.results.as_deref()
    }

    /// Combined cache counters (for run summaries).
    pub fn cache_stats(&self) -> CampaignCacheStats {
        CampaignCacheStats {
            trace: self.store.stats(),
            result: self.results.as_ref().map(|r| r.stats()),
        }
    }

    /// Batch dedup counters: how many jobs this campaign simulated and how
    /// many took a duplicate's output instead.
    pub fn flight_stats(&self) -> FlightStats {
        FlightStats {
            executed: self.flights.executed.load(Ordering::Relaxed),
            shared: self.flights.shared.load(Ordering::Relaxed),
        }
    }

    /// Number of pool workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs a batch of jobs on the pool, resolving traces through the shared
    /// store. Results come back in job order; a panicking simulation yields
    /// `Err(JobError)` in its slot (carrying the job's stable fingerprint).
    pub fn run_jobs(&self, jobs: Vec<JobSpec>) -> Vec<Result<JobOutput, JobError>> {
        let idents = self.job_idents(&jobs);
        let fingerprints: Vec<Fingerprint> = idents.iter().map(|(_, fp)| *fp).collect();
        self.submit_jobs(jobs, &fingerprints, None)
            .run_to_completion()
            .into_iter()
            .zip(&idents)
            .map(|(outcome, ident)| job_outcome(ident, outcome))
            .collect()
    }

    /// Labels and stable fingerprints of a job batch, in job order.
    fn job_idents(&self, jobs: &[JobSpec]) -> Vec<(String, Fingerprint)> {
        jobs.iter()
            .map(|job| (job.label(), job_fingerprint(&self.cfg, job)))
            .collect()
    }

    /// Enqueues a batch in job order without waiting (the streaming
    /// primitive behind [`Campaign::run_figures`]).
    ///
    /// Jobs with equal fingerprints (`fingerprints[i]` belongs to
    /// `jobs[i]`) run once: only the first is enqueued, and its outcome is
    /// delivered to every duplicate, so a duplicate never holds a worker.
    ///
    /// `figures[i]`, when given, labels `jobs[i]`'s phase timings with its
    /// figure id in the telemetry registry; the phase clock itself always
    /// runs — queue wait is measured from this enqueue to the moment a
    /// worker picks the task up, run time from pickup to output.
    fn submit_jobs(
        &self,
        jobs: Vec<JobSpec>,
        fingerprints: &[Fingerprint],
        figures: Option<Vec<Arc<str>>>,
    ) -> JobBatch {
        let mut figures = figures.map(Vec::into_iter);
        let mut task_of: HashMap<Fingerprint, usize> = HashMap::with_capacity(jobs.len());
        let mut members: Vec<Vec<usize>> = Vec::new();
        let tasks: Vec<_> = jobs
            .into_iter()
            .zip(fingerprints)
            .enumerate()
            .filter_map(|(i, (job, &fingerprint))| {
                let figure = figures.as_mut().and_then(Iterator::next);
                match task_of.entry(fingerprint) {
                    std::collections::hash_map::Entry::Occupied(task) => {
                        members[*task.get()].push(i);
                        return None;
                    }
                    std::collections::hash_map::Entry::Vacant(task) => {
                        task.insert(members.len());
                        members.push(vec![i]);
                    }
                }
                let cfg = Arc::clone(&self.cfg);
                let store = Arc::clone(&self.store);
                let results = self.results.clone();
                let flights = Arc::clone(&self.flights);
                let enqueued = std::time::Instant::now();
                Some(move || {
                    let queue_ns = elapsed_ns(enqueued);
                    let started = std::time::Instant::now();
                    let output =
                        execute_job(&cfg, &store, results.as_deref(), &flights, fingerprint, job);
                    note_job_phases(figure.as_deref(), queue_ns, elapsed_ns(started));
                    output
                })
            })
            .collect();
        JobBatch {
            handle: self.pool.submit_batch(tasks),
            members,
            flights: Arc::clone(&self.flights),
        }
    }

    /// Runs every workload of a suite with the same prefetcher
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns the first failed job's [`JobError`] (remaining jobs still run
    /// to completion; their results are discarded).
    pub fn run_suite(
        &self,
        specs: &[WorkloadSpec],
        kind: &crate::runner::PrefetcherKind,
    ) -> Result<Vec<stms_mem::SimResult>, JobError> {
        let jobs = specs
            .iter()
            .map(|spec| JobSpec::replay(spec.clone(), kind.clone()))
            .collect();
        collect_sims(self.run_jobs(jobs))
    }

    /// Runs several prefetcher configurations against the *same* shared
    /// trace of one workload (matched comparison).
    ///
    /// # Errors
    ///
    /// See [`Campaign::run_suite`].
    pub fn run_matched(
        &self,
        spec: &WorkloadSpec,
        kinds: &[crate::runner::PrefetcherKind],
    ) -> Result<Vec<stms_mem::SimResult>, JobError> {
        let jobs = kinds
            .iter()
            .map(|kind| JobSpec::replay(spec.clone(), kind.clone()))
            .collect();
        collect_sims(self.run_jobs(jobs))
    }

    /// Captures the baseline off-chip read-miss sequence of each core for a
    /// workload.
    ///
    /// # Errors
    ///
    /// See [`Campaign::run_suite`].
    pub fn collect_miss_sequences(
        &self,
        spec: &WorkloadSpec,
    ) -> Result<Vec<Vec<stms_types::LineAddr>>, JobError> {
        let mut results = self.run_jobs(vec![JobSpec::collect_misses(spec.clone())]);
        results
            .pop()
            .expect("one job in, one result out")
            .map(JobOutput::into_miss_sequences)
    }

    /// Runs many figures as one interleaved batch.
    ///
    /// All jobs of all plans are enqueued up front, so the pool drains one
    /// flat grid — a slow cell of one figure never serializes the cells of
    /// another. Each figure then renders from its own slice of the outputs;
    /// figures whose jobs all succeeded render even when other figures
    /// failed.
    ///
    /// This is the collecting form of [`Campaign::run_figures_streaming`];
    /// results are identical, only the delivery timing differs.
    pub fn run_figures(&self, plans: Vec<FigurePlan>) -> Vec<Result<FigureResult, CampaignError>> {
        let mut figures = Vec::new();
        self.run_figures_streaming(plans, |figure| figures.push(figure));
        figures
    }

    /// Runs many figures as one interleaved batch, delivering each figure
    /// to `emit` — in plan order — *as soon as its own jobs complete*,
    /// while later figures' jobs are still running.
    ///
    /// Jobs go to the pool in plan order. Streaming changes
    /// time-to-first-table, never content or order: a driver that prints
    /// each emitted figure produces stdout byte-identical to collecting
    /// everything first.
    pub fn run_figures_streaming<F>(&self, plans: Vec<FigurePlan>, mut emit: F)
    where
        F: FnMut(Result<FigureResult, CampaignError>),
    {
        let (jobs, parts) = flatten_plans(plans);
        let mut figure_of = vec![0usize; jobs.len()];
        for (figure, part) in parts.iter().enumerate() {
            for job in part.range.clone() {
                figure_of[job] = figure;
            }
        }
        let mut outstanding: Vec<usize> = parts.iter().map(|p| p.range.len()).collect();
        // One shared label per figure, cloned into each of its job tasks.
        let mut labels: Vec<Arc<str>> = Vec::with_capacity(jobs.len());
        for part in &parts {
            let label: Arc<str> = Arc::from(part.id.as_str());
            labels.extend(part.range.clone().map(|_| Arc::clone(&label)));
        }
        let mut parts: Vec<Option<FigurePart>> = parts.into_iter().map(Some).collect();
        let idents = self.job_idents(&jobs);
        let fingerprints: Vec<Fingerprint> = idents.iter().map(|(_, fp)| *fp).collect();
        let batch = self.submit_jobs(jobs, &fingerprints, Some(labels));
        let mut outputs: Vec<Option<Result<JobOutput, JobError>>> =
            (0..idents.len()).map(|_| None).collect();

        // Emit every figure that is already complete (no-job figures at the
        // head render before any simulation finishes).
        let mut next = 0;
        let emit_ready = |next: &mut usize,
                          parts: &mut Vec<Option<FigurePart>>,
                          outputs: &mut Vec<Option<Result<JobOutput, JobError>>>,
                          outstanding: &[usize],
                          emit: &mut F| {
            while *next < parts.len() && outstanding[*next] == 0 {
                let part = parts[*next].take().expect("each figure emitted once");
                emit(finish_figure(&self.cfg, part, outputs));
                *next += 1;
            }
        };
        emit_ready(&mut next, &mut parts, &mut outputs, &outstanding, &mut emit);
        batch.for_each(|i, outcome| {
            outputs[i] = Some(job_outcome(&idents[i], outcome));
            outstanding[figure_of[i]] -= 1;
            emit_ready(&mut next, &mut parts, &mut outputs, &outstanding, &mut emit);
        });
        debug_assert_eq!(next, parts.len(), "every figure emitted");
    }
}

/// A submitted batch whose duplicate jobs share one task (see
/// [`Campaign::submit_jobs`]).
struct JobBatch {
    handle: BatchHandle<JobOutput>,
    /// The batch positions each task answers for, its own first.
    members: Vec<Vec<usize>>,
    flights: Arc<FlightCounters>,
}

impl JobBatch {
    /// Hands `deliver` every job's outcome, by batch position, as soon as
    /// its task completes.
    fn for_each(self, mut deliver: impl FnMut(usize, Result<JobOutput, JobPanic>)) {
        let JobBatch {
            handle,
            members,
            flights,
        } = self;
        for (task, outcome) in handle {
            let (&leader, duplicates) = members[task]
                .split_first()
                .expect("every task answers for its own job");
            if !duplicates.is_empty() && outcome.is_ok() {
                let shared = duplicates.len() as u64;
                flights.shared.fetch_add(shared, Ordering::Relaxed);
                stms_obs::counter("flight.shared").add(shared);
            }
            for &duplicate in duplicates {
                deliver(duplicate, outcome.clone());
            }
            deliver(leader, outcome);
        }
    }

    /// Every job's outcome, in batch order.
    fn run_to_completion(self) -> Vec<Result<JobOutput, JobPanic>> {
        let jobs = self.members.iter().map(Vec::len).sum();
        let mut outcomes: Vec<Option<_>> = (0..jobs).map(|_| None).collect();
        self.for_each(|job, outcome| outcomes[job] = Some(outcome));
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every job delivered"))
            .collect()
    }
}

/// Converts one pool outcome into the campaign's per-job result, attaching
/// the job's label and stable fingerprint to a captured panic.
fn job_outcome(
    ident: &(String, Fingerprint),
    outcome: Result<JobOutput, JobPanic>,
) -> Result<JobOutput, JobError> {
    let (label, fingerprint) = ident;
    outcome.map_err(|panic| JobError {
        job: label.clone(),
        fingerprint: Some(*fingerprint),
        message: panic.message().to_string(),
    })
}

/// Nanoseconds since `started`, saturating at `u64::MAX`.
fn elapsed_ns(started: std::time::Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Feeds one job's phase split into the global metrics registry, both under
/// the campaign-wide `job.*` histograms and — when the job belongs to a
/// figure — under that figure's own `figure.{id}.*` series.
fn note_job_phases(figure: Option<&str>, queue_ns: u64, run_ns: u64) {
    if !stms_obs::is_enabled() {
        return;
    }
    stms_obs::histogram("job.queue_ns").record(queue_ns);
    stms_obs::histogram("job.run_ns").record(run_ns);
    stms_obs::histogram("job.total_ns").record(queue_ns.saturating_add(run_ns));
    if let Some(figure) = figure {
        stms_obs::histogram(&format!("figure.{figure}.queue_ns")).record(queue_ns);
        stms_obs::histogram(&format!("figure.{figure}.run_ns")).record(run_ns);
    }
}

/// One figure's slice of the flattened grid: its id, its job range, and its
/// render stage.
struct FigurePart {
    id: String,
    range: Range<usize>,
    render: RenderFn,
}

/// Flattens many plans into one ordered job list plus per-figure slices.
fn flatten_plans(plans: Vec<FigurePlan>) -> (Vec<JobSpec>, Vec<FigurePart>) {
    let mut all_jobs = Vec::new();
    let mut parts = Vec::new();
    for plan in plans {
        let start = all_jobs.len();
        all_jobs.extend(plan.jobs);
        parts.push(FigurePart {
            id: plan.id,
            range: start..all_jobs.len(),
            render: plan.render,
        });
    }
    (all_jobs, parts)
}

/// Consumes one figure's outputs and renders it (attaching the raw metric
/// records for `--format json`), or folds its failures into a
/// [`CampaignError`].
fn finish_figure(
    cfg: &ExperimentConfig,
    part: FigurePart,
    outputs: &mut [Option<Result<JobOutput, JobError>>],
) -> Result<FigureResult, CampaignError> {
    let FigurePart { id, range, render } = part;
    let mut oks = Vec::with_capacity(range.len());
    let mut failures = Vec::new();
    for slot in &mut outputs[range] {
        match slot.take().expect("each output consumed once") {
            Ok(output) => oks.push(output),
            Err(err) => failures.push(err),
        }
    }
    if !failures.is_empty() {
        return Err(CampaignError {
            figure: id,
            failures,
        });
    }
    let metrics = oks
        .iter()
        .filter_map(|output| match output {
            JobOutput::Sim(result) => Some(crate::experiments::sim_metrics_json(result)),
            JobOutput::MissSequences(_) => None,
        })
        .collect();
    let mut figure = render(cfg, oks);
    figure.metrics = metrics;
    Ok(figure)
}

fn collect_sims(
    results: Vec<Result<JobOutput, JobError>>,
) -> Result<Vec<stms_mem::SimResult>, JobError> {
    results
        .into_iter()
        .map(|r| r.map(JobOutput::into_sim))
        .collect()
}

/// Runs one job on the calling worker: a result-memo hit when one is
/// configured, otherwise the simulation, whose output is then memoized.
/// `fingerprint` is the job's [`job_fingerprint`], which is also its memo
/// key.
fn execute_job(
    cfg: &ExperimentConfig,
    store: &TraceStore,
    results: Option<&ResultStore>,
    flights: &FlightCounters,
    fingerprint: Fingerprint,
    job: JobSpec,
) -> JobOutput {
    // A memoized output short-circuits everything, including trace
    // resolution: a fully warm campaign touches no generator and no engine.
    if let Some(output) = results.and_then(|memo| memo.get(fingerprint, cfg, &job)) {
        return output;
    }
    let output = run_job_uncached(cfg, store, &job);
    if let Some(memo) = results {
        memo.put(fingerprint, &output);
    }
    flights.executed.fetch_add(1, Ordering::Relaxed);
    stms_obs::counter("flight.executed").incr();
    output
}

/// The actual generate/replay work of one job, no caching layers involved.
fn run_job_uncached(cfg: &ExperimentConfig, store: &TraceStore, job: &JobSpec) -> JobOutput {
    if store.is_streaming() {
        // Out-of-core path: the job drives the generator as a chunked
        // TraceSource and never holds the trace; output is bit-identical
        // to the materialized path.
        match job.task {
            JobTask::Replay(ref kind) => {
                store.replay_streaming(&job.workload, cfg.accesses, |source| {
                    JobOutput::Sim(crate::runner::run_source(cfg, source, kind))
                })
            }
            JobTask::CollectMisses => {
                store.replay_streaming(&job.workload, cfg.accesses, |source| {
                    let mut collector = MissTraceCollector::new(cfg.system.cores);
                    CmpSimulator::new(&cfg.system, cfg.sim).run_stream(source, &mut collector);
                    JobOutput::MissSequences(collector.all_cores())
                })
            }
        }
    } else {
        // The trace's L1/L2/stride outcomes are recorded once and shared
        // by every job on it; the job replays only its own lane.
        let (trace, log) = store.get_or_generate_logged(&job.workload, cfg.accesses, &cfg.system);
        let replay = |prefetcher: &mut dyn Prefetcher| {
            let engine = CmpSimulator::new(&cfg.system, cfg.sim);
            match &log {
                Some(log) => engine.run_logged(&trace, log, prefetcher),
                None => engine.run(&trace, prefetcher),
            }
        };
        match job.task {
            JobTask::Replay(ref kind) => {
                JobOutput::Sim(replay(kind.build(cfg.system.cores).as_mut()))
            }
            JobTask::CollectMisses => {
                let mut collector = MissTraceCollector::new(cfg.system.cores);
                replay(&mut collector);
                JobOutput::MissSequences(collector.all_cores())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PrefetcherKind;
    use stms_workloads::presets;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick().with_accesses(10_000)
    }

    #[test]
    fn run_matched_shares_one_trace_across_kinds() {
        let campaign = Campaign::with_threads(quick(), 2);
        let results = campaign
            .run_matched(
                &presets::web_apache(),
                &[PrefetcherKind::Baseline, PrefetcherKind::ideal()],
            )
            .expect("no job fails");
        assert_eq!(results.len(), 2);
        let stats = campaign.store().stats();
        assert_eq!(stats.generated, 1, "matched kinds replay one shared trace");
        assert_eq!(stats.hits + stats.misses, 2);
    }

    #[test]
    fn run_suite_preserves_workload_order() {
        let campaign = Campaign::with_threads(quick(), 2);
        let specs = vec![presets::web_apache(), presets::dss_qry17()];
        let results = campaign
            .run_suite(&specs, &PrefetcherKind::Baseline)
            .expect("no job fails");
        assert_eq!(results[0].workload, "Web Apache");
        assert_eq!(results[1].workload, "DSS DB2");
    }

    #[test]
    fn collect_miss_sequences_yields_one_per_core() {
        let campaign = Campaign::with_threads(quick(), 1);
        let seqs = campaign
            .collect_miss_sequences(&presets::oltp_db2())
            .expect("no job fails");
        assert_eq!(seqs.len(), campaign.cfg().system.cores);
        assert!(seqs.iter().any(|s| !s.is_empty()));
    }

    #[test]
    fn duplicate_jobs_in_one_batch_execute_once() {
        // One worker runs the batch in order, so no two copies of a job
        // are ever in flight together: only batch dedup can share them.
        let campaign = Campaign::with_threads(quick(), 1);
        let a = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let b = JobSpec::collect_misses(presets::oltp_db2());
        let jobs = vec![a.clone(), b.clone(), a.clone(), a, b];
        let encoded: Vec<_> = campaign
            .run_jobs(jobs)
            .iter()
            .map(|result| result.as_ref().expect("no job fails").encode())
            .collect();
        assert_eq!(encoded[2], encoded[0]);
        assert_eq!(encoded[3], encoded[0]);
        assert_eq!(encoded[4], encoded[1]);
        assert_eq!(
            campaign.flight_stats(),
            FlightStats {
                executed: 2,
                shared: 3
            }
        );
        let traces = campaign.store().stats();
        assert_eq!(traces.logs_recorded, 2, "one hierarchy log per trace");
        assert!(traces.log_bytes > 0);
    }

    #[test]
    fn every_duplicate_of_a_panicking_job_gets_its_error() {
        let poisoned = JobSpec::replay(
            presets::web_apache(),
            PrefetcherKind::Markov(stms_prefetch::MarkovConfig {
                entries: 3,
                associativity: 2,
                ..Default::default()
            }),
        );
        let healthy = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let campaign = Campaign::with_threads(quick(), 2);
        let results = campaign.run_jobs(vec![poisoned.clone(), healthy, poisoned]);
        let first = results[0].as_ref().expect_err("the job panics");
        let second = results[2]
            .as_ref()
            .expect_err("its duplicate shares the panic");
        assert_eq!(first.message, second.message);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert!(results[1].is_ok());
        assert_eq!(
            campaign.flight_stats().shared,
            0,
            "a panic is not shared output"
        );
    }

    #[test]
    fn campaign_error_display_lists_failures_with_fingerprints() {
        let err = CampaignError {
            figure: "fig4".into(),
            failures: vec![
                JobError {
                    job: "a".into(),
                    fingerprint: None,
                    message: "x".into(),
                },
                JobError {
                    job: "b".into(),
                    fingerprint: Some(stms_types::Fingerprint::from_raw(0xbeef)),
                    message: "y".into(),
                },
            ],
        };
        let text = err.to_string();
        assert!(text.contains("fig4"));
        assert!(text.contains("2 job(s)"));
        assert!(text.contains("job `b` [fp"), "{text}");
        assert!(text.contains("failed: y"));
    }

    #[test]
    fn streaming_figures_arrive_in_plan_order_with_identical_content() {
        let campaign = Campaign::with_threads(quick(), 2);
        let cfg = campaign.cfg().clone();
        let plans = |cfg: &ExperimentConfig| {
            vec![
                crate::experiments::plan_table1(cfg),
                crate::experiments::plan_table2(cfg),
                crate::experiments::plan_fig1_right(cfg),
            ]
        };
        let mut streamed = Vec::new();
        campaign.run_figures_streaming(plans(&cfg), |figure| {
            streamed.push(figure.expect("no job fails").render());
        });
        let collected: Vec<String> = campaign
            .run_figures(plans(&cfg))
            .into_iter()
            .map(|figure| figure.expect("no job fails").render())
            .collect();
        assert_eq!(streamed, collected);
        assert_eq!(streamed.len(), 3);
        assert!(streamed[0].contains("Table 1"));
        assert!(streamed[1].contains("Table 2"));
    }

    #[test]
    fn streaming_campaign_renders_byte_identical_figures() {
        let cfg = quick();
        // table2 covers replay jobs; fig6-left covers miss-collection jobs.
        let plans = |cfg: &ExperimentConfig| {
            vec![
                crate::experiments::plan_table2(cfg),
                crate::experiments::plan_fig6_left(cfg),
            ]
        };
        let materialized = Campaign::with_threads(cfg.clone(), 2);
        let direct: Vec<String> = materialized
            .run_figures(plans(&cfg))
            .into_iter()
            .map(|figure| figure.expect("no job fails").render())
            .collect();

        // Streaming without a cache: every job streams its own generator.
        let streaming = Campaign::with_caches(
            cfg.clone(),
            2,
            CampaignCaches {
                stream_traces: true,
                ..Default::default()
            },
        )
        .unwrap();
        let streamed: Vec<String> = streaming
            .run_figures(plans(&cfg))
            .into_iter()
            .map(|figure| figure.expect("no job fails").render())
            .collect();
        assert_eq!(streamed, direct);
        let stats = streaming.store().stats();
        assert!(stats.stream_replays > 0, "{stats:?}");
        assert!(stats.stream_chunks >= stats.stream_replays);
        assert_eq!(stats.hits, 0, "nothing was materialized");
    }
}
