//! Campaign orchestration: cached trace generation, bounded scheduling, and
//! declarative figure plans.
//!
//! The paper's evaluation is a `(workload × prefetcher × sweep-point)` grid
//! rendered as 13 tables and figures. This module decomposes the run
//! lifecycle into reusable stages, mirroring how a production pipeline
//! shards a large scan:
//!
//! 1. **Generation** — the [`TraceStore`] generates each distinct workload
//!    trace exactly once per campaign and shares it as a
//!    [`stms_types::SharedTrace`];
//! 2. **Scheduling** — the [`JobPool`] replays figure cells on a bounded
//!    set of worker threads with panic-safe, per-job error reporting;
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

pub mod cost;
mod job;
mod pool;
mod result_store;
pub mod shard;
mod trace_store;

pub use cost::{Calibration, JobCostModel, Partition};
pub use job::{job_fingerprint, DecodeJobOutputError, JobError, JobOutput, JobSpec, JobTask};
pub use pool::{BatchHandle, JobPanic, JobPool};
pub use result_store::{
    ResultStore, ResultStoreStats, DEFAULT_MEMO_BUDGET_BYTES, JOB_OUTPUT_CODEC_VERSION,
};
pub use shard::{MergeError, MergedShards, ShardSpec};
pub use trace_store::{TraceStore, TraceStoreStats};

use crate::experiments::FigureResult;
use crate::system::ExperimentConfig;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use stms_mem::{CmpSimulator, Prefetcher};
use stms_prefetch::MissTraceCollector;
use stms_types::{Fingerprint, Fingerprintable, ShardBalance, ShardJobTiming, ShardManifest};
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

    /// The plan's jobs, in schedule order (what the shard partitioner and
    /// the manifest coverage check operate on).
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }
}

/// A figure (or shard slice) that could not be completed because jobs
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// Id of the affected figure, or a description of the failed slice for
    /// shard-mode errors (e.g. `"shard 2/4"`).
    pub figure: String,
    /// The shard the failing jobs ran in, when the campaign was sharded.
    /// Rendered in the `Display` output so a partial-shard failure in a CI
    /// log names the exact re-runnable slice.
    pub shard: Option<ShardSpec>,
    /// Every failed job, each carrying its stable job fingerprint when one
    /// could be derived.
    pub failures: Vec<JobError>,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "figure `{}`", self.figure)?;
        if let Some(shard) = self.shard {
            write!(f, " (shard {shard})")?;
        }
        write!(f, ": {} job(s) failed: ", self.failures.len())?;
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
    /// Memoize job outputs in memory even when `result_dir` is `None`
    /// (see [`ResultStore::in_memory`]). A long-lived server sets this so
    /// repeated requests for the same cell never replay, and so in-flight
    /// dedup has a tier to land completed outputs in; the one-shot CLI
    /// leaves it off — a single batch already shares via the flight table.
    /// Ignored when `result_dir` is set (the disk-backed store subsumes it).
    pub result_memory: bool,
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
/// that mode is on) to a stderr `run summary:`
/// block, and, once jobs ran, how many executed and how many shared
/// another execution's output (`job flights`), and how many jobs replayed
/// a recorded hierarchy log (`hierarchy logs`, with the logs' total
/// size). Shared by the `stms-experiments` and `stms-serve` binaries so
/// their accounting lines stay identical.
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

/// A cooperative cancellation flag for an in-flight job batch.
///
/// Cancellation is *admission-level*: a job that has not started yet
/// resolves to a `cancelled` [`JobError`] without touching the trace store
/// or the engine, releasing its pool worker immediately; a job already
/// simulating runs to completion (its output is still memoized and still
/// feeds any concurrent duplicate via the flight table). Cloning shares the
/// flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flips the token; every pending job sharing it is skipped.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// In-flight dedup counters (see [`Campaign::flight_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Jobs this campaign actually executed (flight leaders). With a result
    /// memo configured this is exactly the number of *distinct* jobs that
    /// ever ran, however many concurrent requests asked for them.
    pub executed: u64,
    /// Jobs that took another execution's output instead of replaying: a
    /// duplicate of an earlier job in the same batch, or a job that joined
    /// a concurrent leader's execution.
    pub shared: u64,
}

/// The singleflight table: one slot per job fingerprint currently
/// *executing* on a pool worker. Leadership is decided at execution time —
/// never at submit time — so a follower only ever waits on a job that
/// already holds a worker, which makes the wait deadlock-free under any
/// pool size and queue order.
#[derive(Debug, Default)]
struct FlightTable {
    slots: Mutex<HashMap<Fingerprint, Arc<FlightSlot>>>,
    executed: AtomicU64,
    shared: AtomicU64,
}

#[derive(Debug)]
enum FlightState {
    Pending,
    Done(Box<JobOutput>),
    /// The leader unwound (panicked) without an output; waiters retry.
    Abandoned,
}

#[derive(Debug)]
struct FlightSlot {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl FlightSlot {
    fn new() -> Self {
        FlightSlot {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the leader resolves the slot; `None` means abandoned.
    fn wait(&self) -> Option<JobOutput> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                FlightState::Done(output) => return Some(output.as_ref().clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn resolve(&self, state: FlightState) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = state;
        self.cv.notify_all();
    }
}

enum FlightRole {
    Leader(Arc<FlightSlot>),
    Follower(Arc<FlightSlot>),
}

impl FlightTable {
    /// Joins the flight for `key`: the first executing job becomes the
    /// leader, concurrent duplicates become followers of its slot.
    fn join(&self, key: Fingerprint) -> FlightRole {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        match slots.entry(key) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                FlightRole::Follower(Arc::clone(entry.get()))
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                let slot = Arc::new(FlightSlot::new());
                entry.insert(Arc::clone(&slot));
                FlightRole::Leader(slot)
            }
        }
    }

    fn stats(&self) -> FlightStats {
        FlightStats {
            executed: self.executed.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
        }
    }
}

/// Clears a leader's slot on every exit path. Until [`FlightGuard::fill`]
/// runs, dropping the guard (including during a panic unwind on the worker)
/// marks the slot [`FlightState::Abandoned`] so followers wake up and
/// retry instead of hanging.
struct FlightGuard<'a> {
    flights: &'a FlightTable,
    key: Fingerprint,
    slot: Arc<FlightSlot>,
    filled: bool,
}

impl FlightGuard<'_> {
    fn fill(&mut self, output: JobOutput) {
        self.slot.resolve(FlightState::Done(Box::new(output)));
        self.filled = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.flights
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        if !self.filled {
            self.slot.resolve(FlightState::Abandoned);
        }
    }
}

/// One experiment campaign: a configuration, a shared trace store, an
/// optional persistent result memo, an in-flight dedup table, and a bounded
/// job pool.
#[derive(Debug)]
pub struct Campaign {
    cfg: Arc<ExperimentConfig>,
    store: Arc<TraceStore>,
    results: Option<Arc<ResultStore>>,
    flights: Arc<FlightTable>,
    /// Per-job phase log of this campaign's *executed* jobs (flight
    /// leaders), drained into shard manifests by [`Campaign::run_shard`].
    timings: Arc<Mutex<Vec<ShardJobTiming>>>,
    /// Predictor behind LPT pool ordering and cost-balanced sharding;
    /// analytic by default, replaced by [`Campaign::set_cost_model`] when
    /// the CLI calibrates from prior manifests.
    cost_model: Mutex<JobCostModel>,
    /// When set, streaming figure runs submit jobs in plan order instead of
    /// longest-predicted-first — the toggle the LPT byte-identity test
    /// flips.
    plan_order: AtomicBool,
    /// What the last streaming figure run predicted, kept for
    /// [`Campaign::take_sched_report`]'s predicted-vs-actual comparison.
    sched: Mutex<Option<SchedLog>>,
    pool: JobPool,
}

/// Prediction record of one streaming figure submission.
#[derive(Debug)]
struct SchedLog {
    jobs: u64,
    predicted_total_ns: u128,
    order: &'static str,
    predicted_by_fp: HashMap<Fingerprint, u64>,
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
            None if caches.result_memory => Some(Arc::new(ResultStore::in_memory())),
            None => None,
        };
        Ok(Campaign {
            cfg: Arc::new(cfg),
            store: Arc::new(store),
            results,
            flights: Arc::new(FlightTable::default()),
            timings: Arc::new(Mutex::new(Vec::new())),
            cost_model: Mutex::new(JobCostModel::analytic()),
            plan_order: AtomicBool::new(false),
            sched: Mutex::new(None),
            pool: JobPool::new(threads),
        })
    }

    /// Replaces the job cost model (e.g. with a calibrated one from
    /// `--calibrate-from`). The model steers LPT pool ordering and
    /// cost-balanced shard partitioning; it never affects results, only
    /// scheduling.
    pub fn set_cost_model(&self, model: JobCostModel) {
        *self
            .cost_model
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = model;
    }

    /// The current job cost model.
    pub fn cost_model(&self) -> JobCostModel {
        self.cost_model
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Submits streaming figure jobs in plan order instead of the default
    /// longest-predicted-first order. Emission order and content are
    /// identical either way; only pool tail latency differs.
    pub fn set_plan_order(&self, plan_order: bool) {
        self.plan_order.store(plan_order, Ordering::Relaxed);
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

    /// In-flight dedup counters: how many jobs this campaign executed as
    /// singleflight leaders and how many joined a concurrent execution
    /// instead. `executed` is the exactly-once proof a serving test asserts
    /// on: with a result memo configured it cannot exceed the number of
    /// distinct jobs ever requested.
    pub fn flight_stats(&self) -> FlightStats {
        self.flights.stats()
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
        self.run_jobs_with_idents(jobs, idents)
    }

    /// [`Campaign::run_jobs`] over labels/fingerprints the caller already
    /// derived (`idents[i]` must belong to `jobs[i]`); the shard path holds
    /// them from partitioning and must not recompute.
    fn run_jobs_with_idents(
        &self,
        jobs: Vec<JobSpec>,
        idents: Vec<(String, Fingerprint)>,
    ) -> Vec<Result<JobOutput, JobError>> {
        let fingerprints: Vec<Fingerprint> = idents.iter().map(|(_, fp)| *fp).collect();
        self.submit_jobs(jobs, &fingerprints, None, None)
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

    /// Enqueues a batch without waiting (the streaming primitive behind
    /// [`Campaign::run_figures`]). A task resolves to `None` only when
    /// `cancel` fired before it reached a worker.
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
        cancel: Option<&CancelToken>,
    ) -> JobBatch {
        let mut figures = figures.map(Vec::into_iter);
        let mut task_of: HashMap<Fingerprint, usize> = HashMap::with_capacity(jobs.len());
        let mut members: Vec<Vec<usize>> = Vec::new();
        let tasks: Vec<_> = jobs
            .into_iter()
            .zip(fingerprints)
            .enumerate()
            .filter_map(|(i, (job, fingerprint))| {
                let figure = figures.as_mut().and_then(Iterator::next);
                match task_of.entry(*fingerprint) {
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
                let timings = Arc::clone(&self.timings);
                let cancel = cancel.cloned();
                let enqueued = std::time::Instant::now();
                Some(move || {
                    if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        return None;
                    }
                    let queue_ns = elapsed_ns(enqueued);
                    let started = std::time::Instant::now();
                    let (led, output) =
                        execute_job(&cfg, &store, results.as_deref(), &flights, job);
                    let run_ns = elapsed_ns(started);
                    note_job_phases(figure.as_deref(), queue_ns, run_ns);
                    if let Some(fingerprint) = led {
                        timings.lock().unwrap_or_else(PoisonError::into_inner).push(
                            ShardJobTiming {
                                fingerprint,
                                queue_ns,
                                run_ns,
                            },
                        );
                    }
                    Some(output)
                })
            })
            .collect();
        JobBatch {
            handle: self.pool.submit_batch(tasks),
            members,
            flights: Arc::clone(&self.flights),
        }
    }

    /// Drains the per-job phase log accumulated since the last call, sorted
    /// by fingerprint so a sealed manifest's bytes do not depend on worker
    /// scheduling order.
    fn take_timings(&self) -> Vec<ShardJobTiming> {
        let mut timings =
            std::mem::take(&mut *self.timings.lock().unwrap_or_else(PoisonError::into_inner));
        timings.sort_by_key(|timing| timing.fingerprint);
        timings
    }

    /// Drains the scheduling record of the last streaming figure run into a
    /// summary report: how much work the cost model predicted, in which
    /// order the pool received it, and — matched against the measured phase
    /// log — the model's actual error. Returns `None` when no streaming run
    /// happened since the last call. The calibration fields are left empty;
    /// the CLI fills them when `--calibrate-from` produced the model.
    pub fn take_sched_report(&self) -> Option<stms_stats::SchedReport> {
        let log = self
            .sched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()?;
        let timings = self.take_timings();
        let mut abs_err: u128 = 0;
        let mut observed: u128 = 0;
        let mut matched = 0u64;
        for timing in &timings {
            if let Some(&predicted) = log.predicted_by_fp.get(&timing.fingerprint) {
                abs_err += u128::from(predicted).abs_diff(u128::from(timing.run_ns));
                observed += u128::from(timing.run_ns);
                matched += 1;
            }
        }
        let actual_error_milli =
            (observed > 0).then(|| u64::try_from(abs_err * 1000 / observed).unwrap_or(u64::MAX));
        Some(stms_stats::SchedReport {
            jobs: log.jobs,
            predicted_total_ns: log.predicted_total_ns,
            order: Some(log.order.to_string()),
            calibration_samples: None,
            calibration_error_milli: None,
            actual_jobs: matched,
            actual_error_milli,
            balance: None,
            this_shard_ns: None,
            max_shard_ns: None,
            mean_shard_ns: None,
        })
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
    /// Streaming changes time-to-first-table, never content or order: a
    /// driver that prints each emitted figure produces stdout byte-identical
    /// to collecting everything first.
    pub fn run_figures_streaming<F>(&self, plans: Vec<FigurePlan>, emit: F)
    where
        F: FnMut(Result<FigureResult, CampaignError>),
    {
        self.run_figures_streaming_inner(plans, None, emit);
    }

    /// [`Campaign::run_figures_streaming`] with a cancellation token: a
    /// server hands each request its own token and fires it when the client
    /// goes away. Jobs that have not reached a worker yet resolve to a
    /// `cancelled` [`JobError`] without simulating (their figures emit as
    /// [`CampaignError`]s), so the pool drains in moments; jobs already
    /// executing finish normally and their outputs still land in the memo
    /// and the flight table for everyone else. Emission order and content
    /// for *un*-cancelled figures are identical to the plain call.
    pub fn run_figures_streaming_cancellable<F>(
        &self,
        plans: Vec<FigurePlan>,
        cancel: &CancelToken,
        emit: F,
    ) where
        F: FnMut(Result<FigureResult, CampaignError>),
    {
        self.run_figures_streaming_inner(plans, Some(cancel), emit);
    }

    fn run_figures_streaming_inner<F>(
        &self,
        plans: Vec<FigurePlan>,
        cancel: Option<&CancelToken>,
        mut emit: F,
    ) where
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

        // Predict every job's cost and submit longest-first (LPT), so the
        // expensive cells reach workers before the cheap tail instead of
        // wherever plan order happened to put them. Everything downstream
        // stays indexed by *plan* position: the permutation is undone when
        // completions arrive, which is why rendered output is byte-identical
        // to plan-order submission.
        let model = self.cost_model();
        let costs: Vec<u64> = jobs
            .iter()
            .map(|job| model.predicted_ns(&self.cfg, job))
            .collect();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        let plan_order = self.plan_order.load(Ordering::Relaxed);
        if !plan_order {
            order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then_with(|| a.cmp(&b)));
        }
        // A run with no jobs scheduled nothing: don't create the (empty)
        // histogram or a 0-job log — job-free figures must keep stderr as
        // quiet as they always were.
        if !jobs.is_empty() {
            if stms_obs::is_enabled() {
                let predicted = stms_obs::histogram("sched.predicted_ns");
                for &cost in &costs {
                    predicted.record(cost);
                }
            }
            *self.sched.lock().unwrap_or_else(PoisonError::into_inner) = Some(SchedLog {
                jobs: jobs.len() as u64,
                predicted_total_ns: costs.iter().map(|&c| u128::from(c)).sum(),
                order: if plan_order { "plan" } else { "lpt" },
                predicted_by_fp: idents
                    .iter()
                    .zip(&costs)
                    .map(|((_, fingerprint), &cost)| (*fingerprint, cost))
                    .collect(),
            });
        }
        let mut slots: Vec<Option<JobSpec>> = jobs.into_iter().map(Some).collect();
        let submitted: Vec<JobSpec> = order
            .iter()
            .map(|&i| slots[i].take().expect("each job submitted once"))
            .collect();
        let submitted_labels: Vec<Arc<str>> =
            order.iter().map(|&i| Arc::clone(&labels[i])).collect();

        let submitted_fingerprints: Vec<Fingerprint> = order.iter().map(|&i| idents[i].1).collect();
        let batch = self.submit_jobs(
            submitted,
            &submitted_fingerprints,
            Some(submitted_labels),
            cancel,
        );
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
        batch.for_each(|submitted, outcome| {
            // Map the submission slot back to the job's plan position.
            let i = order[submitted];
            outputs[i] = Some(job_outcome(&idents[i], outcome));
            outstanding[figure_of[i]] -= 1;
            emit_ready(&mut next, &mut parts, &mut outputs, &outstanding, &mut emit);
        });
        debug_assert_eq!(next, parts.len(), "every figure emitted");
    }

    /// Runs only this shard's slice of the distinct job grid and returns
    /// the sealed-ready manifest plus any per-job failures (see the
    /// [`shard`] module docs for the partition contract).
    ///
    /// `balance` picks the partition function: [`ShardBalance::Count`] is
    /// the historical `fingerprint % count` split, [`ShardBalance::Cost`]
    /// bin-packs by predicted cost ([`cost::partition`]). Either way every
    /// shard of the fleet computes the identical full partition from the
    /// same grid and model, with no coordination; the mode is sealed into
    /// the manifest header and cross-checked at merge.
    ///
    /// Only the *generate/replay* stage runs — render closures of the plans
    /// are dropped; the merge stage re-derives them from the same figure
    /// selection.
    pub fn run_shard(
        &self,
        plans: Vec<FigurePlan>,
        spec: ShardSpec,
        balance: ShardBalance,
    ) -> ShardRun {
        // The manifest's timing section must describe exactly this shard's
        // executions, not phases left over from earlier batches.
        let _ = self.take_timings();
        let (jobs, _parts) = flatten_plans(plans);
        let distinct = shard::distinct_jobs(&self.cfg, &jobs);
        let jobs_total = distinct.len() as u64;
        let (owned, makespan) = self.owned_slice(distinct, spec, balance);
        // Labels + the fingerprints partitioning already derived — nothing
        // is hashed twice.
        let idents = owned
            .iter()
            .map(|(fingerprint, job)| (job.label(), *fingerprint))
            .collect();
        let results =
            self.run_jobs_with_idents(owned.iter().map(|(_, job)| job.clone()).collect(), idents);
        let mut entries = Vec::with_capacity(owned.len());
        let mut failures = Vec::new();
        for ((fingerprint, _), result) in owned.iter().zip(results) {
            match result {
                Ok(output) => entries.push((*fingerprint, output.encode())),
                Err(err) => failures.push(err),
            }
        }
        ShardRun {
            spec,
            jobs_total,
            jobs_owned: owned.len() as u64,
            jobs_rerun: owned.len() as u64,
            manifest: ShardManifest {
                config: self.cfg.fingerprint(),
                index: spec.index,
                count: spec.count,
                balance,
                entries,
                timings: self.take_timings(),
            },
            failures,
            makespan,
        }
    }

    /// Partitions the distinct grid and keeps this shard's slice, plus the
    /// fleet-wide predicted-cost picture for the `scheduling:` summary line
    /// (and the `sched.shard_cost_spread_milli` gauge).
    fn owned_slice(
        &self,
        distinct: Vec<(Fingerprint, JobSpec)>,
        spec: ShardSpec,
        balance: ShardBalance,
    ) -> (Vec<(Fingerprint, JobSpec)>, ShardMakespan) {
        let model = self.cost_model();
        let partition = cost::partition(&model, &self.cfg, &distinct, spec.count, balance);
        let this_shard_ns = partition.shard_cost_ns[(spec.index - 1) as usize];
        let max_shard_ns = partition.shard_cost_ns.iter().copied().max().unwrap_or(0);
        let total: u128 = partition.shard_cost_ns.iter().sum();
        let mean_shard_ns = total / u128::from(spec.count);
        if stms_obs::is_enabled() && mean_shard_ns > 0 {
            let spread = u64::try_from(max_shard_ns * 1000 / mean_shard_ns).unwrap_or(u64::MAX);
            stms_obs::gauge("sched.shard_cost_spread_milli").set(spread);
        }
        let owned = distinct
            .into_iter()
            .zip(&partition.owners)
            .filter(|(_, &owner)| owner == spec.index)
            .map(|(pair, _)| pair)
            .collect();
        (
            owned,
            ShardMakespan {
                balance,
                this_shard_ns,
                max_shard_ns,
                mean_shard_ns,
            },
        )
    }

    /// Retries a **partial** shard manifest: reruns only the owned jobs
    /// whose outputs are missing from it (the jobs that failed, or were
    /// never reached, in the original `--shard` run), and returns a
    /// [`ShardRun`] whose manifest carries the old entries plus the fresh
    /// ones — ready to seal in place of the partial file.
    ///
    /// The shard coordinates come from the manifest itself; `plans` must be
    /// built from the same figure selection the shard ran. Already-sealed
    /// outputs are never re-executed, so a retry of an `N`-job shard with
    /// one failure replays exactly one job. Retrying an already-complete
    /// manifest is a no-op that reruns nothing.
    ///
    /// # Errors
    ///
    /// [`MergeError::Io`] when the file cannot be read,
    /// [`MergeError::Manifest`] when it does not open as a sealed manifest,
    /// and [`MergeError::StaleConfig`] when it was sealed under a different
    /// campaign configuration.
    pub fn retry_shard(
        &self,
        plans: Vec<FigurePlan>,
        manifest_path: &std::path::Path,
    ) -> Result<ShardRun, MergeError> {
        let bytes = std::fs::read(manifest_path).map_err(|e| MergeError::Io {
            path: manifest_path.to_path_buf(),
            error: e.to_string(),
        })?;
        let manifest = ShardManifest::open(&bytes).map_err(|error| MergeError::Manifest {
            path: manifest_path.to_path_buf(),
            error,
        })?;
        let expected = self.cfg.fingerprint();
        if manifest.config != expected {
            return Err(MergeError::StaleConfig {
                path: manifest_path.to_path_buf(),
                expected,
                found: manifest.config,
            });
        }
        let spec = ShardSpec::new(manifest.index, manifest.count)
            .expect("ShardManifest::open validated the shard header");
        let _ = self.take_timings();
        let (jobs, _parts) = flatten_plans(plans);
        let distinct = shard::distinct_jobs(&self.cfg, &jobs);
        let jobs_total = distinct.len() as u64;
        let sealed: std::collections::HashSet<Fingerprint> =
            manifest.entries.iter().map(|(fp, _)| *fp).collect();
        // The manifest says how its fleet partitioned; ownership is
        // recomputed under the same mode. A cost-balanced manifest heals
        // correctly only when this campaign's cost model matches the
        // sealing run's — pass the same `--calibrate-from` (or none, for
        // the analytic default) the fleet used.
        let (owned, makespan) = self.owned_slice(distinct, spec, manifest.balance);
        let jobs_owned = owned.len() as u64;
        let missing: Vec<(Fingerprint, JobSpec)> = owned
            .into_iter()
            .filter(|(fingerprint, _)| !sealed.contains(fingerprint))
            .collect();
        let idents = missing
            .iter()
            .map(|(fingerprint, job)| (job.label(), *fingerprint))
            .collect();
        let results =
            self.run_jobs_with_idents(missing.iter().map(|(_, job)| job.clone()).collect(), idents);
        let mut entries = manifest.entries;
        let mut failures = Vec::new();
        for ((fingerprint, _), result) in missing.iter().zip(results) {
            match result {
                Ok(output) => entries.push((*fingerprint, output.encode())),
                Err(err) => failures.push(err),
            }
        }
        // The healed manifest keeps the original run's phase timings and
        // appends the retry's own (re-sorted for stable manifest bytes).
        let mut timings = manifest.timings;
        timings.extend(self.take_timings());
        timings.sort_by_key(|timing| timing.fingerprint);
        Ok(ShardRun {
            spec,
            jobs_total,
            jobs_owned,
            jobs_rerun: missing.len() as u64,
            manifest: ShardManifest {
                config: manifest.config,
                index: manifest.index,
                count: manifest.count,
                balance: manifest.balance,
                entries,
                timings,
            },
            failures,
            makespan,
        })
    }

    /// Merges sealed shard manifests and renders the figures without
    /// running a single simulation.
    ///
    /// Re-derives the job grid from `plans` (which must be built from the
    /// same figure selection and configuration the shards ran), validates
    /// the manifest set, hydrates every output, and runs the pure render
    /// stage — stdout from printing the returned figures is byte-identical
    /// to an unsharded run.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] naming the unusable file, stale
    /// configuration, duplicate shard/job, or missing coverage.
    pub fn merge_shards(
        &self,
        plans: Vec<FigurePlan>,
        dirs: &[std::path::PathBuf],
    ) -> Result<Vec<FigureResult>, MergeError> {
        let mut figures = Vec::new();
        self.merge_shards_streaming(plans, dirs, |figure| figures.push(figure))?;
        Ok(figures)
    }

    /// Merges sealed shard manifests and renders the figures *streaming*,
    /// with manifest compaction: each figure is delivered to `emit` (in
    /// plan order) as soon as it renders, and each job's encoded payload is
    /// dropped as soon as its **last consuming figure** has rendered — so
    /// the merge never holds the whole grid's outputs at once, only the
    /// live window, no matter how many figures the campaign spans.
    ///
    /// Re-derives the job grid from `plans` (which must be built from the
    /// same figure selection and configuration the shards ran) and
    /// validates the manifest set — including full coverage — *before*
    /// emitting anything. Stdout from printing the emitted figures is
    /// byte-identical to an unsharded run.
    ///
    /// # Errors
    ///
    /// Returns a [`MergeError`] naming the unusable file, stale
    /// configuration, duplicate shard/job, or missing coverage. A payload
    /// that fails to decode ([`MergeError::BadOutput`]) surfaces when its
    /// first consuming figure is reached; earlier figures have already
    /// been emitted at that point.
    pub fn merge_shards_streaming<F>(
        &self,
        plans: Vec<FigurePlan>,
        dirs: &[std::path::PathBuf],
        mut emit: F,
    ) -> Result<(), MergeError>
    where
        F: FnMut(FigureResult),
    {
        let mut merged = MergedShards::load(&self.cfg, dirs)?;
        note_merged_timings(merged.timings());
        let (jobs, parts) = flatten_plans(plans);
        // One fingerprint pass serves dedup, coverage and hydration alike.
        let fingerprints = shard::job_fingerprints(&self.cfg, &jobs);
        let distinct = shard::distinct_with(&fingerprints, &jobs);
        merged.check_coverage(&distinct)?;

        // Each figure's distinct fingerprints, plus per-job reference
        // counts across figures, so a payload can be dropped the moment
        // its last consuming figure has rendered.
        let per_figure: Vec<Vec<Fingerprint>> = parts
            .iter()
            .map(|part| {
                let mut firsts = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for job in part.range.clone() {
                    if seen.insert(fingerprints[job]) {
                        firsts.push(fingerprints[job]);
                    }
                }
                firsts
            })
            .collect();
        let mut remaining_uses: HashMap<Fingerprint, usize> = HashMap::new();
        for needed in &per_figure {
            for fingerprint in needed {
                *remaining_uses.entry(*fingerprint).or_default() += 1;
            }
        }

        // Decoded outputs live from their first consuming figure to their
        // last: shared cells decode once, not once per figure, and the
        // encoded payload is released as soon as its decode exists.
        let mut decoded: HashMap<Fingerprint, JobOutput> = HashMap::new();
        for (part, needed) in parts.into_iter().zip(per_figure) {
            for fingerprint in &needed {
                if decoded.contains_key(fingerprint) {
                    continue;
                }
                let payload = merged
                    .take_payload(*fingerprint)
                    .expect("coverage checked and each payload decoded once")?;
                let output =
                    JobOutput::decode(&payload).map_err(|error| MergeError::BadOutput {
                        fingerprint: *fingerprint,
                        error,
                    })?;
                decoded.insert(*fingerprint, output);
            }
            let outputs: Vec<JobOutput> = part
                .range
                .clone()
                .map(|job| decoded[&fingerprints[job]].clone())
                .collect();
            emit(render_figure(&self.cfg, part.render, outputs));
            // Compaction: drop every decoded output this figure was the
            // last consumer of.
            for fingerprint in needed {
                let uses = remaining_uses.get_mut(&fingerprint).expect("counted above");
                *uses -= 1;
                if *uses == 0 {
                    decoded.remove(&fingerprint);
                }
            }
        }
        Ok(())
    }
}

/// The outcome of one shard execution ([`Campaign::run_shard`]): the
/// manifest to seal, the failures to report, and the counters for the run
/// summary.
#[derive(Debug)]
pub struct ShardRun {
    /// Which slice ran.
    pub spec: ShardSpec,
    /// Distinct jobs in the whole campaign grid.
    pub jobs_total: u64,
    /// Distinct jobs this shard owns.
    pub jobs_owned: u64,
    /// Owned jobs actually executed by this run: all of them for
    /// [`Campaign::run_shard`], only the previously-missing ones for
    /// [`Campaign::retry_shard`].
    pub jobs_rerun: u64,
    /// The manifest carrying every *successful* owned job's output.
    pub manifest: ShardManifest,
    /// Owned jobs that failed; the manifest is still sealable (a partial
    /// shard), and the merge stage will report the gap as incomplete
    /// coverage.
    pub failures: Vec<JobError>,
    /// The fleet-wide predicted-cost picture of the partition this run
    /// belongs to.
    pub makespan: ShardMakespan,
}

/// Predicted per-shard cost of one fleet partition, as seen by one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMakespan {
    /// How the fleet partitioned.
    pub balance: ShardBalance,
    /// Predicted cost of this shard's slice.
    pub this_shard_ns: u128,
    /// Predicted cost of the heaviest shard — the fleet's makespan
    /// estimate.
    pub max_shard_ns: u128,
    /// Mean predicted cost per shard (`max / mean` is the spread).
    pub mean_shard_ns: u128,
}

impl ShardRun {
    /// Whether every owned job succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Seals and writes the manifest into `dir`, returning the path and
    /// sealed size.
    ///
    /// # Errors
    ///
    /// See [`shard::write_manifest`].
    pub fn write_manifest(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<(std::path::PathBuf, u64)> {
        shard::write_manifest(dir, &self.manifest)
    }

    /// The `scheduling:` summary line data for this shard execution: the
    /// predicted per-shard cost picture of the partition it belongs to.
    pub fn sched_report(&self) -> stms_stats::SchedReport {
        stms_stats::SchedReport {
            jobs: self.jobs_owned,
            predicted_total_ns: self.makespan.this_shard_ns,
            order: None,
            calibration_samples: None,
            calibration_error_milli: None,
            actual_jobs: 0,
            actual_error_milli: None,
            balance: Some(self.makespan.balance.label().to_string()),
            this_shard_ns: Some(self.makespan.this_shard_ns),
            max_shard_ns: Some(self.makespan.max_shard_ns),
            mean_shard_ns: Some(self.makespan.mean_shard_ns),
        }
    }

    /// The run-summary line data for this shard execution.
    pub fn report(&self, manifest_bytes: u64) -> stms_stats::ShardReport {
        stms_stats::ShardReport {
            index: self.spec.index,
            count: self.spec.count,
            jobs_total: self.jobs_total,
            jobs_owned: self.jobs_owned,
            jobs_sealed: self.manifest.entries.len() as u64,
            jobs_failed: self.failures.len() as u64,
            manifest_bytes,
        }
    }

    /// The failures as one [`CampaignError`] carrying the shard context,
    /// or `None` when the shard completed.
    pub fn error(&self) -> Option<CampaignError> {
        if self.failures.is_empty() {
            return None;
        }
        Some(CampaignError {
            figure: format!("shard {}", self.spec),
            shard: Some(self.spec),
            failures: self.failures.clone(),
        })
    }
}

/// A submitted batch whose duplicate jobs share one task (see
/// [`Campaign::submit_jobs`]).
struct JobBatch {
    handle: BatchHandle<Option<JobOutput>>,
    /// The batch positions each task answers for, its own first.
    members: Vec<Vec<usize>>,
    flights: Arc<FlightTable>,
}

impl JobBatch {
    /// Hands `deliver` every job's outcome, by batch position, as soon as
    /// its task completes.
    fn for_each(self, mut deliver: impl FnMut(usize, Result<Option<JobOutput>, JobPanic>)) {
        let JobBatch {
            handle,
            members,
            flights,
        } = self;
        for (task, outcome) in handle {
            let (&leader, duplicates) = members[task]
                .split_first()
                .expect("every task answers for its own job");
            if !duplicates.is_empty() && matches!(outcome, Ok(Some(_))) {
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
    fn run_to_completion(self) -> Vec<Result<Option<JobOutput>, JobPanic>> {
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
/// the job's label and stable fingerprint to a captured panic or an
/// admission-level cancellation (`Ok(None)`).
fn job_outcome(
    ident: &(String, Fingerprint),
    outcome: Result<Option<JobOutput>, JobPanic>,
) -> Result<JobOutput, JobError> {
    let (label, fingerprint) = ident;
    match outcome {
        Ok(Some(output)) => Ok(output),
        Ok(None) => Err(JobError {
            job: label.clone(),
            fingerprint: Some(*fingerprint),
            message: "cancelled before execution".to_string(),
        }),
        Err(panic) => Err(JobError {
            job: label.clone(),
            fingerprint: Some(*fingerprint),
            message: panic.message().to_string(),
        }),
    }
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

/// Replays the phase timings recorded in merged shard manifests into the
/// registry, so `--merge-shards` surfaces fleet-wide queue/run distributions
/// under a `merge.*` prefix distinct from this process's own `job.*` series.
fn note_merged_timings(timings: &[ShardJobTiming]) {
    if timings.is_empty() || !stms_obs::is_enabled() {
        return;
    }
    let queue = stms_obs::histogram("merge.queue_ns");
    let run = stms_obs::histogram("merge.run_ns");
    for timing in timings {
        queue.record(timing.queue_ns);
        run.record(timing.run_ns);
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
            shard: None,
            failures,
        });
    }
    Ok(render_figure(cfg, render, oks))
}

/// Runs one figure's pure render stage over its outputs, attaching the raw
/// metric records for `--format json`. Shared by the live path
/// ([`finish_figure`]) and the merge path, which is what keeps their output
/// byte-identical.
fn render_figure(cfg: &ExperimentConfig, render: RenderFn, oks: Vec<JobOutput>) -> FigureResult {
    let metrics = oks
        .iter()
        .filter_map(|output| match output {
            JobOutput::Sim(result) => Some(crate::experiments::sim_metrics_json(result)),
            JobOutput::MissSequences(_) => None,
        })
        .collect();
    let mut figure = render(cfg, oks);
    figure.metrics = metrics;
    figure
}

fn collect_sims(
    results: Vec<Result<JobOutput, JobError>>,
) -> Result<Vec<stms_mem::SimResult>, JobError> {
    results
        .into_iter()
        .map(|r| r.map(JobOutput::into_sim))
        .collect()
}

/// Runs one job on the calling worker with in-flight dedup: the first
/// worker to reach a given job fingerprint executes it (the *leader*);
/// any worker reaching the same fingerprint while the leader runs waits on
/// its slot and shares the output. Leadership is claimed here — at
/// execution time, never at submit time — so a follower's wait is always
/// bounded by a job that already holds a worker: no circular wait is
/// possible regardless of pool size or queue order.
///
/// Exactly-once across *non-overlapping* executions is the result memo's
/// job; the leader re-checks it after claiming the slot (double-checked
/// locking against the table mutex), closing the window where a completed
/// leader has removed its slot but a racer missed the memo before the put.
///
/// Returns the job's fingerprint alongside the output only when this
/// worker *led* the flight and ran the engine; memo hits and shared
/// flights return `None`, so the caller's timing log describes real
/// executions only.
fn execute_job(
    cfg: &ExperimentConfig,
    store: &TraceStore,
    results: Option<&ResultStore>,
    flights: &FlightTable,
    job: JobSpec,
) -> (Option<Fingerprint>, JobOutput) {
    // A memoized output short-circuits everything, including trace
    // resolution: a fully warm campaign touches no generator and no engine.
    let key = results.map(|memo| (memo, memo.job_key(cfg, &job)));
    if let Some((memo, key)) = &key {
        if let Some(output) = memo.get(*key, cfg, &job) {
            return (None, output);
        }
    }
    let fingerprint = match &key {
        Some((_, key)) => *key,
        None => job_fingerprint(cfg, &job),
    };
    loop {
        let slot = match flights.join(fingerprint) {
            FlightRole::Follower(slot) => {
                match slot.wait() {
                    Some(output) => {
                        flights.shared.fetch_add(1, Ordering::Relaxed);
                        stms_obs::counter("flight.shared").incr();
                        return (None, output);
                    }
                    // The leader unwound without an output; take another
                    // turn (this worker may now lead and fail the same way,
                    // which is exactly the per-job error the caller expects).
                    None => continue,
                }
            }
            FlightRole::Leader(slot) => slot,
        };
        let mut guard = FlightGuard {
            flights,
            key: fingerprint,
            slot,
            filled: false,
        };
        if let Some((memo, key)) = &key {
            if let Some(output) = memo.get(*key, cfg, &job) {
                guard.fill(output.clone());
                return (None, output);
            }
        }
        let output = run_job_uncached(cfg, store, &job);
        if let Some((memo, key)) = &key {
            memo.put(*key, &output);
        }
        flights.executed.fetch_add(1, Ordering::Relaxed);
        stms_obs::counter("flight.executed").incr();
        guard.fill(output.clone());
        return (Some(fingerprint), output);
    }
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
    fn concurrent_duplicate_batches_execute_each_distinct_job_once() {
        // Four "clients" run the identical batch at the same time against
        // one campaign with a memory memo: the flight table plus the memo
        // must keep the execution count at exactly the distinct-job count.
        let caches = CampaignCaches {
            result_memory: true,
            ..CampaignCaches::default()
        };
        let campaign = Campaign::with_caches(quick(), 4, caches).expect("no dirs to create");
        let jobs = || {
            vec![
                JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline),
                JobSpec::replay(presets::oltp_db2(), PrefetcherKind::Baseline),
            ]
        };
        let clients = 4;
        let outputs: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| scope.spawn(|| campaign.run_jobs(jobs())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for results in &outputs {
            for result in results {
                assert!(result.is_ok());
            }
        }
        // Byte-identical outputs across clients.
        let reference: Vec<_> = outputs[0]
            .iter()
            .map(|r| r.as_ref().unwrap().encode())
            .collect();
        for other in &outputs[1..] {
            let encoded: Vec<_> = other.iter().map(|r| r.as_ref().unwrap().encode()).collect();
            assert_eq!(encoded, reference);
        }
        let flights = campaign.flight_stats();
        assert_eq!(flights.executed, 2, "each distinct job executes once");
        let results = campaign.cache_stats().result.expect("memory memo");
        assert_eq!(
            results.total_hits() + flights.shared + flights.executed,
            (clients * 2) as u64
        );
        assert_eq!(results.stores, 0, "memory-only memo writes no files");
        assert_eq!(campaign.store().stats().generated, 2);
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
    fn cancelled_token_skips_pending_jobs_and_reports_them() {
        let campaign = Campaign::with_threads(quick(), 1);
        let cancel = CancelToken::new();
        cancel.cancel();
        let plans = vec![crate::experiments::plan_table2(campaign.cfg())];
        let mut results = Vec::new();
        campaign.run_figures_streaming_cancellable(plans, &cancel, |figure| {
            results.push(figure);
        });
        assert_eq!(results.len(), 1);
        let err = results.pop().unwrap().expect_err("all jobs were skipped");
        assert!(err
            .failures
            .iter()
            .all(|f| f.message == "cancelled before execution"));
        // Nothing was generated or replayed: the pool was reclaimed without
        // touching the trace store.
        assert_eq!(campaign.store().stats().generated, 0);
        assert_eq!(campaign.flight_stats(), FlightStats::default());
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let campaign = Campaign::with_threads(quick(), 2);
        let cancel = CancelToken::new();
        let mut cancellable = Vec::new();
        campaign.run_figures_streaming_cancellable(
            vec![crate::experiments::plan_table1(campaign.cfg())],
            &cancel,
            |figure| cancellable.push(figure.expect("no job fails").render()),
        );
        let plain: Vec<String> = campaign
            .run_figures(vec![crate::experiments::plan_table1(campaign.cfg())])
            .into_iter()
            .map(|figure| figure.expect("no job fails").render())
            .collect();
        assert_eq!(cancellable, plain);
    }

    #[test]
    fn abandoned_flight_wakes_followers() {
        // A leader that panics must not strand concurrent followers: they
        // retry, lead themselves, and surface their own per-job error.
        let flights = FlightTable::default();
        let key = Fingerprint::from_raw(42);
        let FlightRole::Leader(slot) = flights.join(key) else {
            panic!("first join must lead");
        };
        let follower = {
            let FlightRole::Follower(slot) = flights.join(key) else {
                panic!("second join must follow");
            };
            slot
        };
        let waiter = std::thread::spawn(move || follower.wait());
        // Simulate the leader unwinding: guard dropped without fill.
        drop(FlightGuard {
            flights: &flights,
            key,
            slot,
            filled: false,
        });
        assert!(waiter.join().unwrap().is_none(), "follower must wake empty");
        // The slot is gone; the next join leads again.
        assert!(matches!(flights.join(key), FlightRole::Leader(_)));
    }

    #[test]
    fn campaign_error_display_lists_failures_with_shard_and_fingerprints() {
        let err = CampaignError {
            figure: "fig4".into(),
            shard: None,
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
        assert!(!text.contains("(shard"), "{text}");
        assert!(text.contains("2 job(s)"));
        assert!(text.contains("job `b` [fp"), "{text}");
        assert!(text.contains("failed: y"));

        let sharded = CampaignError {
            shard: Some(ShardSpec { index: 2, count: 4 }),
            ..err
        };
        assert!(sharded.to_string().contains("(shard 2/4)"));
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

    #[test]
    fn retry_shard_reruns_only_the_missing_jobs_and_completes_the_manifest() {
        let dir =
            std::env::temp_dir().join(format!("stms-campaign-retry-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = quick();
        let plans = |cfg: &ExperimentConfig| vec![crate::experiments::plan_table2(cfg)];
        let campaign = Campaign::with_threads(cfg.clone(), 2);

        // Seal a complete shard, then amputate two entries to fake the
        // manifest a partially-failed `--shard` run leaves behind.
        let run = campaign.run_shard(
            plans(&cfg),
            ShardSpec::new(1, 1).unwrap(),
            ShardBalance::Count,
        );
        assert!(run.is_complete());
        let complete_entries = run.manifest.entries.len();
        assert_eq!(run.jobs_rerun, run.jobs_owned);
        let mut partial = run.manifest.clone();
        let removed: Vec<_> = partial.entries.drain(..2).collect();
        let (path, _) = shard::write_manifest(&dir, &partial).unwrap();

        // Retry executes exactly the two missing jobs…
        let retry = campaign.retry_shard(plans(&cfg), &path).unwrap();
        assert_eq!(retry.jobs_rerun, 2);
        assert!(retry.is_complete());
        assert_eq!(retry.manifest.entries.len(), complete_entries);
        retry.write_manifest(&dir).unwrap();

        // …and the rerun outputs are bit-identical to the originals, so the
        // sealed-in-place manifest merges byte-identically.
        let reopened = ShardManifest::open(&std::fs::read(&path).unwrap()).unwrap();
        for (fingerprint, payload) in &removed {
            let healed = reopened
                .entries
                .iter()
                .find(|(fp, _)| fp == fingerprint)
                .expect("missing job was rerun");
            assert_eq!(&healed.1, payload, "deterministic rerun");
        }
        let direct = campaign
            .run_figures(plans(&cfg))
            .pop()
            .unwrap()
            .expect("no job fails")
            .render();
        let merged = campaign
            .merge_shards(plans(&cfg), std::slice::from_ref(&dir))
            .expect("completed manifest merges")
            .pop()
            .unwrap()
            .render();
        assert_eq!(merged, direct);

        // Retrying a complete manifest is a no-op.
        let idle = campaign.retry_shard(plans(&cfg), &path).unwrap();
        assert_eq!(idle.jobs_rerun, 0);
        assert!(idle.is_complete());

        // A manifest sealed under a different configuration is refused.
        let other = Campaign::with_threads(cfg.clone().with_accesses(123), 1);
        match other.retry_shard(plans(&other.cfg().clone()), &path) {
            Err(MergeError::StaleConfig { .. }) => {}
            other => panic!("expected StaleConfig, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_runs_partition_the_grid_and_merge_rebuilds_figures() {
        let dir =
            std::env::temp_dir().join(format!("stms-campaign-shard-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = quick();
        let plans = |cfg: &ExperimentConfig| vec![crate::experiments::plan_table2(cfg)];

        // Run both shards of a 2-way partition.
        let campaign = Campaign::with_threads(cfg.clone(), 2);
        let mut owned_total = 0;
        for index in 1..=2 {
            let spec = ShardSpec::new(index, 2).unwrap();
            let run = campaign.run_shard(plans(&cfg), spec, ShardBalance::Count);
            assert!(run.is_complete(), "{:?}", run.failures);
            assert!(run.error().is_none());
            owned_total += run.jobs_owned;
            assert_eq!(run.jobs_total, 8, "table2 plans 8 distinct jobs");
            let (path, bytes) = run.write_manifest(&dir).expect("manifest written");
            assert!(path.is_file());
            assert!(bytes > 0);
            let report = run.report(bytes);
            assert!(report.is_complete());
        }
        assert_eq!(owned_total, 8, "shards cover the grid exactly once");

        // Merge renders identically to a direct run.
        let direct = campaign
            .run_figures(plans(&cfg))
            .pop()
            .unwrap()
            .expect("no job fails");
        let merged = campaign
            .merge_shards(plans(&cfg), std::slice::from_ref(&dir))
            .expect("valid manifest set")
            .pop()
            .unwrap();
        assert_eq!(merged.render(), direct.render());
        assert_eq!(
            serde_json::to_string(&merged.to_json()),
            serde_json::to_string(&direct.to_json())
        );

        // Removing one manifest is incomplete coverage, a typed error.
        std::fs::remove_file(dir.join("shard-2-of-2.stms")).unwrap();
        match campaign.merge_shards(plans(&cfg), std::slice::from_ref(&dir)) {
            Err(MergeError::IncompleteCoverage { missing_shards, .. }) => {
                assert_eq!(missing_shards, vec![2]);
            }
            other => panic!("expected IncompleteCoverage, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
