//! Campaign orchestration: cached trace generation, bounded scheduling, and
//! declarative figure plans.
//!
//! The paper's evaluation is a `(workload × prefetcher × sweep-point)` grid
//! rendered as 14 tables and figures. This module decomposes the run
//! lifecycle into reusable stages:
//!
//! 1. **Generation** — the [`TraceStore`] generates each distinct workload
//!    trace once per batch, shares it as a [`stms_types::SharedTrace`], and
//!    drops it after its last job;
//! 2. **Scheduling** — the [`JobPool`] replays a batch's figure cells on
//!    a bounded number of scoped worker threads, trace by trace and in
//!    plan order within a trace, with panic-safe, per-job error
//!    reporting. Equal jobs in one batch run once, and so do ideal-TMS
//!    jobs that differ only in bounds that cannot bind on their trace.
//!    With more than one worker, each trace's first task goes ahead of
//!    the previous trace's rest, so the next trace is generated while the
//!    current one replays;
//! 3. **Aggregation** — each figure is a declarative [`FigurePlan`]: a list
//!    of [`JobSpec`]s plus a render stage that folds the job outputs into a
//!    [`FigureResult`]. [`Campaign::run_figures`] runs the jobs of
//!    *every* requested figure as one batch, so independent cells from
//!    different figures interleave on the same workers.
//!
//! Traces are not persisted: regenerating one is cheaper than reading it
//! back.
//!
//! # Example
//!
//! ```no_run
//! use stms_sim::campaign::Campaign;
//! use stms_sim::{experiments, ExperimentConfig};
//!
//! let campaign = Campaign::with_threads(ExperimentConfig::quick(), 2);
//! let plans = ["table2", "fig4"]
//!     .iter()
//!     .filter_map(|id| experiments::plan_for_id(id, campaign.cfg()))
//!     .collect();
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
pub use pool::{JobPanic, JobPool};
pub use result_store::{ResultStore, ResultStoreStats};
pub use trace_store::{TraceStore, TraceStoreStats};

use crate::experiments::FigureResult;
use crate::system::ExperimentConfig;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stms_mem::{CmpSimulator, Prefetcher};
use stms_prefetch::MissTraceCollector;
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
    /// Every failed job, each carrying its job fingerprint when one
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
/// processes; only the benchmark's `grid-warm` workload does. Traces are
/// never persisted; each campaign regenerates the ones its executing jobs
/// need.
#[derive(Debug, Clone, Default)]
pub struct CampaignCaches {
    /// Directory of the [`ResultStore`].
    pub result_dir: Option<std::path::PathBuf>,
    /// Deep verification of decoded results: cross-check each loaded output
    /// against the job that requested it and replay on mismatch, instead of
    /// trusting the sealed envelope.
    pub verify: bool,
}

/// Combined cache counters of one campaign (see [`Campaign::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignCacheStats {
    /// Trace-tier counters.
    pub trace: TraceStoreStats,
    /// Result-tier counters, when a result cache is configured.
    pub result: Option<ResultStoreStats>,
}

/// Appends to a stderr `run summary:` block, once jobs ran, how many
/// executed and how many shared a duplicate's output (`job flights`, with
/// the jobs shared because their bounds cannot bind), how
/// many requests found their trace in the store (`traces`, with the traces
/// released and the most held at once), and how many jobs replayed a
/// recorded hierarchy log (`hierarchy logs`, with the logs' total size).
pub fn push_cache_reports(summary: &mut stms_stats::RunSummary, campaign: &Campaign) {
    use stms_stats::CacheReport;
    let trace = campaign.store.stats();
    let flights = campaign.flight_stats();
    if flights.executed + flights.shared > 0 {
        summary.push(
            CacheReport::new("job flights", flights.shared, flights.executed)
                .with_detail("bound-equivalent", flights.bound_shared),
        );
    }
    if trace.generated > 0 {
        summary.push(
            CacheReport::new("traces", trace.hits, trace.misses)
                .with_detail("released", trace.released)
                .with_detail("max resident", trace.max_resident),
        );
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
    /// Jobs that took the output of an equal or provably equivalent job
    /// earlier in the same batch instead of replaying.
    pub shared: u64,
    /// The jobs among `shared` whose output came from a job that differs
    /// from them only in ideal-TMS bounds that cannot bind on the trace
    /// (see [`Campaign::run_jobs`]), counted in `shared` too.
    pub bound_shared: u64,
}

/// One experiment campaign: a configuration, a shared trace store, an
/// optional persistent result memo (see [`CampaignCaches`]), and a bounded
/// job pool.
///
/// A campaign is `Sync`: several threads may run batches on it at once.
#[derive(Debug)]
pub struct Campaign {
    cfg: ExperimentConfig,
    store: TraceStore,
    results: Option<ResultStore>,
    /// The live [`FlightStats`] counters.
    executed: AtomicU64,
    shared: AtomicU64,
    bound_shared: AtomicU64,
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
    /// let caches = CampaignCaches {
    ///     result_dir: Some(dir.clone()),
    ///     ..CampaignCaches::default()
    /// };
    /// let cfg = ExperimentConfig::quick().with_accesses(2_000);
    /// let kinds = [PrefetcherKind::Baseline];
    ///
    /// // Cold, then warm: the second campaign replays nothing at all.
    /// let cold = Campaign::with_caches(cfg.clone(), 2, caches.clone()).unwrap();
    /// cold.run_matched(&presets::web_apache(), &kinds).unwrap();
    /// let warm = Campaign::with_caches(cfg, 2, caches).unwrap();
    /// warm.run_matched(&presets::web_apache(), &kinds).unwrap();
    /// assert_eq!(warm.store().stats().generated, 0);
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
        let results = match &caches.result_dir {
            Some(dir) => Some(ResultStore::open(dir)?.with_verify(caches.verify)),
            None => None,
        };
        Ok(Campaign {
            cfg,
            store: TraceStore::new(),
            results,
            executed: AtomicU64::new(0),
            shared: AtomicU64::new(0),
            bound_shared: AtomicU64::new(0),
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
            executed: self.executed.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
            bound_shared: self.bound_shared.load(Ordering::Relaxed),
        }
    }

    /// Number of pool workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs a batch of jobs on the pool, resolving traces through the shared
    /// store. Results come back in job order; a panicking simulation yields
    /// `Err(JobError)` in its slot (carrying the job's fingerprint).
    ///
    /// Equal jobs run once. Without a result store, so do idealized-TMS
    /// jobs that differ only in bounds that cannot bind on their trace: a
    /// per-core history bound of at least
    /// [`WorkloadSpec::max_accesses_per_core`] entries, or an index bound
    /// of at least the trace length. Each such job's output is exactly
    /// what it would compute alone.
    pub fn run_jobs(&self, jobs: Vec<JobSpec>) -> Vec<Result<JobOutput, JobError>> {
        let mut outcomes: Vec<Option<_>> = (0..jobs.len()).map(|_| None).collect();
        self.run_batch(jobs, None, |i, outcome| outcomes[i] = Some(outcome));
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every job delivered"))
            .collect()
    }

    /// Runs a batch trace by trace, handing `deliver` each job's outcome,
    /// by batch position, as soon as its task completes.
    ///
    /// Each spec's trace length is first set to the campaign's, the length
    /// the store generates, so that equal jobs run once and the tasks on
    /// one trace form one group. Jobs that are equal, or equal up to
    /// ideal-TMS bounds that cannot bind on the trace
    /// ([`JobSpec::dedup_key`]), run once: only the first becomes a task,
    /// with its own configuration, and its outcome is delivered to the
    /// others, so a follower never holds a worker. A task whose trace no
    /// other task of the batch replays simulates the caches live instead of
    /// recording a hierarchy log it would replay only once.
    ///
    /// The tasks go to the pool ordered by their trace's first use, in
    /// batch order within a trace. With more than one worker, each trace's
    /// first task goes ahead of the previous trace's rest, so one worker
    /// generates the next trace and records its log while the others
    /// replay the current one. The tasks on a trace share one claim on it,
    /// and the trace and its logs are dropped when the last of them ends,
    /// so the store holds at most one trace per worker, plus one with more
    /// than one worker.
    ///
    /// `figures[i]`, when given, labels `jobs[i]`'s phase timings with its
    /// figure id in the telemetry registry; the phase clock itself always
    /// runs — queue wait is measured from the batch's start to the moment
    /// a worker picks the task up, run time from pickup to output.
    fn run_batch(
        &self,
        mut jobs: Vec<JobSpec>,
        figures: Option<&[&str]>,
        mut deliver: impl FnMut(usize, Result<JobOutput, JobError>),
    ) {
        for job in &mut jobs {
            job.workload.accesses = self.cfg.accesses;
        }
        // A campaign with a result store keys each job on itself: every
        // job's output must be stored under its own fingerprint, or a
        // follower misses the store in every later campaign, and storing
        // followers' outputs from the deliver loop costs a warm campaign
        // more than the shared replays save.
        let key_of = |job: &JobSpec| match self.results {
            Some(_) => job.clone(),
            None => job.dedup_key(),
        };
        // One task per distinct key, answering for every batch position
        // that carries it, its own first; the tasks grouped by trace, in
        // order of the trace's first use.
        let mut task_of: HashMap<JobSpec, usize> = HashMap::with_capacity(jobs.len());
        let mut positions: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<&WorkloadSpec, usize> = HashMap::new();
        let mut groups = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            match task_of.entry(key_of(job)) {
                Entry::Occupied(task) => {
                    positions[*task.get()].push(i);
                    continue;
                }
                Entry::Vacant(slot) => slot.insert(positions.len()),
            };
            let group = *group_of.entry(&job.workload).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[group].push((positions.len(), job, figures.map(|f| f[i])));
            positions.push(vec![i]);
        }
        let claims: Vec<_> = groups
            .iter()
            .map(|group| {
                let claim = self.store.claim(&group[0].1.workload, self.cfg.accesses);
                (Arc::new(claim), group.len() > 1)
            })
            .collect();
        let (mut members, mut tasks) = (Vec::new(), Vec::new());
        for (group, (task, job, figure)) in trace_order(groups, self.pool.threads() > 1) {
            let (claim, shared_trace) = (Arc::clone(&claims[group].0), claims[group].1);
            members.push(std::mem::take(&mut positions[task]));
            let enqueued = std::time::Instant::now();
            tasks.push(move || {
                // Dropped last, also when the job panics: the last task on
                // the trace releases it.
                let _claim = claim;
                let queue_ns = elapsed_ns(enqueued);
                let started = std::time::Instant::now();
                let output = self.execute_job(shared_trace, job);
                note_job_phases(figure, queue_ns, elapsed_ns(started));
                output
            });
        }
        // Only the tasks hold the claims now, so each trace is released
        // when its last task ends.
        drop(claims);
        self.pool.for_each(tasks, |task, outcome| {
            let (&leader, duplicates) = members[task]
                .split_first()
                .expect("every task answers for its own job");
            if !duplicates.is_empty() && outcome.is_ok() {
                let shared = duplicates.len() as u64;
                self.shared.fetch_add(shared, Ordering::Relaxed);
                stms_obs::counter("flight.shared").add(shared);
                let by_bound = duplicates
                    .iter()
                    .filter(|&&i| jobs[i] != jobs[leader])
                    .count() as u64;
                self.bound_shared.fetch_add(by_bound, Ordering::Relaxed);
            }
            // A captured panic becomes each job's error, under its own
            // label and fingerprint.
            let for_job = |i: usize, outcome: Result<JobOutput, JobPanic>| {
                outcome.map_err(|panic| JobError {
                    job: jobs[i].label(),
                    fingerprint: Some(job_fingerprint(&self.cfg, &jobs[i])),
                    message: panic.message().to_string(),
                })
            };
            for &duplicate in duplicates {
                deliver(duplicate, for_job(duplicate, outcome.clone()));
            }
            deliver(leader, for_job(leader, outcome));
        });
    }

    /// Runs one job on the calling worker: a result-memo hit when one is
    /// configured, otherwise the simulation, whose output is then memoized
    /// under the job's [`job_fingerprint`].
    ///
    /// On a `shared_trace` (other jobs of the batch replay it too), the
    /// trace's L1/L2/stride outcomes are recorded once and shared by every
    /// job on it, and the job replays only its own lane. A job alone on its
    /// trace simulates the caches live: recording costs about as much as a
    /// live replay, so a log replayed once saves nothing.
    fn execute_job(&self, shared_trace: bool, job: &JobSpec) -> JobOutput {
        let Campaign { cfg, store, .. } = self;
        // A memoized output short-circuits everything, including trace
        // resolution: a fully warm campaign touches no generator and no
        // engine.
        let memo = self
            .results
            .as_ref()
            .map(|memo| (memo, job_fingerprint(cfg, job)));
        if let Some(output) = memo.and_then(|(memo, key)| memo.get(key, cfg, job)) {
            return output;
        }
        let (trace, log) = if shared_trace {
            store.get_or_generate_logged(&job.workload, cfg.accesses, &cfg.system)
        } else {
            (store.get_or_generate(&job.workload, cfg.accesses), None)
        };
        let replay = |prefetcher: &mut dyn Prefetcher| {
            let engine = CmpSimulator::new(&cfg.system, cfg.sim);
            match &log {
                Some(log) => engine.run_logged(&trace, log, prefetcher),
                None => engine.run(&trace, prefetcher),
            }
        };
        let output = match &job.task {
            JobTask::Replay(kind) => JobOutput::Sim(replay(kind.build(cfg.system.cores).as_mut())),
            JobTask::CollectMisses => {
                let mut collector = MissTraceCollector::new(cfg.system.cores);
                replay(&mut collector);
                JobOutput::MissSequences(collector.all_cores())
            }
        };
        if let Some((memo, key)) = memo {
            memo.put(key, &output);
        }
        self.executed.fetch_add(1, Ordering::Relaxed);
        stms_obs::counter("flight.executed").incr();
        output
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
    /// All jobs of all plans form one batch, so the workers drain one
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
    /// Jobs go to the pool trace by trace, in plan order within a trace,
    /// so a figure whose traces come late emits late. Streaming changes
    /// time-to-first-table, never content or order: a driver that prints
    /// each emitted figure produces stdout byte-identical to collecting
    /// everything first.
    pub fn run_figures_streaming<F>(&self, plans: Vec<FigurePlan>, mut emit: F)
    where
        F: FnMut(Result<FigureResult, CampaignError>),
    {
        let (mut jobs, mut figure_of, mut parts) = (Vec::new(), Vec::new(), Vec::new());
        for (figure, plan) in plans.into_iter().enumerate() {
            let start = jobs.len();
            figure_of.extend(plan.jobs.iter().map(|_| figure));
            jobs.extend(plan.jobs);
            parts.push(FigurePart {
                id: plan.id,
                range: start..jobs.len(),
                render: plan.render,
            });
        }
        let ids: Vec<String> = parts.iter().map(|part| part.id.clone()).collect();
        let labels: Vec<&str> = figure_of.iter().map(|&f| ids[f].as_str()).collect();
        let mut outstanding: Vec<usize> = parts.iter().map(|p| p.range.len()).collect();
        let mut pending = parts.into_iter().enumerate().peekable();
        let mut outputs: Vec<Option<Result<JobOutput, JobError>>> =
            (0..jobs.len()).map(|_| None).collect();

        // Records one job's outcome, if any, then emits every figure whose
        // jobs are all done, in plan order (no-job figures at the head
        // render before any simulation finishes).
        let mut deliver = |job: Option<(usize, Result<JobOutput, JobError>)>| {
            if let Some((i, outcome)) = job {
                outputs[i] = Some(outcome);
                outstanding[figure_of[i]] -= 1;
            }
            while let Some((_, part)) = pending.next_if(|(f, _)| outstanding[*f] == 0) {
                emit(finish_figure(&self.cfg, part, &mut outputs));
            }
        };
        deliver(None);
        self.run_batch(jobs, Some(&labels), |i, outcome| {
            deliver(Some((i, outcome)));
        });
        debug_assert!(pending.next().is_none(), "every figure emitted");
    }
}

/// Flattens a batch's per-trace task groups, each paired with its group
/// index, into the order the pool takes them. In `lookahead` order each
/// group's first task goes ahead of the previous group's rest:
/// `[a0, b0, a1.., c0, b1.., …]`. Single-task groups keep their order.
fn trace_order<T>(groups: Vec<Vec<T>>, lookahead: bool) -> Vec<(usize, T)> {
    let mut order = Vec::with_capacity(groups.iter().map(Vec::len).sum());
    let mut rest: Option<(usize, std::vec::IntoIter<T>)> = None;
    for (group, tasks) in groups.into_iter().enumerate() {
        let mut tasks = tasks.into_iter();
        if !lookahead {
            order.extend(tasks.map(|task| (group, task)));
            continue;
        }
        order.extend(tasks.next().map(|task| (group, task)));
        if let Some((previous, tasks)) = rest.replace((group, tasks)) {
            order.extend(tasks.map(|task| (previous, task)));
        }
    }
    if let Some((last, tasks)) = rest {
        order.extend(tasks.map(|task| (last, task)));
    }
    order
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
        assert!(results[1].coverage() >= results[0].coverage());
        // Matched runs replay the identical trace: the base miss opportunity
        // is (approximately) the same.
        let base = results[0].base_read_misses() as f64;
        let ideal = results[1].base_read_misses() as f64;
        assert!(
            (base - ideal).abs() / base < 0.2,
            "base {base} vs ideal {ideal}"
        );
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
                shared: 3,
                bound_shared: 0
            }
        );
        let traces = campaign.store().stats();
        assert_eq!(
            traces.logs_recorded, 0,
            "each task is alone on its trace, so both run the live caches"
        );
    }

    #[test]
    fn only_a_trace_with_several_tasks_records_a_hierarchy_log() {
        let jobs = vec![
            JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline),
            JobSpec::replay(presets::web_apache(), PrefetcherKind::ideal()),
            JobSpec::replay(presets::oltp_db2(), PrefetcherKind::Baseline),
            // A duplicate is not a second task on its trace.
            JobSpec::replay(presets::oltp_db2(), PrefetcherKind::Baseline),
        ];
        let campaign = Campaign::with_threads(quick(), 2);
        let batch = campaign.run_jobs(jobs.clone());
        let traces = campaign.store().stats();
        assert_eq!((traces.logs_recorded, traces.log_hits), (1, 1));
        assert!(traces.log_bytes > 0);
        // Logged or live, each output equals the job run alone.
        for (job, output) in jobs.into_iter().zip(batch) {
            let alone = Campaign::with_threads(quick(), 1).run_jobs(vec![job]);
            assert_eq!(
                output.expect("no job fails").encode(),
                alone[0].as_ref().expect("no job fails").encode()
            );
        }
    }

    #[test]
    fn specs_differing_only_in_trace_length_share_one_trace_and_log() {
        // The store generates every spec at the campaign's trace length, so
        // a spec's own `accesses` must not split its trace's group.
        let web = |accesses| presets::web_apache().with_accesses(accesses);
        let jobs = vec![
            JobSpec::replay(web(1_000), PrefetcherKind::Baseline),
            JobSpec::replay(web(2_000), PrefetcherKind::ideal()),
            // The first job again, at a third length: a duplicate.
            JobSpec::replay(web(3_000), PrefetcherKind::Baseline),
        ];
        let campaign = Campaign::with_threads(quick(), 1);
        let batch = campaign.run_jobs(jobs);
        assert!(batch.iter().all(Result::is_ok));
        let traces = campaign.store().stats();
        assert_eq!((traces.generated, traces.logs_recorded), (1, 1));
        assert_eq!(
            campaign.flight_stats(),
            FlightStats {
                executed: 2,
                shared: 1,
                bound_shared: 0
            }
        );
    }

    #[test]
    fn negative_zero_warmup_is_the_same_job_as_zero() {
        let with_warmup = |warmup_fraction| {
            let mut cfg = quick();
            cfg.sim.warmup_fraction = warmup_fraction;
            cfg
        };
        let (pos, neg) = (with_warmup(0.0), with_warmup(-0.0));
        let job = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        assert_eq!(job_fingerprint(&pos, &job), job_fingerprint(&neg, &job));
        let run = |cfg: ExperimentConfig| {
            let campaign = Campaign::with_threads(cfg, 1);
            let outputs: Vec<Vec<u8>> = campaign
                .run_jobs(vec![job.clone(), job.clone()])
                .into_iter()
                .map(|output| output.expect("no job fails").encode())
                .collect();
            (outputs, campaign.flight_stats())
        };
        let (pos_run, neg_run) = (run(pos), run(neg));
        assert_eq!(pos_run, neg_run);
        assert_eq!(pos_run.1.shared, 1, "the duplicate shares the flight");
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
        assert!(
            campaign.store().is_empty(),
            "a panicking task still counts itself done, so its trace is dropped"
        );
    }

    #[test]
    fn one_thread_campaign_drops_each_trace_after_its_last_job() {
        let jobs = vec![
            JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline),
            JobSpec::replay(presets::oltp_db2(), PrefetcherKind::ideal()),
            JobSpec::collect_misses(presets::web_apache()),
            JobSpec::replay(presets::sci_ocean(), PrefetcherKind::Baseline),
            JobSpec::replay(presets::oltp_db2(), PrefetcherKind::Baseline),
            JobSpec::replay(presets::web_apache(), PrefetcherKind::ideal()),
            JobSpec::replay(presets::oltp_db2(), PrefetcherKind::ideal()),
        ];
        let campaign = Campaign::with_threads(quick(), 1);
        let batch = campaign.run_jobs(jobs.clone());
        assert!(campaign.store().is_empty());
        let traces = campaign.store().stats();
        assert_eq!((traces.generated, traces.released), (3, 3));
        assert_eq!(
            traces.max_resident, 1,
            "one worker running trace by trace holds one trace at a time"
        );
        for (job, output) in jobs.into_iter().zip(batch) {
            let alone = Campaign::with_threads(quick(), 1).run_jobs(vec![job]);
            assert_eq!(
                output.expect("no job fails").encode(),
                alone[0].as_ref().expect("no job fails").encode()
            );
        }
    }

    #[test]
    fn two_workers_prepare_each_trace_once_and_match_one_worker() {
        let kinds = [
            PrefetcherKind::Baseline,
            PrefetcherKind::ideal(),
            PrefetcherKind::stms_with_sampling(0.125),
        ];
        let specs = [
            presets::web_apache(),
            presets::oltp_db2(),
            presets::sci_ocean(),
            presets::dss_qry17(),
        ];
        let mut jobs: Vec<JobSpec> = specs
            .iter()
            .flat_map(|spec| {
                kinds
                    .iter()
                    .map(|kind| JobSpec::replay(spec.clone(), kind.clone()))
            })
            .collect();
        jobs.push(JobSpec::collect_misses(presets::oltp_db2()));
        let encode = |outputs: Vec<Result<JobOutput, JobError>>| -> Vec<Vec<u8>> {
            outputs
                .into_iter()
                .map(|output| output.expect("no job fails").encode())
                .collect()
        };
        let two = Campaign::with_threads(quick(), 2);
        let batch = encode(two.run_jobs(jobs.clone()));
        let traces = two.store().stats();
        assert_eq!(
            (traces.generated, traces.misses, traces.logs_recorded),
            (4, 4, 4),
            "each trace is generated and logged exactly once"
        );
        assert_eq!(traces.released, 4);
        assert!(
            traces.max_resident <= 3,
            "two workers hold one trace each, plus the next one: {}",
            traces.max_resident
        );
        assert_eq!(
            batch,
            encode(Campaign::with_threads(quick(), 1).run_jobs(jobs))
        );
    }

    #[test]
    fn trace_order_puts_each_first_task_ahead_of_the_previous_rest() {
        let groups = vec![
            vec!["a0", "a1", "a2"],
            vec!["b0"],
            vec!["c0", "c1"],
            vec!["d0", "d1"],
        ];
        let order = |lookahead| -> Vec<(usize, &str)> { trace_order(groups.clone(), lookahead) };
        assert_eq!(
            order(false),
            [(0, "a0"), (0, "a1"), (0, "a2"), (1, "b0"), (2, "c0")]
                .into_iter()
                .chain([(2, "c1"), (3, "d0"), (3, "d1")])
                .collect::<Vec<_>>()
        );
        assert_eq!(
            order(true),
            [(0, "a0"), (1, "b0"), (0, "a1"), (0, "a2"), (2, "c0")]
                .into_iter()
                .chain([(3, "d0"), (2, "c1"), (3, "d1")])
                .collect::<Vec<_>>()
        );
        let single: Vec<Vec<u8>> = (0..4).map(|i| vec![i]).collect();
        assert_eq!(
            trace_order(single.clone(), true),
            trace_order(single, false),
            "single-task traces keep their order"
        );
    }

    #[test]
    fn only_bounds_that_cannot_bind_share_a_key() {
        // 8,003 accesses on 4 cores: no core issues more than 2,001.
        let workload = presets::web_apache().with_accesses(8_003);
        let per_core = workload.max_accesses_per_core();
        assert_eq!(per_core, 2_001);
        let key = |index_entries, history_entries| {
            let kind = PrefetcherKind::IdealTms {
                index_entries,
                history_entries,
            };
            JobSpec::replay(workload.clone(), kind).dedup_key()
        };
        let unbounded = key(None, 1 << 22);
        assert_eq!(key(None, per_core), unbounded);
        assert_ne!(key(None, per_core - 1), unbounded);
        let bounded = key(Some(1 << 20), 1 << 22);
        assert_eq!(key(Some(8_003), per_core), bounded);
        assert_ne!(key(Some(8_002), 1 << 22), bounded);
        assert_ne!(
            bounded, unbounded,
            "bounded and unbounded indexes name their outputs apart"
        );
        assert_ne!(key(None, 0), unbounded, "a zero history stays itself");
        // Keying runs outside the workers' panic capture, so an invalid
        // spec must reach its job to fail there.
        let coreless = JobSpec::replay(
            WorkloadSpec {
                cores: 0,
                ..workload.clone()
            },
            PrefetcherKind::ideal(),
        );
        let _ = coreless.dedup_key();
        let campaign = Campaign::with_threads(quick(), 1);
        assert!(campaign.run_jobs(vec![coreless])[0].is_err());
        for job in [
            JobSpec::replay(workload.clone(), PrefetcherKind::stms_with_sampling(0.125)),
            JobSpec::collect_misses(workload.clone()),
        ] {
            assert_eq!(job.dedup_key(), job, "other jobs key on themselves");
        }
    }

    #[test]
    fn grid_jobs_that_share_a_key_compute_the_same_result_alone() {
        let cfg = ExperimentConfig::quick().with_accesses(8_000);
        let mut by_key: HashMap<JobSpec, Vec<JobSpec>> = HashMap::new();
        for plan in crate::experiments::all_plans(&cfg) {
            for job in plan.jobs() {
                let job = JobSpec {
                    workload: job.workload.clone().with_accesses(cfg.accesses),
                    task: job.task.clone(),
                };
                let members = by_key.entry(job.dedup_key()).or_default();
                if !members.contains(&job) {
                    members.push(job);
                }
            }
        }
        let alone = |job: &JobSpec| {
            let mut outputs = Campaign::with_threads(cfg.clone(), 1).run_jobs(vec![job.clone()]);
            outputs
                .pop()
                .expect("one job")
                .expect("no job fails")
                .into_sim()
        };
        let mut merged = 0;
        for members in by_key.values().filter(|members| members.len() > 1) {
            let leader = alone(&members[0]);
            for follower in &members[1..] {
                assert_eq!(
                    alone(follower),
                    leader,
                    "{} vs {}",
                    follower.label(),
                    members[0].label()
                );
                merged += 1;
            }
        }
        // fig5-left's five upper history points on each of 8 workloads share
        // fig4's unbounded job; fig1-left's four upper index points collapse
        // into one job on each of 5 workloads.
        assert_eq!(merged, 5 * 8 + 3 * 5);
    }

    #[test]
    fn a_second_batch_generates_its_trace_again() {
        let campaign = Campaign::with_threads(quick(), 1);
        let job = JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline);
        let first = campaign.run_jobs(vec![job.clone()]);
        let second = campaign.run_jobs(vec![job]);
        assert_eq!(
            first[0].as_ref().expect("no job fails").encode(),
            second[0].as_ref().expect("no job fails").encode()
        );
        let traces = campaign.store().stats();
        assert_eq!(
            (traces.generated, traces.released),
            (2, 2),
            "the first batch dropped the trace after its last job"
        );
    }

    #[test]
    fn threads_sharing_one_campaign_each_get_the_batch_outputs() {
        let jobs = vec![
            JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline),
            JobSpec::replay(presets::web_apache(), PrefetcherKind::ideal()),
            JobSpec::replay(presets::oltp_db2(), PrefetcherKind::Baseline),
            JobSpec::collect_misses(presets::sci_ocean()),
        ];
        let encode = |outputs: Vec<Result<JobOutput, JobError>>| -> Vec<Vec<u8>> {
            outputs
                .into_iter()
                .map(|output| output.expect("no job fails").encode())
                .collect()
        };
        let batch = encode(Campaign::with_threads(quick(), 2).run_jobs(jobs.clone()));
        // Several callers run one job each on one shared campaign at once.
        let shared = Campaign::with_threads(quick(), 2);
        let outputs: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let callers: Vec<_> = jobs
                .iter()
                .map(|job| scope.spawn(|| encode(shared.run_jobs(vec![job.clone()]))))
                .collect();
            callers
                .into_iter()
                .flat_map(|caller| caller.join().expect("run_jobs catches job panics"))
                .collect()
        });
        assert_eq!(outputs, batch);
        assert!(shared.store().is_empty(), "every caller released its trace");
    }

    #[test]
    fn more_workers_than_jobs_render_the_same_figure() {
        let render = |threads: usize| -> String {
            let campaign = Campaign::with_threads(quick(), threads);
            let plan = crate::experiments::plan_for_id("table2", campaign.cfg()).expect("known id");
            assert_eq!(plan.job_count(), 8);
            let figure = campaign.run_figures(vec![plan]).pop().expect("one figure");
            figure.expect("no job fails").render()
        };
        assert_eq!(render(16), render(1));
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
        let plans = |cfg: &ExperimentConfig| -> Vec<FigurePlan> {
            ["table1", "table2", "fig1-right"]
                .iter()
                .map(|id| crate::experiments::plan_for_id(id, cfg).expect("known id"))
                .collect()
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
}
