//! Command-line driver that regenerates every table and figure of the paper
//! through one shared campaign (shared traces, bounded job pool), either in
//! one process or sharded across many.
//!
//! ```text
//! stms-experiments [--quick] [--accesses N] [--threads N] [--warmup F]
//!                  [--figures ID[,ID...]] [--format text|json] [--csv DIR]
//!                  [--result-cache DIR] [--cache-verify]
//!                  [--stream-traces] [--metrics-out FILE]
//!                  [--calibrate-from DIR]
//!                  [--shard I/N --shard-out DIR [--shard-balance count|cost]
//!                   | --merge-shards DIR[,DIR...] | --retry-failed MANIFEST]
//!                  [EXPERIMENT ...]
//! ```
//!
//! With no selection every figure/table is produced. Experiments are
//! selected with `--figures fig5-left,fig8` or as bare positional ids; the
//! known ids are `table1`, `table2`, `fig1-left`, `fig1-right`, `fig4`,
//! `fig5-left`, `fig5-right`, `fig6-left`, `fig6-right`, `fig7`, `fig8`,
//! `fig9`, `ablation-index`, `markov-sweep`, plus the alias `all`.
//!
//! Figures render **streaming**: each one is printed as soon as its own
//! jobs complete (in selection order), so the first table appears long
//! before a many-figure run finishes.
//!
//! Each distinct trace is generated once per run and shared by every job
//! that replays it; traces are never written to disk. `--result-cache DIR`
//! memoizes finished job outputs across runs; `--cache-verify`
//! cross-checks every loaded output against its requesting job and
//! replays on mismatch. A warm run renders byte-identical stdout while
//! skipping all trace generation and replay; the cache counters are
//! reported in a `run summary:` block on stderr.
//!
//! # Out-of-core replay
//!
//! `--stream-traces` replays every trace as a chunked stream instead of a
//! materialized in-memory vector, so peak memory is independent of trace
//! length (`--accesses` can exceed available RAM): each job streams its
//! own generator, one chunk at a time, on its job thread. Stdout is
//! byte-identical to the materialized path, and a `streamed replay:` line
//! joins the stderr run summary.
//!
//! # Cost-model scheduling
//!
//! Every run predicts each job's cost with a deterministic analytic model
//! (trace length, prefetcher family, log-scaled table geometry, warm-up)
//! and submits the in-process pool longest-predicted-first, so straggler
//! jobs start early and the pool tail shrinks; figures still render in
//! selection order and stdout is byte-identical to plan-order submission.
//! `--calibrate-from DIR` rescales the model per prefetcher family from
//! the measured per-job timings sealed in any prior shard manifests in
//! `DIR`. A `scheduling:` line in the stderr run summary reports the
//! predicted total, the calibration fit (when one ran) and the
//! predicted-vs-actual error of the finished run.
//!
//! # Telemetry
//!
//! Every run records into the process-wide `stms_obs` metrics registry:
//! per-job queue/run/total phase histograms (also keyed per figure),
//! per-chunk simulate time of streamed replays (`stream.simulate_ns`),
//! cache tier hit/miss/evict latencies, and in-flight dedup counters. The
//! snapshot is rendered as a `telemetry:` block at the end of the stderr
//! run summary, and `--metrics-out FILE` additionally writes it as a
//! versioned JSON document (`"stms-metrics/v1"`). Telemetry never writes
//! to stdout, so figure output stays byte-identical to an uninstrumented
//! run. Shard runs embed their per-job phase timings into the sealed
//! manifest; `--merge-shards` folds every shard's timings back into
//! `merge.queue_ns`/`merge.run_ns`, aggregating fleet-wide timing without
//! rerunning anything.
//!
//! # Distributed campaigns
//!
//! `--shard I/N` runs only the 1-based `I`-th slice of the deterministic
//! `N`-way job partition (generate/replay only — nothing renders) and seals
//! the finished outputs into a manifest under `--shard-out DIR`.
//! `--shard-balance cost` replaces the default `fingerprint % N` split with
//! deterministic greedy bin-packing of predicted job costs, so every shard
//! carries near-equal predicted *work* instead of near-equal job count;
//! every shard of the fleet must pass the same balance mode (and the same
//! `--calibrate-from`, if any) — the mode is sealed into each manifest and
//! cross-checked at merge.
//! `--merge-shards DIR[,DIR...]` (repeatable) validates the manifests found
//! in the listed directories and renders the selected figures from them
//! without running a single simulation; stdout is byte-identical to an
//! unsharded run of the same selection. The merge streams: each figure
//! prints as soon as it renders, and each sealed payload is dropped after
//! its last consuming figure (manifest compaction), so merge memory tracks
//! the live figure window rather than the whole grid.
//!
//! `--retry-failed MANIFEST` repairs a *partial* shard (exit code 3): it
//! reruns only the owned jobs missing from the sealed manifest and seals
//! the completed manifest in place, so CI retries replay exactly the
//! failed slice instead of the whole shard.
//!
//! `--format json` emits one JSON array with one object per figure
//! (`{"id", "title", "headers", "rows", "notes", "metrics"}`, where
//! `"metrics"` carries the raw per-replay counters) for downstream tooling;
//! a figure whose jobs failed becomes `{"id", "error"}` and the exit code
//! is 1.
//!
//! # Exit codes
//!
//! * `0` — success (for `--shard`/`--retry-failed`: every owned job
//!   sealed);
//! * `1` — a figure failed to render, a merge was rejected (stale config,
//!   duplicate or missing shard coverage), a retry manifest was unusable,
//!   or a manifest could not be written;
//! * `2` — usage errors (unknown id/flag, invalid options);
//! * `3` — a *partial shard*: some jobs failed, but the manifest was still
//!   sealed with the completed outputs, so CI can retry just this slice
//!   with `--retry-failed`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use stms_sim::campaign::{
    cost, push_cache_reports, Calibration, Campaign, CampaignCaches, JobCostModel, ShardSpec,
};
use stms_sim::experiments::{self, ALL_IDS};
use stms_sim::{ExperimentConfig, FigurePlan, FigureResult};
use stms_stats::{RunSummary, SchedReport, TelemetryReport};
use stms_types::ShardBalance;

struct Options {
    cfg: ExperimentConfig,
    threads: usize,
    selected: Vec<String>,
    format: Format,
    csv_dir: Option<String>,
    caches: CampaignCaches,
    shard: Option<ShardSpec>,
    shard_out: Option<PathBuf>,
    shard_balance: ShardBalance,
    calibrate_from: Option<PathBuf>,
    merge_dirs: Vec<PathBuf>,
    retry_manifest: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn usage() -> String {
    format!(
        "usage: stms-experiments [--quick] [--accesses N] [--threads N] [--warmup F]\n\
         \x20                       [--figures ID[,ID...]] [--format text|json] [--csv DIR]\n\
         \x20                       [--result-cache DIR] [--cache-verify]\n\
         \x20                       [--stream-traces] [--metrics-out FILE]\n\
         \x20                       [--calibrate-from DIR]\n\
         \x20                       [--shard I/N --shard-out DIR [--shard-balance count|cost]\n\
         \x20                        | --merge-shards DIR[,DIR...] | --retry-failed MANIFEST]\n\
         \x20                       [EXPERIMENT ...]\n\
         experiments: {} (or `all`)",
        ALL_IDS.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut cfg = ExperimentConfig::scaled();
    let mut threads = stms_sim::JobPool::default_threads();
    let mut selected: Vec<String> = Vec::new();
    let mut format = Format::Text;
    let mut csv_dir: Option<String> = None;
    let mut warmup: Option<f64> = None;
    let mut accesses: Option<usize> = None;
    let mut caches = CampaignCaches::default();
    let mut shard: Option<ShardSpec> = None;
    let mut shard_out: Option<PathBuf> = None;
    let mut shard_balance: Option<ShardBalance> = None;
    let mut calibrate_from: Option<PathBuf> = None;
    let mut merge_dirs: Vec<PathBuf> = Vec::new();
    let mut retry_manifest: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;

    let mut i = 0;
    let value_of = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ExperimentConfig::quick(),
            "--accesses" => {
                let v = value_of(&mut i, "--accesses")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--accesses requires a number, got `{v}`"))?;
                if n == 0 {
                    return Err("--accesses must be non-zero".into());
                }
                accesses = Some(n);
            }
            "--threads" => {
                let v = value_of(&mut i, "--threads")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("--threads requires a number, got `{v}`"))?;
                if threads == 0 {
                    return Err("--threads must be non-zero".into());
                }
            }
            "--warmup" => {
                let v = value_of(&mut i, "--warmup")?;
                warmup = Some(
                    v.parse()
                        .map_err(|_| format!("--warmup requires a fraction, got `{v}`"))?,
                );
            }
            "--figures" => {
                let v = value_of(&mut i, "--figures")?;
                selected.extend(
                    v.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string),
                );
            }
            "--format" => {
                let v = value_of(&mut i, "--format")?;
                format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("--format must be text or json, got `{other}`")),
                };
            }
            "--csv" => csv_dir = Some(value_of(&mut i, "--csv")?),
            "--result-cache" => {
                caches.result_dir = Some(value_of(&mut i, "--result-cache")?.into());
            }
            "--cache-verify" => caches.verify = true,
            "--stream-traces" => caches.stream_traces = true,
            "--metrics-out" => {
                metrics_out = Some(value_of(&mut i, "--metrics-out")?.into());
            }
            "--retry-failed" => {
                retry_manifest = Some(value_of(&mut i, "--retry-failed")?.into());
            }
            "--shard" => {
                let v = value_of(&mut i, "--shard")?;
                shard = Some(ShardSpec::parse(&v)?);
            }
            "--shard-out" => shard_out = Some(value_of(&mut i, "--shard-out")?.into()),
            "--shard-balance" => {
                let v = value_of(&mut i, "--shard-balance")?;
                shard_balance =
                    Some(ShardBalance::parse(&v).ok_or_else(|| {
                        format!("--shard-balance must be count or cost, got `{v}`")
                    })?);
            }
            "--calibrate-from" => {
                calibrate_from = Some(value_of(&mut i, "--calibrate-from")?.into());
            }
            "--merge-shards" => {
                let v = value_of(&mut i, "--merge-shards")?;
                let before = merge_dirs.len();
                merge_dirs.extend(
                    v.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(PathBuf::from),
                );
                // An empty value must not silently fall back to a full
                // single-process simulation (e.g. an unset `$SHARD_DIRS`).
                if merge_dirs.len() == before {
                    return Err(format!(
                        "--merge-shards requires at least one directory, got `{v}`"
                    ));
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            id => selected.push(id.to_string()),
        }
        i += 1;
    }

    // Overrides apply after `--quick`/default selection, in any flag order.
    if let Some(n) = accesses {
        cfg = cfg.with_accesses(n);
    }
    // The fallible construction path: command-line options go through
    // SimOptions validation before any simulation starts.
    if let Some(fraction) = warmup {
        cfg.sim = cfg
            .sim
            .try_with_warmup(fraction)
            .map_err(|e| e.to_string())?;
    }
    cfg.sim.validate().map_err(|e| e.to_string())?;

    // Sharding flags must form a coherent mode.
    let modes = [
        shard.is_some(),
        !merge_dirs.is_empty(),
        retry_manifest.is_some(),
    ];
    if modes.iter().filter(|&&on| on).count() > 1 {
        return Err("--shard, --merge-shards and --retry-failed are mutually exclusive".into());
    }
    if shard.is_some() && shard_out.is_none() {
        return Err("--shard requires --shard-out DIR for the sealed manifest".into());
    }
    if shard.is_none() && shard_out.is_some() {
        return Err("--shard-out is only meaningful with --shard I/N".into());
    }
    if shard.is_none() && shard_balance.is_some() {
        return Err("--shard-balance is only meaningful with --shard I/N".into());
    }
    // Merge runs no cost model at all — silently accepting the flag would
    // suggest calibration affected the (purely validated) merge.
    if calibrate_from.is_some() && !merge_dirs.is_empty() {
        return Err(
            "--calibrate-from has no effect with --merge-shards (nothing is scheduled)".into(),
        );
    }
    // Shard and retry modes render nothing, so output flags would be
    // silently dead.
    let renderless = if shard.is_some() {
        Some("--shard")
    } else if retry_manifest.is_some() {
        Some("--retry-failed")
    } else {
        None
    };
    if let Some(mode) = renderless {
        if csv_dir.is_some() {
            return Err(format!(
                "--csv has no effect with {mode} (nothing renders); use it on the merge"
            ));
        }
        if format == Format::Json {
            return Err(format!(
                "--format json has no effect with {mode} (nothing renders); use it on the merge"
            ));
        }
    }

    // `all` (anywhere in the selection) and an empty selection both mean
    // every known experiment.
    if selected.is_empty() || selected.iter().any(|id| id == "all") {
        selected = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    Ok(Options {
        cfg,
        threads,
        selected,
        format,
        csv_dir,
        caches,
        shard,
        shard_out,
        shard_balance: shard_balance.unwrap_or_default(),
        calibrate_from,
        merge_dirs,
        retry_manifest,
        metrics_out,
    })
}

/// Attaches the registry snapshot's `telemetry:` block to the summary and,
/// when `--metrics-out` was given, writes the versioned JSON snapshot.
/// Returns `false` when the snapshot file could not be written.
fn finish_telemetry(summary: &mut RunSummary, metrics_out: Option<&std::path::Path>) -> bool {
    let snapshot = stms_obs::snapshot();
    if !snapshot.is_empty() {
        summary.push_telemetry(TelemetryReport {
            lines: snapshot.render_lines(),
        });
    }
    let Some(path) = metrics_out else {
        return true;
    };
    match std::fs::write(path, snapshot.to_json_string()) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!(
                "error: cannot write metrics snapshot `{}`: {e}",
                path.display()
            );
            false
        }
    }
}

/// Shared figure-output stage: prints text renders as they arrive, writes
/// CSV files, and accumulates JSON items. Used identically by the streaming
/// single-process path and the merge path, which is what keeps their stdout
/// byte-identical.
struct FigureSink<'a> {
    opts: &'a Options,
    json_items: Vec<serde_json::Value>,
    failed: bool,
}

impl<'a> FigureSink<'a> {
    fn new(opts: &'a Options) -> Self {
        FigureSink {
            opts,
            json_items: Vec::new(),
            failed: false,
        }
    }

    fn accept(&mut self, figure: Result<FigureResult, stms_sim::CampaignError>) {
        if self.opts.format == Format::Json {
            // The shared helper is also what the serve daemon uses, so a
            // served document is byte-identical to this one by construction.
            self.json_items.push(experiments::figure_json_item(&figure));
        }
        match figure {
            Ok(result) => {
                if self.opts.format == Format::Text {
                    println!("{}", result.render());
                }
                if let Some(dir) = &self.opts.csv_dir {
                    let path = format!("{dir}/{}.csv", result.id);
                    match std::fs::File::create(&path)
                        .and_then(|mut f| f.write_all(result.table.to_csv().as_bytes()))
                    {
                        Ok(()) => eprintln!("wrote {path}"),
                        Err(e) => {
                            eprintln!("error: cannot write {path}: {e}");
                            self.failed = true;
                        }
                    }
                }
            }
            Err(err) => {
                eprintln!("error: {err}");
                self.failed = true;
            }
        }
    }

    /// Emits the collected JSON document (if in JSON mode) and reports
    /// whether any figure failed.
    fn finish(self) -> bool {
        if self.opts.format == Format::Json {
            println!("{}", experiments::figures_json_document(self.json_items));
        }
        self.failed
    }
}

/// Merges the calibration fit (when `--calibrate-from` ran) into a
/// scheduling report before it renders.
fn merge_calibration(sched: &mut SchedReport, calibration: Option<Calibration>) {
    if let Some(calibration) = calibration {
        sched.calibration_samples = Some(calibration.samples);
        sched.calibration_error_milli = Some(calibration.error_milli);
    }
}

/// Runs one shard slice and seals its manifest. See the exit-code contract
/// in the module docs.
fn run_shard_mode(
    campaign: &Campaign,
    plans: Vec<FigurePlan>,
    spec: ShardSpec,
    balance: ShardBalance,
    calibration: Option<Calibration>,
    out_dir: &std::path::Path,
    metrics_out: Option<&std::path::Path>,
) -> ExitCode {
    let run = campaign.run_shard(plans, spec, balance);
    if let Some(error) = run.error() {
        eprintln!("error: {error}");
    }
    let (path, bytes) = match run.write_manifest(out_dir) {
        Ok(written) => written,
        Err(e) => {
            eprintln!(
                "error: cannot write shard manifest to `{}`: {e}",
                out_dir.display()
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!("sealed {}", path.display());
    let mut summary = RunSummary::new();
    summary.push_shard(run.report(bytes));
    let mut sched = run.sched_report();
    merge_calibration(&mut sched, calibration);
    summary.push_sched(sched);
    push_cache_reports(&mut summary, campaign);
    let metrics_ok = finish_telemetry(&mut summary, metrics_out);
    eprint!("{}", summary.render());
    if !metrics_ok {
        ExitCode::FAILURE
    } else if run.is_complete() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

/// Reruns only the jobs missing from a partial shard manifest and seals
/// the completed manifest in place. Exit codes mirror `--shard`: 0 when the
/// shard is now complete, 3 when jobs failed again, 1 when the manifest is
/// unusable.
fn run_retry_mode(
    campaign: &Campaign,
    plans: Vec<FigurePlan>,
    calibration: Option<Calibration>,
    manifest_path: &std::path::Path,
    metrics_out: Option<&std::path::Path>,
) -> ExitCode {
    let run = match campaign.retry_shard(plans, manifest_path) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "retried shard {}: {} missing job(s) rerun",
        run.spec, run.jobs_rerun
    );
    if let Some(error) = run.error() {
        eprintln!("error: {error}");
    }
    let dir = manifest_path.parent().unwrap_or(std::path::Path::new("."));
    let (path, bytes) = match run.write_manifest(dir) {
        Ok(written) => written,
        Err(e) => {
            eprintln!(
                "error: cannot write shard manifest to `{}`: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    };
    // The healed manifest seals under its conventional shard-I-of-N name.
    // If the partial file was renamed (so the two names are different
    // files), remove the stale original — otherwise a later merge of the
    // directory would see the same shard twice and fail with
    // DuplicateShard. Identity is checked on canonicalized paths, never
    // lexically: on a case-insensitive filesystem a differently-spelled
    // path to the same file must not delete the manifest just sealed.
    let same_file = match (path.canonicalize(), manifest_path.canonicalize()) {
        (Ok(sealed), Ok(original)) => sealed == original,
        // Cannot prove they differ: leave the original alone.
        _ => true,
    };
    if !same_file {
        let _ = std::fs::remove_file(manifest_path);
    }
    eprintln!("sealed {}", path.display());
    let mut summary = RunSummary::new();
    summary.push_shard(run.report(bytes));
    let mut sched = run.sched_report();
    merge_calibration(&mut sched, calibration);
    summary.push_sched(sched);
    push_cache_reports(&mut summary, campaign);
    let metrics_ok = finish_telemetry(&mut summary, metrics_out);
    eprint!("{}", summary.render());
    if !metrics_ok {
        ExitCode::FAILURE
    } else if run.is_complete() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Help wins over everything else, before any parsing.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut plans = Vec::new();
    for id in &opts.selected {
        match experiments::plan_for_id(id, &opts.cfg) {
            Some(plan) => plans.push(plan),
            None => {
                eprintln!(
                    "error: unknown experiment `{id}` (known: {})",
                    ALL_IDS.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }

    if let Some(dir) = &opts.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create csv output directory `{dir}`: {e}");
            return ExitCode::from(2);
        }
    }

    // Merge mode replays nothing, so don't spawn an idle worker fleet.
    let threads = if opts.merge_dirs.is_empty() {
        opts.threads
    } else {
        1
    };
    let campaign = match Campaign::with_caches(opts.cfg.clone(), threads, opts.caches.clone()) {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("error: cannot open cache directory: {e}");
            return ExitCode::from(2);
        }
    };

    // Calibrate the cost model from prior manifests before anything is
    // scheduled. Scheduling never changes results, only order, so a failed
    // expectation here is a usage error, not a partial run.
    let mut calibration: Option<Calibration> = None;
    if let Some(dir) = &opts.calibrate_from {
        let timings = match cost::load_timings(dir) {
            Ok(timings) => timings,
            Err(message) => {
                eprintln!("error: --calibrate-from: {message}");
                return ExitCode::from(2);
            }
        };
        let jobs: Vec<_> = plans
            .iter()
            .flat_map(|plan| plan.jobs().iter().cloned())
            .collect();
        let grid = stms_sim::campaign::shard::distinct_jobs(campaign.cfg(), &jobs);
        let (model, fit) = JobCostModel::calibrated(campaign.cfg(), &grid, &timings);
        campaign.set_cost_model(model);
        calibration = Some(fit);
    }

    // Shard mode: generate/replay one slice, seal, render nothing.
    if let Some(spec) = opts.shard {
        let out_dir = opts.shard_out.as_deref().expect("validated in parse_args");
        return run_shard_mode(
            &campaign,
            plans,
            spec,
            opts.shard_balance,
            calibration,
            out_dir,
            opts.metrics_out.as_deref(),
        );
    }
    // Retry mode: rerun only the jobs missing from a partial manifest.
    if let Some(manifest) = &opts.retry_manifest {
        return run_retry_mode(
            &campaign,
            plans,
            calibration,
            manifest,
            opts.metrics_out.as_deref(),
        );
    }

    let mut sink = FigureSink::new(&opts);
    if opts.merge_dirs.is_empty() {
        // Single-process mode: figures stream out as their jobs complete.
        campaign.run_figures_streaming(plans, |figure| sink.accept(figure));
    } else {
        // Merge mode: hydrate sealed shard outputs streaming, replay
        // nothing, and drop each payload after its last consuming figure.
        if let Err(err) = campaign.merge_shards_streaming(plans, &opts.merge_dirs, |figure| {
            sink.accept(Ok(figure));
        }) {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    }
    let failed = sink.finish();
    // Cache accounting and telemetry go to stderr so a warm run's stdout
    // stays byte-identical to the cold run that populated the cache — and
    // an instrumented run's stdout identical to a registry-disabled one.
    let mut summary = RunSummary::new();
    push_cache_reports(&mut summary, &campaign);
    let metrics_ok = finish_telemetry(&mut summary, opts.metrics_out.as_deref());
    // A plain run keeps stderr summary-free (the quiet-default contract);
    // the scheduling line joins whenever a summary prints anyway, or when
    // a calibration was explicitly requested. Render order is fixed by
    // RunSummary, not push order.
    if let Some(mut sched) = campaign.take_sched_report() {
        if calibration.is_some() || !summary.is_empty() {
            merge_calibration(&mut sched, calibration);
            summary.push_sched(sched);
        }
    }
    if !summary.is_empty() {
        eprint!("{}", summary.render());
    }
    if failed || !metrics_ok {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
