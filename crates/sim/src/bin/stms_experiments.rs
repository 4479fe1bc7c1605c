//! Command-line driver that regenerates every table and figure of the paper
//! through one in-process campaign (shared traces, bounded job pool).
//!
//! ```text
//! stms-experiments [--quick] [--accesses N] [--threads N] [--warmup F]
//!                  [--figures ID[,ID...]] [--format text|json] [--csv DIR]
//!                  [--metrics-out FILE] [EXPERIMENT ...]
//! ```
//!
//! With no selection every figure/table is produced. Experiments are
//! selected with `--figures fig5-left,fig8` or as bare positional ids; the
//! known ids are those of `stms_sim::experiments::FIGURES` (listed by
//! `--help`), plus the alias `all`. A `--figures` value naming no id (say
//! `--figures ,`) is a usage error, not a request for every figure.
//!
//! The jobs of every selected figure go to the pool as one batch, trace by
//! trace and in plan order within a trace. Figures render **streaming**:
//! each one is printed as soon as its own jobs and those of every figure
//! before it complete (in selection order).
//!
//! Each distinct trace is generated once per run, held in memory and
//! shared by every job that replays it, together with one recorded
//! hierarchy log (its L1, L2 and stride outcomes) per trace, and dropped
//! after its last job. Nothing is written to disk or read back from an
//! earlier run: every run simulates every distinct job. A run with jobs
//! reports its dedup and trace counters in a `run summary:` block on
//! stderr.
//!
//! # Telemetry
//!
//! Every run records into the process-wide `stms_obs` metrics registry:
//! per-job queue/run/total phase histograms (also keyed per figure),
//! trace generation and hierarchy-log recording times, trace-store
//! hit/miss latencies, and batch dedup counters. The
//! snapshot is rendered as a `telemetry:` block at the end of the stderr
//! run summary, and `--metrics-out FILE` additionally writes it as a
//! versioned JSON document (`"stms-metrics/v1"`). Telemetry never writes
//! to stdout, so figure output stays byte-identical to an uninstrumented
//! run.
//!
//! `--format json` emits one JSON array with one object per figure
//! (`{"id", "title", "headers", "rows", "notes", "metrics"}`, where
//! `"metrics"` carries the raw per-replay counters) for downstream tooling;
//! a figure whose jobs failed becomes `{"id", "error"}` and the exit code
//! is 1.
//!
//! # Exit codes
//!
//! * `0` — success;
//! * `1` — a figure failed to render, or an output file could not be
//!   written;
//! * `2` — usage errors (unknown id/flag, invalid options).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use stms_sim::campaign::{push_cache_reports, Campaign};
use stms_sim::experiments::{self, FIGURES};
use stms_sim::{ExperimentConfig, FigureResult};
use stms_stats::{RunSummary, TelemetryReport};

struct Options {
    cfg: ExperimentConfig,
    threads: usize,
    selected: Vec<String>,
    format: Format,
    csv_dir: Option<String>,
    metrics_out: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

/// Upper bound on `--threads`: a batch starts up to this many OS threads.
const MAX_THREADS: usize = 1024;

/// The known experiment ids, comma-separated, in presentation order.
fn known_ids() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|&(id, _)| id).collect();
    ids.join(", ")
}

fn usage() -> String {
    format!(
        "usage: stms-experiments [--quick] [--accesses N] [--threads N] [--warmup F]\n\
         \x20                       [--figures ID[,ID...]] [--format text|json] [--csv DIR]\n\
         \x20                       [--metrics-out FILE] [EXPERIMENT ...]\n\
         experiments: {} (or `all`)",
        known_ids()
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
                if threads > MAX_THREADS {
                    return Err(format!(
                        "--threads must be at most {MAX_THREADS}, got {threads}"
                    ));
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
                let before = selected.len();
                selected.extend(
                    v.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string),
                );
                // An empty selection means `all`, so a value naming no id
                // must not reach it.
                if selected.len() == before {
                    return Err(format!("--figures names no experiment, got `{v}`"));
                }
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
            "--metrics-out" => {
                metrics_out = Some(value_of(&mut i, "--metrics-out")?.into());
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

    // Every id is checked, also beside an `all` that would replace it.
    if let Some(id) = selected
        .iter()
        .find(|id| *id != "all" && !FIGURES.iter().any(|&(known, _)| known == id.as_str()))
    {
        return Err(format!(
            "unknown experiment `{id}` (known: {})",
            known_ids()
        ));
    }
    // `all` (anywhere in the selection) and no selection at all both mean
    // every known experiment.
    if selected.is_empty() || selected.iter().any(|id| id == "all") {
        selected = FIGURES.iter().map(|&(id, _)| id.to_string()).collect();
    } else {
        // A repeated id renders once, at its first position.
        let mut seen = std::collections::HashSet::new();
        selected.retain(|id| seen.insert(id.clone()));
    }
    Ok(Options {
        cfg,
        threads,
        selected,
        format,
        csv_dir,
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

/// Figure-output stage: prints text renders as they arrive, writes CSV
/// files, and accumulates JSON items.
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

    let plans: Vec<_> = opts
        .selected
        .iter()
        .map(|id| experiments::plan_for_id(id, &opts.cfg).expect("parse_args checked the id"))
        .collect();

    if let Some(dir) = &opts.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create csv output directory `{dir}`: {e}");
            return ExitCode::from(2);
        }
    }

    let campaign = Campaign::with_threads(opts.cfg.clone(), opts.threads);

    let mut sink = FigureSink::new(&opts);
    // Figures stream out as their jobs complete.
    campaign.run_figures_streaming(plans, |figure| sink.accept(figure));
    let failed = sink.finish();
    // Cache accounting and telemetry go to stderr so an instrumented run's
    // stdout stays identical to a registry-disabled one.
    let mut summary = RunSummary::new();
    push_cache_reports(&mut summary, &campaign);
    let metrics_ok = finish_telemetry(&mut summary, opts.metrics_out.as_deref());
    // Only a selection with no jobs (say `table1`) leaves the summary
    // empty; any run with jobs reports `job flights`, `traces` and
    // `telemetry`.
    if !summary.is_empty() {
        eprint!("{}", summary.render());
    }
    if failed || !metrics_ok {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
