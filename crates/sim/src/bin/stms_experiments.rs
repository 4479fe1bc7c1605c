//! Command-line driver that regenerates every table and figure of the paper
//! through one in-process campaign (shared traces, bounded job pool).
//!
//! ```text
//! stms-experiments [--quick] [--accesses N] [--threads N] [--warmup F]
//!                  [--figures ID[,ID...]] [--format text|json] [--csv DIR]
//!                  [--result-cache DIR] [--cache-verify]
//!                  [--stream-traces] [--metrics-out FILE]
//!                  [EXPERIMENT ...]
//! ```
//!
//! With no selection every figure/table is produced. Experiments are
//! selected with `--figures fig5-left,fig8` or as bare positional ids; the
//! known ids are `table1`, `table2`, `fig1-left`, `fig1-right`, `fig4`,
//! `fig5-left`, `fig5-right`, `fig6-left`, `fig6-right`, `fig7`, `fig8`,
//! `fig9`, `ablation-index`, `markov-sweep`, plus the alias `all`.
//!
//! The jobs of every selected figure go to the pool in plan order as one
//! batch. Figures render **streaming**: each one is printed as soon as its
//! own jobs complete (in selection order), so the first table appears long
//! before a many-figure run finishes.
//!
//! Each distinct trace is generated once per run and shared by every job
//! that replays it; traces are never written to disk. `--result-cache DIR`
//! memoizes finished job outputs across runs (processes sharing the
//! directory reuse each other's outputs); `--cache-verify` cross-checks
//! every loaded output against its requesting job and replays on mismatch.
//! A warm run renders byte-identical stdout while skipping all trace
//! generation and replay; the cache counters are reported in a
//! `run summary:` block on stderr.
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
//! # Telemetry
//!
//! Every run records into the process-wide `stms_obs` metrics registry:
//! per-job queue/run/total phase histograms (also keyed per figure),
//! per-chunk simulate time of streamed replays (`stream.simulate_ns`),
//! cache tier hit/miss/evict latencies, and batch dedup counters. The
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
use stms_sim::campaign::{push_cache_reports, Campaign, CampaignCaches};
use stms_sim::experiments::{self, ALL_IDS};
use stms_sim::{ExperimentConfig, FigureResult};
use stms_stats::{RunSummary, TelemetryReport};

struct Options {
    cfg: ExperimentConfig,
    threads: usize,
    selected: Vec<String>,
    format: Format,
    csv_dir: Option<String>,
    caches: CampaignCaches,
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

    // Verification reads back cached outputs; without a cache there is
    // nothing to verify, and silently accepting the flag would suggest
    // otherwise.
    if caches.verify && caches.result_dir.is_none() {
        return Err("--cache-verify has no effect without --result-cache DIR".into());
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

    let campaign = match Campaign::with_caches(opts.cfg.clone(), opts.threads, opts.caches.clone())
    {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("error: cannot open cache directory: {e}");
            return ExitCode::from(2);
        }
    };

    let mut sink = FigureSink::new(&opts);
    // Figures stream out as their jobs complete.
    campaign.run_figures_streaming(plans, |figure| sink.accept(figure));
    let failed = sink.finish();
    // Cache accounting and telemetry go to stderr so a warm run's stdout
    // stays byte-identical to the cold run that populated the cache — and
    // an instrumented run's stdout identical to a registry-disabled one.
    let mut summary = RunSummary::new();
    push_cache_reports(&mut summary, &campaign);
    let metrics_ok = finish_telemetry(&mut summary, opts.metrics_out.as_deref());
    // A plain run keeps stderr summary-free (the quiet-default contract).
    if !summary.is_empty() {
        eprint!("{}", summary.render());
    }
    if failed || !metrics_ok {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
