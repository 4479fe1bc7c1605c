//! The resident campaign daemon.
//!
//! ```text
//! stms-serve --socket PATH [--quick] [--accesses N] [--threads N]
//!            [--result-cache DIR] [--cache-verify]
//!            [--stream-traces] [--metrics-out FILE]
//!            [--calibrate-from DIR]
//!            [--max-active N] [--max-queue N] [--read-timeout-ms MS]
//! ```
//!
//! Binds the Unix socket, keeps one campaign (trace store, result memo,
//! job pool, in-flight dedup) alive across requests, and serves until
//! `SIGTERM`/`SIGINT` or a client sends the `Shutdown` request. On exit it
//! prints a `serve:` report, the cache counters, and the `telemetry:`
//! block to stderr and removes the socket file; `--metrics-out FILE`
//! additionally writes the final registry snapshot as versioned JSON.
//! Every reported counter is cumulative since daemon start (see the
//! library's counter-semantics notes); a live daemon answers the same
//! values to `stms-serve-client --stats` / `--metrics` at any time.
//!
//! The experiment-model flags (`--quick`, `--accesses`, cache and
//! streaming flags) mean exactly what they mean on `stms-experiments`; a
//! daemon and a one-shot run configured alike produce byte-identical
//! figure bytes. That includes `--calibrate-from DIR`, which rescales the
//! daemon's job-cost model once at startup from the per-job timings sealed
//! in prior shard manifests — every request served afterwards schedules
//! its pool with the calibrated longest-predicted-first order. Scheduling
//! changes order only, never figure bytes.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use stms_serve::{ServeConfig, Server};
use stms_sim::experiments::{self, ALL_IDS};
use stms_sim::ExperimentConfig;
use stms_stats::{RunSummary, TelemetryReport};

/// Flipped by the signal handler; the accept loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::Release);
}

/// Installs `on_signal` for SIGINT and SIGTERM through the libc `signal`
/// entry point (no external crates; `std` links libc on unix).
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

fn usage() -> &'static str {
    "usage: stms-serve --socket PATH [--quick] [--accesses N] [--threads N]\n\
     \x20                 [--result-cache DIR] [--cache-verify]\n\
     \x20                 [--stream-traces] [--metrics-out FILE]\n\
     \x20                 [--calibrate-from DIR]\n\
     \x20                 [--max-active N] [--max-queue N] [--read-timeout-ms MS]"
}

fn parse_args(args: &[String]) -> Result<(ServeConfig, Option<PathBuf>, Option<PathBuf>), String> {
    let mut socket: Option<PathBuf> = None;
    let mut cfg = ExperimentConfig::scaled();
    let mut accesses: Option<usize> = None;
    let mut config = ServeConfig::new(PathBuf::new(), cfg.clone());
    let mut metrics_out: Option<PathBuf> = None;
    let mut calibrate_from: Option<PathBuf> = None;

    let mut i = 0;
    let value_of = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    let number_of = |i: &mut usize, flag: &str| -> Result<usize, String> {
        let v = value_of(i, flag)?;
        v.parse()
            .map_err(|_| format!("{flag} requires a number, got `{v}`"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => socket = Some(value_of(&mut i, "--socket")?.into()),
            "--quick" => cfg = ExperimentConfig::quick(),
            "--accesses" => {
                let n = number_of(&mut i, "--accesses")?;
                if n == 0 {
                    return Err("--accesses must be non-zero".into());
                }
                accesses = Some(n);
            }
            "--threads" => {
                config.threads = number_of(&mut i, "--threads")?;
                if config.threads == 0 {
                    return Err("--threads must be non-zero".into());
                }
            }
            "--result-cache" => {
                config.caches.result_dir = Some(value_of(&mut i, "--result-cache")?.into());
            }
            "--cache-verify" => config.caches.verify = true,
            "--stream-traces" => config.caches.stream_traces = true,
            "--metrics-out" => {
                metrics_out = Some(value_of(&mut i, "--metrics-out")?.into());
            }
            "--calibrate-from" => {
                calibrate_from = Some(value_of(&mut i, "--calibrate-from")?.into());
            }
            "--max-active" => {
                config.max_active = number_of(&mut i, "--max-active")?;
                if config.max_active == 0 {
                    return Err("--max-active must be non-zero".into());
                }
            }
            "--max-queue" => config.max_queue = number_of(&mut i, "--max-queue")?,
            "--read-timeout-ms" => {
                let ms = number_of(&mut i, "--read-timeout-ms")?;
                if ms == 0 {
                    return Err("--read-timeout-ms must be non-zero".into());
                }
                config.read_timeout = Duration::from_millis(ms as u64);
                config.write_timeout = Duration::from_millis(ms as u64);
            }
            flag => return Err(format!("unknown flag `{flag}`")),
        }
        i += 1;
    }
    let Some(socket) = socket else {
        return Err("--socket PATH is required".into());
    };
    if let Some(n) = accesses {
        cfg = cfg.with_accesses(n);
    }
    cfg.sim.validate().map_err(|e| e.to_string())?;
    config.socket = socket;
    config.cfg = cfg;
    Ok((config, metrics_out, calibrate_from))
}

/// Fits the campaign's job-cost model from pre-loaded manifest timings,
/// matching records against the full experiment grid (a daemon may be
/// asked for any figure). Returns the fit for the startup banner.
fn calibrate_campaign(
    campaign: &stms_sim::campaign::Campaign,
    timings: &[stms_types::ShardJobTiming],
) -> stms_sim::campaign::Calibration {
    let mut jobs = Vec::new();
    for id in ALL_IDS {
        if let Some(plan) = experiments::plan_for_id(id, campaign.cfg()) {
            jobs.extend(plan.jobs().iter().cloned());
        }
    }
    let grid = stms_sim::campaign::shard::distinct_jobs(campaign.cfg(), &jobs);
    let (model, fit) = stms_sim::campaign::JobCostModel::calibrated(campaign.cfg(), &grid, timings);
    campaign.set_cost_model(model);
    fit
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (config, metrics_out, calibrate_from) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Load the calibration corpus before binding, so a bad directory is a
    // clean usage error that leaves no stale socket file behind.
    let timings = match &calibrate_from {
        Some(dir) => match stms_sim::campaign::cost::load_timings(dir) {
            Ok(timings) => Some(timings),
            Err(message) => {
                eprintln!("error: --calibrate-from: {message}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    install_signal_handlers();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind serving socket: {e}");
            return ExitCode::from(2);
        }
    };
    // Fit before the first request so every served run schedules with the
    // calibrated model.
    let mut calibration = None;
    if let (Some(timings), Some(dir)) = (&timings, &calibrate_from) {
        let fit = calibrate_campaign(server.campaign(), timings);
        eprintln!(
            "calibrated cost model on {} timings from {}",
            fit.samples,
            dir.display()
        );
        calibration = Some(fit);
    }
    eprintln!("serving on {}", server.socket_path().display());
    let report = server.run_until(|| STOP.load(Ordering::Acquire));
    let mut summary = RunSummary::new();
    summary.push_serve(report);
    // The scheduling line describes the daemon's most recent served run —
    // later requests overwrite earlier logs, same as cache counters are
    // cumulative while the sched log is per-run.
    if let Some(mut sched) = server.campaign().take_sched_report() {
        if let Some(fit) = &calibration {
            sched.calibration_samples = Some(fit.samples);
            sched.calibration_error_milli = Some(fit.error_milli);
        }
        summary.push_sched(sched);
    }
    stms_sim::campaign::push_cache_reports(&mut summary, server.campaign());
    // Same registry the daemon answered to `--metrics` probes: cumulative
    // since start, so the shutdown block is the final (largest) snapshot.
    let snapshot = stms_obs::snapshot();
    if !snapshot.is_empty() {
        summary.push_telemetry(TelemetryReport {
            lines: snapshot.render_lines(),
        });
    }
    let mut failed = false;
    if let Some(path) = &metrics_out {
        match std::fs::write(path, snapshot.to_json_string()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!(
                    "error: cannot write metrics snapshot `{}`: {e}",
                    path.display()
                );
                failed = true;
            }
        }
    }
    eprint!("{}", summary.render());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
