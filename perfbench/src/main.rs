//! `stms-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`).
//!
//! `--one-thread-pass <grid accesses>:<replay accesses> [--dir <cache>]`
//! is the grid workloads' one-thread pass, which a run starts as a fresh
//! process of this executable; it prints the pass's digest and peak RSS.

use std::path::PathBuf;
use std::process::ExitCode;
use stms_perfbench::inputs::Scale;
use stms_perfbench::report::{end_to_end_names, per_layer_names};
use stms_perfbench::{run, threads, Settings, Workload};

const USAGE: &str =
    "usage: stms-perfbench --workload grid-cold|replay-long|grid-warm --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    settings: Settings,
    trace: bool,
    one_thread_pass: bool,
    dir: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut one_thread_pass, mut dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--one-thread-pass" => {
                let (grid, replay) = value.split_once(':').ok_or_else(bad)?;
                one_thread_pass = Some(Scale {
                    grid_accesses: grid.parse().map_err(|_| bad())?,
                    replay_accesses: replay.parse().map_err(|_| bad())?,
                });
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        settings: Settings {
            scale: one_thread_pass.unwrap_or(Scale::BENCH),
            seed: seed.ok_or("--seed is required")?,
            seconds: if one_thread_pass.is_some() {
                0.0
            } else {
                seconds.ok_or("--seconds is required")?
            },
            threads: threads(),
            exe,
        },
        trace: trace.unwrap_or(false),
        one_thread_pass: one_thread_pass.is_some(),
        dir,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("stms-perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.one_thread_pass {
        let pass =
            stms_perfbench::one_thread_pass(&args.settings, args.workload, args.dir.as_deref());
        return match pass {
            Ok((digest, rss)) => {
                println!("digest {digest}");
                println!("peak_rss_mb {rss}");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("stms-perfbench: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = run(&args.settings, args.workload, args.trace).and_then(|(report, gate)| {
        let declared = if args.trace {
            per_layer_names()
        } else {
            end_to_end_names()
        };
        let line = report.result_line(&gate, &declared)?;
        Ok((report, line))
    });
    match outcome {
        Ok((report, line)) => {
            println!("workload: {}", args.workload.name());
            println!("seed: {}", args.settings.seed);
            println!("threads: {}", args.settings.threads);
            for note in &report.notes {
                println!("{note}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("stms-perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}
