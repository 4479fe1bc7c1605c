//! Test/CLI client for the `stms-serve` daemon.
//!
//! ```text
//! stms-serve-client --socket PATH [--figures ID[,ID...]] [--format text|json]
//!                   [--ping | --stats | --metrics | --shutdown]
//!                   [--stress N] [--disconnect-after K]
//! ```
//!
//! The default mode sends one `Run` request and prints the streamed figure
//! bodies (text) or the closing JSON document exactly as the one-shot
//! `stms-experiments` CLI would print them, so `cmp` against its stdout is
//! the byte-identity check. Figure errors go to stderr as `error: …`.
//!
//! `--stats` prints the daemon's serving counters as `name value` lines;
//! `--metrics` prints the daemon's full telemetry registry as the same
//! versioned JSON document `--metrics-out` writes. Both are answered
//! without taking an admission slot, so probing a saturated daemon never
//! competes with run traffic, and both report values cumulative since
//! daemon start (probes are monotone).
//!
//! `--stress N` opens N concurrent connections issuing the *same* request
//! (released together), asserts every connection streamed byte-identical
//! frames, and prints one copy — a shell-level dedup/consistency probe.
//!
//! `--disconnect-after K` drops the connection after reading K response
//! frames without sending the protocol's closing handshake, to exercise
//! the server's abandoned-request reclamation from outside.
//!
//! # Exit codes
//!
//! * `0` — success (`Done` with zero failures, or the probe succeeded);
//! * `1` — the run reported failed figures, the stream ended early, or a
//!   stress replica diverged;
//! * `2` — usage errors, connection failures, or `Rejected`.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Duration;
use stms_types::wire::{self, Request, RequestFormat, Response};

enum Mode {
    Run,
    Ping,
    Stats,
    Metrics,
    Shutdown,
}

struct Options {
    socket: PathBuf,
    figures: Vec<String>,
    format: RequestFormat,
    mode: Mode,
    stress: usize,
    disconnect_after: Option<usize>,
    timeout: Duration,
}

fn usage() -> &'static str {
    "usage: stms-serve-client --socket PATH [--figures ID[,ID...]] [--format text|json]\n\
     \x20                        [--ping | --stats | --metrics | --shutdown]\n\
     \x20                        [--stress N] [--disconnect-after K] [--timeout-ms MS]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut socket: Option<PathBuf> = None;
    let mut figures: Vec<String> = Vec::new();
    let mut format = RequestFormat::Text;
    let mut mode = Mode::Run;
    let mut stress = 1;
    let mut disconnect_after = None;
    let mut timeout = Duration::from_secs(600);

    let mut i = 0;
    let value_of = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => socket = Some(value_of(&mut i, "--socket")?.into()),
            "--figures" => {
                let v = value_of(&mut i, "--figures")?;
                figures.extend(
                    v.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string),
                );
            }
            "--format" => {
                let v = value_of(&mut i, "--format")?;
                format = match v.as_str() {
                    "text" => RequestFormat::Text,
                    "json" => RequestFormat::Json,
                    other => return Err(format!("--format must be text or json, got `{other}`")),
                };
            }
            "--ping" => mode = Mode::Ping,
            "--stats" => mode = Mode::Stats,
            "--metrics" => mode = Mode::Metrics,
            "--shutdown" => mode = Mode::Shutdown,
            "--stress" => {
                let v = value_of(&mut i, "--stress")?;
                stress = v
                    .parse()
                    .map_err(|_| format!("--stress requires a count, got `{v}`"))?;
                if stress == 0 {
                    return Err("--stress must be non-zero".into());
                }
            }
            "--disconnect-after" => {
                let v = value_of(&mut i, "--disconnect-after")?;
                disconnect_after = Some(
                    v.parse()
                        .map_err(|_| format!("--disconnect-after requires a count, got `{v}`"))?,
                );
            }
            "--timeout-ms" => {
                let v = value_of(&mut i, "--timeout-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("--timeout-ms requires a number, got `{v}`"))?;
                timeout = Duration::from_millis(ms);
            }
            id if !id.starts_with("--") => figures.push(id.to_string()),
            flag => return Err(format!("unknown flag `{flag}`")),
        }
        i += 1;
    }
    let Some(socket) = socket else {
        return Err("--socket PATH is required".into());
    };
    Ok(Options {
        socket,
        figures,
        format,
        mode,
        stress,
        disconnect_after,
        timeout,
    })
}

fn connect(opts: &Options) -> Result<UnixStream, String> {
    let stream = UnixStream::connect(&opts.socket)
        .map_err(|e| format!("cannot connect to {}: {e}", opts.socket.display()))?;
    let _ = stream.set_read_timeout(Some(opts.timeout));
    let _ = stream.set_write_timeout(Some(opts.timeout));
    Ok(stream)
}

/// The outcome of one full `Run` exchange: every response frame, in order.
fn run_once(opts: &Options) -> Result<Vec<Response>, String> {
    let mut stream = connect(opts)?;
    let request = Request::Run {
        figures: opts.figures.clone(),
        format: opts.format,
    };
    wire::send_request(&mut stream, &request).map_err(|e| format!("cannot send request: {e}"))?;
    let mut frames = Vec::new();
    loop {
        match wire::recv_response(&mut stream) {
            Ok(Some(response)) => {
                let last = matches!(response, Response::Done { .. } | Response::Rejected { .. });
                frames.push(response);
                if let Some(limit) = opts.disconnect_after {
                    if frames.len() >= limit {
                        // Abandon rudely: no handshake, just vanish.
                        drop(stream);
                        return Ok(frames);
                    }
                }
                if last {
                    return Ok(frames);
                }
            }
            Ok(None) => return Err("server closed the stream before Done".into()),
            Err(e) => return Err(format!("cannot read response: {e}")),
        }
    }
}

/// Prints a frame stream the way the one-shot CLI prints its run, and
/// reports `(failed_figures, rejected)`.
///
/// In JSON mode only the closing `Document` goes to stdout: the per-figure
/// frames still stream (they carry progress), but the CLI prints nothing
/// until its document either, and stdout must stay `cmp`-identical.
fn print_frames(frames: &[Response], format: RequestFormat) -> (u32, bool) {
    let mut failed = 0;
    let mut rejected = false;
    for frame in frames {
        match frame {
            Response::Figure { body, .. } => {
                // Matches the CLI's `println!("{}", result.render())`.
                if format == RequestFormat::Text {
                    println!("{body}");
                }
            }
            Response::FigureError { message, .. } => {
                eprintln!("error: {message}");
            }
            Response::Document { body } => println!("{body}"),
            Response::Done { failed: f, .. } => failed = *f,
            Response::Rejected { reason } => {
                eprintln!("rejected: {reason}");
                rejected = true;
            }
            other => eprintln!("unexpected frame: {other:?}"),
        }
    }
    (failed, rejected)
}

fn run_mode(opts: &Options) -> ExitCode {
    if opts.stress > 1 {
        return stress_mode(opts);
    }
    match run_once(opts) {
        Ok(frames) => {
            let complete = matches!(
                frames.last(),
                Some(Response::Done { .. } | Response::Rejected { .. })
            );
            let (failed, rejected) = print_frames(&frames, opts.format);
            if rejected {
                ExitCode::from(2)
            } else if failed > 0 || (!complete && opts.disconnect_after.is_none()) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// N concurrent identical requests, released together; every replica must
/// stream byte-identical frames, of which exactly one copy is printed.
fn stress_mode(opts: &Options) -> ExitCode {
    let barrier = Barrier::new(opts.stress);
    let outcomes: Vec<Result<Vec<Response>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.stress)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    run_once(opts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut reference: Option<&Vec<Response>> = None;
    for outcome in &outcomes {
        match outcome {
            Ok(frames) => match reference {
                None => reference = Some(frames),
                Some(expect) => {
                    if frames != expect {
                        eprintln!("error: stress replicas diverged");
                        return ExitCode::FAILURE;
                    }
                }
            },
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
        }
    }
    let frames = reference.expect("stress count is non-zero");
    let (failed, rejected) = print_frames(frames, opts.format);
    eprintln!("stress: {} identical response streams", opts.stress);
    if rejected {
        ExitCode::from(2)
    } else if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Sends one non-run request and expects one response frame.
fn simple_exchange(opts: &Options, request: Request) -> Result<Response, String> {
    let mut stream = connect(opts)?;
    wire::send_request(&mut stream, &request).map_err(|e| format!("cannot send request: {e}"))?;
    match wire::recv_response(&mut stream) {
        Ok(Some(response)) => Ok(response),
        Ok(None) => Err("server closed the connection without answering".into()),
        Err(e) => Err(format!("cannot read response: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    match opts.mode {
        Mode::Run => run_mode(&opts),
        Mode::Ping => match simple_exchange(&opts, Request::Ping) {
            Ok(Response::Pong) => {
                println!("pong");
                ExitCode::SUCCESS
            }
            Ok(other) => {
                eprintln!("error: unexpected answer to ping: {other:?}");
                ExitCode::FAILURE
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        },
        Mode::Stats => match simple_exchange(&opts, Request::Stats) {
            Ok(Response::Stats(counters)) => {
                let mut out = String::new();
                for (name, value) in [
                    ("requests", counters.requests),
                    ("accepted", counters.accepted),
                    ("rejected", counters.rejected),
                    ("cancelled", counters.cancelled),
                    ("figures_streamed", counters.figures_streamed),
                    ("jobs_executed", counters.jobs_executed),
                    ("jobs_shared", counters.jobs_shared),
                    ("jobs_cached", counters.jobs_cached),
                    ("traces_generated", counters.traces_generated),
                    ("stream_replays", counters.stream_replays),
                    ("active_requests", counters.active_requests),
                    ("queued_requests", counters.queued_requests),
                ] {
                    out.push_str(&format!("{name} {value}\n"));
                }
                print!("{out}");
                let _ = std::io::stdout().flush();
                ExitCode::SUCCESS
            }
            Ok(other) => {
                eprintln!("error: unexpected answer to stats: {other:?}");
                ExitCode::FAILURE
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        },
        Mode::Metrics => match simple_exchange(&opts, Request::Metrics) {
            Ok(Response::Metrics { json }) => {
                // The document already ends with a newline.
                print!("{json}");
                let _ = std::io::stdout().flush();
                ExitCode::SUCCESS
            }
            Ok(other) => {
                eprintln!("error: unexpected answer to metrics: {other:?}");
                ExitCode::FAILURE
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        },
        Mode::Shutdown => match simple_exchange(&opts, Request::Shutdown) {
            Ok(Response::ShuttingDown) => {
                println!("shutting down");
                ExitCode::SUCCESS
            }
            Ok(other) => {
                eprintln!("error: unexpected answer to shutdown: {other:?}");
                ExitCode::FAILURE
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        },
    }
}
