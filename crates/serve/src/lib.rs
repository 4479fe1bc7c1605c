//! Resident campaign daemon for the STMS reproduction.
//!
//! `stms-serve` keeps one [`Campaign`] — trace store, result memo, job
//! pool and in-flight dedup table — alive across many figure requests, so
//! interactive clients pay the trace-generation and replay cost exactly
//! once per distinct cell however many of them ask, and concurrently.
//!
//! The daemon listens on a local Unix socket speaking the length-prefixed,
//! sealed-envelope frame protocol of [`stms_types::wire`]: one
//! [`Request`] per connection, answered by a stream of
//! [`Response`] frames. A `Run` request goes through the
//! serving lifecycle:
//!
//! 1. **admit** — the [`Gate`] bounds concurrent runs (`max_active`) and
//!    the waiting line (`max_queue`); queueing is ticket-FIFO, so runs are
//!    served in arrival order and an abandoned waiter never blocks the
//!    line. Past capacity the request is refused immediately with
//!    [`Response::Rejected`], never silently
//!    stalled.
//! 2. **dedup** — every job of the run joins the campaign's singleflight
//!    table: a cell some other client is executing *right now* is shared,
//!    a cell finished earlier is a result-memo hit, and only genuinely new
//!    cells replay. The memo defaults to the in-memory tier
//!    ([`CampaignCaches::result_memory`]) so deduplication works with no
//!    cache directory configured.
//! 3. **stream** — figures are emitted as soon as their own jobs finish
//!    (identical order and bytes to the one-shot CLI), each as a
//!    [`Response::Figure`] frame; JSON runs close
//!    with the complete CLI document.
//! 4. **reclaim** — a watcher thread notices the client hanging up
//!    mid-run and fires the request's [`CancelToken`]: jobs not yet on a
//!    worker resolve as cancelled without simulating, the gate slot frees,
//!    and jobs already executing finish into the memo for everyone else.
//!
//! The server is deliberately synchronous: one OS thread per connection
//! (bounded by the gate), blocking socket I/O with timeouts, and
//! `std`-only primitives, which keeps the concurrency story auditable and
//! the binary dependency-free.
//!
//! # Counter semantics
//!
//! Every serving counter — [`wire::ServeCounters`] answered to
//! [`wire::Request::Stats`], the `serve:` line of the shutdown summary,
//! and the telemetry registry answered to [`wire::Request::Metrics`] — is
//! **cumulative since daemon start and never reset**. A `Stats` probe, the
//! shutdown report, and a `Metrics` snapshot all read the same monotone
//! counters, so any two probes `t1 < t2` satisfy `counter(t1) <=
//! counter(t2)` and the difference is exactly the traffic in between. The
//! only non-cumulative fields are the instantaneous gate depths
//! (`active_requests` / `queued_requests`), which report the line as it
//! stands at probe time.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashSet;
use std::io::{self, ErrorKind, Read as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use stms_sim::campaign::{Campaign, CampaignCaches};
use stms_sim::experiments::{self, ALL_IDS};
use stms_sim::{CancelToken, ExperimentConfig, FigurePlan};
use stms_stats::ServeReport;
use stms_types::wire::{self, Request, RequestFormat, Response, ServeCounters};

/// How often blocked loops (accept poll, gate waits, watcher reads) recheck
/// their exit conditions.
const POLL: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Everything needed to bring up a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the Unix socket to listen on.
    pub socket: PathBuf,
    /// Experiment configuration shared by every request.
    pub cfg: ExperimentConfig,
    /// Campaign worker threads (the replay pool, not connection handlers).
    pub threads: usize,
    /// Cache configuration for the shared campaign. [`ServeConfig::new`]
    /// turns on the in-memory result memo so in-flight dedup composes with
    /// memoization even without any cache directory.
    pub caches: CampaignCaches,
    /// Run requests allowed to execute concurrently.
    pub max_active: usize,
    /// Run requests allowed to wait for a slot; arrivals past this are
    /// refused with [`wire::Response::Rejected`].
    pub max_queue: usize,
    /// Socket read timeout (bounds how long a silent client can hold a
    /// handler thread).
    pub read_timeout: Duration,
    /// Socket write timeout (bounds how long a stalled client can hold a
    /// handler thread mid-stream).
    pub write_timeout: Duration,
}

impl ServeConfig {
    /// A serving configuration with library defaults: in-memory result
    /// memo, four concurrent runs, a sixteen-deep queue, ten-second socket
    /// timeouts.
    pub fn new(socket: impl Into<PathBuf>, cfg: ExperimentConfig) -> Self {
        ServeConfig {
            socket: socket.into(),
            cfg,
            threads: stms_sim::JobPool::default_threads(),
            caches: CampaignCaches {
                result_memory: true,
                ..CampaignCaches::default()
            },
            max_active: 4,
            max_queue: 16,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

// ---------------------------------------------------------------------------
// Admission gate.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct GateState {
    /// Runs currently holding a slot.
    active: usize,
    /// Waiters currently in line.
    queued: usize,
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Lowest ticket not yet admitted; tickets are admitted in order.
    serving: u64,
    /// Tickets whose waiter gave up; skipped when they reach the front.
    abandoned: HashSet<u64>,
}

/// Ticket-FIFO admission control: at most `max_active` concurrent holders,
/// at most `max_queue` waiters, strict arrival order, and waiters that give
/// up (client disconnect, server shutdown) leave the line without ever
/// blocking the tickets behind them.
#[derive(Debug)]
pub struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    max_active: usize,
    max_queue: usize,
}

/// Outcome of [`Gate::admit`].
#[derive(Debug)]
pub enum Admission<'a> {
    /// A slot was granted; hold the permit for the duration of the run.
    Admitted(Permit<'a>),
    /// The waiting line was full; the caller must refuse the request.
    Rejected,
    /// The caller's `cancelled` predicate fired while waiting in line.
    Abandoned,
}

/// An occupied gate slot; dropping it frees the slot and wakes the line.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.active -= 1;
        drop(state);
        self.gate.cv.notify_all();
    }
}

impl Gate {
    /// A gate admitting `max_active` concurrent holders over a
    /// `max_queue`-deep waiting line.
    pub fn new(max_active: usize, max_queue: usize) -> Self {
        Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            max_active: max_active.max(1),
            max_queue,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Requests a slot, waiting in ticket order. `cancelled` is polled
    /// while waiting; when it returns `true` the waiter leaves the line
    /// ([`Admission::Abandoned`]) and its ticket is skipped.
    ///
    /// Admission is instrumented: every admitted request records its wait
    /// into the `serve.gate.wait_ns` histogram, and the high-water line
    /// depth and slot occupancy go to the `serve.gate.queued` /
    /// `serve.gate.active` gauges.
    pub fn admit(&self, cancelled: impl Fn() -> bool) -> Admission<'_> {
        let waited = stms_obs::is_enabled().then(std::time::Instant::now);
        let note_admitted = |waited: Option<std::time::Instant>| {
            if let Some(started) = waited {
                let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                stms_obs::histogram("serve.gate.wait_ns").record(nanos);
            }
        };
        let mut state = self.lock();
        if waited.is_some() {
            stms_obs::gauge("serve.gate.active").record_max(state.active as u64);
            stms_obs::gauge("serve.gate.queued").record_max(state.queued as u64);
        }
        // Fast path: no line and a free slot — no ticket needed.
        if state.queued == 0 && state.active < self.max_active {
            state.active += 1;
            note_admitted(waited);
            return Admission::Admitted(Permit { gate: self });
        }
        if state.queued >= self.max_queue {
            return Admission::Rejected;
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queued += 1;
        if waited.is_some() {
            stms_obs::gauge("serve.gate.queued").record_max(state.queued as u64);
        }
        loop {
            // Abandoned tickets at the front of the line never block it.
            loop {
                let front = state.serving;
                if !state.abandoned.remove(&front) {
                    break;
                }
                state.serving += 1;
            }
            if state.serving == ticket && state.active < self.max_active {
                state.serving += 1;
                state.queued -= 1;
                state.active += 1;
                drop(state);
                // Another waiter may now be at the front with a free slot.
                self.cv.notify_all();
                note_admitted(waited);
                return Admission::Admitted(Permit { gate: self });
            }
            if cancelled() {
                state.queued -= 1;
                state.abandoned.insert(ticket);
                drop(state);
                self.cv.notify_all();
                return Admission::Abandoned;
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, POLL)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
    }

    /// Current `(active, queued)` depths, for stats reporting.
    pub fn depths(&self) -> (usize, usize) {
        let state = self.lock();
        (state.active, state.queued)
    }
}

// ---------------------------------------------------------------------------
// Shared server state.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ServeStats {
    requests: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    figures_streamed: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    campaign: Campaign,
    cfg: ExperimentConfig,
    gate: Gate,
    stats: ServeStats,
    shutdown: AtomicBool,
    read_timeout: Duration,
    write_timeout: Duration,
}

impl Shared {
    /// The daemon's serving counters. Every field is cumulative since
    /// daemon start except the two instantaneous gate depths; the shutdown
    /// summary ([`Shared::report`]) is derived from the same values, so
    /// `--stats` probes and the final `serve:` line can never disagree
    /// about the traffic they both saw.
    fn counters(&self) -> ServeCounters {
        let flights = self.campaign.flight_stats();
        let caches = self.campaign.cache_stats();
        let (active, queued) = self.gate.depths();
        ServeCounters {
            requests: self.stats.requests.load(Ordering::Relaxed),
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            figures_streamed: self.stats.figures_streamed.load(Ordering::Relaxed),
            jobs_executed: flights.executed,
            jobs_shared: flights.shared,
            jobs_cached: caches.result.map_or(0, |r| r.total_hits()),
            traces_generated: caches.trace.generated,
            stream_replays: caches.trace.stream_replays,
            active_requests: active as u64,
            queued_requests: queued as u64,
        }
    }

    fn report(&self) -> ServeReport {
        let counters = self.counters();
        ServeReport {
            requests: counters.requests,
            accepted: counters.accepted,
            rejected: counters.rejected,
            cancelled: counters.cancelled,
            figures_streamed: counters.figures_streamed,
            jobs_executed: counters.jobs_executed,
            jobs_shared: counters.jobs_shared,
            jobs_cached: counters.jobs_cached,
        }
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

/// The resident campaign daemon: bind once, then [`Server::run_until`].
#[derive(Debug)]
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
    socket: PathBuf,
}

impl Server {
    /// Binds the serving socket and brings up the shared campaign.
    ///
    /// A leftover socket file from a crashed daemon is removed if nothing
    /// answers on it; a *live* daemon on the same path is an
    /// [`ErrorKind::AddrInUse`] error.
    ///
    /// # Errors
    ///
    /// Socket binding failures and cache-directory creation failures.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        if config.socket.exists() {
            match UnixStream::connect(&config.socket) {
                Ok(_) => {
                    return Err(io::Error::new(
                        ErrorKind::AddrInUse,
                        format!("a daemon is already serving on {}", config.socket.display()),
                    ));
                }
                // Dead socket file: reclaim the path.
                Err(_) => std::fs::remove_file(&config.socket)?,
            }
        }
        let listener = UnixListener::bind(&config.socket)?;
        // Accept must poll so shutdown (signal or Shutdown request) is
        // noticed even when no client ever connects again.
        listener.set_nonblocking(true)?;
        let campaign = Campaign::with_caches(config.cfg.clone(), config.threads, config.caches)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                campaign,
                cfg: config.cfg,
                gate: Gate::new(config.max_active, config.max_queue),
                stats: ServeStats::default(),
                shutdown: AtomicBool::new(false),
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
            }),
            socket: config.socket,
        })
    }

    /// The path this server is listening on.
    pub fn socket_path(&self) -> &Path {
        &self.socket
    }

    /// The shared campaign, for accounting after (or during) a run — e.g.
    /// [`Campaign::flight_stats`] proves from the outside that concurrent
    /// identical requests shared one execution.
    pub fn campaign(&self) -> &Campaign {
        &self.shared.campaign
    }

    /// Serves until `stop` returns `true` or a client sends
    /// [`wire::Request::Shutdown`], then drains in-flight handlers, removes
    /// the socket file, and reports what was served.
    pub fn run_until(&self, stop: impl Fn() -> bool) -> ServeReport {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !stop() && !self.shared.shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || handle(&shared, stream)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                // Transient accept failures must not kill the daemon.
                Err(_) => std::thread::sleep(POLL),
            }
            handlers.retain(|h| !h.is_finished());
        }
        // Stop admitting: waiters in the gate see the flag and abandon.
        self.shared.shutdown.store(true, Ordering::Release);
        for handler in handlers {
            let _ = handler.join();
        }
        let _ = std::fs::remove_file(&self.socket);
        self.shared.report()
    }
}

// ---------------------------------------------------------------------------
// Per-connection handling.
// ---------------------------------------------------------------------------

/// Sends one response frame, reporting whether the client is still there.
fn send(stream: &mut UnixStream, response: &Response) -> bool {
    wire::send_response(stream, response).is_ok()
}

fn handle(shared: &Shared, mut stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    let request = match wire::recv_request(&mut stream) {
        Ok(Some(request)) => request,
        // Clean connect-and-leave probe (socket liveness checks do this).
        Ok(None) => return,
        Err(e) => {
            // Malformed or oversized frame: refuse loudly, fail closed.
            let _ = send(
                &mut stream,
                &Response::Rejected {
                    reason: format!("bad request frame: {e}"),
                },
            );
            return;
        }
    };
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    match request {
        Request::Ping => {
            let _ = send(&mut stream, &Response::Pong);
        }
        Request::Stats => {
            let _ = send(&mut stream, &Response::Stats(shared.counters()));
        }
        Request::Metrics => {
            // Like Stats: answered directly, never through the gate, so a
            // dashboard polling a saturated daemon is never queued behind
            // the very runs it is trying to observe.
            let json = stms_obs::snapshot().to_json_string();
            let _ = send(&mut stream, &Response::Metrics { json });
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            let _ = send(&mut stream, &Response::ShuttingDown);
        }
        Request::Run { figures, format } => run_request(shared, stream, figures, format),
    }
}

/// Expands a requested figure selection exactly like the CLI: empty or
/// containing `all` means every known experiment; an unknown id refuses the
/// whole request before any admission.
fn plan_selection(cfg: &ExperimentConfig, figures: &[String]) -> Result<Vec<FigurePlan>, String> {
    let all: Vec<String>;
    let selected: &[String] = if figures.is_empty() || figures.iter().any(|id| id == "all") {
        all = ALL_IDS.iter().map(|s| s.to_string()).collect();
        &all
    } else {
        figures
    };
    selected
        .iter()
        .map(|id| {
            experiments::plan_for_id(id, cfg)
                .ok_or_else(|| format!("unknown experiment `{id}` (known: {})", ALL_IDS.join(", ")))
        })
        .collect()
}

/// Watches the connection for the client hanging up (or violating the
/// one-request protocol) while a run streams, firing `cancel` so the
/// campaign skips the run's pending jobs. `done` is the handler saying the
/// response is complete; after that nothing is cancelled.
fn spawn_watcher(
    stream: &UnixStream,
    cancel: CancelToken,
    done: Arc<AtomicBool>,
) -> Option<JoinHandle<()>> {
    let mut watch = stream.try_clone().ok()?;
    Some(std::thread::spawn(move || {
        let mut byte = [0u8; 1];
        loop {
            if done.load(Ordering::Acquire) {
                return;
            }
            match watch.read(&mut byte) {
                // EOF — the client hung up; anything else after the request
                // violates the one-request-per-connection protocol. Either
                // way the run is abandoned.
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue;
                }
                Err(_) => break,
            }
        }
        if !done.load(Ordering::Acquire) {
            cancel.cancel();
        }
    }))
}

fn run_request(
    shared: &Shared,
    mut stream: UnixStream,
    figures: Vec<String>,
    format: RequestFormat,
) {
    let plans = match plan_selection(&shared.cfg, &figures) {
        Ok(plans) => plans,
        Err(reason) => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = send(&mut stream, &Response::Rejected { reason });
            return;
        }
    };
    let total = plans.len() as u32;

    let cancel = CancelToken::new();
    let done = Arc::new(AtomicBool::new(false));
    let watcher = spawn_watcher(&stream, cancel.clone(), Arc::clone(&done));

    let admission = shared
        .gate
        .admit(|| cancel.is_cancelled() || shared.shutdown.load(Ordering::Acquire));
    let _permit = match admission {
        Admission::Admitted(permit) => permit,
        Admission::Rejected => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = send(
                &mut stream,
                &Response::Rejected {
                    reason: "server at capacity (queue full); retry later".to_string(),
                },
            );
            finish_watcher(&stream, watcher, &done);
            return;
        }
        Admission::Abandoned => {
            shared.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            finish_watcher(&stream, watcher, &done);
            return;
        }
    };
    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);

    let mut index: u32 = 0;
    let mut failed: u32 = 0;
    let mut streamed: u64 = 0;
    let mut client_gone = false;
    let mut json_items: Vec<serde_json::Value> = Vec::new();
    shared
        .campaign
        .run_figures_streaming_cancellable(plans, &cancel, |figure| {
            if format == RequestFormat::Json {
                // Same helper as the CLI sink — served JSON documents are
                // byte-identical to `--format json` by construction.
                json_items.push(experiments::figure_json_item(&figure));
            }
            let frame = match &figure {
                Ok(result) => Response::Figure {
                    index,
                    id: result.id.clone(),
                    body: result.render(),
                },
                Err(err) => {
                    failed += 1;
                    Response::FigureError {
                        index,
                        id: err.figure.clone(),
                        message: err.to_string(),
                    }
                }
            };
            index += 1;
            if !client_gone {
                if send(&mut stream, &frame) {
                    streamed += 1;
                } else {
                    // The client is gone: stop writing and skip the run's
                    // remaining jobs so the gate slot frees promptly.
                    client_gone = true;
                    cancel.cancel();
                }
            }
        });
    // Sampled here, not after the closing frames: once every figure is out
    // the client may read `Done` and hang up at once, and the watcher can
    // observe that EOF (and fire the token) before `finish_watcher` joins
    // it. Only a cancellation that arrived while the run still streamed —
    // or a failed closing send below — is a genuine abandonment.
    let run_cancelled = cancel.is_cancelled();

    if !client_gone {
        if format == RequestFormat::Json {
            let body = experiments::figures_json_document(json_items);
            client_gone = !send(&mut stream, &Response::Document { body });
        }
        if !client_gone {
            let _ = send(
                &mut stream,
                &Response::Done {
                    figures: total,
                    failed,
                },
            );
        }
    }
    shared
        .stats
        .figures_streamed
        .fetch_add(streamed, Ordering::Relaxed);
    if run_cancelled || client_gone {
        shared.stats.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    finish_watcher(&stream, watcher, &done);
}

/// Marks the response complete and collects the watcher thread. The read
/// shutdown wakes a watcher blocked on its poll immediately; without it the
/// join would wait out one read-timeout tick.
fn finish_watcher(stream: &UnixStream, watcher: Option<JoinHandle<()>>, done: &AtomicBool) {
    done.store(true, Ordering::Release);
    let _ = stream.shutdown(std::net::Shutdown::Read);
    if let Some(watcher) = watcher {
        let _ = watcher.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_up_to_capacity_and_frees_on_drop() {
        let gate = Gate::new(2, 4);
        let a = gate.admit(|| false);
        let b = gate.admit(|| false);
        assert!(matches!(a, Admission::Admitted(_)));
        assert!(matches!(b, Admission::Admitted(_)));
        assert_eq!(gate.depths(), (2, 0));
        drop(a);
        assert_eq!(gate.depths(), (1, 0));
        // The freed slot is immediately grantable.
        assert!(matches!(gate.admit(|| false), Admission::Admitted(_)));
    }

    #[test]
    fn gate_rejects_when_the_line_is_full() {
        let gate = Gate::new(1, 0);
        let held = gate.admit(|| false);
        assert!(matches!(held, Admission::Admitted(_)));
        // No queue slots at all: an arrival is refused, not parked.
        assert!(matches!(gate.admit(|| true), Admission::Rejected));
    }

    #[test]
    fn gate_waiter_abandons_on_cancel_without_blocking_the_line() {
        let gate = Gate::new(1, 2);
        let held = gate.admit(|| false);
        // The waiter's client is already gone: it leaves the line.
        assert!(matches!(gate.admit(|| true), Admission::Abandoned));
        assert_eq!(gate.depths(), (1, 0));
        // Its abandoned ticket must not wedge the next arrival.
        drop(held);
        assert!(matches!(gate.admit(|| false), Admission::Admitted(_)));
    }

    #[test]
    fn gate_serves_waiters_in_arrival_order() {
        let gate = Gate::new(1, 8);
        let order = Mutex::new(Vec::new());
        let held = gate.admit(|| false);
        let (gate, order) = (&gate, &order);
        std::thread::scope(|scope| {
            for waiter in 0..3 {
                // Enter the line strictly one at a time so ticket order is
                // the spawn order.
                let before = gate.depths().1;
                scope.spawn(move || {
                    let admission = gate.admit(|| false);
                    assert!(matches!(admission, Admission::Admitted(_)));
                    // max_active is 1, so pushes are serialized by the slot.
                    order.lock().unwrap().push(waiter);
                });
                while gate.depths().1 == before {
                    std::thread::yield_now();
                }
            }
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn plan_selection_matches_cli_semantics() {
        let cfg = ExperimentConfig::quick();
        assert_eq!(plan_selection(&cfg, &[]).unwrap().len(), ALL_IDS.len());
        let wild = vec!["table1".to_string(), "all".to_string()];
        assert_eq!(plan_selection(&cfg, &wild).unwrap().len(), ALL_IDS.len());
        let one = vec!["fig4".to_string()];
        assert_eq!(plan_selection(&cfg, &one).unwrap().len(), 1);
        let err = plan_selection(&cfg, &["fig99".to_string()]).unwrap_err();
        assert!(err.contains("unknown experiment `fig99`"));
    }
}
