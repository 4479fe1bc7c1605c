//! Concurrency stress and fault-injection harness for the serving daemon:
//! many virtual clients on real sockets against an in-process server,
//! asserting exactly-once replay (via campaign counters), byte-identical
//! responses across clients and against the library, and no hang or leaked
//! gate slot under injected client disconnects and garbage frames.

use std::collections::HashSet;
use std::fs;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stms_serve::{ServeConfig, Server};
use stms_sim::campaign::Campaign;
use stms_sim::{experiments, job_fingerprint, ExperimentConfig};
use stms_stats::ServeReport;
use stms_types::wire::{self, Request, RequestFormat, Response, ServeCounters};

fn quick() -> ExperimentConfig {
    ExperimentConfig::quick().with_accesses(6_000)
}

fn temp_path(tag: &str, suffix: &str) -> PathBuf {
    std::env::temp_dir().join(format!("stms-serve-{tag}-{}{suffix}", std::process::id()))
}

/// An in-process daemon on a real Unix socket, with the campaign kept
/// reachable for counter assertions.
struct TestServer {
    server: Arc<Server>,
    thread: Option<JoinHandle<ServeReport>>,
}

impl TestServer {
    fn start(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> TestServer {
        let socket = temp_path(tag, ".sock");
        let _ = fs::remove_file(&socket);
        let mut config = ServeConfig::new(&socket, quick());
        config.threads = 2;
        config.read_timeout = Duration::from_secs(30);
        config.write_timeout = Duration::from_secs(30);
        configure(&mut config);
        let server = Arc::new(Server::bind(config).expect("bind serving socket"));
        let thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run_until(|| false))
        };
        TestServer {
            server,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> UnixStream {
        let stream =
            UnixStream::connect(self.server.socket_path()).expect("connect to test server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    }

    fn campaign(&self) -> &Campaign {
        self.server.campaign()
    }

    /// One full `Run` exchange: all frames through `Done`/`Rejected`.
    fn run(&self, figures: &[&str], format: RequestFormat) -> Vec<Response> {
        exchange_run(&mut self.connect(), figures, format)
    }

    fn stats(&self) -> ServeCounters {
        let mut stream = self.connect();
        wire::send_request(&mut stream, &Request::Stats).unwrap();
        match wire::recv_response(&mut stream).unwrap() {
            Some(Response::Stats(counters)) => counters,
            other => panic!("unexpected answer to Stats: {other:?}"),
        }
    }

    /// One `Metrics` exchange: the daemon's telemetry registry, parsed
    /// back from the wire's JSON document.
    fn metrics(&self) -> stms_obs::Snapshot {
        let mut stream = self.connect();
        wire::send_request(&mut stream, &Request::Metrics).unwrap();
        match wire::recv_response(&mut stream).unwrap() {
            Some(Response::Metrics { json }) => {
                stms_obs::Snapshot::parse(&json).expect("wire metrics parse back")
            }
            other => panic!("unexpected answer to Metrics: {other:?}"),
        }
    }

    /// Requests shutdown, joins the accept loop, returns the final report.
    fn shutdown(mut self) -> ServeReport {
        let mut stream = self.connect();
        wire::send_request(&mut stream, &Request::Shutdown).unwrap();
        assert!(matches!(
            wire::recv_response(&mut stream).unwrap(),
            Some(Response::ShuttingDown)
        ));
        let report = self.thread.take().unwrap().join().expect("server thread");
        assert!(
            !self.server.socket_path().exists(),
            "socket file must be removed on exit"
        );
        report
    }
}

fn exchange_run(stream: &mut UnixStream, figures: &[&str], format: RequestFormat) -> Vec<Response> {
    let request = Request::Run {
        figures: figures.iter().map(|s| s.to_string()).collect(),
        format,
    };
    wire::send_request(stream, &request).unwrap();
    let mut frames = Vec::new();
    loop {
        match wire::recv_response(stream).expect("response frame") {
            Some(response) => {
                let last = matches!(response, Response::Done { .. } | Response::Rejected { .. });
                frames.push(response);
                if last {
                    return frames;
                }
            }
            None => panic!("stream ended before Done/Rejected: {frames:?}"),
        }
    }
}

/// Renders the reference bytes the one-shot CLI would print for `ids`,
/// through a plain library campaign with the same configuration.
fn reference_figures(ids: &[&str]) -> Vec<(String, String)> {
    let campaign = Campaign::with_threads(quick(), 2);
    let plans = ids
        .iter()
        .map(|id| experiments::plan_for_id(id, campaign.cfg()).expect("known id"))
        .collect();
    campaign
        .run_figures(plans)
        .into_iter()
        .map(|figure| {
            let figure = figure.expect("reference run cannot fail");
            (figure.id.clone(), figure.render())
        })
        .collect()
}

fn distinct_job_count(ids: &[&str]) -> usize {
    let cfg = quick();
    let mut seen = HashSet::new();
    for id in ids {
        let plan = experiments::plan_for_id(id, &cfg).expect("known id");
        for job in plan.jobs() {
            seen.insert(job_fingerprint(&cfg, job));
        }
    }
    seen.len()
}

#[test]
fn concurrent_identical_clients_share_one_execution_and_match_the_library() {
    let clients = 8;
    let ids = ["table2"];
    let server = TestServer::start("dedup", |config| {
        config.max_active = clients;
        config.max_queue = clients;
    });

    let barrier = Barrier::new(clients);
    let streams: Vec<Vec<Response>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let server = &server;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    server.run(&ids, RequestFormat::Text)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every client saw the same frames, closing with a clean Done.
    for frames in &streams[1..] {
        assert_eq!(frames, &streams[0], "response streams diverged");
    }
    assert!(matches!(
        streams[0].last(),
        Some(Response::Done {
            figures: 1,
            failed: 0
        })
    ));

    // …and those frames carry exactly the library's rendering.
    let reference = reference_figures(&ids);
    match &streams[0][0] {
        Response::Figure { index, id, body } => {
            assert_eq!(*index, 0);
            assert_eq!((id.clone(), body.clone()), reference[0]);
        }
        other => panic!("expected a Figure frame, got {other:?}"),
    }

    // Exactly-once proof from the counters: eight concurrent requests for
    // the same grid executed each distinct cell once — the rest were shared
    // in flight or served from the memo — and each trace generated once.
    let distinct = distinct_job_count(&ids) as u64;
    let flights = server.campaign().flight_stats();
    assert_eq!(flights.executed, distinct, "each distinct cell ran once");
    let jobs_per_client = experiments::plan_for_id("table2", &quick())
        .unwrap()
        .job_count() as u64;
    let memo_hits = server
        .campaign()
        .cache_stats()
        .result
        .expect("server memoizes in memory")
        .total_hits();
    assert_eq!(
        flights.executed + flights.shared + memo_hits,
        jobs_per_client * clients as u64,
        "every requested cell is an execution, a shared flight, or a memo hit"
    );

    let report = server.shutdown();
    assert_eq!(report.accepted, clients as u64);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.jobs_executed, distinct);
    assert_eq!(report.figures_streamed, clients as u64);
}

#[test]
fn served_json_document_is_the_cli_document() {
    let ids = ["table1", "table2"];
    let server = TestServer::start("json", |_| {});
    let frames = server.run(&ids, RequestFormat::Json);

    // Figures stream first (text bodies), then the document, then Done.
    let document = frames
        .iter()
        .find_map(|f| match f {
            Response::Document { body } => Some(body.clone()),
            _ => None,
        })
        .expect("JSON runs close with a Document frame");
    assert!(matches!(
        frames.last(),
        Some(Response::Done {
            figures: 2,
            failed: 0
        })
    ));

    // The document must be byte-identical to what the one-shot CLI builds
    // from the same figures (both sides use the same JSON helpers).
    let campaign = Campaign::with_threads(quick(), 2);
    let plans = ids
        .iter()
        .map(|id| experiments::plan_for_id(id, campaign.cfg()).unwrap())
        .collect();
    let items: Vec<serde_json::Value> = campaign
        .run_figures(plans)
        .iter()
        .map(experiments::figure_json_item)
        .collect();
    assert_eq!(document, experiments::figures_json_document(items));
    server.shutdown();
}

#[test]
fn disconnect_mid_stream_reclaims_the_slot_and_cancels_pending_jobs() {
    let server = TestServer::start("disconnect", |config| {
        config.max_active = 1;
        config.max_queue = 4;
        // Make the watcher's idle poll short so abandonment is noticed fast.
        config.read_timeout = Duration::from_millis(100);
    });

    // A client asks for two figures, reads exactly one frame, and vanishes
    // without any handshake.
    {
        let mut stream = server.connect();
        let request = Request::Run {
            figures: vec!["table1".to_string(), "table2".to_string()],
            format: RequestFormat::Text,
        };
        wire::send_request(&mut stream, &request).unwrap();
        let first = wire::recv_response(&mut stream).unwrap();
        assert!(matches!(first, Some(Response::Figure { .. })));
        // Drop: the server's watcher must fire the run's cancel token.
    }

    // A well-behaved request right behind it must still be served promptly
    // and correctly — the gate slot was reclaimed, no worker is stuck.
    let frames = server.run(&["table1"], RequestFormat::Text);
    assert!(matches!(
        frames.last(),
        Some(Response::Done {
            figures: 1,
            failed: 0
        })
    ));
    let reference = reference_figures(&["table1"]);
    match &frames[0] {
        Response::Figure { id, body, .. } => {
            assert_eq!((id.clone(), body.clone()), reference[0]);
        }
        other => panic!("expected a Figure frame, got {other:?}"),
    }

    // The abandoned run must be fully torn down: nothing active, nothing
    // queued, and the abandonment counted.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let counters = server.stats();
        if counters.active_requests == 0 && counters.queued_requests == 0 {
            assert!(counters.cancelled >= 1, "the disconnect must be counted");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned request never released its slot: {counters:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let report = server.shutdown();
    assert!(report.cancelled >= 1);
}

#[test]
fn admission_storm_rejects_past_the_queue_and_serves_the_rest_identically() {
    let clients = 8;
    let server = TestServer::start("storm", |config| {
        config.max_active = 1;
        config.max_queue = 1;
        config.threads = 1;
    });

    let barrier = Barrier::new(clients);
    let streams: Vec<Vec<Response>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let server = &server;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    server.run(&["table2"], RequestFormat::Text)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut accepted: Vec<&Vec<Response>> = Vec::new();
    let mut rejected = 0;
    for frames in &streams {
        match frames.last() {
            Some(Response::Done { failed: 0, .. }) => accepted.push(frames),
            Some(Response::Rejected { reason }) => {
                assert!(reason.contains("capacity"), "unexpected reason: {reason}");
                assert_eq!(frames.len(), 1, "a rejection is the only frame");
                rejected += 1;
            }
            other => panic!("unexpected final frame: {other:?}"),
        }
    }
    assert_eq!(accepted.len() + rejected, clients);
    assert!(
        !accepted.is_empty(),
        "at least the fast-path client is served"
    );
    assert!(
        rejected >= 1,
        "eight simultaneous clients against capacity two must overflow"
    );
    // Accepted clients all saw identical bytes despite the storm.
    for frames in &accepted[1..] {
        assert_eq!(*frames, accepted[0]);
    }

    let report = server.shutdown();
    assert_eq!(report.accepted, accepted.len() as u64);
    assert_eq!(report.rejected, rejected as u64);
}

/// Asserts every metric of `before` is still present in `after` and has
/// not decreased — the wire contract for `Request::Metrics` probes
/// (cumulative since daemon start, never reset).
fn assert_monotone(before: &stms_obs::Snapshot, after: &stms_obs::Snapshot, when: &str) {
    for (name, value) in &before.counters {
        let later = after
            .counter(name)
            .unwrap_or_else(|| panic!("counter {name} vanished {when}"));
        assert!(later >= *value, "counter {name} went backwards {when}");
    }
    for (name, hist) in &before.histograms {
        let later = after
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram {name} vanished {when}"));
        assert!(
            later.count >= hist.count,
            "histogram {name} count went backwards {when}"
        );
        assert!(
            later.sum >= hist.sum,
            "histogram {name} sum went backwards {when}"
        );
    }
}

#[test]
fn metrics_snapshots_are_monotone_across_a_stress_run() {
    let clients = 6;
    let ids = ["table2"];
    let server = TestServer::start("metrics", |config| {
        // Capacity one: the storm exercises the gate's waiting line, so
        // the admit-wait histogram sees real queueing.
        config.max_active = 1;
        config.max_queue = clients;
    });

    // Probe before any run: the registry may already carry metrics (it is
    // process-wide and other tests share it), but never loses any.
    let before = server.metrics();

    let mut probes = vec![before];
    for round in 0..2 {
        let barrier = Barrier::new(clients);
        let streams: Vec<Vec<Response>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let server = &server;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        server.run(&ids, RequestFormat::Text)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for frames in &streams {
            assert!(
                matches!(frames.last(), Some(Response::Done { failed: 0, .. })),
                "round {round}: every client completes cleanly"
            );
        }
        probes.push(server.metrics());
    }

    for (i, pair) in probes.windows(2).enumerate() {
        assert_monotone(
            &pair[0],
            &pair[1],
            &format!("between probes {i} and {}", i + 1),
        );
    }

    // The run left its footprint: job phases were timed, flights counted,
    // and the saturated gate recorded admission waits.
    let last = probes.last().unwrap();
    assert!(
        last.histogram("job.run_ns").is_some_and(|h| h.count > 0),
        "job phase timings must be recorded"
    );
    assert!(
        last.counter("flight.executed").unwrap_or(0) > 0,
        "flight leaders must be counted"
    );
    assert!(
        last.histogram("serve.gate.wait_ns")
            .is_some_and(|h| h.count >= (clients as u64) * 2),
        "every admitted request records its gate wait"
    );
    server.shutdown();
}

#[test]
fn garbage_and_oversized_frames_are_refused_and_the_daemon_survives() {
    use std::io::Write as _;
    let server = TestServer::start("garbage", |_| {});

    // Arbitrary non-protocol bytes: the server must answer with a Rejected
    // frame (or close), never crash or hang.
    {
        let mut stream = server.connect();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        match wire::recv_response(&mut stream) {
            Ok(Some(Response::Rejected { reason })) => {
                assert!(reason.contains("bad request frame"), "reason: {reason}");
            }
            Ok(Some(other)) => panic!("unexpected answer to garbage: {other:?}"),
            Ok(None) | Err(_) => {} // closed on us — also fail-closed
        }
    }

    // A frame whose declared length exceeds the protocol bound must be
    // refused before any allocation of that size.
    {
        let mut stream = server.connect();
        let oversized = (wire::MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        stream.write_all(&oversized).unwrap();
        match wire::recv_response(&mut stream) {
            Ok(Some(Response::Rejected { reason })) => {
                assert!(reason.contains("bad request frame"), "reason: {reason}");
            }
            Ok(Some(other)) => panic!("unexpected answer to oversized frame: {other:?}"),
            Ok(None) | Err(_) => {}
        }
    }

    // A connect-and-leave probe (what liveness checks do) is not an error.
    drop(server.connect());

    // The daemon is still fully functional.
    let mut stream = server.connect();
    wire::send_request(&mut stream, &Request::Ping).unwrap();
    assert!(matches!(
        wire::recv_response(&mut stream).unwrap(),
        Some(Response::Pong)
    ));
    let counters = server.stats();
    assert!(counters.requests >= 1);
    server.shutdown();
}
