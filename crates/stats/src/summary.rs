//! Run summaries: compact cache-hit reporting for campaign drivers.
//!
//! The campaign layer's caches (memoized job outputs, shared job flights,
//! hierarchy logs) each expose raw counters; this module renders them as the short
//! per-run block the `stms-experiments` binary prints to stderr, so a user
//! can see at a glance whether a run was served from cache ("warm") or had
//! to simulate ("cold") — and CI can assert on the same lines.
//!
//! # Example
//!
//! ```
//! use stms_stats::summary::{CacheReport, RunSummary};
//!
//! let mut summary = RunSummary::new();
//! summary.push(
//!     CacheReport::new("result cache", 13, 0)
//!         .with_detail("replayed", 0)
//!         .with_detail("disk hits", 8),
//! );
//! let text = summary.render();
//! assert!(text.starts_with("run summary:"));
//! assert!(text.contains("result cache: 13 hits, 0 misses (100.0% hit rate, replayed 0, disk hits 8)"));
//! ```

use std::fmt::Write as _;

/// Counters of one cache tier, plus optional named detail counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheReport {
    /// Tier name, e.g. `"traces"` or `"results"`.
    pub name: String,
    /// Lookups served without doing the work.
    pub hits: u64,
    /// Lookups that had to do the work.
    pub misses: u64,
    /// Extra `(label, value)` counters appended in order, e.g. evictions.
    pub details: Vec<(String, u64)>,
}

impl CacheReport {
    /// A report with the two core counters.
    pub fn new(name: impl Into<String>, hits: u64, misses: u64) -> Self {
        CacheReport {
            name: name.into(),
            hits,
            misses,
            details: Vec::new(),
        }
    }

    /// Appends a named detail counter (builder style).
    pub fn with_detail(mut self, label: impl Into<String>, value: u64) -> Self {
        self.details.push((label.into(), value));
        self
    }

    /// Fraction of lookups served from cache, `0.0` when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One summary line, e.g.
    /// `traces: 13 hits, 0 misses (100.0% hit rate, generated 0)`.
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "{}: {} hits, {} misses ({:.1}% hit rate",
            self.name,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        );
        for (label, value) in &self.details {
            let _ = write!(line, ", {label} {value}");
        }
        line.push(')');
        line
    }
}

/// Counters of one shard execution of a distributed campaign
/// (`--shard I/N`), rendered alongside the cache tiers in the stderr
/// `run summary:` block so CI logs show at a glance which slice of the grid
/// a process ran and whether it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// 1-based shard index.
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
    /// Distinct jobs of the whole campaign grid.
    pub jobs_total: u64,
    /// Distinct jobs this shard owns.
    pub jobs_owned: u64,
    /// Owned jobs that finished and were sealed into the manifest.
    pub jobs_sealed: u64,
    /// Owned jobs that failed (the difference is diagnosable from the
    /// accompanying error lines).
    pub jobs_failed: u64,
    /// Bytes of the sealed manifest written to the shard directory.
    pub manifest_bytes: u64,
}

impl ShardReport {
    /// Whether every owned job was sealed.
    pub fn is_complete(&self) -> bool {
        self.jobs_failed == 0 && self.jobs_sealed == self.jobs_owned
    }

    /// One summary line, e.g.
    /// `shard 1/2: 56 of 113 jobs owned, 56 sealed, 0 failed (manifest 12345 bytes)`.
    pub fn render_line(&self) -> String {
        format!(
            "shard {}/{}: {} of {} jobs owned, {} sealed, {} failed (manifest {} bytes)",
            self.index,
            self.count,
            self.jobs_owned,
            self.jobs_total,
            self.jobs_sealed,
            self.jobs_failed,
            self.manifest_bytes
        )
    }
}

/// What the cost-model scheduler predicted for one run — the `scheduling:`
/// summary line. Covers both the in-process LPT submission (predicted
/// total, calibration quality, predicted-vs-actual error) and a shard run's
/// fleet picture (per-shard predicted cost and spread). Optional fields
/// render only when present, so one type serves every run mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedReport {
    /// Jobs the prediction covered (submitted jobs in-process, owned jobs
    /// for a shard run).
    pub jobs: u64,
    /// Predicted cost of those jobs, in model nanoseconds.
    pub predicted_total_ns: u128,
    /// Submission order of the in-process pool (`"lpt"` or `"plan"`);
    /// `None` for shard runs.
    pub order: Option<String>,
    /// Timing records a `--calibrate-from` fit matched, when one ran.
    pub calibration_samples: Option<u64>,
    /// In-sample mean absolute error of that fit, in per-mille of observed
    /// time (123 renders as `12.3%`).
    pub calibration_error_milli: Option<u64>,
    /// Executed jobs whose measured run time was matched against a
    /// prediction.
    pub actual_jobs: u64,
    /// Mean absolute prediction error against those measurements, in
    /// per-mille of observed time.
    pub actual_error_milli: Option<u64>,
    /// Shard balance mode (`"cost"` or `"count"`); `None` in-process.
    pub balance: Option<String>,
    /// Predicted cost of this shard's slice.
    pub this_shard_ns: Option<u128>,
    /// Predicted cost of the heaviest shard (the fleet makespan estimate).
    pub max_shard_ns: Option<u128>,
    /// Mean predicted cost per shard.
    pub mean_shard_ns: Option<u128>,
}

/// Renders a per-mille value as a percentage with one decimal,
/// e.g. `123` → `12.3%`.
fn milli_percent(milli: u64) -> String {
    format!("{}.{}%", milli / 10, milli % 10)
}

impl SchedReport {
    /// One summary line, e.g.
    /// `scheduling: 24 jobs, predicted 1234 ns, lpt order, calibrated on 24 timings (4.2% error), actual error 12.3% (24 jobs)`
    /// or, for a shard run,
    /// `scheduling: 5 jobs, predicted 1234 ns, balance cost: this shard 1234 ns, max shard 2000 ns, spread 1.200x`.
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "scheduling: {} jobs, predicted {} ns",
            self.jobs, self.predicted_total_ns
        );
        if let Some(order) = &self.order {
            let _ = write!(line, ", {order} order");
        }
        if let Some(samples) = self.calibration_samples {
            let error = milli_percent(self.calibration_error_milli.unwrap_or(0));
            let _ = write!(line, ", calibrated on {samples} timings ({error} error)");
        }
        if let Some(error) = self.actual_error_milli {
            let _ = write!(
                line,
                ", actual error {} ({} jobs)",
                milli_percent(error),
                self.actual_jobs
            );
        }
        if let Some(balance) = &self.balance {
            let this = self.this_shard_ns.unwrap_or(0);
            let max = self.max_shard_ns.unwrap_or(0);
            let mean = self.mean_shard_ns.unwrap_or(0);
            let spread_milli = (max * 1000).checked_div(mean).unwrap_or(0);
            let _ = write!(
                line,
                ", balance {balance}: this shard {this} ns, max shard {max} ns, \
                 spread {}.{:03}x",
                spread_milli / 1000,
                spread_milli % 1000
            );
        }
        line
    }
}

/// Counters of the out-of-core replay path (`--stream-traces`): how many
/// replays were served as chunked streams and how many chunks flowed
/// through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamReport {
    /// Replays served chunk by chunk, without a materialized trace.
    pub replays: u64,
    /// Chunks delivered to those replays.
    pub chunks: u64,
}

impl StreamReport {
    /// One summary line, e.g. `streamed replay: 16 replays, 128 chunks`.
    pub fn render_line(&self) -> String {
        format!(
            "streamed replay: {} replays, {} chunks",
            self.replays, self.chunks
        )
    }
}

/// Lifetime counters of one `stms-serve` daemon: how requests fared at the
/// admission gate and how much replay work in-flight dedup and the result
/// memo absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests received (all kinds, including pings and stats probes).
    pub requests: u64,
    /// Run requests admitted past the gate.
    pub accepted: u64,
    /// Run requests refused because the queue was full (or malformed).
    pub rejected: u64,
    /// Run requests abandoned mid-flight by their client.
    pub cancelled: u64,
    /// Figure frames streamed back to clients.
    pub figures_streamed: u64,
    /// Jobs actually executed (singleflight leaders).
    pub jobs_executed: u64,
    /// Jobs that joined another request's in-flight execution.
    pub jobs_shared: u64,
    /// Jobs served from the result memo without executing.
    pub jobs_cached: u64,
}

impl ServeReport {
    /// One summary line, e.g.
    /// `serve: 12 requests (9 accepted, 2 rejected, 1 cancelled), 31 figures streamed, jobs: 24 executed, 40 shared in-flight, 16 memoized`.
    pub fn render_line(&self) -> String {
        format!(
            "serve: {} requests ({} accepted, {} rejected, {} cancelled), \
             {} figures streamed, jobs: {} executed, {} shared in-flight, {} memoized",
            self.requests,
            self.accepted,
            self.rejected,
            self.cancelled,
            self.figures_streamed,
            self.jobs_executed,
            self.jobs_shared,
            self.jobs_cached
        )
    }
}

/// A rendered slice of the process-wide metrics registry: pre-formatted
/// `name: value` pairs, one per metric, in registry order.
///
/// The stats crate does not depend on the registry itself — callers pass
/// the lines (e.g. from `stms_obs::Snapshot::render_lines`) so the summary
/// stays a pure formatter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// `(metric name, rendered value)` pairs, in display order.
    pub lines: Vec<(String, String)>,
}

impl TelemetryReport {
    /// The block rendered under the summary: a `telemetry:` header plus
    /// one indented line per metric. Empty reports render as an empty
    /// string.
    pub fn render_block(&self) -> String {
        if self.lines.is_empty() {
            return String::new();
        }
        let mut out = String::from("  telemetry:\n");
        for (name, value) in &self.lines {
            out.push_str("    ");
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push('\n');
        }
        out
    }
}

/// An ordered collection of [`ServeReport`]s, [`ShardReport`]s,
/// [`StreamReport`]s, [`CacheReport`]s and an optional [`TelemetryReport`]
/// rendered as one block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
    serves: Vec<ServeReport>,
    shards: Vec<ShardReport>,
    scheds: Vec<SchedReport>,
    streams: Vec<StreamReport>,
    reports: Vec<CacheReport>,
    telemetry: Option<TelemetryReport>,
}

impl RunSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one tier's report.
    pub fn push(&mut self, report: CacheReport) {
        self.reports.push(report);
    }

    /// Appends one daemon's serving report (rendered first: it frames the
    /// shard/stream/cache lines below it).
    pub fn push_serve(&mut self, report: ServeReport) {
        self.serves.push(report);
    }

    /// Appends one shard's report (rendered before the cache tiers).
    pub fn push_shard(&mut self, report: ShardReport) {
        self.shards.push(report);
    }

    /// Appends the cost-model scheduling report (rendered after the shard
    /// lines, before the stream lines).
    pub fn push_sched(&mut self, report: SchedReport) {
        self.scheds.push(report);
    }

    /// Appends the streamed-replay report (rendered between the shard and
    /// cache lines).
    pub fn push_stream(&mut self, report: StreamReport) {
        self.streams.push(report);
    }

    /// Attaches the telemetry block (rendered last, after the cache
    /// tiers). A later call replaces an earlier one — the registry is
    /// process-wide, so there is only ever one current snapshot.
    pub fn push_telemetry(&mut self, report: TelemetryReport) {
        self.telemetry = Some(report);
    }

    /// Whether any report was added.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
            && self.serves.is_empty()
            && self.shards.is_empty()
            && self.scheds.is_empty()
            && self.streams.is_empty()
            && self.telemetry.as_ref().is_none_or(|t| t.lines.is_empty())
    }

    /// The rendered block: a `run summary:` header plus one indented line
    /// per shard, stream and tier. Empty summaries render as an empty
    /// string.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::from("run summary:\n");
        for serve in &self.serves {
            out.push_str("  ");
            out.push_str(&serve.render_line());
            out.push('\n');
        }
        for shard in &self.shards {
            out.push_str("  ");
            out.push_str(&shard.render_line());
            out.push('\n');
        }
        for sched in &self.scheds {
            out.push_str("  ");
            out.push_str(&sched.render_line());
            out.push('\n');
        }
        for stream in &self.streams {
            out.push_str("  ");
            out.push_str(&stream.render_line());
            out.push('\n');
        }
        for report in &self.reports {
            out.push_str("  ");
            out.push_str(&report.render_line());
            out.push('\n');
        }
        if let Some(telemetry) = &self.telemetry {
            out.push_str(&telemetry.render_block());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_idle_and_full() {
        assert_eq!(CacheReport::new("t", 0, 0).hit_rate(), 0.0);
        assert_eq!(CacheReport::new("t", 5, 0).hit_rate(), 1.0);
        assert!((CacheReport::new("t", 1, 3).hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lines_carry_details_in_order() {
        let line = CacheReport::new("results", 10, 2)
            .with_detail("stores", 2)
            .with_detail("corrupt", 1)
            .render_line();
        assert_eq!(
            line,
            "results: 10 hits, 2 misses (83.3% hit rate, stores 2, corrupt 1)"
        );
    }

    #[test]
    fn shard_report_renders_all_counters() {
        let report = ShardReport {
            index: 1,
            count: 2,
            jobs_total: 113,
            jobs_owned: 56,
            jobs_sealed: 55,
            jobs_failed: 1,
            manifest_bytes: 9876,
        };
        assert!(!report.is_complete());
        assert_eq!(
            report.render_line(),
            "shard 1/2: 56 of 113 jobs owned, 55 sealed, 1 failed (manifest 9876 bytes)"
        );
        let complete = ShardReport {
            jobs_sealed: 56,
            jobs_failed: 0,
            ..report
        };
        assert!(complete.is_complete());
    }

    #[test]
    fn shard_reports_render_before_cache_tiers() {
        let mut summary = RunSummary::new();
        summary.push(CacheReport::new("traces", 1, 0));
        summary.push_shard(ShardReport {
            index: 2,
            count: 2,
            jobs_total: 10,
            jobs_owned: 5,
            jobs_sealed: 5,
            jobs_failed: 0,
            manifest_bytes: 1,
        });
        assert!(!summary.is_empty());
        let lines: Vec<String> = summary.render().lines().map(str::to_string).collect();
        assert_eq!(lines[0], "run summary:");
        assert!(lines[1].starts_with("  shard 2/2:"), "{}", lines[1]);
        assert!(lines[2].starts_with("  traces:"), "{}", lines[2]);
    }

    #[test]
    fn telemetry_block_renders_last_and_empty_report_stays_empty() {
        let mut summary = RunSummary::new();
        summary.push_telemetry(TelemetryReport::default());
        assert!(summary.is_empty(), "empty telemetry alone renders nothing");
        assert_eq!(summary.render(), "");

        summary.push(CacheReport::new("traces", 1, 0));
        summary.push_telemetry(TelemetryReport {
            lines: vec![
                ("job.run_ns".to_string(), "n=4 mean=1ms".to_string()),
                ("flight.executed".to_string(), "4".to_string()),
            ],
        });
        let lines: Vec<String> = summary.render().lines().map(str::to_string).collect();
        assert!(lines[1].starts_with("  traces:"), "{}", lines[1]);
        assert_eq!(lines[2], "  telemetry:");
        assert_eq!(lines[3], "    job.run_ns: n=4 mean=1ms");
        assert_eq!(lines[4], "    flight.executed: 4");
    }

    #[test]
    fn stream_report_renders_between_shards_and_caches() {
        let report = StreamReport {
            replays: 16,
            chunks: 128,
        };
        assert_eq!(
            report.render_line(),
            "streamed replay: 16 replays, 128 chunks"
        );
        let mut summary = RunSummary::new();
        summary.push(CacheReport::new("traces", 1, 0));
        summary.push_stream(report);
        summary.push_shard(ShardReport {
            index: 1,
            count: 1,
            jobs_total: 2,
            jobs_owned: 2,
            jobs_sealed: 2,
            jobs_failed: 0,
            manifest_bytes: 9,
        });
        let lines: Vec<String> = summary.render().lines().map(str::to_string).collect();
        assert!(lines[1].starts_with("  shard"), "{}", lines[1]);
        assert!(lines[2].starts_with("  streamed replay:"), "{}", lines[2]);
        assert!(lines[3].starts_with("  traces:"), "{}", lines[3]);

        let mut only_stream = RunSummary::new();
        assert!(only_stream.is_empty());
        only_stream.push_stream(StreamReport::default());
        assert!(!only_stream.is_empty());
    }

    #[test]
    fn sched_report_renders_in_process_and_shard_forms() {
        let in_process = SchedReport {
            jobs: 24,
            predicted_total_ns: 1234,
            order: Some("lpt".to_string()),
            calibration_samples: Some(24),
            calibration_error_milli: Some(42),
            actual_jobs: 24,
            actual_error_milli: Some(123),
            balance: None,
            this_shard_ns: None,
            max_shard_ns: None,
            mean_shard_ns: None,
        };
        assert_eq!(
            in_process.render_line(),
            "scheduling: 24 jobs, predicted 1234 ns, lpt order, \
             calibrated on 24 timings (4.2% error), actual error 12.3% (24 jobs)"
        );

        let shard = SchedReport {
            jobs: 5,
            predicted_total_ns: 1234,
            order: None,
            calibration_samples: None,
            calibration_error_milli: None,
            actual_jobs: 0,
            actual_error_milli: None,
            balance: Some("cost".to_string()),
            this_shard_ns: Some(1234),
            max_shard_ns: Some(2000),
            mean_shard_ns: Some(1600),
        };
        assert_eq!(
            shard.render_line(),
            "scheduling: 5 jobs, predicted 1234 ns, balance cost: \
             this shard 1234 ns, max shard 2000 ns, spread 1.250x"
        );

        // The minimal form: no calibration, no actuals, no shards.
        let bare = SchedReport {
            jobs: 2,
            predicted_total_ns: 10,
            order: Some("plan".to_string()),
            calibration_samples: None,
            calibration_error_milli: None,
            actual_jobs: 0,
            actual_error_milli: None,
            balance: None,
            this_shard_ns: None,
            max_shard_ns: None,
            mean_shard_ns: None,
        };
        assert_eq!(
            bare.render_line(),
            "scheduling: 2 jobs, predicted 10 ns, plan order"
        );
    }

    #[test]
    fn sched_reports_render_between_shards_and_streams() {
        let mut summary = RunSummary::new();
        assert!(summary.is_empty());
        summary.push(CacheReport::new("traces", 1, 0));
        summary.push_stream(StreamReport::default());
        summary.push_sched(SchedReport {
            jobs: 3,
            predicted_total_ns: 9,
            order: Some("lpt".to_string()),
            calibration_samples: None,
            calibration_error_milli: None,
            actual_jobs: 0,
            actual_error_milli: None,
            balance: None,
            this_shard_ns: None,
            max_shard_ns: None,
            mean_shard_ns: None,
        });
        summary.push_shard(ShardReport {
            index: 1,
            count: 1,
            jobs_total: 3,
            jobs_owned: 3,
            jobs_sealed: 3,
            jobs_failed: 0,
            manifest_bytes: 1,
        });
        let lines: Vec<String> = summary.render().lines().map(str::to_string).collect();
        assert!(lines[1].starts_with("  shard"), "{}", lines[1]);
        assert!(lines[2].starts_with("  scheduling:"), "{}", lines[2]);
        assert!(lines[3].starts_with("  streamed replay:"), "{}", lines[3]);

        let mut only_sched = RunSummary::new();
        only_sched.push_sched(SchedReport {
            jobs: 1,
            predicted_total_ns: 1,
            order: None,
            calibration_samples: None,
            calibration_error_milli: None,
            actual_jobs: 0,
            actual_error_milli: None,
            balance: None,
            this_shard_ns: None,
            max_shard_ns: None,
            mean_shard_ns: None,
        });
        assert!(!only_sched.is_empty());
    }

    #[test]
    fn summary_renders_header_and_indent() {
        let mut summary = RunSummary::new();
        assert!(summary.is_empty());
        assert_eq!(summary.render(), "");
        summary.push(CacheReport::new("a", 1, 0));
        summary.push(CacheReport::new("b", 0, 1));
        let text = summary.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "run summary:");
        assert!(lines[1].starts_with("  a:"));
        assert!(lines[2].starts_with("  b:"));
    }

    #[test]
    fn serve_report_renders_first() {
        let mut summary = RunSummary::new();
        summary.push(CacheReport::new("traces", 1, 0));
        summary.push_serve(ServeReport {
            requests: 12,
            accepted: 9,
            rejected: 2,
            cancelled: 1,
            figures_streamed: 31,
            jobs_executed: 24,
            jobs_shared: 40,
            jobs_cached: 16,
        });
        assert!(!summary.is_empty());
        let text = summary.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[1],
            "  serve: 12 requests (9 accepted, 2 rejected, 1 cancelled), \
             31 figures streamed, jobs: 24 executed, 40 shared in-flight, 16 memoized"
        );
        assert!(lines[2].starts_with("  traces:"));
    }
}
