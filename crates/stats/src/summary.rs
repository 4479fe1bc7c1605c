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

/// An ordered collection of [`StreamReport`]s, [`CacheReport`]s and an
/// optional [`TelemetryReport`] rendered as one block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
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

    /// Appends the streamed-replay report (rendered before the cache
    /// lines).
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
            && self.streams.is_empty()
            && self.telemetry.as_ref().is_none_or(|t| t.lines.is_empty())
    }

    /// The rendered block: a `run summary:` header plus one indented line
    /// per stream report and tier. Empty summaries render as an empty
    /// string.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::from("run summary:\n");
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
    fn stream_report_renders_before_caches() {
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
        let lines: Vec<String> = summary.render().lines().map(str::to_string).collect();
        assert!(lines[1].starts_with("  streamed replay:"), "{}", lines[1]);
        assert!(lines[2].starts_with("  traces:"), "{}", lines[2]);

        let mut only_stream = RunSummary::new();
        assert!(only_stream.is_empty());
        only_stream.push_stream(StreamReport::default());
        assert!(!only_stream.is_empty());
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
}
