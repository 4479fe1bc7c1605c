//! Process-wide telemetry for the STMS reproduction.
//!
//! Every layer of a campaign — the job pool, trace generation and
//! hierarchy-log recording, the cache tiers — records into one lock-cheap
//! [`Registry`] of named metrics:
//!
//! * [`Counter`] — monotone, saturating `u64` event counts;
//! * [`Gauge`] — last-value / high-water `u64` levels (queue depths,
//!   resident bytes);
//! * [`Histogram`] — fixed-bucket log2 latency distributions with no
//!   allocation on the record path; timers record elapsed nanoseconds into
//!   one (`obs::histogram("job/run_ns").record(ns)`).
//!
//! Handles are `Arc`-backed clones: the registry lock is taken only at
//! registration, never on the hot path. Recording is a handful of relaxed
//! atomic operations, and the whole registry can be switched off
//! ([`set_enabled`]) which turns every record into a branch on one relaxed
//! atomic load. Telemetry must never perturb figure output: it writes to
//! stderr or files.
//!
//! A [`Snapshot`] is a deterministic point-in-time copy of every metric,
//! serializable to the versioned `stms-metrics/v1` JSON document written by
//! `--metrics-out`.
//!
//! # Example
//!
//! ```
//! use stms_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("store/hits");
//! hits.add(3);
//! registry.histogram("job/run_ns").record(1_500);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("store/hits"), Some(3));
//! assert_eq!(snap.histogram("job/run_ns").unwrap().count, 1);
//! let json = snap.to_json();
//! assert_eq!(json.get("counters").unwrap().get("store/hits").unwrap().as_u64(), Some(3));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of log2 buckets in a [`Histogram`]. Bucket 0 counts the value 0;
/// bucket `i >= 1` counts values in `[2^(i-1), 2^i)`; the last bucket
/// absorbs everything from `2^(BUCKETS-2)` up to `u64::MAX`.
pub const BUCKETS: usize = 64;

/// Schema tag stamped on every serialized snapshot; bump when the JSON
/// layout changes so stale consumers fail closed instead of misreading.
pub const SNAPSHOT_SCHEMA: &str = "stms-metrics/v1";

/// The log2 bucket a value lands in.
fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Saturating add on a shared cell: counters freeze at `u64::MAX` instead
/// of wrapping (the discipline every campaign counter already follows).
fn saturating_fetch_add(cell: &AtomicU64, n: u64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_add(n))
    });
}

/// A monotone event counter. Cheap to clone; all clones share one cell.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`, saturating at `u64::MAX`. A no-op while the registry is
    /// disabled.
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            saturating_fetch_add(&self.cell, n);
        }
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A level metric: last value set, plus `record_max` for high-water marks.
#[derive(Debug, Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge. A no-op while the registry is disabled.
    pub fn set(&self, value: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.store(value, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `value` if it is higher (high-water mark).
    pub fn record_max(&self, value: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Shared cells of one histogram (count, sum, max, fixed log2 buckets).
#[derive(Debug)]
struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-bucket log2 distribution of `u64` samples (latencies in
/// nanoseconds, sizes in bytes). Recording is four relaxed atomic
/// operations and never allocates.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Records one sample. A no-op while the registry is disabled.
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        saturating_fetch_add(&self.cells.count, 1);
        saturating_fetch_add(&self.cells.sum, value);
        self.cells.max.fetch_max(value, Ordering::Relaxed);
        saturating_fetch_add(&self.cells.buckets[bucket_index(value)], 1);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, cell) in self.cells.buckets.iter().enumerate() {
            let n = cell.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            count: self.cells.count.load(Ordering::Relaxed),
            sum: self.cells.sum.load(Ordering::Relaxed),
            max: self.cells.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

#[derive(Debug, Default)]
struct Maps {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCells>>,
}

/// A process- or test-scoped collection of named metrics. The embedded
/// mutex guards only the name→cell maps: it is taken when a handle is
/// first created for a name, never while recording.
///
/// Counters, gauges and histograms live in separate namespaces, so a
/// counter and a histogram may share a name without aliasing (snapshots
/// keep them apart too).
#[derive(Debug, Default)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    maps: Mutex<Maps>,
}

impl Registry {
    /// An empty, enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            maps: Mutex::new(Maps::default()),
        }
    }

    /// Turns all recording on or off. Existing handles observe the switch
    /// immediately (they share the flag).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Maps> {
        self.maps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name`, creating it at zero on first
    /// use. Cache the returned handle on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        let cell = {
            let mut maps = self.lock();
            Arc::clone(
                maps.counters
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        };
        Counter {
            enabled: Arc::clone(&self.enabled),
            cell,
        }
    }

    /// The gauge registered under `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let cell = {
            let mut maps = self.lock();
            Arc::clone(
                maps.gauges
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        };
        Gauge {
            enabled: Arc::clone(&self.enabled),
            cell,
        }
    }

    /// The histogram registered under `name`, creating it empty on first
    /// use. Cache the returned handle on hot paths.
    pub fn histogram(&self, name: &str) -> Histogram {
        let cells = {
            let mut maps = self.lock();
            Arc::clone(
                maps.histograms
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCells::new())),
            )
        };
        Histogram {
            enabled: Arc::clone(&self.enabled),
            cells,
        }
    }

    /// A deterministic point-in-time copy of every registered metric,
    /// sorted by name within each kind.
    pub fn snapshot(&self) -> Snapshot {
        let maps = self.lock();
        Snapshot {
            counters: maps
                .counters
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            gauges: maps
                .gauges
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(name, cells)| {
                    let histogram = Histogram {
                        enabled: Arc::clone(&self.enabled),
                        cells: Arc::clone(cells),
                    };
                    (name.clone(), histogram.snapshot())
                })
                .collect(),
        }
    }
}

/// The process-wide registry every campaign layer records into. Created
/// enabled on first use and never reset, so snapshots taken over a process
/// lifetime are monotone.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Switches the global registry's recording on or off (see
/// [`Registry::set_enabled`]).
pub fn set_enabled(enabled: bool) {
    global().set_enabled(enabled);
}

/// Whether the global registry is currently recording (see
/// [`Registry::is_enabled`]). Hot paths that would pay a clock read even
/// for discarded samples check this before timing at all.
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// A counter in the global registry (see [`Registry::counter`]).
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// A gauge in the global registry (see [`Registry::gauge`]).
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// A histogram in the global registry (see [`Registry::histogram`]).
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// A snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Point-in-time copy of one histogram: totals plus its non-empty log2
/// buckets as `(bucket index, sample count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples (saturating).
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty buckets, ascending by index; see [`BUCKETS`] for the
    /// bucket boundaries.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket where the cumulative sample count first
    /// reaches `q` (0.0–1.0) of the total, clamped to the observed `max` —
    /// a conservative estimate that never exceeds the largest sample, so
    /// `quantile(1.0) == max`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= threshold.max(1) {
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }
}

/// Inclusive upper bound of one log2 bucket (see [`BUCKETS`]).
fn bucket_upper_bound(index: u32) -> u64 {
    if index == 0 {
        0
    } else if index as usize >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A deterministic, serializable copy of a whole registry at one instant.
///
/// The JSON form ([`Snapshot::to_json_string`]) is the
/// `stms-metrics/v1` document written by `--metrics-out` and validated by
/// CI — all integers, flat name→value maps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)` distributions, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of the named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// Value of the named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        lookup(&self.gauges, name).copied()
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name)
    }

    /// The snapshot as a JSON value under the [`SNAPSHOT_SCHEMA`] layout.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let map = |entries: &[(String, u64)]| {
            Value::Object(
                entries
                    .iter()
                    .map(|(name, value)| (name.clone(), Value::from(*value)))
                    .collect(),
            )
        };
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(name, hist)| {
                    let buckets = Value::Array(
                        hist.buckets
                            .iter()
                            .map(|&(index, n)| {
                                Value::Array(vec![Value::from(index as u64), Value::from(n)])
                            })
                            .collect(),
                    );
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("count".to_string(), Value::from(hist.count)),
                            ("sum".to_string(), Value::from(hist.sum)),
                            ("max".to_string(), Value::from(hist.max)),
                            ("buckets".to_string(), buckets),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("schema".to_string(), Value::from(SNAPSHOT_SCHEMA)),
            ("counters".to_string(), map(&self.counters)),
            ("gauges".to_string(), map(&self.gauges)),
            ("histograms".to_string(), histograms),
        ])
    }

    /// The snapshot as a pretty-printed `stms-metrics/v1` JSON document
    /// with a trailing newline (the exact bytes `--metrics-out` writes).
    pub fn to_json_string(&self) -> String {
        let mut out = serde_json::to_string_pretty(&self.to_json());
        out.push('\n');
        out
    }

    /// Compact `(label, value)` lines for the stderr `telemetry:` block of
    /// a run summary: every counter and gauge verbatim, every histogram as
    /// `count / mean / p95 / max` nanosecond columns.
    pub fn render_lines(&self) -> Vec<(String, String)> {
        let mut lines = Vec::new();
        for (name, value) in &self.counters {
            lines.push((name.clone(), value.to_string()));
        }
        for (name, value) in &self.gauges {
            lines.push((name.clone(), value.to_string()));
        }
        for (name, hist) in &self.histograms {
            lines.push((
                name.clone(),
                format!(
                    "n={} mean={} p95={} max={}",
                    hist.count,
                    format_ns(hist.mean()),
                    format_ns(hist.quantile(0.95)),
                    format_ns(hist.max),
                ),
            ));
        }
        lines
    }
}

fn lookup<'a, T>(entries: &'a [(String, T)], name: &str) -> Option<&'a T> {
    entries
        .binary_search_by(|(k, _)| k.as_str().cmp(name))
        .ok()
        .map(|i| &entries[i].1)
}

/// Renders a nanosecond quantity with a human-scale unit (`ns`, `us`,
/// `ms`, `s`), keeping summaries readable across six orders of magnitude.
pub fn format_ns(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every bucket's upper bound lands back in that bucket (or below
        // for the saturated last bucket).
        for index in 0..BUCKETS as u32 {
            let upper = bucket_upper_bound(index);
            assert!(bucket_index(upper) as u32 >= index.min(BUCKETS as u32 - 1) || upper == 0);
        }
    }

    #[test]
    fn counters_and_gauges_record() {
        let registry = Registry::new();
        let c = registry.counter("c");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Clones share the cell; re-lookup by name shares it too.
        registry.counter("c").add(1);
        assert_eq!(c.get(), 6);

        let g = registry.gauge("g");
        g.set(9);
        g.record_max(3);
        assert_eq!(g.get(), 9);
        g.record_max(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn disabled_registry_records_nothing_and_spans_skip_the_clock() {
        let registry = Registry::new();
        let c = registry.counter("c");
        let h = registry.histogram("h");
        registry.set_enabled(false);
        c.add(10);
        h.record(10);
        registry.gauge("g").set(7);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), Some(0));
        assert_eq!(snap.gauge("g"), Some(0));
        assert_eq!(snap.histogram("h").unwrap().count, 0);
        // Re-enabling resumes recording on the same handles.
        registry.set_enabled(true);
        c.add(2);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn histogram_saturates_instead_of_wrapping() {
        let registry = Registry::new();
        let h = registry.histogram("big");
        h.record(u64::MAX);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, u64::MAX, "sum saturates");
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.buckets, vec![(BUCKETS as u32 - 1, 2)]);
    }

    #[test]
    fn quantiles_are_conservative_bucket_bounds() {
        let registry = Registry::new();
        let h = registry.histogram("q");
        for v in [1u64, 2, 3, 4, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.mean(), (1 + 2 + 3 + 4 + 1000) / 5);
        assert!(snap.quantile(0.5) >= 3, "median upper bound covers 3");
        assert_eq!(snap.quantile(0.8), 7, "p80 is 4's bucket bound");
        assert_eq!(
            snap.quantile(1.0),
            1000,
            "p100 is 1000's bucket bound (1023) clamped to the max"
        );
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        assert_eq!(HistogramSnapshot::default().mean(), 0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let registry = Registry::new();
        registry.counter("a/hits").add(3);
        registry.gauge("a/depth").set(2);
        registry.histogram("a/lat_ns").record(700);
        let snap = registry.snapshot();
        let text = snap.to_json_string();
        assert!(text.ends_with('\n'));
        let json = serde_json::from_str(&text).unwrap();
        assert_eq!(
            json,
            snap.to_json(),
            "the text is the value, pretty-printed"
        );
        assert_eq!(json.get("schema").unwrap().as_str(), Some(SNAPSHOT_SCHEMA));
        let field = |section: &str, name: &str| json.get(section).unwrap().get(name).cloned();
        assert_eq!(field("counters", "a/hits").unwrap().as_u64(), Some(3));
        assert_eq!(field("gauges", "a/depth").unwrap().as_u64(), Some(2));
        let hist = field("histograms", "a/lat_ns").unwrap();
        for (key, value) in [("count", 1), ("sum", 700), ("max", 700)] {
            assert_eq!(hist.get(key).unwrap().as_u64(), Some(value), "{key}");
        }
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        let pair = buckets[0].as_array().unwrap();
        let index = bucket_index(700) as u64;
        assert_eq!((pair[0].as_u64(), pair[1].as_u64()), (Some(index), Some(1)));
    }

    #[test]
    fn render_lines_cover_every_metric() {
        let registry = Registry::new();
        registry.counter("hits").add(3);
        registry.gauge("depth").set(2);
        registry.histogram("lat").record(1_500);
        let lines = registry.snapshot().render_lines();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().any(|(k, v)| k == "hits" && v == "3"));
        assert!(lines
            .iter()
            .any(|(k, v)| k == "lat" && v.contains("n=1") && v.contains("us")));
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(17), "17ns");
        assert_eq!(format_ns(1_500), "1.5us");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn global_registry_is_shared_and_monotone() {
        // Scoped names: the global registry is shared with every other
        // test in this binary.
        let c = counter("obs-test/global");
        let before = c.get();
        histogram("obs-test/global_ns").record(5);
        counter("obs-test/global").incr();
        assert_eq!(c.get(), before + 1);
        assert!(snapshot().histogram("obs-test/global_ns").unwrap().count >= 1);
    }
}
