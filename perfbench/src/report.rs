//! Metric names, the result of one benchmark run, and its output format.

use crate::gate::Gate;
use crate::inputs::Family;

/// End-to-end metric names, as declared in `BENCHMARK.json`.
pub fn end_to_end_names() -> Vec<String> {
    let mut names: Vec<String> = ["setup_s", "wall_s", "sim_maccess_per_s", "peak_rss_mb"]
        .map(String::from)
        .to_vec();
    names.extend(Family::ALL.map(|f| format!("ns_per_access.{}", f.name())));
    names.push("stms_coverage_of_ideal".into());
    names.push("stms_meta_overhead".into());
    names
}

/// DRAM traffic classes, in `TrafficClass::ALL` order.
pub const TRAFFIC_CLASSES: [&str; 7] = [
    "demand_fill",
    "writeback",
    "stride_prefetch",
    "prefetch_data",
    "meta_lookup",
    "meta_update",
    "meta_record",
];

/// Per-layer metric names, as declared in `BENCHMARK.json`.
pub fn per_layer_names() -> Vec<String> {
    let mut names = vec!["workloads.generate_ns_per_access".to_string()];
    names.extend(Family::ALL.map(|f| format!("mem.engine.self_ns_per_access.{}", f.name())));
    names.extend(
        [
            "mem.cache.l1_access_ns",
            "mem.cache.l2_access_ns",
            "mem.cache.fill_ns",
            "mem.prefetch_buffer.take_ns",
            "mem.prefetch_buffer.insert_ns",
        ]
        .map(String::from),
    );
    names.extend(TRAFFIC_CLASSES.map(|c| format!("mem.dram.bytes.{c}")));
    names.extend(
        [
            "core.stms.trigger_ns",
            "core.stms.next_chunk_ns",
            "core.stms.record_ns",
            "core.stms.triggers",
            "core.stms.next_chunks",
            "core.stms.records",
            "core.stms.index_hits",
            "core.stms.updates_performed",
            "core.stms.updates_skipped",
            "core.stms.history_blocks_read",
            "core.stms.end_marks",
            "core.index.lookups",
            "core.index.buffer_hits",
            "core.index.writebacks",
            "core.index.lookup_ns",
            "core.index.update_ns",
            "core.history.append_ns",
            "core.history.read_block_ns",
        ]
        .map(String::from),
    );
    for family in [Family::Ideal, Family::Markov, Family::FixedDepth] {
        names.push(format!("prefetch.{}.callback_ns_per_access", family.name()));
        names.push(format!("prefetch.{}.calls", family.name()));
    }
    names.extend(
        [
            "sim.campaign.jobs",
            "sim.campaign.distinct_traces",
            "sim.campaign.job_ms_p50",
            "sim.campaign.job_ms_tail",
            "sim.campaign.job_ms_tail_pct",
            "sim.campaign.busy_frac",
            "sim.result_store.hits",
            "sim.result_store.misses",
            "sim.result_store.get_us_p50",
            "sim.result_store.get_us_tail",
            "sim.result_store.get_us_tail_pct",
            "bench.tracing_overhead",
        ]
        .map(String::from),
    );
    names
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds one note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Names of the metrics recorded so far.
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, _, _)| name.clone())
            .collect()
    }

    /// The value of metric `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The last output line: `{"correct", "attempted", "failed",
    /// "metrics"}`. Fails if the metric set is not exactly `declared` or a
    /// value is not finite.
    pub fn result_line(&self, gate: &Gate, declared: &[String]) -> Result<String, String> {
        let names = self.names();
        if names != declared {
            return Err(format!(
                "metric set {names:?} differs from the declared {declared:?}"
            ));
        }
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            gate.correct(),
            gate.attempted.max(1),
            gate.failed,
            metrics.join(", ")
        ))
    }
}

/// Resets the kernel's resident-set high-water mark of this process to the
/// current RSS, so the next [`peak_rss_mb`] reads the peak since now. When
/// the kernel refuses, the mark keeps covering the whole process lifetime.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
