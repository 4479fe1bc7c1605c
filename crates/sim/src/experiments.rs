//! One plan per table/figure of the paper's evaluation (§5).
//!
//! Every experiment is expressed as a declarative [`FigurePlan`]: the list
//! of simulation [`JobSpec`]s it needs (its cells of the `(workload ×
//! prefetcher × sweep-point)` grid) plus a render stage folding the job
//! outputs into a [`FigureResult`]. Plans from *different* figures share one
//! [`Campaign`]: the campaign generates each workload trace exactly once in
//! its trace store and interleaves all cells on one bounded job pool.
//!
//! Convenience wrappers with the original one-call-per-figure signatures
//! (`fig4_potential(cfg)` etc.) remain for tests, examples and benches; they
//! run a single plan on a transient campaign. The `stms-experiments` binary
//! and [`run_all`] batch every requested plan through one shared campaign.

use crate::campaign::{Campaign, FigurePlan, JobOutput, JobSpec};
use crate::runner::PrefetcherKind;
use crate::system::ExperimentConfig;
use stms_core::StmsConfig;
use stms_mem::SimResult;
use stms_prefetch::{FixedDepthConfig, MarkovConfig};
use stms_stats::{analyze_streams_multi, geometric_mean, pct, ratio, TextTable};
use stms_workloads::{presets, WorkloadSpec};

/// Ids of every reproduced experiment, in presentation order.
pub const ALL_IDS: &[&str] = &[
    "table1",
    "table2",
    "fig1-left",
    "fig1-right",
    "fig4",
    "fig5-left",
    "fig5-right",
    "fig6-left",
    "fig6-right",
    "fig7",
    "fig8",
    "fig9",
    "ablation-index",
    "markov-sweep",
];

/// The rendered result of one reproduced table or figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier, e.g. `"fig4"`.
    pub id: String,
    /// The rendered table.
    pub table: TextTable,
    /// Free-form notes about what to compare against the paper.
    pub notes: String,
    /// Raw per-replay metric records ([`sim_metrics_json`]), one per replay
    /// job of the figure in job order. Populated by the campaign when it
    /// renders a figure, emitted as the `"metrics"` array of
    /// [`FigureResult::to_json`] so plotting pipelines read numbers instead
    /// of re-parsing rendered table cells. Never part of the text render.
    pub metrics: Vec<serde_json::Value>,
}

impl FigureResult {
    /// Renders the figure as text (title, table, notes).
    pub fn render(&self) -> String {
        let mut out = self.table.render();
        if !self.notes.is_empty() {
            out.push_str("notes: ");
            out.push_str(&self.notes);
            out.push('\n');
        }
        out
    }

    /// Converts the figure to a JSON value for downstream tooling:
    /// `{"id", "title", "headers", "rows", "notes", "metrics"}`, where
    /// `"metrics"` carries the raw [`stms_mem::SimResult`] fields of every
    /// replay job (see [`sim_metrics_json`]) alongside the rendered cells.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let strings = |items: &[String]| {
            Value::Array(items.iter().map(|s| Value::from(s.as_str())).collect())
        };
        Value::Object(vec![
            ("id".to_string(), Value::from(self.id.as_str())),
            (
                "title".to_string(),
                match self.table.title() {
                    Some(title) => Value::from(title),
                    None => Value::Null,
                },
            ),
            ("headers".to_string(), strings(self.table.headers())),
            (
                "rows".to_string(),
                Value::Array(self.table.rows().iter().map(|row| strings(row)).collect()),
            ),
            ("notes".to_string(), Value::from(self.notes.as_str())),
            ("metrics".to_string(), Value::Array(self.metrics.clone())),
        ])
    }

    /// Rebuilds a figure from the JSON produced by [`FigureResult::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing/mistyped field, or of a
    /// row whose width disagrees with the headers.
    pub fn from_json(value: &serde_json::Value) -> Result<Self, String> {
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field `{key}`"))
        };
        let strings = |v: &serde_json::Value, what: &str| -> Result<Vec<String>, String> {
            v.as_array()
                .ok_or_else(|| format!("{what} is not an array"))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{what} contains a non-string"))
                })
                .collect()
        };
        let id = str_field("id")?;
        let notes = str_field("notes")?;
        let title = match value.get("title") {
            Some(serde_json::Value::Null) | None => None,
            Some(v) => Some(
                v.as_str()
                    .map(str::to_string)
                    .ok_or("field `title` is not a string or null")?,
            ),
        };
        let headers = strings(
            value.get("headers").ok_or("missing field `headers`")?,
            "headers",
        )?;
        let rows: Vec<Vec<String>> = value
            .get("rows")
            .and_then(|v| v.as_array())
            .ok_or("missing or non-array field `rows`")?
            .iter()
            .map(|row| strings(row, "row"))
            .collect::<Result<_, _>>()?;
        for row in &rows {
            if row.len() != headers.len() {
                return Err(format!(
                    "row width {} disagrees with header width {}",
                    row.len(),
                    headers.len()
                ));
            }
        }
        let metrics = match value.get("metrics") {
            // Absent: a pre-metrics document; tolerated as empty.
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or("field `metrics` is not an array")?
                .to_vec(),
        };
        Ok(FigureResult {
            id,
            table: TextTable::from_parts(headers, rows, title),
            notes,
            metrics,
        })
    }
}

/// The JSON item `--format json` emits for one figure outcome: the
/// [`FigureResult::to_json`] object on success, `{"id", "error"}` on
/// failure.
pub fn figure_json_item(
    figure: &Result<FigureResult, crate::campaign::CampaignError>,
) -> serde_json::Value {
    match figure {
        Ok(result) => result.to_json(),
        Err(err) => serde_json::Value::Object(vec![
            (
                "id".to_string(),
                serde_json::Value::from(err.figure.as_str()),
            ),
            (
                "error".to_string(),
                serde_json::Value::from(err.to_string()),
            ),
        ]),
    }
}

/// Assembles the complete `--format json` document from per-figure items
/// (see [`figure_json_item`]): one pretty-printed JSON array, exactly the
/// bytes the CLI prints (minus the trailing newline `println!` appends).
pub fn figures_json_document(items: Vec<serde_json::Value>) -> String {
    serde_json::to_string_pretty(&serde_json::Value::Array(items))
}

/// The raw-metrics JSON record of one replay result: every counter of the
/// [`stms_mem::SimResult`] plus the derived ratios the figures plot, so a
/// plotting pipeline consuming `--format json` never has to re-parse
/// rendered strings like `"42.0%"`.
pub fn sim_metrics_json(result: &SimResult) -> serde_json::Value {
    use serde_json::Value;
    let fields: Vec<(&str, Value)> = vec![
        ("workload", Value::from(result.workload.as_str())),
        ("prefetcher", Value::from(result.prefetcher.as_str())),
        ("instructions", Value::from(result.instructions)),
        ("cycles", Value::from(result.cycles)),
        ("accesses", Value::from(result.accesses)),
        ("l1_hits", Value::from(result.l1_hits)),
        ("l2_hits", Value::from(result.l2_hits)),
        ("uncovered_misses", Value::from(result.uncovered_misses)),
        ("stream_lost_misses", Value::from(result.stream_lost_misses)),
        ("covered_full", Value::from(result.covered_full)),
        ("covered_partial", Value::from(result.covered_partial)),
        ("write_misses", Value::from(result.write_misses)),
        ("prefetches_issued", Value::from(result.prefetches_issued)),
        ("prefetches_used", Value::from(result.prefetches_used)),
        ("prefetches_unused", Value::from(result.prefetches_unused)),
        ("miss_epochs", Value::from(result.miss_epochs)),
        ("epoch_misses", Value::from(result.epoch_misses)),
        (
            "traffic_demand_fill",
            Value::from(result.traffic.demand_fill),
        ),
        ("traffic_writeback", Value::from(result.traffic.writeback)),
        (
            "traffic_stride_prefetch",
            Value::from(result.traffic.stride_prefetch),
        ),
        (
            "traffic_prefetch_data",
            Value::from(result.traffic.prefetch_data),
        ),
        (
            "traffic_meta_lookup",
            Value::from(result.traffic.meta_lookup),
        ),
        (
            "traffic_meta_update",
            Value::from(result.traffic.meta_update),
        ),
        (
            "traffic_meta_record",
            Value::from(result.traffic.meta_record),
        ),
        ("coverage", Value::from(result.coverage())),
        ("full_coverage", Value::from(result.full_coverage())),
        ("accuracy", Value::from(result.accuracy())),
        ("ipc", Value::from(result.ipc())),
        ("mlp", Value::from(result.mlp())),
        (
            "overhead_per_useful_byte",
            Value::from(result.overhead_per_useful_byte()),
        ),
    ];
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

fn workload_suite() -> Vec<WorkloadSpec> {
    presets::paper_figure_suite()
}

fn sims(outputs: Vec<JobOutput>) -> Vec<SimResult> {
    outputs.into_iter().map(JobOutput::into_sim).collect()
}

/// Runs one plan on a transient single-figure campaign (the convenience
/// path behind the original `figN(cfg)` signatures).
///
/// # Panics
///
/// Panics if a simulation job fails; batch callers that want per-figure
/// errors use [`Campaign::run_figures`] directly.
fn run_plan(cfg: &ExperimentConfig, plan: FigurePlan) -> FigureResult {
    Campaign::new(cfg.clone())
        .run_figures(vec![plan])
        .pop()
        .expect("one plan in, one figure out")
        .unwrap_or_else(|err| panic!("{err}"))
}

/// Plan for Table 1: the system model parameters (no simulation jobs).
pub fn plan_table1(_cfg: &ExperimentConfig) -> FigurePlan {
    FigurePlan::new("table1", Vec::new(), |cfg, _outputs| {
        let sys = &cfg.system;
        let mut t = TextTable::new(vec!["parameter".into(), "value".into()])
            .with_title("Table 1: system model (scaled reproduction values)");
        let rows: Vec<(String, String)> = vec![
            ("cores".into(), format!("{}", sys.cores)),
            (
                "L1 data cache".into(),
                format!(
                    "{} KB {}-way, {}-cycle",
                    sys.l1.capacity_bytes / 1024,
                    sys.l1.associativity,
                    sys.l1.hit_latency
                ),
            ),
            (
                "shared L2".into(),
                format!(
                    "{} KB {}-way, {}-cycle",
                    sys.l2.capacity_bytes / 1024,
                    sys.l2.associativity,
                    sys.l2.hit_latency
                ),
            ),
            (
                "main memory".into(),
                format!(
                    "{} cycles latency, {:.1} B/cycle peak",
                    sys.dram.latency_cycles, sys.dram.bytes_per_cycle
                ),
            ),
            (
                "ROB / MSHRs per core".into(),
                format!("{} / {}", sys.core.rob_size, sys.core.mshrs),
            ),
            (
                "stride prefetcher".into(),
                format!(
                    "{} streams, degree {}",
                    sys.stride.streams, sys.stride.degree
                ),
            ),
            ("trace length".into(), format!("{} accesses", cfg.accesses)),
        ];
        for (k, v) in rows {
            t.add_row(vec![k, v]);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "table1".into(),
            table: t,
            notes: "capacities are scaled ~16x below the paper's Table 1 to match the synthetic \
                    workload footprints (see DESIGN.md)"
                .into(),
        }
    })
}

/// Table 1 (convenience wrapper; see [`plan_table1`]).
pub fn table1_system(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_table1(cfg))
}

/// Plan for Table 2: memory-level parallelism of off-chip reads in the base
/// system.
pub fn plan_table2(_cfg: &ExperimentConfig) -> FigurePlan {
    let jobs = workload_suite()
        .into_iter()
        .map(|spec| JobSpec::replay(spec, PrefetcherKind::Baseline))
        .collect();
    FigurePlan::new("table2", jobs, |_cfg, outputs| {
        let mut t = TextTable::new(vec!["workload".into(), "MLP".into()])
            .with_title("Table 2: memory-level parallelism of off-chip reads (baseline)");
        for r in sims(outputs) {
            t.add_row(vec![r.workload.clone(), format!("{:.1}", r.mlp())]);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "table2".into(),
            table: t,
            notes: "paper reports 1.0 (moldyn) to 1.7 (em3d); commercial workloads 1.3-1.6".into(),
        }
    })
}

/// Table 2 (convenience wrapper; see [`plan_table2`]).
pub fn table2_mlp(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_table2(cfg))
}

/// Plan for Figure 1 (left): coverage as a function of correlation-table
/// entries for an idealized address-correlating prefetcher (commercial
/// workloads).
pub fn plan_fig1_left(_cfg: &ExperimentConfig) -> FigurePlan {
    const ENTRY_COUNTS: [usize; 6] = [1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20];
    let specs = presets::commercial_suite();
    let per_point = specs.len();
    let mut jobs = Vec::new();
    for &entries in &ENTRY_COUNTS {
        for spec in &specs {
            jobs.push(JobSpec::replay(
                spec.clone(),
                PrefetcherKind::IdealTms {
                    index_entries: Some(entries),
                    history_entries: 1 << 22,
                },
            ));
        }
    }
    FigurePlan::new("fig1-left", jobs, move |_cfg, outputs| {
        let mut t = TextTable::new(vec![
            "index entries".into(),
            "avg coverage".into(),
            "paper-equivalent entries".into(),
        ])
        .with_title(
            "Figure 1 (left): coverage vs correlation-table entries (commercial workloads)",
        );
        for (results, &entries) in sims(outputs).chunks(per_point).zip(&ENTRY_COUNTS) {
            let coverages: Vec<f64> = results.iter().map(SimResult::coverage).collect();
            let avg = stms_stats::mean(&coverages);
            t.add_row(vec![
                format!("{entries}"),
                pct(avg),
                format!("{}", entries as u64 * crate::system::CAPACITY_SCALE),
            ]);
        }
        FigureResult { metrics: Vec::new(),
            id: "fig1-left".into(),
            table: t,
            notes: "coverage should keep rising until ~10^5-10^6 scaled entries (10^6-10^7 paper-equivalent)"
                .into(),
        }
    })
}

/// Figure 1 left (convenience wrapper; see [`plan_fig1_left`]).
pub fn fig1_left_entries_sweep(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig1_left(cfg))
}

/// Plan for Figure 1 (right): memory-traffic overheads of prior off-chip
/// meta-data designs, reconstructed (as the paper does) from their published
/// results. No simulation jobs.
pub fn plan_fig1_right(_cfg: &ExperimentConfig) -> FigurePlan {
    FigurePlan::new("fig1-right", Vec::new(), |_cfg, _outputs| {
        // Reconstruction constants, per design, from the published results the
        // paper cites: overhead accesses per baseline read access.
        // - EBCP: ~50% coverage at ~60% accuracy -> ~0.35 erroneous per read;
        //   one lookup per off-chip miss epoch (~0.7/read) and a 3-access update
        //   per lookup (~2.1/read).
        // - ULMT: lookup on every remaining miss (~0.5/read), 3-access update per
        //   lookup (~1.5/read), erroneous ~0.4/read.
        // - TSE: 3-access lookup on remaining misses (~1.5/read), ~1 access per
        //   update on misses and prefetched hits (~1.0/read), erroneous ~0.3/read.
        let designs: [(&str, f64, f64, f64); 3] = [
            ("EBCP", 0.35, 0.70, 2.10),
            ("ULMT", 0.40, 0.50, 1.50),
            ("TSE", 0.30, 1.50, 1.00),
        ];
        let mut t = TextTable::new(vec![
            "design".into(),
            "erroneous prefetches".into(),
            "meta-data lookup".into(),
            "meta-data update".into(),
            "total overhead / read".into(),
        ])
        .with_title("Figure 1 (right): overhead traffic of prior designs (reconstructed from published results)");
        for (name, err, lookup, update) in designs {
            t.add_row(vec![
                name.to_string(),
                ratio(err),
                ratio(lookup),
                ratio(update),
                ratio(err + lookup + update),
            ]);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "fig1-right".into(),
            table: t,
            notes: "all three prior designs incur roughly 3x the baseline read traffic".into(),
        }
    })
}

/// Figure 1 right (convenience wrapper; see [`plan_fig1_right`]).
pub fn fig1_right_published_overheads() -> FigureResult {
    run_plan(
        &ExperimentConfig::quick(),
        plan_fig1_right(&ExperimentConfig::quick()),
    )
}

/// Plan for Figure 4: coverage (left) and speedup (right) of idealized TMS
/// over the baseline, per workload (matched on one shared trace each).
pub fn plan_fig4(_cfg: &ExperimentConfig) -> FigurePlan {
    let specs = workload_suite();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let mut jobs = Vec::new();
    for spec in specs {
        jobs.push(JobSpec::replay(spec.clone(), PrefetcherKind::Baseline));
        jobs.push(JobSpec::replay(spec, PrefetcherKind::ideal()));
    }
    FigurePlan::new("fig4", jobs, move |_cfg, outputs| {
        let mut t = TextTable::new(vec!["workload".into(), "coverage".into(), "speedup".into()])
            .with_title("Figure 4: idealized TMS prefetching potential");
        for (pair, name) in sims(outputs).chunks(2).zip(&names) {
            let (base, ideal) = (&pair[0], &pair[1]);
            t.add_row(vec![
                name.clone(),
                pct(ideal.coverage()),
                pct(ideal.speedup_over(base)),
            ]);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "fig4".into(),
            table: t,
            notes: "expected shape: Web/OLTP 40-60% coverage with 5-18% speedup, DSS <=20% \
                    coverage, scientific 80-99% coverage with up to ~80% speedup (em3d)"
                .into(),
        }
    })
}

/// Figure 4 (convenience wrapper; see [`plan_fig4`]).
pub fn fig4_potential(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig4(cfg))
}

/// Plan for Figure 5 (left): coverage as a function of (aggregate)
/// history-buffer size.
pub fn plan_fig5_history(_cfg: &ExperimentConfig) -> FigurePlan {
    // Entries per core; 4 bytes per entry, 4 cores -> aggregate bytes = 16x.
    const SIZES: [usize; 6] = [1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20];
    let specs = workload_suite();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let per_point = specs.len();
    let mut jobs = Vec::new();
    for &entries in &SIZES {
        for spec in &specs {
            jobs.push(JobSpec::replay(
                spec.clone(),
                PrefetcherKind::IdealTms {
                    index_entries: None,
                    history_entries: entries,
                },
            ));
        }
    }
    FigurePlan::new("fig5-left", jobs, move |cfg, outputs| {
        let mut headers = vec![
            "history entries/core".into(),
            "aggregate (paper-equiv MB)".into(),
        ];
        headers.extend(names.iter().cloned());
        let mut t =
            TextTable::new(headers).with_title("Figure 5 (left): coverage vs history-buffer size");
        for (results, &entries) in sims(outputs).chunks(per_point).zip(&SIZES) {
            let aggregate_bytes = entries as u64 * 4 * cfg.system.cores as u64;
            let mut row = vec![
                format!("{entries}"),
                format!("{:.2}", cfg.paper_equivalent_mb(aggregate_bytes)),
            ];
            row.extend(results.iter().map(|r| pct(r.coverage())));
            t.add_row(row);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "fig5-left".into(),
            table: t,
            notes:
                "commercial coverage should rise smoothly with history size; scientific coverage \
                 is bimodal (near zero until the history holds a full iteration, then near full)"
                    .into(),
        }
    })
}

/// Figure 5 left (convenience wrapper; see [`plan_fig5_history`]).
pub fn fig5_history_sweep(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig5_history(cfg))
}

/// Plan for Figure 5 (right): coverage as a function of index-table size
/// (hash-based lookup, unbounded history).
pub fn plan_fig5_index(_cfg: &ExperimentConfig) -> FigurePlan {
    const BUCKET_COUNTS: [usize; 6] = [1 << 7, 1 << 9, 1 << 11, 1 << 13, 1 << 15, 1 << 17];
    let specs = workload_suite();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let per_point = specs.len();
    let mut jobs = Vec::new();
    for &buckets in &BUCKET_COUNTS {
        let stms_cfg = StmsConfig::scaled_default()
            .with_sampling(1.0)
            .with_index_buckets(buckets)
            .with_history_entries(1 << 20);
        for spec in &specs {
            jobs.push(JobSpec::replay(
                spec.clone(),
                PrefetcherKind::Stms(stms_cfg),
            ));
        }
    }
    FigurePlan::new("fig5-right", jobs, move |cfg, outputs| {
        let mut headers = vec!["index buckets".into(), "index size (paper-equiv MB)".into()];
        headers.extend(names.iter().cloned());
        let mut t = TextTable::new(headers)
            .with_title("Figure 5 (right): coverage vs index-table size (hash-based lookup)");
        for (results, &buckets) in sims(outputs).chunks(per_point).zip(&BUCKET_COUNTS) {
            let mut row = vec![
                format!("{buckets}"),
                format!("{:.2}", cfg.paper_equivalent_mb(buckets as u64 * 64)),
            ];
            row.extend(results.iter().map(|r| pct(r.coverage())));
            t.add_row(row);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "fig5-right".into(),
            table: t,
            notes: "coverage should saturate once the index holds roughly one entry per distinct \
                    miss address (paper: ~16 MB)"
                .into(),
        }
    })
}

/// Figure 5 right (convenience wrapper; see [`plan_fig5_index`]).
pub fn fig5_index_sweep(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig5_index(cfg))
}

/// Plan for Figure 6 (left): cumulative fraction of streamed blocks by
/// temporal-stream length (commercial workloads).
pub fn plan_fig6_left(_cfg: &ExperimentConfig) -> FigurePlan {
    const SAMPLE_POINTS: [u64; 5] = [1, 10, 100, 1000, 10000];
    let specs = presets::commercial_suite();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let jobs = specs.into_iter().map(JobSpec::collect_misses).collect();
    FigurePlan::new("fig6-left", jobs, move |_cfg, outputs| {
        let mut headers = vec!["workload".into()];
        headers.extend(SAMPLE_POINTS.iter().map(|p| format!("<= {p}")));
        let mut t = TextTable::new(headers).with_title(
            "Figure 6 (left): cumulative % of streamed blocks vs temporal-stream length",
        );
        for (output, name) in outputs.into_iter().zip(&names) {
            let seqs = output.into_miss_sequences();
            let analysis = analyze_streams_multi(&seqs);
            let cdf = analysis.blocks_by_length_cdf();
            let mut row = vec![name.clone()];
            for &p in &SAMPLE_POINTS {
                row.push(if cdf.is_empty() {
                    "n/a".into()
                } else {
                    pct(cdf.fraction_at_or_below(p))
                });
            }
            t.add_row(row);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "fig6-left".into(),
            table: t,
            notes: "a sizable fraction of streamed blocks comes from streams of <= 10 blocks, but \
                 long streams (100+) carry much of the weight"
                .into(),
        }
    })
}

/// Figure 6 left (convenience wrapper; see [`plan_fig6_left`]).
pub fn fig6_left_stream_length_cdf(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig6_left(cfg))
}

/// Plan for Figure 6 (right): coverage loss (relative to unbounded prefetch
/// depth) of a fixed-depth single-table prefetcher.
pub fn plan_fig6_right(cfg: &ExperimentConfig) -> FigurePlan {
    const DEPTHS: [usize; 5] = [1, 2, 4, 6, 12];
    let specs = workload_suite();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let per_workload = 1 + DEPTHS.len();
    let cores = cfg.system.cores;
    let mut jobs = Vec::new();
    for spec in specs {
        jobs.push(JobSpec::replay(spec.clone(), PrefetcherKind::ideal()));
        for &d in &DEPTHS {
            jobs.push(JobSpec::replay(
                spec.clone(),
                PrefetcherKind::FixedDepth(FixedDepthConfig::on_chip_with_depth(cores, d)),
            ));
        }
    }
    FigurePlan::new("fig6-right", jobs, move |_cfg, outputs| {
        let mut headers = vec!["workload".into(), "unbounded coverage".into()];
        headers.extend(DEPTHS.iter().map(|d| format!("loss @depth {d}")));
        let mut t = TextTable::new(headers)
            .with_title("Figure 6 (right): coverage loss of restricted prefetch depth");
        for (results, name) in sims(outputs).chunks(per_workload).zip(&names) {
            let unbounded = results[0].coverage();
            let mut row = vec![name.clone(), pct(unbounded)];
            for r in &results[1..] {
                let loss = (unbounded - r.coverage()).max(0.0);
                row.push(pct(loss));
            }
            t.add_row(row);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "fig6-right".into(),
            table: t,
            notes: "small fixed depths (<= 6) should lose tens of percentage points of coverage \
                    on workloads with long streams"
                .into(),
        }
    })
}

/// Figure 6 right (convenience wrapper; see [`plan_fig6_right`]).
pub fn fig6_right_depth_loss(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig6_right(cfg))
}

/// Plan for Figure 7: overhead-traffic breakdown with and without
/// probabilistic update (100% vs 12.5% sampling).
pub fn plan_fig7(_cfg: &ExperimentConfig) -> FigurePlan {
    const PROBABILITIES: [f64; 2] = [1.0, 0.125];
    let specs = workload_suite();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let mut jobs = Vec::new();
    for spec in specs {
        for &p in &PROBABILITIES {
            jobs.push(JobSpec::replay(
                spec.clone(),
                PrefetcherKind::stms_with_sampling(p),
            ));
        }
    }
    FigurePlan::new("fig7", jobs, move |_cfg, outputs| {
        let mut t = TextTable::new(vec![
            "workload".into(),
            "sampling".into(),
            "record".into(),
            "update".into(),
            "lookup".into(),
            "erroneous".into(),
            "total overhead/useful byte".into(),
        ])
        .with_title("Figure 7: overhead traffic breakdown (100% vs 12.5% index-update sampling)");
        let mut ratios = Vec::new();
        for (results, name) in sims(outputs).chunks(PROBABILITIES.len()).zip(&names) {
            for (&p, r) in PROBABILITIES.iter().zip(results) {
                let b = r.overhead_breakdown();
                t.add_row(vec![
                    name.clone(),
                    format!("{:.1}%", p * 100.0),
                    ratio(b.record),
                    ratio(b.update),
                    ratio(b.lookup),
                    ratio(b.erroneous),
                    ratio(b.total()),
                ]);
            }
            let full = results[0].traffic.meta_update.max(1) as f64;
            let sampled = results[1].traffic.meta_update.max(1) as f64;
            ratios.push(full / sampled);
        }
        let gmean = geometric_mean(&ratios);
        FigureResult {
            metrics: Vec::new(),
            id: "fig7".into(),
            table: t,
            notes: format!(
                "index-update traffic reduction at 12.5% sampling: geometric mean {gmean:.1}x \
                 (paper reports 3.4x overall meta-data traffic reduction)"
            ),
        }
    })
}

/// Figure 7 (convenience wrapper; see [`plan_fig7`]).
pub fn fig7_traffic_breakdown(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig7(cfg))
}

/// Plan for Figure 8: traffic overhead (left) and coverage (right) as a
/// function of the update sampling probability.
pub fn plan_fig8(_cfg: &ExperimentConfig) -> FigurePlan {
    const PROBABILITIES: [f64; 7] = [0.01, 0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0];
    let specs = workload_suite();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let mut jobs = Vec::new();
    for spec in specs {
        for &p in &PROBABILITIES {
            jobs.push(JobSpec::replay(
                spec.clone(),
                PrefetcherKind::stms_with_sampling(p),
            ));
        }
    }
    FigurePlan::new("fig8", jobs, move |_cfg, outputs| {
        let mut headers = vec!["workload".into()];
        for p in PROBABILITIES {
            headers.push(format!("traffic @{:.0}%", p * 100.0));
        }
        for p in PROBABILITIES {
            headers.push(format!("coverage @{:.0}%", p * 100.0));
        }
        let mut t = TextTable::new(headers)
            .with_title("Figure 8: sensitivity to the update sampling probability");
        for (results, name) in sims(outputs).chunks(PROBABILITIES.len()).zip(&names) {
            let mut row = vec![name.clone()];
            for r in results {
                row.push(ratio(r.overhead_per_useful_byte()));
            }
            for r in results {
                row.push(pct(r.coverage()));
            }
            t.add_row(row);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "fig8".into(),
            table: t,
            notes: "traffic falls roughly in proportion to the sampling probability while \
                    coverage degrades only slowly (logarithmically); 12.5% is the sweet spot"
                .into(),
        }
    })
}

/// Figure 8 (convenience wrapper; see [`plan_fig8`]).
pub fn fig8_sampling_sweep(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig8(cfg))
}

/// Plan for Figure 9: coverage and speedup of practical STMS (off-chip
/// meta-data, 12.5% sampling) versus idealized TMS.
pub fn plan_fig9(_cfg: &ExperimentConfig) -> FigurePlan {
    let specs = workload_suite();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let mut jobs = Vec::new();
    for spec in specs {
        jobs.push(JobSpec::replay(spec.clone(), PrefetcherKind::Baseline));
        jobs.push(JobSpec::replay(spec.clone(), PrefetcherKind::ideal()));
        jobs.push(JobSpec::replay(
            spec,
            PrefetcherKind::stms_with_sampling(0.125),
        ));
    }
    FigurePlan::new("fig9", jobs, move |_cfg, outputs| {
        let mut t = TextTable::new(vec![
            "workload".into(),
            "ideal coverage".into(),
            "STMS coverage".into(),
            "STMS fully covered".into(),
            "ideal speedup".into(),
            "STMS speedup".into(),
        ])
        .with_title(
            "Figure 9: idealized TMS vs practical STMS (off-chip meta-data, 12.5% sampling)",
        );
        let mut ratios = Vec::new();
        for (results, name) in sims(outputs).chunks(3).zip(&names) {
            let (base, ideal, stms) = (&results[0], &results[1], &results[2]);
            if ideal.coverage() > 0.0 {
                ratios.push((stms.coverage() / ideal.coverage()).min(2.0));
            }
            t.add_row(vec![
                name.clone(),
                pct(ideal.coverage()),
                pct(stms.coverage()),
                pct(stms.full_coverage()),
                pct(ideal.speedup_over(base)),
                pct(stms.speedup_over(base)),
            ]);
        }
        let achieved = geometric_mean(&ratios);
        FigureResult {
            metrics: Vec::new(),
            id: "fig9".into(),
            table: t,
            notes: format!(
                "STMS achieves a geometric-mean {:.0}% of idealized coverage (paper: ~90%)",
                achieved * 100.0
            ),
        }
    })
}

/// Figure 9 (convenience wrapper; see [`plan_fig9`]).
pub fn fig9_final_comparison(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_fig9(cfg))
}

/// Plan for the index-organization ablation (§4.3 / §5.4): the miss capture
/// runs as a pooled job against the shared trace store, the index replay in
/// the render stage.
pub fn plan_ablation_index(_cfg: &ExperimentConfig) -> FigurePlan {
    let spec = presets::oltp_db2();
    let name = spec.name.clone();
    FigurePlan::new(
        "ablation-index",
        vec![JobSpec::collect_misses(spec)],
        move |_cfg, outputs| {
            let seqs = outputs
                .into_iter()
                .next()
                .expect("one capture job planned")
                .into_miss_sequences();
            let ablation = crate::ablation::index_organization_ablation_from(&name, &seqs);
            FigureResult {
                metrics: Vec::new(),
                id: "ablation-index".into(),
                table: ablation.table(),
                notes: "the bucketized table resolves every lookup with one memory block; the \
                        alternatives either probe/chain across several blocks or spend more \
                        storage"
                    .into(),
            }
        },
    )
}

/// Plan for the Markov-table sweep (Figure-1-style, §2): coverage of the
/// pair-wise correlating Markov prefetcher as a function of correlation
/// table entries, at two successor widths (commercial workloads).
///
/// The Markov prefetcher is the simplest correlating baseline the paper
/// discusses; sweeping its table like Figure 1 sweeps the idealized index
/// shows the same story — coverage keeps growing past any practical on-chip
/// capacity — with the added twist that wider successor lists buy little
/// beyond doubling the storage.
pub fn plan_markov_sweep(_cfg: &ExperimentConfig) -> FigurePlan {
    const ENTRY_COUNTS: [usize; 5] = [1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16];
    const SUCCESSORS: [usize; 2] = [2, 4];
    let specs = presets::commercial_suite();
    let per_point = specs.len();
    let mut jobs = Vec::new();
    for &successors in &SUCCESSORS {
        for &entries in &ENTRY_COUNTS {
            let config = MarkovConfig {
                entries,
                successors,
                ..MarkovConfig::default()
            };
            for spec in &specs {
                jobs.push(JobSpec::replay(
                    spec.clone(),
                    PrefetcherKind::Markov(config),
                ));
            }
        }
    }
    FigurePlan::new("markov-sweep", jobs, move |_cfg, outputs| {
        let mut t = TextTable::new(vec![
            "table entries".into(),
            "paper-equivalent entries".into(),
            "avg coverage (2 succ)".into(),
            "avg coverage (4 succ)".into(),
        ])
        .with_title("Markov sweep: coverage vs correlation-table entries (commercial workloads)");
        let results = sims(outputs);
        let avg_at = |succ_index: usize, entry_index: usize| -> f64 {
            let base = (succ_index * ENTRY_COUNTS.len() + entry_index) * per_point;
            let coverages: Vec<f64> = results[base..base + per_point]
                .iter()
                .map(SimResult::coverage)
                .collect();
            stms_stats::mean(&coverages)
        };
        for (entry_index, &entries) in ENTRY_COUNTS.iter().enumerate() {
            t.add_row(vec![
                format!("{entries}"),
                format!("{}", entries as u64 * crate::system::CAPACITY_SCALE),
                pct(avg_at(0, entry_index)),
                pct(avg_at(1, entry_index)),
            ]);
        }
        FigureResult {
            metrics: Vec::new(),
            id: "markov-sweep".into(),
            table: t,
            notes: "coverage should keep rising with table size (as in Figure 1 left); doubling \
                    successors costs 2x storage for a much smaller coverage gain — the Markov \
                    shortcoming §2 discusses"
                .into(),
        }
    })
}

/// Markov sweep (convenience wrapper; see [`plan_markov_sweep`]).
pub fn markov_sweep(cfg: &ExperimentConfig) -> FigureResult {
    run_plan(cfg, plan_markov_sweep(cfg))
}

/// Convenience: MLP plus baseline statistics for one workload (used in
/// examples and tests).
pub fn baseline_summary(cfg: &ExperimentConfig, spec: &WorkloadSpec) -> SimResult {
    crate::runner::run_workload(cfg, spec, &PrefetcherKind::Baseline)
}

/// The plan for one experiment id (`None` for unknown ids); ids are listed
/// in [`ALL_IDS`].
pub fn plan_for_id(id: &str, cfg: &ExperimentConfig) -> Option<FigurePlan> {
    let plan = match id {
        "table1" => plan_table1(cfg),
        "table2" => plan_table2(cfg),
        "fig1-left" => plan_fig1_left(cfg),
        "fig1-right" => plan_fig1_right(cfg),
        "fig4" => plan_fig4(cfg),
        "fig5-left" => plan_fig5_history(cfg),
        "fig5-right" => plan_fig5_index(cfg),
        "fig6-left" => plan_fig6_left(cfg),
        "fig6-right" => plan_fig6_right(cfg),
        "fig7" => plan_fig7(cfg),
        "fig8" => plan_fig8(cfg),
        "fig9" => plan_fig9(cfg),
        "ablation-index" => plan_ablation_index(cfg),
        "markov-sweep" => plan_markov_sweep(cfg),
        _ => return None,
    };
    Some(plan)
}

/// Plans for every reproduced table and figure, in [`ALL_IDS`] order.
pub fn all_plans(cfg: &ExperimentConfig) -> Vec<FigurePlan> {
    ALL_IDS
        .iter()
        .map(|id| plan_for_id(id, cfg).expect("every listed id has a plan"))
        .collect()
}

/// Runs every reproduced table and figure through one shared campaign (each
/// workload trace is generated exactly once, all cells interleave on one
/// bounded pool).
///
/// # Panics
///
/// Panics if any simulation job fails; use
/// [`Campaign::run_figures`] with [`all_plans`] for per-figure errors.
pub fn run_all(cfg: &ExperimentConfig) -> Vec<FigureResult> {
    Campaign::new(cfg.clone())
        .run_figures(all_plans(cfg))
        .into_iter()
        .map(|figure| figure.unwrap_or_else(|err| panic!("{err}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::quick().with_accesses(12_000)
    }

    #[test]
    fn table1_reports_configuration_without_simulation() {
        assert_eq!(plan_table1(&tiny()).job_count(), 0);
        let fig = table1_system(&ExperimentConfig::scaled());
        assert_eq!(fig.id, "table1");
        assert!(fig.table.row_count() >= 6);
        assert!(fig.render().contains("cores"));
    }

    #[test]
    fn fig1_right_totals_are_about_three() {
        let fig = fig1_right_published_overheads();
        let csv = fig.table.to_csv();
        // Every design's total overhead is between 2 and 4 accesses per read.
        for line in csv.lines().skip(1) {
            let total: f64 = line.split(',').next_back().unwrap().parse().unwrap();
            assert!((2.0..=4.0).contains(&total), "total {total} out of range");
        }
    }

    #[test]
    fn fig4_quick_run_produces_all_rows() {
        let fig = fig4_potential(&tiny());
        assert_eq!(fig.table.row_count(), 8);
        assert!(fig.render().contains("Web Apache"));
    }

    #[test]
    fn table2_quick_run_reports_mlp_near_expected_band() {
        let fig = table2_mlp(&tiny());
        assert_eq!(fig.table.row_count(), 8);
        let csv = fig.table.to_csv();
        for line in csv.lines().skip(1) {
            let mlp: f64 = line.split(',').next_back().unwrap().parse().unwrap();
            assert!((0.9..=4.0).contains(&mlp), "MLP {mlp} should be plausible");
        }
    }

    #[test]
    fn every_id_has_a_plan_with_the_matching_identity() {
        let cfg = tiny();
        for &id in ALL_IDS {
            let plan = plan_for_id(id, &cfg).expect("listed id");
            assert_eq!(plan.id(), id);
        }
        assert!(plan_for_id("fig99", &cfg).is_none());
        assert_eq!(all_plans(&cfg).len(), ALL_IDS.len());
        // The full grid is substantially larger than any one figure.
        let total_jobs: usize = all_plans(&cfg).iter().map(|p| p.job_count()).sum();
        assert!(total_jobs > 100, "full grid has {total_jobs} jobs");
    }

    #[test]
    fn figure_json_round_trips_through_serde_json() {
        let fig = table2_mlp(&tiny());
        let text = serde_json::to_string(&fig.to_json());
        let parsed = serde_json::from_str(&text).expect("emitted JSON is valid");
        let back = FigureResult::from_json(&parsed).expect("JSON carries every field");
        assert_eq!(back.id, fig.id);
        assert_eq!(back.notes, fig.notes);
        assert_eq!(back.table, fig.table);
        assert_eq!(back.render(), fig.render());
    }

    #[test]
    fn figure_from_json_rejects_malformed_documents() {
        assert!(FigureResult::from_json(&serde_json::Value::Null).is_err());
        let missing = serde_json::from_str(r#"{"id":"x"}"#).unwrap();
        assert!(FigureResult::from_json(&missing).is_err());
        let ragged = serde_json::from_str(
            r#"{"id":"x","title":null,"headers":["a","b"],"rows":[["1"]],"notes":""}"#,
        )
        .unwrap();
        let err = FigureResult::from_json(&ragged).unwrap_err();
        assert!(err.contains("width"), "{err}");
    }
}
