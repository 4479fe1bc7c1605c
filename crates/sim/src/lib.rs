//! Experiment driver for the STMS reproduction.
//!
//! This crate glues the workspace together: it generates the synthetic
//! workloads (`stms-workloads`), runs them through the CMP simulator
//! (`stms-mem`) with each prefetcher under study (`stms-prefetch`,
//! `stms-core`), and renders the paper's tables and figures
//! (`stms-stats`).
//!
//! * [`ExperimentConfig`] — the scaled system model and trace lengths;
//! * [`campaign`] — the orchestration layer: a [`campaign::TraceStore`]
//!   generating each workload trace exactly once, a bounded
//!   [`campaign::JobPool`] with panic-safe per-job errors, declarative
//!   [`campaign::FigurePlan`]s whose cells go to one pool in plan order,
//!   and an optional persistent [`campaign::ResultStore`];
//! * [`runner`] — (workload × prefetcher) convenience runners on top of the
//!   campaign layer;
//! * [`experiments`] — one plan per table/figure of the paper (§5);
//! * the `stms-experiments` binary — command-line front end
//!   (`--figures`, `--threads`, `--format text|json`, `--result-cache DIR`,
//!   `--stream-traces`).
//!
//! # Example
//!
//! ```no_run
//! use stms_sim::{experiments, ExperimentConfig};
//!
//! // Regenerate Figure 4 (idealized prefetching potential) at full scale.
//! let cfg = ExperimentConfig::scaled();
//! let fig4 = experiments::fig4_potential(&cfg);
//! println!("{}", fig4.render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod campaign;
pub mod experiments;
pub mod runner;
pub mod system;

pub use ablation::{
    index_organization_ablation, index_organization_ablation_from, IndexAblation, IndexAblationRow,
};
pub use campaign::{
    job_fingerprint, Campaign, CampaignCacheStats, CampaignCaches, CampaignError, FigurePlan,
    FlightStats, JobError, JobOutput, JobPool, JobSpec, JobTask, ResultStore, ResultStoreStats,
    TraceStore, TraceStoreStats,
};
pub use experiments::FigureResult;
pub use runner::{
    build_trace, collect_miss_sequences, run_matched, run_source, run_suite, run_trace,
    run_workload, PrefetcherKind,
};
pub use system::{ExperimentConfig, CAPACITY_SCALE};
