//! Experiment driver for the STMS reproduction.
//!
//! This crate glues the workspace together: it generates the synthetic
//! workloads (`stms-workloads`), runs them through the CMP simulator
//! (`stms-mem`) with each prefetcher under study (`stms-prefetch`,
//! `stms-core`), and renders the paper's tables and figures
//! (`stms-stats`).
//!
//! * [`ExperimentConfig`] — the scaled system model and trace lengths;
//! * [`campaign`] — the orchestration layer, whose [`Campaign`] runs every
//!   batch of simulation jobs: a [`campaign::TraceStore`]
//!   generating each workload trace once per batch and dropping it after
//!   its last job, a [`campaign::JobPool`] running each batch on a bounded
//!   number of scoped workers with panic-safe per-job errors, declarative
//!   [`campaign::FigurePlan`]s whose cells run as one batch trace by
//!   trace, and an optional persistent [`campaign::ResultStore`] that only
//!   the benchmark opens;
//! * [`runner`] — the prefetcher configurations under study
//!   ([`PrefetcherKind`]) and [`run_trace`], which replays one trace;
//! * [`experiments`] — one plan per table/figure of the paper (§5), all
//!   declared in [`experiments::FIGURES`];
//! * the `stms-experiments` binary — command-line front end
//!   (`--figures`, `--threads`, `--format text|json`, `--csv DIR`,
//!   `--metrics-out FILE`).
//!
//! # Example
//!
//! ```no_run
//! use stms_sim::{experiments, Campaign, ExperimentConfig};
//!
//! // Regenerate Figure 4 (idealized prefetching potential) at full scale.
//! let campaign = Campaign::new(ExperimentConfig::scaled());
//! let plan = experiments::plan_for_id("fig4", campaign.cfg()).expect("known id");
//! for figure in campaign.run_figures(vec![plan]) {
//!     println!("{}", figure.expect("no simulation failed").render());
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod campaign;
pub mod experiments;
pub mod runner;
pub mod system;

pub use ablation::{index_organization_ablation_from, IndexAblation, IndexAblationRow};
pub use campaign::{
    job_fingerprint, Campaign, CampaignCacheStats, CampaignCaches, CampaignError, FigurePlan,
    FlightStats, JobError, JobOutput, JobPool, JobSpec, JobTask, ResultStore, ResultStoreStats,
    TraceStore, TraceStoreStats,
};
pub use experiments::FigureResult;
pub use runner::{run_trace, PrefetcherKind};
pub use system::{ExperimentConfig, CAPACITY_SCALE};
