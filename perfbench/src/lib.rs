//! End-to-end and per-layer benchmark of the STMS reproduction.
//!
//! The benchmark drives the workspace crates through their public APIs
//! only; see `README.md` for the workloads, the metrics and what each layer
//! metric should move.

mod adapter;
pub mod gate;
pub mod inputs;
mod layers;
pub mod report;
mod run;
mod stats;
mod traced;

pub use run::one_thread_pass;

use gate::Gate;
use report::Report;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full figure grid through a cache-less campaign.
    GridCold,
    /// One long trace per workload class, replayed on one thread under
    /// every prefetcher family.
    ReplayLong,
    /// The figure grid served from a populated result cache.
    GridWarm,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::GridCold, Workload::ReplayLong, Workload::GridWarm];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid-cold",
            Workload::ReplayLong => "replay-long",
            Workload::GridWarm => "grid-warm",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Worker threads of every campaign: one per hardware thread.
pub fn threads() -> usize {
    stms_sim::JobPool::default_threads()
}

/// Everything a run needs besides its workload.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Trace lengths ([`inputs::Scale::BENCH`] except in tests).
    pub scale: inputs::Scale,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Campaign worker threads.
    pub threads: usize,
    /// This benchmark's executable, started again for the grid workloads'
    /// one-thread pass.
    pub exe: std::path::PathBuf,
}

/// Runs one benchmark run: the untraced run (end-to-end metrics) or the
/// traced run (per-layer metrics).
///
/// # Errors
///
/// Returns a description of a failure that left no result to report
/// (scratch directories that cannot be created, for instance).
pub fn run(settings: &Settings, workload: Workload, trace: bool) -> Result<(Report, Gate), String> {
    if trace {
        return traced::traced(settings, workload);
    }
    match workload {
        Workload::GridCold => run::grid_cold(settings),
        Workload::ReplayLong => run::replay_long(settings),
        Workload::GridWarm => run::grid_warm(settings),
    }
}
