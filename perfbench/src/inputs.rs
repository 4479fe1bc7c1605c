//! The benchmark's inputs: which jobs and traces each workload runs, made
//! from the workload seed.
//!
//! The seed is XOR-ed into every preset's `WorkloadSpec::seed`, so seed 0
//! runs the presets exactly as committed and any other seed runs the same
//! grid on different generated traces.

use stms_core::StmsConfig;
use stms_prefetch::{FixedDepthConfig, MarkovConfig};
use stms_sim::{experiments, ExperimentConfig, JobSpec, JobTask, PrefetcherKind};
use stms_workloads::{presets, WorkloadSpec};

/// Trace lengths of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Accesses per trace of the figure grid (`grid-cold`, `grid-warm`).
    pub grid_accesses: usize,
    /// Accesses per trace of `replay-long`.
    pub replay_accesses: usize,
}

impl Scale {
    /// The scale the benchmark runs at: the grid at `--quick` length (its
    /// floor), the long replays at the full campaign length, where the
    /// history/index tables and the idealized prefetchers' maps reach the
    /// size the full campaign sees.
    pub const BENCH: Scale = Scale {
        grid_accesses: 120_000,
        replay_accesses: 600_000,
    };

    /// Campaign configuration of the figure grid.
    pub fn grid_cfg(&self) -> ExperimentConfig {
        ExperimentConfig::quick().with_accesses(self.grid_accesses)
    }

    /// Campaign configuration of the long replays.
    pub fn replay_cfg(&self) -> ExperimentConfig {
        ExperimentConfig::scaled().with_accesses(self.replay_accesses)
    }
}

/// The five prefetcher families the benchmark attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Stride prefetcher only (`NullPrefetcher`).
    Baseline,
    /// STMS at its default design point.
    Stms,
    /// Idealized TMS.
    Ideal,
    /// Pair-wise Markov prefetcher.
    Markov,
    /// Fixed-depth correlation table.
    FixedDepth,
}

impl Family {
    /// Every family, in reporting order.
    pub const ALL: [Family; 5] = [
        Family::Baseline,
        Family::Stms,
        Family::Ideal,
        Family::Markov,
        Family::FixedDepth,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Family::Baseline => "baseline",
            Family::Stms => "stms",
            Family::Ideal => "ideal",
            Family::Markov => "markov",
            Family::FixedDepth => "fixed_depth",
        }
    }

    /// Family of a grid job; `None` for miss-capture jobs.
    pub fn of_job(job: &JobSpec) -> Option<Family> {
        match &job.task {
            JobTask::Replay(PrefetcherKind::Baseline) => Some(Family::Baseline),
            JobTask::Replay(PrefetcherKind::Stms(_)) => Some(Family::Stms),
            JobTask::Replay(PrefetcherKind::IdealTms { .. }) => Some(Family::Ideal),
            JobTask::Replay(PrefetcherKind::Markov(_)) => Some(Family::Markov),
            JobTask::Replay(PrefetcherKind::FixedDepth(_)) => Some(Family::FixedDepth),
            JobTask::CollectMisses => None,
        }
    }

    /// The representative design point `replay-long` and the layer probes
    /// replay: the STMS default (12.5% sampling), the unbounded ideal TMS,
    /// and the crates' default Markov and fixed-depth (EBCP-like) tables.
    pub fn kind(self) -> PrefetcherKind {
        match self {
            Family::Baseline => PrefetcherKind::Baseline,
            Family::Stms => PrefetcherKind::stms_with_sampling(0.125),
            Family::Ideal => PrefetcherKind::ideal(),
            Family::Markov => PrefetcherKind::Markov(MarkovConfig::default()),
            Family::FixedDepth => PrefetcherKind::FixedDepth(FixedDepthConfig::default()),
        }
    }
}

/// The STMS configuration [`Family::Stms`] builds for `cores` cores (the
/// layer probes need the concrete type for its statistics).
pub fn stms_config(cores: usize) -> StmsConfig {
    StmsConfig {
        cores,
        ..StmsConfig::scaled_default().with_sampling(0.125)
    }
}

/// `spec` with the workload seed folded in.
pub fn seeded(spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    let base = spec.seed;
    spec.with_seed(base ^ seed)
}

/// The full figure grid (`experiments::all_plans`, every job kept in plan
/// order, duplicates included) with the workload seed applied.
pub fn grid_jobs(cfg: &ExperimentConfig, seed: u64) -> Vec<JobSpec> {
    experiments::all_plans(cfg)
        .iter()
        .flat_map(|plan| plan.jobs().iter().cloned())
        .map(|job| JobSpec {
            workload: seeded(job.workload, seed),
            task: job.task,
        })
        .collect()
}

/// The distinct workloads of the grid, in first-use order (the traces the
/// campaign generates).
pub fn grid_specs(jobs: &[JobSpec]) -> Vec<WorkloadSpec> {
    let mut specs: Vec<WorkloadSpec> = Vec::new();
    for job in jobs {
        if !specs.contains(&job.workload) {
            specs.push(job.workload.clone());
        }
    }
    specs
}

/// One preset per workload class for `replay-long`: Web, OLTP, DSS, Sci.
pub fn replay_specs(seed: u64) -> Vec<WorkloadSpec> {
    [
        presets::web_apache(),
        presets::oltp_db2(),
        presets::dss_qry17(),
        presets::sci_em3d(),
    ]
    .into_iter()
    .map(|spec| seeded(spec, seed))
    .collect()
}

/// The `replay-long` grid as campaign jobs: every trace under every family.
pub fn replay_jobs(seed: u64) -> Vec<JobSpec> {
    replay_specs(seed)
        .into_iter()
        .flat_map(|spec| {
            Family::ALL
                .into_iter()
                .map(move |family| JobSpec::replay(spec.clone(), family.kind()))
        })
        .collect()
}
