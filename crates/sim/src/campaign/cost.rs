//! Deterministic job cost modeling for campaign scheduling.
//!
//! A campaign grid is wildly heterogeneous: a fig5 sweep cell replaying a
//! 2^20-entry history dwarfs a table2 baseline replay, so both the
//! in-process pool and an `fp % N` shard fleet end up rate-limited by
//! whichever unlucky worker drew the expensive cells. This module predicts
//! each job's cost *before* running anything, which unlocks two schedulers:
//!
//! * **LPT pool ordering** — `run_figures_streaming` submits jobs
//!   longest-predicted-first, so stragglers start early and the pool tail
//!   shrinks (rendering is unaffected: figures still emit in plan order).
//! * **Cost-balanced sharding** — [`partition`] greedily bin-packs the
//!   distinct job grid into shards of near-equal *predicted work* instead
//!   of equal job count (`--shard-balance cost`).
//!
//! Both uses demand strict determinism — every shard of a fleet must
//! compute the byte-identical partition without coordinating — so the
//! model is pure integer arithmetic over the job description: trace
//! length, prefetcher family, table/history geometry (log-scaled), and
//! warm-up fraction. The analytic weights are deliberately coarse; what
//! matters for scheduling is the *ordering and rough ratio* of costs, not
//! their absolute scale.
//!
//! The model is also *calibratable*: every shard manifest since v2 embeds
//! measured per-job [`ShardJobTiming`] records, and
//! [`JobCostModel::calibrated`] fits one scale factor per prefetcher
//! family from any prior manifest directory (`--calibrate-from`). The fit
//! is a ratio of sums, so it is independent of record order and identical
//! on every process given the same manifests.

use super::job::{JobSpec, JobTask};
use super::shard;
use crate::runner::PrefetcherKind;
use crate::system::ExperimentConfig;
use std::collections::HashMap;
use std::path::Path;
use stms_types::{Fingerprint, ShardBalance, ShardJobTiming, ShardManifest};

/// Number of cost classes (one per prefetcher family plus miss
/// collection); each gets an independent calibration scale.
const CLASSES: usize = 6;

/// Floor of the integer log2 used for table-size features (log2(0) and
/// log2(1) both map to 0).
fn log2(n: usize) -> u64 {
    (usize::BITS - 1 - n.max(1).leading_zeros()) as u64
}

/// Which calibration class a job belongs to.
fn class_of(job: &JobSpec) -> usize {
    match &job.task {
        JobTask::CollectMisses => 0,
        JobTask::Replay(PrefetcherKind::Baseline) => 1,
        JobTask::Replay(PrefetcherKind::IdealTms { .. }) => 2,
        JobTask::Replay(PrefetcherKind::Stms(_)) => 3,
        JobTask::Replay(PrefetcherKind::FixedDepth(_)) => 4,
        JobTask::Replay(PrefetcherKind::Markov(_)) => 5,
    }
}

/// The analytic per-access weight of a job, in abstract model units. Table
/// and history sizes enter log-scaled (lookups are hash/tree-shaped, and
/// bigger tables mostly cost cache locality, not instructions).
fn per_access_weight(job: &JobSpec) -> u64 {
    match &job.task {
        JobTask::CollectMisses => 60,
        JobTask::Replay(kind) => match kind {
            PrefetcherKind::Baseline => 100,
            PrefetcherKind::IdealTms {
                index_entries,
                history_entries,
            } => {
                let index = index_entries.unwrap_or(*history_entries);
                140 + 4 * log2(*history_entries) + 2 * log2(index)
            }
            PrefetcherKind::Stms(c) => {
                // Probabilistic index updates skip work proportionally to
                // the sampling probability; fixed-point via rounded milli
                // units keeps the arithmetic integral and deterministic.
                let sampling_milli = (c.sampling_probability * 1000.0).round() as u64;
                180 + 6 * log2(c.history_entries_per_core)
                    + 4 * log2(c.index_buckets)
                    + 30 * sampling_milli / 1000
            }
            PrefetcherKind::FixedDepth(c) => 120 + 4 * log2(c.entries) + 6 * c.depth as u64,
            PrefetcherKind::Markov(c) => 120 + 4 * log2(c.entries) + 6 * c.successors as u64,
        },
    }
}

/// One class's calibration scale, applied as `analytic * num / den`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scale {
    num: u128,
    den: u128,
}

impl Scale {
    const IDENTITY: Scale = Scale { num: 1, den: 1 };

    fn apply(self, analytic: u64) -> u64 {
        let scaled = u128::from(analytic) * self.num / self.den;
        u64::try_from(scaled).unwrap_or(u64::MAX).max(1)
    }
}

/// What a calibration fit measured, for the `scheduling:` summary line and
/// the `sched.calibration_error_milli` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Calibration {
    /// Timing records that matched a job of the current grid.
    pub samples: u64,
    /// Mean absolute prediction error of the *calibrated* model against
    /// the matched records, in per-mille of observed time (123 = 12.3%).
    pub error_milli: u64,
}

/// A deterministic predictor of job execution cost.
///
/// The analytic default ranks jobs by structural cost; a calibrated model
/// additionally rescales each prefetcher family to measured wall-clock
/// nanoseconds from prior [`ShardJobTiming`] records. Predictions are pure
/// functions of `(config, job)` — no clocks, no floats beyond one rounded
/// fixed-point conversion — so every process computes identical values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobCostModel {
    scales: [Scale; CLASSES],
}

impl Default for JobCostModel {
    fn default() -> Self {
        Self::analytic()
    }
}

impl JobCostModel {
    /// The uncalibrated model: analytic weights, identity scales.
    pub fn analytic() -> Self {
        JobCostModel {
            scales: [Scale::IDENTITY; CLASSES],
        }
    }

    /// Fits per-family scales from measured timings, matching records to
    /// the current grid by job fingerprint (`grid[i].0` must be the
    /// fingerprint of `grid[i].1` under the calibrating configuration — a
    /// record from a different configuration simply matches nothing).
    /// Families without a matched record fall back to the grid-wide global
    /// scale, and to the identity when nothing matched at all.
    pub fn calibrated(
        cfg: &ExperimentConfig,
        grid: &[(Fingerprint, JobSpec)],
        timings: &[ShardJobTiming],
    ) -> (Self, Calibration) {
        let analytic = Self::analytic();
        let features: HashMap<Fingerprint, (usize, u64)> = grid
            .iter()
            .map(|(fingerprint, job)| {
                (
                    *fingerprint,
                    (class_of(job), analytic.predicted_ns(cfg, job)),
                )
            })
            .collect();
        let mut observed = [0u128; CLASSES];
        let mut predicted = [0u128; CLASSES];
        let mut samples = 0u64;
        for timing in timings {
            if let Some(&(class, analytic_ns)) = features.get(&timing.fingerprint) {
                observed[class] += u128::from(timing.run_ns);
                predicted[class] += u128::from(analytic_ns);
                samples += 1;
            }
        }
        let global_obs: u128 = observed.iter().sum();
        let global_pred: u128 = predicted.iter().sum();
        let global = if global_obs > 0 && global_pred > 0 {
            Scale {
                num: global_obs,
                den: global_pred,
            }
        } else {
            Scale::IDENTITY
        };
        let mut scales = [global; CLASSES];
        for class in 0..CLASSES {
            if observed[class] > 0 && predicted[class] > 0 {
                scales[class] = Scale {
                    num: observed[class],
                    den: predicted[class],
                };
            }
        }
        let model = JobCostModel { scales };
        // Residual error of the fitted model against the records it was
        // fitted on — an in-sample figure, but enough to tell a usable
        // calibration from a mismatched one in the run summary.
        let mut abs_err: u128 = 0;
        let mut obs_total: u128 = 0;
        for timing in timings {
            if let Some(&(class, analytic_ns)) = features.get(&timing.fingerprint) {
                let prediction = u128::from(model.scales[class].apply(analytic_ns));
                abs_err += prediction.abs_diff(u128::from(timing.run_ns));
                obs_total += u128::from(timing.run_ns);
            }
        }
        let error_milli = (abs_err * 1000)
            .checked_div(obs_total)
            .map(|milli| u64::try_from(milli).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let calibration = Calibration {
            samples,
            error_milli,
        };
        if stms_obs::is_enabled() {
            stms_obs::gauge("sched.calibration_error_milli").set(error_milli);
            stms_obs::gauge("sched.calibration_samples").set(samples);
        }
        (model, calibration)
    }

    /// Predicts the cost of one job in model nanoseconds (exactly
    /// nanoseconds once calibrated; an arbitrary consistent unit before).
    pub fn predicted_ns(&self, cfg: &ExperimentConfig, job: &JobSpec) -> u64 {
        let accesses = cfg.accesses as u64;
        // Warm-up accesses skip statistics bookkeeping, so a long warm-up
        // shaves a bounded slice off the per-access cost (fixed-point, in
        // milli units; warmup_fraction is validated to [0, 1)).
        let warmup_milli = (cfg.sim.warmup_fraction * 1000.0).round() as u64;
        let base = accesses.saturating_mul(per_access_weight(job));
        let adjusted = (u128::from(base) * u128::from(4000 - warmup_milli) / 4000) as u64;
        self.scales[class_of(job)].apply(adjusted.max(1))
    }
}

/// A full deterministic assignment of the distinct job grid to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// 1-based owning shard of each distinct job, parallel to the grid.
    pub owners: Vec<u32>,
    /// Predicted cost assigned to each shard (index 0 = shard 1) — the
    /// per-shard makespan estimate the `scheduling:` line reports.
    pub shard_cost_ns: Vec<u128>,
}

/// Partitions the distinct job grid across `count` shards.
///
/// * [`ShardBalance::Count`] is the modulo partition
///   (`fingerprint % count`), which splits job *count* evenly.
/// * [`ShardBalance::Cost`] runs greedy longest-processing-time
///   bin-packing: jobs sorted by (predicted cost desc, fingerprint asc)
///   are assigned one by one to the currently lightest shard (ties to the
///   lowest index). Both the sort key and the tie-breaks are total orders,
///   so the assignment is a pure function of the grid *set* — independent
///   of job-list order and identical across processes, which is what lets
///   shards partition without coordinating.
pub fn partition(
    model: &JobCostModel,
    cfg: &ExperimentConfig,
    distinct: &[(Fingerprint, JobSpec)],
    count: u32,
    balance: ShardBalance,
) -> Partition {
    let costs: Vec<u64> = distinct
        .iter()
        .map(|(_, job)| model.predicted_ns(cfg, job))
        .collect();
    let mut owners = vec![0u32; distinct.len()];
    let mut shard_cost_ns = vec![0u128; count as usize];
    match balance {
        ShardBalance::Count => {
            for (i, (fingerprint, _)) in distinct.iter().enumerate() {
                let owner = (fingerprint.raw() % u128::from(count)) as u32 + 1;
                owners[i] = owner;
                shard_cost_ns[(owner - 1) as usize] += u128::from(costs[i]);
            }
        }
        ShardBalance::Cost => {
            let mut order: Vec<usize> = (0..distinct.len()).collect();
            order.sort_by(|&a, &b| {
                costs[b]
                    .cmp(&costs[a])
                    .then_with(|| distinct[a].0.cmp(&distinct[b].0))
            });
            for i in order {
                let lightest = shard_cost_ns
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &cost)| cost)
                    .map(|(index, _)| index)
                    .expect("count >= 1");
                owners[i] = lightest as u32 + 1;
                shard_cost_ns[lightest] += u128::from(costs[i]);
            }
        }
    }
    Partition {
        owners,
        shard_cost_ns,
    }
}

/// Reads the timing records out of every shard manifest in `dir` — the
/// `--calibrate-from` loader. Streams each manifest ([`ShardManifest::scan`])
/// so calibration never materializes payloads, and accepts manifests from
/// *any* configuration or shard layout: records that don't match the
/// current grid simply won't calibrate anything.
///
/// # Errors
///
/// A usage-style message when the directory has no manifests or one of
/// them is unreadable.
pub fn load_timings(dir: &Path) -> Result<Vec<ShardJobTiming>, String> {
    let paths = shard::list_manifests(dir).map_err(|e| e.to_string())?;
    if paths.is_empty() {
        return Err(format!(
            "no shard manifest (shard-*.stms) found in `{}`",
            dir.display()
        ));
    }
    let mut timings = Vec::new();
    for path in paths {
        let file = std::fs::File::open(&path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let scan = ShardManifest::scan(std::io::BufReader::new(file), |_| {})
            .map_err(|e| format!("unusable shard manifest `{}`: {e}", path.display()))?;
        timings.extend(scan.timings);
    }
    // Deterministic regardless of directory enumeration quirks.
    timings.sort_by_key(|t| (t.fingerprint, t.queue_ns, t.run_ns));
    Ok(timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_workloads::presets;

    fn grid(cfg: &ExperimentConfig) -> Vec<(Fingerprint, JobSpec)> {
        let jobs = vec![
            JobSpec::collect_misses(presets::web_apache()),
            JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline),
            JobSpec::replay(presets::web_apache(), PrefetcherKind::ideal()),
            JobSpec::replay(
                presets::web_zeus(),
                PrefetcherKind::stms_with_sampling(0.25),
            ),
        ];
        shard::distinct_jobs(cfg, &jobs)
    }

    #[test]
    fn analytic_costs_rank_structural_weight() {
        let cfg = ExperimentConfig::quick();
        let model = JobCostModel::analytic();
        let collect = model.predicted_ns(&cfg, &JobSpec::collect_misses(presets::web_apache()));
        let baseline = model.predicted_ns(
            &cfg,
            &JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline),
        );
        let small_ideal = model.predicted_ns(
            &cfg,
            &JobSpec::replay(
                presets::web_apache(),
                PrefetcherKind::IdealTms {
                    index_entries: None,
                    history_entries: 1 << 10,
                },
            ),
        );
        let big_ideal = model.predicted_ns(
            &cfg,
            &JobSpec::replay(
                presets::web_apache(),
                PrefetcherKind::IdealTms {
                    index_entries: None,
                    history_entries: 1 << 20,
                },
            ),
        );
        assert!(collect < baseline, "{collect} vs {baseline}");
        assert!(baseline < small_ideal, "{baseline} vs {small_ideal}");
        assert!(small_ideal < big_ideal, "{small_ideal} vs {big_ideal}");
        // Deterministic: same inputs, same number.
        assert_eq!(
            big_ideal,
            JobCostModel::analytic().predicted_ns(
                &cfg,
                &JobSpec::replay(
                    presets::web_apache(),
                    PrefetcherKind::IdealTms {
                        index_entries: None,
                        history_entries: 1 << 20,
                    },
                ),
            )
        );
    }

    #[test]
    fn calibration_rescales_matched_families_and_reports_error() {
        let cfg = ExperimentConfig::quick();
        let grid = grid(&cfg);
        let analytic = JobCostModel::analytic();
        // Perfect oracle: observed = 7x the analytic prediction for every
        // job. The fitted model should predict exactly 7x with zero error.
        let timings: Vec<ShardJobTiming> = grid
            .iter()
            .map(|(fingerprint, job)| ShardJobTiming {
                fingerprint: *fingerprint,
                queue_ns: 1,
                run_ns: analytic.predicted_ns(&cfg, job) * 7,
            })
            .collect();
        let (model, calibration) = JobCostModel::calibrated(&cfg, &grid, &timings);
        assert_eq!(calibration.samples, grid.len() as u64);
        assert_eq!(calibration.error_milli, 0);
        for (_, job) in &grid {
            assert_eq!(
                model.predicted_ns(&cfg, job),
                analytic.predicted_ns(&cfg, job) * 7
            );
        }
        // Unmatched records calibrate nothing.
        let stranger = vec![ShardJobTiming {
            fingerprint: Fingerprint::from_raw(42),
            queue_ns: 0,
            run_ns: 1_000_000,
        }];
        let (model, calibration) = JobCostModel::calibrated(&cfg, &grid, &stranger);
        assert_eq!(calibration.samples, 0);
        assert_eq!(model, analytic);
    }

    #[test]
    fn calibration_is_order_independent() {
        let cfg = ExperimentConfig::quick();
        let grid = grid(&cfg);
        let mut timings: Vec<ShardJobTiming> = grid
            .iter()
            .enumerate()
            .map(|(i, (fingerprint, _))| ShardJobTiming {
                fingerprint: *fingerprint,
                queue_ns: i as u64,
                run_ns: 1_000_000 + 313 * i as u64,
            })
            .collect();
        let (forward, _) = JobCostModel::calibrated(&cfg, &grid, &timings);
        timings.reverse();
        let (backward, _) = JobCostModel::calibrated(&cfg, &grid, &timings);
        assert_eq!(forward, backward);
    }

    #[test]
    fn cost_partition_balances_better_than_modulo_on_a_skewed_grid() {
        let cfg = ExperimentConfig::quick();
        // A grid dominated by a few huge ideal-TMS sweep cells plus many
        // cheap baselines — the shape that starves modulo sharding.
        let mut jobs = vec![];
        for shift in [10usize, 14, 18, 20, 20, 20] {
            jobs.push(JobSpec::replay(
                presets::web_apache(),
                PrefetcherKind::IdealTms {
                    index_entries: None,
                    history_entries: 1 << shift,
                },
            ));
        }
        for preset in [
            presets::web_apache(),
            presets::web_zeus(),
            presets::oltp_db2(),
            presets::oltp_oracle(),
        ] {
            jobs.push(JobSpec::replay(preset.clone(), PrefetcherKind::Baseline));
            jobs.push(JobSpec::collect_misses(preset));
        }
        let distinct = shard::distinct_jobs(&cfg, &jobs);
        let model = JobCostModel::analytic();
        let modulo = partition(&model, &cfg, &distinct, 3, ShardBalance::Count);
        let balanced = partition(&model, &cfg, &distinct, 3, ShardBalance::Cost);
        let max = |p: &Partition| *p.shard_cost_ns.iter().max().unwrap();
        assert!(
            max(&balanced) <= max(&modulo),
            "LPT makespan {} must not exceed modulo {}",
            max(&balanced),
            max(&modulo)
        );
        // Every job owned exactly once, by a valid shard.
        for p in [&modulo, &balanced] {
            assert_eq!(p.owners.len(), distinct.len());
            assert!(p.owners.iter().all(|&o| (1..=3).contains(&o)));
            let total: u128 = p.shard_cost_ns.iter().sum();
            let expected: u128 = distinct
                .iter()
                .map(|(_, job)| u128::from(model.predicted_ns(&cfg, job)))
                .sum();
            assert_eq!(total, expected);
        }
    }
}
