//! The prefetcher configurations under study and the replay of one trace
//! ([`run_trace`]). Batches of jobs run through a
//! [`Campaign`](crate::campaign::Campaign).

use crate::system::ExperimentConfig;
use stms_core::{Stms, StmsConfig};
use stms_mem::{CmpSimulator, NullPrefetcher, Prefetcher, SimResult};
use stms_prefetch::{
    FixedDepthConfig, FixedDepthPrefetcher, IdealTms, IdealTmsConfig, MarkovConfig,
    MarkovPrefetcher,
};
use stms_types::Trace;

/// The prefetcher configurations the experiments compare.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// The base system (stride prefetcher only).
    Baseline,
    /// Idealized temporal memory streaming with on-chip meta-data (§5.2).
    IdealTms {
        /// Bound on index entries (`None` = unbounded).
        index_entries: Option<usize>,
        /// History entries retained per core.
        history_entries: usize,
    },
    /// The practical STMS design with off-chip meta-data.
    Stms(StmsConfig),
    /// A single-table fixed-depth correlation prefetcher (EBCP/ULMT-like).
    FixedDepth(FixedDepthConfig),
    /// The pair-wise correlating Markov prefetcher.
    Markov(MarkovConfig),
}

impl PrefetcherKind {
    /// An unbounded idealized TMS.
    pub fn ideal() -> Self {
        PrefetcherKind::IdealTms {
            index_entries: None,
            history_entries: 1 << 22,
        }
    }

    /// The default STMS design point at the given sampling probability.
    pub fn stms_with_sampling(probability: f64) -> Self {
        PrefetcherKind::Stms(StmsConfig::scaled_default().with_sampling(probability))
    }

    /// Short label used in result tables.
    pub fn label(&self) -> String {
        match self {
            PrefetcherKind::Baseline => "baseline".to_string(),
            PrefetcherKind::IdealTms {
                index_entries: None,
                ..
            } => "ideal-tms".to_string(),
            PrefetcherKind::IdealTms {
                index_entries: Some(n),
                ..
            } => {
                format!("ideal-tms({n} entries)")
            }
            PrefetcherKind::Stms(cfg) => {
                format!("stms(p={:.3})", cfg.sampling_probability)
            }
            PrefetcherKind::FixedDepth(cfg) => format!("fixed-depth({})", cfg.depth),
            PrefetcherKind::Markov(cfg) => {
                format!("markov({} entries, {} succ)", cfg.entries, cfg.successors)
            }
        }
    }

    /// Builds a fresh prefetcher instance for a system with `cores` cores.
    pub fn build(&self, cores: usize) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherKind::Baseline => Box::new(NullPrefetcher::new()),
            PrefetcherKind::IdealTms {
                index_entries,
                history_entries,
            } => Box::new(IdealTms::new(IdealTmsConfig {
                cores,
                history_entries_per_core: *history_entries,
                index_entries: *index_entries,
                chunk_size: 32,
            })),
            PrefetcherKind::Stms(cfg) => Box::new(Stms::new(StmsConfig { cores, ..*cfg })),
            PrefetcherKind::FixedDepth(cfg) => {
                Box::new(FixedDepthPrefetcher::new(FixedDepthConfig {
                    cores,
                    ..*cfg
                }))
            }
            PrefetcherKind::Markov(cfg) => {
                Box::new(MarkovPrefetcher::new(MarkovConfig { cores, ..*cfg }))
            }
        }
    }
}

/// Runs an already-generated trace with one prefetcher configuration.
pub fn run_trace(cfg: &ExperimentConfig, trace: &Trace, kind: &PrefetcherKind) -> SimResult {
    let mut prefetcher = kind.build(cfg.system.cores);
    CmpSimulator::new(&cfg.system, cfg.sim).run(trace, prefetcher.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_workloads::{generate, presets, WorkloadSpec};

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick().with_accesses(20_000)
    }

    #[test]
    fn labels_are_distinct_and_descriptive() {
        let kinds = [
            PrefetcherKind::Baseline,
            PrefetcherKind::ideal(),
            PrefetcherKind::stms_with_sampling(0.125),
            PrefetcherKind::FixedDepth(FixedDepthConfig::ebcp_like(4)),
            PrefetcherKind::Markov(MarkovConfig::default()),
        ];
        let labels: Vec<String> = kinds.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
        assert!(labels.iter().all(|l| !l.is_empty()));
        assert_eq!(
            PrefetcherKind::IdealTms {
                index_entries: Some(100),
                history_entries: 10
            }
            .label(),
            "ideal-tms(100 entries)"
        );
    }

    #[test]
    fn markov_labels_carry_distinguishing_parameters() {
        // A sweep over Markov table sizes must not alias its rows.
        let small = PrefetcherKind::Markov(MarkovConfig {
            entries: 1 << 10,
            ..Default::default()
        });
        let large = PrefetcherKind::Markov(MarkovConfig {
            entries: 1 << 16,
            ..Default::default()
        });
        assert_ne!(small.label(), large.label());
        assert_eq!(small.label(), "markov(1024 entries, 2 succ)");
        let deeper = PrefetcherKind::Markov(MarkovConfig {
            successors: 4,
            ..Default::default()
        });
        assert!(deeper.label().contains("4 succ"));
    }

    #[test]
    fn baseline_run_produces_misses() {
        let cfg = quick();
        let trace = generate(&presets::web_apache().with_accesses(cfg.accesses));
        let res = run_trace(&cfg, &trace, &PrefetcherKind::Baseline);
        assert!(res.uncovered_misses > 100);
        assert_eq!(res.covered_full + res.covered_partial, 0);
        assert_eq!(res.workload, "Web Apache");
    }

    #[test]
    fn ideal_tms_covers_repeating_workload() {
        let cfg = ExperimentConfig::quick().with_accesses(40_000);
        // A small, highly-repetitive workload whose footprint still exceeds
        // the scaled L2, so that recurrences happen (and miss) even in a
        // short test trace; the calibrated presets need the full-length
        // traces of `ExperimentConfig::scaled()` to recur.
        let spec = WorkloadSpec {
            name: "repetitive-test".into(),
            max_pool_streams: 400,
            p_repeat: 0.85,
            p_noise: 0.02,
            hot_fraction: 0.1,
            hot_lines: 400,
            mean_gap: 8,
            ..presets::web_apache()
        };
        let trace = generate(&spec.with_accesses(cfg.accesses));
        let res = run_trace(&cfg, &trace, &PrefetcherKind::ideal());
        assert!(
            res.coverage() > 0.25,
            "idealized TMS should cover a repeating workload, got {}",
            res.coverage()
        );
    }

    #[test]
    fn run_matched_returns_one_result_per_kind() {
        let cfg = quick();
        let trace = generate(&presets::sci_ocean().with_accesses(cfg.accesses));
        let kinds = [PrefetcherKind::Baseline, PrefetcherKind::ideal()];
        let results: Vec<SimResult> = kinds.iter().map(|k| run_trace(&cfg, &trace, k)).collect();
        assert_eq!(results.len(), 2);
        assert!(results[1].coverage() >= results[0].coverage());
        // Matched runs replay the identical trace: the base miss opportunity
        // is (approximately) the same.
        let base = results[0].base_read_misses() as f64;
        let ideal = results[1].base_read_misses() as f64;
        assert!(
            (base - ideal).abs() / base < 0.2,
            "base {base} vs ideal {ideal}"
        );
    }

    #[test]
    fn run_suite_is_pooled_and_ordered() {
        let cfg = quick();
        let specs = vec![presets::web_apache(), presets::dss_qry17()];
        let results = crate::campaign::Campaign::with_threads(cfg.clone(), 2)
            .run_suite(&specs, &PrefetcherKind::Baseline)
            .expect("no panics");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].workload, "Web Apache");
        assert_eq!(results[1].workload, "DSS DB2");
        // The pooled replay is the same simulation as a direct one.
        let direct = generate(&specs[1].clone().with_accesses(cfg.accesses));
        assert_eq!(
            results[1],
            run_trace(&cfg, &direct, &PrefetcherKind::Baseline)
        );
    }

    #[test]
    fn miss_sequences_have_one_entry_per_core() {
        let cfg = quick();
        let seqs = crate::campaign::Campaign::with_threads(cfg.clone(), 1)
            .collect_miss_sequences(&presets::oltp_db2())
            .expect("no panics");
        assert_eq!(seqs.len(), cfg.system.cores);
        assert!(seqs.iter().any(|s| !s.is_empty()));
    }
}
