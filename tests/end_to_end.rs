//! End-to-end integration tests spanning every crate in the workspace:
//! workload generation -> CMP simulation -> prefetchers -> metrics.

use stms::core::{Stms, StmsConfig};
use stms::mem::{CmpSimulator, NullPrefetcher, SimResult};
use stms::prefetch::{IdealTms, IdealTmsConfig, MissTraceCollector};
use stms::sim::{Campaign, ExperimentConfig, PrefetcherKind};
use stms::stats::analyze_streams_multi;
use stms::workloads::{generate, LengthDist, WorkloadClass, WorkloadSpec};

/// A compact but highly-repetitive workload so that integration tests finish
/// quickly while still exercising stream recurrence through the whole stack.
fn test_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "integration".into(),
        class: WorkloadClass::Web,
        cores: 4,
        accesses: 60_000,
        p_repeat: 0.85,
        stream_len: LengthDist::pareto_with_median(12, 400, 1.1),
        max_pool_streams: 400,
        shared_pool: true,
        p_noise: 0.05,
        scan_run: 1,
        hot_fraction: 0.2,
        hot_lines: 500,
        p_dependent: 0.6,
        mean_gap: 10,
        p_divergence: 0.01,
        p_write: 0.08,
        seed: 20_260_616,
    }
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig::quick().with_accesses(60_000)
}

/// Replays the test workload under each of `kinds`, on one shared trace.
fn run_matched(kinds: &[PrefetcherKind]) -> Vec<SimResult> {
    Campaign::with_threads(cfg(), 2)
        .run_matched(&test_spec(), kinds)
        .expect("no simulation panics")
}

#[test]
fn accounting_identities_hold_for_every_prefetcher() {
    let kinds = [
        PrefetcherKind::Baseline,
        PrefetcherKind::ideal(),
        PrefetcherKind::stms_with_sampling(0.125),
        PrefetcherKind::stms_with_sampling(1.0),
    ];
    for (kind, r) in kinds.iter().zip(run_matched(&kinds)) {
        // Every replayed access is classified exactly once.
        let classified = r.l1_hits
            + r.l2_hits
            + r.covered_full
            + r.covered_partial
            + r.uncovered_misses
            + r.write_misses;
        assert_eq!(
            classified,
            r.accesses,
            "classification mismatch for {}",
            kind.label()
        );
        // Coverage and accuracy are proper fractions.
        assert!((0.0..=1.0).contains(&r.coverage()), "{}", kind.label());
        assert!((0.0..=1.0).contains(&r.accuracy()), "{}", kind.label());
        // Used + unused prefetches never exceed issued prefetches (unused may
        // also include blocks dropped at end of simulation).
        assert!(r.prefetches_used <= r.prefetches_issued);
        assert_eq!(
            r.prefetches_used,
            r.covered_full + r.covered_partial,
            "every used prefetch corresponds to one covered miss ({})",
            kind.label()
        );
        // Cycles and instructions are non-degenerate.
        assert!(r.cycles > 0 && r.instructions > 0);
        assert!(r.mlp() >= 1.0);
    }
}

#[test]
fn baseline_never_prefetches_and_stride_only_traffic() {
    let r = &run_matched(&[PrefetcherKind::Baseline])[0];
    assert_eq!(r.prefetches_issued, 0);
    assert_eq!(r.coverage(), 0.0);
    assert_eq!(
        r.traffic.meta_total(),
        0,
        "no temporal meta-data traffic in the baseline"
    );
    assert_eq!(r.traffic.prefetch_data, 0);
    assert!(r.traffic.demand_fill > 0);
}

#[test]
fn temporal_prefetchers_cover_the_repetitive_workload() {
    let results = run_matched(&[
        PrefetcherKind::Baseline,
        PrefetcherKind::ideal(),
        PrefetcherKind::stms_with_sampling(1.0),
    ]);
    let (base, ideal, stms_full) = (&results[0], &results[1], &results[2]);
    assert!(
        ideal.coverage() > 0.3,
        "ideal coverage {}",
        ideal.coverage()
    );
    assert!(ideal.speedup_over(base) > 0.0);
    // With 100% sampling STMS should reach most of the idealized coverage.
    assert!(
        stms_full.coverage() > 0.6 * ideal.coverage(),
        "STMS@100% coverage {} vs ideal {}",
        stms_full.coverage(),
        ideal.coverage()
    );
    // But it pays for it with meta-data traffic, which the ideal design does
    // not have.
    assert!(stms_full.traffic.meta_total() > 0);
    assert_eq!(ideal.traffic.meta_total(), 0);
}

#[test]
fn probabilistic_update_trades_little_coverage_for_much_less_traffic() {
    let results = run_matched(&[
        PrefetcherKind::stms_with_sampling(1.0),
        PrefetcherKind::stms_with_sampling(0.125),
    ]);
    let (full, sampled) = (&results[0], &results[1]);
    let update_reduction =
        full.traffic.meta_update as f64 / sampled.traffic.meta_update.max(1) as f64;
    assert!(
        update_reduction > 4.0,
        "12.5% sampling should cut index-update traffic by well over 4x, got {update_reduction:.1}x"
    );
    assert!(
        sampled.coverage() > 0.4 * full.coverage(),
        "sampling should retain a large share of coverage: {} vs {}",
        sampled.coverage(),
        full.coverage()
    );
    assert!(sampled.overhead_per_useful_byte() < full.overhead_per_useful_byte());
}

#[test]
fn offline_stream_analysis_bounds_are_consistent() {
    let trace = generate(&test_spec());
    let system = cfg();
    let mut collector = MissTraceCollector::new(system.system.cores);
    let _ = CmpSimulator::new(&system.system, system.sim).run(&trace, &mut collector);
    let analysis = analyze_streams_multi(&collector.all_cores());
    assert!(analysis.total_misses > 1_000);
    assert!(analysis.streamed_blocks() <= analysis.total_misses);
    assert!(
        analysis.max_coverage() > 0.0,
        "the repetitive workload must show temporal streams"
    );
    let cdf = analysis.blocks_by_length_cdf();
    assert!(cdf.fraction_at_or_below(u64::MAX >> 1) >= 0.999);
}

#[test]
fn deterministic_results_for_identical_seeds() {
    let kind = [PrefetcherKind::stms_with_sampling(0.125)];
    let (a, b) = (&run_matched(&kind)[0], &run_matched(&kind)[0]);
    assert_eq!(a, b, "the whole pipeline must be deterministic");
}

#[test]
fn direct_library_use_without_the_driver() {
    // The same flow as examples/quickstart.rs, exercising the public API of
    // the individual crates without going through stms-sim.
    let trace = generate(&test_spec());
    let system = stms::mem::SystemConfig::tiny_for_tests();
    let baseline =
        CmpSimulator::new(&system, Default::default()).run(&trace, &mut NullPrefetcher::new());
    let mut ideal = IdealTms::new(IdealTmsConfig {
        cores: system.cores,
        ..Default::default()
    });
    let ideal_res = CmpSimulator::new(&system, Default::default()).run(&trace, &mut ideal);
    let mut stms = Stms::new(StmsConfig {
        cores: system.cores,
        ..StmsConfig::scaled_default()
    });
    let stms_res = CmpSimulator::new(&system, Default::default()).run(&trace, &mut stms);

    assert!(ideal_res.coverage() > 0.0);
    assert!(stms_res.coverage() > 0.0);
    assert!(baseline.ipc() > 0.0);
    assert!(stms.stats().recorded > 0);
    assert!(stms.index_stats().lookups > 0);
}
