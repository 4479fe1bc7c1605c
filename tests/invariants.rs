//! Property-based integration tests: the full pipeline (generator → engine →
//! prefetcher → metrics) must uphold its invariants for arbitrary workload
//! parameters, not just the calibrated presets.

use proptest::prelude::*;
use stms::core::{Stms, StmsConfig};
use stms::mem::{
    CmpSimulator, HierarchyLog, NullPrefetcher, Prefetcher, SimOptions, SimResult, SystemConfig,
};
use stms::prefetch::{IdealTms, IdealTmsConfig};
use stms::workloads::{generate, LengthDist, WorkloadClass, WorkloadSpec};

/// Builds an arbitrary (but small) workload specification.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        0.0f64..1.0,  // p_repeat
        0.0f64..0.6,  // p_noise
        0.0f64..0.9,  // hot_fraction
        0.0f64..1.0,  // p_dependent
        2u64..40,     // stream length median
        1u64..64,     // scan run
        any::<u64>(), // seed
    )
        .prop_map(
            |(p_repeat, p_noise, hot_fraction, p_dependent, median, scan_run, seed)| WorkloadSpec {
                name: "prop".into(),
                class: WorkloadClass::Web,
                cores: 2,
                accesses: 6_000,
                p_repeat,
                stream_len: LengthDist::pareto_with_median(median, median * 20, 1.2),
                max_pool_streams: 64,
                shared_pool: true,
                p_noise,
                scan_run,
                hot_fraction,
                hot_lines: 256,
                p_dependent,
                mean_gap: 6,
                p_divergence: 0.02,
                p_write: 0.1,
                seed,
            },
        )
}

fn system() -> SystemConfig {
    SystemConfig::tiny_for_tests()
}

fn options() -> SimOptions {
    SimOptions {
        warmup_fraction: 0.1,
        ..SimOptions::default()
    }
}

fn check_result_invariants(r: &SimResult) {
    let classified = r.l1_hits
        + r.l2_hits
        + r.covered_full
        + r.covered_partial
        + r.uncovered_misses
        + r.write_misses;
    assert_eq!(
        classified, r.accesses,
        "every access is classified exactly once"
    );
    assert!(r.coverage() >= 0.0 && r.coverage() <= 1.0);
    assert!(r.accuracy() >= 0.0 && r.accuracy() <= 1.0);
    assert!(r.mlp() >= 1.0);
    assert_eq!(r.prefetches_used, r.covered_full + r.covered_partial);
    assert!(r.prefetches_used <= r.prefetches_issued);
    assert!(r.instructions >= r.accesses);
    // Traffic sanity: every uncovered miss and every issued prefetch moved a
    // 64-byte line.
    assert!(r.traffic.demand_fill >= r.uncovered_misses * 64);
    assert!(r.traffic.prefetch_data >= r.prefetches_issued * 64);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The engine's accounting identities hold for arbitrary workloads under
    /// the baseline, the idealized prefetcher and STMS.
    #[test]
    fn pipeline_invariants_hold_for_arbitrary_workloads(spec in arb_spec()) {
        let trace = generate(&spec);
        let sys = system();

        let baseline = CmpSimulator::new(&sys, options()).run(&trace, &mut NullPrefetcher::new());
        check_result_invariants(&baseline);
        prop_assert_eq!(baseline.prefetches_issued, 0);
        prop_assert_eq!(baseline.traffic.meta_total(), 0);

        let mut ideal = IdealTms::new(IdealTmsConfig { cores: sys.cores, ..Default::default() });
        let ideal_res = CmpSimulator::new(&sys, options()).run(&trace, &mut ideal);
        check_result_invariants(&ideal_res);
        prop_assert_eq!(ideal_res.traffic.meta_total(), 0, "idealized meta-data is on chip");

        let mut stms = Stms::new(StmsConfig {
            cores: sys.cores,
            sampling_probability: 0.25,
            ..StmsConfig::scaled_default()
        });
        let stms_res = CmpSimulator::new(&sys, options()).run(&trace, &mut stms);
        check_result_invariants(&stms_res);
        // STMS that issued any prefetch must have paid meta-data lookups.
        if stms_res.prefetches_issued > 0 {
            prop_assert!(stms_res.traffic.meta_lookup > 0);
        }
        // Both runs replay the same trace, so the baseline miss opportunity
        // is identical up to cache-warming second-order effects.
        let base_opportunity = baseline.base_read_misses() as f64;
        let stms_opportunity = stms_res.base_read_misses() as f64;
        if base_opportunity > 500.0 {
            prop_assert!((base_opportunity - stms_opportunity).abs() / base_opportunity < 0.25);
        }
    }

    /// Trace generation and simulation are fully deterministic in the seed.
    #[test]
    fn generation_and_simulation_are_deterministic(spec in arb_spec()) {
        let a = generate(&spec);
        let b = generate(&spec);
        prop_assert_eq!(&a, &b);
        let sys = system();
        let ra = CmpSimulator::new(&sys, options()).run(&a, &mut NullPrefetcher::new());
        let rb = CmpSimulator::new(&sys, options()).run(&b, &mut NullPrefetcher::new());
        prop_assert_eq!(ra, rb);
    }

    /// Replaying a recorded hierarchy log is bit-identical to simulating
    /// the caches live, for arbitrary workloads and warm-up boundaries,
    /// under the baseline, the idealized prefetcher and STMS.
    #[test]
    fn logged_replay_matches_live_for_arbitrary_workloads(
        spec in arb_spec(),
        warmup_fraction in 0.0f64..0.5,
    ) {
        let trace = generate(&spec);
        let sys = system();
        let opts = SimOptions { warmup_fraction, ..SimOptions::default() };
        let log = HierarchyLog::record(&sys, &trace).expect("the geometry fits a log");
        let prefetchers = || -> [Box<dyn Prefetcher>; 3] {
            [
                Box::new(NullPrefetcher::new()),
                Box::new(IdealTms::new(IdealTmsConfig { cores: sys.cores, ..Default::default() })),
                Box::new(Stms::new(StmsConfig {
                    cores: sys.cores,
                    sampling_probability: 0.25,
                    ..StmsConfig::scaled_default()
                })),
            ]
        };
        for (mut live, mut logged) in prefetchers().into_iter().zip(prefetchers()) {
            let live = CmpSimulator::new(&sys, opts).run(&trace, live.as_mut());
            let logged = CmpSimulator::new(&sys, opts).run_logged(&trace, &log, logged.as_mut());
            prop_assert_eq!(logged.encode(), live.encode(), "{} diverged", live.prefetcher);
        }
    }
}
