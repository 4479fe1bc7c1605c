//! The logged lane against the live engine on generated workload traces:
//! every prefetcher family, and the miss collector, must produce
//! bit-identical results whether the L1/L2/stride hierarchy is simulated
//! live or replayed from a recorded `HierarchyLog`. A campaign runs its
//! jobs on the logged lane and single replays run the live caches, so
//! this is what keeps the two backends of the figure grid in step.

use std::collections::HashSet;
use stms_mem::{CmpSimulator, HierarchyLog, SimOptions, SystemConfig};
use stms_prefetch::{FixedDepthConfig, MarkovConfig, MissTraceCollector};
use stms_sim::{
    experiments, job_fingerprint, ExperimentConfig, JobTask, PrefetcherKind, TraceStore,
};
use stms_workloads::{generate, presets};

const ACCESSES: usize = 4_000;

/// Trace length of the figure-grid check. At 4,000 accesses the grid's
/// prefetchers barely stream, and a logged backend whose on-chip probe
/// always answered "no" still matched the live one; at 10,000 it does not.
const GRID_ACCESSES: usize = 10_000;

/// The experiments' system, and one whose caches are small enough that
/// most fills evict and dirty lines get written back.
fn systems() -> [SystemConfig; 2] {
    let mut tiny = ExperimentConfig::scaled_system();
    tiny.l1.capacity_bytes = 1024;
    tiny.l2.capacity_bytes = 8 * 1024;
    [ExperimentConfig::scaled_system(), tiny]
}

fn kinds() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::Baseline,
        PrefetcherKind::ideal(),
        PrefetcherKind::stms_with_sampling(0.5),
        PrefetcherKind::FixedDepth(FixedDepthConfig::default()),
        PrefetcherKind::Markov(MarkovConfig::default()),
    ]
}

#[test]
fn logged_lane_matches_the_live_engine_for_every_family() {
    for spec in presets::all_presets() {
        let trace = generate(&spec.with_accesses(ACCESSES));
        for system in systems() {
            let log = HierarchyLog::record(&system, &trace).expect("the geometry fits a log");
            assert_eq!(log.accesses(), trace.len());
            assert!(
                log.size_bytes() <= 5 * trace.len(),
                "{} bytes",
                log.size_bytes()
            );
            for warmup_fraction in [0.0, 0.3] {
                let opts = SimOptions {
                    warmup_fraction,
                    ..SimOptions::default()
                };
                for kind in kinds() {
                    let live = CmpSimulator::new(&system, opts)
                        .run(&trace, kind.build(system.cores).as_mut());
                    let logged = CmpSimulator::new(&system, opts).run_logged(
                        &trace,
                        &log,
                        kind.build(system.cores).as_mut(),
                    );
                    assert_eq!(
                        logged.encode(),
                        live.encode(),
                        "{} under {}, warm-up {warmup_fraction}",
                        trace.meta().workload,
                        kind.label()
                    );
                }
                let mut live = MissTraceCollector::new(system.cores);
                CmpSimulator::new(&system, opts).run(&trace, &mut live);
                let mut logged = MissTraceCollector::new(system.cores);
                CmpSimulator::new(&system, opts).run_logged(&trace, &log, &mut logged);
                assert_eq!(logged.all_cores(), live.all_cores());
            }
        }
    }
}

#[test]
fn every_distinct_job_of_the_quick_grid_replays_identically_from_its_log() {
    let cfg = ExperimentConfig::quick().with_accesses(GRID_ACCESSES);
    let mut seen = HashSet::new();
    let store = TraceStore::new();
    let (mut replays, mut collections) = (0, 0);
    for plan in experiments::all_plans(&cfg) {
        for job in plan.jobs() {
            if !seen.insert(job_fingerprint(&cfg, job)) {
                continue;
            }
            let (trace, log) =
                store.get_or_generate_logged(&job.workload, cfg.accesses, &cfg.system);
            let log = log.expect("the geometry fits a log");
            let engine = || CmpSimulator::new(&cfg.system, cfg.sim);
            match &job.task {
                JobTask::Replay(kind) => {
                    let live = engine().run(&trace, kind.build(cfg.system.cores).as_mut());
                    let logged =
                        engine().run_logged(&trace, &log, kind.build(cfg.system.cores).as_mut());
                    assert_eq!(
                        logged.encode(),
                        live.encode(),
                        "{}: {} under {}",
                        plan.id(),
                        job.workload.name,
                        kind.label()
                    );
                    replays += 1;
                }
                JobTask::CollectMisses => {
                    let mut live = MissTraceCollector::new(cfg.system.cores);
                    engine().run(&trace, &mut live);
                    let mut logged = MissTraceCollector::new(cfg.system.cores);
                    engine().run_logged(&trace, &log, &mut logged);
                    assert_eq!(
                        logged.all_cores(),
                        live.all_cores(),
                        "{}: {}",
                        plan.id(),
                        job.workload.name
                    );
                    collections += 1;
                }
            }
        }
    }
    // The grid's shape: all eight traces and both kinds of job were covered.
    assert_eq!(store.stats().generated, 8);
    assert!(
        replays > 200 && collections > 0,
        "{replays} replays, {collections} collections"
    );
}

#[test]
#[should_panic(expected = "another system or trace")]
fn a_log_of_another_system_is_refused() {
    let trace = generate(&presets::web_apache().with_accesses(ACCESSES));
    let [scaled, tiny] = systems();
    let log = HierarchyLog::record(&tiny, &trace).expect("the geometry fits a log");
    let mut collector = MissTraceCollector::new(scaled.cores);
    CmpSimulator::new(&scaled, SimOptions::default()).run_logged(&trace, &log, &mut collector);
}
