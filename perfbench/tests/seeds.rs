//! Seed handling and the declared metric set.

use std::sync::{Mutex, PoisonError};
use stms_perfbench::inputs::{grid_jobs, replay_specs, Scale};
use stms_perfbench::report::{end_to_end_names, per_layer_names, Report};
use stms_perfbench::{run, threads, Settings, Workload};
use stms_sim::{experiments, job_fingerprint, ExperimentConfig};
use stms_workloads::presets;

/// Traces short enough for a debug-build test.
const TINY: Scale = Scale {
    grid_accesses: 3_000,
    replay_accesses: 20_000,
};

/// Runs one at a time: the traced run's accounting compares timings, which
/// other tests running on the same cores would disturb.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_at(
    scale: Scale,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> (Report, stms_perfbench::gate::Gate) {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let settings = Settings {
        scale,
        seed,
        seconds: 0.001,
        threads: threads(),
        exe: env!("CARGO_BIN_EXE_stms-perfbench").into(),
    };
    run(&settings, workload, trace).expect("run completes")
}

fn digest(report: &Report) -> String {
    report
        .notes
        .iter()
        .find_map(|note| note.strip_prefix("digest: "))
        .expect("every untraced run reports its digest")
        .to_string()
}

#[test]
fn seed_zero_reproduces_the_committed_grid_and_presets() {
    let cfg = ExperimentConfig::quick();
    let committed: Vec<_> = experiments::all_plans(&cfg)
        .iter()
        .flat_map(|plan| plan.jobs().to_vec())
        .map(|job| job_fingerprint(&cfg, &job))
        .collect();
    let seeded: Vec<_> = grid_jobs(&cfg, 0)
        .iter()
        .map(|job| job_fingerprint(&cfg, job))
        .collect();
    assert_eq!(seeded, committed);
    assert_eq!(seeded.len(), 350, "the full grid, duplicates kept");
    assert_eq!(
        replay_specs(0),
        vec![
            presets::web_apache(),
            presets::oltp_db2(),
            presets::dss_qry17(),
            presets::sci_em3d()
        ]
    );
    // Any other seed changes every workload's trace.
    let other: Vec<_> = grid_jobs(&cfg, 1)
        .iter()
        .map(|job| job_fingerprint(&cfg, job))
        .collect();
    assert!(other.iter().zip(&committed).all(|(a, b)| a != b));
}

#[test]
fn different_seeds_give_different_digests_with_the_same_metrics() {
    for workload in [Workload::ReplayLong, Workload::GridCold] {
        let runs: Vec<Report> = [0, 1]
            .into_iter()
            .map(|seed| {
                let (report, gate) = run_at(TINY, workload, seed, false);
                assert!(gate.correct(), "{workload:?} seed {seed}: {gate:?}");
                report
            })
            .collect();
        assert_eq!(runs[0].names(), end_to_end_names());
        assert_eq!(runs[1].names(), end_to_end_names());
        assert_ne!(digest(&runs[0]), digest(&runs[1]), "{workload:?}");
    }
}

#[test]
fn warm_grid_reproduces_the_cold_grid_digest() {
    let (cold, cold_gate) = run_at(TINY, Workload::GridCold, 3, false);
    let (warm, warm_gate) = run_at(TINY, Workload::GridWarm, 3, false);
    assert!(cold_gate.correct() && warm_gate.correct());
    assert_eq!(digest(&cold), digest(&warm));
}

#[test]
fn traced_run_emits_every_layer_metric() {
    let (report, gate) = run_at(TINY, Workload::ReplayLong, 5, true);
    assert!(gate.correct(), "{gate:?}");
    assert_eq!(report.names(), per_layer_names());
    let busy = report.value("sim.campaign.busy_frac").expect("declared");
    assert!(busy > 0.0 && busy <= 1.0, "{busy}");
}

/// The names the code emits are exactly the ones `BENCHMARK.json` declares.
#[test]
fn metric_names_match_the_benchmark_declaration() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("declared list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("named")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), end_to_end_names());
    assert_eq!(names("per_layer"), per_layer_names());
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names("workloads"), workloads);
}
