//! The persistent result cache across campaign "processes": a warm
//! campaign renders byte-identical figures while skipping all trace
//! generation and replay, survives corrupt cache files, and shares one
//! directory between concurrent pool workers.

use std::fs;
use std::path::PathBuf;
use stms_sim::campaign::{Campaign, CampaignCaches};
use stms_sim::{experiments, ExperimentConfig};
use stms_workloads::presets;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stms-cache-persistence-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn quick() -> ExperimentConfig {
    ExperimentConfig::quick().with_accesses(6_000)
}

/// Renders a figure selection through a fresh campaign on `dir`, returning
/// the rendered text and the campaign for stats inspection.
fn run(dir: &PathBuf, ids: &[&str]) -> (Vec<String>, Campaign, usize) {
    let cfg = quick();
    let campaign =
        Campaign::with_caches(cfg.clone(), 2, CampaignCaches::in_dir(dir)).expect("open caches");
    let plans: Vec<_> = ids
        .iter()
        .map(|id| experiments::plan_for_id(id, campaign.cfg()).expect("known id"))
        .collect();
    let jobs: usize = plans.iter().map(|p| p.job_count()).sum();
    let rendered: Vec<String> = campaign
        .run_figures(plans)
        .into_iter()
        .map(|figure| figure.expect("no job fails").render())
        .collect();
    (rendered, campaign, jobs)
}

#[test]
fn warm_campaign_is_byte_identical_and_replays_nothing() {
    let dir = temp_dir("warm");
    // fig6-left exercises the CollectMisses job family; table2 and fig4 are
    // replay grids over all eight workloads.
    let ids = ["table2", "fig4", "fig6-left"];

    let (cold_tables, cold, jobs) = run(&dir, &ids);
    let cold_stats = cold.cache_stats();
    assert!(cold_stats.trace.generated > 0, "cold run must generate");
    let cold_results = cold_stats.result.expect("result cache configured");
    // table2's baseline cells recur inside fig4, so some jobs are served
    // without executing: batch dedup hands a recurring cell its first
    // occurrence's output. Every *distinct* cell executes exactly once, and
    // each execution is memoized exactly once.
    assert!(cold_results.misses > 0, "cold run must simulate");
    let cold_flights = cold.flight_stats();
    assert!(cold_flights.executed > 0, "cold run executes jobs");
    assert_eq!(
        cold_results.stores, cold_flights.executed,
        "each executed job is persisted exactly once"
    );
    assert_eq!(
        cold_results.total_hits() + cold_flights.shared + cold_flights.executed,
        jobs as u64,
        "every job is a memo hit, a shared duplicate, or an execution"
    );

    // A fresh campaign on the same directory models the next process.
    let (warm_tables, warm, _) = run(&dir, &ids);
    assert_eq!(
        warm_tables, cold_tables,
        "warm rendering must be byte-identical to cold"
    );
    let warm_stats = warm.cache_stats();
    assert_eq!(
        warm_stats.trace.generated, 0,
        "warm run must skip all trace generation"
    );
    assert_eq!(
        warm_stats.trace.hits + warm_stats.trace.misses,
        0,
        "memoized outputs never even consult the trace store"
    );
    let warm_results = warm_stats.result.expect("result cache configured");
    assert_eq!(warm_results.misses, 0, "warm run must skip all replay");
    // A job that recurs in the batch takes its first occurrence's output.
    let warm_flights = warm.flight_stats();
    assert_eq!(warm_flights.executed, 0, "warm run executes nothing");
    assert_eq!(warm_results.total_hits() + warm_flights.shared, jobs as u64);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupting_every_cache_file_falls_back_to_regeneration() {
    let dir = temp_dir("corrupt");
    let ids = ["fig4"];
    let (cold_tables, _, jobs) = run(&dir, &ids);

    // Vandalize the whole directory: truncate every result file.
    let mut mutated = 0;
    for entry in fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.expect("entry").path();
        let bytes = fs::read(&path).expect("cache file");
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        mutated += 1;
    }
    assert!(mutated > 0, "the cold run must have persisted something");

    let (recovered_tables, campaign, _) = run(&dir, &ids);
    assert_eq!(
        recovered_tables, cold_tables,
        "regenerated output must match the original"
    );
    let stats = campaign.cache_stats();
    let results = stats.result.expect("result cache configured");
    assert_eq!(results.corrupt, jobs as u64, "every result file was bad");
    assert_eq!(results.stores, jobs as u64, "…and was re-persisted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_workers_and_stores_share_one_cache_dir() {
    let dir = temp_dir("concurrent");

    // Many pool workers racing on the same cold keys: each trace must be
    // generated exactly once.
    let campaign = Campaign::with_caches(quick(), 4, CampaignCaches::in_dir(&dir)).unwrap();
    let plans = vec![
        experiments::plan_table2(campaign.cfg()),
        experiments::plan_fig4(campaign.cfg()),
    ];
    for figure in campaign.run_figures(plans) {
        figure.expect("no job fails under concurrency");
    }
    let stats = campaign.store().stats();
    assert_eq!(
        stats.generated, stats.misses,
        "each distinct key generated exactly once"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn memory_only_campaigns_are_unchanged() {
    // No cache directories: behavior (and stats shape) matches the old
    // purely in-memory campaign.
    let campaign = Campaign::with_threads(quick(), 2);
    assert!(campaign.result_store().is_none());
    let results = campaign
        .run_matched(
            &presets::web_apache(),
            &[stms_sim::PrefetcherKind::Baseline],
        )
        .expect("no job fails");
    assert_eq!(results.len(), 1);
    let stats = campaign.cache_stats();
    assert_eq!(stats.trace.generated, 1);
    assert_eq!(stats.result, None);
}
