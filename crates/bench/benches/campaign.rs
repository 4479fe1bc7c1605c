//! Benchmarks of the campaign orchestration layer: trace-store hit path vs
//! regeneration, the result cache cold vs warm, and job-pool scheduling
//! overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use stms_bench::bench_workload;
use stms_sim::campaign::{Campaign, CampaignCaches, JobPool, TraceStore};
use stms_sim::ExperimentConfig;
use stms_workloads::generate;

const ACCESSES: usize = 30_000;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stms-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_trace_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_store");
    group.sample_size(10);

    // The cost the store removes: regenerating the trace for every figure
    // cell that wants it.
    group.bench_function("cold_generate", |b| {
        b.iter(|| black_box(generate(&bench_workload().with_accesses(ACCESSES)).len()))
    });

    // The cost the store adds: one map lookup and an Arc clone.
    let store = TraceStore::new();
    store.get_or_generate(&bench_workload(), ACCESSES);
    group.bench_function("warm_fetch", |b| {
        b.iter(|| black_box(store.get_or_generate(&bench_workload(), ACCESSES).len()))
    });
    group.finish();
}

fn bench_campaign_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_caches");
    group.sample_size(10);
    let cfg = ExperimentConfig::quick().with_accesses(10_000);
    let kinds = [
        stms_sim::PrefetcherKind::Baseline,
        stms_sim::PrefetcherKind::ideal(),
    ];

    // Cold: every iteration replays both configurations from scratch.
    group.bench_function("cold_run_matched", |b| {
        b.iter(|| {
            let campaign = Campaign::with_threads(cfg.clone(), 1);
            let results = campaign.run_matched(&bench_workload(), &kinds).unwrap();
            black_box(results.len())
        })
    });

    // Warm: a fresh campaign (simulating a new process) on a populated
    // cache directory serves both jobs from the result memo without
    // generating a trace or running the engine.
    let dir = bench_dir("campaign-warm");
    Campaign::with_caches(cfg.clone(), 1, CampaignCaches::in_dir(&dir))
        .unwrap()
        .run_matched(&bench_workload(), &kinds)
        .unwrap();
    group.bench_function("warm_run_matched", |b| {
        b.iter(|| {
            let campaign =
                Campaign::with_caches(cfg.clone(), 1, CampaignCaches::in_dir(&dir)).unwrap();
            let results = campaign.run_matched(&bench_workload(), &kinds).unwrap();
            black_box(results.len())
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharding");
    group.sample_size(10);
    let cfg = ExperimentConfig::quick();

    // Partitioning the full `--figures all` grid is pure fingerprint
    // arithmetic; it must stay negligible next to a single replay.
    group.bench_function("partition_full_grid_2_way", |b| {
        b.iter(|| {
            let jobs: Vec<_> = stms_sim::experiments::all_plans(&cfg)
                .iter()
                .flat_map(|plan| plan.jobs().to_vec())
                .collect();
            let distinct = stms_sim::campaign::shard::distinct_jobs(&cfg, &jobs);
            let shard = stms_sim::ShardSpec::new(1, 2).unwrap();
            black_box(distinct.iter().filter(|(fp, _)| shard.owns(*fp)).count())
        })
    });

    // The cost-balanced variant adds a sort and a greedy min-scan on top
    // of the cost predictions; still pure arithmetic, still negligible.
    group.bench_function("cost_partition_full_grid_2_way", |b| {
        b.iter(|| {
            let jobs: Vec<_> = stms_sim::experiments::all_plans(&cfg)
                .iter()
                .flat_map(|plan| plan.jobs().to_vec())
                .collect();
            let distinct = stms_sim::campaign::shard::distinct_jobs(&cfg, &jobs);
            let model = stms_sim::campaign::JobCostModel::analytic();
            let partition = stms_sim::campaign::cost::partition(
                &model,
                &cfg,
                &distinct,
                2,
                stms_types::ShardBalance::Cost,
            );
            black_box(partition.shard_cost_ns.iter().max().copied())
        })
    });

    // Seal + open of a realistic manifest (the merge stage's I/O unit),
    // including the per-job phase-timing section every executed job adds.
    let entries: Vec<_> = (0..128u128)
        .map(|i| (stms_types::Fingerprint::from_raw(i), vec![0u8; 256]))
        .collect();
    let timings: Vec<_> = (0..128u128)
        .map(|i| stms_types::ShardJobTiming {
            fingerprint: stms_types::Fingerprint::from_raw(i),
            queue_ns: 1_000,
            run_ns: 2_000,
        })
        .collect();
    let manifest = stms_types::ShardManifest {
        config: stms_types::Fingerprint::from_raw(7),
        index: 1,
        count: 2,
        balance: stms_types::ShardBalance::Count,
        entries,
        timings,
    };
    group.bench_function("manifest_seal_and_open_128_entries", |b| {
        b.iter(|| {
            let sealed = manifest.seal();
            black_box(
                stms_types::ShardManifest::open(&sealed)
                    .unwrap()
                    .entries
                    .len(),
            )
        })
    });
    group.finish();
}

fn bench_job_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("job_pool");
    group.sample_size(10);

    // Pure scheduling overhead: a batch of trivial jobs per iteration.
    let pool = JobPool::new(2);
    group.bench_function("batch_of_64_trivial_jobs", |b| {
        b.iter(|| {
            let tasks: Vec<_> = (0..64).map(|i| move || i * 2).collect();
            let sum: i64 = pool
                .run_batch(tasks)
                .into_iter()
                .map(|r| r.expect("trivial job"))
                .sum();
            black_box(sum)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_store,
    bench_campaign_cold_vs_warm,
    bench_sharding,
    bench_job_pool
);
criterion_main!(benches);
