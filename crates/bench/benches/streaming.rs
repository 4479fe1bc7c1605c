//! Benchmarks of streamed trace replay: streamed vs materialized replay,
//! cold (generator-fused) and warm (chunk-framed disk tier), the trace
//! codec axis, and the cost of telemetry on a warm streamed replay, so the
//! chunking overhead on the per-access hot path is tracked release over
//! release alongside the other BENCH results. Run with
//! `STMS_BENCH_JSON=BENCH_streaming.json` to emit the committed perf
//! artifact.

use criterion::{black_box, criterion_group, criterion_main, report_value, Criterion};
use std::path::{Path, PathBuf};
use stms_bench::bench_workload;
use stms_sim::campaign::{DiskTierConfig, TraceStore};
use stms_sim::{run_source, run_trace, ExperimentConfig, PrefetcherKind};
use stms_types::{TraceCodec, DEFAULT_CHUNK_LEN};
use stms_workloads::{generate, TraceGenerator};

const ACCESSES: usize = 30_000;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stms-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_streamed_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("streamed_replay");
    group.sample_size(10);
    let cfg = ExperimentConfig::quick().with_accesses(ACCESSES);
    let kind = PrefetcherKind::Baseline;
    let spec = bench_workload().with_accesses(ACCESSES);
    let trace = generate(&spec);

    // The baseline the streaming path must not regress: a fully
    // materialized replay.
    group.bench_function("materialized", |b| {
        b.iter(|| black_box(run_trace(&cfg, &trace, &kind).cycles))
    });

    // The pure chunk-dispatch overhead: the same in-memory trace, replayed
    // through the chunked TraceSource path.
    group.bench_function("chunked_in_memory", |b| {
        b.iter(|| {
            let mut source = trace.chunks(DEFAULT_CHUNK_LEN);
            black_box(
                run_source(&cfg, &mut source, &kind)
                    .expect("in-memory")
                    .cycles,
            )
        })
    });

    // Cold out-of-core: generation fused with simulation in one streamed
    // pass — what a cache-less `--stream-traces` job pays.
    group.bench_function("streamed_cold_generator", |b| {
        b.iter(|| {
            let mut generator = TraceGenerator::new(&spec);
            black_box(
                run_source(&cfg, &mut generator, &kind)
                    .expect("generator")
                    .cycles,
            )
        })
    });

    // Warm disk tier: replay a sealed chunk-framed file the job never
    // fully decodes — what every warm `--stream-traces --trace-cache` job
    // pays.
    let dir = bench_dir("stream-warm");
    let store = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
        .expect("create bench cache dir")
        .with_streaming(true);
    let replay = |store: &TraceStore| {
        store.replay_streaming(&spec, ACCESSES, |source| {
            run_source(&cfg, source, &kind).map(|result| result.cycles)
        })
    };
    replay(&store); // populate the disk tier
    group.bench_function("streamed_warm_disk", |b| {
        b.iter(|| black_box(replay(&store)))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Total bytes of the files in `dir` (the trace tier holds exactly the
/// sealed trace files during these benches).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Empties the trace tier so the next replay is cold again.
fn remove_trace_files(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn bench_codec_axis(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_codec");
    group.sample_size(10);
    let cfg = ExperimentConfig::quick().with_accesses(ACCESSES);
    let kind = PrefetcherKind::Baseline;
    let spec = bench_workload().with_accesses(ACCESSES);
    let replay = |store: &TraceStore| {
        store.replay_streaming(&spec, ACCESSES, |source| {
            run_source(&cfg, source, &kind).map(|result| result.cycles)
        })
    };

    for (name, codec) in [("v2", TraceCodec::V2), ("v3", TraceCodec::V3)] {
        let dir = bench_dir(&format!("codec-{name}"));
        let store = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
            .expect("create bench cache dir")
            .with_streaming(true)
            .with_codec(codec);

        // Cold: every iteration generates, encodes to disk and streams the
        // fresh file straight back — the full write+read cost of the codec.
        group.bench_function(format!("cold_generator/{name}"), |b| {
            b.iter(|| {
                remove_trace_files(&dir);
                black_box(replay(&store))
            })
        });

        // Warm: the sealed file persists; every iteration pays only the
        // read+decode side.
        replay(&store); // repopulate after the cold sweep's final removal
        group.bench_function(format!("warm_disk/{name}"), |b| {
            b.iter(|| black_box(replay(&store)))
        });

        // The size artifact the timing rows trade against: v3's decode cost
        // buys this many fewer bytes read per replay.
        report_value(
            &format!("trace_codec/bytes_on_disk/{name}"),
            dir_bytes(&dir),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let cfg = ExperimentConfig::quick().with_accesses(ACCESSES);
    let kind = PrefetcherKind::Baseline;
    let spec = bench_workload().with_accesses(ACCESSES);
    let replay = |store: &TraceStore| {
        store.replay_streaming(&spec, ACCESSES, |source| {
            run_source(&cfg, source, &kind).map(|result| result.cycles)
        })
    };

    // Serial streaming from a warm disk tier: every iteration crosses the
    // per-chunk simulate histogram (`stream.simulate_ns`). The
    // registry-disabled row is the same replay with every record call
    // reduced to one relaxed atomic load.
    let dir = bench_dir("telemetry");
    let store = TraceStore::with_disk_tier(DiskTierConfig::new(&dir))
        .expect("create bench cache dir")
        .with_streaming(true);
    replay(&store); // populate the disk tier

    stms_obs::set_enabled(false);
    group.bench_function("warm_disk/disabled", |b| {
        b.iter(|| black_box(replay(&store)))
    });
    stms_obs::set_enabled(true);
    group.bench_function("warm_disk/instrumented", |b| {
        b.iter(|| black_box(replay(&store)))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_streamed_replay,
    bench_codec_axis,
    bench_telemetry_overhead
);
criterion_main!(benches);
