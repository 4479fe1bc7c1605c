//! Modelling your own application: would temporal streaming help it?
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```
//!
//! Builds two custom [`WorkloadSpec`]s from scratch — a pointer-chasing
//! key-value store with recurring request paths, and a streaming analytics
//! scan that never revisits data — and checks what STMS would do for each.
//! This is the workflow for answering "is my workload's miss stream temporal
//! enough for an address-correlating prefetcher?".

use stms::sim::{Campaign, ExperimentConfig, PrefetcherKind};
use stms::stats::{analyze_streams_multi, pct};
use stms::workloads::{LengthDist, WorkloadClass, WorkloadSpec};

fn kv_store() -> WorkloadSpec {
    WorkloadSpec {
        name: "custom: kv-store".into(),
        class: WorkloadClass::Oltp,
        cores: 4,
        accesses: 400_000,
        // Request handlers walk the same index paths over and over.
        p_repeat: 0.8,
        stream_len: LengthDist::pareto_with_median(12, 800, 1.1),
        max_pool_streams: 900,
        shared_pool: true,
        p_noise: 0.05,
        scan_run: 1,
        hot_fraction: 0.8,
        hot_lines: 1000,
        p_dependent: 0.7,
        mean_gap: 60,
        p_divergence: 0.01,
        p_write: 0.15,
        seed: 7,
    }
}

fn analytics_scan() -> WorkloadSpec {
    WorkloadSpec {
        name: "custom: analytics scan".into(),
        class: WorkloadClass::Dss,
        // Data is touched once: there is nothing temporal to learn.
        p_repeat: 0.05,
        p_noise: 0.6,
        scan_run: 128,
        seed: 8,
        ..kv_store()
    }
}

fn main() {
    let campaign = Campaign::new(ExperimentConfig::scaled());
    for spec in [kv_store(), analytics_scan()] {
        println!("== {} ==", spec.name);

        // First, an offline look at the miss stream itself: how much of it is
        // covered by recurring temporal streams, and how long are they?
        let misses = campaign
            .collect_miss_sequences(&spec)
            .expect("no simulation panics");
        let analysis = analyze_streams_multi(&misses);
        println!(
            "  temporal-stream analysis: {} off-chip read misses, {} in recurring streams ({}), median followed stream {} blocks",
            analysis.total_misses,
            analysis.streamed_blocks(),
            pct(analysis.max_coverage()),
            if analysis.run_lengths.is_empty() { 0 } else { analysis.blocks_by_length_cdf().percentile(0.5) },
        );

        // Then the actual prefetcher comparison.
        let results = campaign
            .run_matched(
                &spec,
                &[
                    PrefetcherKind::Baseline,
                    PrefetcherKind::ideal(),
                    PrefetcherKind::stms_with_sampling(0.125),
                ],
            )
            .expect("no simulation panics");
        let (base, ideal, stms) = (&results[0], &results[1], &results[2]);
        println!(
            "  ideal TMS: coverage {}, speedup {:+.1}%    STMS: coverage {}, speedup {:+.1}%, overhead {:.2} bytes/useful byte\n",
            pct(ideal.coverage()),
            ideal.speedup_over(base) * 100.0,
            pct(stms.coverage()),
            stms.speedup_over(base) * 100.0,
            stms.overhead_per_useful_byte(),
        );
    }
    println!(
        "Rule of thumb: if the offline analysis shows little recurring structure (like the scan),\n\
         an address-correlating prefetcher cannot help, no matter where its meta-data lives."
    );
}
