//! Prefetcher shoot-out on a web-serving workload.
//!
//! ```text
//! cargo run --release --example prefetcher_shootout
//! ```
//!
//! Compares every prefetcher family discussed by the paper on the same
//! generated trace: the stride-only baseline, the pair-wise Markov
//! prefetcher, a fixed-depth single-table correlation prefetcher (EBCP-like),
//! idealized temporal memory streaming and practical STMS. This is the
//! "which prefetcher should I build?" view a microarchitect would start from.

use stms::mem::SimResult;
use stms::prefetch::{FixedDepthConfig, MarkovConfig};
use stms::sim::{Campaign, ExperimentConfig, PrefetcherKind};
use stms::stats::TextTable;
use stms::workloads::presets;

fn main() {
    let cfg = ExperimentConfig::scaled();
    let spec = presets::web_apache();
    println!(
        "simulating {} with every prefetcher family (this takes a few seconds)...\n",
        spec.name
    );

    let kinds = vec![
        PrefetcherKind::Baseline,
        PrefetcherKind::Markov(MarkovConfig {
            cores: cfg.system.cores,
            ..Default::default()
        }),
        PrefetcherKind::FixedDepth(FixedDepthConfig::ebcp_like(cfg.system.cores)),
        PrefetcherKind::ideal(),
        PrefetcherKind::stms_with_sampling(0.125),
    ];
    let results = Campaign::new(cfg)
        .run_matched(&spec, &kinds)
        .expect("no simulation panics");
    let baseline: &SimResult = &results[0];

    let mut table = TextTable::new(vec![
        "prefetcher".into(),
        "coverage".into(),
        "accuracy".into(),
        "speedup".into(),
        "overhead bytes/useful".into(),
        "on-chip meta-data".into(),
    ])
    .with_title(format!("Prefetcher comparison on {}", spec.name));

    let on_chip = [
        "none",
        "512 KB table",
        "8 MB table",
        "impractical (>=64 MB)",
        "2 KB/core + 8 KB",
    ];
    for ((kind, result), chip) in kinds.iter().zip(&results).zip(on_chip) {
        table.add_row(vec![
            kind.label(),
            format!("{:.1}%", result.coverage() * 100.0),
            format!("{:.1}%", result.accuracy() * 100.0),
            format!("{:+.1}%", result.speedup_over(baseline) * 100.0),
            format!("{:.2}", result.overhead_per_useful_byte()),
            chip.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The split-table temporal streamers (ideal TMS, STMS) follow arbitrarily long streams,\n\
         which is why they beat the bounded-depth designs on coverage; STMS gets there while\n\
         keeping its correlation meta-data entirely in main memory."
    );
}
