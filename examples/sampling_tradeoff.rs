//! Probabilistic-update tuning: traffic vs coverage.
//!
//! ```text
//! cargo run --release --example sampling_tradeoff
//! ```
//!
//! Sweeps the index-update sampling probability of STMS on an OLTP workload
//! and prints the trade-off between meta-data traffic and prefetch coverage —
//! the experiment behind Figure 8 of the paper and the knob a system designer
//! would tune for their own memory-bandwidth budget.

use stms::sim::{Campaign, ExperimentConfig, PrefetcherKind};
use stms::stats::TextTable;
use stms::workloads::presets;

fn main() {
    let cfg = ExperimentConfig::scaled();
    let spec = presets::oltp_db2();
    let probabilities = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125];
    println!(
        "sweeping STMS update-sampling probability on {} ({} points)...\n",
        spec.name,
        probabilities.len()
    );

    let kinds: Vec<PrefetcherKind> = probabilities
        .iter()
        .map(|&p| PrefetcherKind::stms_with_sampling(p))
        .collect();
    let results = Campaign::new(cfg)
        .run_matched(&spec, &kinds)
        .expect("no simulation panics");

    let mut table = TextTable::new(vec![
        "sampling".into(),
        "index-update bytes".into(),
        "total overhead/useful byte".into(),
        "coverage".into(),
    ])
    .with_title(format!("Probabilistic update sensitivity on {}", spec.name));
    let full_update_bytes = results[0].traffic.meta_update.max(1);
    for (p, r) in probabilities.iter().zip(&results) {
        table.add_row(vec![
            format!("{:.1}%", p * 100.0),
            format!(
                "{} ({}x less)",
                r.traffic.meta_update,
                full_update_bytes / r.traffic.meta_update.max(1)
            ),
            format!("{:.2}", r.overhead_per_useful_byte()),
            format!("{:.1}%", r.coverage() * 100.0),
        ]);
    }
    println!("{}", table.render());

    let full = &results[0];
    let sampled = &results[3];
    println!(
        "At the paper's 12.5% design point, index-update traffic drops {:.1}x while coverage \
         moves from {:.1}% to {:.1}%.",
        full.traffic.meta_update as f64 / sampled.traffic.meta_update.max(1) as f64,
        full.coverage() * 100.0,
        sampled.coverage() * 100.0,
    );
}
