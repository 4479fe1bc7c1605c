//! Ablation study of the index-table organization (§4.3 / §5.4).
//!
//! The paper states that alternative index organizations (open-address
//! hashing, longer bucket chains, trees) were "either less storage efficient
//! or sacrificed additional coverage due to increased lookup latency". This
//! experiment replays a real baseline miss sequence against three
//! organizations — the paper's single-block bucketized hash table, an
//! open-addressing table and a chained-bucket table — and reports the
//! quantities that drive that conclusion: memory blocks touched per lookup
//! and per update, lookup hit rate, and main-memory storage.

use stms_core::{ChainedIndex, HashIndexTable, HistoryPointer, OpenAddressIndex};
use stms_mem::{DramModel, SystemConfig};
use stms_stats::{ratio, TextTable};
use stms_types::{CoreId, Cycle, LineAddr};

/// Per-organization measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexAblationRow {
    /// Organization name.
    pub organization: String,
    /// Mean 64-byte blocks read per lookup.
    pub blocks_per_lookup: f64,
    /// Mean 64-byte blocks touched per update.
    pub blocks_per_update: f64,
    /// Fraction of lookups that found a pointer.
    pub hit_rate: f64,
    /// Main-memory storage in MiB.
    pub storage_mib: f64,
}

/// Result of the index-organization ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexAblation {
    /// Workload whose miss stream drove the comparison.
    pub workload: String,
    /// Number of misses replayed.
    pub misses: usize,
    /// One row per organization.
    pub rows: Vec<IndexAblationRow>,
}

impl IndexAblation {
    /// Renders the ablation as a text table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "organization".into(),
            "blocks/lookup".into(),
            "blocks/update".into(),
            "lookup hit rate".into(),
            "storage (MiB)".into(),
        ])
        .with_title(format!(
            "Index-organization ablation on {} ({} misses)",
            self.workload, self.misses
        ));
        for row in &self.rows {
            t.add_row(vec![
                row.organization.clone(),
                ratio(row.blocks_per_lookup),
                ratio(row.blocks_per_update),
                format!("{:.1}%", row.hit_rate * 100.0),
                format!("{:.2}", row.storage_mib),
            ]);
        }
        t
    }
}

fn dram() -> DramModel {
    DramModel::new(SystemConfig::hpca09_baseline().dram)
}

/// Runs the ablation on already-captured per-core baseline miss sequences:
/// every off-chip read miss is first looked up and then inserted in each
/// organization (mimicking the lookup-then-record flow of the prefetcher at
/// 100% update sampling). The `ablation-index` figure captures the misses
/// as a pooled job against the shared trace store.
pub fn index_organization_ablation_from(
    workload: &str,
    per_core: &[Vec<LineAddr>],
) -> IndexAblation {
    // Rebuild a single interleaved sequence (round-robin over cores keeps the
    // per-core orders intact, which is all the index cares about).
    let mut misses: Vec<(CoreId, LineAddr, u64)> = Vec::new();
    let mut cursors = vec![0usize; per_core.len()];
    let mut positions = vec![0u64; per_core.len()];
    loop {
        let mut progressed = false;
        for (core, seq) in per_core.iter().enumerate() {
            if cursors[core] < seq.len() {
                misses.push((
                    CoreId::new(core as u16),
                    seq[cursors[core]],
                    positions[core],
                ));
                cursors[core] += 1;
                positions[core] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // The three organizations, sized to comparable entry counts.
    let buckets = 8 * 1024;
    let entries = buckets * 12;
    let mut bucketized = HashIndexTable::new(buckets, 12, 0);
    let mut open = OpenAddressIndex::new(entries);
    let mut chained = ChainedIndex::new(buckets, 12);

    let mut d_bucket = dram();
    let mut d_open = dram();
    let mut d_chain = dram();

    let (mut hits_b, mut hits_o, mut hits_c) = (0u64, 0u64, 0u64);
    let (mut lookup_blocks_o, mut lookup_blocks_c) = (0u64, 0u64);
    let (mut update_blocks_o, mut update_blocks_c) = (0u64, 0u64);

    for &(core, line, position) in &misses {
        let pointer = HistoryPointer { core, position };
        // Bucketized (block counts come from the DRAM traffic counters).
        if bucketized
            .lookup(line, Cycle::ZERO, &mut d_bucket)
            .0
            .is_some()
        {
            hits_b += 1;
        }
        bucketized.update(line, pointer, Cycle::ZERO, &mut d_bucket);
        // Open addressing.
        let l = open.lookup(line, Cycle::ZERO, &mut d_open);
        if l.pointer.is_some() {
            hits_o += 1;
        }
        lookup_blocks_o += l.blocks_read as u64;
        update_blocks_o += open.update(line, pointer, Cycle::ZERO, &mut d_open) as u64;
        // Chained buckets.
        let l = chained.lookup(line, Cycle::ZERO, &mut d_chain);
        if l.pointer.is_some() {
            hits_c += 1;
        }
        lookup_blocks_c += l.blocks_read as u64;
        update_blocks_c += chained.update(line, pointer, Cycle::ZERO, &mut d_chain) as u64;
    }

    let n = misses.len().max(1) as f64;
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let rows = vec![
        IndexAblationRow {
            organization: "bucketized (STMS)".into(),
            blocks_per_lookup: d_bucket.traffic().meta_lookup as f64 / 64.0 / n,
            blocks_per_update: d_bucket.traffic().meta_update as f64 / 64.0 / n,
            hit_rate: hits_b as f64 / n,
            storage_mib: mib(buckets as u64 * 64),
        },
        IndexAblationRow {
            organization: "open addressing".into(),
            blocks_per_lookup: lookup_blocks_o as f64 / n,
            blocks_per_update: update_blocks_o as f64 / n,
            hit_rate: hits_o as f64 / n,
            storage_mib: mib(open.storage_bytes()),
        },
        IndexAblationRow {
            organization: "chained buckets".into(),
            blocks_per_lookup: lookup_blocks_c as f64 / n,
            blocks_per_update: update_blocks_c as f64 / n,
            hit_rate: hits_c as f64 / n,
            storage_mib: mib(chained.storage_bytes()),
        },
    ];
    IndexAblation {
        workload: workload.to_string(),
        misses: misses.len(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::system::ExperimentConfig;
    use stms_workloads::presets;

    #[test]
    fn ablation_reports_three_organizations_with_sane_costs() {
        let cfg = ExperimentConfig::quick().with_accesses(20_000);
        let spec = presets::oltp_db2();
        let misses = Campaign::with_threads(cfg, 1)
            .collect_miss_sequences(&spec)
            .expect("no job fails");
        let ablation = index_organization_ablation_from(&spec.name, &misses);
        assert_eq!(ablation.rows.len(), 3);
        assert!(ablation.misses > 500);
        let bucketized = &ablation.rows[0];
        // The paper's design touches exactly one block per lookup.
        assert!((bucketized.blocks_per_lookup - 1.0).abs() < 0.01);
        for row in &ablation.rows {
            assert!(row.blocks_per_lookup >= 0.99, "{row:?}");
            assert!(row.blocks_per_update >= 0.99, "{row:?}");
            assert!((0.0..=1.0).contains(&row.hit_rate));
            assert!(row.storage_mib > 0.0);
        }
        // Rendering works and includes every organization.
        let rendered = ablation.table().render();
        assert!(rendered.contains("open addressing"));
        assert!(rendered.contains("chained buckets"));
    }
}
