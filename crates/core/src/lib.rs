//! Sampled Temporal Memory Streaming (STMS) — a practical address-correlating
//! prefetcher that keeps all predictor meta-data in main memory.
//!
//! This crate is the reproduction of the primary contribution of
//! *Practical Off-chip Meta-data for Temporal Memory Streaming* (Wenisch et
//! al., HPCA 2009). The paper identifies three requirements for practical
//! off-chip prefetcher meta-data and proposes one mechanism for each:
//!
//! 1. **Minimal off-chip lookup latency** → [`HashIndexTable`], a
//!    hardware-managed, bucketized main-memory hash table whose buckets fit a
//!    single 64-byte memory block (12 `{address, pointer}` pairs, LRU within
//!    the bucket), so a lookup is one memory access; an 8 KB on-chip bucket
//!    buffer coalesces the read-modify-write of updates.
//! 2. **Bandwidth-efficient meta-data updates** → [`UpdateSampler`],
//!    probabilistic sampling of index-table updates (12.5% by default).
//! 3. **Lookups amortized over many prefetches** → the split meta-data
//!    organization of [`OffChipHistory`] (per-core circular history buffers)
//!    plus the index table, which lets a single lookup stream an arbitrarily
//!    long miss sequence, with end-of-stream annotations to stop streaming
//!    past a stream's end.
//!
//! [`Stms`] combines the three mechanisms into a prefetcher that implements
//! [`stms_mem::Prefetcher`] and plugs into the workspace's CMP simulator.
//!
//! # Example
//!
//! ```
//! use stms_core::{Stms, StmsConfig};
//! use stms_mem::{CmpSimulator, SimOptions, SystemConfig};
//! use stms_workloads::{presets, generate};
//!
//! // Simulate a small OLTP-like trace with STMS.
//! let trace = generate(&presets::oltp_db2().with_accesses(20_000));
//! let sys = SystemConfig::tiny_for_tests();
//! let mut stms = Stms::new(StmsConfig::scaled_default());
//! let result = CmpSimulator::new(&sys, SimOptions::default()).run(&trace, &mut stms);
//! println!("STMS coverage: {:.1}%", 100.0 * result.coverage());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod history;
pub mod index;
pub mod index_alt;
#[cfg(test)]
mod reference;
pub mod sampler;
pub mod stms;

pub use config::StmsConfig;
pub use history::{HistoryBlock, OffChipHistory};
pub use index::{HashIndexTable, HistoryPointer, IndexStats};
pub use index_alt::{AltLookup, ChainedIndex, OpenAddressIndex};
pub use sampler::UpdateSampler;
pub use stms::{Stms, StmsStats};
