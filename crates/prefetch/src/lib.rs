//! Temporal-streaming prefetcher framework and prior-work baselines.
//!
//! This crate contains every address-correlating prefetcher the paper
//! discusses *except* STMS itself (which lives in `stms-core`):
//!
//! * [`IdealTms`] — the idealized temporal memory streaming prefetcher with
//!   "magic" on-chip meta-data (§5.2), optionally with a bounded LRU index
//!   for the correlation-table-entries sweep of Figure 1 (left);
//! * [`MarkovPrefetcher`] — the pair-wise correlating baseline (§2);
//! * [`FixedDepthPrefetcher`] — single-table designs with a fixed prefetch
//!   depth, on-chip or off-chip (EBCP-like / ULMT-like), used for Figure 1
//!   (right) and the prefetch-depth sweep of Figure 6 (right);
//! * [`MissTraceCollector`] — a pseudo-prefetcher that captures the baseline
//!   off-chip miss sequence for offline analyses;
//! * shared building blocks: [`HistoryLog`] and [`LruIndex`].
//!
//! All prefetchers implement [`stms_mem::Prefetcher`] and plug into the
//! simulation engine of `stms-mem`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collector;
mod correlation;
pub mod fixed_depth;
pub mod history;
pub mod ideal;
pub mod lru_index;
pub mod markov;

pub use collector::MissTraceCollector;
pub use fixed_depth::{FixedDepthConfig, FixedDepthPrefetcher, TablePlacement};
pub use history::HistoryLog;
pub use ideal::{IdealTms, IdealTmsConfig};
pub use lru_index::LruIndex;
pub use markov::{MarkovConfig, MarkovPrefetcher};
