//! Cycle-approximate chip-multiprocessor memory-hierarchy simulator used as
//! the substrate of the STMS reproduction.
//!
//! The paper evaluates STMS with FLEXUS full-system simulation of a 4-core
//! CMP (Table 1). This crate provides the equivalent substrate for
//! trace-driven experiments:
//!
//! * [`SetAssocCache`] — per-core L1s and the shared L2;
//! * [`DramModel`] — a main-memory channel with latency, bandwidth occupancy
//!   and a two-priority scheduler (demand vs. prefetcher meta-data traffic);
//! * [`StridePrefetcher`] — the base system's stride prefetcher;
//! * [`MshrFile`], [`PrefetchBuffer`], [`StreamState`] — the on-chip
//!   structures of Figure 2;
//! * [`lanes::Lanes`], [`recency::RecencyList`] — branch-free lookup and
//!   O(1) replacement order for the small on-chip tables (stride table,
//!   prefetch buffer, index bucket buffer);
//! * [`Prefetcher`] — the interface implemented by every temporal-streaming
//!   prefetcher in this workspace (idealized TMS, STMS, and the prior-work
//!   baselines);
//! * [`HierarchyLog`] — the prefetcher-independent L1/L2/stride half of
//!   every access of a trace, recorded once and replayed by every run of
//!   the trace;
//! * [`CmpSimulator`] — the trace replay engine with an epoch-based
//!   memory-level-parallelism timing model;
//! * [`SimResult`] — coverage, traffic and timing metrics of one run.
//!
//! # Example
//!
//! ```
//! use stms_mem::{CmpSimulator, NullPrefetcher, SimOptions, SystemConfig};
//! use stms_types::{CoreId, LineAddr, MemAccess, Trace, TraceMeta};
//!
//! // A tiny pointer-chasing trace on one core.
//! let mut trace = Trace::new(TraceMeta { workload: "example".into(), cores: 1, ..Default::default() });
//! for i in 0..1000u64 {
//!     trace.push(MemAccess::read(CoreId::new(0), LineAddr::new((i * 97) % 4096)).with_gap(3));
//! }
//!
//! let cfg = SystemConfig::hpca09_baseline();
//! let result = CmpSimulator::new(&cfg, SimOptions::default())
//!     .run(&trace, &mut NullPrefetcher::new());
//! println!("IPC without temporal streaming: {:.3}", result.ipc());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
pub mod hierarchy;
pub mod lanes;
pub mod mshr;
pub mod prefetcher;
pub mod recency;
#[cfg(test)]
mod reference;
pub mod result;
pub mod stream;
pub mod stride;

pub use cache::{CacheOutcome, Eviction, SetAssocCache};
pub use config::{CacheConfig, CoreConfig, DramConfig, StrideConfig, SystemConfig};
pub use dram::{DramModel, TrafficClass, TrafficStats};
pub use engine::{CmpSimulator, InvalidSimOptions, SimOptions};
pub use hierarchy::HierarchyLog;
pub use mshr::{MshrEntry, MshrFile};
pub use prefetcher::{NullPrefetcher, Prefetcher, StreamChunk};
pub use result::{DecodeResultError, OverheadBreakdown, SimResult, SIM_RESULT_CODEC_VERSION};
pub use stream::{PrefetchBuffer, PrefetchedBlock, StreamState};
pub use stride::StridePrefetcher;
