//! Synthetic workload (trace) generators for the STMS reproduction.
//!
//! The paper evaluates STMS on commercial server workloads (TPC-C on Oracle
//! and DB2, TPC-H on DB2, SPECweb99 on Apache and Zeus) and scientific codes
//! (em3d, moldyn, ocean) running under FLEXUS full-system simulation. Those
//! applications and traces are not redistributable, so this crate generates
//! synthetic multi-core access traces whose *miss-stream statistics* match
//! what the paper reports for each workload:
//!
//! * recurring, variable-length **temporal streams** (power-law length
//!   distribution for commercial workloads, one long iteration stream for
//!   scientific codes) — the property temporal memory streaming exploits;
//! * single-visit **scan** traffic (dominant in DSS) and cold noise;
//! * a cache-resident **hot set** controlling memory-boundedness;
//! * pointer **dependence** controlling memory-level parallelism (Table 2);
//! * compute gaps and writes.
//!
//! See [`presets`] for the per-workload calibrations and
//! [`generator`] for the generation model.
//!
//! # Example
//!
//! ```
//! use stms_workloads::{presets, generate};
//!
//! let spec = presets::oltp_db2().with_accesses(10_000);
//! let trace = generate(&spec);
//! assert_eq!(trace.len(), 10_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod generator;
pub mod pool;
pub mod presets;
pub mod spec;

pub use dist::LengthDist;
pub use generator::generate;
pub use pool::{SharedStream, StreamPool};
pub use spec::{WorkloadClass, WorkloadSpec};
