//! Umbrella crate for the STMS reproduction. Re-exports every workspace crate.
pub use stms_core as core;
pub use stms_mem as mem;
pub use stms_obs as obs;
pub use stms_prefetch as prefetch;
pub use stms_sim as sim;
pub use stms_stats as stats;
pub use stms_types as types;
pub use stms_workloads as workloads;
