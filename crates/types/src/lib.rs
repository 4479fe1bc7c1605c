//! Common foundational types shared by every crate in the STMS reproduction.
//!
//! This crate intentionally contains no simulator logic: it only defines the
//! vocabulary used throughout the workspace — physical addresses and
//! cache-line addresses ([`PhysAddr`], [`LineAddr`]), identifiers
//! ([`CoreId`]), simulated time ([`Cycle`]), memory access records
//! ([`MemAccess`], [`AccessKind`]) and trace containers ([`Trace`],
//! [`TraceMeta`]).
//!
//! # Example
//!
//! ```
//! use stms_types::{LineAddr, PhysAddr, CACHE_LINE_BYTES};
//!
//! let byte_addr = PhysAddr::new(0x1_0040);
//! let line = byte_addr.line();
//! assert_eq!(line.to_phys().raw(), 0x1_0040 / CACHE_LINE_BYTES as u64 * CACHE_LINE_BYTES as u64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod addr;
pub mod blob;
pub mod fingerprint;
pub mod hash;
pub mod ids;
pub mod time;
pub mod trace;

pub use access::{AccessKind, MemAccess};
pub use addr::{LineAddr, PhysAddr, CACHE_LINE_BYTES};
pub use fingerprint::{Fingerprint, Fingerprinter};
pub use ids::CoreId;
pub use time::Cycle;
pub use trace::{SharedTrace, Trace, TraceMeta};
