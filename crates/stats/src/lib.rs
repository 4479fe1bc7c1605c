//! Metrics and statistics for the STMS reproduction.
//!
//! The simulation engine (`stms-mem`) reports raw counters per run; this
//! crate provides the analyses layered on top of them:
//!
//! * [`Cdf`] — empirical (optionally weighted) distributions, used for the
//!   temporal-stream length distribution of Figure 6 (left);
//! * [`analyze_streams`] — offline temporal-stream run analysis of a miss
//!   sequence;
//! * [`aggregate`] — means, geometric means, batch means and matched-pair
//!   confidence intervals (the paper's SimFlex-style methodology);
//! * [`TextTable`] — aligned text / CSV rendering of every reproduced figure
//!   and table;
//! * [`RunSummary`] — compact cache-hit reporting for campaign run
//!   summaries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod cdf;
pub mod streams;
pub mod summary;
pub mod table;

pub use aggregate::{batch_means, geometric_mean, mean, std_dev, MatchedPair};
pub use cdf::Cdf;
pub use streams::{analyze_streams, analyze_streams_multi, StreamAnalysis};
pub use summary::{CacheReport, RunSummary, TelemetryReport};
pub use table::{pct, ratio, TextTable};
