//! Results produced by one simulation run.

use crate::dram::TrafficStats;
use std::fmt;

/// Counters and derived metrics from a single simulation of one trace with
/// one prefetcher configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimResult {
    /// Name of the prefetcher that was simulated.
    pub prefetcher: String,
    /// Name of the workload that produced the trace.
    pub workload: String,

    /// Total instructions committed (all cores), the numerator of the
    /// aggregate user-IPC throughput metric.
    pub instructions: u64,
    /// Elapsed cycles (the slowest core's clock).
    pub cycles: u64,

    /// Total memory accesses replayed.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (including lines brought in by the stride prefetcher).
    pub l2_hits: u64,

    /// Off-chip demand read misses that went to memory (not covered).
    pub uncovered_misses: u64,
    /// Of the uncovered misses, those whose address was queued in an active
    /// stream but had not been prefetched in time (lost opportunity due to
    /// lookup latency or limited lookahead).
    pub stream_lost_misses: u64,
    /// Off-chip misses fully hidden by the prefetcher (data was resident in
    /// the prefetch buffer when requested).
    pub covered_full: u64,
    /// Off-chip misses partially hidden (prefetch was in flight when the
    /// demand request arrived).
    pub covered_partial: u64,
    /// Off-chip write misses (not eligible for coverage accounting).
    pub write_misses: u64,

    /// Prefetches issued to memory.
    pub prefetches_issued: u64,
    /// Prefetched blocks that satisfied a demand access.
    pub prefetches_used: u64,
    /// Prefetched blocks evicted or left unused (erroneous prefetches).
    pub prefetches_unused: u64,

    /// Number of epochs of overlapping off-chip misses (for MLP).
    pub miss_epochs: u64,
    /// Off-chip misses that participated in epochs (uncovered demand reads).
    pub epoch_misses: u64,

    /// Bytes moved on the memory channel, by traffic class.
    pub traffic: TrafficStats,
}

impl SimResult {
    /// Baseline off-chip read misses that the prefetcher had the opportunity
    /// to cover: covered (fully or partially) plus uncovered demand reads.
    pub fn base_read_misses(&self) -> u64 {
        self.uncovered_misses + self.covered_full + self.covered_partial
    }

    /// Prefetch coverage: fraction of off-chip read misses eliminated
    /// (fully or partially covered), as plotted in Figures 4, 5, 8 and 9.
    pub fn coverage(&self) -> f64 {
        let base = self.base_read_misses();
        if base == 0 {
            0.0
        } else {
            (self.covered_full + self.covered_partial) as f64 / base as f64
        }
    }

    /// Coverage counting only fully-hidden misses.
    pub fn full_coverage(&self) -> f64 {
        let base = self.base_read_misses();
        if base == 0 {
            0.0
        } else {
            self.covered_full as f64 / base as f64
        }
    }

    /// Prefetch accuracy: used prefetches / issued prefetches.
    pub fn accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetches_used as f64 / self.prefetches_issued as f64
        }
    }

    /// Aggregate user instructions per cycle (the paper's throughput metric).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline run of the same trace
    /// (IPC ratio minus one, e.g. `0.10` = 10% faster).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        if baseline.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / baseline.ipc() - 1.0
        }
    }

    /// Memory-level parallelism of off-chip reads: mean number of overlapping
    /// misses per miss epoch (Table 2).
    pub fn mlp(&self) -> f64 {
        if self.miss_epochs == 0 {
            1.0
        } else {
            self.epoch_misses as f64 / self.miss_epochs as f64
        }
    }

    /// Bytes of useful data moved: demand fills, writebacks, stride
    /// prefetches and prefetched lines that were actually used.
    pub fn useful_bytes(&self) -> u64 {
        let line = 64;
        self.traffic.base_system() + self.prefetches_used * line
    }

    /// Overhead bytes: meta-data traffic plus erroneous prefetch data.
    pub fn overhead_bytes(&self) -> u64 {
        let line = 64;
        self.traffic.meta_total() + self.prefetches_unused * line
    }

    /// The paper's Figure 7/8 metric: overhead bytes per useful data byte.
    pub fn overhead_per_useful_byte(&self) -> f64 {
        let useful = self.useful_bytes();
        if useful == 0 {
            0.0
        } else {
            self.overhead_bytes() as f64 / useful as f64
        }
    }

    /// Breakdown of overhead traffic (record, update, lookup, erroneous
    /// prefetches) each normalized to useful data bytes, in the order the
    /// paper's Figure 7 stacks them.
    pub fn overhead_breakdown(&self) -> OverheadBreakdown {
        let useful = self.useful_bytes().max(1) as f64;
        OverheadBreakdown {
            record: self.traffic.meta_record as f64 / useful,
            update: self.traffic.meta_update as f64 / useful,
            lookup: self.traffic.meta_lookup as f64 / useful,
            erroneous: (self.prefetches_unused * 64) as f64 / useful,
        }
    }
}

/// Version of the [`SimResult::encode`] payload codec. The campaign result
/// cache seals encoded results in a `stms_types::blob` envelope stamped with
/// this version; bump it whenever a counter is added, removed or reordered.
pub const SIM_RESULT_CODEC_VERSION: u16 = 1;

/// Error returned when [`SimResult::decode`] is given a malformed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeResultError {
    /// The buffer ended before the named field.
    Truncated {
        /// Which encoded field was cut off.
        what: &'static str,
    },
    /// A string field held bytes that were not UTF-8.
    InvalidString,
    /// Extra bytes followed the last field.
    TrailingData,
}

impl fmt::Display for DecodeResultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeResultError::Truncated { what } => {
                write!(f, "malformed sim result: truncated at {what}")
            }
            DecodeResultError::InvalidString => {
                write!(f, "malformed sim result: string not utf-8")
            }
            DecodeResultError::TrailingData => {
                write!(f, "malformed sim result: trailing bytes")
            }
        }
    }
}

impl std::error::Error for DecodeResultError {}

struct ResultReader<'a> {
    data: &'a [u8],
}

impl ResultReader<'_> {
    fn u64(&mut self, what: &'static str) -> Result<u64, DecodeResultError> {
        let (head, rest) = self
            .data
            .split_at_checked(8)
            .ok_or(DecodeResultError::Truncated { what })?;
        self.data = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }

    fn string(&mut self, what: &'static str) -> Result<String, DecodeResultError> {
        let len = self.u64(what)? as usize;
        let (head, rest) = self
            .data
            .split_at_checked(len)
            .ok_or(DecodeResultError::Truncated { what })?;
        self.data = rest;
        String::from_utf8(head.to_vec()).map_err(|_| DecodeResultError::InvalidString)
    }
}

impl SimResult {
    /// Encodes the result as a compact little-endian binary record
    /// (length-prefixed strings followed by every counter in declaration
    /// order), for persistence in the campaign's on-disk result cache.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.prefetcher.len() + self.workload.len());
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        put_str(&mut out, &self.prefetcher);
        put_str(&mut out, &self.workload);
        for counter in self.counters() {
            out.extend_from_slice(&counter.to_le_bytes());
        }
        out
    }

    /// Decodes a result previously produced by [`SimResult::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeResultError`] when the buffer is truncated, holds a
    /// non-UTF-8 string, or carries trailing bytes. Cache readers treat any
    /// error as a miss and re-run the simulation.
    pub fn decode(data: &[u8]) -> Result<Self, DecodeResultError> {
        let mut r = ResultReader { data };
        let prefetcher = r.string("prefetcher")?;
        let workload = r.string("workload")?;
        let mut result = SimResult {
            prefetcher,
            workload,
            ..SimResult::default()
        };
        let mut counters = [0u64; SimResult::COUNTER_FIELDS];
        for (i, slot) in counters.iter_mut().enumerate() {
            *slot = r.u64(COUNTER_NAMES[i])?;
        }
        result.set_counters(&counters);
        if !r.data.is_empty() {
            return Err(DecodeResultError::TrailingData);
        }
        Ok(result)
    }

    /// Number of `u64` counters in the binary encoding.
    const COUNTER_FIELDS: usize = 22;

    /// Every counter in encoding order. The exhaustive destructuring ties
    /// the codec to the struct definition: adding a field will not compile
    /// until it is encoded (and [`SIM_RESULT_CODEC_VERSION`] is bumped).
    fn counters(&self) -> [u64; Self::COUNTER_FIELDS] {
        let SimResult {
            prefetcher: _,
            workload: _,
            instructions,
            cycles,
            accesses,
            l1_hits,
            l2_hits,
            uncovered_misses,
            stream_lost_misses,
            covered_full,
            covered_partial,
            write_misses,
            prefetches_issued,
            prefetches_used,
            prefetches_unused,
            miss_epochs,
            epoch_misses,
            traffic,
        } = self;
        let TrafficStats {
            demand_fill,
            writeback,
            stride_prefetch,
            prefetch_data,
            meta_lookup,
            meta_update,
            meta_record,
        } = traffic;
        [
            *instructions,
            *cycles,
            *accesses,
            *l1_hits,
            *l2_hits,
            *uncovered_misses,
            *stream_lost_misses,
            *covered_full,
            *covered_partial,
            *write_misses,
            *prefetches_issued,
            *prefetches_used,
            *prefetches_unused,
            *miss_epochs,
            *epoch_misses,
            *demand_fill,
            *writeback,
            *stride_prefetch,
            *prefetch_data,
            *meta_lookup,
            *meta_update,
            *meta_record,
        ]
    }

    fn set_counters(&mut self, c: &[u64; Self::COUNTER_FIELDS]) {
        [
            self.instructions,
            self.cycles,
            self.accesses,
            self.l1_hits,
            self.l2_hits,
            self.uncovered_misses,
            self.stream_lost_misses,
            self.covered_full,
            self.covered_partial,
            self.write_misses,
            self.prefetches_issued,
            self.prefetches_used,
            self.prefetches_unused,
            self.miss_epochs,
            self.epoch_misses,
            self.traffic.demand_fill,
            self.traffic.writeback,
            self.traffic.stride_prefetch,
            self.traffic.prefetch_data,
            self.traffic.meta_lookup,
            self.traffic.meta_update,
            self.traffic.meta_record,
        ] = *c;
    }
}

/// Field names used in truncation errors, in encoding order.
const COUNTER_NAMES: [&str; SimResult::COUNTER_FIELDS] = [
    "instructions",
    "cycles",
    "accesses",
    "l1_hits",
    "l2_hits",
    "uncovered_misses",
    "stream_lost_misses",
    "covered_full",
    "covered_partial",
    "write_misses",
    "prefetches_issued",
    "prefetches_used",
    "prefetches_unused",
    "miss_epochs",
    "epoch_misses",
    "traffic.demand_fill",
    "traffic.writeback",
    "traffic.stride_prefetch",
    "traffic.prefetch_data",
    "traffic.meta_lookup",
    "traffic.meta_update",
    "traffic.meta_record",
];

/// Per-source overhead traffic, normalized to useful data bytes (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadBreakdown {
    /// History-buffer recording traffic.
    pub record: f64,
    /// Index-table update traffic.
    pub update: f64,
    /// Index-table and history-buffer lookup traffic.
    pub lookup: f64,
    /// Erroneously prefetched data.
    pub erroneous: f64,
}

impl OverheadBreakdown {
    /// Total overhead per useful byte.
    pub fn total(&self) -> f64 {
        self.record + self.update + self.lookup + self.erroneous
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::TrafficClass;

    fn sample() -> SimResult {
        let mut r = SimResult {
            prefetcher: "test".into(),
            workload: "w".into(),
            instructions: 1000,
            cycles: 2000,
            accesses: 500,
            l1_hits: 300,
            l2_hits: 100,
            uncovered_misses: 40,
            stream_lost_misses: 5,
            covered_full: 50,
            covered_partial: 10,
            write_misses: 3,
            prefetches_issued: 80,
            prefetches_used: 60,
            prefetches_unused: 20,
            miss_epochs: 30,
            epoch_misses: 45,
            ..Default::default()
        };
        r.traffic.add(TrafficClass::DemandFill, 40 * 64);
        r.traffic.add(TrafficClass::MetaLookup, 10 * 64);
        r.traffic.add(TrafficClass::MetaUpdate, 20 * 64);
        r.traffic.add(TrafficClass::MetaRecord, 5 * 64);
        r
    }

    #[test]
    fn coverage_math() {
        let r = sample();
        assert_eq!(r.base_read_misses(), 100);
        assert!((r.coverage() - 0.6).abs() < 1e-9);
        assert!((r.full_coverage() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn accuracy_and_ipc() {
        let r = sample();
        assert!((r.accuracy() - 0.75).abs() < 1e-9);
        assert!((r.ipc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn speedup_relative_to_baseline() {
        let fast = sample();
        let mut slow = sample();
        slow.cycles = 4000;
        assert!(
            (fast.speedup_over(&slow) - 1.0).abs() < 1e-9,
            "twice as fast = +100%"
        );
        assert_eq!(fast.speedup_over(&fast), 0.0);
    }

    #[test]
    fn mlp_definition() {
        let r = sample();
        assert!((r.mlp() - 1.5).abs() < 1e-9);
        let empty = SimResult::default();
        assert_eq!(empty.mlp(), 1.0);
        assert_eq!(empty.coverage(), 0.0);
        assert_eq!(empty.ipc(), 0.0);
        assert_eq!(empty.accuracy(), 0.0);
        assert_eq!(empty.overhead_per_useful_byte(), 0.0);
    }

    #[test]
    fn binary_codec_round_trips_every_field() {
        let r = sample();
        let bytes = r.encode();
        let back = SimResult::decode(&bytes).expect("decode");
        assert_eq!(back, r);
        // The default (all-zero) result round-trips too.
        let empty = SimResult::default();
        assert_eq!(SimResult::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_malformed_buffers() {
        let bytes = sample().encode();
        assert!(matches!(
            SimResult::decode(&bytes[..bytes.len() - 1]),
            Err(DecodeResultError::Truncated { .. })
        ));
        assert!(matches!(
            SimResult::decode(&[]),
            Err(DecodeResultError::Truncated { .. })
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            SimResult::decode(&long),
            Err(DecodeResultError::TrailingData)
        );
        // A string length pointing past the end is truncation, not a panic.
        let mut huge = bytes;
        huge[0] = 0xff;
        assert!(SimResult::decode(&huge).is_err());
    }

    #[test]
    fn overhead_accounting() {
        let r = sample();
        let useful = (40 * 64 + 60 * 64) as f64;
        let overhead = (10 * 64 + 20 * 64 + 5 * 64 + 20 * 64) as f64;
        assert!((r.overhead_per_useful_byte() - overhead / useful).abs() < 1e-9);
        let bd = r.overhead_breakdown();
        assert!((bd.total() - overhead / useful).abs() < 1e-9);
        assert!(bd.update > bd.lookup);
    }
}
