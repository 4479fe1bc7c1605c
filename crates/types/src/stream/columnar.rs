//! Column codecs of the chunk-framed trace codec **v3**.
//!
//! A v3 chunk frame re-lays its records out columnarly and compresses each
//! column independently, inside the same per-frame length/checksum framing
//! as codec v2:
//!
//! ```text
//! ┌────────────────────── one v3 frame (compressed block) ───────────────────┐
//! │ kinds   : RLE tokens over the flag byte (kind tag | dependence bit)      │
//! │ cores   : RLE tokens over the core id (symbols are LEB128 varints)      │
//! │ lines   : per record, zig-zag delta vs the core's previous line, varint │
//! │ gaps    : per record, zig-zag delta vs the core's previous gap, varint  │
//! └──────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Design points, driven by what the generators actually emit:
//!
//! * **RLE with a literal escape.** Each token starts with a varint header
//!   `h`; `h >> 1` is the token length and the low bit selects *run* (one
//!   symbol, repeated) or *literal* (that many symbols verbatim). Core ids
//!   are issued round-robin, so plain run-length pairs would cost *more*
//!   than raw bytes; the literal escape keeps the worst case at ~1 byte per
//!   record while long runs (single-core traces, skewed kinds) still
//!   collapse to a few bytes.
//! * **Per-core delta references.** Lines and gaps are delta-coded against
//!   the previous record *of the same core*, not the previous record in the
//!   trace. Temporal streams are per-core sequences — a core sweeping a
//!   scan emits `+1` deltas even though the cores interleave round-robin in
//!   trace order. The reference state resets at every chunk boundary so any
//!   chunk decodes independently of the frames before it.
//! * **Fail-closed decoding.** The decoder knows the record count from the
//!   frame header and must consume the compressed block *exactly*: token
//!   overruns, zero-length tokens, oversized core ids, varints that overflow
//!   64 bits and leftover bytes are all structural corruption
//!   ([`DecodeTraceError::BadChunkFraming`]); short blocks are truncation.
//!   The frame checksum over the compressed bytes is verified before any of
//!   this runs, so a flipped bit normally never reaches the decoder.
//!
//! Every helper is deterministic: the same accesses always produce the same
//! bytes, which the trace store's content-addressed cache relies on.

use crate::trace::{access_flags, parse_flags, DecodeTraceError};
use crate::{CoreId, LineAddr, MemAccess};
use std::collections::HashMap;

/// Upper bound on the encoded size of one record across all four columns
/// (worst-case flag token + core token + line varint + gap varint). The
/// reader uses it to bound the allocation a frame header can demand before
/// any payload byte is verified, the way `MAX_CHUNK_LEN` bounds v2.
pub(crate) const MAX_ENCODED_RECORD_BYTES: usize = 2 + 4 + 10 + 5;

/// Appends the LEB128 (7 bits per byte, little-endian groups) encoding of
/// `v`. At most 10 bytes.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from the front of `data`, advancing it. Rejects
/// encodings that overflow 64 bits (which also caps the length at 10
/// bytes); overlong-but-in-range encodings of small values are accepted,
/// the encoder just never produces them.
fn take_varint(data: &mut &[u8], chunk: u64) -> Result<u64, DecodeTraceError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = data.split_first() else {
            return Err(DecodeTraceError::Truncated {
                what: "column varint",
            });
        };
        *data = rest;
        let part = (byte & 0x7f) as u64;
        if shift > 63 || (shift == 63 && part > 1) {
            return Err(DecodeTraceError::BadChunkFraming { chunk });
        }
        value |= part << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zig-zag maps a signed delta onto an unsigned varint-friendly value
/// (small magnitudes of either sign become small numbers).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Per-core delta-reference state, reset at every chunk boundary.
#[derive(Default)]
struct CoreState {
    line: u64,
    gap: u32,
}

/// Emits RLE tokens covering `symbols`: maximal runs of length ≥ 2 become
/// run tokens, maximal stretches without adjacent repeats become literal
/// tokens.
fn encode_rle(out: &mut Vec<u8>, symbols: &[u64], put_symbol: fn(&mut Vec<u8>, u64)) {
    let mut i = 0;
    while i < symbols.len() {
        let run = run_len(symbols, i);
        if run >= 2 {
            put_varint(out, ((run as u64) << 1) | 1);
            put_symbol(out, symbols[i]);
            i += run;
        } else {
            let start = i;
            i += 1;
            while i < symbols.len() && run_len(symbols, i) < 2 {
                i += 1;
            }
            put_varint(out, ((i - start) as u64) << 1);
            for &s in &symbols[start..i] {
                put_symbol(out, s);
            }
        }
    }
}

/// Length of the run of equal symbols starting at `i`.
fn run_len(symbols: &[u64], i: usize) -> usize {
    let mut j = i + 1;
    while j < symbols.len() && symbols[j] == symbols[i] {
        j += 1;
    }
    j - i
}

/// Decodes RLE tokens until exactly `count` symbols are produced.
fn decode_rle(
    data: &mut &[u8],
    count: usize,
    chunk: u64,
    take_symbol: &mut dyn FnMut(&mut &[u8]) -> Result<u64, DecodeTraceError>,
    out: &mut Vec<u64>,
) -> Result<(), DecodeTraceError> {
    out.clear();
    out.reserve(count);
    while out.len() < count {
        let header = take_varint(data, chunk)?;
        let len = header >> 1;
        if len == 0 || len > (count - out.len()) as u64 {
            return Err(DecodeTraceError::BadChunkFraming { chunk });
        }
        if header & 1 == 1 {
            let symbol = take_symbol(data)?;
            for _ in 0..len {
                out.push(symbol);
            }
        } else {
            for _ in 0..len {
                out.push(take_symbol(data)?);
            }
        }
    }
    Ok(())
}

/// Encodes `accesses` as one v3 compressed column block, appended to `out`.
pub(crate) fn encode_columns(accesses: &[MemAccess], out: &mut Vec<u8>) {
    let flags: Vec<u64> = accesses.iter().map(|a| access_flags(a) as u64).collect();
    encode_rle(out, &flags, |out, s| out.push(s as u8));
    let cores: Vec<u64> = accesses.iter().map(|a| a.core.index() as u64).collect();
    encode_rle(out, &cores, put_varint);
    let mut per_core: HashMap<u16, CoreState> = HashMap::new();
    for a in accesses {
        let state = per_core.entry(a.core.index() as u16).or_default();
        put_varint(out, zigzag(a.line.raw().wrapping_sub(state.line) as i64));
        state.line = a.line.raw();
    }
    for a in accesses {
        let state = per_core
            .get_mut(&(a.core.index() as u16))
            .expect("core seen in line pass");
        put_varint(out, zigzag(a.compute_gap as i64 - state.gap as i64));
        state.gap = a.compute_gap;
    }
}

/// Decodes one v3 compressed column block of exactly `count` records into
/// `out` (cleared first). The whole of `bytes` must be consumed.
///
/// # Errors
///
/// [`DecodeTraceError::Truncated`] when the block ends early,
/// [`DecodeTraceError::BadChunkFraming`] for structural corruption (token
/// overruns, leftover bytes, out-of-range core ids or gaps) and
/// [`DecodeTraceError::InvalidAccessKind`] for an unknown kind tag.
pub(crate) fn decode_columns(
    mut bytes: &[u8],
    count: usize,
    chunk: u64,
    out: &mut Vec<MemAccess>,
) -> Result<(), DecodeTraceError> {
    out.clear();
    out.reserve(count);
    let mut flags = Vec::new();
    decode_rle(
        &mut bytes,
        count,
        chunk,
        &mut |data: &mut &[u8]| match data.split_first() {
            Some((&byte, rest)) => {
                *data = rest;
                Ok(byte as u64)
            }
            None => Err(DecodeTraceError::Truncated {
                what: "kind column",
            }),
        },
        &mut flags,
    )?;
    let mut cores = Vec::new();
    decode_rle(
        &mut bytes,
        count,
        chunk,
        &mut |data: &mut &[u8]| {
            let core = take_varint(data, chunk)?;
            if core > u16::MAX as u64 {
                return Err(DecodeTraceError::BadChunkFraming { chunk });
            }
            Ok(core)
        },
        &mut cores,
    )?;
    let mut per_core: HashMap<u16, CoreState> = HashMap::new();
    for i in 0..count {
        let core = cores[i] as u16;
        let state = per_core.entry(core).or_default();
        let delta = unzigzag(take_varint(&mut bytes, chunk)?);
        state.line = state.line.wrapping_add(delta as u64);
        let (kind, dependent) = parse_flags(flags[i] as u8)?;
        out.push(MemAccess {
            core: CoreId::new(core),
            line: LineAddr::new(state.line),
            kind,
            compute_gap: 0,
            dependent,
        });
    }
    for (i, access) in out.iter_mut().enumerate() {
        let state = per_core
            .get_mut(&(cores[i] as u16))
            .expect("core seen in line pass");
        let delta = unzigzag(take_varint(&mut bytes, chunk)?);
        let gap = (state.gap as i64)
            .checked_add(delta)
            .filter(|gap| (0..=u32::MAX as i64).contains(gap))
            .ok_or(DecodeTraceError::BadChunkFraming { chunk })?;
        state.gap = gap as u32;
        access.compute_gap = state.gap;
    }
    if !bytes.is_empty() {
        return Err(DecodeTraceError::BadChunkFraming { chunk });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;
    use proptest::prelude::*;

    fn roundtrip(accesses: &[MemAccess]) -> Vec<MemAccess> {
        let mut bytes = Vec::new();
        encode_columns(accesses, &mut bytes);
        let mut back = Vec::new();
        decode_columns(&bytes, accesses.len(), 7, &mut back).expect("well-formed block");
        back
    }

    fn access(core: u16, line: u64, gap: u32) -> MemAccess {
        MemAccess::read(CoreId::new(core), LineAddr::new(line)).with_gap(gap)
    }

    #[test]
    fn empty_and_single_record_blocks_round_trip() {
        assert_eq!(roundtrip(&[]), Vec::<MemAccess>::new());
        let mut bytes = Vec::new();
        encode_columns(&[], &mut bytes);
        assert!(bytes.is_empty(), "an empty block has no bytes at all");

        let one = [access(3, u64::MAX, u32::MAX)
            .with_kind(AccessKind::Write)
            .with_dependence(true)];
        assert_eq!(roundtrip(&one), one);
    }

    #[test]
    fn adversarial_shapes_round_trip() {
        // u64::MAX addresses next to zero, non-monotonic sequences.
        let jumps = [
            access(0, u64::MAX, 0),
            access(0, 0, 9),
            access(0, u64::MAX - 1, 2),
            access(0, 5, 0),
        ];
        assert_eq!(roundtrip(&jumps), jumps);

        // All-same core ids (one long run) and all-distinct core ids (one
        // long literal stretch).
        let same: Vec<MemAccess> = (0..200).map(|i| access(9, i * 3, 1)).collect();
        assert_eq!(roundtrip(&same), same);
        let distinct: Vec<MemAccess> = (0..200).map(|i| access(i as u16, i, 0)).collect();
        assert_eq!(roundtrip(&distinct), distinct);
    }

    #[test]
    fn per_core_deltas_make_interleaved_scans_cheap() {
        // Two cores each sweeping their own sequential scan, interleaved
        // round-robin: per-core deltas are +1, so the line column costs one
        // byte per record even though trace-order deltas jump wildly.
        let scan: Vec<MemAccess> = (0..1000u64)
            .map(|i| access((i % 2) as u16, (1 << 40) * (i % 2) + i / 2, 3))
            .collect();
        let mut bytes = Vec::new();
        encode_columns(&scan, &mut bytes);
        assert_eq!(roundtrip(&scan), scan);
        assert!(
            bytes.len() < scan.len() * 5,
            "interleaved scans should compress to a few bytes per record, got {} for {}",
            bytes.len(),
            scan.len()
        );
    }

    #[test]
    fn varint_limits_round_trip_and_overflow_is_rejected() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            assert!(bytes.len() <= 10);
            let mut slice = bytes.as_slice();
            assert_eq!(take_varint(&mut slice, 0).unwrap(), v);
            assert!(slice.is_empty());
        }
        // 11 continuation bytes can never be a valid u64.
        let mut overflow = [0x80u8; 11].as_slice();
        assert!(matches!(
            take_varint(&mut overflow, 0),
            Err(DecodeTraceError::BadChunkFraming { chunk: 0 })
        ));
        // A 10th byte carrying more than the final bit overflows too.
        let mut high = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02].as_slice();
        assert!(matches!(
            take_varint(&mut high, 0),
            Err(DecodeTraceError::BadChunkFraming { chunk: 0 })
        ));
        // Truncated mid-varint.
        let mut short = [0x80u8].as_slice();
        assert!(matches!(
            take_varint(&mut short, 0),
            Err(DecodeTraceError::Truncated { .. })
        ));
    }

    #[test]
    fn zigzag_is_an_involution_at_the_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -4096, 4095] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn malformed_blocks_fail_closed() {
        let accesses: Vec<MemAccess> = (0..50).map(|i| access(i % 4, i as u64 * 17, 2)).collect();
        let mut bytes = Vec::new();
        encode_columns(&accesses, &mut bytes);
        let mut out = Vec::new();

        // Truncation anywhere surfaces as Truncated or BadChunkFraming,
        // never a panic or a silently short decode.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let result = decode_columns(&bytes[..cut], accesses.len(), 3, &mut out);
            assert!(result.is_err(), "cut at {cut} must fail");
        }
        // Trailing bytes are structural corruption.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            decode_columns(&long, accesses.len(), 3, &mut out),
            Err(DecodeTraceError::BadChunkFraming { chunk: 3 })
        ));
        // A zero-length token is invalid.
        assert!(matches!(
            decode_columns(&[0x00], 1, 3, &mut out),
            Err(DecodeTraceError::BadChunkFraming { chunk: 3 })
        ));
        // A run longer than the declared record count is invalid.
        let mut overrun = Vec::new();
        put_varint(&mut overrun, (2 << 1) | 1);
        overrun.push(0);
        assert!(matches!(
            decode_columns(&overrun, 1, 3, &mut out),
            Err(DecodeTraceError::BadChunkFraming { chunk: 3 })
        ));
        // An unknown kind tag in the flag column is an InvalidAccessKind.
        let mut bad_kind = Vec::new();
        put_varint(&mut bad_kind, (1 << 1) | 1); // one-symbol run
        bad_kind.push(0x7f); // kind tag 127
        put_varint(&mut bad_kind, (1 << 1) | 1); // cores: run of one
        put_varint(&mut bad_kind, 0); // core 0
        put_varint(&mut bad_kind, 0); // line delta 0
        put_varint(&mut bad_kind, 0); // gap delta 0
        assert!(matches!(
            decode_columns(&bad_kind, 1, 3, &mut out),
            Err(DecodeTraceError::InvalidAccessKind { tag: 127 })
        ));
        // A core id beyond u16 is structural corruption.
        let mut bad_core = Vec::new();
        put_varint(&mut bad_core, (1 << 1) | 1);
        bad_core.push(0x00);
        put_varint(&mut bad_core, (1 << 1) | 1);
        put_varint(&mut bad_core, u16::MAX as u64 + 1);
        assert!(matches!(
            decode_columns(&bad_core, 1, 3, &mut out),
            Err(DecodeTraceError::BadChunkFraming { chunk: 3 })
        ));
        // A gap delta that drives the gap outside u32 is rejected.
        let mut bad_gap = Vec::new();
        put_varint(&mut bad_gap, (1 << 1) | 1);
        bad_gap.push(0x00);
        put_varint(&mut bad_gap, (1 << 1) | 1);
        put_varint(&mut bad_gap, 0);
        put_varint(&mut bad_gap, 0); // line delta
        put_varint(&mut bad_gap, zigzag(-1)); // gap 0 - 1 < 0
        assert!(matches!(
            decode_columns(&bad_gap, 1, 3, &mut out),
            Err(DecodeTraceError::BadChunkFraming { chunk: 3 })
        ));
    }

    proptest! {
        /// Any access sequence round-trips exactly, and the encoded block
        /// respects the per-record size bound the reader allocates by.
        #[test]
        fn prop_columns_round_trip(
            specs in proptest::collection::vec(
                (0u16..6, any::<u64>(), 0u32..100_000, 0u8..3, any::<bool>()),
                0..300,
            ),
        ) {
            let accesses: Vec<MemAccess> = specs
                .iter()
                .map(|&(core, line, gap, kind, dependent)| {
                    let kind = match kind {
                        0 => AccessKind::Read,
                        1 => AccessKind::Write,
                        _ => AccessKind::InstrFetch,
                    };
                    access(core, line, gap).with_kind(kind).with_dependence(dependent)
                })
                .collect();
            let mut bytes = Vec::new();
            encode_columns(&accesses, &mut bytes);
            prop_assert!(bytes.len() <= accesses.len() * MAX_ENCODED_RECORD_BYTES);
            let mut back = Vec::new();
            decode_columns(&bytes, accesses.len(), 11, &mut back).unwrap();
            prop_assert_eq!(back, accesses);
        }

        /// Varints round-trip any u64 and zig-zag round-trips any i64.
        #[test]
        fn prop_varint_zigzag_round_trip(v in any::<u64>(), d in any::<i64>()) {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            let mut slice = bytes.as_slice();
            prop_assert_eq!(take_varint(&mut slice, 0).unwrap(), v);
            prop_assert!(slice.is_empty());
            prop_assert_eq!(unzigzag(zigzag(d)), d);
        }
    }
}
