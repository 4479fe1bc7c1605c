//! Property tests for the `stms-serve` wire codec: arbitrary requests and
//! responses round-trip through framing, and truncated / oversized /
//! corrupted / garbage frames are rejected fail-closed (an error, never a
//! panic, never a silently wrong message).

use proptest::prelude::*;
use stms_types::wire::{
    open_frame, recv_request, recv_response, send_request, send_response, Request, RequestFormat,
    Response, ServeCounters, WireError, MAX_FRAME_LEN,
};

/// Arbitrary UTF-8 text (multi-byte codepoints, newlines, control chars)
/// built from raw u32 seeds: bodies carry rendered tables and whole JSON
/// documents, so anything must survive the trip.
fn text_from(seeds: &[u32]) -> String {
    seeds
        .iter()
        .filter_map(|&s| char::from_u32(s % 0x11_0000))
        .collect()
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..64).prop_map(|seeds| text_from(&seeds))
}

fn arb_figures() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..12), 0..8)
        .prop_map(|ids| ids.iter().map(|id| text_from(id)).collect())
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0u8..4, arb_figures(), any::<bool>()).prop_map(|(variant, figures, json)| match variant {
        0 => Request::Ping,
        1 => Request::Stats,
        2 => Request::Shutdown,
        _ => Request::Run {
            figures,
            format: if json {
                RequestFormat::Json
            } else {
                RequestFormat::Text
            },
        },
    })
}

fn counters_from(v: &[u64]) -> ServeCounters {
    ServeCounters {
        requests: v[0],
        accepted: v[1],
        rejected: v[2],
        cancelled: v[3],
        figures_streamed: v[4],
        jobs_executed: v[5],
        jobs_shared: v[6],
        jobs_cached: v[7],
        traces_generated: v[8],
        stream_replays: v[9],
        active_requests: v[10],
        queued_requests: v[11],
    }
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..8,
        any::<u32>(),
        any::<u32>(),
        arb_text(),
        arb_text(),
        proptest::collection::vec(any::<u64>(), 12),
    )
        .prop_map(|(variant, a, b, id, body, counters)| match variant {
            0 => Response::Pong,
            1 => Response::ShuttingDown,
            2 => Response::Figure { index: a, id, body },
            3 => Response::FigureError {
                index: a,
                id,
                message: body,
            },
            4 => Response::Document { body },
            5 => Response::Done {
                figures: a,
                failed: b,
            },
            6 => Response::Rejected { reason: body },
            _ => Response::Stats(counters_from(&counters)),
        })
}

proptest! {
    /// Any request round-trips bit-exactly through a framed stream, and a
    /// second message on the same stream is read independently.
    #[test]
    fn prop_request_roundtrip(a in arb_request(), b in arb_request()) {
        let mut buf = Vec::new();
        send_request(&mut buf, &a).unwrap();
        send_request(&mut buf, &b).unwrap();
        let mut stream = buf.as_slice();
        prop_assert_eq!(recv_request(&mut stream).unwrap().unwrap(), a);
        prop_assert_eq!(recv_request(&mut stream).unwrap().unwrap(), b);
        prop_assert_eq!(recv_request(&mut stream).unwrap(), None);
    }

    /// Any response round-trips bit-exactly through a framed stream.
    #[test]
    fn prop_response_roundtrip(resp in arb_response()) {
        let mut buf = Vec::new();
        send_response(&mut buf, &resp).unwrap();
        let mut stream = buf.as_slice();
        prop_assert_eq!(recv_response(&mut stream).unwrap().unwrap(), resp);
        prop_assert_eq!(recv_response(&mut stream).unwrap(), None);
    }

    /// Truncating a frame anywhere is an error, never a short message and
    /// never a panic. (Cutting at offset 0 is a clean EOF instead.)
    #[test]
    fn prop_truncated_frame_fails_closed(resp in arb_response(), cut_seed in any::<usize>()) {
        let mut buf = Vec::new();
        send_response(&mut buf, &resp).unwrap();
        let cut = 1 + cut_seed % (buf.len() - 1);
        prop_assert!(recv_response(&mut &buf[..cut]).is_err(), "cut at {} accepted", cut);
    }

    /// Flipping any single bit in a frame is detected: the envelope
    /// checksum, the payload-fingerprint key, or the message decoder must
    /// refuse it. A decoded frame is therefore exactly what was sent.
    #[test]
    fn prop_flipped_bit_fails_closed(
        req in arb_request(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        send_request(&mut buf, &req).unwrap();
        let pos = pos_seed % buf.len();
        buf[pos] ^= 1 << bit;
        if let Ok(got) = recv_request(&mut buf.as_slice()) {
            prop_assert!(false, "corrupt frame decoded as {:?}", got);
        }
    }

    /// Pure garbage bytes never decode and never panic.
    #[test]
    fn prop_garbage_fails_closed(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        // As a raw stream: either clean EOF on empty input or an error;
        // random bytes cannot produce a valid checksummed frame.
        match recv_request(&mut bytes.as_slice()) {
            Ok(None) => prop_assert!(bytes.is_empty()),
            Ok(Some(req)) => prop_assert!(false, "garbage decoded as {:?}", req),
            Err(_) => {}
        }
        // As a sealed frame body: same story.
        prop_assert!(open_frame(&bytes).is_err());
    }

    /// Declared frame lengths beyond the cap are rejected before any
    /// payload is read (or allocated).
    #[test]
    fn prop_oversized_length_rejected(extra in 1u64..u64::from(u32::MAX / 2)) {
        let len = (MAX_FRAME_LEN as u64 + extra).min(u64::from(u32::MAX)) as u32;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let err = recv_request(&mut buf.as_slice()).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

#[test]
fn frame_error_types_are_specific() {
    // Spot-check that the typed errors carry the right diagnosis.
    assert!(matches!(
        open_frame(&[]),
        Err(WireError::FrameLength { .. })
    ));
    let sealed = {
        let mut buf = Vec::new();
        send_request(&mut buf, &Request::Ping).unwrap();
        buf.split_off(4)
    };
    // A payload flip past the envelope header trips either the checksum or
    // the payload-fingerprint key — both are envelope-level rejections.
    let mut bad = sealed.clone();
    let last = bad.len() - 1;
    bad[last] ^= 1;
    assert!(matches!(
        open_frame(&bad),
        Err(WireError::Envelope(_) | WireError::KeyMismatch { .. })
    ));
    assert!(open_frame(&sealed).is_ok());
}
