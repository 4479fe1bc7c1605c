//! Length-prefixed request/response framing for the `stms-serve` daemon.
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! | frame_len: u32 LE | sealed blob (see `blob` module) |
//! ```
//!
//! The sealed blob reuses the exact envelope discipline of the on-disk
//! result cache — magic, codec version ([`WIRE_CODEC_VERSION`]), a 128-bit key,
//! payload length and a trailing checksum — so a frame is rejected for the
//! same reasons a cache blob would be: wrong magic, wrong version, length
//! mismatch, checksum mismatch. The key is the fingerprint of the payload
//! itself (the wire has no external key to compare against), which makes
//! every single-byte corruption detectable twice over.
//!
//! On top of the frame layer sit two small hand-rolled message codecs,
//! [`Request`] and [`Response`]. Both decode **fail-closed**: unknown tags,
//! truncated fields, out-of-range lengths, non-UTF-8 strings and trailing
//! bytes are all hard errors ([`WireError`]), never best-effort guesses.
//!
//! # Example
//!
//! ```
//! use stms_types::wire::{Request, RequestFormat};
//!
//! let req = Request::Run {
//!     figures: vec!["table2".to_string()],
//!     format: RequestFormat::Text,
//! };
//! let mut buf = Vec::new();
//! stms_types::wire::write_frame(&mut buf, &req.encode()).unwrap();
//! let payload = stms_types::wire::read_frame(&mut buf.as_slice()).unwrap().unwrap();
//! assert_eq!(Request::decode(&payload).unwrap(), req);
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::blob::{self, BlobError};
use crate::fingerprint::{Fingerprint, Fingerprinter};

/// Envelope codec version stamped on every serve frame. Version 2 dropped
/// the `stream_fallbacks` field from [`ServeCounters`].
pub const WIRE_CODEC_VERSION: u16 = 2;

/// Upper bound on the sealed length of a single frame.
///
/// A declared length above this is rejected *before* any allocation, so a
/// garbage length prefix cannot be used to balloon server memory.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Upper bound on the number of figure ids in one [`Request::Run`].
pub const MAX_FIGURE_IDS: usize = 4096;

const MIN_FRAME_LEN: usize = blob::HEADER_LEN + blob::CHECKSUM_LEN;

/// Why a frame or message failed to decode. Decoding is fail-closed: any
/// variant means the input was discarded, never partially applied.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The declared frame length exceeds [`MAX_FRAME_LEN`] (or is shorter
    /// than a sealed envelope can be).
    FrameLength {
        /// Declared sealed length in bytes.
        len: u64,
    },
    /// The sealed envelope failed to open (bad magic/version/checksum…).
    Envelope(BlobError),
    /// The envelope opened but its key is not the payload fingerprint.
    KeyMismatch {
        /// Key stamped in the envelope header.
        stamped: Fingerprint,
        /// Fingerprint recomputed over the received payload.
        computed: Fingerprint,
    },
    /// A message field ended before its declared length.
    Truncated {
        /// Which field was being read.
        what: &'static str,
    },
    /// The message tag byte does not name a known variant.
    UnknownTag {
        /// Offending tag value.
        tag: u8,
    },
    /// A length field exceeds its message-level bound.
    FieldTooLarge {
        /// Which field was being read.
        what: &'static str,
        /// Declared length.
        len: u64,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// Which field was being read.
        what: &'static str,
    },
    /// Bytes remained after the last field of the message.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameLength { len } => {
                write!(
                    f,
                    "frame length {len} outside [{MIN_FRAME_LEN}, {MAX_FRAME_LEN}]"
                )
            }
            WireError::Envelope(err) => write!(f, "frame envelope rejected: {err}"),
            WireError::KeyMismatch { stamped, computed } => write!(
                f,
                "frame key mismatch: stamped {} != computed {}",
                stamped.to_hex(),
                computed.to_hex()
            ),
            WireError::Truncated { what } => write!(f, "message truncated reading {what}"),
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::FieldTooLarge { what, len } => {
                write!(f, "field {what} too large ({len})")
            }
            WireError::BadUtf8 { what } => write!(f, "field {what} is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
        }
    }
}

impl Error for WireError {}

impl From<BlobError> for WireError {
    fn from(err: BlobError) -> Self {
        WireError::Envelope(err)
    }
}

fn payload_key(payload: &[u8]) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    fp.write_str("stms-wire-frame/v1");
    fp.write_bytes(payload);
    fp.finish()
}

/// Seal `payload` into a complete frame (length prefix included).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let sealed = blob::seal(WIRE_CODEC_VERSION, payload_key(payload), payload);
    debug_assert!(sealed.len() <= MAX_FRAME_LEN);
    let mut out = Vec::with_capacity(4 + sealed.len());
    out.extend_from_slice(
        &u32::try_from(sealed.len())
            .expect("frame fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&sealed);
    out
}

/// Open one sealed frame body (the bytes *after* the length prefix) and
/// return its verified payload.
pub fn open_frame(sealed: &[u8]) -> Result<&[u8], WireError> {
    if sealed.len() < MIN_FRAME_LEN || sealed.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameLength {
            len: sealed.len() as u64,
        });
    }
    let (stamped, payload) = blob::open_any(sealed, WIRE_CODEC_VERSION)?;
    let computed = payload_key(payload);
    if stamped != computed {
        return Err(WireError::KeyMismatch { stamped, computed });
    }
    Ok(payload)
}

/// Write one frame carrying `payload` to `w`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))
}

fn invalid(err: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

/// Read one frame from `r` and return its verified payload.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames). EOF *inside* a frame, an out-of-range length prefix, or an
/// envelope/key failure all surface as [`io::ErrorKind::InvalidData`] /
/// [`io::ErrorKind::UnexpectedEof`] errors.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "end of stream inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(invalid(WireError::FrameLength { len: len as u64 }));
    }
    let mut sealed = vec![0u8; len];
    r.read_exact(&mut sealed)?;
    let payload = open_frame(&sealed).map_err(invalid)?;
    Ok(Some(payload.to_vec()))
}

// ---------------------------------------------------------------------------
// Message field primitives.
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, u32::try_from(value.len()).expect("string fits u32"));
    out.extend_from_slice(value.as_bytes());
}

struct FieldReader<'a> {
    data: &'a [u8],
}

impl<'a> FieldReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        FieldReader { data }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.data.len() < n {
            return Err(WireError::Truncated { what });
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn take_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn take_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let raw = self.take(4, what)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    fn take_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let raw = self.take(8, what)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    fn take_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.take_u32(what)? as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::FieldTooLarge {
                what,
                len: len as u64,
            });
        }
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.data.len(),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// Output format requested for a [`Request::Run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestFormat {
    /// Stream one [`Response::Figure`] rendered table per figure.
    Text,
    /// Stream figures, then close with one [`Response::Document`] holding
    /// the pretty-printed JSON array the one-shot CLI would print.
    Json,
}

const TAG_REQ_PING: u8 = 0;
const TAG_REQ_RUN: u8 = 1;
const TAG_REQ_STATS: u8 = 2;
const TAG_REQ_SHUTDOWN: u8 = 3;
const TAG_REQ_METRICS: u8 = 4;

/// A client-to-server message. One request per connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Run the named figures and stream the results back.
    Run {
        /// Figure ids as accepted by `--figures` (including `all`).
        figures: Vec<String>,
        /// Requested response format.
        format: RequestFormat,
    },
    /// Report serving counters; answered with [`Response::Stats`].
    Stats,
    /// Ask the daemon to stop accepting and exit once idle.
    Shutdown,
    /// Report the daemon's full telemetry registry; answered with
    /// [`Response::Metrics`]. Like [`Request::Stats`], answered without
    /// taking an admission slot, so live introspection never competes with
    /// run traffic.
    Metrics,
}

impl Request {
    /// Encode to a message payload (to be wrapped by [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(TAG_REQ_PING),
            Request::Run { figures, format } => {
                out.push(TAG_REQ_RUN);
                out.push(match format {
                    RequestFormat::Text => 0,
                    RequestFormat::Json => 1,
                });
                put_u32(
                    &mut out,
                    u32::try_from(figures.len()).expect("figure count fits u32"),
                );
                for id in figures {
                    put_str(&mut out, id);
                }
            }
            Request::Stats => out.push(TAG_REQ_STATS),
            Request::Shutdown => out.push(TAG_REQ_SHUTDOWN),
            Request::Metrics => out.push(TAG_REQ_METRICS),
        }
        out
    }

    /// Decode a message payload produced by [`Request::encode`]. Fail-closed.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = FieldReader::new(payload);
        let req = match r.take_u8("request tag")? {
            TAG_REQ_PING => Request::Ping,
            TAG_REQ_RUN => {
                let format = match r.take_u8("run format")? {
                    0 => RequestFormat::Text,
                    1 => RequestFormat::Json,
                    tag => return Err(WireError::UnknownTag { tag }),
                };
                let count = r.take_u32("figure count")? as usize;
                if count > MAX_FIGURE_IDS {
                    return Err(WireError::FieldTooLarge {
                        what: "figure count",
                        len: count as u64,
                    });
                }
                let mut figures = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    figures.push(r.take_str("figure id")?);
                }
                Request::Run { figures, format }
            }
            TAG_REQ_STATS => Request::Stats,
            TAG_REQ_SHUTDOWN => Request::Shutdown,
            TAG_REQ_METRICS => Request::Metrics,
            tag => return Err(WireError::UnknownTag { tag }),
        };
        r.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// Serving counters returned by [`Response::Stats`].
///
/// The first block counts requests as the gate saw them; the second block
/// is the campaign's own view (in-flight dedup, memoization, trace store),
/// so a test can prove exactly-once replay from the outside.
///
/// Every field is **cumulative since daemon start and never reset**,
/// except the two instantaneous gate depths (`active_requests`,
/// `queued_requests`): two probes `t1 < t2` always satisfy
/// `counter(t1) <= counter(t2)`, and the daemon's shutdown summary is
/// derived from these same values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests received (all kinds).
    pub requests: u64,
    /// Run requests admitted past the gate.
    pub accepted: u64,
    /// Run requests refused because the queue was full.
    pub rejected: u64,
    /// Run requests abandoned by the client (disconnect / write failure).
    pub cancelled: u64,
    /// Figure frames streamed to clients.
    pub figures_streamed: u64,
    /// Jobs actually executed (singleflight leaders).
    pub jobs_executed: u64,
    /// Jobs that joined another client's in-flight execution.
    pub jobs_shared: u64,
    /// Jobs served from the result memo without executing.
    pub jobs_cached: u64,
    /// Traces generated by the trace store.
    pub traces_generated: u64,
    /// Streamed trace replays.
    pub stream_replays: u64,
    /// Run requests currently holding a gate slot.
    pub active_requests: u64,
    /// Run requests currently queued at the gate.
    pub queued_requests: u64,
}

impl ServeCounters {
    const FIELDS: usize = 12;

    fn encode_into(&self, out: &mut Vec<u8>) {
        for value in [
            self.requests,
            self.accepted,
            self.rejected,
            self.cancelled,
            self.figures_streamed,
            self.jobs_executed,
            self.jobs_shared,
            self.jobs_cached,
            self.traces_generated,
            self.stream_replays,
            self.active_requests,
            self.queued_requests,
        ] {
            put_u64(out, value);
        }
    }

    fn decode_from(r: &mut FieldReader<'_>) -> Result<Self, WireError> {
        let mut fields = [0u64; Self::FIELDS];
        for field in &mut fields {
            *field = r.take_u64("serve counter")?;
        }
        let [requests, accepted, rejected, cancelled, figures_streamed, jobs_executed, jobs_shared, jobs_cached, traces_generated, stream_replays, active_requests, queued_requests] =
            fields;
        Ok(ServeCounters {
            requests,
            accepted,
            rejected,
            cancelled,
            figures_streamed,
            jobs_executed,
            jobs_shared,
            jobs_cached,
            traces_generated,
            stream_replays,
            active_requests,
            queued_requests,
        })
    }
}

const TAG_RESP_PONG: u8 = 0;
const TAG_RESP_FIGURE: u8 = 1;
const TAG_RESP_FIGURE_ERROR: u8 = 2;
const TAG_RESP_DOCUMENT: u8 = 3;
const TAG_RESP_DONE: u8 = 4;
const TAG_RESP_REJECTED: u8 = 5;
const TAG_RESP_STATS: u8 = 6;
const TAG_RESP_SHUTTING_DOWN: u8 = 7;
const TAG_RESP_METRICS: u8 = 8;

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// One completed figure, rendered exactly as the one-shot CLI prints it.
    Figure {
        /// Zero-based position in the expanded figure selection.
        index: u32,
        /// Figure id.
        id: String,
        /// Rendered table, byte-identical to `FigureResult::render()`.
        body: String,
    },
    /// One figure that failed; the run continues.
    FigureError {
        /// Zero-based position in the expanded figure selection.
        index: u32,
        /// Figure id.
        id: String,
        /// Campaign error rendering.
        message: String,
    },
    /// The complete JSON document for a [`RequestFormat::Json`] run,
    /// byte-identical to the one-shot CLI's stdout (sans trailing newline).
    Document {
        /// Pretty-printed JSON array.
        body: String,
    },
    /// The run finished; always the final frame of a successful run.
    Done {
        /// Figures attempted.
        figures: u32,
        /// Figures that failed.
        failed: u32,
    },
    /// The request was refused (bad request or server at capacity).
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Answer to [`Request::Stats`].
    Stats(ServeCounters),
    /// Answer to [`Request::Shutdown`]; the daemon exits once idle.
    ShuttingDown,
    /// Answer to [`Request::Metrics`]: the daemon's telemetry registry as
    /// an `stms-metrics/v1` JSON document. Carried as opaque text so the
    /// snapshot schema can grow without another wire-codec bump.
    Metrics {
        /// Pretty-printed metrics snapshot JSON.
        json: String,
    },
}

impl Response {
    /// Encode to a message payload (to be wrapped by [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(TAG_RESP_PONG),
            Response::Figure { index, id, body } => {
                out.push(TAG_RESP_FIGURE);
                put_u32(&mut out, *index);
                put_str(&mut out, id);
                put_str(&mut out, body);
            }
            Response::FigureError { index, id, message } => {
                out.push(TAG_RESP_FIGURE_ERROR);
                put_u32(&mut out, *index);
                put_str(&mut out, id);
                put_str(&mut out, message);
            }
            Response::Document { body } => {
                out.push(TAG_RESP_DOCUMENT);
                put_str(&mut out, body);
            }
            Response::Done { figures, failed } => {
                out.push(TAG_RESP_DONE);
                put_u32(&mut out, *figures);
                put_u32(&mut out, *failed);
            }
            Response::Rejected { reason } => {
                out.push(TAG_RESP_REJECTED);
                put_str(&mut out, reason);
            }
            Response::Stats(counters) => {
                out.push(TAG_RESP_STATS);
                counters.encode_into(&mut out);
            }
            Response::ShuttingDown => out.push(TAG_RESP_SHUTTING_DOWN),
            Response::Metrics { json } => {
                out.push(TAG_RESP_METRICS);
                put_str(&mut out, json);
            }
        }
        out
    }

    /// Decode a message payload produced by [`Response::encode`]. Fail-closed.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = FieldReader::new(payload);
        let resp = match r.take_u8("response tag")? {
            TAG_RESP_PONG => Response::Pong,
            TAG_RESP_FIGURE => Response::Figure {
                index: r.take_u32("figure index")?,
                id: r.take_str("figure id")?,
                body: r.take_str("figure body")?,
            },
            TAG_RESP_FIGURE_ERROR => Response::FigureError {
                index: r.take_u32("figure index")?,
                id: r.take_str("figure id")?,
                message: r.take_str("figure error")?,
            },
            TAG_RESP_DOCUMENT => Response::Document {
                body: r.take_str("document body")?,
            },
            TAG_RESP_DONE => Response::Done {
                figures: r.take_u32("done figures")?,
                failed: r.take_u32("done failed")?,
            },
            TAG_RESP_REJECTED => Response::Rejected {
                reason: r.take_str("rejection reason")?,
            },
            TAG_RESP_STATS => Response::Stats(ServeCounters::decode_from(&mut r)?),
            TAG_RESP_SHUTTING_DOWN => Response::ShuttingDown,
            TAG_RESP_METRICS => Response::Metrics {
                json: r.take_str("metrics json")?,
            },
            tag => return Err(WireError::UnknownTag { tag }),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Frame and send one request.
pub fn send_request<W: Write>(w: &mut W, request: &Request) -> io::Result<()> {
    write_frame(w, &request.encode())
}

/// Receive and decode one request. `Ok(None)` means clean end-of-stream.
pub fn recv_request<R: Read>(r: &mut R) -> io::Result<Option<Request>> {
    match read_frame(r)? {
        Some(payload) => Request::decode(&payload).map(Some).map_err(invalid),
        None => Ok(None),
    }
}

/// Frame and send one response.
pub fn send_response<W: Write>(w: &mut W, response: &Response) -> io::Result<()> {
    write_frame(w, &response.encode())
}

/// Receive and decode one response. `Ok(None)` means clean end-of-stream.
pub fn recv_response<R: Read>(r: &mut R) -> io::Result<Option<Response>> {
    match read_frame(r)? {
        Some(payload) => Response::decode(&payload).map(Some).map_err(invalid),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let mut buf = Vec::new();
        send_request(&mut buf, req).unwrap();
        let got = recv_request(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(&got, req);
    }

    fn roundtrip_response(resp: &Response) {
        let mut buf = Vec::new();
        send_response(&mut buf, resp).unwrap();
        let got = recv_response(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(&got, resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Shutdown);
        roundtrip_request(&Request::Metrics);
        roundtrip_request(&Request::Run {
            figures: vec![],
            format: RequestFormat::Text,
        });
        roundtrip_request(&Request::Run {
            figures: vec!["table2".into(), "fig4".into(), "all".into()],
            format: RequestFormat::Json,
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(&Response::Pong);
        roundtrip_response(&Response::ShuttingDown);
        roundtrip_response(&Response::Figure {
            index: 3,
            id: "fig4".into(),
            body: "Figure 4\n=======\n".into(),
        });
        roundtrip_response(&Response::FigureError {
            index: 0,
            id: "table2".into(),
            message: "1 of 8 jobs failed".into(),
        });
        roundtrip_response(&Response::Document {
            body: "[\n  {}\n]".into(),
        });
        roundtrip_response(&Response::Done {
            figures: 13,
            failed: 1,
        });
        roundtrip_response(&Response::Rejected {
            reason: "server at capacity".into(),
        });
        roundtrip_response(&Response::Stats(ServeCounters {
            requests: 1,
            accepted: 2,
            rejected: 3,
            cancelled: 4,
            figures_streamed: 5,
            jobs_executed: 6,
            jobs_shared: 7,
            jobs_cached: 8,
            traces_generated: 9,
            stream_replays: 10,
            active_requests: 11,
            queued_requests: 12,
        }));
        roundtrip_response(&Response::Metrics {
            json: "{\n  \"schema\": \"stms-metrics/v1\"\n}\n".into(),
        });
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        assert!(recv_request(&mut [].as_slice()).unwrap().is_none());
        assert!(recv_response(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn eof_inside_frame_is_an_error() {
        let mut buf = Vec::new();
        send_request(&mut buf, &Request::Ping).unwrap();
        for cut in 1..buf.len() {
            let err = recv_request(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let err = recv_request(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn flipped_payload_byte_rejected() {
        let mut buf = Vec::new();
        send_response(
            &mut buf,
            &Response::Figure {
                index: 0,
                id: "table2".into(),
                body: "body".into(),
            },
        )
        .unwrap();
        for pos in 4..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            assert!(
                recv_response(&mut bad.as_slice()).is_err(),
                "flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_rejected() {
        assert_eq!(
            Request::decode(&[250]),
            Err(WireError::UnknownTag { tag: 250 })
        );
        assert_eq!(
            Response::decode(&[250]),
            Err(WireError::UnknownTag { tag: 250 })
        );
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        assert_eq!(
            Request::decode(&[]),
            Err(WireError::Truncated {
                what: "request tag"
            })
        );
    }

    #[test]
    fn figure_count_is_bounded() {
        let mut payload = vec![TAG_REQ_RUN, 0];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::FieldTooLarge {
                what: "figure count",
                ..
            })
        ));
    }
}
