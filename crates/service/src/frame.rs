//! The v2 binary wire format: length-prefixed frames with correlation
//! ids, carrying a fixed-order binary encoding of the [`proto`] types.
//!
//! JSON-lines (v1) pays a parse per request and a `Display` per number;
//! at tens of thousands of requests per second the protocol dominates
//! the solver. v2 frames cut both directions to fixed-width reads:
//!
//! ```text
//! offset  size  field
//! 0       1     magic 0xB2
//! 1       1     frame version (2)
//! 2       1     kind (1 = request, 2 = response)
//! 3       8     correlation id, u64 LE
//! 11      4     payload length, u32 LE (≤ MAX_FRAME_BYTES)
//! 15      …     payload
//! ```
//!
//! The magic byte `0xB2` is a UTF-8 continuation byte, so it can never
//! begin a valid JSON line — a server (or client) can tell the two
//! protocols apart from the first byte of a connection or message and
//! keep speaking v1 to old peers on the same port.
//!
//! Payloads encode the [`Request`]/[`Response`] enums with a leading
//! u8 tag and fixed field order, generated from the field tables in
//! [`proto`] by the `schema` module (floats are bit-exact by construction
//! — the differential suite proves decoded v1 and v2 responses
//! identical). The decoder is total: any byte sequence yields a value
//! or a typed [`FrameError`], never a panic
//! (`tests/frame_properties.rs`), and the exact bytes are pinned by
//! golden fixtures (`tests/wire_golden.rs`).
//!
//! [`proto`]: crate::proto

// The header decoder must stay cast-clean too (see `schema`, which
// holds the payload reader).
#![deny(clippy::cast_possible_truncation)]

use crate::proto::{ErrorCode, ErrorResponse, Request, Response};
use crate::schema::{wire_len, Message, Reader};

/// First byte of every v2 frame; never the first byte of UTF-8 JSON.
pub const FRAME_MAGIC: u8 = 0xB2;

/// The binary frame format generation.
pub const FRAME_VERSION: u8 = 2;

/// Fixed frame header size (magic + version + kind + corr id + length).
pub const FRAME_HEADER_BYTES: usize = 15;

/// Longest payload a frame may carry — the binary twin of
/// [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES): a peer declaring
/// more gets a typed error, never an unbounded buffer.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    /// Stable wire byte.
    pub fn code(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    /// Parse a wire byte.
    pub fn from_code(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            _ => None,
        }
    }
}

/// Why bytes failed to decode as a frame (or as a frame's payload).
/// Every variant is a clean error — the decoder never panics and never
/// over-allocates on hostile input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet: `need` bytes would complete the frame.
    /// The only recoverable variant — a streaming reader waits for
    /// more; everything else means the stream is corrupt.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the frame needs (header, or header + declared payload).
        need: usize,
    },
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Declared payload length.
        len: usize,
    },
    /// The first byte is not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// The frame version byte is not [`FRAME_VERSION`].
    BadVersion(u8),
    /// The kind byte is not a known [`FrameKind`].
    BadKind(u8),
    /// The payload is structurally invalid (bad tag, short field,
    /// non-UTF-8 string, trailing bytes, out-of-range enum code).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_BYTES}")
            }
            FrameError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02X} (expected 0xB2)"),
            FrameError::BadVersion(v) => write!(
                f,
                "frame version {v} not supported (this peer speaks v{FRAME_VERSION})"
            ),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: header fields plus the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request or response.
    pub kind: FrameKind,
    /// Correlation id, echoed by the server so pipelined clients can
    /// match responses to in-flight requests.
    pub corr_id: u64,
    /// The encoded [`Request`]/[`Response`] payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encode header + payload into wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        encode_with(self.kind, self.corr_id, |w| {
            w.extend_from_slice(&self.payload)
        })
    }

    /// Decode one frame from the front of `buf`, returning it and the
    /// bytes consumed. [`FrameError::Truncated`] means "feed me more";
    /// any other error means the stream cannot be resynchronized.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.is_empty() {
            return Err(FrameError::Truncated {
                have: 0,
                need: FRAME_HEADER_BYTES,
            });
        }
        if buf[0] != FRAME_MAGIC {
            return Err(FrameError::BadMagic(buf[0]));
        }
        if buf.len() >= 2 && buf[1] != FRAME_VERSION {
            return Err(FrameError::BadVersion(buf[1]));
        }
        if buf.len() >= 3 && FrameKind::from_code(buf[2]).is_none() {
            return Err(FrameError::BadKind(buf[2]));
        }
        if buf.len() < FRAME_HEADER_BYTES {
            return Err(FrameError::Truncated {
                have: buf.len(),
                need: FRAME_HEADER_BYTES,
            });
        }
        let kind = FrameKind::from_code(buf[2]).expect("kind checked above");
        let corr_id = u64::from_le_bytes(buf[3..11].try_into().expect("8 header bytes"));
        let len = u32::from_le_bytes(buf[11..15].try_into().expect("4 header bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized { len });
        }
        let total = FRAME_HEADER_BYTES + len;
        if buf.len() < total {
            return Err(FrameError::Truncated {
                have: buf.len(),
                need: total,
            });
        }
        Ok((
            Frame {
                kind,
                corr_id,
                payload: buf[FRAME_HEADER_BYTES..total].to_vec(),
            },
            total,
        ))
    }

    /// The correlation id of a partial frame whose header has arrived,
    /// if the magic matches — lets a server echo the right id on an
    /// error response even when the rest of the frame is hopeless.
    pub fn peek_corr_id(buf: &[u8]) -> Option<u64> {
        if buf.len() >= FRAME_HEADER_BYTES && buf[0] == FRAME_MAGIC {
            Some(u64::from_le_bytes(
                buf[3..11].try_into().expect("8 header bytes"),
            ))
        } else {
            None
        }
    }
}

/// Header, then the payload `write` appends, then the length patched
/// into the header: one buffer, no intermediate payload copy.
fn encode_with(kind: FrameKind, corr_id: u64, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&[FRAME_MAGIC, FRAME_VERSION, kind.code()]);
    out.extend_from_slice(&corr_id.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    write(&mut out);
    let len = wire_len(out.len() - FRAME_HEADER_BYTES);
    out[FRAME_HEADER_BYTES - 4..FRAME_HEADER_BYTES].copy_from_slice(&len);
    out
}

/// Encode a request as a complete v2 frame.
pub fn encode_request(request: &Request, corr_id: u64) -> Vec<u8> {
    encode_with(FrameKind::Request, corr_id, |w| request.write(w))
}

/// Encode a response as a complete v2 frame.
pub fn encode_response(response: &Response, corr_id: u64) -> Vec<u8> {
    encode_with(FrameKind::Response, corr_id, |w| response.write(w))
}

/// The binary payload of a request (tag + fixed field order).
pub fn request_payload(request: &Request) -> Vec<u8> {
    let mut w = Vec::new();
    request.write(&mut w);
    w
}

/// The binary payload of a response (tag + fixed field order).
pub fn response_payload(response: &Response) -> Vec<u8> {
    let mut w = Vec::new();
    response.write(&mut w);
    w
}

/// Decode a request payload. Failures come back as a ready-to-send
/// [`ErrorResponse`] — the binary twin of [`Request::from_line`]: a
/// structural failure carries no id, a field out of bounds carries the
/// decoded id and the same message v1 reports.
pub fn decode_request_payload(payload: &[u8]) -> Result<Request, ErrorResponse> {
    let bad = |id: &str, message: String| ErrorResponse {
        id: id.to_string(),
        code: ErrorCode::BadRequest,
        message,
    };
    let request = Request::read(&mut Reader::new(payload)).map_err(|e| bad("", e.to_string()))?;
    request.check().map_err(|m| bad(request.id(), m.into()))?;
    Ok(request)
}

/// Decode a response payload (the client side) — the binary twin of
/// [`Response::from_line`].
pub fn decode_response_payload(payload: &[u8]) -> Result<Response, FrameError> {
    Response::read(&mut Reader::new(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        CalibSpec, HistSummary, JournalResponse, MapRequest, RemapDiffResponse, RemapRequest,
        StatsDetail, StatsResponse, TraceContext, TraceDumpResponse, WireTraceEvent, WireTrack,
    };
    use crate::schema::Wire;

    /// Raw payload bytes, field by field, for probing the decoder with
    /// layouts no encoder would produce.
    struct Writer {
        out: Vec<u8>,
    }

    impl Writer {
        fn new() -> Self {
            Self { out: Vec::new() }
        }
        fn u8(&mut self, x: u8) {
            x.write(&mut self.out);
        }
        fn bool(&mut self, x: bool) {
            Wire::write(&x, &mut self.out);
        }
        fn u32(&mut self, x: u32) {
            x.write(&mut self.out);
        }
        fn u64(&mut self, x: u64) {
            x.write(&mut self.out);
        }
        fn f64(&mut self, x: f64) {
            x.write(&mut self.out);
        }
        fn str(&mut self, s: &str) {
            s.to_string().write(&mut self.out);
        }
        fn usize_arr(&mut self, xs: &[usize]) {
            xs.to_vec().write(&mut self.out);
        }
    }

    fn sample_map_request() -> Request {
        let mut m = MapRequest::new("r1", "src,dst,bytes,msgs\n0,1,5,2\n");
        m.ranks = Some(16);
        m.constraints_csv = Some("process,site\n0,3\n".into());
        m.algorithm = "mpipp".into();
        m.seed = 99;
        m.deadline_ms = Some(250);
        m.reserve = true;
        m.idempotency_key = Some("key-1".into());
        Request::Map(m)
    }

    #[test]
    fn frame_roundtrips_header_and_payload() {
        let frame = Frame {
            kind: FrameKind::Request,
            corr_id: 0xDEAD_BEEF_CAFE_F00D,
            payload: vec![1, 2, 3],
        };
        let bytes = frame.encode();
        assert_eq!(bytes[0], FRAME_MAGIC);
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, frame);
    }

    #[test]
    fn truncated_frames_say_how_much_they_need() {
        let bytes = encode_request(
            &Request::Stats {
                id: "s".into(),
                detail: false,
            },
            7,
        );
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(FrameError::Truncated { have, need }) => {
                    assert_eq!(have, cut);
                    assert!(need <= bytes.len());
                }
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn requests_roundtrip_through_payload_codec() {
        for req in [
            sample_map_request(),
            Request::Release {
                id: "a".into(),
                lease: 7,
            },
            Request::Stats {
                id: "b".into(),
                detail: false,
            },
            Request::Stats {
                id: "b2".into(),
                detail: true,
            },
            Request::Shutdown { id: "c".into() },
            Request::Journal {
                id: "d".into(),
                key: "client-7/42".into(),
            },
            Request::TraceDump { id: "t".into() },
        ] {
            let back = decode_request_payload(&request_payload(&req)).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn traced_map_request_roundtrips_and_extends_the_plain_bytes() {
        let Request::Map(plain) = sample_map_request() else {
            panic!("not a map request")
        };
        let mut traced = plain.clone();
        traced.trace = Some(TraceContext {
            trace_id: 0x1234_5678,
            parent_span: 9,
            sampled: false,
        });
        let plain_bytes = request_payload(&Request::Map(plain));
        let traced_bytes = request_payload(&Request::Map(traced.clone()));
        // The extension is strictly trailing: the traced payload begins
        // with the byte-identical plain payload.
        assert_eq!(&traced_bytes[..plain_bytes.len()], &plain_bytes[..]);
        assert_eq!(traced_bytes.len(), plain_bytes.len() + 1 + 8 + 8 + 1);
        let back = decode_request_payload(&traced_bytes).unwrap();
        assert_eq!(back, Request::Map(traced));
    }

    #[test]
    fn unknown_trace_extension_marker_is_malformed() {
        let Request::Map(m) = sample_map_request() else {
            panic!("not a map request")
        };
        let mut bytes = request_payload(&Request::Map(m));
        bytes.push(42); // not TRACE_EXT_MARKER
        let err = decode_request_payload(&bytes).unwrap_err();
        assert!(err.message.contains("extension marker"), "{}", err.message);
    }

    #[test]
    fn detailed_stats_response_roundtrips() {
        let resp = Response::Stats(StatsResponse {
            id: "s".into(),
            served: 5,
            misses: 5,
            free_nodes: vec![3, 1],
            active_leases: 2,
            detail: Some(StatsDetail {
                hist_schema: crate::hist::SCHEMA_VERSION,
                queue_depth: 1,
                max_queue_depth: 7,
                leased_nodes: vec![0, 2],
                hists: vec![
                    HistSummary {
                        name: "map_e2e".into(),
                        count: 3,
                        sum_us: 900,
                        min_us: Some(100),
                        max_us: Some(500),
                        p50_us: 303,
                        p90_us: 511,
                        p99_us: 511,
                        p999_us: 511,
                        buckets: vec![(52, 1), (64, 2)],
                    },
                    HistSummary::default(),
                ],
                shards: 3,
            }),
            ..StatsResponse::default()
        });
        let back = decode_response_payload(&response_payload(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn plain_stats_response_has_no_trailing_extension() {
        let base = StatsResponse {
            id: "s".into(),
            served: 1,
            free_nodes: vec![4],
            ..StatsResponse::default()
        };
        let plain_bytes = response_payload(&Response::Stats(base.clone()));
        let detailed = StatsResponse {
            detail: Some(StatsDetail::default()),
            ..base
        };
        let detailed_bytes = response_payload(&Response::Stats(detailed));
        assert_eq!(&detailed_bytes[..plain_bytes.len()], &plain_bytes[..]);
        assert!(detailed_bytes.len() > plain_bytes.len());
    }

    #[test]
    fn trace_dump_response_roundtrips() {
        let resp = Response::TraceDump(TraceDumpResponse {
            id: "td".into(),
            now_s: 2.25,
            dropped: 1,
            tracks: vec![
                WireTrack {
                    track: 0,
                    process: "service".into(),
                    name: "worker-0".into(),
                },
                WireTrack {
                    track: 1,
                    process: "solver".into(),
                    name: "geo".into(),
                },
            ],
            events: vec![
                WireTraceEvent {
                    track: 0,
                    name: "request".into(),
                    kind: WireTraceEvent::SPAN_BEGIN,
                    ts_s: 0.5,
                    value: 77.0,
                },
                WireTraceEvent {
                    track: 0,
                    name: "request".into(),
                    kind: WireTraceEvent::SPAN_END,
                    ts_s: 0.9,
                    value: 0.0,
                },
            ],
        });
        let back = decode_response_payload(&response_payload(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn hostile_trace_dump_counts_are_errors_not_allocations() {
        let mut w = Writer::new();
        w.u8(7); // trace dump response tag
        w.str("id");
        w.f64(0.0);
        w.u64(0);
        w.out.extend_from_slice(&u32::MAX.to_le_bytes()); // track count
        assert!(matches!(
            decode_response_payload(&w.out),
            Err(FrameError::Malformed(_))
        ));
        let mut w = Writer::new();
        w.u8(7);
        w.str("id");
        w.f64(0.0);
        w.u64(0);
        w.u32(0); // no tracks
        w.out.extend_from_slice(&u32::MAX.to_le_bytes()); // event count
        assert!(matches!(
            decode_response_payload(&w.out),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn remap_messages_roundtrip_through_payload_codec() {
        let mut req = RemapRequest::new("rm", "src,dst,bytes,msgs\n0,1,5,2\n", vec![0, 1, 1, 0]);
        req.constraints_csv = Some("process,site\n0,0\n".into());
        req.budget = Some(2);
        req.alpha = 0.5;
        req.lease = Some(9);
        for request in [
            Request::Remap(req),
            Request::Remap(RemapRequest::new("rm2", "src,dst,bytes,msgs\n", vec![0])),
        ] {
            let back = decode_request_payload(&request_payload(&request)).unwrap();
            assert_eq!(back, request);
        }
        let resp = Response::RemapDiff(RemapDiffResponse {
            id: "rm".into(),
            mapping: vec![1, 1, 0, 0],
            moved: vec![0, 2],
            old_cost: 9.5,
            new_cost: 7.25,
            migrations: 2,
            lease: Some(3),
            free_nodes: vec![2, 2],
        });
        let back = decode_response_payload(&response_payload(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn remap_validation_failures_echo_the_decoded_id() {
        let m = RemapRequest::new("rm-bad", "src,dst,bytes,msgs\n", vec![]);
        let err = decode_request_payload(&request_payload(&Request::Remap(m))).unwrap_err();
        assert_eq!(err.id, "rm-bad");
        assert_eq!(err.message, "remap request needs a non-empty mapping");
    }

    #[test]
    fn journal_responses_roundtrip_through_payload_codec() {
        for resp in [
            Response::Journal(JournalResponse {
                id: "j1".into(),
                key: "auto-00ff-3".into(),
                held: true,
                lease: Some(12),
                site_counts: vec![2, 0, 1],
            }),
            Response::Journal(JournalResponse {
                id: "j2".into(),
                key: "gone".into(),
                held: false,
                lease: None,
                site_counts: vec![],
            }),
        ] {
            let back = decode_response_payload(&response_payload(&resp)).unwrap();
            assert_eq!(back, resp);
        }
    }

    /// Writes a map-request payload whose `samples` field carries an
    /// arbitrary raw u64 — bypassing `MapRequest`'s `usize` fields so
    /// the decoder can be probed at (and past) the usize boundary.
    fn map_payload_with_samples(samples: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(1); // map request tag
        w.str("edge");
        w.str("src,dst,bytes,msgs\n");
        w.u8(0); // ranks: absent
        w.u8(0); // constraints: absent
        w.str("geo");
        w.u64(0x5C17); // seed
        w.u64(4); // kappa
        w.u64(samples);
        let d = CalibSpec::default();
        w.u64(d.days as u64);
        w.u64(d.probes_per_day as u64);
        w.f64(d.noise_cv);
        w.f64(d.loss_rate);
        w.u64(d.seed);
        w.u8(0); // deadline: absent
        w.bool(false); // reserve
        w.u8(0); // lease_ttl: absent
        w.bool(true); // cache
        w.u8(0); // idem: absent
        w.out
    }

    #[test]
    fn u64_fields_decode_exactly_at_the_usize_boundary() {
        // usize::MAX itself must decode without wrapping on every
        // target — the old `as usize` path happened to be right here,
        // but only because the test ran on 64-bit.
        let max = usize::MAX as u64;
        let Request::Map(m) = decode_request_payload(&map_payload_with_samples(max)).unwrap()
        else {
            panic!("not a map request")
        };
        assert_eq!(m.samples, usize::MAX);
    }

    #[test]
    fn u64_fields_past_usize_are_malformed_not_wrapped() {
        // On 32-bit targets usize::MAX + 1 exists as a u64 and used to
        // silently wrap to 0; now it is a typed decode error. On 64-bit
        // no such value exists and the check is vacuous (checked_add
        // returns None), which is exactly the point: the error path is
        // target-dependent, the no-wrap guarantee is not.
        if let Some(over) = (usize::MAX as u64).checked_add(1) {
            let err = decode_request_payload(&map_payload_with_samples(over)).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(
                err.message.contains("does not fit usize"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn array_entries_past_usize_are_malformed_not_wrapped() {
        if usize::try_from(u64::MAX).is_ok() {
            return; // 64-bit: every u64 fits, nothing to refuse
        }
        let mut w = Writer::new();
        w.u8(2); // release response tag
        w.str("id");
        w.out.extend_from_slice(&1u32.to_le_bytes()); // freed: 1 entry
        w.out.extend_from_slice(&u64::MAX.to_le_bytes());
        w.usize_arr(&[]); // free_nodes
        assert!(matches!(
            decode_response_payload(&w.out),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_declared_payload_is_refused_without_buffering() {
        let mut bytes = encode_request(
            &Request::Stats {
                id: "s".into(),
                detail: false,
            },
            0,
        );
        let over = u32::try_from(MAX_FRAME_BYTES).expect("frame bound fits u32") + 1;
        bytes[11..15].copy_from_slice(&over.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn validation_failures_echo_the_decoded_id() {
        let mut m = MapRequest::new("the-id", "src,dst,bytes,msgs\n");
        m.calibration.loss_rate = 1.5;
        let err = decode_request_payload(&request_payload(&Request::Map(m))).unwrap_err();
        assert_eq!(err.id, "the-id");
        assert_eq!(err.message, "calibration loss must be in [0, 1)");
    }

    #[test]
    fn hostile_array_count_is_an_error_not_an_allocation() {
        let mut w = Writer::new();
        w.u8(1); // map response tag
        w.str("id");
        w.out.extend_from_slice(&u32::MAX.to_le_bytes()); // mapping count
        assert!(matches!(
            decode_response_payload(&w.out),
            Err(FrameError::Malformed(_))
        ));
    }
}
