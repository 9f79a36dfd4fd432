//! Protocol negotiation: which of the two wire formats a connection
//! speaks, and the format-sniffing response decoder both clients use.

use crate::frame;
use crate::proto::{Request, Response};

/// Which encoding a connection speaks. Negotiated per connection by
/// the first byte on the wire: [`frame::FRAME_MAGIC`] (a UTF-8
/// continuation byte no JSON line can start with) means v2 binary
/// frames, anything else means v1 JSON lines. The server auto-detects,
/// so old clients keep working against new daemons on the same port;
/// clients choose their send format and *sniff* every received message
/// the same way, so even a v1-encoded rejection (written before the
/// server saw a single client byte) decodes cleanly on a v2 client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// One JSON object per `\n`-terminated line (the original protocol).
    #[default]
    V1Json,
    /// Length-prefixed binary frames with correlation ids
    /// ([`crate::frame`]).
    V2Binary,
}

impl WireFormat {
    /// Stable label (CLI flags, bench phase names).
    pub fn label(self) -> &'static str {
        match self {
            WireFormat::V1Json => "v1",
            WireFormat::V2Binary => "v2",
        }
    }

    /// Parse a label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "v1" | "json" => Some(WireFormat::V1Json),
            "v2" | "binary" => Some(WireFormat::V2Binary),
            _ => None,
        }
    }

    /// Encode one request as a complete wire message (v1: the JSON line
    /// without its newline — transports add line framing; v2: an entire
    /// frame, header included). `corr_id` only exists on v2 frames.
    pub fn encode_request(self, request: &Request, corr_id: u64) -> Vec<u8> {
        match self {
            WireFormat::V1Json => request.to_line().into_bytes(),
            WireFormat::V2Binary => frame::encode_request(request, corr_id),
        }
    }

    /// Encode one response as a complete wire message.
    pub fn encode_response(self, response: &Response, corr_id: u64) -> Vec<u8> {
        match self {
            WireFormat::V1Json => response.to_line().into_bytes(),
            WireFormat::V2Binary => frame::encode_response(response, corr_id),
        }
    }

    /// Decode one received message into `(correlation id, response)`,
    /// sniffing the format from the first byte (v1 lines carry no
    /// correlation id and decode as 0). Format-independent on purpose:
    /// a server may answer an admission-time rejection in v1 before it
    /// has seen which protocol the client speaks.
    pub fn decode_response(msg: &[u8]) -> Result<(u64, Response), String> {
        if msg.first() == Some(&frame::FRAME_MAGIC) {
            let (f, used) = frame::Frame::decode(msg).map_err(|e| e.to_string())?;
            if used != msg.len() {
                return Err(format!("{} trailing bytes after frame", msg.len() - used));
            }
            if f.kind != frame::FrameKind::Response {
                return Err("peer sent a request frame where a response was expected".into());
            }
            let response = frame::decode_response_payload(&f.payload).map_err(|e| e.to_string())?;
            Ok((f.corr_id, response))
        } else {
            let line = String::from_utf8_lossy(msg);
            Response::from_line(&line).map(|r| (0, r))
        }
    }
}
