//! The transport seam: how request/response messages travel, separated
//! from *what* they mean — so failure can be injected deterministically.
//!
//! The daemon speaks two wire formats on one port — v1 JSON lines and
//! v2 binary frames ([`crate::frame`]), told apart by the first byte.
//! Everything the client layer needs from a connection is "send one
//! complete message, receive one complete message", where a message is
//! a JSON line (newline excluded — line framing belongs to the
//! transport) or an entire binary frame. This module pins that down as
//! the [`Transport`] trait plus a [`Connector`] that makes transports
//! and knows which [`WireFormat`] to encode requests in, with three
//! implementations:
//!
//! * [`TcpTransport`] / [`TcpConnector`] — the real thing, extracted
//!   from [`ServiceClient`](crate::client::ServiceClient);
//! * [`LoopbackTransport`] / [`LoopbackConnector`] — an in-process
//!   "wire" that feeds messages straight into a [`MappingService`]; no
//!   sockets, no threads, fully deterministic;
//! * [`FaultyTransport`] / [`FaultyConnector`] — a wrapper around any
//!   of the above that injects failures scripted by a [`FaultPlan`]:
//!   connect refusal, read/write timeout, partial write, garbled
//!   message, mid-response disconnect, injected latency.
//!
//! Because the seam carries raw message bytes, every fault applies to
//! both protocols unchanged: a garbled v1 line fails JSON parsing, a
//! garbled v2 frame fails frame decoding, and the client classifies
//! both the same way. Every fault comes from the plan — a fixed script
//! or a seeded stream from the vendored deterministic RNG — and time is
//! *virtual*: the plan carries a millisecond clock that injected
//! latency and retry backoff advance, so a chaos run with thousands of
//! timeouts finishes in microseconds of wall time and is bit-identical
//! across runs.
//!
//! Error classification matters for retry safety. A
//! [`TransportError::Unreachable`] means the request provably never
//! reached the server; [`TransportError::SendUnknown`] and
//! [`TransportError::ResponseLost`] are *ambiguous* — the server may
//! have applied the request (reserved inventory!) before the failure,
//! which is exactly why retried `map` requests carry an idempotency key
//! (see [`crate::client::RetryingClient`]).

use crate::frame::{Frame, FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_BYTES};
use crate::proto::Request;
use crate::service::MappingService;
use crate::wire::WireFormat;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Why a transport operation failed, classified by what the client may
/// safely conclude about the request's fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No connection could be established: the request was never sent.
    /// Retrying cannot duplicate work.
    Unreachable(String),
    /// The send failed partway (write error, timeout, partial write):
    /// the server may or may not have received a complete request.
    SendUnknown(String),
    /// The request was sent but no usable response arrived (timeout,
    /// disconnect, lost bytes): the server most likely *did* process it.
    ResponseLost(String),
}

impl TransportError {
    /// True when the server may have applied the request even though
    /// the client saw a failure — the case only idempotency makes
    /// retry-safe.
    pub fn is_ambiguous(&self) -> bool {
        !matches!(self, TransportError::Unreachable(_))
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable(m)
            | TransportError::SendUnknown(m)
            | TransportError::ResponseLost(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One bidirectional message channel to a mapping service. A message
/// is one complete wire unit: a JSON line without its newline, or an
/// entire binary frame (header + payload).
pub trait Transport {
    /// Send one request message.
    fn send_msg(&mut self, msg: &[u8]) -> Result<(), TransportError>;
    /// Receive one response message.
    fn recv_msg(&mut self) -> Result<Vec<u8>, TransportError>;
}

/// Makes transports, and owns how a retrying client waits between
/// attempts — the faulty connector advances the plan's virtual clock
/// instead of sleeping, keeping chaos tests instant and wall-clock-free.
pub trait Connector {
    /// The transport this connector produces.
    type Conn: Transport;
    /// Establish a fresh connection.
    fn connect(&mut self) -> Result<Self::Conn, TransportError>;
    /// The format requests should be encoded in on this connector's
    /// transports (responses are always sniffed from their first byte).
    fn format(&self) -> WireFormat {
        WireFormat::V1Json
    }
    /// Wait out a retry backoff pause.
    fn backoff(&mut self, pause: Duration) {
        std::thread::sleep(pause);
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// The real transport: a connected TCP stream. Sends messages in its
/// configured [`WireFormat`] (adding the `\n` for v1 lines); receives
/// by sniffing each message's first byte, so mixed responses — e.g. a
/// v1-encoded admission rejection answered before the server saw any
/// client byte — still frame correctly.
#[derive(Debug)]
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    format: WireFormat,
}

impl TcpTransport {
    /// Connect to `addr` (host:port) speaking v1 JSON lines. `timeout`
    /// bounds the connection attempt and every subsequent read/write —
    /// the per-attempt deadline (`None`: OS defaults).
    pub fn connect(addr: &str, timeout: Option<Duration>) -> Result<Self, TransportError> {
        Self::connect_with(addr, timeout, WireFormat::V1Json)
    }

    /// Connect speaking `format`.
    pub fn connect_with(
        addr: &str,
        timeout: Option<Duration>,
        format: WireFormat,
    ) -> Result<Self, TransportError> {
        let unreachable = |m: String| TransportError::Unreachable(m);
        let resolved: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| unreachable(format!("cannot resolve {addr:?}: {e}")))?
            .collect();
        let mut last_err = unreachable(format!("{addr:?} resolved to no addresses"));
        for candidate in resolved {
            let attempt = match timeout {
                Some(t) => TcpStream::connect_timeout(&candidate, t),
                None => TcpStream::connect(candidate),
            };
            match attempt {
                Ok(stream) => {
                    // No Nagle: a request (or a pipelined batch) leaves
                    // in one write and must not wait for the ACK of the
                    // previous one.
                    stream
                        .set_nodelay(true)
                        .and_then(|()| stream.set_read_timeout(timeout))
                        .and_then(|()| stream.set_write_timeout(timeout))
                        .map_err(|e| unreachable(format!("cannot configure socket: {e}")))?;
                    let writer = stream
                        .try_clone()
                        .map_err(|e| unreachable(format!("cannot clone socket: {e}")))?;
                    return Ok(Self {
                        reader: BufReader::new(stream),
                        writer,
                        format,
                    });
                }
                Err(e) => last_err = unreachable(format!("cannot connect to {candidate}: {e}")),
            }
        }
        Err(last_err)
    }

    /// The format requests are encoded in on this connection.
    pub fn format(&self) -> WireFormat {
        self.format
    }
}

impl Transport for TcpTransport {
    fn send_msg(&mut self, msg: &[u8]) -> Result<(), TransportError> {
        let send = |w: &mut TcpStream, bytes: &[u8]| w.write_all(bytes).and_then(|()| w.flush());
        let outcome = match self.format {
            WireFormat::V1Json => {
                let mut framed = Vec::with_capacity(msg.len() + 1);
                framed.extend_from_slice(msg);
                framed.push(b'\n');
                send(&mut self.writer, &framed)
            }
            // v2 frames carry their own length prefix.
            WireFormat::V2Binary => send(&mut self.writer, msg),
        };
        outcome.map_err(|e| TransportError::SendUnknown(format!("cannot send request: {e}")))
    }

    fn recv_msg(&mut self) -> Result<Vec<u8>, TransportError> {
        let lost = |m: String| TransportError::ResponseLost(m);
        let first = loop {
            match self.reader.fill_buf() {
                Ok([]) => {
                    return Err(lost(
                        "server closed the connection without responding".into(),
                    ))
                }
                Ok(buf) => break buf[0],
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(lost(format!("cannot read response: {e}"))),
            }
        };
        if first == FRAME_MAGIC {
            let mut header = [0u8; FRAME_HEADER_BYTES];
            self.reader
                .read_exact(&mut header)
                .map_err(|e| lost(format!("cannot read frame header: {e}")))?;
            let len =
                u32::from_le_bytes(header[11..15].try_into().expect("4 header bytes")) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(lost(format!(
                    "frame payload of {len} bytes exceeds {MAX_FRAME_BYTES}"
                )));
            }
            let mut msg = Vec::with_capacity(FRAME_HEADER_BYTES + len);
            msg.extend_from_slice(&header);
            msg.resize(FRAME_HEADER_BYTES + len, 0);
            self.reader
                .read_exact(&mut msg[FRAME_HEADER_BYTES..])
                .map_err(|e| lost(format!("cannot read frame payload: {e}")))?;
            Ok(msg)
        } else {
            let mut reply = Vec::new();
            match self.reader.read_until(b'\n', &mut reply) {
                Ok(0) => Err(lost(
                    "server closed the connection without responding".into(),
                )),
                Ok(_) => {
                    while reply.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                        reply.pop();
                    }
                    Ok(reply)
                }
                Err(e) => Err(lost(format!("cannot read response: {e}"))),
            }
        }
    }
}

/// Connector producing [`TcpTransport`]s to one address.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    addr: String,
    timeout: Option<Duration>,
    format: WireFormat,
}

impl TcpConnector {
    /// Connector for `addr` speaking v1 JSON lines; `timeout` is the
    /// per-attempt deadline applied to connect and every read/write.
    pub fn new(addr: impl Into<String>, timeout: Option<Duration>) -> Self {
        Self {
            addr: addr.into(),
            timeout,
            format: WireFormat::V1Json,
        }
    }

    /// The same connector speaking `format`.
    pub fn with_format(mut self, format: WireFormat) -> Self {
        self.format = format;
        self
    }
}

impl Connector for TcpConnector {
    type Conn = TcpTransport;

    fn connect(&mut self) -> Result<TcpTransport, TransportError> {
        TcpTransport::connect_with(&self.addr, self.timeout, self.format)
    }

    fn format(&self) -> WireFormat {
        self.format
    }
}

// ---------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------

/// An in-process transport: messages go straight into a
/// [`MappingService`], responses queue up for `recv_msg`. The service
/// side effects (inventory reservations, cache fills, counters) happen
/// at *send* time — exactly the window a lost response leaves open on a
/// real network, which is what the fault matrix needs to reproduce.
/// Sniffs each message's format like the real server, so one loopback
/// serves both protocols.
#[derive(Debug)]
pub struct LoopbackTransport {
    service: Arc<MappingService>,
    pending: VecDeque<Vec<u8>>,
}

impl Transport for LoopbackTransport {
    fn send_msg(&mut self, msg: &[u8]) -> Result<(), TransportError> {
        let reply = if msg.first() == Some(&FRAME_MAGIC) {
            match Frame::decode(msg) {
                Ok((f, _)) => {
                    let response = match crate::frame::decode_request_payload(&f.payload) {
                        Ok(req) => self.service.handle(&req),
                        Err(bad) => self.service.reject(&bad.id, bad.code, bad.message),
                    };
                    crate::frame::encode_response(&response, f.corr_id)
                }
                Err(e) => {
                    let bad =
                        self.service
                            .reject("", crate::proto::ErrorCode::BadRequest, e.to_string());
                    crate::frame::encode_response(&bad, 0)
                }
            }
        } else {
            let line = String::from_utf8_lossy(msg);
            let response = match Request::from_line(&line) {
                Ok(req) => self.service.handle(&req),
                Err(bad) => self.service.reject(&bad.id, bad.code, bad.message),
            };
            response.to_line().into_bytes()
        };
        self.pending.push_back(reply);
        Ok(())
    }

    fn recv_msg(&mut self) -> Result<Vec<u8>, TransportError> {
        self.pending
            .pop_front()
            .ok_or_else(|| TransportError::ResponseLost("no pending response on loopback".into()))
    }
}

/// Connector producing [`LoopbackTransport`]s onto one service.
#[derive(Debug, Clone)]
pub struct LoopbackConnector {
    service: Arc<MappingService>,
    format: WireFormat,
}

impl LoopbackConnector {
    /// Loopback onto `service`, speaking v1 JSON lines.
    pub fn new(service: Arc<MappingService>) -> Self {
        Self {
            service,
            format: WireFormat::V1Json,
        }
    }

    /// The same connector speaking `format`.
    pub fn with_format(mut self, format: WireFormat) -> Self {
        self.format = format;
        self
    }
}

impl Connector for LoopbackConnector {
    type Conn = LoopbackTransport;

    fn connect(&mut self) -> Result<LoopbackTransport, TransportError> {
        Ok(LoopbackTransport {
            service: Arc::clone(&self.service),
            pending: VecDeque::new(),
        })
    }

    fn format(&self) -> WireFormat {
        self.format
    }

    fn backoff(&mut self, _pause: Duration) {
        // Nothing to wait for in-process.
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// One failure to inject into one client attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Let the attempt through untouched.
    None,
    /// Refuse the connection (unambiguous: the request never left).
    ConnectRefused,
    /// The request write times out; delivery unknown.
    WriteTimeout,
    /// Only a prefix of the request message leaves; delivery unknown.
    PartialWrite,
    /// The request is delivered and processed, but the response read
    /// times out — the classic double-reservation window.
    ReadTimeout,
    /// The response arrives corrupted (bit rot / framing damage); the
    /// request was processed.
    GarbledResponse,
    /// The peer disconnects after processing, mid-response.
    DisconnectMidResponse,
    /// The response is delayed by this many *virtual* milliseconds; if
    /// the delay exceeds the attempt budget the response counts as
    /// lost (the request was still processed).
    Latency(u64),
}

impl Fault {
    /// Stable label (fault-matrix logs and bit-identity assertions).
    pub fn label(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::ConnectRefused => "connect_refused",
            Fault::WriteTimeout => "write_timeout",
            Fault::PartialWrite => "partial_write",
            Fault::ReadTimeout => "read_timeout",
            Fault::GarbledResponse => "garbled_response",
            Fault::DisconnectMidResponse => "disconnect_mid_response",
            Fault::Latency(_) => "latency",
        }
    }
}

#[derive(Debug)]
struct PlanState {
    steps: VecDeque<Fault>,
    /// The fault governing the attempt currently in flight, pulled at
    /// connect/send and consumed by the operation it fires on.
    armed: Option<Fault>,
    clock_ms: u64,
    injected: Vec<&'static str>,
}

/// A deterministic schedule of faults, one per client *attempt*, shared
/// between a [`FaultyConnector`] and the transports it makes. When the
/// schedule runs out, everything passes through clean — so a script of
/// `[ReadTimeout]` means "first attempt loses its response, retries
/// succeed".
#[derive(Debug)]
pub struct FaultPlan {
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// A fixed script of per-attempt faults.
    pub fn script(steps: impl IntoIterator<Item = Fault>) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(PlanState {
                steps: steps.into_iter().collect(),
                armed: None,
                clock_ms: 0,
                injected: Vec::new(),
            }),
        })
    }

    /// A seeded random schedule from the vendored deterministic RNG:
    /// `attempts` steps, each faulty with probability `fault_rate`
    /// (uniform over the seven fault kinds; latency draws 1–2000 virtual
    /// ms). Same seed, same schedule, forever.
    pub fn seeded(seed: u64, attempts: usize, fault_rate: f64) -> Arc<Self> {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        assert!((0.0..=1.0).contains(&fault_rate), "fault rate in [0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = (0..attempts)
            .map(|_| {
                if !rng.random_bool(fault_rate) {
                    return Fault::None;
                }
                match rng.random_range(0..7u32) {
                    0 => Fault::ConnectRefused,
                    1 => Fault::WriteTimeout,
                    2 => Fault::PartialWrite,
                    3 => Fault::ReadTimeout,
                    4 => Fault::GarbledResponse,
                    5 => Fault::DisconnectMidResponse,
                    _ => Fault::Latency(rng.random_range(1..2000u64)),
                }
            })
            .collect::<Vec<_>>();
        Self::script(steps)
    }

    /// Arm the next scheduled fault for a fresh attempt (idempotent
    /// while one is already armed).
    fn arm(&self) -> Fault {
        let mut s = self.state.lock().expect("fault plan lock");
        if let Some(f) = s.armed {
            return f;
        }
        let f = s.steps.pop_front().unwrap_or(Fault::None);
        s.armed = Some(f);
        f
    }

    /// Drop the armed fault without recording it as injected: the
    /// attempt died in the inner layer before the fault could fire, and
    /// a fault that never fired must not carry into the next attempt
    /// (that would skew the one-fault-per-attempt schedule).
    fn disarm(&self) {
        self.state.lock().expect("fault plan lock").armed = None;
    }

    /// Consume the armed fault: the operation it fires on has run.
    fn consume(&self) -> Fault {
        let mut s = self.state.lock().expect("fault plan lock");
        let f = s.armed.take().unwrap_or(Fault::None);
        if f != Fault::None {
            s.injected.push(f.label());
        }
        f
    }

    fn advance_clock(&self, ms: u64) {
        self.state.lock().expect("fault plan lock").clock_ms += ms;
    }

    /// The virtual clock: injected latency plus retry backoff, in ms.
    pub fn virtual_elapsed_ms(&self) -> u64 {
        self.state.lock().expect("fault plan lock").clock_ms
    }

    /// Labels of every fault actually injected, in order — a
    /// deterministic trace two same-seed runs can be compared on.
    pub fn injected(&self) -> Vec<&'static str> {
        self.state.lock().expect("fault plan lock").injected.clone()
    }
}

/// A [`Connector`] that injects the plan's faults into every attempt
/// and serves retry backoff from the virtual clock (no sleeping).
#[derive(Debug)]
pub struct FaultyConnector<C: Connector> {
    inner: C,
    plan: Arc<FaultPlan>,
    attempt_budget_ms: Option<u64>,
}

impl<C: Connector> FaultyConnector<C> {
    /// Wrap `inner`, drawing one fault per attempt from `plan`.
    pub fn new(inner: C, plan: Arc<FaultPlan>) -> Self {
        Self {
            inner,
            plan,
            attempt_budget_ms: None,
        }
    }

    /// Injected latency above this budget turns into a lost response
    /// (the virtual per-attempt deadline).
    pub fn with_attempt_budget(mut self, budget: Duration) -> Self {
        self.attempt_budget_ms = Some(budget.as_millis() as u64);
        self
    }
}

impl<C: Connector> Connector for FaultyConnector<C> {
    type Conn = FaultyTransport<C::Conn>;

    fn connect(&mut self) -> Result<Self::Conn, TransportError> {
        if self.plan.arm() == Fault::ConnectRefused {
            self.plan.consume();
            return Err(TransportError::Unreachable(
                "injected fault: connection refused".into(),
            ));
        }
        let inner = match self.inner.connect() {
            Ok(conn) => conn,
            Err(e) => {
                // The inner connector failed on its own; the armed fault
                // never fired and must not leak into the next attempt.
                self.plan.disarm();
                return Err(e);
            }
        };
        Ok(FaultyTransport {
            inner,
            plan: Arc::clone(&self.plan),
            attempt_budget_ms: self.attempt_budget_ms,
        })
    }

    fn format(&self) -> WireFormat {
        self.inner.format()
    }

    fn backoff(&mut self, pause: Duration) {
        // Chaos time is virtual: account for the pause, don't take it.
        self.plan.advance_clock(pause.as_millis() as u64);
    }
}

/// A [`Transport`] wrapper applying the armed fault of the current
/// attempt at the operation it targets. Operates on raw message bytes,
/// so the same chaos scripts cover v1 lines and v2 frames.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: Arc<FaultPlan>,
    attempt_budget_ms: Option<u64>,
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send_msg(&mut self, msg: &[u8]) -> Result<(), TransportError> {
        match self.plan.arm() {
            Fault::WriteTimeout => {
                self.plan.consume();
                Err(TransportError::SendUnknown(
                    "injected fault: write timed out".into(),
                ))
            }
            Fault::PartialWrite => {
                // The prefix never forms a complete message (a split
                // line, or a split length prefix), so the server never
                // processes anything: nothing is delivered inward.
                self.plan.consume();
                Err(TransportError::SendUnknown(format!(
                    "injected fault: partial write ({} of {} bytes)",
                    msg.len() / 2,
                    msg.len() + 1
                )))
            }
            Fault::ConnectRefused => {
                // Armed on a reused connection (no connect happened):
                // the peer already closed it under us.
                self.plan.consume();
                Err(TransportError::SendUnknown(
                    "injected fault: connection closed by peer".into(),
                ))
            }
            // Receive-side faults stay armed; the send goes through and
            // the server processes the request.
            _ => self.inner.send_msg(msg),
        }
    }

    fn recv_msg(&mut self) -> Result<Vec<u8>, TransportError> {
        match self.plan.consume() {
            Fault::ReadTimeout => {
                // The server answered; the bytes die on the wire.
                let _ = self.inner.recv_msg();
                Err(TransportError::ResponseLost(
                    "injected fault: read timed out".into(),
                ))
            }
            Fault::DisconnectMidResponse => {
                let _ = self.inner.recv_msg();
                Err(TransportError::ResponseLost(
                    "injected fault: connection reset mid-response".into(),
                ))
            }
            Fault::GarbledResponse => {
                // Bit rot: keep the front half, splice in junk. The v1
                // parser sees broken JSON, the v2 decoder a broken
                // frame — both surface as an unreadable response.
                let msg = self.inner.recv_msg()?;
                let mut garbled = msg[..msg.len() / 2].to_vec();
                garbled.extend_from_slice("\u{fffd}garbled".as_bytes());
                Ok(garbled)
            }
            Fault::Latency(ms) => {
                self.plan.advance_clock(ms);
                if self.attempt_budget_ms.is_some_and(|budget| ms > budget) {
                    let _ = self.inner.recv_msg();
                    return Err(TransportError::ResponseLost(format!(
                        "injected fault: {ms} ms latency exceeded the attempt budget"
                    )));
                }
                self.inner.recv_msg()
            }
            _ => self.inner.recv_msg(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connector whose first `failures` attempts die inside the inner
    /// layer (the fault plan plays no part in those failures).
    struct FlakyConnector {
        failures: usize,
    }

    struct NullTransport;

    impl Transport for NullTransport {
        fn send_msg(&mut self, _msg: &[u8]) -> Result<(), TransportError> {
            Ok(())
        }
        fn recv_msg(&mut self) -> Result<Vec<u8>, TransportError> {
            Ok(b"{}".to_vec())
        }
    }

    impl Connector for FlakyConnector {
        type Conn = NullTransport;
        fn connect(&mut self) -> Result<NullTransport, TransportError> {
            if self.failures > 0 {
                self.failures -= 1;
                return Err(TransportError::Unreachable("inner connector down".into()));
            }
            Ok(NullTransport)
        }
    }

    /// Regression: an inner connect failure under a non-refusal armed
    /// fault must disarm it — otherwise the fault carries over and the
    /// one-fault-per-attempt schedule silently skews.
    #[test]
    fn inner_connect_failure_does_not_leak_the_armed_fault() {
        let plan = FaultPlan::script([Fault::WriteTimeout, Fault::None]);
        let mut connector = FaultyConnector::new(FlakyConnector { failures: 1 }, Arc::clone(&plan));

        // Attempt 1: WriteTimeout is armed but the inner connect dies
        // first — the fault never fires.
        assert!(connector.connect().is_err());

        // Attempt 2 draws the *next* scheduled fault (None), not the
        // stale WriteTimeout from the failed attempt.
        let mut conn = connector.connect().expect("second attempt connects");
        conn.send_msg(b"x")
            .expect("attempt 2 is scheduled clean; a leaked WriteTimeout would fail this");
        assert_eq!(
            plan.injected(),
            Vec::<&str>::new(),
            "a fault that never fired must not be recorded as injected"
        );
    }

    #[test]
    fn tcp_transport_disables_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let transport =
            TcpTransport::connect(&addr, Some(Duration::from_secs(10))).expect("connect");
        assert!(transport.writer.nodelay().expect("nodelay"));
        assert!(transport.reader.get_ref().nodelay().expect("nodelay"));
    }

    /// A garbled v2 frame must fail decoding just like a garbled v1
    /// line does — the byte-level fault needs no protocol awareness.
    #[test]
    fn garbling_breaks_both_protocols_identically() {
        struct FixedTransport(Vec<u8>);
        impl Transport for FixedTransport {
            fn send_msg(&mut self, _msg: &[u8]) -> Result<(), TransportError> {
                Ok(())
            }
            fn recv_msg(&mut self) -> Result<Vec<u8>, TransportError> {
                Ok(self.0.clone())
            }
        }
        let response = crate::proto::Response::Shutdown {
            id: "x".into(),
            draining: 3,
        };
        for msg in [
            response.to_line().into_bytes(),
            crate::frame::encode_response(&response, 9),
        ] {
            let plan = FaultPlan::script([Fault::GarbledResponse]);
            let mut t = FaultyTransport {
                inner: FixedTransport(msg),
                plan,
                attempt_budget_ms: None,
            };
            t.plan.arm();
            let garbled = t.recv_msg().expect("garbling yields bytes, not an error");
            assert!(
                WireFormat::decode_response(&garbled).is_err(),
                "garbled message decoded cleanly"
            );
        }
    }
}
