//! The TCP front-end: accept loop, bounded admission queue, reactor
//! threads, graceful shutdown.
//!
//! Connections speak either wire protocol — v1 JSON lines or v2 binary
//! frames ([`crate::frame`]) — told apart by each message's first byte
//! ([`frame::FRAME_MAGIC`] is a UTF-8 continuation byte no JSON line
//! can start with), so both share one port and one code path.
//! Pipelining is allowed on every connection in both formats.
//!
//! The accept thread never parses anything — it only admits
//! connections into the bounded queue (writing an immediate
//! `over_capacity` error when the queue is full: backpressure, not
//! buffering) — so a slow client can never stall admission. Reactor
//! threads adopt admitted connections in batches and run a readiness
//! loop over them: each sweep flushes pending writes, reads whatever
//! bytes are available from every nonblocking socket, answers every
//! *complete* message through [`MappingService`], and writes each
//! connection's accumulated responses with a single syscall — so a
//! burst of pipelined cache hits drains in one syscall wave instead of
//! one read/write round trip each. A slow or idle connection costs a
//! buffer, never a thread.
//!
//! Graceful shutdown (a `shutdown` request, or [`MappingServer::stop`])
//! follows the contract from the issue: *drain the queue, reject new
//! connections, flush metrics*. The accept loop stops admitting and
//! closes the listener; reactors answer everything already buffered,
//! flush, close their connections and exit; [`MappingServer::join`]
//! returns once the sinks are flushed.

use crate::frame::{self, Frame, FrameError};
use crate::proto::{ErrorCode, Request, Response};
use crate::service::MappingService;
use geomap_core::TraceScope;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop sleeps when no connection is pending, and
/// how long an empty reactor parks on the queue's condvar.
const POLL: Duration = Duration::from_millis(5);

/// Idle bound on admitted connections: a client that goes silent this
/// long is closed (it can reconnect; buffers are not forever).
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest request line a reactor will buffer. A peer that streams
/// garbage without ever sending `\n` gets a clean `bad_request` at this
/// bound instead of growing the buffer without limit.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Bytes of an oversized request we keep consuming before hanging up,
/// so the error response isn't lost to a TCP reset while the peer is
/// still mid-send (a best-effort lingering close, not a guarantee).
const DRAIN_LIMIT: usize = 64 << 20;

/// Most bytes read from one connection in one sweep, so a firehose
/// client cannot starve its neighbors on the same reactor.
const READ_BURST: usize = 256 << 10;

/// Stop answering a connection's buffered requests while this many
/// response bytes are already waiting for it to read — write-side
/// backpressure for a client that pipelines requests but never reads.
const OUT_HIGH_WATER: usize = 8 << 20;

/// Empty sweeps a reactor spins (yielding) before it starts sleeping —
/// busy enough to catch the next burst, polite enough to share the CPU.
const SPIN_SWEEPS: u32 = 64;

/// An admitted connection waiting for a reactor.
struct Job {
    stream: TcpStream,
    accepted: Instant,
}

/// The bounded admission queue.
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Self {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit a job, or hand it back when the queue is full.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.jobs.lock().expect("queue lock");
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.ready.notify_one();
        Ok(())
    }

    /// Take the next waiting job, never blocking.
    fn try_pop(&self) -> Option<Job> {
        self.jobs.lock().expect("queue lock").pop_front()
    }

    /// Park until a job may be ready (or `timeout`); the caller loops.
    fn wait(&self, timeout: Duration) {
        let jobs = self.jobs.lock().expect("queue lock");
        let _ = self.ready.wait_timeout(jobs, timeout).expect("queue lock");
    }

    fn len(&self) -> usize {
        self.jobs.lock().expect("queue lock").len()
    }
}

/// A running daemon: listener + queue + reactor pool.
pub struct MappingServer {
    service: Arc<MappingService>,
    queue: Arc<Queue>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl MappingServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting. Reactor count and queue bound come from the service's
    /// [`ServiceConfig`](crate::service::ServiceConfig) (`workers`).
    pub fn bind(service: MappingService, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(service);
        let queue = Arc::new(Queue::new(service.config().queue_capacity));

        let reactors = service.config().workers.max(1);
        // Splitting the admission bound across reactors keeps the
        // *total* number of adopted connections at the configured
        // capacity — the same bound the queue enforced when workers
        // owned one connection each.
        let conn_cap = (queue.capacity / reactors).max(1);
        let workers = (0..reactors)
            .map(|w| {
                let service = Arc::clone(&service);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("geomap-worker-{w}"))
                    .spawn(move || reactor_loop(w, conn_cap, &service, &queue))
                    .expect("spawn reactor")
            })
            .collect();

        let accept = {
            let service = Arc::clone(&service);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name("geomap-accept".into())
                .spawn(move || accept_loop(listener, &service, &queue))
                .expect("spawn accept loop")
        };

        Ok(Self {
            service,
            queue,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind this server.
    pub fn service(&self) -> &Arc<MappingService> {
        &self.service
    }

    /// Connections admitted but not yet adopted by a reactor.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Begin graceful shutdown without waiting (equivalent to a
    /// `shutdown` request arriving over the wire).
    pub fn stop(&self) {
        self.service.begin_shutdown();
        self.queue.ready.notify_all();
    }

    /// Begin shutdown (if not already begun), drain the queue, join
    /// every thread and flush the observability sinks.
    pub fn join(mut self) {
        self.stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.service.flush();
    }
}

impl Drop for MappingServer {
    fn drop(&mut self) {
        // A dropped server still shuts down cleanly; `join` is the
        // explicit, blocking variant.
        self.stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.service.flush();
    }
}

fn accept_loop(listener: TcpListener, service: &MappingService, queue: &Queue) {
    while !service.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Admitted sockets stay nonblocking: the reactor's
                // readiness loop owns all waiting.
                let _ = stream.set_nonblocking(true);
                let job = Job {
                    stream,
                    accepted: Instant::now(),
                };
                match queue.try_push(job) {
                    Ok(()) => service.note_queue_depth(queue.len() as u64),
                    Err(mut job) => {
                        // Backpressure: refuse right now, on the accept
                        // thread, so the queue bound actually bounds memory
                        // and latency instead of growing a buffer. The write
                        // is best-effort and nonblocking — the accept loop
                        // must never stall on a peer's receive window (the
                        // one-line error fits a fresh send buffer anyway).
                        let resp = service.reject(
                            "",
                            ErrorCode::OverCapacity,
                            format!(
                                "admission queue full ({} waiting); retry later",
                                queue.capacity
                            ),
                        );
                        let mut line = resp.to_line();
                        line.push('\n');
                        let _ = job.stream.write_all(line.as_bytes());
                        let _ = job.stream.flush();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    // Dropping the listener here closes the socket: new connections are
    // refused while the reactors drain what was admitted.
}

/// One adopted connection's state between sweeps.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed into complete messages.
    inbuf: Vec<u8>,
    /// Responses encoded but not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Queue wait measured at adoption; charged to the first request
    /// and used as the queue component of every deadline check on this
    /// connection (follow-ups arrived on an already-adopted socket).
    queue_wait: Duration,
    first: bool,
    last_activity: Instant,
    /// Peer closed its write side; flush what we owe, then close.
    eof: bool,
    /// Stop parsing, close once `outbuf` drains.
    close_after_flush: bool,
    /// Lingering-close countdown after an oversized request: bytes we
    /// still consume (and discard) so the peer can finish sending and
    /// read the error before we hang up.
    drain_remaining: Option<usize>,
}

impl Conn {
    fn adopt(job: Job) -> Self {
        Self {
            stream: job.stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            queue_wait: job.accepted.elapsed(),
            first: true,
            last_activity: Instant::now(),
            eof: false,
            close_after_flush: false,
            drain_remaining: None,
        }
    }

    /// Push pending response bytes into the socket. `Ok(true)` when the
    /// buffer fully drained, `Ok(false)` on socket backpressure.
    fn flush(&mut self, service: &MappingService) -> std::io::Result<bool> {
        if self.outbuf.is_empty() {
            return Ok(true);
        }
        let started = Instant::now();
        let mut written = 0usize;
        let drained = loop {
            match self.stream.write(&self.outbuf[written..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    written += n;
                    if written == self.outbuf.len() {
                        break true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if written > 0 {
            self.outbuf.drain(..written);
            self.last_activity = Instant::now();
            service.record_respond(started.elapsed().as_secs_f64());
            let _ = self.stream.flush();
        }
        Ok(drained)
    }

    /// Read whatever the socket has, up to the per-sweep burst bound.
    /// Returns bytes read; sets `eof` on a clean peer close.
    fn fill(&mut self) -> std::io::Result<usize> {
        let mut total = 0usize;
        let mut chunk = [0u8; 16 << 10];
        while total < READ_BURST {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    total += n;
                    if let Some(remaining) = self.drain_remaining.as_mut() {
                        // Lingering close: consume, never buffer.
                        *remaining = remaining.saturating_sub(n);
                        if *remaining == 0 {
                            self.close_after_flush = true;
                            break;
                        }
                    } else {
                        self.inbuf.extend_from_slice(&chunk[..n]);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if total > 0 {
            self.last_activity = Instant::now();
        }
        Ok(total)
    }
}

/// One complete message extracted from a connection buffer.
enum Extract {
    /// Nothing complete yet; keep the bytes and read more.
    Pending,
    /// A v1 line: `consumed` bytes including the `\n`, line body is
    /// `buf[..line_len]` (terminators stripped).
    Line { line_len: usize, consumed: usize },
    /// A v2 frame, fully decoded; `consumed` bytes.
    Framed { frame: Frame, consumed: usize },
    /// A v1 line exceeded [`MAX_LINE_BYTES`] without terminating.
    TooLong,
    /// The byte stream is not a valid frame and cannot be resynced.
    Broken(FrameError),
}

/// Extract the next complete message from `buf` (leading blank lines
/// already skipped). Pure function over bytes — the unit tests below
/// drive it byte-by-byte to prove no split (TCP fragmentation, tiny
/// reads) changes what is extracted.
fn extract_message(buf: &[u8]) -> Extract {
    if buf.is_empty() {
        return Extract::Pending;
    }
    if buf[0] == frame::FRAME_MAGIC {
        return match Frame::decode(buf) {
            Ok((frame, consumed)) => Extract::Framed { frame, consumed },
            Err(FrameError::Truncated { .. }) => Extract::Pending,
            // Oversized, bad version, bad kind: the stream cannot be
            // resynced mid-frame; the caller answers and hangs up.
            Err(e) => Extract::Broken(e),
        };
    }
    match buf.iter().position(|&b| b == b'\n') {
        Some(nl) if nl > MAX_LINE_BYTES => Extract::TooLong,
        Some(nl) => {
            let mut line_len = nl;
            while line_len > 0 && buf[line_len - 1] == b'\r' {
                line_len -= 1;
            }
            Extract::Line {
                line_len,
                consumed: nl + 1,
            }
        }
        None if buf.len() > MAX_LINE_BYTES => Extract::TooLong,
        None => Extract::Pending,
    }
}

fn reactor_loop(index: usize, conn_cap: usize, service: &MappingService, queue: &Queue) {
    let scope = service
        .config()
        .metrics
        .track("service", &format!("worker-{index}"));
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_sweeps = 0u32;
    loop {
        let mut progress = false;
        // Batch admission: adopt everything waiting, up to this
        // reactor's share of the bound, in one go.
        let mut adopted = false;
        while conns.len() < conn_cap {
            match queue.try_pop() {
                Some(job) => {
                    conns.push(Conn::adopt(job));
                    adopted = true;
                    progress = true;
                }
                None => break,
            }
        }
        if adopted {
            service.note_queue_depth(queue.len() as u64);
        }
        conns.retain_mut(|conn| {
            let (keep, moved) = sweep(conn, service, queue, index, &scope);
            progress |= moved;
            keep
        });
        if conns.is_empty() {
            if service.is_shutting_down() && queue.len() == 0 {
                return;
            }
            queue.wait(POLL);
            continue;
        }
        if progress {
            idle_sweeps = 0;
        } else {
            // Readiness polling without epoll: spin politely first (a
            // pipelined burst usually lands within a few sweeps), then
            // back off to a short sleep so an idle daemon costs ~nothing.
            idle_sweeps += 1;
            if idle_sweeps <= SPIN_SWEEPS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
}

/// One readiness sweep over one connection: flush, read, answer every
/// complete message, flush again. Returns `(keep, made_progress)`.
fn sweep(
    conn: &mut Conn,
    service: &MappingService,
    queue: &Queue,
    worker: usize,
    scope: &TraceScope<'_>,
) -> (bool, bool) {
    let mut progress = false;
    match conn.flush(service) {
        Ok(true) => {}
        Ok(false) => progress = true, // partial write: socket was busy
        Err(_) => return (false, true),
    }
    match conn.fill() {
        Ok(0) => {}
        Ok(_) => progress = true,
        Err(_) => return (false, true),
    }
    if conn.drain_remaining.is_none() && !conn.close_after_flush {
        progress |= answer_buffered(conn, service, queue, worker, scope);
    }
    match conn.flush(service) {
        Ok(drained) => {
            let done_writing = drained && conn.outbuf.is_empty();
            if done_writing && conn.close_after_flush {
                return (false, true);
            }
            if done_writing && conn.eof && conn.drain_remaining.is_none() {
                return (false, progress);
            }
            // Draining ends at EOF too (the peer gave up sending).
            if conn.eof && conn.drain_remaining.is_some() {
                return (false, true);
            }
            if done_writing
                && service.is_shutting_down()
                && conn.inbuf.iter().all(|&b| b == b'\n' || b == b'\r')
            {
                // Shutdown: nothing owed, nothing pending — close so
                // `join` never waits on an idle client.
                return (false, true);
            }
        }
        Err(_) => return (false, true),
    }
    if conn.last_activity.elapsed() > IDLE_TIMEOUT {
        return (false, true);
    }
    (true, progress)
}

/// Answer every complete message currently buffered on `conn`,
/// appending responses to its `outbuf`. Returns true when any message
/// was processed.
fn answer_buffered(
    conn: &mut Conn,
    service: &MappingService,
    queue: &Queue,
    worker: usize,
    scope: &TraceScope<'_>,
) -> bool {
    let mut pos = 0usize;
    let mut progress = false;
    loop {
        if conn.outbuf.len() >= OUT_HIGH_WATER {
            // The peer isn't reading; stop generating responses it has
            // no room for. The unparsed bytes keep until it catches up.
            break;
        }
        while pos < conn.inbuf.len() && (conn.inbuf[pos] == b'\n' || conn.inbuf[pos] == b'\r') {
            pos += 1;
        }
        match extract_message(&conn.inbuf[pos..]) {
            Extract::Pending => {
                // EOF with a partial v1 line: the unterminated tail is
                // the final request (a frame fragment is unanswerable).
                if conn.eof
                    && pos < conn.inbuf.len()
                    && conn.inbuf[pos] != frame::FRAME_MAGIC
                    && conn.inbuf.len() - pos <= MAX_LINE_BYTES
                {
                    let line = String::from_utf8_lossy(&conn.inbuf[pos..]).into_owned();
                    pos = conn.inbuf.len();
                    progress = true;
                    respond_line(conn, service, queue, worker, scope, &line);
                }
                break;
            }
            Extract::Line { line_len, consumed } => {
                let line = String::from_utf8_lossy(&conn.inbuf[pos..pos + line_len]).into_owned();
                pos += consumed;
                progress = true;
                respond_line(conn, service, queue, worker, scope, &line);
                if conn.close_after_flush {
                    break;
                }
            }
            Extract::Framed { frame, consumed } => {
                pos += consumed;
                progress = true;
                if frame.kind != frame::FrameKind::Request {
                    let resp = service.reject(
                        "",
                        ErrorCode::BadRequest,
                        "expected a request frame, got a response frame".to_string(),
                    );
                    push_frame(conn, &resp, frame.corr_id);
                    conn.close_after_flush = true;
                    break;
                }
                let request = match frame::decode_request_payload(&frame.payload) {
                    Ok(req) => req,
                    Err(bad) => {
                        let resp = service.reject(&bad.id, bad.code, bad.message);
                        push_frame(conn, &resp, frame.corr_id);
                        continue;
                    }
                };
                let response = answer(conn, service, queue, worker, scope, request);
                let shutdown_now = matches!(response, Response::Shutdown { .. });
                push_frame(conn, &response, frame.corr_id);
                if shutdown_now {
                    conn.close_after_flush = true;
                    break;
                }
            }
            Extract::TooLong => {
                let resp = service.reject(
                    "",
                    ErrorCode::BadRequest,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                push_line(conn, &resp);
                // Lingering close: keep consuming (bounded) so the
                // peer's send isn't cut off by a reset before it reads
                // our error line.
                conn.drain_remaining = Some(DRAIN_LIMIT);
                pos = conn.inbuf.len();
                progress = true;
                break;
            }
            Extract::Broken(e) => {
                let corr = Frame::peek_corr_id(&conn.inbuf[pos..]).unwrap_or(0);
                let code = match e {
                    FrameError::BadVersion(_) => ErrorCode::UnsupportedVersion,
                    _ => ErrorCode::BadRequest,
                };
                let resp = service.reject("", code, e.to_string());
                push_frame(conn, &resp, corr);
                conn.close_after_flush = true;
                progress = true;
                break;
            }
        }
    }
    if pos > 0 {
        conn.inbuf.drain(..pos);
    }
    if conn.drain_remaining.is_some() {
        conn.inbuf.clear();
    }
    progress
}

/// Answer one v1 line, encoding the response as a v1 line.
fn respond_line(
    conn: &mut Conn,
    service: &MappingService,
    queue: &Queue,
    worker: usize,
    scope: &TraceScope<'_>,
    line: &str,
) {
    if line.trim().is_empty() {
        return;
    }
    let response = match Request::from_line(line) {
        Err(bad) => service.reject(&bad.id, bad.code, bad.message),
        Ok(request) => answer(conn, service, queue, worker, scope, request),
    };
    let shutdown_now = matches!(response, Response::Shutdown { .. });
    push_line(conn, &response);
    if shutdown_now {
        conn.close_after_flush = true;
    }
}

/// Answer one decoded request. The first request on a connection is
/// charged the measured queue wait; pipelined follow-ups on the same
/// connection never waited, so they report zero.
fn answer(
    conn: &mut Conn,
    service: &MappingService,
    queue: &Queue,
    worker: usize,
    scope: &TraceScope<'_>,
    request: Request,
) -> Response {
    let queue_wait_s = if conn.first {
        conn.queue_wait.as_secs_f64()
    } else {
        0.0
    };
    conn.first = false;
    match request {
        Request::Shutdown { id } => {
            service.begin_shutdown();
            Response::Shutdown {
                id,
                draining: queue.len() as u64,
            }
        }
        Request::Map(m) => {
            let deadline = m
                .deadline_ms
                .map(Duration::from_millis)
                .or(service.config().default_deadline);
            if deadline.is_some_and(|d| conn.queue_wait > d) {
                service.reject(
                    &m.id,
                    ErrorCode::DeadlineExceeded,
                    format!(
                        "spent {:.0} ms in queue, deadline was {} ms",
                        conn.queue_wait.as_secs_f64() * 1e3,
                        deadline.unwrap_or_default().as_millis()
                    ),
                )
            } else {
                if scope.enabled() {
                    // The wait already happened (between accept and
                    // adoption), so the span is backdated; the ring
                    // export sorts by timestamp.
                    let now = scope.trace.now();
                    scope
                        .trace
                        .span_begin(scope.track, "queue_wait", now - queue_wait_s);
                    scope.trace.span_end(scope.track, "queue_wait", now);
                }
                scope.span_begin("request");
                let out = service.handle_map_on(&m, queue_wait_s, worker, *scope);
                scope.span_end("request");
                out
            }
        }
        other => service.handle_on(&other, worker, *scope),
    }
}

fn push_line(conn: &mut Conn, response: &Response) {
    let line = response.to_line();
    conn.outbuf.reserve(line.len() + 1);
    conn.outbuf.extend_from_slice(line.as_bytes());
    conn.outbuf.push(b'\n');
}

fn push_frame(conn: &mut Conn, response: &Response, corr_id: u64) {
    conn.outbuf
        .extend_from_slice(&frame::encode_response(response, corr_id));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a multi-byte UTF-8 character arriving split across
    /// reads must survive intact. Feeding the buffer one byte at a time
    /// forces every character across a read boundary — extraction only
    /// fires on the complete line, and the lossy conversion happens
    /// once, over the whole line, never per chunk.
    #[test]
    fn multibyte_characters_survive_read_boundaries() {
        let text = "id-é-日本語-🦀-end";
        let wire = format!("{text}\nnext");
        let mut buf: Vec<u8> = Vec::new();
        let mut extracted = None;
        for &b in wire.as_bytes() {
            buf.push(b);
            match extract_message(&buf) {
                Extract::Pending => continue,
                Extract::Line { line_len, consumed } => {
                    extracted = Some(String::from_utf8_lossy(&buf[..line_len]).into_owned());
                    buf.drain(..consumed);
                    break;
                }
                _ => panic!("unexpected extraction"),
            }
        }
        assert_eq!(extracted.as_deref(), Some(text));
    }

    /// A frame fed one byte at a time stays `Pending` until its last
    /// byte, then decodes whole — no split of the length prefix or
    /// payload changes the outcome.
    #[test]
    fn frames_survive_byte_by_byte_arrival() {
        let response = Response::Shutdown {
            id: "x".into(),
            draining: 2,
        };
        let wire = frame::encode_response(&response, 77);
        let mut buf: Vec<u8> = Vec::new();
        for (i, &b) in wire.iter().enumerate() {
            buf.push(b);
            match extract_message(&buf) {
                Extract::Pending => assert!(i + 1 < wire.len(), "complete frame stayed pending"),
                Extract::Framed { frame, consumed } => {
                    assert_eq!(i + 1, wire.len(), "decoded before the last byte");
                    assert_eq!(consumed, wire.len());
                    assert_eq!(frame.corr_id, 77);
                }
                _ => panic!("unexpected extraction at byte {i}"),
            }
        }
    }

    #[test]
    fn unterminated_line_past_the_bound_is_too_long() {
        let wire = vec![b'x'; MAX_LINE_BYTES + 1];
        assert!(matches!(extract_message(&wire), Extract::TooLong));
    }

    #[test]
    fn carriage_returns_are_stripped_from_lines() {
        match extract_message(b"hello\r\nrest") {
            Extract::Line { line_len, consumed } => {
                assert_eq!(line_len, 5);
                assert_eq!(consumed, 7);
            }
            _ => panic!("expected a line"),
        }
    }

    #[test]
    fn broken_frames_are_fatal_not_pending() {
        // A valid magic byte with a hostile declared length.
        let mut wire = vec![frame::FRAME_MAGIC, frame::FRAME_VERSION, 1];
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        match extract_message(&wire) {
            Extract::Broken(FrameError::Oversized { .. }) => {}
            _ => panic!("expected an oversized-frame error"),
        }
    }
}
