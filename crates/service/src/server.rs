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
//! one read/write round trip each. Between sweeps a reactor blocks in
//! `poll(2)` over its sockets and the queue's wake signals, so the next
//! byte, the next admitted connection or shutdown ends the wait, and
//! the next sweep visits only the sockets the wait reported ready. A
//! slow or idle connection costs a buffer, never a thread.
//!
//! Every socket, accepted here or connected by
//! [`TcpTransport`](crate::transport::TcpTransport), runs with
//! `TCP_NODELAY`: a pipelined batch's responses leave in one write, and
//! with Nagle on, the tail of one batch would sit behind the peer's
//! delayed ACK before the next batch could start.
//!
//! Graceful shutdown (a `shutdown` request, or [`MappingServer::stop`])
//! follows the contract from the issue: *drain the queue, reject new
//! connections, flush metrics*. The accept loop stops admitting and
//! closes the listener; reactors answer everything already buffered,
//! flush, close their connections and exit; [`MappingServer::join`]
//! returns once the sinks are flushed.

use crate::frame::{self, Frame, FrameError};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::proto::{ErrorCode, Request, Response};
use crate::service::MappingService;
use geomap_core::TraceScope;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest readiness wait of the accept loop and of an idle reactor:
/// the cadence of the idle-timeout checks (readiness and the queue's
/// wake signals end a wait sooner).
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

/// An admitted connection waiting for a reactor.
struct Job {
    stream: TcpStream,
    accepted: Instant,
}

/// A socket pair used as a level-triggered signal for waiters blocked
/// in `poll(2)`: its read end is readable while it holds a byte.
struct Wake {
    rx: UnixStream,
    tx: UnixStream,
}

impl Wake {
    fn new() -> std::io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        // Neither end may block: the queue raises and lowers under its
        // lock. A signal holds a few bytes at most (`admitted` one,
        // `stopping` one per shutdown call), so a write never finds the
        // pair full.
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Self { rx, tx })
    }

    fn raise(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn lower(&self) {
        let _ = (&self.rx).read(&mut [0u8; 1]);
    }

    /// Wait entry for this signal.
    fn fd(&self) -> PollFd {
        PollFd::new(&self.rx, POLLIN)
    }
}

/// The bounded admission queue, plus the signals that wake its waiters.
///
/// `admitted` is a level: [`try_push`](Self::try_push) raises it when
/// the queue goes from empty to non-empty and [`try_pop`](Self::try_pop)
/// lowers it when the queue empties, both under the queue lock, so it
/// is readable exactly while a job waits and no waiter spins on a stale
/// byte. `stopping` is raised by [`begin_shutdown`] and never lowered.
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    capacity: usize,
    admitted: Wake,
    stopping: Wake,
}

impl Queue {
    fn new(capacity: usize) -> std::io::Result<Self> {
        Ok(Self {
            jobs: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            admitted: Wake::new()?,
            stopping: Wake::new()?,
        })
    }

    /// Admit a job, or hand it back when the queue is full.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.jobs.lock().expect("queue lock");
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        if jobs.is_empty() {
            self.admitted.raise();
        }
        jobs.push_back(job);
        Ok(())
    }

    /// Take the next waiting job, never blocking.
    fn try_pop(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("queue lock");
        let job = jobs.pop_front()?;
        if jobs.is_empty() {
            self.admitted.lower();
        }
        Some(job)
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
        let queue = Arc::new(Queue::new(service.config().queue_capacity)?);

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
        begin_shutdown(&self.service, &self.queue);
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

/// Start graceful shutdown: flag the service and wake every thread
/// blocked in a readiness wait. A caller that flags only the service
/// ([`MappingService::begin_shutdown`]) is still noticed, one `POLL`
/// tick later.
fn begin_shutdown(service: &MappingService, queue: &Queue) {
    service.begin_shutdown();
    queue.stopping.raise();
}

fn accept_loop(listener: TcpListener, service: &MappingService, queue: &Queue) {
    while !service.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Admitted sockets stay nonblocking: the reactor's
                // readiness loop owns all waiting.
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
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
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut fds = [PollFd::new(&listener, POLLIN), queue.stopping.fd()];
                let _ = poll::wait(&mut fds, POLL);
            }
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

    /// The readiness that would let a sweep move this connection on:
    /// input until the peer closes its side, output while any is owed.
    fn interest(&self) -> PollFd {
        let mut events = 0;
        if !self.eof {
            events |= POLLIN;
        }
        if !self.outbuf.is_empty() {
            events |= POLLOUT;
        }
        PollFd::new(&self.stream, events)
    }

    /// Read whatever the socket has, up to the per-sweep burst bound;
    /// sets `eof` on a clean peer close.
    fn fill(&mut self) -> std::io::Result<()> {
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
                    // A short read emptied the socket; bytes that land
                    // later make it ready again, so skip the read that
                    // would only say `WouldBlock`.
                    if n < chunk.len() {
                        break;
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
        Ok(())
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
    // The last wait set: `fds[i]` is `conns[i]` for `i < waited`, then
    // the queue signals.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut waited = 0usize;
    let mut last_full = Instant::now();
    loop {
        // Read before the sweep: a shutdown that begins mid-sweep then
        // finds `stopping` still in the wait set and ends it at once.
        let stopping = service.is_shutting_down();
        // Batch admission: adopt everything waiting, up to this
        // reactor's share of the bound, in one go. Adopted connections
        // land past `waited`, so they are swept now.
        let mut adopted = false;
        while conns.len() < conn_cap {
            match queue.try_pop() {
                Some(job) => {
                    conns.push(Conn::adopt(job));
                    adopted = true;
                }
                None => break,
            }
        }
        if adopted {
            service.note_queue_depth(queue.len() as u64);
        }
        // Sweep the connections the wait reported ready. Every `POLL`,
        // and throughout shutdown, sweep them all, so idle timeouts and
        // shutdown closes never depend on readiness.
        let full = stopping || last_full.elapsed() >= POLL;
        if full {
            last_full = Instant::now();
        }
        let mut i = 0;
        conns.retain_mut(|conn| {
            let due = full || i >= waited || fds[i].ready();
            i += 1;
            !due || sweep(conn, service, queue, index, &scope)
        });
        if conns.is_empty() && stopping && queue.len() == 0 {
            return;
        }
        // Block until a socket is ready, a job is admitted or shutdown
        // begins. A full reactor cannot adopt, and `stopping` stays
        // raised once set, so each signal is left out when it could
        // only make the wait spin.
        fds.clear();
        fds.extend(conns.iter().map(Conn::interest));
        waited = conns.len();
        if conns.len() < conn_cap {
            fds.push(queue.admitted.fd());
        }
        if !stopping {
            fds.push(queue.stopping.fd());
        }
        let _ = poll::wait(&mut fds, POLL);
    }
}

/// One readiness sweep over one connection: flush, read, answer every
/// complete message, flush again. Whatever it leaves undone shows up as
/// readiness (unread input, or output owed), so nothing needs a second
/// sweep before the next wait. Returns whether to keep the connection.
fn sweep(
    conn: &mut Conn,
    service: &MappingService,
    queue: &Queue,
    worker: usize,
    scope: &TraceScope<'_>,
) -> bool {
    if conn.flush(service).is_err() || conn.fill().is_err() {
        return false;
    }
    let drained = loop {
        if conn.drain_remaining.is_none() && !conn.close_after_flush {
            answer_buffered(conn, service, queue, worker, scope);
        }
        // Answering stops at `OUT_HIGH_WATER`; once the socket takes
        // all of that, answer the rest now — no readiness would
        // report it.
        let held = conn.outbuf.len() >= OUT_HIGH_WATER;
        match conn.flush(service) {
            Ok(true) if held => continue,
            Ok(drained) => break drained && conn.outbuf.is_empty(),
            Err(_) => return false,
        }
    };
    if drained && conn.close_after_flush {
        return false;
    }
    if drained && conn.eof && conn.drain_remaining.is_none() {
        return false;
    }
    // Draining ends at EOF too (the peer gave up sending).
    if conn.eof && conn.drain_remaining.is_some() {
        return false;
    }
    if drained && service.is_shutting_down() && conn.inbuf.iter().all(|&b| b == b'\n' || b == b'\r')
    {
        // Shutdown: nothing owed, nothing pending — close so `join`
        // never waits on an idle client.
        return false;
    }
    conn.last_activity.elapsed() <= IDLE_TIMEOUT
}

/// Answer every complete message currently buffered on `conn`,
/// appending responses to its `outbuf`.
fn answer_buffered(
    conn: &mut Conn,
    service: &MappingService,
    queue: &Queue,
    worker: usize,
    scope: &TraceScope<'_>,
) {
    let mut pos = 0usize;
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
                    respond_line(conn, service, queue, worker, scope, &line);
                }
                break;
            }
            Extract::Line { line_len, consumed } => {
                let line = String::from_utf8_lossy(&conn.inbuf[pos..pos + line_len]).into_owned();
                pos += consumed;
                respond_line(conn, service, queue, worker, scope, &line);
                if conn.close_after_flush {
                    break;
                }
            }
            Extract::Framed { frame, consumed } => {
                pos += consumed;
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
            begin_shutdown(service, queue);
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
    use crate::client::ServiceClient;
    use crate::service::ServiceConfig;
    use geonet::{presets, InstanceType};

    fn one_reactor_service() -> MappingService {
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        MappingService::new(
            presets::paper_ec2_network(4, InstanceType::M4Xlarge, 42),
            config,
        )
    }

    fn one_reactor_server() -> MappingServer {
        MappingServer::bind(one_reactor_service(), "127.0.0.1:0").expect("bind loopback")
    }

    fn connect(server: &MappingServer) -> ServiceClient {
        ServiceClient::connect(
            &server.local_addr().to_string(),
            Some(Duration::from_secs(10)),
        )
        .expect("connect")
    }

    /// The accept loop admits sockets with Nagle off, and the admission
    /// wakes a waiter on the queue's wake socket.
    #[test]
    fn accepted_sockets_disable_nagle() {
        let service = one_reactor_service();
        let queue = Queue::new(4).expect("queue");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("local addr");
        let (service, queue) = (&service, &queue);
        // Stop the accept loop before asserting: a failed check must
        // not leave the scope waiting on it forever.
        let (ready, job) = std::thread::scope(|s| {
            s.spawn(move || accept_loop(listener, service, queue));
            let _client = TcpStream::connect(addr).expect("connect");
            let ready = poll::wait(&mut [queue.admitted.fd()], Duration::from_secs(10));
            let job = queue.try_pop();
            begin_shutdown(service, queue);
            (ready, job)
        });
        assert_eq!(ready.expect("poll"), 1, "admission did not wake the waiter");
        let job = job.expect("an admitted job");
        assert!(job.stream.nodelay().expect("nodelay"));
    }

    /// `admitted` is a level, not a count: readable while any job waits
    /// however many were pushed, silent once the last one is taken.
    #[test]
    fn admitted_is_readable_exactly_while_a_job_waits() {
        let queue = Queue::new(8).expect("queue");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let readable = || {
            let mut fds = [queue.admitted.fd()];
            poll::wait(&mut fds, Duration::ZERO).expect("poll") == 1
        };
        let clients: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        assert!(!readable());
        for _ in &clients {
            let (stream, _) = listener.accept().expect("accept");
            let job = Job {
                stream,
                accepted: Instant::now(),
            };
            assert!(queue.try_push(job).is_ok());
            assert!(readable());
        }
        for left in (0..3).rev() {
            assert!(queue.try_pop().is_some());
            assert_eq!(readable(), left > 0, "{left} jobs left");
        }
        assert!(queue.try_pop().is_none());
        assert!(!readable());
    }

    /// The median of per-round times: a parent-style `POLL` wait shows
    /// in every round, a scheduler hiccup in only a few.
    fn median(mut rounds: Vec<Duration>) -> Duration {
        rounds.sort();
        rounds[rounds.len() / 2]
    }

    /// Regression: one idle connection keeps the only reactor blocked in
    /// its readiness wait, so every fresh connection must wake it. Were
    /// adoption (or accept) to wait out the timeout, each cycle would
    /// cost about `POLL`.
    #[test]
    fn adoption_never_waits_out_the_poll_timeout() {
        let server = one_reactor_server();
        let mut idle = connect(&server);
        assert!(matches!(idle.stats("idle"), Ok(Response::Stats(_))));
        let cycles: Vec<Duration> = (0..200)
            .map(|i| {
                let started = Instant::now();
                let mut client = connect(&server);
                let reply = client.stats(&format!("cycle-{i}"));
                assert!(matches!(reply, Ok(Response::Stats(_))), "{reply:?}");
                started.elapsed()
            })
            .collect();
        let typical = median(cycles);
        assert!(
            typical < POLL / 2,
            "median connect/stats/close cycle took {typical:?}"
        );
        drop(idle);
        server.join();
    }

    /// Regression: a request on an adopted connection is answered as
    /// soon as it is readable, not at the next full sweep.
    #[test]
    fn follow_up_requests_never_wait_out_the_poll_timeout() {
        let server = one_reactor_server();
        let mut client = connect(&server);
        let rounds: Vec<Duration> = (0..200)
            .map(|i| {
                let started = Instant::now();
                let reply = client.stats(&format!("round-{i}"));
                assert!(matches!(reply, Ok(Response::Stats(_))), "{reply:?}");
                started.elapsed()
            })
            .collect();
        let typical = median(rounds);
        assert!(typical < POLL / 2, "median round trip took {typical:?}");
        drop(client);
        server.join();
    }

    /// `join` wakes a reactor blocked on an idle connection (and the
    /// accept loop blocked on the listener) instead of letting both
    /// wait out `POLL`.
    #[test]
    fn join_returns_promptly_past_an_idle_connection() {
        let joins: Vec<Duration> = (0..20)
            .map(|_| {
                let server = one_reactor_server();
                let mut idle = connect(&server);
                assert!(matches!(idle.stats("idle"), Ok(Response::Stats(_))));
                let started = Instant::now();
                server.join();
                started.elapsed()
            })
            .collect();
        let typical = median(joins);
        assert!(typical < POLL / 2, "median join took {typical:?}");
    }

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
