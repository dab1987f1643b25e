//! The TCP serving front-end: accept loop, per-connection framing, timeout
//! enforcement, and the graceful drain state machine.
//!
//! # Threading model
//!
//! One accept thread polls a non-blocking listener so it can also watch the
//! shutdown flag.  Each accepted connection gets a *reader* thread (frame
//! parsing, admission) and a *writer* thread (response serialisation) joined
//! by an mpsc channel — responses for pipelined requests are written in
//! completion order without the reader blocking on the socket.  All search
//! execution happens on the shared [`Batcher`] thread, so a thousand idle
//! connections cost file descriptors and parked threads, not CPU.
//!
//! # Timeouts and hostile clients
//!
//! The reader applies a short socket read timeout as its poll tick and
//! tracks two idle budgets: `idle_timeout` between frames (a connected but
//! silent client) and `frame_timeout` *inside* a frame (a slow-loris client
//! dribbling one byte per second).  Exceeding either closes the connection.
//! Frame payloads are bounded by `max_frame_bytes` before allocation and
//! every frame is checksummed, so hostile lengths and torn writes surface as
//! typed protocol errors (answered with `BAD_REQUEST` when the peer is still
//! readable) instead of memory exhaustion or garbage queries.
//!
//! # Drain state machine
//!
//! ```text
//!   SERVING ──(signal | Shutdown frame | Server::shutdown)──► DRAINING
//!     │ accept + admit                       │ stop accepting, admission
//!     ▼                                      │ answers SHUTTING_DOWN,
//!   readers parse frames                     │ batcher drains its queue,
//!                                            ▼ writers flush, threads join
//!                                         STOPPED
//! ```
//!
//! Every request admitted before the drain began still receives its real
//! response; requests arriving during the drain receive `SHUTTING_DOWN`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use obs::{CounterHandle, GaugeHandle, HistogramHandle, ObsHandle, StageTimings};

use crate::batcher::{
    Admission, Batcher, BatcherConfig, BatcherStats, MutableBackend, MutationAdmission, Reply,
    SearchBackend,
};
use crate::protocol::{
    read_frame, write_frame, write_mutate_ack, write_response, write_stats_text,
    write_traced_response, FrameKind, MutateResponse, MutationRequest, SearchRequest,
    SearchResponse, StatsFormat, StatsRequest, StatsResponse, Status, TracedSearchRequest,
    TracedSearchResponse, DEFAULT_MAX_PAYLOAD,
};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Batcher knobs (batch size, admission bounds).
    pub batcher: BatcherConfig,
    /// Connections beyond this are answered `OVERLOADED` and closed.
    pub max_connections: usize,
    /// Idle budget between frames before the connection is closed.
    pub idle_timeout: Duration,
    /// Budget for finishing a started frame (slow-loris bound).
    pub frame_timeout: Duration,
    /// Frame payload cap enforced before allocation.
    pub max_frame_bytes: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: BatcherConfig::default(),
            max_connections: 256,
            idle_timeout: Duration::from_secs(60),
            frame_timeout: Duration::from_secs(5),
            max_frame_bytes: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Why the server stopped — the classified exit condition for the CLI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A `Shutdown` control frame asked for a drain.
    CtlFrame,
    /// [`Server::shutdown`] (or the CLI's signal handler) asked for a drain.
    Requested,
}

/// Counters exported by [`Server::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections refused because `max_connections` was reached.
    pub connections_refused: u64,
    /// Currently open connections.
    pub connections_open: usize,
    /// Frames that failed to parse (bad magic, checksum, truncation…).
    pub protocol_errors: u64,
    /// Batcher-side counters.
    pub batcher: BatcherStats,
}

/// The server's own instruments, registered alongside the batcher's on the
/// same [`ObsHandle`].  Every handle compiles to a no-op when the server was
/// started without observability, so the accept and reader loops pay one
/// predictable branch per event.
struct ServerMetrics {
    /// Frames successfully parsed across all connections.
    frames: CounterHandle,
    /// Lifetime accepted connections (mirrors `ServerStats`).
    accepted: CounterHandle,
    /// Connections refused at the `max_connections` cap.
    refused: CounterHandle,
    /// Frames that failed to parse or decode.
    protocol_errors: CounterHandle,
    /// Currently open connections.
    open: GaugeHandle,
    /// Frames handled per connection, recorded when the reader exits.
    frames_per_conn: HistogramHandle,
}

impl ServerMetrics {
    fn register(handle: &ObsHandle) -> Self {
        ServerMetrics {
            frames: handle.counter(
                "server_frames_total",
                "Frames parsed across all connections",
            ),
            accepted: handle.counter(
                "server_connections_accepted_total",
                "Connections accepted over the server's lifetime",
            ),
            refused: handle.counter(
                "server_connections_refused_total",
                "Connections refused at the connection cap",
            ),
            protocol_errors: handle.counter(
                "server_protocol_errors_total",
                "Frames that failed to parse or decode",
            ),
            open: handle.gauge("server_connections_open", "Currently open connections"),
            frames_per_conn: handle.histogram(
                "server_frames_per_connection",
                "Frames handled per connection at reader exit",
            ),
        }
    }
}

struct ServerShared {
    shutdown: AtomicBool,
    stop_reason: AtomicU64, // 0 = running, 1 = ctl frame, 2 = requested
    open: AtomicUsize,
    accepted: AtomicU64,
    refused: AtomicU64,
    protocol_errors: AtomicU64,
    config: ServerConfig,
    metrics: ServerMetrics,
}

impl ServerShared {
    fn request_stop(&self, reason: StopReason) {
        let code = match reason {
            StopReason::CtlFrame => 1,
            StopReason::Requested => 2,
        };
        let _ = self
            .stop_reason
            .compare_exchange(0, code, Ordering::SeqCst, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Counts a malformed frame in both the legacy atomic (for
    /// [`ServerStats`]) and the obs registry (for exposition).
    fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.metrics.protocol_errors.inc();
    }
}

/// A running server.  Dropping it triggers a drain and joins every thread.
pub struct Server {
    shared: Arc<ServerShared>,
    batcher: Arc<Batcher>,
    local_addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts serving `backend` (search-only:
    /// mutation frames are answered `BAD_REQUEST`).  Observability is off:
    /// `Stats` frames are answered `BAD_REQUEST` and no latency is recorded.
    pub fn start(backend: Arc<dyn SearchBackend>, config: ServerConfig) -> io::Result<Server> {
        Self::start_obs(backend, config, &ObsHandle::disabled())
    }

    /// Binds `config.addr` and starts serving a mutable `backend`: search,
    /// insert, delete and compact frames are all accepted.  Observability is
    /// off, as in [`Server::start`].
    pub fn start_mutable(
        backend: Arc<dyn MutableBackend>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Self::start_mutable_obs(backend, config, &ObsHandle::disabled())
    }

    /// [`Server::start`] with the server's and batcher's instruments
    /// registered on `obs`: connection/frame counters, per-stage latency
    /// histograms, the slow-query ring, and `Stats` frame exposition all
    /// become live.
    pub fn start_obs(
        backend: Arc<dyn SearchBackend>,
        config: ServerConfig,
        obs: &ObsHandle,
    ) -> io::Result<Server> {
        let batcher = Batcher::start_obs(backend, config.batcher, obs);
        Self::start_with(batcher, config, obs)
    }

    /// [`Server::start_mutable`] with instruments registered on `obs`.
    pub fn start_mutable_obs(
        backend: Arc<dyn MutableBackend>,
        config: ServerConfig,
        obs: &ObsHandle,
    ) -> io::Result<Server> {
        let batcher = Batcher::start_mutable_obs(backend, config.batcher, obs);
        Self::start_with(batcher, config, obs)
    }

    fn start_with(batcher: Batcher, config: ServerConfig, obs: &ObsHandle) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let batcher = Arc::new(batcher);
        let shared = Arc::new(ServerShared {
            shutdown: AtomicBool::new(false),
            stop_reason: AtomicU64::new(0),
            open: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            config,
            metrics: ServerMetrics::register(obs),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_batcher = Arc::clone(&batcher);
        let accept_thread = thread::Builder::new()
            .name("gkm-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_batcher))?;
        Ok(Server {
            shared,
            batcher,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves the ephemeral port of `…:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a graceful drain: stop accepting, answer queued work, join.
    /// Returns after the drain completes.  Idempotent.
    pub fn shutdown(&mut self) -> StopReason {
        self.shared.request_stop(StopReason::Requested);
        self.join()
    }

    /// Waits for the server to stop (a signal, a `Shutdown` frame, or a
    /// concurrent [`Server::shutdown`]) and returns why.
    pub fn join(&mut self) -> StopReason {
        if let Some(t) = self.accept_thread.take() {
            if t.join().is_err() {
                // The accept loop contains connection panics; reaching here
                // means a bug in the loop itself, which must stay loud.
                panic!("the accept thread panicked");
            }
        }
        match self.shared.stop_reason.load(Ordering::SeqCst) {
            1 => StopReason::CtlFrame,
            _ => StopReason::Requested,
        }
    }

    /// Signals a drain without waiting (e.g. from a signal handler thread).
    pub fn request_shutdown(&self) {
        self.shared.request_stop(StopReason::Requested);
    }

    /// True once the accept loop has exited (the drain has completed).  Lets
    /// a serve loop poll for a `Shutdown`-frame-initiated stop while also
    /// watching its own signal latch, without blocking in [`Server::join`].
    pub fn is_finished(&self) -> bool {
        match self.accept_thread.as_ref() {
            Some(t) => t.is_finished(),
            None => true,
        }
    }

    /// The observability handle the server (and its batcher) registered
    /// their instruments on.  Disabled unless the server was started through
    /// [`Server::start_obs`] / [`Server::start_mutable_obs`].
    pub fn obs(&self) -> &ObsHandle {
        self.batcher.obs()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.shared.accepted.load(Ordering::Relaxed),
            connections_refused: self.shared.refused.load(Ordering::Relaxed),
            connections_open: self.shared.open.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            batcher: self.batcher.stats(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.request_stop(StopReason::Requested);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Accept-loop poll tick: how often the shutdown flag is checked.
const ACCEPT_TICK: Duration = Duration::from_millis(10);
/// Reader poll tick: socket read timeout used to interleave idle accounting
/// and shutdown checks with blocking reads.
const READ_TICK: Duration = Duration::from_millis(50);

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>, batcher: Arc<Batcher>) {
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Response frames must not sit in Nagle's buffer waiting for
                // an ACK; latency is the product here.
                let _ = stream.set_nodelay(true);
                workers.retain(|t| !t.is_finished());
                if shared.open.load(Ordering::SeqCst) >= shared.config.max_connections {
                    shared.refused.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.refused.inc();
                    refuse_connection(stream);
                    continue;
                }
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                shared.metrics.accepted.inc();
                shared.open.fetch_add(1, Ordering::SeqCst);
                shared.metrics.open.add(1);
                let conn_shared = Arc::clone(&shared);
                let conn_batcher = Arc::clone(&batcher);
                let spawned = thread::Builder::new()
                    .name("gkm-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared, &conn_batcher);
                        conn_shared.open.fetch_sub(1, Ordering::SeqCst);
                        conn_shared.metrics.open.add(-1);
                    });
                match spawned {
                    Ok(t) => workers.push(t),
                    Err(_) => {
                        // Spawn failure (fd/thread exhaustion): undo the
                        // count; the stream drops closed.
                        shared.open.fetch_sub(1, Ordering::SeqCst);
                        shared.metrics.open.add(-1);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
    }
    // Drain: connection readers observe the flag within one READ_TICK and
    // finish their in-flight requests before exiting.
    for t in workers {
        let _ = t.join();
    }
}

/// Over the connection cap: answer `OVERLOADED` (id 0 — no request was
/// read) and close.
fn refuse_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let resp = SearchResponse::rejection(0, Status::Overloaded, "connection limit reached");
    let _ = write_response(&mut stream, &resp);
}

/// Runs one connection: reader here, writer on a helper thread.
fn handle_connection(stream: TcpStream, shared: &ServerShared, batcher: &Batcher) {
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (out_tx, out_rx) = mpsc::channel::<Reply>();
    let writer = thread::Builder::new()
        .name("gkm-conn-w".into())
        .spawn(move || writer_loop(writer_stream, &out_rx));
    let writer = match writer {
        Ok(t) => t,
        Err(_) => return,
    };

    let frames_handled = reader_loop(&stream, shared, batcher, &out_tx);
    shared.metrics.frames_per_conn.record(frames_handled);

    // Closing the channel stops the writer once every queued response (each
    // admitted request holds a sender clone until answered) has flushed.
    drop(out_tx);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Correlation id reserved for control traffic (ping/pong, shutdown ack).
/// [`handle_frame`] rejects search requests using it, so the writer can
/// distinguish control replies on the shared response channel.
const CTL_ID: u64 = u64::MAX;

fn writer_loop(mut stream: TcpStream, rx: &mpsc::Receiver<Reply>) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    while let Ok(reply) = rx.recv() {
        let ok = match reply {
            // Control replies ride the same channel as real responses so
            // they serialise in order behind earlier results.
            Reply::Search(resp) if resp.id == CTL_ID => {
                let kind = if resp.status == Status::ShuttingDown {
                    FrameKind::ShutdownAck
                } else {
                    FrameKind::Pong
                };
                write_frame(&mut stream, kind, &[]).is_ok()
            }
            Reply::Search(resp) => write_response(&mut stream, &resp).is_ok(),
            Reply::Traced(resp) => write_traced_response(&mut stream, &resp).is_ok(),
            Reply::Mutate(ack) => write_mutate_ack(&mut stream, &ack).is_ok(),
            Reply::Stats(resp) => write_stats_text(&mut stream, &resp).is_ok(),
        };
        if !ok {
            // Peer gone: keep draining the channel so batcher sends never
            // block, but stop touching the socket.
            while rx.recv().is_ok() {}
            return;
        }
    }
}

enum ParseState {
    Complete(crate::protocol::Frame, usize),
    Incomplete,
    Error(crate::protocol::WireError),
}

fn try_parse(buf: &[u8], max_payload: u32) -> ParseState {
    use crate::protocol::HEADER_LEN;
    if buf.len() < HEADER_LEN {
        return ParseState::Incomplete;
    }
    // Full header present: read_frame validates magic/version/kind/length
    // before the payload, so run it over a cursor and map "truncated" to
    // "incomplete".
    let mut cursor = buf;
    match read_frame(&mut cursor, max_payload) {
        Ok(Some(frame)) => {
            let consumed = buf.len() - cursor.len();
            ParseState::Complete(frame, consumed)
        }
        Ok(None) => ParseState::Incomplete,
        Err(crate::protocol::WireError::Truncated) => ParseState::Incomplete,
        Err(e) => ParseState::Error(e),
    }
}

/// Returns the number of frames handled, for the per-connection histogram.
fn reader_loop(
    stream: &TcpStream,
    shared: &ServerShared,
    batcher: &Batcher,
    out_tx: &mpsc::Sender<Reply>,
) -> u64 {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let cfg = &shared.config;
    let mut carry: Vec<u8> = Vec::new();
    let mut last_progress = Instant::now();
    let mut frames_handled: u64 = 0;
    loop {
        // Parse every complete frame already buffered.
        loop {
            match try_parse(&carry, cfg.max_frame_bytes) {
                ParseState::Complete(frame, consumed) => {
                    carry.drain(..consumed);
                    frames_handled += 1;
                    shared.metrics.frames.inc();
                    if !handle_frame(frame, shared, batcher, out_tx) {
                        return frames_handled;
                    }
                }
                ParseState::Incomplete => break,
                ParseState::Error(e) => {
                    shared.note_protocol_error();
                    if !e.is_disconnect() {
                        let _ = out_tx.send(Reply::Search(SearchResponse::rejection(
                            0,
                            Status::BadRequest,
                            e.to_string(),
                        )));
                    }
                    return frames_handled;
                }
            }
        }
        // Refill from the socket under the two idle budgets.
        let mut chunk = [0u8; 4096];
        match io::Read::read(&mut { stream }, &mut chunk) {
            Ok(0) => {
                if !carry.is_empty() {
                    shared.note_protocol_error();
                }
                // clean EOF (or torn frame — either way the peer left)
                return frames_handled;
            }
            Ok(n) => {
                carry.extend_from_slice(&chunk[..n]);
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) && carry.is_empty() {
                    return frames_handled; // drain: no partial frame in progress
                }
                let now = Instant::now();
                if carry.is_empty() {
                    if now - last_progress > cfg.idle_timeout {
                        return frames_handled;
                    }
                } else if now - last_progress > cfg.frame_timeout {
                    shared.note_protocol_error();
                    let _ = out_tx.send(Reply::Search(SearchResponse::rejection(
                        0,
                        Status::BadRequest,
                        "frame not completed within the slow-client budget",
                    )));
                    return frames_handled;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return frames_handled,
        }
    }
}

/// Processes one parsed frame.  Returns false when the connection should
/// close (shutdown handshake).
fn handle_frame(
    frame: crate::protocol::Frame,
    shared: &ServerShared,
    batcher: &Batcher,
    out_tx: &mpsc::Sender<Reply>,
) -> bool {
    match frame.kind {
        FrameKind::Ping => {
            let _ = out_tx.send(Reply::Search(SearchResponse::ok(CTL_ID, Vec::new())));
            true
        }
        FrameKind::Shutdown => {
            shared.request_stop(StopReason::CtlFrame);
            let _ = out_tx.send(Reply::Search(SearchResponse::rejection(
                CTL_ID,
                Status::ShuttingDown,
                String::new(),
            )));
            false
        }
        FrameKind::Search => {
            let req = match SearchRequest::decode(&frame.payload) {
                Ok(req) => req,
                Err(e) => {
                    shared.note_protocol_error();
                    let _ = out_tx.send(Reply::Search(SearchResponse::rejection(
                        0,
                        Status::BadRequest,
                        e.to_string(),
                    )));
                    return true;
                }
            };
            admit_search(req, 0, batcher, out_tx);
            true
        }
        FrameKind::TracedSearch => {
            let req = match TracedSearchRequest::decode(&frame.payload) {
                Ok(req) => req,
                Err(e) => {
                    shared.note_protocol_error();
                    let _ = out_tx.send(Reply::Search(SearchResponse::rejection(
                        0,
                        Status::BadRequest,
                        e.to_string(),
                    )));
                    return true;
                }
            };
            admit_search(req.req, req.trace_id, batcher, out_tx);
            true
        }
        FrameKind::Stats => {
            let req = match StatsRequest::decode(&frame.payload) {
                Ok(req) => req,
                Err(e) => {
                    shared.note_protocol_error();
                    let _ = out_tx.send(Reply::Search(SearchResponse::rejection(
                        0,
                        Status::BadRequest,
                        e.to_string(),
                    )));
                    return true;
                }
            };
            match render_stats(req.format, batcher) {
                Some(text) => {
                    let _ = out_tx.send(Reply::Stats(StatsResponse { text }));
                }
                None => {
                    let _ = out_tx.send(Reply::Search(SearchResponse::rejection(
                        0,
                        Status::BadRequest,
                        "this server was started without observability",
                    )));
                }
            }
            true
        }
        FrameKind::Insert | FrameKind::Delete | FrameKind::Compact => {
            let req = match MutationRequest::decode(frame.kind, &frame.payload) {
                Ok(req) => req,
                Err(e) => {
                    shared.note_protocol_error();
                    let _ = out_tx.send(Reply::Mutate(MutateResponse::rejection(
                        0,
                        Status::BadRequest,
                        e.to_string(),
                    )));
                    return true;
                }
            };
            if req.id == CTL_ID {
                let _ = out_tx.send(Reply::Mutate(MutateResponse::rejection(
                    0,
                    Status::BadRequest,
                    "request id u64::MAX is reserved for control frames",
                )));
                return true;
            }
            let id = req.id;
            let admission = batcher.submit_mutation(id, req.op, out_tx.clone());
            if let MutationAdmission::Rejected(resp) = admission {
                let _ = out_tx.send(Reply::Mutate(resp));
            }
            true
        }
        // A client sending server-only kinds is confused; answer and keep
        // the connection (harmless).
        FrameKind::Response
        | FrameKind::Pong
        | FrameKind::ShutdownAck
        | FrameKind::MutateAck
        | FrameKind::StatsText
        | FrameKind::TracedResponse => {
            shared.note_protocol_error();
            let _ = out_tx.send(Reply::Search(SearchResponse::rejection(
                0,
                Status::BadRequest,
                format!("unexpected client frame kind {:?}", frame.kind),
            )));
            true
        }
    }
}

/// Admits one search (traced when `trace_id != 0`) into the batcher,
/// forwarding any synchronous rejection on the reply channel in the shape
/// the client expects: plain responses for plain searches, traced responses
/// (with zeroed stage timings) for traced ones, so the caller can always
/// correlate by trace id.
fn admit_search(
    req: SearchRequest,
    trace_id: u64,
    batcher: &Batcher,
    out_tx: &mpsc::Sender<Reply>,
) {
    let reject = |resp: SearchResponse| {
        if trace_id != 0 {
            Reply::Traced(TracedSearchResponse {
                trace_id,
                timings: StageTimings::default(),
                resp,
            })
        } else {
            Reply::Search(resp)
        }
    };
    if req.id == CTL_ID {
        let _ = out_tx.send(reject(SearchResponse::rejection(
            0,
            Status::BadRequest,
            "request id u64::MAX is reserved for control frames",
        )));
        return;
    }
    let deadline = if req.deadline_ms == 0 {
        None
    } else {
        Some(Instant::now() + Duration::from_millis(u64::from(req.deadline_ms)))
    };
    let id = req.id;
    let admission = batcher.submit_traced(
        id,
        trace_id,
        req.queries,
        req.dim as usize,
        req.r as usize,
        req.nprobe as usize,
        deadline,
        out_tx.clone(),
    );
    if let Admission::Rejected(resp) = admission {
        let _ = out_tx.send(reject(resp));
    }
}

/// Renders the registry (plus the recent slow queries for the structured
/// formats) in the requested exposition format.  `None` when the server was
/// started without observability.
fn render_stats(format: StatsFormat, batcher: &Batcher) -> Option<String> {
    let handle = batcher.obs();
    let snap = handle.snapshot()?;
    let slow = handle
        .obs()
        .map(|o| o.slow_log().recent())
        .unwrap_or_default();
    Some(match format {
        StatsFormat::Prometheus => snap.render_prometheus(),
        StatsFormat::Json => snap.render_json(&slow),
        StatsFormat::Human => snap.render_human(&slow),
    })
}
