//! The attestation server: a multi-threaded socket front on
//! [`FleetService`].
//!
//! # Architecture
//!
//! ```text
//! acceptor thread ──┬─▶ handler thread (conn 1) ──┐
//!                   ├─▶ handler thread (conn 2) ──┼─▶ FleetService
//!                   └─▶ …        (≤ max_conns) ───┘
//! ```
//!
//! A handler thread owns its connection. One `read` takes every request
//! frame the socket holds into the connection's fixed [`FrameReader`].
//! The first frame is the handshake; the handler answers every later
//! request with `respond`, a plain `(service, tickets, draining,
//! request) → response` function that touches no socket, one request at
//! a time in arrival order, and frames each reply into an output buffer.
//! It writes that buffer with one `write` when no whole request is left
//! to run, that is, just before it would wait on the socket, and on
//! every path out of the connection. A pipelining client therefore costs
//! about one read and one write per burst, not per request.
//!
//! * **Backpressure, not backlog.** The acceptor sheds connections over
//!   `max_connections` with a `Busy` frame, and an optional
//!   per-connection token bucket sheds request floods the same way. A
//!   connection runs one request at a time, so at most `max_connections`
//!   sessions run at once. A client that pipelines deeper than one
//!   buffer fill waits in its own socket buffer, and a connection holds
//!   back at most the replies to one buffer fill of requests. Nothing
//!   grows with load. The acceptor joins the handler threads that have
//!   exited each time it admits a connection, so a server whose clients
//!   come and go keeps no thread of a closed connection.
//! * **Per-device order.** A connection's requests run in arrival order,
//!   and every call for a device holds that device's slot-shard lock for
//!   the whole session. A client that sends each device's requests in
//!   protocol order therefore has them applied in that order — the
//!   property that makes a seeded campaign over sockets bit-identical to
//!   an in-process run.
//! * **Typed failure.** Idle/read timeouts, torn frames, and vanished
//!   peers surface as [`TransportError`] variants (mapped into the
//!   `faults` taxonomy), are counted in [`TransportStats`], and close
//!   only the one connection. A session opened but never attested when
//!   its connection dies is recorded through
//!   [`FleetService::abort_session`] — lost, rejected, and fed to the
//!   lifecycle, exactly like a session a chaos channel ate.
//! * **Graceful drain.** `Shutdown` (or [`Server::initiate_drain`]) stops
//!   the acceptor, refuses new enrolls/sessions with `Draining`, lets
//!   open tickets attest, and force-closes stragglers after a grace
//!   period. [`Server::finish`] returns only after every handler has
//!   exited, so no in-flight session can be lost.

use crate::conn::{Endpoint, Listener, Stream};
use crate::error::{ErrorCode, TransportError};
use crate::frame::{encode_frame, write_frame, FrameReader};
use crate::message::{negotiate, Request, Response, WireStats};
use pufatt::PufattError;
use pufatt_fleet::campaign::CampaignConfig;
use pufatt_fleet::registry::DeviceId;
use pufatt_fleet::service::{EnrollOutcome, ServiceVerdict, SessionGate};
use pufatt_fleet::sync::{lock, lock_ranked, rank};
use pufatt_fleet::{DeviceRecord, FleetService, FleetSnapshot};
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket-side tuning. [`ServerConfig::default`] suits tests and the CLI;
/// everything verdict-affecting lives in the fleet's `CampaignConfig`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections beyond this are shed at accept with a `Busy` frame.
    /// Each connection runs one request at a time, so this also bounds
    /// the sessions the server runs at once.
    pub max_connections: usize,
    /// Per-connection read timeout in ms (idle clients are disconnected);
    /// `0` blocks forever.
    pub read_timeout_ms: u64,
    /// Per-connection write timeout in ms; `0` blocks forever.
    pub write_timeout_ms: u64,
    /// Token-bucket refill rate in requests/second per connection
    /// (`0.0` disables rate limiting).
    pub rate_limit_per_s: f64,
    /// Token-bucket burst capacity.
    pub rate_burst: u32,
    /// Backoff hint carried in `Busy` replies, in ms.
    pub busy_retry_ms: u32,
    /// How long [`Server::finish`] waits for connections to close before
    /// force-shutting their sockets.
    pub drain_grace_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            rate_limit_per_s: 0.0,
            rate_burst: 64,
            busy_retry_ms: 10,
            drain_grace_ms: 5_000,
        }
    }
}

/// Socket-side counters (the fleet's own metrics live in the snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections accepted and served.
    pub connections_served: u64,
    /// Connections shed at accept (over `max_connections`).
    pub connections_shed: u64,
    /// Requests decoded and handled.
    pub requests: u64,
    /// Always 0: requests never queue behind a full dispatch queue. Kept
    /// for readers that still sum it into their busy-reply count.
    pub busy_queue: u64,
    /// `Busy` replies from the per-connection rate limiter.
    pub busy_rate: u64,
    /// Frames that decoded but whose payload was malformed.
    pub malformed: u64,
    /// Connections dropped on frame-level damage.
    pub frame_errors: u64,
    /// Connections dropped on idle/read timeout.
    pub idle_timeouts: u64,
    /// Connections dropped by the peer mid-conversation.
    pub peer_drops: u64,
    /// Open sessions aborted because their connection died.
    pub sessions_aborted: u64,
    /// Replies lost to failed writes (peer gone before its answer). A
    /// failed write of a batch counts every reply in it.
    pub write_errors: u64,
    /// Socket writes that carried replies. A handler writes its buffered
    /// replies once per burst of requests, so this reads below the
    /// number of replies under pipelined load.
    pub reply_writes: u64,
}

#[derive(Debug, Default)]
struct Counters {
    connections_served: AtomicU64,
    connections_shed: AtomicU64,
    requests: AtomicU64,
    busy_rate: AtomicU64,
    malformed: AtomicU64,
    frame_errors: AtomicU64,
    idle_timeouts: AtomicU64,
    peer_drops: AtomicU64,
    sessions_aborted: AtomicU64,
    write_errors: AtomicU64,
    reply_writes: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a reply that refuses the protocol itself, a malformed
    /// request or a failed handshake, in `malformed`.
    fn count_reply(&self, response: &Response) {
        if let Response::Error { code: ErrorCode::Malformed | ErrorCode::VersionMismatch, .. } = response {
            Counters::bump(&self.malformed);
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            connections_served: self.connections_served.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            busy_queue: 0,
            busy_rate: self.busy_rate.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            frame_errors: self.frame_errors.load(Ordering::Relaxed),
            idle_timeouts: self.idle_timeouts.load(Ordering::Relaxed),
            peer_drops: self.peer_drops.load(Ordering::Relaxed),
            sessions_aborted: self.sessions_aborted.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            reply_writes: self.reply_writes.load(Ordering::Relaxed),
        }
    }
}

/// The final word of a served campaign: the same snapshot/device-record
/// pair `run_campaign` reports, plus the socket-side counters.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Final fleet counters (exact — taken after full drain).
    pub snapshot: FleetSnapshot,
    /// Per-device end states, ascending by id (the determinism witness).
    pub device_records: Vec<DeviceRecord>,
    /// Socket-side counters.
    pub transport: TransportStats,
    /// Connection handler threads that panicked (0 in a healthy run).
    pub panicked_jobs: u64,
}

struct Shared {
    service: Arc<FleetService>,
    cfg: ServerConfig,
    counters: Counters,
    draining: AtomicBool,
    /// Live connections: id → shutdown handle (for forced drain).
    conns: Mutex<HashMap<u64, Stream>>,
    conn_exited: Condvar,
    /// Handler threads not yet joined: the live ones, plus any that
    /// exited since the last admit.
    handler_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Handler threads joined at an admit whose join returned a panic.
    reaped_panics: AtomicU64,
}

/// A simple token bucket: `rate` tokens/second, up to `burst` banked.
struct TokenBucket {
    tokens: f64,
    last: Instant,
    rate: f64,
    burst: f64,
}

impl TokenBucket {
    fn new(rate: f64, burst: u32) -> Self {
        TokenBucket {
            tokens: f64::from(burst.max(1)),
            last: Instant::now(),
            rate,
            burst: f64::from(burst.max(1)),
        }
    }

    /// Takes one token, or reports how many ms until one is available.
    fn admit(&mut self) -> Result<(), u32> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        let now = Instant::now();
        self.tokens = (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err((((1.0 - self.tokens) / self.rate) * 1e3).ceil().max(1.0) as u32)
        }
    }
}

/// A running attestation server. Construct with [`Server::start`], stop
/// with [`Server::finish`].
pub struct Server {
    endpoint: Endpoint,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `endpoint` and starts serving the fleet `campaign` describes
    /// under the socket policy `cfg`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the bind fails, or a wrapped
    /// [`PufattError`] rendering when the campaign configuration is
    /// invalid.
    pub fn start(endpoint: &Endpoint, campaign: CampaignConfig, cfg: ServerConfig) -> Result<Self, TransportError> {
        let service = Arc::new(
            FleetService::new(campaign)
                .map_err(|e| TransportError::Protocol(format!("invalid campaign config: {e}")))?,
        );
        Self::start_with_service(endpoint, service, cfg)
    }

    /// [`Server::start`] around an already-built service — the journaled
    /// entry point: construct the service with
    /// [`FleetService::with_journal`] (restoring any prior state from its
    /// store) and serve it. Wire `Enroll` requests then admit devices
    /// online, durably, while the server runs.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] when the bind fails.
    pub fn start_with_service(
        endpoint: &Endpoint,
        service: Arc<FleetService>,
        cfg: ServerConfig,
    ) -> Result<Self, TransportError> {
        let listener = Listener::bind(endpoint)?;
        let endpoint = listener.local_endpoint();
        let shared = Arc::new(Shared {
            service,
            cfg,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_exited: Condvar::new(),
            handler_handles: Mutex::new(Vec::new()),
            reaped_panics: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pufatt-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| TransportError::Closed(format!("spawn acceptor: {e}")))?
        };
        Ok(Server { endpoint, shared, acceptor: Some(acceptor) })
    }

    /// The endpoint actually bound (resolves TCP port `0`).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The fleet service behind the sockets (for in-process inspection).
    pub fn service(&self) -> &Arc<FleetService> {
        &self.shared.service
    }

    /// Socket-side counters so far.
    pub fn transport_stats(&self) -> TransportStats {
        self.shared.counters.stats()
    }

    /// Connections being served right now.
    pub fn live_connections(&self) -> usize {
        lock_ranked(&self.shared.conns, rank::SERVER_CONNS).len()
    }

    /// Handler threads not yet joined. The acceptor joins the exited ones
    /// at each admit, so this stays near [`Server::live_connections`]
    /// however many connections have come and gone.
    pub fn retained_handlers(&self) -> usize {
        lock_ranked(&self.shared.handler_handles, rank::HANDLER_HANDLES).len()
    }

    /// Starts the drain: stop accepting, refuse new sessions, let open
    /// tickets finish. Idempotent; also triggered by a wire `Shutdown`.
    pub fn initiate_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain is under way.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Drains and shuts down: waits up to `drain_grace_ms` for
    /// connections to close on their own, force-closes the rest, joins
    /// every thread, and returns the final report. No in-flight session
    /// is lost: a request being handled runs to its verdict, and a ticket
    /// that was open when its connection died is recorded as an aborted
    /// (lost) session.
    pub fn finish(mut self) -> ServerReport {
        self.initiate_drain();
        if let Some(handle) = self.acceptor.take() {
            // The acceptor blocks in `accept`; a connection of our own
            // wakes it to see the drain flag. If that connect fails, the
            // listener is already closed (the acceptor is exiting) or out
            // of reach, and a join could wait forever.
            if Stream::connect(&self.endpoint).is_ok() {
                let _ = handle.join();
            }
        }
        // Phase 1: let connections finish politely.
        let deadline = Instant::now() + Duration::from_millis(self.shared.cfg.drain_grace_ms);
        {
            // Plain `lock` (not `lock_ranked`): `Condvar::wait_timeout`
            // consumes a std `MutexGuard`, which `RankGuard` cannot hand
            // over. Nothing else is acquired in this region.
            let mut conns = lock(&self.shared.conns);
            while !conns.is_empty() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self
                    .shared
                    .conn_exited
                    .wait_timeout(conns, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                conns = guard;
            }
            // Phase 2: force-close stragglers; their handlers wake with a
            // typed error, abort open tickets, and exit.
            for stream in conns.values() {
                stream.shutdown();
            }
        }
        // Take the handles out first, then join with no lock held: a
        // handler that races `finish` can still register or remove itself
        // without deadlocking against this join loop.
        let mut guard = lock_ranked(&self.shared.handler_handles, rank::HANDLER_HANDLES);
        let handles: Vec<_> = guard.drain(..).collect();
        drop(guard);
        let panicked_jobs = join_counting_panics(handles) + self.shared.reaped_panics.load(Ordering::Relaxed);
        ServerReport {
            snapshot: self.shared.service.snapshot(),
            device_records: self.shared.service.device_records(),
            transport: self.shared.counters.stats(),
            panicked_jobs,
        }
    }
}

fn accept_loop(listener: &Listener, shared: &Arc<Shared>) {
    let mut next_conn_id = 0u64;
    loop {
        let accepted = listener.accept();
        // A connection accepted while draining (`finish`'s wake-up among
        // them) is dropped unserved.
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(stream) => {
                next_conn_id += 1;
                admit_connection(shared, stream, next_conn_id);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Moves the handles of threads that have exited out of `handles`.
fn take_finished(handles: &mut Vec<JoinHandle<()>>) -> Vec<JoinHandle<()>> {
    handles.extract_if(.., |handle| handle.is_finished()).collect()
}

/// Joins `handles` and returns how many of their threads panicked.
fn join_counting_panics(handles: Vec<JoinHandle<()>>) -> u64 {
    handles.into_iter().filter_map(|handle| handle.join().err()).count() as u64
}

fn admit_connection(shared: &Arc<Shared>, stream: Stream, conn_id: u64) {
    let counters = &shared.counters;
    // Join the handlers that have exited, with the lock released, so the
    // handle list holds only live connections; `finish` adds their panics
    // to its own.
    let finished = take_finished(&mut lock_ranked(&shared.handler_handles, rank::HANDLER_HANDLES));
    shared
        .reaped_panics
        .fetch_add(join_counting_panics(finished), Ordering::Relaxed);
    let at_capacity = lock_ranked(&shared.conns, rank::SERVER_CONNS).len() >= shared.cfg.max_connections;
    if at_capacity {
        // Shed with a Busy frame instead of queueing unboundedly.
        Counters::bump(&counters.connections_shed);
        let _ = stream.set_write_timeout_ms(shared.cfg.write_timeout_ms.max(100));
        let mut payload = Vec::new();
        Response::Busy { retry_after_ms: shared.cfg.busy_retry_ms }.encode(0, &mut payload);
        let mut stream = stream;
        let _ = write_frame(&mut stream, &payload, shared.cfg.write_timeout_ms.max(100));
        return;
    }
    let Ok(shutdown_handle) = stream.try_clone() else {
        return;
    };
    lock_ranked(&shared.conns, rank::SERVER_CONNS).insert(conn_id, shutdown_handle);
    Counters::bump(&counters.connections_served);
    let thread_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("pufatt-conn-{conn_id}"))
        .spawn(move || {
            // Deregister even if the handler panics, so `finish` does not
            // wait out its grace period for a dead connection; the panic
            // then reaches `finish` through the join.
            let served = catch_unwind(AssertUnwindSafe(|| handle_connection(&thread_shared, stream)));
            lock_ranked(&thread_shared.conns, rank::SERVER_CONNS).remove(&conn_id);
            thread_shared.conn_exited.notify_all();
            if let Err(panic) = served {
                resume_unwind(panic);
            }
        });
    match spawned {
        Ok(handle) => lock_ranked(&shared.handler_handles, rank::HANDLER_HANDLES).push(handle),
        Err(_) => {
            lock_ranked(&shared.conns, rank::SERVER_CONNS).remove(&conn_id);
        }
    }
}

/// Classifies a connection-ending transport error into the counters.
fn count_connection_end(counters: &Counters, err: &TransportError) {
    match err {
        TransportError::Frame(_) | TransportError::Malformed(_) => Counters::bump(&counters.frame_errors),
        TransportError::Timeout { .. } => Counters::bump(&counters.idle_timeouts),
        _ => Counters::bump(&counters.peer_drops),
    }
}

fn handle_connection(shared: &Shared, stream: Stream) {
    let cfg = &shared.cfg;
    let counters = &shared.counters;
    let _ = stream.set_read_timeout_ms(cfg.read_timeout_ms);
    let _ = stream.set_write_timeout_ms(cfg.write_timeout_ms);
    let mut conn = Conn {
        shared,
        stream,
        frames: FrameReader::new(),
        tickets: HashMap::new(),
        reply: Vec::new(),
        out: Vec::new(),
        buffered_replies: 0,
    };
    let exit_err = conn.serve();
    // Whatever ended the connection, the replies already run go out.
    conn.write_replies();
    if let Some(e) = &exit_err {
        count_connection_end(counters, e);
    }
    // Every ticket still open was a session the transport lost: record it
    // (lost + rejected + lifecycle) exactly like a chaos-eaten session.
    for (id, _) in conn.tickets.drain() {
        Counters::bump(&counters.sessions_aborted);
        shared.service.abort_session(id);
    }
}

/// One connection as its handler thread sees it. Only the handler reads
/// or writes the socket, so nothing here is shared.
struct Conn<'a> {
    shared: &'a Shared,
    stream: Stream,
    /// Request frames read from the socket and not yet run.
    frames: FrameReader,
    /// Tickets granted and not yet attested: device → ticket.
    tickets: HashMap<DeviceId, u64>,
    /// Reused encode buffer for one reply's payload.
    reply: Vec<u8>,
    /// Framed replies not yet written.
    out: Vec<u8>,
    /// How many replies `out` holds.
    buffered_replies: u64,
}

impl Conn<'_> {
    /// Serves the connection until it closes, returning the transport
    /// error that ended it, if one did.
    fn serve(&mut self) -> Option<TransportError> {
        let shared = self.shared;
        let cfg = &shared.cfg;
        let counters = &shared.counters;
        let mut payload = Vec::new();
        let mut bucket = TokenBucket::new(cfg.rate_limit_per_s, cfg.rate_burst);
        let mut negotiated = false;
        loop {
            match self.next_frame(&mut payload) {
                Ok(true) => {}
                Ok(false) => return None, // clean close
                Err(e) => return Some(e),
            }
            let decoded = Request::decode(&payload);
            if !negotiated {
                // The first frame must be a Hello the server accepts. Any
                // other first frame ends the connection: an undecodable
                // one with no reply, the rest after their error reply.
                let Ok((corr, request)) = decoded else {
                    Counters::bump(&counters.malformed);
                    return None;
                };
                let reply = handshake(request);
                negotiated = matches!(reply, Response::HelloAck { .. });
                self.send(corr, &reply);
                if !negotiated {
                    return None;
                }
                continue;
            }
            let (corr, request) = match decoded {
                Ok(decoded) => decoded,
                Err(e) => {
                    // The frame was checksum-valid, so framing is still in
                    // sync: answer the error and keep the connection.
                    self.send(0, &Response::Error { code: ErrorCode::Malformed, detail: e.to_string() });
                    continue;
                }
            };
            Counters::bump(&counters.requests);
            if let Err(wait_ms) = bucket.admit() {
                Counters::bump(&counters.busy_rate);
                self.send(corr, &Response::Busy { retry_after_ms: wait_ms.max(cfg.busy_retry_ms) });
                continue;
            }
            let response = respond(&shared.service, &mut self.tickets, &shared.draining, request);
            self.send(corr, &response);
            if shared.draining.load(Ordering::SeqCst) && self.tickets.is_empty() {
                return None; // nothing left in flight on this connection
            }
        }
    }

    /// Reads the next request frame into `payload`. When no whole frame
    /// is buffered, the read may wait for the peer, so the replies run so
    /// far are written first.
    fn next_frame(&mut self, payload: &mut Vec<u8>) -> Result<bool, TransportError> {
        if !self.frames.has_frame() {
            self.write_replies();
        }
        self.frames
            .read_frame(&mut self.stream, payload, self.shared.cfg.read_timeout_ms)
    }

    /// Frames a reply into the output buffer; [`Conn::write_replies`]
    /// sends it. A reply refusing the protocol itself counts in
    /// `malformed` ([`Counters::count_reply`]).
    fn send(&mut self, corr: u32, response: &Response) {
        self.shared.counters.count_reply(response);
        self.reply.clear();
        response.encode(corr, &mut self.reply);
        encode_frame(&self.reply, &mut self.out);
        self.buffered_replies += 1;
    }

    /// Writes every buffered reply with one `write_all`. A failed write
    /// loses them all, and each counts in `write_errors`.
    fn write_replies(&mut self) {
        if self.buffered_replies == 0 {
            return;
        }
        let counters = &self.shared.counters;
        Counters::bump(&counters.reply_writes);
        if self.stream.write_all(&self.out).is_err() {
            counters.write_errors.fetch_add(self.buffered_replies, Ordering::Relaxed);
        }
        self.out.clear();
        self.buffered_replies = 0;
    }
}

/// The reply to a connection's first request: `HelloAck` at the
/// negotiated version, or the error that ends the connection.
fn handshake(request: Request) -> Response {
    match request {
        Request::Hello { magic, min_version, max_version } => match negotiate(magic, min_version, max_version) {
            Ok(version) => Response::HelloAck { version },
            Err(e) => {
                let code = match e {
                    TransportError::VersionMismatch { .. } => ErrorCode::VersionMismatch,
                    _ => ErrorCode::Malformed,
                };
                Response::Error { code, detail: e.to_string() }
            }
        },
        _ => Response::Error {
            code: ErrorCode::Malformed,
            detail: "expected Hello before any request".into(),
        },
    }
}

/// Answers one request after the handshake on `service`. `tickets` are
/// the connection's granted and not yet attested sessions (device →
/// ticket); `draining` refuses new enrolls and sessions and is raised by
/// `Shutdown`. It touches no socket: the connection reads the request
/// and writes the reply.
fn respond(
    service: &FleetService,
    tickets: &mut HashMap<DeviceId, u64>,
    draining: &AtomicBool,
    request: Request,
) -> Response {
    match request {
        Request::Hello { .. } => Response::Error { code: ErrorCode::Malformed, detail: "duplicate Hello".into() },
        Request::Enroll { .. } | Request::ChallengeRequest { .. } if draining.load(Ordering::SeqCst) => {
            Response::Error { code: ErrorCode::Draining, detail: "server draining".into() }
        }
        Request::Enroll { device } => match service.enroll(device) {
            Ok(EnrollOutcome { fresh, status }) => Response::EnrollOk { device, fresh, status },
            Err(e) => Response::Error {
                code: storage_aware_code(&e, ErrorCode::DeviceFault),
                detail: error_detail(&e),
            },
        },
        Request::ChallengeRequest { device } => match service.open_session(device) {
            SessionGate::Granted { ticket } => {
                // A forgotten earlier ticket is replaced; it carried
                // no metrics, so dropping it silently is neutral.
                tickets.insert(device, ticket);
                Response::Challenge { device, ticket }
            }
            SessionGate::Refused => refused(device),
            SessionGate::Faulty => device_fault(device),
            SessionGate::Unknown => unknown_device(device),
            SessionGate::Unavailable => shard_unavailable(device),
        },
        Request::Attest { device, ticket } => {
            if tickets.get(&device) == Some(&ticket) {
                tickets.remove(&device);
                match service.attest(device) {
                    ServiceVerdict::Closed { outcome, status } => Response::Verdict {
                        device,
                        accepted: outcome.accepted,
                        response_ok: outcome.response_ok,
                        time_ok: outcome.time_ok,
                        timed_out: outcome.timed_out,
                        attempts: outcome.attempts,
                        elapsed_bits: outcome.elapsed_s.to_bits(),
                        status,
                    },
                    ServiceVerdict::Refused => refused(device),
                    ServiceVerdict::Fault => device_fault(device),
                    ServiceVerdict::Unknown => unknown_device(device),
                    ServiceVerdict::Unavailable => shard_unavailable(device),
                }
            } else {
                Response::Error {
                    code: ErrorCode::BadTicket,
                    detail: format!("no open session for device {device} and that ticket"),
                }
            }
        }
        Request::Revoke { device } => match service.revoke(device) {
            Ok(Some(status)) => Response::RevokeOk { device, status },
            Ok(None) => unknown_device(device),
            // The journal refused the synced append: the revocation
            // did NOT take (the lifecycle is untouched), and the
            // client must hear that rather than a cheerful RevokeOk.
            Err(e) => Response::Error {
                code: storage_aware_code(&e, ErrorCode::DeviceFault),
                detail: error_detail(&e),
            },
        },
        Request::Stats => {
            let snap = service.snapshot();
            let store = service.store_stats();
            Response::StatsReply(WireStats {
                started: snap.sessions_started,
                accepted: snap.sessions_accepted,
                rejected: snap.sessions_rejected,
                timed_out: snap.sessions_timed_out,
                refused: snap.sessions_refused,
                lost: snap.sessions_lost,
                faults: snap.device_faults,
                active: snap.devices.active as u64,
                quarantined: snap.devices.quarantined as u64,
                revoked: snap.devices.revoked as u64,
                crp_hits: snap.crp_hits,
                crp_misses: snap.crp_misses,
                unavailable: snap.sessions_unavailable,
                shards_total: store.as_ref().map_or(0, |s| u64::from(s.shards_total)),
                shards_degraded: store.as_ref().map_or(0, |s| u64::from(s.shards_degraded)),
                shards_failed: store.as_ref().map_or(0, |s| u64::from(s.shards_failed)),
            })
        }
        Request::Shutdown => {
            // Raise the flag before the ack travels: a client that saw
            // the ack must observe the server as draining.
            draining.store(true, Ordering::SeqCst);
            Response::ShutdownAck
        }
    }
}

fn refused(device: DeviceId) -> Response {
    Response::Error {
        code: ErrorCode::Refused,
        detail: format!("device {device} is revoked"),
    }
}

fn device_fault(device: DeviceId) -> Response {
    Response::Error {
        code: ErrorCode::DeviceFault,
        detail: format!("device {device} faulted"),
    }
}

fn unknown_device(device: DeviceId) -> Response {
    Response::Error {
        code: ErrorCode::UnknownDevice,
        detail: format!("device {device} not enrolled"),
    }
}

fn shard_unavailable(device: DeviceId) -> Response {
    Response::Error {
        code: ErrorCode::StorageUnavailable,
        detail: format!("device {device}'s storage shard is unavailable"),
    }
}

/// Renders a service error for the wire — the Display impls carry public
/// facts only (ids, widths, timings), never response material; the taint
/// lint over this crate enforces that no secret identifier reaches a
/// format macro.
fn error_detail(e: &PufattError) -> String {
    e.to_string()
}

/// Picks the wire code for a service error: a storage failure — the
/// typed per-shard refusal, or the append that just found the shard sick —
/// travels as its own stable code (the client can distinguish "this shard
/// is sick, others work" from a device-level fault); everything else
/// keeps the request's default code.
fn storage_aware_code(e: &PufattError, default: ErrorCode) -> ErrorCode {
    match e {
        PufattError::Storage(_) | PufattError::StorageUnavailable { .. } => ErrorCode::StorageUnavailable,
        _ => default,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn respond_refuses_a_second_hello_and_runs_the_session_on() {
        let service = FleetService::new(pufatt_fleet::small_test_config(1, 1, 3)).unwrap();
        let counters = Counters::default();
        let draining = AtomicBool::new(false);
        let mut tickets = HashMap::new();
        // What a connection does with each request after its handshake.
        let mut run = |request| {
            let response = respond(&service, &mut tickets, &draining, request);
            counters.count_reply(&response);
            response
        };
        assert!(matches!(run(Request::Enroll { device: 0 }), Response::EnrollOk { device: 0, fresh: true, .. }));
        let ticket = match run(Request::ChallengeRequest { device: 0 }) {
            Response::Challenge { device: 0, ticket } => ticket,
            other => panic!("expected a challenge, got {other:?}"),
        };
        let again = run(crate::message::hello());
        assert!(matches!(again, Response::Error { code: ErrorCode::Malformed, .. }), "{again:?}");
        assert_eq!(counters.stats().malformed, 1);
        let verdict = run(Request::Attest { device: 0, ticket });
        assert!(matches!(verdict, Response::Verdict { device: 0, .. }), "{verdict:?}");
        assert!(tickets.is_empty(), "the attested ticket is spent");
        assert_eq!(counters.stats().malformed, 1);
        assert_eq!(service.snapshot().sessions_started, 1);
    }

    #[test]
    fn reaping_counts_a_panicked_handler_once() {
        let (release, wait) = mpsc::channel::<()>();
        let live = std::thread::spawn(move || {
            let _ = wait.recv();
        });
        let crashed = std::thread::spawn(|| panic!("handler crashed"));
        while !crashed.is_finished() {
            std::thread::yield_now();
        }
        let mut handles = vec![live, crashed];

        // At an admit: the exited handler is joined and its panic counted.
        let reaped = join_counting_panics(take_finished(&mut handles));
        assert_eq!(reaped, 1);
        assert_eq!(handles.len(), 1, "the live handler is kept");
        assert!(take_finished(&mut handles).is_empty(), "a live handler is not reaped");

        // At finish: the rest are joined, and the reaped panic is not
        // counted again.
        release.send(()).unwrap();
        assert_eq!(join_counting_panics(handles) + reaped, 1);
    }
}
