//! The TCP/HTTP front end: a nonblocking readiness event loop around a
//! [`SimulationServer`].
//!
//! Architecture (the Rust stand-in for the paper's Undertow deployment,
//! §III/§IV-A, scaled past the thread-per-connection ceiling):
//!
//! * an **acceptor thread** owns the listener, enforces the
//!   `max_connections` cap (`503` + close above it) and hands accepted
//!   sockets round-robin to the event loops;
//! * **event-loop threads** (epoll via the vendored `polling` wrapper) each
//!   drive thousands of connections through a per-connection state machine —
//!   *reading* (incremental framing over [`RequestParser`], which was
//!   property-tested against arbitrary partial reads precisely so it can run
//!   this way) → *dispatching* (protocol work runs on the worker pool, the
//!   loop keeps serving other connections) → *writing* (buffered partial
//!   writes, `EPOLLOUT`-driven).  A keep-alive connection between requests
//!   costs one registered fd, not a parked thread;
//! * **dispatch workers** execute `POST /api` payloads in
//!   [`SimulationServer::handle_raw`] (where each session's lock orders
//!   concurrent requests on it) and post the shared [`bytes::Bytes`]
//!   response back to the owning loop through its waker — a cached
//!   `GetState` is served with zero payload copies end to end.  A handler
//!   that panics is answered `500` and the worker lives on;
//! * every connection carries a **deadline**: a partially received request
//!   must complete within `header_deadline`, a response must make write
//!   progress within `write_deadline`, and an idle keep-alive connection is
//!   closed after `idle_deadline` — a client that sends half a head or
//!   stops reading mid-response is reclaimed instead of pinning resources
//!   forever (the slow-client bug family of the worker-pool design);
//! * a **housekeeping thread** ticks periodically and runs the idle-session
//!   sweep ([`SimulationServer::evict_idle`]);
//! * `GET /metrics` exposes front-end counters, connection-state gauges and
//!   session-store gauges, `GET /healthz` answers `ok`.
//!
//! Shutdown is graceful: the loops finish their current event batch, close
//! every connection, and every thread is joined before
//! [`NetServer::shutdown`] returns.

use crate::http::{
    write_response_head, HttpError, HttpRequest, RequestParser, ResponseHead, Version,
};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use polling::{Events, Interest, Poller, Waker};
use rvsim_obs::journal::NO_SESSION;
use rvsim_obs::{expo, Event, EventKind, Exposition, Observer};
use rvsim_server::SimulationServer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the network front end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Event-loop threads.  Each owns one epoll instance and a share of the
    /// connections; two saturate the protocol path on small hosts.
    pub event_loops: usize,
    /// Dispatch workers executing protocol requests (`POST /api`).  These
    /// bound concurrent *simulation* work, not concurrent connections.
    pub dispatch_workers: usize,
    /// Live-connection cap across all loops; connections above it are
    /// answered `503 Service Unavailable` and closed by the acceptor.
    pub max_connections: usize,
    /// Parsed requests that may queue for a dispatch worker before the
    /// front end answers `503` (the request is parsed, the connection
    /// stays open).
    pub pending_dispatch: usize,
    /// Housekeeping tick period (idle-session eviction).
    pub housekeeping_interval: Duration,
    /// A connection with a partially received request (head or body) must
    /// complete it within this deadline or be closed.
    pub header_deadline: Duration,
    /// An idle keep-alive connection (no partial request buffered) is
    /// closed after this long without a request.
    pub idle_deadline: Duration,
    /// A connection with a partially written response must accept more
    /// bytes within this deadline (reset on progress) or be closed.
    pub write_deadline: Duration,
    /// Requests whose phase timings sum past this many microseconds are
    /// force-journaled with their full breakdown (`0` journals every
    /// request — useful for tracing, noisy under load).
    pub slow_request_us: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            event_loops: 2,
            dispatch_workers: 4,
            max_connections: 16 * 1024,
            pending_dispatch: 1024,
            housekeeping_interval: Duration::from_secs(1),
            header_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(60),
            write_deadline: Duration::from_secs(10),
            slow_request_us: rvsim_obs::DEFAULT_SLOW_REQUEST_US,
        }
    }
}

/// Front-end counters and gauges served by `GET /metrics`.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted and handed to an event loop.
    pub connections_accepted: AtomicU64,
    /// Connections answered `503` at the accept gate (`max_connections`).
    pub connections_rejected: AtomicU64,
    /// Currently open connections across all event loops (gauge).
    pub connections_open: AtomicU64,
    /// Connections closed by a deadline while a request or response was in
    /// flight (the slow-client reclamation path).
    pub connections_stalled_closed: AtomicU64,
    /// Idle keep-alive connections closed by the idle deadline.
    pub connections_idle_closed: AtomicU64,
    /// Requests answered (any status).
    pub requests_served: AtomicU64,
    /// Requests rejected at the HTTP layer (4xx/5xx framing errors).
    pub http_errors: AtomicU64,
    /// Requests answered `503` because the dispatch queue was full.
    pub dispatch_rejected: AtomicU64,
    /// Requests answered `500` because their handler panicked.
    pub handler_panics: AtomicU64,
}

/// What the front end serves: the event loops handle HTTP framing and the
/// fixed endpoints (`/healthz`, `/metrics`), and everything protocol-shaped
/// is delegated here.  [`SimulationServer`] is the canonical implementation;
/// the router tier implements it to proxy instead of simulate.
pub trait ApiHandler: Send + Sync + 'static {
    /// Execute one `POST /api` payload and produce the encoded response
    /// bytes (runs on a dispatch worker, never on an event loop).
    /// `request_id` is the edge-minted (or propagated) id of the request,
    /// for journal attribution and upstream-hop propagation.
    fn handle_api(&self, body: &[u8], request_id: u64) -> Bytes;

    /// Execute a `POST /admin/...` control request (drain, rebalance).
    /// `None` means the endpoint does not exist.  Runs on a dispatch
    /// worker: control work may block on upstream calls.
    fn handle_control(&self, target: &str, body: &[u8]) -> Option<ControlResponse> {
        let _ = (target, body);
        None
    }

    /// Append handler-specific metric families to the `/metrics` document.
    fn append_metrics(&self, out: &mut Exposition) {
        let _ = out;
    }

    /// Periodic housekeeping (idle eviction, upstream health checks).
    fn housekeeping(&self) {}

    /// The handler's observability handle.  When present, the front end
    /// shares it (phase histograms, journal, request-id mint), so handler
    /// events and connection events land in one per-process journal;
    /// handlers without one get a private front-end observer.
    fn observer(&self) -> Option<Arc<Observer>> {
        None
    }
}

/// Response of an [`ApiHandler::handle_control`] endpoint.
pub struct ControlResponse {
    /// HTTP status code.
    pub status: u16,
    /// Status reason phrase.
    pub reason: &'static str,
    /// Response body (served as `application/json`).
    pub body: Vec<u8>,
}

impl ApiHandler for SimulationServer {
    fn handle_api(&self, body: &[u8], _request_id: u64) -> Bytes {
        self.handle_raw(body)
    }

    fn handle_control(&self, target: &str, body: &[u8]) -> Option<ControlResponse> {
        // Both endpoints exist only when the server runs with a state dir;
        // without one they 404 so a router probing a non-durable backend
        // can tell the difference from an empty checkpoint set.
        match target {
            "/admin/checkpoints" => {
                self.checkpoint_store()?;
                let entries = self.checkpoint_entries();
                Some(ControlResponse {
                    status: 200,
                    reason: "OK",
                    body: serde_json::to_vec(&entries).expect("entries serialize"),
                })
            }
            "/admin/recover" => {
                self.checkpoint_store()?;
                #[derive(serde::Deserialize)]
                struct RecoverArgs {
                    sessions: Vec<u64>,
                }
                let args: RecoverArgs = match serde_json::from_slice(body) {
                    Ok(args) => args,
                    Err(e) => {
                        return Some(ControlResponse {
                            status: 400,
                            reason: "Bad Request",
                            body: format!("bad recover body: {e}\n").into_bytes(),
                        })
                    }
                };
                let outcomes = self.recover_sessions(&args.sessions);
                Some(ControlResponse {
                    status: 200,
                    reason: "OK",
                    body: serde_json::to_vec(&outcomes).expect("outcomes serialize"),
                })
            }
            _ => None,
        }
    }

    fn append_metrics(&self, out: &mut Exposition) {
        out.counter(
            "rvsim_getstate_shared_total",
            "GetState responses served from the shared render cache.",
            self.shared_state_serve_count(),
        );
        out.gauge(
            "rvsim_sessions_live",
            "Live sessions in the store.",
            self.session_count() as u64,
        );
        out.counter(
            "rvsim_sessions_evicted_total",
            "Sessions evicted by the idle sweep.",
            self.evicted_session_count(),
        );
        out.family("rvsim_endpoint_seconds", "histogram", "Handler latency per protocol endpoint.");
        for (endpoint, snapshot) in self.endpoint_latency() {
            out.histogram_series("rvsim_endpoint_seconds", &[("endpoint", endpoint)], &snapshot);
        }
        if let Some(store) = self.checkpoint_store() {
            out.counter(
                "rvsim_checkpoints_written_total",
                "Session checkpoints written to disk.",
                store.write_count(),
            );
            out.counter(
                "rvsim_checkpoint_failures_total",
                "Checkpoint writes that failed.",
                store.write_failure_count(),
            );
            out.counter(
                "rvsim_sessions_spilled_total",
                "Evicted sessions spilled to disk instead of dropped.",
                self.spilled_session_count(),
            );
            out.counter(
                "rvsim_sessions_restored_total",
                "Sessions restored from checkpoints.",
                self.restored_session_count(),
            );
            out.gauge(
                "rvsim_restore_staleness_max_ms",
                "Largest checkpoint staleness observed on restore.",
                self.max_restore_staleness_ms(),
            );
        }
    }

    fn housekeeping(&self) {
        self.evict_idle();
        self.checkpoint_tick();
    }

    fn observer(&self) -> Option<Arc<Observer>> {
        Some(Arc::clone(self.observability()))
    }
}

/// A running network front end.  Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the acceptor, the event loops, the
/// dispatch workers and the housekeeper and joins their threads.
pub struct NetServer {
    handler: Arc<dyn ApiHandler>,
    /// Set when the handler is a [`SimulationServer`] (the
    /// [`server`](Self::server) accessor; `None` in router mode).
    sim: Option<Arc<SimulationServer>>,
    stats: Arc<NetStats>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `config.addr` and start the front end around `server`.
    pub fn start(server: SimulationServer, config: NetConfig) -> std::io::Result<NetServer> {
        Self::start_shared(Arc::new(server), config)
    }

    /// [`start`](Self::start) with an externally shared server.
    pub fn start_shared(
        server: Arc<SimulationServer>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        Self::start_inner(Arc::clone(&server) as Arc<dyn ApiHandler>, Some(server), config)
    }

    /// Start the front end around any [`ApiHandler`] (router mode).  The
    /// [`server`](Self::server) accessor is unavailable on the result.
    pub fn start_with_handler(
        handler: Arc<dyn ApiHandler>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        Self::start_inner(handler, None, config)
    }

    fn start_inner(
        handler: Arc<dyn ApiHandler>,
        sim: Option<Arc<SimulationServer>>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(NetStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        // Share the handler's observer (so handler events and connection
        // events interleave in one journal), or run a private one.
        let observer = handler
            .observer()
            .unwrap_or_else(|| Arc::new(Observer::new(rvsim_obs::DEFAULT_JOURNAL_CAPACITY)));
        observer.slow_request_us.store(config.slow_request_us, Ordering::Relaxed);

        let (job_tx, job_rx) = bounded::<Job>(config.pending_dispatch.max(1));
        let mut threads = Vec::new();
        let mut wakers = Vec::new();
        let mut loop_handles = Vec::new();
        for _ in 0..config.event_loops.max(1) {
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new(&poller, WAKER_TOKEN)?);
            let (inject_tx, inject_rx) = unbounded::<TcpStream>();
            let (done_tx, done_rx) = unbounded::<Completion>();
            loop_handles.push(LoopHandle { inject: inject_tx, waker: Arc::clone(&waker) });
            let worker = EventLoop {
                poller,
                waker: Arc::clone(&waker),
                inject: inject_rx,
                completions: done_rx,
                completions_tx: done_tx,
                jobs: job_tx.clone(),
                handler: Arc::clone(&handler),
                stats: Arc::clone(&stats),
                shutdown: Arc::clone(&shutdown),
                config: config.clone(),
                started,
                observer: Arc::clone(&observer),
            };
            wakers.push(waker);
            threads.push(std::thread::spawn(move || worker.run()));
        }
        drop(job_tx);

        for _ in 0..config.dispatch_workers.max(1) {
            threads.push(spawn_dispatch_worker(
                job_rx.clone(),
                Arc::clone(&handler),
                Arc::clone(&stats),
                Arc::clone(&shutdown),
            ));
        }
        drop(job_rx);

        threads.push(spawn_acceptor(
            listener,
            loop_handles,
            config.max_connections.max(1),
            Arc::clone(&stats),
            Arc::clone(&shutdown),
        ));
        threads.push(spawn_housekeeper(
            Arc::clone(&handler),
            Arc::clone(&shutdown),
            config.housekeeping_interval,
        ));

        Ok(NetServer { handler, sim, stats, addr, shutdown, wakers, threads })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The simulation server behind the front end.
    ///
    /// # Panics
    ///
    /// Panics when the front end was started with
    /// [`start_with_handler`](Self::start_with_handler) (router mode), where
    /// no simulation server exists.
    pub fn server(&self) -> &Arc<SimulationServer> {
        self.sim.as_ref().expect("front end was started without a SimulationServer")
    }

    /// The handler behind the front end ([`SimulationServer`] or a router).
    pub fn handler(&self) -> &Arc<dyn ApiHandler> {
        &self.handler
    }

    /// Front-end counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Stop accepting, close connections and join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            let _ = waker.wake();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Token the loop's waker is registered under (never a valid slab index).
const WAKER_TOKEN: usize = usize::MAX;

/// Acceptor-side handle to one event loop.
struct LoopHandle {
    inject: Sender<TcpStream>,
    waker: Arc<Waker>,
}

/// One protocol request on its way to a dispatch worker.
struct Job {
    /// The loop to post the completion to.
    reply: Sender<Completion>,
    waker: Arc<Waker>,
    token: usize,
    generation: u64,
    /// `None` routes to [`ApiHandler::handle_api`] (`POST /api`); a target
    /// routes to [`ApiHandler::handle_control`] (`POST /admin/...`).
    target: Option<String>,
    body: Vec<u8>,
    keep_alive: bool,
    version: Version,
    /// Edge-minted (or header-propagated) request id.
    request_id: u64,
    /// Header-read phase duration measured by the event loop.
    read_us: u32,
    /// When the job entered the dispatch queue (queue-wait phase start).
    enqueued: Instant,
}

/// A finished protocol request on its way back to its event loop.
struct Completion {
    token: usize,
    generation: u64,
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    payload: Bytes,
    keep_alive: bool,
    version: Version,
    request_id: u64,
    read_us: u32,
    queue_us: u32,
    handler_us: u32,
}

fn spawn_acceptor(
    listener: TcpListener,
    loops: Vec<LoopHandle>,
    max_connections: usize,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut next_loop = 0usize;
        while !shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stats.connections_open.load(Ordering::Relaxed) >= max_connections as u64 {
                        stats.connections_rejected.fetch_add(1, Ordering::Relaxed);
                        reject_overloaded(stream);
                        continue;
                    }
                    let target = &loops[next_loop % loops.len()];
                    next_loop = next_loop.wrapping_add(1);
                    if target.inject.send(stream).is_err() {
                        break; // loops are gone: shutting down
                    }
                    // The gauge is incremented here (not in the loop) so the
                    // cap cannot be overshot by a burst sitting in the
                    // injection queues.
                    stats.connections_open.fetch_add(1, Ordering::Relaxed);
                    stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                    let _ = target.waker.wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => {
                    // Transient accept errors (aborted handshakes etc.):
                    // keep accepting.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    })
}

/// Best-effort `503` on a connection over the connection cap.  The accepted
/// socket inherited the listener's `O_NONBLOCK` (Linux resets it, the BSD
/// family does not), so blocking mode is restored explicitly before the
/// write — otherwise the 503 could fail `WouldBlock` and the overloaded
/// client would see a bare close instead of a status.  A short write
/// timeout keeps a malicious zero-window peer from pinning the acceptor.
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let body = b"server overloaded, retry\n";
    let mut out = Vec::with_capacity(160);
    write_response_head(
        &mut out,
        &ResponseHead {
            version: Version::Http11,
            status: 503,
            reason: "Service Unavailable",
            content_type: "text/plain",
            content_length: body.len(),
            keep_alive: false,
            extra: &[],
        },
    );
    out.extend_from_slice(body);
    let _ = stream.write_all(&out);
}

fn spawn_dispatch_worker(
    jobs: Receiver<Job>,
    handler: Arc<dyn ApiHandler>,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        match jobs.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => {
                let queue_us = elapsed_us(job.enqueued);
                let handler_started = Instant::now();
                // A panicking handler must not take the worker with it: the
                // client would wait for an answer that never comes, and the
                // pool would shrink by one.
                let answered = catch_unwind(AssertUnwindSafe(|| match &job.target {
                    None => (
                        200,
                        "OK",
                        "application/x-rvsim-payload",
                        handler.handle_api(&job.body, job.request_id),
                    ),
                    Some(target) => match handler.handle_control(target, &job.body) {
                        Some(control) => (
                            control.status,
                            control.reason,
                            "application/json",
                            Bytes::from(control.body),
                        ),
                        None => (
                            404,
                            "Not Found",
                            "text/plain",
                            Bytes::from(format!("no such endpoint: {target}\n").into_bytes()),
                        ),
                    },
                }));
                let (status, reason, content_type, payload) = answered.unwrap_or_else(|panic| {
                    stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                    let message = panic
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("no message");
                    let body = format!("request handler panicked: {message}\n");
                    (500, "Internal Server Error", "text/plain", Bytes::from(body.into_bytes()))
                });
                let completion = Completion {
                    token: job.token,
                    generation: job.generation,
                    status,
                    reason,
                    content_type,
                    payload,
                    keep_alive: job.keep_alive,
                    version: job.version,
                    request_id: job.request_id,
                    read_us: job.read_us,
                    queue_us,
                    handler_us: elapsed_us(handler_started),
                };
                if job.reply.send(completion).is_ok() {
                    let _ = job.waker.wake();
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    })
}

fn spawn_housekeeper(
    handler: Arc<dyn ApiHandler>,
    shutdown: Arc<AtomicBool>,
    interval: Duration,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut last_sweep = Instant::now();
        while !shutdown.load(Ordering::Acquire) {
            // Sleep in short slices so shutdown is prompt even with a long
            // housekeeping interval.
            std::thread::sleep(Duration::from_millis(10).min(interval));
            if last_sweep.elapsed() >= interval {
                handler.housekeeping();
                last_sweep = Instant::now();
            }
        }
    })
}

/// Connection lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request.
    Reading,
    /// A parsed request is executing on the dispatch pool.
    Dispatching,
    /// A response is (partially) buffered and being flushed.
    Writing,
}

/// One connection owned by an event loop.
struct Conn {
    stream: TcpStream,
    generation: u64,
    parser: RequestParser,
    state: ConnState,
    /// Response head (plus inline bodies); flushed before `payload`.
    head: Vec<u8>,
    head_pos: usize,
    /// Shared protocol payload, written after the head without copying.
    payload: Bytes,
    payload_pos: usize,
    close_after_write: bool,
    /// Connection-fate deadline for the current phase (`None` while a
    /// dispatch is in flight — simulation time is not the client's fault).
    deadline: Option<Instant>,
    interest: Interest,
    /// First-byte instant of the request currently being received (start
    /// of the header-read phase); `None` between requests.
    read_started: Option<Instant>,
    /// Phase timings of the dispatched response currently being written,
    /// recorded when the write drains.
    inflight: Option<Inflight>,
    /// Requests served on this connection (attributed on close).
    served: u64,
}

/// Phase timings of a dispatched request carried across the write phase.
struct Inflight {
    request_id: u64,
    status: u16,
    read_us: u32,
    queue_us: u32,
    handler_us: u32,
    /// When the completion was applied (start of the write-drain phase).
    write_started: Instant,
}

/// Outcome of a write attempt.
enum WriteProgress {
    Complete,
    Pending { progressed: bool },
    Broken,
}

/// One event-loop thread: an epoll instance driving a slab of connections.
struct EventLoop {
    poller: Poller,
    waker: Arc<Waker>,
    inject: Receiver<TcpStream>,
    completions: Receiver<Completion>,
    completions_tx: Sender<Completion>,
    jobs: Sender<Job>,
    handler: Arc<dyn ApiHandler>,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    config: NetConfig,
    started: Instant,
    observer: Arc<Observer>,
}

impl EventLoop {
    fn run(self) {
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut next_generation: u64 = 0;
        let mut events = Events::with_capacity(1024);
        let mut scratch: Vec<polling::Event> = Vec::with_capacity(1024);
        let mut read_buf = vec![0u8; 64 * 1024];

        // Deadlines are enforced by a periodic sweep; sweeping at half the
        // shortest configured deadline keeps the enforcement error within
        // 50% without scanning the slab on every event batch.
        let sweep = self
            .config
            .header_deadline
            .min(self.config.idle_deadline)
            .min(self.config.write_deadline)
            .mul_f64(0.5)
            .clamp(Duration::from_millis(10), Duration::from_millis(250));
        let mut next_sweep = Instant::now() + sweep;

        while !self.shutdown.load(Ordering::Acquire) {
            let timeout = next_sweep.saturating_duration_since(Instant::now());
            let _ = self.poller.wait(&mut events, Some(timeout));
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }

            scratch.clear();
            scratch.extend(events.iter().copied());
            for event in &scratch {
                if event.token == WAKER_TOKEN {
                    self.waker.drain();
                    continue;
                }
                self.handle_event(&mut conns, &mut free, event, &mut read_buf);
            }

            // Adopt connections the acceptor handed over.
            while let Some(stream) = self.inject.try_recv() {
                self.add_conn(&mut conns, &mut free, &mut next_generation, stream);
            }

            // Flush finished dispatches back onto their connections.
            while let Some(completion) = self.completions.try_recv() {
                self.handle_completion(&mut conns, &mut free, completion);
            }

            let now = Instant::now();
            if now >= next_sweep {
                next_sweep = now + sweep;
                self.sweep_deadlines(&mut conns, &mut free, now);
            }
        }

        // Shutdown: close every connection (deregistration happens via fd
        // close; the explicit call keeps the poll(2) fallback's table clean).
        for token in 0..conns.len() {
            if conns[token].is_some() {
                self.close(&mut conns, &mut free, token, CloseKind::Shutdown);
            }
        }
    }

    fn add_conn(
        &self,
        conns: &mut Vec<Option<Conn>>,
        free: &mut Vec<usize>,
        next_generation: &mut u64,
        stream: TcpStream,
    ) {
        // The acceptor's listener is nonblocking; make the inherited mode
        // explicit (BSD kernels inherit, Linux resets) — the loop is written
        // for nonblocking I/O.
        if stream.set_nonblocking(true).is_err() {
            self.stats.connections_open.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        *next_generation += 1;
        let conn = Conn {
            stream,
            generation: *next_generation,
            parser: RequestParser::new(),
            state: ConnState::Reading,
            head: Vec::with_capacity(256),
            head_pos: 0,
            payload: Bytes::new(),
            payload_pos: 0,
            close_after_write: false,
            deadline: Some(Instant::now() + self.config.idle_deadline),
            interest: Interest::READABLE,
            read_started: None,
            inflight: None,
            served: 0,
        };
        self.observer.journal.record(
            Event::new(EventKind::ConnOpen, self.observer.journal.now_us())
                .fields(self.stats.connections_open.load(Ordering::Relaxed), 0),
        );
        let token = match free.pop() {
            Some(token) => {
                conns[token] = Some(conn);
                token
            }
            None => {
                conns.push(Some(conn));
                conns.len() - 1
            }
        };
        let conn = conns[token].as_ref().expect("just inserted");
        if self.poller.register(conn.stream.as_raw_fd(), token, Interest::READABLE).is_err() {
            conns[token] = None;
            free.push(token);
            self.stats.connections_open.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn handle_event(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        event: &polling::Event,
        read_buf: &mut [u8],
    ) {
        let Some(conn) = conns.get_mut(event.token).and_then(Option::as_mut) else {
            return; // closed earlier in this batch
        };
        if event.error {
            self.close(conns, free, event.token, CloseKind::Peer);
            return;
        }
        match conn.state {
            ConnState::Reading if event.readable => match conn.stream.read(read_buf) {
                Ok(0) => {
                    self.close(conns, free, event.token, CloseKind::Peer);
                }
                Ok(n) => {
                    if conn.read_started.is_none() {
                        conn.read_started = Some(Instant::now());
                    }
                    conn.parser.feed(&read_buf[..n]);
                    self.advance(conns, free, event.token);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(conns, free, event.token, CloseKind::Peer);
                }
            },
            ConnState::Writing if event.writable => {
                self.continue_write(conns, free, event.token);
            }
            // Spurious wakeups (e.g. readable while dispatching: the data
            // stays in the socket buffer until this response is done).
            _ => {}
        }
    }

    /// Parse-and-route loop: serve every complete buffered request until the
    /// connection blocks on reading, writing, or an in-flight dispatch.
    fn advance(&self, conns: &mut [Option<Conn>], free: &mut Vec<usize>, token: usize) {
        loop {
            let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            match conn.parser.next_request() {
                Ok(Some(request)) => {
                    self.stats.requests_served.fetch_add(1, Ordering::Relaxed);
                    conn.served += 1;
                    // Header-read phase: first byte of this request to parse
                    // complete.  Pipelined follow-ups parse out of the buffer
                    // with no further reads, so their read phase is ~0.
                    let read_us = conn.read_started.take().map(elapsed_us).unwrap_or(0);
                    if !self.route(conns, free, token, request, read_us) {
                        return;
                    }
                }
                Ok(None) => {
                    // Need more bytes: a partial request races its header
                    // deadline, an idle keep-alive its (longer) idle one.
                    let partial = conn.parser.buffered() > 0;
                    conn.state = ConnState::Reading;
                    conn.deadline = Some(
                        Instant::now()
                            + if partial {
                                self.config.header_deadline
                            } else {
                                self.config.idle_deadline
                            },
                    );
                    self.set_interest(conn, token, Interest::READABLE);
                    return;
                }
                Err(error) => {
                    self.stats.http_errors.fetch_add(1, Ordering::Relaxed);
                    self.respond_framing_error(conns, free, token, &error);
                    return;
                }
            }
        }
    }

    /// Serve one parsed request.  Returns whether the caller may continue
    /// parsing pipelined requests on this connection.
    fn route(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        token: usize,
        request: HttpRequest,
        read_us: u32,
    ) -> bool {
        let version = request.version;
        let keep_alive = request.keep_alive;
        // Propagate the caller's request id or mint one at the edge; every
        // response echoes it in `x-rvsim-request-id`.
        let request_id = if request.request_id != 0 {
            request.request_id
        } else {
            self.observer.mint_request_id()
        };
        match (request.method.as_str(), request.target.as_str()) {
            ("POST", "/api") => self.dispatch(
                conns,
                free,
                token,
                None,
                request.body,
                keep_alive,
                version,
                request_id,
                read_us,
            ),
            ("POST", target) if target.starts_with("/admin/") => {
                let target = target.to_string();
                self.dispatch(
                    conns,
                    free,
                    token,
                    Some(target),
                    request.body,
                    keep_alive,
                    version,
                    request_id,
                    read_us,
                )
            }
            ("GET", "/healthz") => self.inline_response(
                conns,
                free,
                token,
                InlineResponse {
                    status: 200,
                    reason: "OK",
                    content_type: "text/plain",
                    body: b"ok\n",
                    keep_alive,
                    version,
                    extra: &[],
                    request_id,
                },
            ),
            ("GET", "/metrics") => {
                let body = render_metrics(
                    self.handler.as_ref(),
                    &self.stats,
                    &self.observer,
                    self.started,
                );
                self.inline_response(
                    conns,
                    free,
                    token,
                    InlineResponse {
                        status: 200,
                        reason: "OK",
                        content_type: expo::CONTENT_TYPE,
                        body: body.as_bytes(),
                        keep_alive,
                        version,
                        extra: &[],
                        request_id,
                    },
                )
            }
            ("GET", target) if target == "/admin/trace" || target.starts_with("/admin/trace?") => {
                let (n, min_us) = parse_trace_query(target);
                let body = self.observer.journal.render_trace(n, min_us);
                self.inline_response(
                    conns,
                    free,
                    token,
                    InlineResponse {
                        status: 200,
                        reason: "OK",
                        content_type: "application/x-ndjson",
                        body: body.as_bytes(),
                        keep_alive,
                        version,
                        extra: &[],
                        request_id,
                    },
                )
            }
            ("POST", _) | ("GET", _) => {
                let body = format!("no such endpoint: {}\n", request.target);
                self.inline_response(
                    conns,
                    free,
                    token,
                    InlineResponse {
                        status: 404,
                        reason: "Not Found",
                        content_type: "text/plain",
                        body: body.as_bytes(),
                        keep_alive,
                        version,
                        extra: &[],
                        request_id,
                    },
                )
            }
            (method, _) => {
                let body = format!("method {method} not allowed\n");
                self.inline_response(
                    conns,
                    free,
                    token,
                    InlineResponse {
                        status: 405,
                        reason: "Method Not Allowed",
                        content_type: "text/plain",
                        body: body.as_bytes(),
                        keep_alive,
                        version,
                        // A 405 must name the methods the resource supports.
                        extra: &[("allow", "GET, POST")],
                        request_id,
                    },
                )
            }
        }
    }

    /// Hand a request to the dispatch pool (`/api` protocol work or an
    /// `/admin/...` control endpoint).  Returns whether the caller may
    /// continue parsing pipelined requests on this connection.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        token: usize,
        target: Option<String>,
        body: Vec<u8>,
        keep_alive: bool,
        version: Version,
        request_id: u64,
        read_us: u32,
    ) -> bool {
        let conn = conns[token].as_mut().expect("dispatched conn is live");
        let job = Job {
            reply: self.completions_sender(),
            waker: Arc::clone(&self.waker),
            token,
            generation: conn.generation,
            target,
            body,
            keep_alive,
            version,
            request_id,
            read_us,
            enqueued: Instant::now(),
        };
        match self.jobs.try_send(job) {
            Ok(()) => {
                conn.state = ConnState::Dispatching;
                conn.deadline = None;
                self.set_interest(conn, token, Interest::NONE);
                false
            }
            Err(TrySendError::Full(_)) => {
                self.stats.dispatch_rejected.fetch_add(1, Ordering::Relaxed);
                let body = b"dispatch queue full, retry\n";
                self.inline_response(
                    conns,
                    free,
                    token,
                    InlineResponse {
                        status: 503,
                        reason: "Service Unavailable",
                        content_type: "text/plain",
                        body,
                        keep_alive,
                        version,
                        extra: &[],
                        request_id,
                    },
                )
            }
            Err(TrySendError::Disconnected(_)) => {
                self.close(conns, free, token, CloseKind::Shutdown);
                false
            }
        }
    }

    fn completions_sender(&self) -> Sender<Completion> {
        // The loop's own completion sender: dispatch workers post back here.
        self.completions_tx.clone()
    }

    fn handle_completion(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        completion: Completion,
    ) {
        let Some(conn) = conns.get_mut(completion.token).and_then(Option::as_mut) else {
            return; // connection died while the request executed
        };
        if conn.generation != completion.generation || conn.state != ConnState::Dispatching {
            return; // slot was reused: the payload belongs to a dead conn
        }
        conn.head.clear();
        conn.head_pos = 0;
        let mut rid_buf = [0u8; 16];
        let rid = rvsim_obs::write_request_id(completion.request_id, &mut rid_buf);
        write_response_head(
            &mut conn.head,
            &ResponseHead {
                version: completion.version,
                status: completion.status,
                reason: completion.reason,
                content_type: completion.content_type,
                content_length: completion.payload.len(),
                keep_alive: completion.keep_alive,
                extra: &[("x-rvsim-request-id", rid)],
            },
        );
        conn.payload = completion.payload;
        conn.payload_pos = 0;
        conn.close_after_write = !completion.keep_alive;
        conn.state = ConnState::Writing;
        conn.deadline = Some(Instant::now() + self.config.write_deadline);
        conn.inflight = Some(Inflight {
            request_id: completion.request_id,
            status: completion.status,
            read_us: completion.read_us,
            queue_us: completion.queue_us,
            handler_us: completion.handler_us,
            write_started: Instant::now(),
        });
        self.continue_write(conns, free, completion.token);
    }

    /// Queue an inline (loop-built) response and start flushing it.  Returns
    /// whether the caller may continue parsing pipelined requests.
    fn inline_response(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        token: usize,
        response: InlineResponse<'_>,
    ) -> bool {
        let conn = conns[token].as_mut().expect("inline response on live conn");
        conn.head.clear();
        conn.head_pos = 0;
        let mut rid_buf = [0u8; 16];
        let mut extra: Vec<(&str, &str)> = response.extra.to_vec();
        if response.request_id != 0 {
            extra.push((
                "x-rvsim-request-id",
                rvsim_obs::write_request_id(response.request_id, &mut rid_buf),
            ));
        }
        write_response_head(
            &mut conn.head,
            &ResponseHead {
                version: response.version,
                status: response.status,
                reason: response.reason,
                content_type: response.content_type,
                content_length: response.body.len(),
                keep_alive: response.keep_alive,
                extra: &extra,
            },
        );
        conn.head.extend_from_slice(response.body);
        conn.payload = Bytes::new();
        conn.payload_pos = 0;
        conn.close_after_write = !response.keep_alive;
        conn.state = ConnState::Writing;
        conn.deadline = Some(Instant::now() + self.config.write_deadline);
        self.flush_write(conns, free, token)
    }

    fn respond_framing_error(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        token: usize,
        error: &HttpError,
    ) {
        let body = format!("{}\n", error.detail);
        self.inline_response(
            conns,
            free,
            token,
            InlineResponse {
                status: error.status,
                reason: error.reason,
                content_type: "text/plain",
                body: body.as_bytes(),
                // Framing errors are fatal: byte positions are lost.
                keep_alive: false,
                version: Version::Http11,
                extra: &[],
                request_id: 0,
            },
        );
    }

    /// Writing-state readiness: flush, then resume parsing if done.
    fn continue_write(&self, conns: &mut [Option<Conn>], free: &mut Vec<usize>, token: usize) {
        if self.flush_write(conns, free, token) {
            self.advance(conns, free, token);
        }
    }

    /// Push buffered response bytes to the socket.  Returns true when the
    /// response is fully flushed and the connection stays open (i.e. the
    /// caller may parse the next pipelined request).
    fn flush_write(&self, conns: &mut [Option<Conn>], free: &mut Vec<usize>, token: usize) -> bool {
        let Some(conn) = conns.get_mut(token).and_then(Option::as_mut) else {
            return false;
        };
        match try_write(conn) {
            WriteProgress::Complete => {
                // The response drained: the dispatched request's phase story
                // is complete — record it (histograms always, journal when
                // slow or errored).
                if let Some(inflight) = conn.inflight.take() {
                    self.observer.record_request(
                        inflight.request_id,
                        NO_SESSION,
                        u64::from(inflight.status),
                        [
                            inflight.read_us,
                            inflight.queue_us,
                            inflight.handler_us,
                            elapsed_us(inflight.write_started),
                        ],
                    );
                }
                if conn.close_after_write {
                    self.close(conns, free, token, CloseKind::Served);
                    return false;
                }
                conn.state = ConnState::Reading;
                conn.deadline = Some(Instant::now() + self.config.idle_deadline);
                self.set_interest(conn, token, Interest::READABLE);
                true
            }
            WriteProgress::Pending { progressed } => {
                if progressed {
                    conn.deadline = Some(Instant::now() + self.config.write_deadline);
                }
                conn.state = ConnState::Writing;
                self.set_interest(conn, token, Interest::WRITABLE);
                false
            }
            WriteProgress::Broken => {
                self.close(conns, free, token, CloseKind::Peer);
                false
            }
        }
    }

    fn set_interest(&self, conn: &mut Conn, token: usize, interest: Interest) {
        if conn.interest != interest {
            let _ = self.poller.reregister(conn.stream.as_raw_fd(), token, interest);
            conn.interest = interest;
        }
    }

    fn sweep_deadlines(&self, conns: &mut [Option<Conn>], free: &mut Vec<usize>, now: Instant) {
        for token in 0..conns.len() {
            let Some(conn) = conns[token].as_ref() else { continue };
            let Some(deadline) = conn.deadline else { continue };
            if now < deadline {
                continue;
            }
            let kind = match conn.state {
                ConnState::Reading if conn.parser.buffered() == 0 => CloseKind::Idle,
                // Mid-head, mid-body or mid-response: the slow-client family.
                _ => CloseKind::Stalled,
            };
            self.close(conns, free, token, kind);
        }
    }

    fn close(
        &self,
        conns: &mut [Option<Conn>],
        free: &mut Vec<usize>,
        token: usize,
        kind: CloseKind,
    ) {
        let Some(conn) = conns[token].take() else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.observer.journal.record(
            Event::new(EventKind::ConnClose, self.observer.journal.now_us())
                .fields(kind.code(), conn.served),
        );
        drop(conn);
        free.push(token);
        self.stats.connections_open.fetch_sub(1, Ordering::Relaxed);
        match kind {
            CloseKind::Stalled => {
                self.stats.connections_stalled_closed.fetch_add(1, Ordering::Relaxed);
            }
            CloseKind::Idle => {
                self.stats.connections_idle_closed.fetch_add(1, Ordering::Relaxed);
            }
            CloseKind::Peer | CloseKind::Served | CloseKind::Shutdown => {}
        }
    }
}

/// Why a connection was closed (metrics attribution).
#[derive(Debug, Clone, Copy)]
enum CloseKind {
    /// Peer closed or the socket errored.
    Peer,
    /// Response complete on a `connection: close` exchange.
    Served,
    /// Deadline fired with a request or response in flight.
    Stalled,
    /// Idle keep-alive deadline fired.
    Idle,
    /// Front end is shutting down.
    Shutdown,
}

impl CloseKind {
    /// Stable numeric code used in the journal's `conn_close` events.
    fn code(self) -> u64 {
        match self {
            CloseKind::Peer => 0,
            CloseKind::Served => 1,
            CloseKind::Stalled => 2,
            CloseKind::Idle => 3,
            CloseKind::Shutdown => 4,
        }
    }
}

/// Response parameters for loop-built (non-dispatched) answers.
struct InlineResponse<'a> {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: &'a [u8],
    keep_alive: bool,
    version: Version,
    extra: &'a [(&'a str, &'a str)],
    /// Echoed as `x-rvsim-request-id` (0 emits no header).
    request_id: u64,
}

/// Write as much buffered response as the socket accepts.
fn try_write(conn: &mut Conn) -> WriteProgress {
    let mut progressed = false;
    loop {
        let (source, pos): (&[u8], &mut usize) = if conn.head_pos < conn.head.len() {
            (&conn.head, &mut conn.head_pos)
        } else if conn.payload_pos < conn.payload.len() {
            (&conn.payload, &mut conn.payload_pos)
        } else {
            return WriteProgress::Complete;
        };
        match conn.stream.write(&source[*pos..]) {
            Ok(0) => return WriteProgress::Broken,
            Ok(n) => {
                *pos += n;
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return WriteProgress::Pending { progressed };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return WriteProgress::Broken,
        }
    }
}

/// Saturating microseconds since `since`, clamped into the u32 phase
/// timings (71 minutes; anything longer saturates).
fn elapsed_us(since: Instant) -> u32 {
    since.elapsed().as_micros().min(u128::from(u32::MAX)) as u32
}

/// Parse `/admin/trace?n=&min_us=` query parameters (defaults: the 256 most
/// recent events, no duration floor).
fn parse_trace_query(target: &str) -> (usize, u64) {
    let mut n = 256usize;
    let mut min_us = 0u64;
    if let Some((_, query)) = target.split_once('?') {
        for pair in query.split('&') {
            match pair.split_once('=') {
                Some(("n", value)) => n = value.parse().unwrap_or(n),
                Some(("min_us", value)) => min_us = value.parse().unwrap_or(min_us),
                _ => {}
            }
        }
    }
    (n.min(100_000), min_us)
}

/// Prometheus text-exposition `/metrics` document: front-end counters,
/// connection gauges and per-phase latency histograms, followed by whatever
/// the handler appends (session gauges and endpoint histograms for a
/// [`SimulationServer`], ring/breaker gauges and merged upstream metrics
/// for a router).
fn render_metrics(
    handler: &dyn ApiHandler,
    stats: &NetStats,
    observer: &Observer,
    started: Instant,
) -> String {
    let mut out = Exposition::new();
    out.gauge(
        "rvsim_uptime_seconds",
        "Seconds since the front end started.",
        started.elapsed().as_secs(),
    );
    out.counter(
        "rvsim_connections_accepted_total",
        "Connections accepted and handed to an event loop.",
        stats.connections_accepted.load(Ordering::Relaxed),
    );
    out.counter(
        "rvsim_connections_rejected_total",
        "Connections answered 503 at the accept gate.",
        stats.connections_rejected.load(Ordering::Relaxed),
    );
    out.gauge(
        "rvsim_connections_open",
        "Currently open connections.",
        stats.connections_open.load(Ordering::Relaxed),
    );
    out.counter(
        "rvsim_connections_stalled_closed_total",
        "Connections closed by a deadline mid-request or mid-response.",
        stats.connections_stalled_closed.load(Ordering::Relaxed),
    );
    out.counter(
        "rvsim_connections_idle_closed_total",
        "Idle keep-alive connections closed by the idle deadline.",
        stats.connections_idle_closed.load(Ordering::Relaxed),
    );
    out.counter(
        "rvsim_http_requests_total",
        "Requests answered (any status).",
        stats.requests_served.load(Ordering::Relaxed),
    );
    out.counter(
        "rvsim_http_errors_total",
        "Requests rejected at the HTTP layer (framing errors).",
        stats.http_errors.load(Ordering::Relaxed),
    );
    out.counter(
        "rvsim_dispatch_rejected_total",
        "Requests answered 503 because the dispatch queue was full.",
        stats.dispatch_rejected.load(Ordering::Relaxed),
    );
    out.counter(
        "rvsim_handler_panics_total",
        "Requests answered 500 because their handler panicked.",
        stats.handler_panics.load(Ordering::Relaxed),
    );
    out.family(
        "rvsim_request_phase_seconds",
        "histogram",
        "Dispatched-request latency by connection phase.",
    );
    for (index, phase) in rvsim_obs::PHASES.iter().enumerate() {
        out.histogram_series(
            "rvsim_request_phase_seconds",
            &[("phase", phase)],
            &observer.phase[index].snapshot(),
        );
    }
    out.counter(
        "rvsim_journal_events_total",
        "Events recorded in the trace journal (ring keeps the newest).",
        observer.journal.recorded(),
    );
    handler.append_metrics(&mut out);
    out.finish()
}
