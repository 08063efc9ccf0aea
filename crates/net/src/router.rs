//! The consistent-hash router tier: one front end fanning the protocol out
//! across N backend simulation servers.
//!
//! The paper scales by putting more cores behind one Undertow instance;
//! this module scales *out* instead: a [`Router`] implements [`ApiHandler`],
//! so the same epoll front end that serves a
//! [`rvsim_server::SimulationServer`] can serve a proxy that
//! consistent-hashes session ids across backend processes and forwards the
//! unmodified wire protocol over pooled keep-alive upstream connections.
//!
//! * **Placement** — session ids are hashed onto a ring of 64 virtual nodes
//!   per backend (`HashRing`); adding or removing a backend moves only
//!   `1/N` of the sessions.  The router assigns ids itself (from a high
//!   base, so they can never collide with ids a backend hands out to
//!   direct clients) and pins each session with `CreateSession{session}`.
//! * **Two rings** — `route` (where requests go) and `place` (where new or
//!   migrated sessions land).  During a drain the place ring already
//!   excludes the draining backend while the route ring still names it, so
//!   in-flight requests keep landing on the old copy until its session has
//!   actually moved.
//! * **Live drain** — `POST /admin/drain {"backend": k}` walks backend
//!   `k`'s sessions and, one at a time: latches the session (requests for
//!   it park on a condvar), `SerializeSession{destroy}` on the old node,
//!   `RestoreSession` on the ring target, records an override, unlatches.
//!   The client observes added latency, never an error.  When every session
//!   has moved the route ring flips to the place ring and the overrides are
//!   dropped.
//! * **Self-healing & failover** — housekeeping probes `/healthz` of every
//!   backend *concurrently*; a backend that misses two consecutive probes
//!   is dropped from both rings, and when the backends share a `--state-dir`
//!   the router immediately re-owns the dead node's sessions on the
//!   surviving ring owners from their last checkpoints (`/admin/recover`),
//!   with per-session staleness bounded by the checkpoint interval.  A
//!   recovered backend is folded back in.  `/metrics` aggregates upstream
//!   counters as `rvsim_upstream_*` sums next to the router's own
//!   `rvsim_router_*` series.
//! * **Circuit breakers** — every backend carries a breaker (closed → open
//!   after [`BREAKER_FAILURE_THRESHOLD`] consecutive upstream failures →
//!   half-open probe after [`BREAKER_COOLDOWN`]).  An open breaker fails
//!   fast instead of waiting out connect timeouts, and session traffic for
//!   a broken backend falls over to the surviving ring owner — so a sick
//!   backend sheds load before it drags the router down with it.

use crate::client::{http_get, http_post, TcpApiClient};
use crate::server::{ApiHandler, ControlResponse};
use bytes::Bytes;
use rvsim_obs::{expo, Event, EventKind, Exposition, Histogram, Observer};
use rvsim_server::{
    encode_response, is_unknown_session_payload, CheckpointEntry, RecoverOutcome, Request, Response,
};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Virtual nodes per backend on the hash ring.  64 keeps the per-backend
/// load imbalance in the low single-digit percents at the fleet sizes this
/// tier targets (2–16 nodes) while the ring stays small enough to rebuild
/// on every membership change.
const VNODES: u64 = 64;

/// First session id the router assigns.  Backends number their own sessions
/// from 0, so ids at and above this base can only have come from the router
/// — a direct client talking to a backend can never collide with a routed
/// session.
pub const ROUTER_SESSION_BASE: u64 = 1 << 32;

/// Upstream health-probe and control-call timeout.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Consecutive failed `/healthz` probes before a backend is declared dead.
/// One dropped probe (GC pause, packet loss) must not flap the ring.
const PROBE_FAILURE_THRESHOLD: u32 = 2;

/// Consecutive upstream call failures that open a backend's breaker.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;

/// How long an open breaker fails fast before admitting one half-open
/// probe request.
pub const BREAKER_COOLDOWN: Duration = Duration::from_secs(2);

/// Timeout for the `/admin/recover` call of a post-failover recovery (a
/// survivor may be replaying many checkpoints).
const RECOVER_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a request parks on a session that is mid-migration before the
/// router gives up waiting (the migration itself is bounded by upstream
/// timeouts, so this only fires if a drain wedges).
const MIGRATION_WAIT: Duration = Duration::from_secs(10);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A consistent-hash ring over backend indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct HashRing {
    /// `(point, backend index)` sorted by point; a key is owned by the
    /// first point at or after its hash (wrapping).
    points: Vec<(u64, usize)>,
}

impl HashRing {
    fn new(members: &[usize]) -> Self {
        let mut points = Vec::with_capacity(members.len() * VNODES as usize);
        for &backend in members {
            for vnode in 0..VNODES {
                points.push((splitmix64((backend as u64) << 16 | vnode), backend));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    fn owner(&self, session: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let hash = splitmix64(session);
        let index = self.points.partition_point(|&(point, _)| point < hash);
        Some(self.points[if index == self.points.len() { 0 } else { index }].1)
    }
}

/// Per-backend circuit breaker: closed → open after
/// [`BREAKER_FAILURE_THRESHOLD`] consecutive failures → half-open (one
/// probe request) after [`BREAKER_COOLDOWN`] → closed on success, re-open
/// on failure.  All transitions take an explicit `now_ms` so the state
/// machine is unit-testable without sleeping.
#[derive(Default)]
struct Breaker {
    consecutive_failures: AtomicU32,
    /// `now_ms + 1` of the moment the breaker opened; 0 = closed.  The +1
    /// keeps an open at millisecond zero distinguishable from the closed
    /// sentinel.
    opened_at_ms: AtomicU64,
    /// A half-open probe request is in flight (CAS-claimed so the cooldown
    /// expiry admits exactly one).
    half_open_probe: AtomicBool,
}

impl Breaker {
    /// Whether a request may go to the backend right now: always when
    /// closed; after the cooldown exactly one caller is admitted as the
    /// half-open probe; otherwise fail fast.
    fn allows(&self, now_ms: u64) -> bool {
        let opened = self.opened_at_ms.load(Ordering::Acquire);
        if opened == 0 {
            return true;
        }
        if now_ms + 1 < opened + BREAKER_COOLDOWN.as_millis() as u64 {
            return false;
        }
        !self.half_open_probe.swap(true, Ordering::AcqRel)
    }

    /// Open in any phase (cooling down or half-open)?  Used by routing to
    /// steer *other* sessions away; the backend's own probe still goes
    /// through [`Breaker::allows`].
    fn is_open(&self) -> bool {
        self.opened_at_ms.load(Ordering::Acquire) != 0
    }

    /// A call succeeded: close fully.
    fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
        self.opened_at_ms.store(0, Ordering::Release);
        self.half_open_probe.store(false, Ordering::Release);
    }

    /// A call failed.  Returns whether this failure just opened the
    /// breaker (the closed → open edge).
    fn record_failure(&self, now_ms: u64) -> bool {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        if self.is_open() {
            // A failed half-open probe re-arms the cooldown.
            self.opened_at_ms.store(now_ms + 1, Ordering::Release);
            self.half_open_probe.store(false, Ordering::Release);
            return false;
        }
        if failures >= BREAKER_FAILURE_THRESHOLD {
            self.half_open_probe.store(false, Ordering::Release);
            self.opened_at_ms.store(now_ms + 1, Ordering::Release);
            return true;
        }
        false
    }
}

/// One upstream simulation server.
struct Backend {
    addr: SocketAddr,
    /// Idle keep-alive connections; a checked-out client that errors is
    /// dropped instead of returned, so the pool never caches a dead socket.
    pool: Mutex<Vec<TcpApiClient>>,
    alive: AtomicBool,
    draining: AtomicBool,
    /// Consecutive failed health probes (reset by any success).
    probe_failures: AtomicU32,
    breaker: Breaker,
    /// Latency of this upstream hop (connect + call + read), including
    /// failed calls — the cost the router paid waiting on this backend.
    latency: Histogram,
}

/// The two membership views: where requests *route* and where sessions
/// *place* (they differ only while a drain is in flight).
#[derive(Default)]
struct Rings {
    route: HashRing,
    place: HashRing,
}

/// Router counters surfaced on `/metrics`.
#[derive(Default)]
struct RouterStats {
    upstream_errors: AtomicU64,
    retries: AtomicU64,
    sessions_migrated: AtomicU64,
    drains: AtomicU64,
    /// Requests rejected without touching the wire because the target's
    /// breaker was open.
    breaker_fast_fails: AtomicU64,
    /// Closed → open breaker transitions.
    breakers_opened: AtomicU64,
    /// Session requests rerouted to a surviving ring owner because their
    /// primary was dead or breaker-open.
    failovers: AtomicU64,
    /// Sessions re-owned from checkpoints after a backend death.
    sessions_recovered: AtomicU64,
}

/// One session re-owned by a surviving backend after a failover.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RecoveredSession {
    /// The session id.
    pub session: u64,
    /// Surviving backend index that now serves it.
    pub backend: usize,
    /// Cycle the session is serving at post-recovery.
    pub cycle: u64,
    /// Age of the checkpoint the recovery replayed — the progress window
    /// the crash could have lost, bounded by the checkpoint interval.
    pub staleness_ms: u64,
    /// The survivor already had the session live (nothing was replayed).
    pub already_live: bool,
}

/// Outcome of the recovery pass the router runs when backends die,
/// served on `POST /admin/failover` and surfaced in the durability bench.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct FailoverReport {
    /// Backend indices declared dead in this membership change.
    pub dead: Vec<usize>,
    /// Sessions now live on survivors (restored or confirmed live).
    pub recovered: Vec<RecoveredSession>,
    /// Sessions whose recovery failed, with the reason.
    pub failed: Vec<(u64, String)>,
}

/// Outcome of one `/admin/drain` call, serialized as its JSON response.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct DrainReport {
    /// Backend index that was drained.
    pub backend: usize,
    /// Sessions found on the backend when the drain started.
    pub sessions: usize,
    /// Sessions successfully migrated.
    pub migrated: usize,
    /// Sessions that failed to move, with the reason.
    pub failed: Vec<(u64, String)>,
}

/// A consistent-hash proxy over N backend simulation servers.  Plug into
/// the front end with
/// [`NetServer::start_with_handler`](crate::server::NetServer::start_with_handler).
pub struct Router {
    backends: Vec<Backend>,
    rings: RwLock<Rings>,
    /// Session → backend pins that survive until the route ring catches up
    /// with a migration.
    overrides: RwLock<HashMap<u64, usize>>,
    /// Sessions currently mid-migration; requests for them park on
    /// `migration_done` instead of racing the move.
    migrating: Mutex<HashSet<u64>>,
    migration_done: Condvar,
    next_session: AtomicU64,
    next_compile: AtomicU64,
    stats: RouterStats,
    /// Cached `rvsim_upstream_*` aggregate, refreshed by housekeeping so
    /// `/metrics` never blocks on upstream probes.
    upstream_metrics: Mutex<String>,
    /// Serializes drains (and keeps ring edits coherent with them).
    drain_lock: Mutex<()>,
    /// Router-tier observability: the journal the front end shares (breaker
    /// transitions, failover re-owns and forwarded-hop events land next to
    /// connection events), phase histograms and the request-id mint.
    obs: Arc<Observer>,
    /// Monotonic epoch for the breaker clocks.
    started: Instant,
    /// The most recent failover recovery report (`POST /admin/failover`).
    last_failover: Mutex<Option<FailoverReport>>,
}

impl Router {
    /// A router over the given backends, all presumed alive until the first
    /// health probe says otherwise.
    pub fn new(backends: Vec<SocketAddr>) -> Router {
        let members: Vec<usize> = (0..backends.len()).collect();
        let ring = HashRing::new(&members);
        Router {
            backends: backends
                .into_iter()
                .map(|addr| Backend {
                    addr,
                    pool: Mutex::new(Vec::new()),
                    alive: AtomicBool::new(true),
                    draining: AtomicBool::new(false),
                    probe_failures: AtomicU32::new(0),
                    breaker: Breaker::default(),
                    latency: Histogram::new(),
                })
                .collect(),
            rings: RwLock::new(Rings { route: ring.clone(), place: ring }),
            overrides: RwLock::new(HashMap::new()),
            migrating: Mutex::new(HashSet::new()),
            migration_done: Condvar::new(),
            next_session: AtomicU64::new(ROUTER_SESSION_BASE),
            next_compile: AtomicU64::new(0),
            stats: RouterStats::default(),
            upstream_metrics: Mutex::new(String::new()),
            drain_lock: Mutex::new(()),
            obs: Arc::new(Observer::default()),
            started: Instant::now(),
            last_failover: Mutex::new(None),
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The most recent failover recovery report, if any backend has died.
    pub fn last_failover(&self) -> Option<FailoverReport> {
        lock(&self.last_failover).clone()
    }

    /// Sessions re-owned from checkpoints after backend deaths.
    pub fn recovered_session_count(&self) -> u64 {
        self.stats.sessions_recovered.load(Ordering::Relaxed)
    }

    /// Backend addresses, in index order.
    pub fn backend_addrs(&self) -> Vec<SocketAddr> {
        self.backends.iter().map(|b| b.addr).collect()
    }

    /// Where the place ring would put `session` right now.  Benchmarks and
    /// tests use this to pick explicit session ids with a known, balanced
    /// placement.
    pub fn placement(&self, session: u64) -> Option<usize> {
        read_rings(&self.rings).place.owner(session)
    }

    /// Backends currently routable (alive and not draining).
    fn routable(&self) -> Vec<usize> {
        self.backends
            .iter()
            .enumerate()
            .filter(|(_, b)| b.alive.load(Ordering::Acquire) && !b.draining.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect()
    }

    /// Forward a raw protocol payload to backend `index` over a pooled
    /// keep-alive connection, gated by the backend's circuit breaker: an
    /// open breaker fails fast instead of burning a connect timeout, and
    /// every outcome feeds the breaker's state machine.  The hop is timed
    /// into the backend's latency histogram; slow or failed hops (and every
    /// breaker transition) are journaled with the request id.
    fn call_backend(&self, index: usize, body: &[u8], request_id: u64) -> Result<Vec<u8>, String> {
        let backend = &self.backends[index];
        if !backend.alive.load(Ordering::Acquire) {
            return Err(format!("backend {index} ({}) is down", backend.addr));
        }
        if !backend.breaker.allows(self.now_ms()) {
            self.stats.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
            return Err(format!("backend {index} ({}) breaker is open", backend.addr));
        }
        let pooled = lock(&backend.pool).pop();
        let mut client = pooled.unwrap_or_else(|| TcpApiClient::new(backend.addr));
        let hop_started = Instant::now();
        match client.call_raw_traced(body, request_id) {
            Ok(payload) => {
                let upstream_us = elapsed_us(hop_started);
                backend.latency.record(upstream_us);
                let was_open = backend.breaker.is_open();
                backend.breaker.record_success();
                if was_open {
                    self.journal(
                        Event::new(EventKind::BreakerClose, self.obs.journal.now_us())
                            .fields(index as u64, 0),
                    );
                }
                if upstream_us >= self.obs.slow_request_us() {
                    self.journal(
                        Event::new(EventKind::RouterForward, self.obs.journal.now_us())
                            .request(request_id)
                            .fields(index as u64, upstream_us),
                    );
                }
                lock(&backend.pool).push(client);
                Ok(payload)
            }
            Err(e) => {
                let upstream_us = elapsed_us(hop_started);
                backend.latency.record(upstream_us);
                // A failed hop is always journal-worthy, whatever it took.
                self.journal(
                    Event::new(EventKind::RouterForward, self.obs.journal.now_us())
                        .request(request_id)
                        .fields(index as u64, upstream_us),
                );
                self.stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
                if backend.breaker.record_failure(self.now_ms()) {
                    self.stats.breakers_opened.fetch_add(1, Ordering::Relaxed);
                    self.journal(
                        Event::new(EventKind::BreakerOpen, self.obs.journal.now_us())
                            .request(request_id)
                            .fields(index as u64, 0),
                    );
                    // Whatever the pool holds points at a broken backend.
                    lock(&backend.pool).clear();
                }
                Err(e)
            }
        }
    }

    /// Record one event in the router's journal.
    fn journal(&self, event: Event) {
        self.obs.journal.record(event);
    }

    /// A backend requests may be routed to: alive and not breaker-open.
    fn is_callable(&self, index: usize) -> bool {
        let backend = &self.backends[index];
        backend.alive.load(Ordering::Acquire) && !backend.breaker.is_open()
    }

    /// The consistent-hash owner of `session` among callable, non-draining
    /// backends other than `exclude` — where the session's traffic fails
    /// over while its primary is broken.  Hash-based (not round-robin) so
    /// every request for one session lands on the *same* survivor, which
    /// then restores it from the shared checkpoint directory exactly once.
    fn fallback_for(&self, session: u64, exclude: usize) -> Option<usize> {
        let members: Vec<usize> = self
            .backends
            .iter()
            .enumerate()
            .filter(|&(i, b)| {
                i != exclude
                    && b.alive.load(Ordering::Acquire)
                    && !b.draining.load(Ordering::Acquire)
                    && !b.breaker.is_open()
            })
            .map(|(i, _)| i)
            .collect();
        if members.is_empty() {
            return None;
        }
        HashRing::new(&members).owner(session)
    }

    /// Forward a typed request and decode the typed response (control-plane
    /// calls: no client request id to propagate).
    fn call_backend_typed(&self, index: usize, request: &Request) -> Result<Response, String> {
        let body = serde_json::to_vec(request).map_err(|e| e.to_string())?;
        let payload = self.call_backend(index, &body, 0)?;
        rvsim_server::decode_response(&payload)
    }

    /// Where a request for `session` goes right now: a migration override
    /// if one exists, the route ring otherwise.
    fn target_for(&self, session: u64) -> Option<usize> {
        if let Some(&pinned) = read(&self.overrides).get(&session) {
            return Some(pinned);
        }
        read_rings(&self.rings).route.owner(session)
    }

    /// Park until `session` is not mid-migration (bounded wait).
    fn wait_not_migrating(&self, session: u64) {
        let mut migrating = lock(&self.migrating);
        let deadline = std::time::Instant::now() + MIGRATION_WAIT;
        while migrating.contains(&session) {
            let timeout = deadline.saturating_duration_since(std::time::Instant::now());
            if timeout.is_zero() {
                return;
            }
            migrating = self
                .migration_done
                .wait_timeout(migrating, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Forward a session-bearing request.  If the target answers "unknown
    /// session" and the routing decision has changed since (a drain or a
    /// health flip landed mid-flight), the request is retried once on the
    /// new target — this is what makes a drain invisible to clients.
    ///
    /// A primary that is dead or breaker-open is skipped *before* the call:
    /// the request fails over to the surviving ring owner, which (with a
    /// shared `--state-dir`) restores the session from its last checkpoint
    /// on first touch.  Client-visible errors therefore stop as soon as the
    /// breaker opens — at most [`BREAKER_FAILURE_THRESHOLD`] requests per
    /// session-owning backend observe the crash window itself.
    fn forward_session(&self, session: u64, body: &[u8], request_id: u64) -> Bytes {
        self.wait_not_migrating(session);
        let Some(primary) = self.target_for(session) else {
            return encode_error("no live backend to route to");
        };
        let target = if self.is_callable(primary) {
            primary
        } else {
            match self.fallback_for(session, primary) {
                Some(fallback) => {
                    self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    fallback
                }
                // Nothing to fail over to: let the call produce its error.
                None => primary,
            }
        };
        match self.call_backend(target, body, request_id) {
            Ok(payload) => {
                if is_unknown_session_payload(&payload) {
                    self.wait_not_migrating(session);
                    if let Some(moved) = self.target_for(session) {
                        if moved != target {
                            self.stats.retries.fetch_add(1, Ordering::Relaxed);
                            if let Ok(payload) = self.call_backend(moved, body, request_id) {
                                return Bytes::from(payload);
                            }
                        }
                    }
                }
                Bytes::from(payload)
            }
            Err(e) => {
                // The call itself failed — possibly the failure that just
                // opened the breaker.  If the target is no longer callable,
                // fail over once instead of bouncing the error to the
                // client; the survivor restores from the checkpoint.
                if !self.is_callable(target) {
                    if let Some(fallback) = self.fallback_for(session, target) {
                        self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                        if let Ok(payload) = self.call_backend(fallback, body, request_id) {
                            return Bytes::from(payload);
                        }
                    }
                }
                encode_error(format!("upstream error: {e}"))
            }
        }
    }

    /// Create a session: pick (or honor) the id, pin it to the place-ring
    /// owner, and forward with the id made explicit so the backend installs
    /// it under the router's numbering.
    fn create_session(&self, request: Request, request_id: u64) -> Bytes {
        let Request::CreateSession { program, architecture, entry, session } = request else {
            return encode_error("create_session routed a non-create request");
        };
        let session = session.unwrap_or_else(|| self.next_session.fetch_add(1, Ordering::Relaxed));
        let Some(owner) = read_rings(&self.rings).place.owner(session) else {
            return encode_error("no live backend to place the session on");
        };
        // A placement owner that is dead or breaker-open would reject the
        // create; place on the surviving owner instead.
        let target = if self.is_callable(owner) {
            owner
        } else {
            match self.fallback_for(session, owner) {
                Some(fallback) => {
                    self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    fallback
                }
                None => owner,
            }
        };
        let request =
            Request::CreateSession { program, architecture, entry, session: Some(session) };
        let body = match serde_json::to_vec(&request) {
            Ok(body) => body,
            Err(e) => return encode_error(format!("unencodable request: {e}")),
        };
        match self.call_backend(target, &body, request_id) {
            Ok(payload) => Bytes::from(payload),
            Err(e) => encode_error(format!("upstream error: {e}")),
        }
    }

    /// Union of every routable backend's session list.
    fn list_sessions(&self) -> Bytes {
        let mut sessions = Vec::new();
        for index in self.routable() {
            match self.call_backend_typed(index, &Request::ListSessions) {
                Ok(Response::SessionList { sessions: mut part }) => sessions.append(&mut part),
                Ok(other) => {
                    return encode_error(format!("backend {index} answered {other:?} to a list"))
                }
                Err(e) => return encode_error(format!("upstream error: {e}")),
            }
        }
        sessions.sort_unstable();
        sessions.dedup();
        encode_response(&Response::SessionList { sessions }, false)
    }

    /// Move every session off backend `index` (serialize on the old node,
    /// restore on the ring target, flip the route ring when done).
    pub fn drain(&self, index: usize) -> Result<DrainReport, (u16, String)> {
        let _serialized_drains = lock(&self.drain_lock);
        if index >= self.backends.len() {
            return Err((400, format!("no backend {index}")));
        }
        if self.backends[index].draining.swap(true, Ordering::AcqRel) {
            return Err((409, format!("backend {index} is already draining")));
        }
        let remaining = self.routable();
        if remaining.is_empty() {
            self.backends[index].draining.store(false, Ordering::Release);
            return Err((409, "no other live backend to drain into".to_string()));
        }
        // New and migrated sessions stop landing on the draining node now;
        // requests for existing sessions still route to it.
        write_rings(&self.rings).place = HashRing::new(&remaining);

        let sessions = match self.call_backend_typed(index, &Request::ListSessions) {
            Ok(Response::SessionList { sessions }) => sessions,
            Ok(other) => {
                self.backends[index].draining.store(false, Ordering::Release);
                return Err((502, format!("backend {index} answered {other:?} to a list")));
            }
            Err(e) => {
                self.backends[index].draining.store(false, Ordering::Release);
                return Err((502, format!("cannot enumerate backend {index}: {e}")));
            }
        };

        let mut migrated = Vec::new();
        let mut failed = Vec::new();
        for &session in &sessions {
            lock(&self.migrating).insert(session);
            let result = self.migrate_session(session, index);
            match result {
                Ok(target) => {
                    write(&self.overrides).insert(session, target);
                    self.journal(
                        Event::new(EventKind::SessionMigrated, self.obs.journal.now_us())
                            .session(session)
                            .fields(index as u64, target as u64),
                    );
                    migrated.push(session);
                }
                Err(e) => failed.push((session, e)),
            }
            lock(&self.migrating).remove(&session);
            self.migration_done.notify_all();
        }

        // Flip: requests now follow the post-drain ring, which agrees with
        // every override recorded above — so those pins can go.
        {
            let mut rings = write_rings(&self.rings);
            rings.route = rings.place.clone();
        }
        {
            let mut overrides = write(&self.overrides);
            for session in &migrated {
                overrides.remove(session);
            }
        }
        self.stats.sessions_migrated.fetch_add(migrated.len() as u64, Ordering::Relaxed);
        self.stats.drains.fetch_add(1, Ordering::Relaxed);
        self.journal(
            Event::new(EventKind::Drain, self.obs.journal.now_us())
                .fields(index as u64, migrated.len() as u64),
        );
        Ok(DrainReport {
            backend: index,
            sessions: sessions.len(),
            migrated: migrated.len(),
            failed,
        })
    }

    /// Serialize-destroy on `from`, restore on the place-ring target.
    /// Returns the target index.
    fn migrate_session(&self, session: u64, from: usize) -> Result<usize, String> {
        let target = read_rings(&self.rings)
            .place
            .owner(session)
            .ok_or_else(|| "no live backend to migrate to".to_string())?;
        let envelope = match self
            .call_backend_typed(from, &Request::SerializeSession { session, destroy: true })?
        {
            Response::Serialized(envelope) => envelope,
            Response::Error { message } => return Err(format!("serialize failed: {message}")),
            other => return Err(format!("serialize answered {other:?}")),
        };
        match self
            .call_backend_typed(target, &Request::RestoreSession { envelope, replace: false })?
        {
            Response::SessionCreated { .. } => Ok(target),
            Response::Error { message } => Err(format!("restore failed: {message}")),
            other => Err(format!("restore answered {other:?}")),
        }
    }

    /// Probe every backend's `/healthz` concurrently (one hung backend must
    /// not delay detection of the others by its timeout).  A backend flips
    /// dead only after [`PROBE_FAILURE_THRESHOLD`] consecutive misses — one
    /// dropped probe never flaps the ring — and any success revives it
    /// immediately.  On a membership change both rings are rebuilt from the
    /// survivors, and deaths trigger the checkpoint-recovery pass.
    fn probe_backends(&self) {
        let results: Vec<bool> = std::thread::scope(|scope| {
            let probes: Vec<_> = self
                .backends
                .iter()
                .map(|backend| {
                    let addr = backend.addr;
                    scope.spawn(move || {
                        matches!(http_get(addr, "/healthz", PROBE_TIMEOUT), Ok((200, _)))
                    })
                })
                .collect();
            probes.into_iter().map(|probe| probe.join().unwrap_or(false)).collect()
        });
        let mut changed = false;
        let mut died = Vec::new();
        for (index, (backend, ok)) in self.backends.iter().zip(results).enumerate() {
            if ok {
                backend.probe_failures.store(0, Ordering::Release);
                if !backend.alive.swap(true, Ordering::AcqRel) {
                    changed = true;
                    backend.breaker.record_success();
                    self.journal(
                        Event::new(EventKind::BackendRevived, self.obs.journal.now_us())
                            .fields(index as u64, 0),
                    );
                }
            } else {
                let misses = backend.probe_failures.fetch_add(1, Ordering::AcqRel) + 1;
                if misses >= PROBE_FAILURE_THRESHOLD && backend.alive.swap(false, Ordering::AcqRel)
                {
                    changed = true;
                    // Whatever connections were pooled are dead with it.
                    lock(&backend.pool).clear();
                    self.journal(
                        Event::new(EventKind::BackendDead, self.obs.journal.now_us())
                            .fields(index as u64, 0),
                    );
                    died.push(index);
                }
            }
        }
        if changed {
            let members = self.routable();
            let ring = HashRing::new(&members);
            {
                let mut rings = write_rings(&self.rings);
                rings.route = ring.clone();
                rings.place = ring;
            }
            if !died.is_empty() {
                self.recover_after_failover(&died);
            }
        }
    }

    /// Re-own a dead backend's sessions on the survivors.  Each surviving
    /// backend is asked for the checkpoints its state directory holds
    /// (`/admin/checkpoints`); the sessions the post-failover route ring
    /// assigns to that survivor are then recovered *on* it
    /// (`/admin/recover` → restore-from-checkpoint, replay-verified).  The
    /// per-session staleness each restore inherited is recorded in the
    /// failover report, bounded by the checkpoint interval.
    ///
    /// Backends that do not share a state directory simply report no
    /// foreign checkpoints and the pass degrades to the old behaviour
    /// (those sessions are gone).
    fn recover_after_failover(&self, died: &[usize]) {
        #[derive(serde::Serialize)]
        struct RecoverArgs {
            sessions: Vec<u64>,
        }
        let reown_started = Instant::now();
        let mut report =
            FailoverReport { dead: died.to_vec(), recovered: Vec::new(), failed: Vec::new() };
        for index in self.routable() {
            let addr = self.backends[index].addr;
            let entries = match http_post(addr, "/admin/checkpoints", b"", PROBE_TIMEOUT) {
                Ok((200, body)) => match serde_json::from_slice::<Vec<CheckpointEntry>>(&body) {
                    Ok(entries) => entries,
                    Err(_) => continue,
                },
                // Checkpointing disabled (404) or the survivor is sick too.
                _ => continue,
            };
            let mine: Vec<u64> = entries
                .iter()
                .map(|entry| entry.session)
                .filter(|&session| read_rings(&self.rings).route.owner(session) == Some(index))
                .collect();
            if mine.is_empty() {
                continue;
            }
            let args = serde_json::to_vec(&RecoverArgs { sessions: mine.clone() })
                .expect("recover args serialize");
            match http_post(addr, "/admin/recover", &args, RECOVER_TIMEOUT) {
                Ok((200, body)) => {
                    let Ok(outcomes) = serde_json::from_slice::<Vec<RecoverOutcome>>(&body) else {
                        report.failed.extend(
                            mine.iter().map(|&s| (s, "unparseable recover response".to_string())),
                        );
                        continue;
                    };
                    for outcome in outcomes {
                        if outcome.ok {
                            report.recovered.push(RecoveredSession {
                                session: outcome.session,
                                backend: index,
                                cycle: outcome.cycle,
                                staleness_ms: outcome.staleness_ms,
                                already_live: outcome.already_live,
                            });
                        } else {
                            report.failed.push((
                                outcome.session,
                                outcome.error.unwrap_or_else(|| "recover failed".to_string()),
                            ));
                        }
                    }
                }
                Ok((status, _)) => report
                    .failed
                    .extend(mine.iter().map(|&s| (s, format!("recover answered {status}")))),
                Err(e) => report.failed.extend(mine.iter().map(|&s| (s, e.clone()))),
            }
        }
        let freshly_restored = report.recovered.iter().filter(|r| !r.already_live).count() as u64;
        self.stats.sessions_recovered.fetch_add(freshly_restored, Ordering::Relaxed);
        // Journal the re-own as a whole, then each recovered session, so a
        // chaos run is reconstructable from the trace alone.
        self.journal(
            Event::new(EventKind::FailoverReown, self.obs.journal.now_us())
                .fields(report.recovered.len() as u64, elapsed_us(reown_started)),
        );
        for recovered in &report.recovered {
            self.journal(
                Event::new(EventKind::SessionRestore, self.obs.journal.now_us())
                    .session(recovered.session)
                    .fields(recovered.backend as u64, recovered.staleness_ms),
            );
        }
        *lock(&self.last_failover) = Some(report);
    }

    /// Aggregate upstream `/metrics` into `rvsim_upstream_*` families
    /// (cached; served by `append_metrics`).  The documents are parsed and
    /// merged structurally — counters and gauges sum per `(name, labels)`,
    /// histogram buckets merge per `le` bound (which preserves cumulative
    /// invariants) — then re-rendered with every `rvsim_` family renamed to
    /// `rvsim_upstream_`.  Per-instance uptime is dropped: a summed uptime
    /// means nothing.
    fn refresh_upstream_metrics(&self) {
        let documents: Vec<String> = self
            .backends
            .iter()
            .filter(|b| b.alive.load(Ordering::Acquire))
            .filter_map(|b| match http_get(b.addr, "/metrics", PROBE_TIMEOUT) {
                Ok((200, body)) => Some(String::from_utf8_lossy(&body).into_owned()),
                _ => None,
            })
            .collect();
        let rendered = expo::merge_and_rename(&documents, |name| {
            if name == "rvsim_uptime_seconds" {
                return None;
            }
            name.strip_prefix("rvsim_").map(|suffix| format!("rvsim_upstream_{suffix}"))
        });
        *lock(&self.upstream_metrics) = rendered;
    }
}

impl ApiHandler for Router {
    fn handle_api(&self, body: &[u8], request_id: u64) -> Bytes {
        let request: Request = match serde_json::from_slice(body) {
            Ok(request) => request,
            Err(e) => return encode_error(format!("malformed request: {e}")),
        };
        match request {
            request @ Request::CreateSession { .. } => self.create_session(request, request_id),
            Request::Compile { .. } => {
                // Compilation is stateless: spread it round-robin.
                let members = self.routable();
                if members.is_empty() {
                    return encode_error("no live backend to compile on");
                }
                let pick = self.next_compile.fetch_add(1, Ordering::Relaxed) as usize;
                match self.call_backend(members[pick % members.len()], body, request_id) {
                    Ok(payload) => Bytes::from(payload),
                    Err(e) => encode_error(format!("upstream error: {e}")),
                }
            }
            Request::ListSessions => self.list_sessions(),
            Request::RestoreSession { ref envelope, .. } => {
                let session = envelope.session;
                match read_rings(&self.rings).place.owner(session) {
                    Some(target) => match self.call_backend(target, body, request_id) {
                        Ok(payload) => Bytes::from(payload),
                        Err(e) => encode_error(format!("upstream error: {e}")),
                    },
                    None => encode_error("no live backend to restore onto"),
                }
            }
            Request::Step { session, .. }
            | Request::StepBack { session, .. }
            | Request::Run { session, .. }
            | Request::GetState { session }
            | Request::GetStateDelta { session, .. }
            | Request::GetStats { session }
            | Request::DestroySession { session }
            | Request::SerializeSession { session, .. } => {
                self.forward_session(session, body, request_id)
            }
        }
    }

    fn handle_control(&self, target: &str, body: &[u8]) -> Option<ControlResponse> {
        match target {
            "/admin/drain" => {
                #[derive(serde::Deserialize)]
                struct DrainArgs {
                    backend: usize,
                }
                let args: DrainArgs = match serde_json::from_slice(body) {
                    Ok(args) => args,
                    Err(e) => {
                        return Some(control(400, "Bad Request", &format!("{{\"error\":\"{e}\"}}")))
                    }
                };
                Some(match self.drain(args.backend) {
                    Ok(report) => ControlResponse {
                        status: 200,
                        reason: "OK",
                        body: serde_json::to_vec(&report).expect("reports serialize"),
                    },
                    Err((status, message)) => {
                        let reason = if status == 409 { "Conflict" } else { "Bad Request" };
                        control(status, reason, &format!("{{\"error\":{}}}", json_string(&message)))
                    }
                })
            }
            "/admin/failover" => {
                let body =
                    serde_json::to_vec(&self.last_failover()).expect("failover reports serialize");
                Some(ControlResponse { status: 200, reason: "OK", body })
            }
            _ => None,
        }
    }

    fn append_metrics(&self, out: &mut Exposition) {
        let alive = self.backends.iter().filter(|b| b.alive.load(Ordering::Acquire)).count();
        out.gauge("rvsim_router_backends", "Configured backends.", self.backends.len() as u64);
        out.gauge("rvsim_router_backends_alive", "Backends passing health probes.", alive as u64);
        out.counter(
            "rvsim_router_upstream_errors_total",
            "Upstream calls that failed.",
            self.stats.upstream_errors.load(Ordering::Relaxed),
        );
        out.counter(
            "rvsim_router_retries_total",
            "Requests retried after a routing change.",
            self.stats.retries.load(Ordering::Relaxed),
        );
        out.counter(
            "rvsim_router_sessions_migrated_total",
            "Sessions moved by drains.",
            self.stats.sessions_migrated.load(Ordering::Relaxed),
        );
        out.counter(
            "rvsim_router_drains_total",
            "Completed drains.",
            self.stats.drains.load(Ordering::Relaxed),
        );
        out.counter(
            "rvsim_router_breaker_fast_fails_total",
            "Requests rejected by an open circuit breaker.",
            self.stats.breaker_fast_fails.load(Ordering::Relaxed),
        );
        out.counter(
            "rvsim_router_breakers_opened_total",
            "Closed-to-open breaker transitions.",
            self.stats.breakers_opened.load(Ordering::Relaxed),
        );
        out.counter(
            "rvsim_router_failovers_total",
            "Session requests rerouted to a surviving owner.",
            self.stats.failovers.load(Ordering::Relaxed),
        );
        out.counter(
            "rvsim_router_sessions_recovered_total",
            "Sessions re-owned from checkpoints after a backend death.",
            self.stats.sessions_recovered.load(Ordering::Relaxed),
        );
        out.family("rvsim_router_backend_up", "gauge", "Backend liveness by index.");
        for (index, backend) in self.backends.iter().enumerate() {
            let index = index.to_string();
            out.sample_u64(
                "rvsim_router_backend_up",
                &[("backend", &index)],
                u64::from(backend.alive.load(Ordering::Acquire)),
            );
        }
        out.family(
            "rvsim_router_backend_breaker_open",
            "gauge",
            "Circuit-breaker state by backend index (1 = open).",
        );
        for (index, backend) in self.backends.iter().enumerate() {
            let index = index.to_string();
            out.sample_u64(
                "rvsim_router_backend_breaker_open",
                &[("backend", &index)],
                u64::from(backend.breaker.is_open()),
            );
        }
        out.family(
            "rvsim_router_upstream_seconds",
            "histogram",
            "Upstream hop latency by backend (connect + call + read).",
        );
        for (index, backend) in self.backends.iter().enumerate() {
            let index = index.to_string();
            out.histogram_series(
                "rvsim_router_upstream_seconds",
                &[("backend", &index)],
                &backend.latency.snapshot(),
            );
        }
        out.raw(&lock(&self.upstream_metrics));
    }

    fn observer(&self) -> Option<Arc<Observer>> {
        Some(Arc::clone(&self.obs))
    }

    fn housekeeping(&self) {
        self.probe_backends();
        self.refresh_upstream_metrics();
    }
}

fn control(status: u16, reason: &'static str, body: &str) -> ControlResponse {
    ControlResponse { status, reason, body: body.as_bytes().to_vec() }
}

/// Encode a router-originated error with the servers' one encoder,
/// indistinguishable on the client from a backend error.
fn encode_error(message: impl Into<String>) -> Bytes {
    encode_response(&Response::error(message), false)
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros() as u64
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"error\"".to_string())
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<K, V>(map: &RwLock<HashMap<K, V>>) -> std::sync::RwLockReadGuard<'_, HashMap<K, V>> {
    map.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<K, V>(map: &RwLock<HashMap<K, V>>) -> std::sync::RwLockWriteGuard<'_, HashMap<K, V>> {
    map.write().unwrap_or_else(PoisonError::into_inner)
}

fn read_rings(rings: &RwLock<Rings>) -> std::sync::RwLockReadGuard<'_, Rings> {
    rings.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_rings(rings: &RwLock<Rings>) -> std::sync::RwLockWriteGuard<'_, Rings> {
    rings.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_ownership_is_stable_under_membership_growth() {
        let four = HashRing::new(&[0, 1, 2, 3]);
        let five = HashRing::new(&[0, 1, 2, 3, 4]);
        let total = 10_000u64;
        let moved = (0..total)
            .filter(|&s| four.owner(ROUTER_SESSION_BASE + s) != five.owner(ROUTER_SESSION_BASE + s))
            .count();
        // Adding one node to four should move about 1/5 of the keys; allow
        // generous slack for hash noise but catch "everything rehashed".
        assert!(moved > 0, "some keys must move");
        assert!(
            moved < (total as usize) * 2 / 5,
            "only ~1/5 of keys should move, moved {moved}/{total}"
        );
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::new(&[0, 1, 2, 3]);
        let mut counts = [0usize; 4];
        for s in 0..10_000u64 {
            counts[ring.owner(ROUTER_SESSION_BASE + s).unwrap()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                (1_000..5_000).contains(&count),
                "backend {i} owns {count} of 10000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        assert_eq!(HashRing::new(&[]).owner(7), None);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_half_opens_after_cooldown() {
        let breaker = Breaker::default();
        let cooldown = BREAKER_COOLDOWN.as_millis() as u64;
        assert!(breaker.allows(0), "a fresh breaker is closed");

        // Failures below the threshold keep it closed.
        assert!(!breaker.record_failure(10));
        assert!(!breaker.record_failure(20));
        assert!(breaker.allows(25));
        // The threshold failure opens it — exactly once.
        assert!(breaker.record_failure(30), "third consecutive failure must open");
        assert!(breaker.is_open());

        // Open: everything fast-fails through the cooldown.
        assert!(!breaker.allows(31));
        assert!(!breaker.allows(30 + cooldown - 1));

        // Cooldown elapsed: exactly one half-open probe is admitted.
        let probe_time = 30 + cooldown + 1;
        assert!(breaker.allows(probe_time), "first caller is the half-open probe");
        assert!(!breaker.allows(probe_time), "second caller must still fast-fail");

        // The probe fails: re-open with a fresh cooldown (not a new "open").
        assert!(!breaker.record_failure(probe_time + 5));
        assert!(!breaker.allows(probe_time + 10));

        // The next probe succeeds: fully closed again.
        let retry_time = probe_time + 5 + cooldown + 1;
        assert!(breaker.allows(retry_time));
        breaker.record_success();
        assert!(!breaker.is_open());
        assert!(breaker.allows(retry_time + 1));
        // And the failure count restarted: one new failure does not open.
        assert!(!breaker.record_failure(retry_time + 2));
        assert!(breaker.allows(retry_time + 3));
    }

    #[test]
    fn breaker_success_interrupts_the_failure_streak() {
        let breaker = Breaker::default();
        assert!(!breaker.record_failure(1));
        assert!(!breaker.record_failure(2));
        breaker.record_success();
        assert!(!breaker.record_failure(3));
        assert!(!breaker.record_failure(4), "streak restarted: still below threshold");
        assert!(breaker.record_failure(5));
        assert!(breaker.is_open());
    }

    #[test]
    fn wire_error_probe_matches_encoded_unknown_session() {
        let payload = encode_error("unknown session 41");
        assert!(is_unknown_session_payload(&payload));
        let payload = encode_error("something else");
        assert!(!is_unknown_session_payload(&payload));
        assert!(!is_unknown_session_payload(&[]));
        assert!(!is_unknown_session_payload(&[1, 2, 3]));
    }

    #[test]
    fn wire_error_probe_matches_what_a_compressing_backend_sends() {
        // The drain retry hinges on this probe: a backend compresses by
        // default, and its `unknown session` answer must still read as one.
        let backend = rvsim_server::SimulationServer::new(Default::default());
        assert!(backend.config().compress_responses);
        let payload = backend.handle_raw(br#"{"type":"get_state","session":41}"#);
        assert!(is_unknown_session_payload(&payload));
    }
}
