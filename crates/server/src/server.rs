//! Session management and request dispatch.

use crate::checkpoint::{CheckpointConfig, CheckpointEntry, CheckpointStore, RecoverOutcome};
use crate::envelope::SessionEnvelope;
use crate::protocol::{encode_payload, encode_response, Request, Response};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rvsim_asm::filter_assembly;
use rvsim_cc::OptLevel;
use rvsim_core::{ArchitectureConfig, ProcessorSnapshot, Simulator, SnapshotBuffer, SnapshotDelta};
use rvsim_obs::{Event, EventKind, Histogram, HistogramSnapshot, Observer};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// How the server emulates its deployment (§IV-A, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentMode {
    /// Direct execution (the paper's "Direct" rows).
    Direct,
    /// Containerized execution: every request pays an extra fixed CPU cost
    /// that stands in for the container's network/namespace overhead
    /// (the paper's "Docker" rows).
    Containerized {
        /// Extra per-request overhead in microseconds of busy work.
        request_overhead_us: u64,
    },
    /// Emulate a backend whose per-request service time is dominated by
    /// waiting (I/O, a modeled per-node capacity) rather than CPU: each
    /// request *sleeps* for the service time instead of spinning.  Sleeping
    /// requests from N emulated nodes overlap on one machine, so a
    /// multi-process scaling measurement exercises the routing/placement
    /// tier honestly even when the host has fewer cores than nodes.
    RemoteEmulated {
        /// Emulated per-request service time in microseconds.
        service_time_us: u64,
    },
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentConfig {
    /// Deployment mode.
    pub mode: DeploymentMode,
    /// Compress response payloads (the gzip substitute).
    pub compress_responses: bool,
    /// Sessions untouched for this many seconds become eligible for the
    /// idle sweep ([`SimulationServer::evict_idle`], invoked from the
    /// network front end's housekeeping tick).  `None` disables eviction —
    /// sessions then live until their client destroys them.
    pub idle_session_ttl_seconds: Option<u64>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            mode: DeploymentMode::Direct,
            compress_responses: true,
            idle_session_ttl_seconds: None,
        }
    }
}

thread_local! {
    /// The dispatching thread's snapshot render buffer.  A payload is
    /// encoded before its thread renders the next one, so one buffer per
    /// thread serves every session.
    static SNAPSHOT: RefCell<SnapshotBuffer> = RefCell::new(SnapshotBuffer::new());
}

/// Per-session serving state: the encoded payload of the last `state`
/// answer and the delta-protocol base.  The render and compress buffers
/// belong to the dispatching thread, not to the session.
#[derive(Default)]
struct ServeCache {
    /// Encoded payload (flag byte + bytes) of the last `state` answer,
    /// held as a shared [`Bytes`] handle: serving the cache is an atomic
    /// reference bump, not a buffer copy.  When every consumer has dropped
    /// its handle the allocation is reclaimed for the next refresh.
    encoded: Bytes,
    /// `(epoch, cycle)` the payload in `encoded` was rendered at.  Within
    /// one state generation the simulation is deterministic, so an
    /// unchanged cycle implies unchanged state and the cached bytes are
    /// returned without re-capturing anything — but a restore can install
    /// *different* state behind the same id at the same cycle, which bumps
    /// the session epoch and makes every cached payload unreachable.
    encoded_key: Option<(u64, u64)>,
    /// The snapshot this session's client last received (delta base).
    delta_base: Option<ProcessorSnapshot>,
}

struct Session {
    simulator: Simulator,
    serve: ServeCache,
    /// Assembly source the simulator was built from (serialize/restore).
    program: String,
    /// Architecture the simulator runs (serialize/restore).
    config: ArchitectureConfig,
    /// State-generation counter: bumped whenever the simulator behind this
    /// id is replaced (in-place restore).  Part of the serve-cache key, so
    /// a replaced session can never serve a stale cached payload captured
    /// from the previous state generation at the same cycle.
    epoch: u64,
    /// Cycle of this session's last successful on-disk checkpoint (`None`
    /// before the first one).  `Some(current cycle)` means the checkpoint is
    /// current and the periodic tick / eviction spill can skip the write.
    checkpointed_cycle: Option<u64>,
}

/// A stored session: the individually-locked simulator state plus an
/// idle-tracking timestamp that is updated *outside* the session lock, so
/// the eviction sweep can age sessions without contending with requests.
struct SessionSlot {
    /// Milliseconds (since server start) of the last request that looked
    /// this session up.
    last_touched_ms: AtomicU64,
    session: Mutex<Session>,
    /// Waiting room for the per-session `Step` combiner (request
    /// coalescing): see [`SimulationServer::coalesced_step`].
    steps: StepQueue,
}

/// One queued `Step` request awaiting the session's combiner.
struct StepTicket {
    id: u64,
    cycles: u64,
}

/// Flat-combining queue for a session's `Step` requests.
///
/// When `Step`s for one session arrive faster than the simulator executes
/// them, the threads carrying them do not line up on the session mutex.
/// The first arrival becomes the *combiner*: it takes the session lock once
/// and executes every queued ticket **in arrival order**, publishing each
/// ticket's cumulative result; the other threads block on the condvar and
/// wake with their response already computed.  The observable behaviour —
/// every response and the final simulator state — is byte-identical to the
/// same requests executing sequentially in arrival order; what is saved is
/// N-1 lock handoffs and their cache-line migrations per batch.
#[derive(Default)]
struct StepQueue {
    inner: Mutex<StepQueueInner>,
    ready: Condvar,
}

#[derive(Default)]
struct StepQueueInner {
    next_ticket: u64,
    pending: VecDeque<StepTicket>,
    finished: HashMap<u64, Response>,
    /// A combiner currently owns the session and will drain `pending`.
    combining: bool,
    /// The session was destroyed, evicted or migrated away.  New arrivals
    /// answer `unknown session` immediately, and [`close_step_queue`]
    /// already failed every queued ticket — nobody sleeps on the condvar
    /// waiting for a combiner that will never come.
    closed: bool,
}

/// The answer to a request naming a session that does not exist.
fn unknown_session(id: u64) -> Response {
    Response::error(format!("unknown session {id}"))
}

/// Close a removed session's step queue: fail every queued ticket with an
/// `unknown session` error and wake the waiters.  Without this, a `Step`
/// enqueued between lookup and removal (destroy or idle eviction) would
/// either hang on the condvar or silently execute against the removed
/// simulator.
fn close_step_queue(id: u64, slot: &SessionSlot) {
    let queue = &slot.steps;
    let mut inner = queue.inner.lock();
    inner.closed = true;
    let drained: Vec<u64> = inner.pending.drain(..).map(|t| t.id).collect();
    if drained.is_empty() {
        return;
    }
    for ticket in drained {
        inner.finished.insert(ticket, unknown_session(id));
    }
    queue.ready.notify_all();
}

/// Number of shards in the session store.  Power of two; sixteen shards keep
/// the per-shard lock essentially uncontended at the worker-pool sizes the
/// paper's deployment uses while costing a few hundred bytes of memory.
const SESSION_SHARDS: usize = 16;

/// One shard of the session store.
type SessionShard = RwLock<HashMap<u64, Arc<SessionSlot>>>;

/// Spread sequential session ids across shards (splitmix-style multiply,
/// taking exactly the top `log2(SESSION_SHARDS)` bits so the constant stays
/// genuinely tunable), so a burst of freshly created sessions does not
/// serialize on one shard.
fn shard_index(id: u64) -> usize {
    (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SESSION_SHARDS.trailing_zeros())) as usize
        & (SESSION_SHARDS - 1)
}

/// Durability state: the checkpoint store plus the cadence bookkeeping and
/// counters of the spill/restore paths.
struct CheckpointState {
    store: CheckpointStore,
    /// Periodic checkpoint cadence in milliseconds.
    interval_ms: u64,
    /// Dirty-cycle threshold for mid-interval checkpoints (0 = disabled).
    dirty_cycles: u64,
    /// `now_ms` of the last periodic sweep (CAS-claimed, so concurrent
    /// housekeeping ticks never run the sweep twice).
    last_tick_ms: AtomicU64,
    /// Sessions spilled to disk by the idle sweep instead of destroyed.
    spilled: AtomicU64,
    /// Sessions restored from their checkpoint (on demand or recovery).
    restored: AtomicU64,
    /// Largest checkpoint age a restore has inherited, in milliseconds —
    /// the observed staleness bound.
    restore_staleness_max_ms: AtomicU64,
}

/// The per-endpoint latency histograms: one per `Request` variant plus one
/// for payloads that fail to parse.  [`ENDPOINTS`] holds their labels in the
/// same order.
#[derive(Clone, Copy)]
enum Endpoint {
    CreateSession,
    Compile,
    Step,
    StepBack,
    Run,
    GetState,
    GetStateDelta,
    GetStats,
    DestroySession,
    SerializeSession,
    RestoreSession,
    ListSessions,
    Malformed,
}

/// `rvsim_endpoint_seconds{endpoint=…}` labels, indexed by [`Endpoint`].
const ENDPOINTS: [&str; 13] = [
    "create_session",
    "compile",
    "step",
    "step_back",
    "run",
    "get_state",
    "get_state_delta",
    "get_stats",
    "destroy_session",
    "serialize_session",
    "restore_session",
    "list_sessions",
    "malformed",
];

/// Sampling factor for timing the cached-serve fast paths
/// (`GetState`/`GetStateDelta`): one request in `RAW_SAMPLE` is timed and
/// recorded with this weight (power of two, so the sampling test is a
/// mask).  Measured on the ~0.5 µs cached-GetState path, always-on timing
/// costs ~50 ns (~9%) — nearly all of it the two `Instant` reads — while
/// 1-in-16 sampling cuts that to a relaxed counter bump (<2%) and leaves
/// the latency distribution unbiased.
const RAW_SAMPLE: u64 = 16;

/// Compile C `source` at optimization level `optimization` (0–3; higher
/// means `-O3`) to filtered assembly.
fn compile(source: &str, optimization: u8) -> Response {
    let opt = match optimization {
        0 => OptLevel::O0,
        1 => OptLevel::O1,
        2 => OptLevel::O2,
        _ => OptLevel::O3,
    };
    match rvsim_cc::compile(source, opt) {
        Ok(output) => Response::Compiled {
            assembly: filter_assembly(&output.assembly),
            line_map: output.line_map,
        },
        Err(errors) => {
            Response::error(errors.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("\n"))
        }
    }
}

/// The simulation server: a sharded set of sessions plus request dispatch.
///
/// The server is cheap to share (`Arc<SimulationServer>`).  The session map
/// is split across 16 reader-writer locks (`SESSION_SHARDS`) keyed by a hash of
/// the session id: lookups (the per-request path) take one shard's read
/// lock, creation/deletion take one shard's write lock, and no operation —
/// including [`session_count`](Self::session_count) — ever locks the whole
/// store.  Each session is additionally individually locked so concurrent
/// users do not serialize on one another.
pub struct SimulationServer {
    config: DeploymentConfig,
    shards: Box<[SessionShard]>,
    /// Live-session count, maintained on insert/remove: reading it is a
    /// single atomic load that cannot stall (or be stalled by) requests
    /// in flight on any shard.
    session_count: AtomicUsize,
    /// Sessions dropped by the idle sweep over the server's lifetime.
    evicted_sessions: AtomicU64,
    /// `Step` requests executed by another request's combiner pass (i.e.
    /// requests that were coalesced instead of taking the session lock).
    coalesced_steps: AtomicU64,
    /// `state` answers served from the cached encoded payload as a
    /// shared handle (no render, no copy).
    shared_state_serves: AtomicU64,
    next_session: AtomicU64,
    /// Durable checkpointing (`--state-dir`): `None` keeps the pre-existing
    /// in-memory-only behaviour, including destroy-on-evict.
    checkpoints: Option<CheckpointState>,
    /// Observability handle (event journal, phase histograms, request-id
    /// mint) shared with the network front end serving this instance, so
    /// handler-side events land in the same ring as connection events.
    obs: Arc<Observer>,
    /// Per-endpoint dispatch latency, indexed like [`ENDPOINTS`].
    endpoints: [Histogram; ENDPOINTS.len()],
    /// Cached-serve fast-path dispatch counter driving the 1-in-
    /// [`RAW_SAMPLE`] timing decision.
    raw_ticks: AtomicU64,
    /// Epoch for the per-session idle timestamps.
    started: Instant,
    /// Test-only virtual clock advance, added to the wall clock so eviction
    /// tests age sessions deterministically instead of sleeping.
    #[cfg(test)]
    clock_skew_ms: AtomicU64,
}

impl SimulationServer {
    /// Create a server.
    pub fn new(config: DeploymentConfig) -> Self {
        SimulationServer {
            config,
            shards: (0..SESSION_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            session_count: AtomicUsize::new(0),
            evicted_sessions: AtomicU64::new(0),
            coalesced_steps: AtomicU64::new(0),
            shared_state_serves: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
            checkpoints: None,
            obs: Arc::new(Observer::default()),
            endpoints: std::array::from_fn(|_| Histogram::default()),
            raw_ticks: AtomicU64::new(0),
            started: Instant::now(),
            #[cfg(test)]
            clock_skew_ms: AtomicU64::new(0),
        }
    }

    /// Server with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(DeploymentConfig::default())
    }

    /// Create a server with durable checkpointing: sessions are periodically
    /// serialized to `RVSE` envelope files in the checkpoint directory, idle
    /// eviction spills to disk instead of destroying (the session restores
    /// on its next touch), and [`recover_checkpoints`](Self::recover_checkpoints)
    /// can re-own everything in the directory after a crash.
    pub fn with_checkpoints(
        config: DeploymentConfig,
        checkpoints: CheckpointConfig,
    ) -> std::io::Result<Self> {
        let store = CheckpointStore::open(&checkpoints.state_dir)?;
        let mut server = Self::new(config);
        server.checkpoints = Some(CheckpointState {
            store,
            interval_ms: checkpoints.interval.as_millis() as u64,
            dirty_cycles: checkpoints.dirty_cycles,
            last_tick_ms: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            restore_staleness_max_ms: AtomicU64::new(0),
        });
        Ok(server)
    }

    /// The checkpoint store, when checkpointing is enabled.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.checkpoints.as_ref().map(|c| &c.store)
    }

    /// Sessions the idle sweep spilled to disk instead of destroying.
    pub fn spilled_session_count(&self) -> u64 {
        self.checkpoints.as_ref().map_or(0, |c| c.spilled.load(Ordering::Relaxed))
    }

    /// Sessions restored from their on-disk checkpoint (on-demand or via
    /// explicit recovery) over the server's lifetime.
    pub fn restored_session_count(&self) -> u64 {
        self.checkpoints.as_ref().map_or(0, |c| c.restored.load(Ordering::Relaxed))
    }

    /// Largest checkpoint age any restore has inherited, in milliseconds:
    /// the observed worst-case staleness, bounded by the checkpoint
    /// interval as long as the periodic tick keeps up.
    pub fn max_restore_staleness_ms(&self) -> u64 {
        self.checkpoints.as_ref().map_or(0, |c| c.restore_staleness_max_ms.load(Ordering::Relaxed))
    }

    /// The deployment configuration.
    pub fn config(&self) -> DeploymentConfig {
        self.config
    }

    /// Number of live sessions (a single atomic load — never blocks on, or
    /// is blocked by, requests in flight on any shard).
    pub fn session_count(&self) -> usize {
        self.session_count.load(Ordering::Acquire)
    }

    /// Sessions dropped by the idle sweep over the server's lifetime.
    pub fn evicted_session_count(&self) -> u64 {
        self.evicted_sessions.load(Ordering::Relaxed)
    }

    /// `Step` requests whose cycles were executed by another request's
    /// combiner pass (request coalescing) over the server's lifetime.
    pub fn coalesced_step_count(&self) -> u64 {
        self.coalesced_steps.load(Ordering::Relaxed)
    }

    /// `state` answers (`GetState`, or the full-snapshot fallback of
    /// `GetStateDelta`) served as a shared handle to the cached encoded
    /// payload (unchanged cycle: no render, no compression, no copy).
    pub fn shared_state_serve_count(&self) -> u64 {
        self.shared_state_serves.load(Ordering::Relaxed)
    }

    /// This instance's observability handle.  The network front end shares
    /// it (via `ApiHandler::observer`), so request-phase histograms,
    /// connection events and handler-side events (coalescing joins,
    /// checkpoint sweeps, restores) all live in one journal.
    pub fn observability(&self) -> &Arc<Observer> {
        &self.obs
    }

    /// Per-endpoint dispatch latency snapshots, in a stable order:
    /// `(endpoint label, histogram)` for every protocol endpoint plus the
    /// `malformed` bucket.
    pub fn endpoint_latency(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        ENDPOINTS.iter().zip(self.endpoints.iter()).map(|(&ep, h)| (ep, h.snapshot())).collect()
    }

    fn now_ms(&self) -> u64 {
        let wall = self.started.elapsed().as_millis() as u64;
        #[cfg(test)]
        let wall = wall + self.clock_skew_ms.load(Ordering::Relaxed);
        wall
    }

    /// Advance the idle-tracking clock without sleeping (tests only).
    #[cfg(test)]
    fn advance_clock(&self, ms: u64) {
        self.clock_skew_ms.fetch_add(ms, Ordering::Relaxed);
    }

    fn session(&self, id: u64) -> Option<Arc<SessionSlot>> {
        if let Some(slot) = self.shards[shard_index(id)].read().get(&id).cloned() {
            slot.last_touched_ms.store(self.now_ms(), Ordering::Relaxed);
            return Some(slot);
        }
        // Restore-on-demand: a session the idle sweep spilled to disk (or a
        // dead peer checkpointed into a shared state directory) comes back
        // on its next touch instead of answering `unknown session`.
        self.restore_from_disk(id).ok()
    }

    /// Restore session `id` from its on-disk checkpoint and install it.
    /// The replay-verified envelope restore applies: state the checkpoint
    /// cannot reproduce byte-exactly is refused, never installed wrong.
    fn restore_from_disk(&self, id: u64) -> Result<Arc<SessionSlot>, String> {
        let ckpt =
            self.checkpoints.as_ref().ok_or_else(|| "checkpointing is disabled".to_string())?;
        let (envelope, age) = ckpt.store.load(id)?;
        let simulator = envelope.replay()?;
        let session = Session {
            simulator,
            serve: ServeCache::default(),
            program: envelope.program,
            config: envelope.architecture,
            epoch: 0,
            // The envelope just came *from* the store: the on-disk
            // checkpoint is current by construction, skip the re-write.
            checkpointed_cycle: Some(envelope.cycle),
        };
        self.next_session.fetch_max(id.saturating_add(1), Ordering::Relaxed);
        if self.install_session(id, session).is_ok() {
            ckpt.restored.fetch_add(1, Ordering::Relaxed);
            ckpt.restore_staleness_max_ms.fetch_max(age.as_millis() as u64, Ordering::Relaxed);
            self.obs.journal.record(
                Event::new(EventKind::SessionRestore, self.obs.journal.now_us())
                    .session(id)
                    .fields(0, age.as_millis() as u64),
            );
        }
        // A failed install means a concurrent restore won the race — the
        // slot is there either way.
        self.shards[shard_index(id)]
            .read()
            .get(&id)
            .cloned()
            .inspect(|slot| slot.last_touched_ms.store(self.now_ms(), Ordering::Relaxed))
            .ok_or_else(|| format!("session {id} vanished during restore"))
    }

    /// Remove session `id`, including its on-disk checkpoint.  Returns
    /// whether it existed (resident or spilled).
    fn remove_session(&self, id: u64) -> bool {
        let resident = match self.shards[shard_index(id)].write().remove(&id) {
            Some(slot) => {
                self.session_count.fetch_sub(1, Ordering::AcqRel);
                close_step_queue(id, &slot);
                true
            }
            None => false,
        };
        // Destroy means destroy: a spilled checkpoint must not resurrect
        // the session on its next touch.
        let spilled = self.checkpoints.as_ref().is_some_and(|c| c.store.remove(id));
        resident || spilled
    }

    /// Drop sessions whose last request is older than `ttl`.  Returns how
    /// many were evicted.  A session whose lock is currently held (a request
    /// is mid-flight on it) is never evicted, and the idle timestamp is
    /// re-checked under the shard's write lock so a lookup racing with the
    /// sweep keeps its session.  Lock scope stays per-shard: a sweep never
    /// stops the world.
    pub fn evict_idle_older_than(&self, ttl: Duration) -> usize {
        // Before `ttl` has elapsed since server start nothing can be older
        // than the cutoff (checked_sub, not saturating: a cutoff clamped to
        // zero would evict sessions created at millisecond zero).
        let Some(cutoff) = self.now_ms().checked_sub(ttl.as_millis() as u64) else {
            return 0;
        };
        let mut evicted = 0;
        for shard in self.shards.iter() {
            let stale: Vec<u64> = shard
                .read()
                .iter()
                .filter(|(_, slot)| slot.last_touched_ms.load(Ordering::Relaxed) <= cutoff)
                .map(|(&id, _)| id)
                .collect();
            if stale.is_empty() {
                continue;
            }
            let mut guard = shard.write();
            for id in stale {
                let still_idle = guard.get(&id).is_some_and(|slot| {
                    if slot.last_touched_ms.load(Ordering::Relaxed) > cutoff {
                        return false;
                    }
                    // A session with queued or in-flight Step work is not
                    // idle, whatever its touch stamp says: removing it would
                    // strand the queued waiters behind a combiner that will
                    // never publish their results.
                    let queue = slot.steps.inner.lock();
                    let quiet = queue.pending.is_empty() && !queue.combining;
                    drop(queue);
                    if !quiet {
                        return false;
                    }
                    let Some(mut session) = slot.session.try_lock() else {
                        return false;
                    };
                    // With a checkpoint store, eviction *spills*: the
                    // session must be durably on disk before it leaves
                    // memory.  A failed spill (disk full, torn write) keeps
                    // the session resident — dropping state that is not on
                    // disk would turn memory pressure into data loss.
                    if let Some(ckpt) = &self.checkpoints {
                        if session.checkpointed_cycle != Some(session.simulator.cycle()) {
                            let envelope =
                                SessionEnvelope::capture(id, &session.simulator, &session.program);
                            match ckpt.store.save(&envelope) {
                                Ok(()) => session.checkpointed_cycle = Some(envelope.cycle),
                                Err(_) => return false,
                            }
                        }
                    }
                    true
                });
                if still_idle {
                    if let Some(slot) = guard.remove(&id) {
                        self.session_count.fetch_sub(1, Ordering::AcqRel);
                        // Close the queue anyway: a Step that raced past the
                        // quiet check errors out instead of stepping (or
                        // waiting on) the removed session.
                        close_step_queue(id, &slot);
                        if let Some(ckpt) = &self.checkpoints {
                            ckpt.spilled.fetch_add(1, Ordering::Relaxed);
                        }
                        evicted += 1;
                    }
                }
            }
        }
        self.evicted_sessions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Run the idle sweep with the TTL from the deployment configuration
    /// (no-op when eviction is disabled).  The network front end calls this
    /// from its housekeeping tick.
    pub fn evict_idle(&self) -> usize {
        match self.config.idle_session_ttl_seconds {
            Some(ttl) => self.evict_idle_older_than(Duration::from_secs(ttl)),
            None => 0,
        }
    }

    /// Handle one raw JSON request payload and produce its encoded response:
    /// the full per-request work the paper's performance evaluation
    /// measures (decode, simulate, render, compress).  This is the server's
    /// one request path; every transport and test goes through it.
    /// `GetState` takes the allocation-free serve path: an unchanged cycle
    /// returns the cached encoded payload without re-capturing anything,
    /// and the returned [`Bytes`] handle shares the cache's buffer, so
    /// transports write it to the wire without copying.
    pub fn handle_raw(&self, request_json: &[u8]) -> Bytes {
        self.handle_raw_traced(request_json, 0)
    }

    /// [`handle_raw`](Self::handle_raw) carrying the request id minted (or
    /// propagated) by the front end, so handler-side journal events can be
    /// correlated with the connection's request trace.  Each request is
    /// timed into its endpoint's latency histogram; the cached-serve fast
    /// paths (`GetState`/`GetStateDelta`) one request in 16, with matching
    /// weight.
    pub fn handle_raw_traced(&self, request_json: &[u8], request_id: u64) -> Bytes {
        let request = match serde_json::from_slice::<Request>(request_json) {
            Ok(request) => request,
            Err(e) => {
                let error = Response::error(format!("malformed request: {e}"));
                return self.respond(Endpoint::Malformed, || error);
            }
        };
        match request {
            Request::GetState { session } => {
                self.dispatch(Endpoint::GetState, true, || self.serve_state(session))
            }
            Request::GetStateDelta { session, since_cycle } => {
                self.dispatch(Endpoint::GetStateDelta, true, || {
                    self.serve_delta(session, since_cycle)
                })
            }
            Request::CreateSession { program, architecture, entry: _, session } => self
                .respond(Endpoint::CreateSession, || {
                    self.create_session(&program, &architecture.unwrap_or_default(), session)
                }),
            Request::Compile { source, optimization } => {
                self.respond(Endpoint::Compile, || compile(&source, optimization))
            }
            Request::Step { session, cycles } => {
                self.respond(Endpoint::Step, || match self.session(session) {
                    Some(slot) => self.coalesced_step(session, &slot, cycles, request_id),
                    None => unknown_session(session),
                })
            }
            Request::StepBack { session, cycles } => self.respond(Endpoint::StepBack, || {
                self.with_session(session, |s| {
                    let sim = &mut s.simulator;
                    sim.step_back_by(cycles);
                    Response::Stepped { cycle: sim.cycle(), halted: sim.is_halted() }
                })
            }),
            Request::Run { session, max_cycles } => self.respond(Endpoint::Run, || {
                self.with_session(session, |s| match s.simulator.run(max_cycles) {
                    Ok(result) => {
                        Response::Stepped { cycle: result.cycles, halted: s.simulator.is_halted() }
                    }
                    Err(e) => Response::error(e),
                })
            }),
            Request::GetStats { session } => self.respond(Endpoint::GetStats, || {
                self.with_session(session, |s| Response::Stats(Box::new(s.simulator.statistics())))
            }),
            Request::DestroySession { session } => self.respond(Endpoint::DestroySession, || {
                if self.remove_session(session) {
                    Response::Destroyed
                } else {
                    unknown_session(session)
                }
            }),
            Request::SerializeSession { session, destroy } => self
                .respond(Endpoint::SerializeSession, || self.serialize_session(session, destroy)),
            Request::RestoreSession { envelope, replace } => {
                self.respond(Endpoint::RestoreSession, || self.restore_session(*envelope, replace))
            }
            Request::ListSessions => self.respond(Endpoint::ListSessions, || self.list_sessions()),
        }
    }

    /// [`dispatch`](Self::dispatch) an always-timed request whose handler
    /// answers with a [`Response`], and encode the answer.
    fn respond(&self, endpoint: Endpoint, handler: impl FnOnce() -> Response) -> Bytes {
        self.dispatch(endpoint, false, || self.encode(&handler()))
    }

    /// Run one request's `work` behind the deployment overhead and time it
    /// into `endpoint`'s latency histogram.  Every request is timed, except
    /// on the `sampled` cached-serve fast paths: there one request in
    /// `RAW_SAMPLE` is timed and recorded with that weight, and the untimed
    /// majority pay one relaxed counter bump and no clock read.  Tick 0 is
    /// always timed, so the first request of any workload seeds the
    /// histogram.
    #[inline]
    fn dispatch(&self, endpoint: Endpoint, sampled: bool, work: impl FnOnce() -> Bytes) -> Bytes {
        let weight = if !sampled {
            1
        } else if self.raw_ticks.fetch_add(1, Ordering::Relaxed) & (RAW_SAMPLE - 1) == 0 {
            RAW_SAMPLE
        } else {
            0
        };
        let started = (weight > 0).then(Instant::now);
        self.apply_deployment_overhead();
        let payload = work();
        if let Some(started) = started {
            self.endpoints[endpoint as usize]
                .record_weighted(started.elapsed().as_micros() as u64, weight);
        }
        payload
    }

    /// Encode `response` with this server's compression setting.
    fn encode(&self, response: &Response) -> Bytes {
        encode_response(response, self.config.compress_responses)
    }

    /// Answer `GetState`: the session's `state` payload.
    fn serve_state(&self, id: u64) -> Bytes {
        match self.session(id) {
            Some(slot) => self.state_payload(&mut slot.session.lock()),
            None => self.encode(&unknown_session(id)),
        }
    }

    /// Answer `GetStateDelta` against the session's stored base: a real
    /// delta when the base matches `since_cycle`, the full `state` payload
    /// otherwise (first request, or the client fell behind).  Either way
    /// the served state becomes the next delta base.
    fn serve_delta(&self, id: u64, since_cycle: u64) -> Bytes {
        let Some(slot) = self.session(id) else {
            return self.encode(&unknown_session(id));
        };
        let mut session = slot.session.lock();
        let current = ProcessorSnapshot::capture(&session.simulator);
        let delta = match &session.serve.delta_base {
            Some(base) if base.cycle == since_cycle => Some(SnapshotDelta::between(base, &current)),
            _ => None,
        };
        session.serve.delta_base = Some(current);
        match delta {
            Some(delta) => self.encode(&Response::StateDelta(Box::new(delta))),
            None => self.state_payload(&mut session),
        }
    }

    /// The `state` payload of `session` at its current cycle.  The cached
    /// bytes are served while their `(epoch, cycle)` key holds; otherwise
    /// the snapshot writer renders the response JSON straight from the
    /// simulator into this thread's buffer, the one encoder packs it, and
    /// the result becomes the new cache.  Plain `GetState` never seeds the
    /// delta base: that would cost a structured capture per request.
    fn state_payload(&self, session: &mut Session) -> Bytes {
        let Session { simulator, serve, epoch, .. } = session;
        let key = (*epoch, simulator.cycle());
        if serve.encoded_key == Some(key) {
            self.shared_state_serves.fetch_add(1, Ordering::Relaxed);
            return serve.encoded.clone();
        }
        // Reclaim the previous payload's allocation when every consumer has
        // dropped its handle (the steady state once responses have been
        // written to the wire); fall back to a fresh buffer while clones
        // are still alive.
        let mut out = match std::mem::take(&mut serve.encoded).try_into_vec() {
            Ok(mut vec) => {
                vec.clear();
                vec
            }
            Err(_) => Vec::new(),
        };
        SNAPSHOT.with(|buffer| {
            let mut buffer = buffer.borrow_mut();
            let json = buffer.render_state_response(simulator);
            encode_payload(json, self.config.compress_responses, &mut out);
        });
        serve.encoded = Bytes::from(out);
        serve.encoded_key = Some(key);
        serve.encoded.clone()
    }

    /// Capture session `id` as a portable envelope.  With `destroy`, the
    /// session is removed while its lock is still held: no request can
    /// observe it between the capture and the removal, which is the atomic
    /// "serialize and vacate" a live migration needs.
    fn serialize_session(&self, id: u64, destroy: bool) -> Response {
        let Some(slot) = self.session(id) else {
            return unknown_session(id);
        };
        let guard = slot.session.lock();
        let envelope = SessionEnvelope::capture(id, &guard.simulator, &guard.program);
        if destroy {
            // Holding the session lock here is safe: the eviction sweep
            // only `try_lock`s sessions, so no shard-write holder ever
            // blocks on a session lock.
            self.remove_session(id);
        }
        drop(guard);
        Response::Serialized(Box::new(envelope))
    }

    /// Install a session from an envelope under the envelope's original id.
    /// The restore replays the program to the captured cycle and refuses to
    /// install state it cannot reproduce exactly.
    fn restore_session(&self, envelope: SessionEnvelope, replace: bool) -> Response {
        let simulator = match envelope.replay() {
            Ok(simulator) => simulator,
            Err(e) => return Response::error(e),
        };
        let id = envelope.session;
        // Keep the auto-assign counter ahead of explicitly installed ids so
        // a later plain CreateSession can never collide with a restore.
        self.next_session.fetch_max(id.saturating_add(1), Ordering::Relaxed);
        if replace {
            if let Some(slot) = self.session(id) {
                let mut guard = slot.session.lock();
                guard.simulator = simulator;
                guard.program = envelope.program;
                guard.config = envelope.architecture;
                // New state generation behind the same id: bump the serve
                // epoch so the cached GetState payload (keyed by epoch +
                // cycle) can never be served for the replaced state, and
                // drop the delta base — the client's held snapshot no
                // longer descends from this session's history.
                guard.epoch += 1;
                guard.serve.encoded_key = None;
                guard.serve.delta_base = None;
                // New state generation: whatever checkpoint exists describes
                // the replaced state, so re-checkpoint at the next sweep.
                guard.checkpointed_cycle = None;
                return Response::SessionCreated { session: id };
            }
        }
        let session = Session {
            simulator,
            serve: ServeCache::default(),
            program: envelope.program,
            config: envelope.architecture,
            epoch: 0,
            checkpointed_cycle: None,
        };
        match self.install_session(id, session) {
            Ok(()) => Response::SessionCreated { session: id },
            Err(e) => Response::error(e),
        }
    }

    /// Ids of all live sessions, ascending (drain enumeration).  Takes each
    /// shard's read lock in turn — never the whole store at once.  With a
    /// checkpoint store, spilled sessions are listed too: they answer
    /// requests (via restore-on-demand), so they are live to a client.
    fn list_sessions(&self) -> Response {
        let mut sessions: Vec<u64> = Vec::with_capacity(self.session_count());
        for shard in self.shards.iter() {
            sessions.extend(shard.read().keys().copied());
        }
        if let Some(ckpt) = &self.checkpoints {
            sessions.extend(ckpt.store.scan().iter().map(|e| e.session));
        }
        sessions.sort_unstable();
        sessions.dedup();
        Response::SessionList { sessions }
    }

    fn create_session(
        &self,
        program: &str,
        config: &ArchitectureConfig,
        explicit_id: Option<u64>,
    ) -> Response {
        match Simulator::from_assembly(program, config) {
            Ok(simulator) => {
                let id = match explicit_id {
                    Some(id) => {
                        // Keep the auto-assign counter ahead of explicit
                        // ids so later plain creates can never collide.
                        self.next_session.fetch_max(id.saturating_add(1), Ordering::Relaxed);
                        id
                    }
                    None => self.next_session.fetch_add(1, Ordering::Relaxed),
                };
                let session = Session {
                    simulator,
                    serve: ServeCache::default(),
                    program: program.to_string(),
                    config: config.clone(),
                    epoch: 0,
                    checkpointed_cycle: None,
                };
                match self.install_session(id, session) {
                    Ok(()) => Response::SessionCreated { session: id },
                    Err(e) => Response::error(e),
                }
            }
            Err(e) => Response::error(e),
        }
    }

    /// Insert `session` under `id`, failing (without touching the store)
    /// when the id is taken.  With a checkpoint store, the session is
    /// checkpointed *before* it becomes visible: from its first request on,
    /// a crash can lose at most one checkpoint interval of progress, never
    /// the session itself.
    fn install_session(&self, id: u64, mut session: Session) -> Result<(), String> {
        if self.shards[shard_index(id)].read().contains_key(&id) {
            return Err(format!("session {id} already exists"));
        }
        if let Some(ckpt) = &self.checkpoints {
            if session.checkpointed_cycle != Some(session.simulator.cycle()) {
                // The write happens outside the shard lock (a disk write
                // must not stall lookups); a failed write still installs —
                // the periodic tick retries within one interval.
                let envelope = SessionEnvelope::capture(id, &session.simulator, &session.program);
                if ckpt.store.save(&envelope).is_ok() {
                    session.checkpointed_cycle = Some(envelope.cycle);
                }
            }
        }
        let mut shard = self.shards[shard_index(id)].write();
        if shard.contains_key(&id) {
            return Err(format!("session {id} already exists"));
        }
        let slot = SessionSlot {
            last_touched_ms: AtomicU64::new(self.now_ms()),
            session: Mutex::new(session),
            steps: StepQueue::default(),
        };
        shard.insert(id, Arc::new(slot));
        drop(shard);
        self.session_count.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Execute a `Step` through the session's flat-combining queue.
    ///
    /// The request enqueues a ticket.  If no combiner is active, this thread
    /// becomes it: it takes the session lock and drains the queue in arrival
    /// order — its own ticket and any that pile up while it simulates —
    /// publishing each ticket's cumulative `(cycle, halted)` result.
    /// Otherwise the active combiner will execute the ticket, and this
    /// thread sleeps on the condvar until its response is published.
    ///
    /// Responses and final simulator state are byte-identical to the same
    /// requests arriving strictly sequentially (each ticket observes the
    /// cycle counter after exactly its own cycles on top of its
    /// predecessors'): coalescing changes *which thread* turns the crank,
    /// never what the crank does.
    fn coalesced_step(
        &self,
        session_id: u64,
        slot: &SessionSlot,
        cycles: u64,
        request_id: u64,
    ) -> Response {
        let queue = &slot.steps;
        let ticket = {
            let mut inner = queue.inner.lock();
            if inner.closed {
                // The session was destroyed or evicted between lookup and
                // enqueue: fail like the lookup would have.
                return unknown_session(session_id);
            }
            let id = inner.next_ticket;
            inner.next_ticket += 1;
            inner.pending.push_back(StepTicket { id, cycles });
            if inner.combining {
                let waiters = inner.pending.len() as u64;
                loop {
                    if let Some(response) = inner.finished.remove(&id) {
                        if !response.is_error() {
                            self.coalesced_steps.fetch_add(1, Ordering::Relaxed);
                            self.obs.journal.record(
                                Event::new(EventKind::CoalesceJoin, self.obs.journal.now_us())
                                    .request(request_id)
                                    .session(session_id)
                                    .fields(waiters, cycles),
                            );
                        }
                        return response;
                    }
                    inner = queue.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
            }
            inner.combining = true;
            id
        };
        let mut session = slot.session.lock();
        let mut own_response = None;
        loop {
            let batch: Vec<StepTicket> = {
                let mut inner = queue.inner.lock();
                if inner.pending.is_empty() {
                    // Hand back combiner duty under the queue lock: a ticket
                    // enqueued after this point sees `combining == false`
                    // and combines for itself instead of waiting forever.
                    inner.combining = false;
                    break;
                }
                inner.pending.drain(..).collect()
            };
            let mut published = Vec::new();
            for t in &batch {
                let sim = &mut session.simulator;
                for _ in 0..t.cycles {
                    sim.step();
                }
                let response = Response::Stepped { cycle: sim.cycle(), halted: sim.is_halted() };
                if t.id == ticket {
                    own_response = Some(response);
                } else {
                    published.push((t.id, response));
                }
            }
            if !published.is_empty() {
                let mut inner = queue.inner.lock();
                for (id, response) in published {
                    inner.finished.insert(id, response);
                }
                queue.ready.notify_all();
            }
        }
        // Still holding the session lock: if the batch pushed the session
        // past the dirty-cycle threshold, checkpoint it now instead of
        // letting up to a full interval of progress sit only in memory.
        self.maybe_checkpoint_dirty(session_id, &mut session);
        drop(session);
        match own_response {
            Some(response) => response,
            // A concurrent destroy closed the queue before this combiner
            // drained its batch: the closer already published our ticket's
            // `unknown session` error.
            None => queue
                .inner
                .lock()
                .finished
                .remove(&ticket)
                .unwrap_or_else(|| unknown_session(session_id)),
        }
    }

    fn with_session(&self, id: u64, f: impl FnOnce(&mut Session) -> Response) -> Response {
        match self.session(id) {
            Some(slot) => {
                let mut guard = slot.session.lock();
                let response = f(&mut guard);
                // `Run` can advance far past the dirty threshold in one
                // request; read-only requests fail the cheap cycle check.
                self.maybe_checkpoint_dirty(id, &mut guard);
                response
            }
            None => unknown_session(id),
        }
    }

    /// Checkpoint `session` if it has advanced at least the dirty-cycle
    /// threshold past its last checkpoint.  Called with the session lock
    /// held by the request that did the advancing.
    fn maybe_checkpoint_dirty(&self, id: u64, session: &mut Session) {
        let Some(ckpt) = &self.checkpoints else { return };
        if ckpt.dirty_cycles == 0 {
            return;
        }
        let cycle = session.simulator.cycle();
        let base = session.checkpointed_cycle.unwrap_or(0);
        if cycle.saturating_sub(base) < ckpt.dirty_cycles {
            return;
        }
        let envelope = SessionEnvelope::capture(id, &session.simulator, &session.program);
        if ckpt.store.save(&envelope).is_ok() {
            session.checkpointed_cycle = Some(cycle);
        }
    }

    /// Periodic checkpoint sweep, rate-limited to the configured interval.
    /// The network front end calls this from every housekeeping tick; the
    /// CAS on the tick stamp makes concurrent callers harmless.  Returns
    /// how many sessions were checkpointed (0 off-cadence or when
    /// checkpointing is disabled).
    pub fn checkpoint_tick(&self) -> usize {
        let Some(ckpt) = &self.checkpoints else { return 0 };
        let now = self.now_ms();
        let last = ckpt.last_tick_ms.load(Ordering::Relaxed);
        if now.saturating_sub(last) < ckpt.interval_ms
            || ckpt
                .last_tick_ms
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return 0;
        }
        let sweep_started = Instant::now();
        let written = self.checkpoint_dirty_sessions();
        self.obs.journal.record(
            Event::new(EventKind::CheckpointSweep, self.obs.journal.now_us())
                .fields(written as u64, sweep_started.elapsed().as_micros() as u64),
        );
        written
    }

    /// Checkpoint every resident session whose state has moved since its
    /// last checkpoint.  Sessions whose lock is held (a request is
    /// mid-flight) are skipped — the next sweep, or the request's own
    /// dirty-threshold check, catches them.
    pub fn checkpoint_dirty_sessions(&self) -> usize {
        let Some(ckpt) = &self.checkpoints else { return 0 };
        let mut written = 0;
        for shard in self.shards.iter() {
            let slots: Vec<(u64, Arc<SessionSlot>)> =
                shard.read().iter().map(|(&id, slot)| (id, Arc::clone(slot))).collect();
            for (id, slot) in slots {
                let Some(mut session) = slot.session.try_lock() else { continue };
                let cycle = session.simulator.cycle();
                if session.checkpointed_cycle == Some(cycle) {
                    continue;
                }
                let envelope = SessionEnvelope::capture(id, &session.simulator, &session.program);
                if ckpt.store.save(&envelope).is_ok() {
                    session.checkpointed_cycle = Some(cycle);
                    written += 1;
                }
            }
        }
        written
    }

    /// Every checkpoint in the state directory (session id + age), for the
    /// router's failover recovery and the `/admin/checkpoints` endpoint.
    pub fn checkpoint_entries(&self) -> Vec<CheckpointEntry> {
        self.checkpoints.as_ref().map_or_else(Vec::new, |c| c.store.scan())
    }

    /// Boot-time recovery: restore every checkpointed session that is not
    /// already resident.  Returns how many were restored plus the sessions
    /// that refused to restore (and why).
    pub fn recover_checkpoints(&self) -> (usize, Vec<(u64, String)>) {
        let entries = self.checkpoint_entries();
        let mut recovered = 0;
        let mut failures = Vec::new();
        for entry in entries {
            if self.shards[shard_index(entry.session)].read().contains_key(&entry.session) {
                continue;
            }
            match self.restore_from_disk(entry.session) {
                Ok(_) => recovered += 1,
                Err(e) => failures.push((entry.session, e)),
            }
        }
        (recovered, failures)
    }

    /// Recover specific sessions (the router's failover path, via
    /// `/admin/recover`): each is reported live-as-is, restored from its
    /// checkpoint with the staleness it inherited, or failed with the
    /// reason.
    pub fn recover_sessions(&self, sessions: &[u64]) -> Vec<RecoverOutcome> {
        sessions
            .iter()
            .map(|&id| {
                if let Some(slot) = self.shards[shard_index(id)].read().get(&id).cloned() {
                    let cycle = slot.session.lock().simulator.cycle();
                    return RecoverOutcome {
                        session: id,
                        ok: true,
                        already_live: true,
                        cycle,
                        staleness_ms: 0,
                        error: None,
                    };
                }
                let age = self.checkpoints.as_ref().and_then(|c| c.store.age_of(id));
                match self.restore_from_disk(id) {
                    Ok(slot) => RecoverOutcome {
                        session: id,
                        ok: true,
                        already_live: false,
                        cycle: slot.session.lock().simulator.cycle(),
                        staleness_ms: age.map_or(0, |a| a.as_millis() as u64),
                        error: None,
                    },
                    Err(e) => RecoverOutcome {
                        session: id,
                        ok: false,
                        already_live: false,
                        cycle: 0,
                        staleness_ms: 0,
                        error: Some(e),
                    },
                }
            })
            .collect()
    }

    fn apply_deployment_overhead(&self) {
        match self.config.mode {
            DeploymentMode::Direct => {}
            DeploymentMode::Containerized { request_overhead_us } => {
                // Busy-wait so the overhead consumes CPU like the real
                // proxying / namespace translation does, rather than merely
                // sleeping.
                let start = std::time::Instant::now();
                while start.elapsed().as_micros() < request_overhead_us as u128 {
                    std::hint::spin_loop();
                }
            }
            DeploymentMode::RemoteEmulated { service_time_us } => {
                // Sleep, don't spin: emulated nodes must overlap on a host
                // with fewer cores than nodes.
                std::thread::sleep(Duration::from_micros(service_time_us));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_response;

    const PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 20
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    mv   a0, t0
    ret
";

    fn server() -> SimulationServer {
        SimulationServer::new(DeploymentConfig {
            mode: DeploymentMode::Direct,
            compress_responses: false,
            idle_session_ttl_seconds: None,
        })
    }

    /// Send `request` down the one request path and decode the answer.
    fn call(server: &SimulationServer, request: Request) -> Response {
        let body = serde_json::to_vec(&request).unwrap();
        decode_response(&server.handle_raw(&body)).unwrap()
    }

    /// The `state` payload for `sim`, built without the serve path: serde
    /// of a structured capture, then the one-shot compressor.
    fn reference_state(sim: &Simulator, compress: bool) -> Vec<u8> {
        let response = Response::State(Box::new(ProcessorSnapshot::capture(sim)));
        let json = serde_json::to_vec(&response).unwrap();
        match compress {
            true => [&[1u8][..], &rvsim_compress::compress(&json)].concat(),
            false => [&[0u8][..], &json].concat(),
        }
    }

    fn create(server: &SimulationServer) -> u64 {
        match call(
            server,
            Request::CreateSession {
                program: PROGRAM.into(),
                architecture: None,
                entry: None,
                session: None,
            },
        ) {
            Response::SessionCreated { session } => session,
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn session_lifecycle() {
        let server = server();
        let id = create(&server);
        assert_eq!(server.session_count(), 1);
        let r = call(&server, Request::Step { session: id, cycles: 5 });
        assert_eq!(r, Response::Stepped { cycle: 5, halted: false });
        let r = call(&server, Request::Run { session: id, max_cycles: 100_000 });
        match r {
            Response::Stepped { halted, .. } => assert!(halted),
            other => panic!("unexpected {other:?}"),
        }
        match call(&server, Request::GetStats { session: id }) {
            Response::Stats(stats) => {
                assert!(stats.committed > 20);
                assert!(stats.ipc() > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(call(&server, Request::DestroySession { session: id }), Response::Destroyed);
        assert_eq!(server.session_count(), 0);
        assert!(call(&server, Request::Step { session: id, cycles: 1 }).is_error());
    }

    #[test]
    fn state_snapshot_and_step_back() {
        let server = server();
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 10 });
        let r = call(&server, Request::GetState { session: id });
        match r {
            Response::State(snapshot) => {
                assert_eq!(snapshot.cycle, 10);
                assert_eq!(snapshot.int_registers.len(), 32);
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = call(&server, Request::StepBack { session: id, cycles: 3 });
        assert_eq!(r, Response::Stepped { cycle: 7, halted: false });
    }

    #[test]
    fn step_back_of_any_depth_is_one_bounded_replay() {
        // One reset, not `cycles` of them: rewinding past cycle 0 answers at
        // once instead of pinning a dispatch worker practically forever.
        let server = Arc::new(server());
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 12 });
        let (tx, rx) = std::sync::mpsc::channel();
        let rewinder = Arc::clone(&server);
        let handle = std::thread::spawn(move || {
            let _ = tx.send(call(&rewinder, Request::StepBack { session: id, cycles: u64::MAX }));
        });
        let answer = rx.recv_timeout(Duration::from_secs(5)).expect("StepBack{u64::MAX} hangs");
        assert_eq!(answer, Response::Stepped { cycle: 0, halted: false });
        handle.join().unwrap();

        // k cycles at once land on the bytes of k single steps back.
        let (k, start) = (4, 10);
        let (at_once, one_by_one) = (create(&server), create(&server));
        for session in [at_once, one_by_one] {
            call(&server, Request::Step { session, cycles: start });
        }
        let r = call(&server, Request::StepBack { session: at_once, cycles: k });
        assert_eq!(r, Response::Stepped { cycle: start - k, halted: false });
        for _ in 0..k {
            call(&server, Request::StepBack { session: one_by_one, cycles: 1 });
        }
        let state = |session| {
            let get_state = serde_json::to_vec(&Request::GetState { session }).unwrap();
            server.handle_raw(&get_state)
        };
        assert_eq!(state(at_once), state(one_by_one));
    }

    #[test]
    fn every_request_is_timed_under_its_own_endpoint_label() {
        let server = server();
        let id = create(&server);
        let envelope =
            match call(&server, Request::SerializeSession { session: id, destroy: false }) {
                Response::Serialized(envelope) => envelope,
                other => panic!("unexpected {other:?}"),
            };
        for request in [
            Request::Compile { source: "int main(void) { return 0; }".into(), optimization: 0 },
            Request::Step { session: id, cycles: 2 },
            Request::StepBack { session: id, cycles: 1 },
            Request::Run { session: id, max_cycles: 10 },
            Request::GetStats { session: id },
            Request::RestoreSession { envelope, replace: true },
            Request::ListSessions,
            Request::DestroySession { session: id },
        ] {
            call(&server, request);
        }
        server.handle_raw(b"{not json");
        // The sampled fast paths share one tick counter: tick 0 (the
        // GetState) and tick 16 (the last delta) are timed, each standing
        // in for 16 requests.
        call(&server, Request::GetState { session: id });
        for _ in 0..RAW_SAMPLE {
            call(&server, Request::GetStateDelta { session: id, since_cycle: 0 });
        }
        for (label, snapshot) in server.endpoint_latency() {
            let expected = if label.starts_with("get_state") { RAW_SAMPLE } else { 1 };
            assert_eq!(snapshot.count(), expected, "{label}");
        }
    }

    #[test]
    fn create_session_with_bad_program_reports_error() {
        let server = server();
        let r = call(
            &server,
            Request::CreateSession {
                program: "main:\n  bogus a0, a1\n".into(),
                architecture: None,
                entry: None,
                session: None,
            },
        );
        assert!(r.is_error());
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn compile_request_round_trips_through_assembler() {
        let server = server();
        let r = call(
            &server,
            Request::Compile {
                source:
                    "int main(void) { int s = 0; for (int i = 0; i < 5; i++) s += i; return s; }"
                        .into(),
                optimization: 2,
            },
        );
        match r {
            Response::Compiled { assembly, line_map } => {
                assert!(assembly.contains("main:"));
                assert!(!line_map.is_empty());
                // The compiled assembly must itself create a valid session.
                let r2 = call(
                    &server,
                    Request::CreateSession {
                        program: assembly,
                        architecture: None,
                        entry: None,
                        session: None,
                    },
                );
                assert!(matches!(r2, Response::SessionCreated { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = call(
            &server,
            Request::Compile { source: "int main(void) { return 1 + ; }".into(), optimization: 0 },
        );
        assert!(r.is_error());
    }

    #[test]
    fn raw_payload_round_trip_with_and_without_compression() {
        for compress in [false, true] {
            let server = SimulationServer::new(DeploymentConfig {
                mode: DeploymentMode::Direct,
                compress_responses: compress,
                idle_session_ttl_seconds: None,
            });
            let id = create(&server);
            let request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
            let payload = server.handle_raw(&request);
            assert_eq!(payload[0], compress as u8);
            let response = decode_response(&payload).unwrap();
            assert!(matches!(response, Response::State(_)));
        }
    }

    #[test]
    fn malformed_raw_request_is_an_error_response() {
        let server = server();
        let payload = server.handle_raw(b"{not json");
        let response = decode_response(&payload).unwrap();
        assert!(response.is_error());
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[9, 1, 2]).is_err());
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| [vec![b'['; depth], vec![b']'; depth]].concat();
        // A parser that recursed once per `[` would overflow std's default
        // 2 MiB thread stack long before 100,000 levels and abort the whole
        // process, not just fail this request.
        let body = nested(100_000);
        let answered = std::thread::spawn(move || {
            assert!(serde_json::from_slice::<serde_json::Value>(&body).is_err());
            decode_response(&server().handle_raw(&body)).unwrap()
        })
        .join()
        .expect("the parsing thread survives");
        assert!(answered.is_error(), "{answered:?}");
        assert!(serde_json::from_slice::<serde_json::Value>(&nested(128)).is_ok());
        assert!(serde_json::from_slice::<serde_json::Value>(&nested(129)).is_err());
    }

    #[test]
    fn a_long_request_string_decodes_in_one_pass() {
        // Decoding a string must not re-scan the rest of the body per
        // character: that is quadratic, about 20 s of CPU for this 1 MiB
        // program and minutes at the front end's 4 MiB body limit.
        let program = "a".repeat(1 << 20);
        let body = format!(r#"{{"type":"create_session","program":"{program}"}}"#);
        let (done, decoded) = std::sync::mpsc::channel();
        let decoder = std::thread::spawn(move || {
            let _ =
                done.send(serde_json::from_str::<Request>(&body).map(|request| match request {
                    Request::CreateSession { program, .. } => program.len(),
                    other => panic!("unexpected {other:?}"),
                }));
        });
        let decoded = decoded.recv_timeout(std::time::Duration::from_secs(5));
        assert_eq!(decoded.expect("decodes within 5 s").unwrap(), 1 << 20);
        decoder.join().expect("the decoding thread finishes");
    }

    #[test]
    fn containerized_mode_is_slower_per_request() {
        let direct = server();
        let container = SimulationServer::new(DeploymentConfig {
            mode: DeploymentMode::Containerized { request_overhead_us: 200 },
            compress_responses: false,
            idle_session_ttl_seconds: None,
        });
        let id_d = create(&direct);
        let id_c = create(&container);
        let time = |s: &SimulationServer, id: u64| {
            let start = std::time::Instant::now();
            for _ in 0..20 {
                call(s, Request::Step { session: id, cycles: 1 });
            }
            start.elapsed()
        };
        let t_direct = time(&direct, id_d);
        let t_container = time(&container, id_c);
        assert!(
            t_container > t_direct,
            "containerized ({t_container:?}) must be slower than direct ({t_direct:?})"
        );
    }

    #[test]
    fn raw_get_state_is_byte_identical_to_generic_encode_across_run() {
        // The serve path (direct render + cached payload) must be
        // indistinguishable on the wire from serde of a structured capture
        // of a simulator stepped in lockstep, from the fresh session through
        // mid-run to the halted state, both with and without compression.
        for compress in [false, true] {
            let server = SimulationServer::new(DeploymentConfig {
                mode: DeploymentMode::Direct,
                compress_responses: compress,
                idle_session_ttl_seconds: None,
            });
            let id = create(&server);
            let mut sim =
                Simulator::from_assembly(PROGRAM, &ArchitectureConfig::default()).unwrap();
            let raw_request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
            loop {
                let served = server.handle_raw(&raw_request);
                assert_eq!(
                    served,
                    reference_state(&sim, compress),
                    "served payload differs from the reference at cycle {} (compress={compress})",
                    sim.cycle()
                );
                if sim.is_halted() {
                    break;
                }
                sim.step();
                let stepped = call(&server, Request::Step { session: id, cycles: 1 });
                assert_eq!(
                    stepped,
                    Response::Stepped { cycle: sim.cycle(), halted: sim.is_halted() }
                );
            }
        }
    }

    #[test]
    fn unchanged_cycle_returns_cached_payload() {
        let server = server();
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 5 });
        let raw_request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
        let first = server.handle_raw(&raw_request);
        let second = server.handle_raw(&raw_request);
        assert_eq!(first, second, "same cycle must serve identical bytes");
        call(&server, Request::Step { session: id, cycles: 1 });
        let third = server.handle_raw(&raw_request);
        assert_ne!(first, third, "advancing the cycle must refresh the payload");
        // Stepping back to an earlier cycle re-renders deterministically.
        call(&server, Request::StepBack { session: id, cycles: 1 });
        let fourth = server.handle_raw(&raw_request);
        assert_eq!(first, fourth, "deterministic replay must reproduce the payload");
    }

    #[test]
    fn delta_protocol_reconstructs_full_snapshots() {
        let server = server();
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 3 });

        // First delta request has no base: full snapshot fallback.
        let base =
            match call(&server, Request::GetStateDelta { session: id, since_cycle: u64::MAX }) {
                Response::State(snapshot) => *snapshot,
                other => panic!("expected full fallback, got {other:?}"),
            };

        // From here on, every step yields a real delta that reconstructs the
        // exact capture.
        let mut held = base;
        for _ in 0..10 {
            call(&server, Request::Step { session: id, cycles: 1 });
            let response =
                call(&server, Request::GetStateDelta { session: id, since_cycle: held.cycle });
            match response {
                Response::StateDelta(delta) => {
                    assert_eq!(delta.since_cycle, held.cycle);
                    held = delta.apply_to(&held).expect("delta applies");
                }
                other => panic!("expected a delta, got {other:?}"),
            }
            let full = match call(&server, Request::GetState { session: id }) {
                Response::State(snapshot) => *snapshot,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(held, full, "reconstructed snapshot must equal the full capture");
        }

        // A stale base (client fell behind) falls back to a full snapshot.
        call(&server, Request::Step { session: id, cycles: 2 });
        let response = call(&server, Request::GetStateDelta { session: id, since_cycle: 1 });
        assert!(matches!(response, Response::State(_)), "stale base must fall back");
    }

    #[test]
    fn delta_for_unknown_session_is_an_error() {
        let server = server();
        let r = call(&server, Request::GetStateDelta { session: 99, since_cycle: 0 });
        assert!(r.is_error());
    }

    #[test]
    fn compression_shrinks_state_payloads() {
        let compressed_server = SimulationServer::new(DeploymentConfig {
            mode: DeploymentMode::Direct,
            compress_responses: true,
            idle_session_ttl_seconds: None,
        });
        let plain_server = server();
        let id_c = create(&compressed_server);
        let id_p = create(&plain_server);
        call(&compressed_server, Request::Step { session: id_c, cycles: 5 });
        call(&plain_server, Request::Step { session: id_p, cycles: 5 });
        let req_c = serde_json::to_vec(&Request::GetState { session: id_c }).unwrap();
        let req_p = serde_json::to_vec(&Request::GetState { session: id_p }).unwrap();
        let compressed = compressed_server.handle_raw(&req_c);
        let plain = plain_server.handle_raw(&req_p);
        assert!(
            compressed.len() < plain.len() / 2,
            "state snapshot should compress to less than half ({} vs {})",
            compressed.len(),
            plain.len()
        );
    }

    #[test]
    fn cached_get_state_is_served_zero_copy() {
        // Repeated `GetState` at an unchanged cycle must hand out the SAME
        // buffer (pointer identity), not an equal copy: the cached payload
        // is a shared `Bytes` handle and serving it is a reference bump.
        for compress in [false, true] {
            let server = SimulationServer::new(DeploymentConfig {
                mode: DeploymentMode::Direct,
                compress_responses: compress,
                idle_session_ttl_seconds: None,
            });
            let id = create(&server);
            call(&server, Request::Step { session: id, cycles: 7 });
            let request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
            let first = server.handle_raw(&request);
            let second = server.handle_raw(&request);
            let third = server.handle_raw(&request);
            assert_eq!(
                first.as_ptr(),
                second.as_ptr(),
                "same-cycle GetState must serve the identical buffer (compress={compress})"
            );
            assert_eq!(second.as_ptr(), third.as_ptr());
            // Advancing the cycle refreshes the payload; dropping our handles
            // first lets the refresh reclaim the very same allocation, but
            // either way the bytes change.
            call(&server, Request::Step { session: id, cycles: 1 });
            drop((first, second));
            let fourth = server.handle_raw(&request);
            assert_ne!(&third[..], &fourth[..], "new cycle must re-render");
        }
    }

    #[test]
    fn payload_buffer_is_reclaimed_once_clients_drop_their_handles() {
        let server = server();
        let id = create(&server);
        let request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
        let payload = server.handle_raw(&request);
        // Two live handles (ours + the cache): not reclaimable.
        assert!(payload.clone().try_into_vec().is_err());
        // The cache's handle is the only survivor after a refresh renders a
        // new payload; our dropped clone lets try_into_vec succeed then.
        let solo = Bytes::from(payload.to_vec());
        assert!(solo.try_into_vec().is_ok());
    }

    #[test]
    fn idle_sessions_are_evicted_after_ttl() {
        let server = SimulationServer::new(DeploymentConfig {
            mode: DeploymentMode::Direct,
            compress_responses: false,
            idle_session_ttl_seconds: Some(3600),
        });
        let stale = create(&server);
        let fresh = create(&server);
        assert_eq!(server.session_count(), 2);

        // Nothing is an hour old: the configured sweep keeps both.
        assert_eq!(server.evict_idle(), 0);
        assert_eq!(server.session_count(), 2);

        // Age both sessions past an explicit 1-hour TTL on the virtual
        // clock, then touch the fresh one: only the untouched session is
        // older than the cutoff.
        server.advance_clock(2 * 3600 * 1000);
        call(&server, Request::Step { session: fresh, cycles: 1 });
        let evicted = server.evict_idle_older_than(Duration::from_secs(3600));
        assert_eq!(evicted, 1, "exactly the untouched session is swept");
        assert_eq!(server.session_count(), 1);
        assert_eq!(server.evicted_session_count(), 1);
        assert!(call(&server, Request::Step { session: stale, cycles: 1 }).is_error());
        assert!(!call(&server, Request::Step { session: fresh, cycles: 1 }).is_error());

        // A zero TTL sweeps everything that is not mid-request.
        assert_eq!(server.evict_idle_older_than(Duration::ZERO), 1);
        assert_eq!(server.session_count(), 0);
        assert_eq!(server.evicted_session_count(), 2);
    }

    #[test]
    fn session_count_stays_consistent_under_concurrent_create_and_destroy() {
        // The count is shard-aware bookkeeping (one atomic), so concurrent
        // creates/destroys across shards must never lose or double-count.
        let server = Arc::new(server());
        let mut threads = Vec::new();
        for _ in 0..8 {
            let server = Arc::clone(&server);
            threads.push(std::thread::spawn(move || {
                let mut kept = 0usize;
                for round in 0..20 {
                    let id = match call(
                        &server,
                        Request::CreateSession {
                            program: PROGRAM.into(),
                            architecture: None,
                            entry: None,
                            session: None,
                        },
                    ) {
                        Response::SessionCreated { session } => session,
                        other => panic!("unexpected {other:?}"),
                    };
                    if round % 2 == 0 {
                        assert_eq!(
                            call(&server, Request::DestroySession { session: id }),
                            Response::Destroyed
                        );
                    } else {
                        kept += 1;
                    }
                }
                kept
            }));
        }
        let kept: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(server.session_count(), kept);
        // Destroying a session twice fails the second time and does not
        // corrupt the count.
        let id = create(&server);
        assert_eq!(call(&server, Request::DestroySession { session: id }), Response::Destroyed);
        assert!(call(&server, Request::DestroySession { session: id }).is_error());
        assert_eq!(server.session_count(), kept);
    }

    #[test]
    fn sequential_steps_never_count_as_coalesced() {
        let server = server();
        let id = create(&server);
        for i in 1..=10u64 {
            let r = call(&server, Request::Step { session: id, cycles: 1 });
            assert_eq!(r, Response::Stepped { cycle: i, halted: false });
        }
        assert_eq!(server.coalesced_step_count(), 0, "no concurrency, no coalescing");
    }

    #[test]
    fn concurrent_steps_coalesce_to_the_sequential_result() {
        // N threads hammer one session with Step requests.  Whatever the
        // interleaving, the combiner must (a) account for every requested
        // cycle exactly once, (b) give each request a cumulative result as
        // if it ran alone in its arrival slot, and (c) leave the session in
        // a state byte-identical to the same total stepped sequentially.
        const THREADS: usize = 8;
        const STEPS_PER_THREAD: u64 = 5;
        const CYCLES_PER_STEP: u64 = 3;
        // A loop long enough that the simulator never halts inside the
        // test's cycle budget (a halted simulator stops advancing the cycle
        // counter, which would collapse the cumulative lattice).
        const LONG_PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 1000000
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    mv   a0, t0
    ret
";
        let create_long = |server: &SimulationServer| -> u64 {
            match call(
                server,
                Request::CreateSession {
                    program: LONG_PROGRAM.into(),
                    architecture: None,
                    entry: None,
                    session: None,
                },
            ) {
                Response::SessionCreated { session } => session,
                other => panic!("unexpected response {other:?}"),
            }
        };

        let concurrent = Arc::new(server());
        let id = create_long(&concurrent);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let mut threads = Vec::new();
        for _ in 0..THREADS {
            let server = Arc::clone(&concurrent);
            let barrier = Arc::clone(&barrier);
            threads.push(std::thread::spawn(move || {
                barrier.wait();
                let mut cycles_seen = Vec::new();
                for _ in 0..STEPS_PER_THREAD {
                    match call(&server, Request::Step { session: id, cycles: CYCLES_PER_STEP }) {
                        Response::Stepped { cycle, .. } => cycles_seen.push(cycle),
                        other => panic!("unexpected {other:?}"),
                    }
                }
                cycles_seen
            }));
        }
        let mut all_cycles: Vec<u64> =
            threads.into_iter().flat_map(|t| t.join().unwrap()).collect();

        let total = THREADS as u64 * STEPS_PER_THREAD * CYCLES_PER_STEP;
        // (b): every response sits on the cumulative lattice and no two
        // requests observe the same cycle — each got its own exclusive slot.
        all_cycles.sort_unstable();
        let expected: Vec<u64> =
            (1..=THREADS as u64 * STEPS_PER_THREAD).map(|i| i * CYCLES_PER_STEP).collect();
        assert_eq!(all_cycles, expected, "responses must be the sequential prefix sums");

        // (a) + (c): final state equals a sequential run of the same total.
        let sequential = server();
        let id_seq = create_long(&sequential);
        call(&sequential, Request::Step { session: id_seq, cycles: total });
        let raw_conc = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
        let raw_seq = serde_json::to_vec(&Request::GetState { session: id_seq }).unwrap();
        let conc_payload = concurrent.handle_raw(&raw_conc);
        let seq_payload = sequential.handle_raw(&raw_seq);
        // Payloads embed the session-independent state only, so they must
        // match byte for byte.
        assert_eq!(
            conc_payload, seq_payload,
            "coalesced execution must leave byte-identical state"
        );
        // The coalescing counter never exceeds the requests that could have
        // been combined (everything but the combiner passes themselves).
        assert!(concurrent.coalesced_step_count() <= (THREADS as u64 * STEPS_PER_THREAD));
    }

    #[test]
    fn shared_state_serves_are_counted_on_cache_hits() {
        let server = server();
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 4 });
        let request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
        assert_eq!(server.shared_state_serve_count(), 0);
        let _first = server.handle_raw(&request); // renders + caches
        assert_eq!(server.shared_state_serve_count(), 0);
        let _second = server.handle_raw(&request); // cache hit
        let _third = server.handle_raw(&request); // cache hit
        assert_eq!(server.shared_state_serve_count(), 2);
        call(&server, Request::Step { session: id, cycles: 1 });
        let _fourth = server.handle_raw(&request); // cycle moved: re-render
        assert_eq!(server.shared_state_serve_count(), 2);
    }

    #[test]
    fn serialize_restore_round_trips_a_live_session() {
        let server = server();
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 7 });
        let raw_request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
        let before = server.handle_raw(&raw_request).to_vec();

        // Serialize-with-destroy vacates the session atomically.
        let envelope = match call(&server, Request::SerializeSession { session: id, destroy: true })
        {
            Response::Serialized(envelope) => envelope,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(envelope.cycle, 7);
        assert_eq!(server.session_count(), 0);
        assert!(call(&server, Request::Step { session: id, cycles: 1 }).is_error());

        // Restore reinstalls under the original id with identical state.
        let r = call(&server, Request::RestoreSession { envelope, replace: false });
        assert_eq!(r, Response::SessionCreated { session: id });
        let after = server.handle_raw(&raw_request).to_vec();
        assert_eq!(before, after, "restored session must serve identical state bytes");
        let r = call(&server, Request::Step { session: id, cycles: 1 });
        assert_eq!(r, Response::Stepped { cycle: 8, halted: false });
    }

    #[test]
    fn restore_to_same_cycle_invalidates_the_serve_cache() {
        // Regression: the serve cache used to be keyed by cycle alone, so a
        // session replaced by *different* state at the same cycle served the
        // previous state's cached payload.
        const OTHER_PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 77
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    mv   a0, t0
    ret
";
        let server = server();
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 5 });
        let raw_request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
        let cached = server.handle_raw(&raw_request).to_vec();

        // Build an envelope of a *different* program at the same cycle and
        // install it in place under the same id.
        let other = create_with(&server, OTHER_PROGRAM);
        call(&server, Request::Step { session: other, cycles: 5 });
        let mut envelope =
            match call(&server, Request::SerializeSession { session: other, destroy: true }) {
                Response::Serialized(envelope) => envelope,
                other => panic!("unexpected {other:?}"),
            };
        envelope.session = id;
        let r = call(&server, Request::RestoreSession { envelope, replace: true });
        assert_eq!(r, Response::SessionCreated { session: id });

        let fresh = server.handle_raw(&raw_request).to_vec();
        assert_ne!(cached, fresh, "replaced state at the same cycle must re-render");
        // And the fresh payload is the new state's.
        let mut sim =
            Simulator::from_assembly(OTHER_PROGRAM, &ArchitectureConfig::default()).unwrap();
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(fresh, reference_state(&sim, false));
    }

    fn create_with(server: &SimulationServer, program: &str) -> u64 {
        match call(
            server,
            Request::CreateSession {
                program: program.into(),
                architecture: None,
                entry: None,
                session: None,
            },
        ) {
            Response::SessionCreated { session } => session,
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn explicit_session_ids_are_honored_and_collisions_fail() {
        let server = server();
        let r = call(
            &server,
            Request::CreateSession {
                program: PROGRAM.into(),
                architecture: None,
                entry: None,
                session: Some(1000),
            },
        );
        assert_eq!(r, Response::SessionCreated { session: 1000 });
        let r = call(
            &server,
            Request::CreateSession {
                program: PROGRAM.into(),
                architecture: None,
                entry: None,
                session: Some(1000),
            },
        );
        assert!(r.is_error(), "duplicate explicit id must fail");
        assert_eq!(server.session_count(), 1);
        // The auto-assign counter was pushed past the explicit id.
        let auto = create(&server);
        assert!(auto > 1000, "auto id {auto} must not collide with explicit ids");
        match call(&server, Request::ListSessions) {
            Response::SessionList { sessions } => assert_eq!(sessions, vec![1000, auto]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn eviction_skips_sessions_with_queued_step_work() {
        let server = SimulationServer::new(DeploymentConfig {
            mode: DeploymentMode::Direct,
            compress_responses: false,
            idle_session_ttl_seconds: Some(1),
        });
        let id = create(&server);
        let slot = server.session(id).unwrap();
        // Simulate a Step mid-coalescing: a ticket is queued and a combiner
        // is (about to be) active.  The session lock itself is free — which
        // is exactly the window the old sweep evicted in.
        {
            let mut inner = slot.steps.inner.lock();
            inner.pending.push_back(StepTicket { id: 0, cycles: 1 });
            inner.combining = true;
        }
        server.advance_clock(10_000);
        assert_eq!(
            server.evict_idle_older_than(Duration::ZERO),
            0,
            "a session with queued step work must not be evicted"
        );
        assert_eq!(server.session_count(), 1);
        // Once the queue is quiet the sweep takes it.
        {
            let mut inner = slot.steps.inner.lock();
            inner.pending.clear();
            inner.combining = false;
        }
        assert_eq!(server.evict_idle_older_than(Duration::ZERO), 1);
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn destroy_wakes_queued_step_waiters_with_an_error() {
        // Regression: a Step waiting on the coalescing condvar while the
        // session is destroyed used to sleep forever (nobody combined its
        // ticket).  The destroy must fail the queued ticket and wake it.
        let server = Arc::new(server());
        let id = create(&server);
        let slot = server.session(id).unwrap();
        // Pose as an active combiner so the spawned Step becomes a waiter.
        slot.steps.inner.lock().combining = true;

        let waiter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || call(&server, Request::Step { session: id, cycles: 1 }))
        };
        // Give the waiter time to enqueue and block on the condvar.
        while slot.steps.inner.lock().pending.is_empty() {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));

        assert_eq!(call(&server, Request::DestroySession { session: id }), Response::Destroyed);
        let response = waiter.join().unwrap();
        assert!(response.is_error(), "queued waiter must fail, got {response:?}");

        // And a Step racing in *after* the close errors instead of stepping
        // the removed simulator.
        let late = server.coalesced_step(id, &slot, 1, 0);
        assert!(late.is_error(), "post-close Step must fail, got {late:?}");
    }

    #[test]
    fn remote_emulated_mode_sleeps_per_request() {
        let server = SimulationServer::new(DeploymentConfig {
            mode: DeploymentMode::RemoteEmulated { service_time_us: 2_000 },
            compress_responses: false,
            idle_session_ttl_seconds: None,
        });
        let id = create(&server);
        let start = std::time::Instant::now();
        for _ in 0..5 {
            call(&server, Request::Step { session: id, cycles: 1 });
        }
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "5 requests at 2ms emulated service time took {:?}",
            start.elapsed()
        );
    }

    use crate::checkpoint::CheckpointFault;
    use std::path::PathBuf;

    fn temp_state_dir() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rvsim-server-ckpt-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn server_with_checkpoints(dir: &std::path::Path, dirty_cycles: u64) -> SimulationServer {
        SimulationServer::with_checkpoints(
            DeploymentConfig {
                mode: DeploymentMode::Direct,
                compress_responses: false,
                idle_session_ttl_seconds: Some(3600),
            },
            CheckpointConfig { state_dir: dir.into(), interval: Duration::ZERO, dirty_cycles },
        )
        .expect("state dir opens")
    }

    #[test]
    fn eviction_spills_to_disk_and_the_session_restores_on_demand() {
        let dir = temp_state_dir();
        let server = server_with_checkpoints(&dir, 0);
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 7 });
        let raw_request = serde_json::to_vec(&Request::GetState { session: id }).unwrap();
        let before = server.handle_raw(&raw_request).to_vec();

        server.advance_clock(10_000);
        assert_eq!(server.evict_idle_older_than(Duration::ZERO), 1);
        assert_eq!(server.session_count(), 0, "the session left memory");
        assert_eq!(server.spilled_session_count(), 1);
        assert!(server.checkpoint_store().unwrap().contains(id), "…but not the disk");

        // Next touch restores it transparently, byte-identically.
        let after = server.handle_raw(&raw_request).to_vec();
        assert_eq!(before, after, "restored session must serve identical state bytes");
        assert_eq!(server.session_count(), 1);
        assert_eq!(server.restored_session_count(), 1);
        // And a spilled session still shows up in the session listing.
        server.advance_clock(10_000);
        server.evict_idle_older_than(Duration::ZERO);
        match call(&server, Request::ListSessions) {
            Response::SessionList { sessions } => assert_eq!(sessions, vec![id]),
            other => panic!("unexpected {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn destroy_removes_the_checkpoint_too() {
        let dir = temp_state_dir();
        let server = server_with_checkpoints(&dir, 0);
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 3 });
        assert!(server.checkpoint_dirty_sessions() >= 1);
        assert!(server.checkpoint_store().unwrap().contains(id));
        assert_eq!(call(&server, Request::DestroySession { session: id }), Response::Destroyed);
        assert!(!server.checkpoint_store().unwrap().contains(id), "destroy must not resurrect");
        assert!(call(&server, Request::Step { session: id, cycles: 1 }).is_error());
        // Destroying a session that only exists on disk also works.
        let spilled = create(&server);
        server.advance_clock(10_000);
        assert_eq!(server.evict_idle_older_than(Duration::ZERO), 1);
        assert_eq!(
            call(&server, Request::DestroySession { session: spilled }),
            Response::Destroyed
        );
        assert!(call(&server, Request::GetState { session: spilled }).is_error());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_recovery_reowns_checkpointed_sessions() {
        let dir = temp_state_dir();
        let first = server_with_checkpoints(&dir, 0);
        let a = create(&first);
        let b = create(&first);
        call(&first, Request::Step { session: a, cycles: 5 });
        call(&first, Request::Step { session: b, cycles: 9 });
        assert_eq!(first.checkpoint_dirty_sessions(), 2);
        drop(first); // the crash

        let second = server_with_checkpoints(&dir, 0);
        let (recovered, failures) = second.recover_checkpoints();
        assert_eq!(recovered, 2);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(second.session_count(), 2);
        assert_eq!(
            call(&second, Request::Step { session: a, cycles: 1 }),
            Response::Stepped { cycle: 6, halted: false }
        );
        assert_eq!(
            call(&second, Request::Step { session: b, cycles: 1 }),
            Response::Stepped { cycle: 10, halted: false }
        );
        // Fresh creates on the recovered server never collide with
        // recovered ids.
        let fresh = create(&second);
        assert!(fresh > b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_cycle_threshold_checkpoints_mid_interval() {
        // A loop far longer than the test's cycle budget: the simulator
        // must never halt, so every Step/Run advances the full request.
        const LONG_PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 1000000
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    mv   a0, t0
    ret
";
        let dir = temp_state_dir();
        let server = server_with_checkpoints(&dir, 10);
        let id = create_with(&server, LONG_PROGRAM);
        let store = server.checkpoint_store().unwrap();
        let installed = store.write_count();
        // 9 cycles past the install checkpoint: under the threshold.
        call(&server, Request::Step { session: id, cycles: 9 });
        assert_eq!(store.write_count(), installed);
        // The 10th crosses it — the request itself writes the checkpoint.
        call(&server, Request::Step { session: id, cycles: 1 });
        assert_eq!(store.write_count(), installed + 1);
        assert_eq!(store.load(id).unwrap().0.cycle, 10);
        // Run advances through with_session and checkpoints the same way.
        call(&server, Request::Run { session: id, max_cycles: 25 });
        assert_eq!(store.write_count(), installed + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_spill_keeps_the_session_resident() {
        let dir = temp_state_dir();
        let server = server_with_checkpoints(&dir, 0);
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 4 });
        server.checkpoint_store().unwrap().inject_fault(CheckpointFault::NoSpace, 1);
        server.advance_clock(10_000);
        assert_eq!(
            server.evict_idle_older_than(Duration::ZERO),
            0,
            "a session whose spill failed must stay resident"
        );
        assert_eq!(server.session_count(), 1);
        assert!(!call(&server, Request::Step { session: id, cycles: 1 }).is_error());
        // With the fault disarmed, the next sweep spills it normally.
        server.advance_clock(10_000);
        assert_eq!(server.evict_idle_older_than(Duration::ZERO), 1);
        assert_eq!(server.session_count(), 0);
        assert!(server.checkpoint_store().unwrap().contains(id));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_sessions_reports_live_restored_and_missing() {
        let dir = temp_state_dir();
        let server = server_with_checkpoints(&dir, 0);
        let live = create(&server);
        call(&server, Request::Step { session: live, cycles: 2 });
        let spilled = create(&server);
        call(&server, Request::Step { session: spilled, cycles: 6 });
        server.advance_clock(10_000);
        call(&server, Request::Step { session: live, cycles: 1 }); // re-touch
        assert_eq!(server.evict_idle_older_than(Duration::from_secs(5)), 1);

        let outcomes = server.recover_sessions(&[live, spilled, 424242]);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].ok && outcomes[0].already_live);
        assert_eq!(outcomes[0].cycle, 3);
        assert!(outcomes[1].ok && !outcomes[1].already_live);
        assert_eq!(outcomes[1].cycle, 6);
        assert!(!outcomes[2].ok);
        assert!(outcomes[2].error.as_deref().unwrap().contains("no checkpoint"));
        assert_eq!(server.session_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_tick_respects_the_interval() {
        let dir = temp_state_dir();
        let server = SimulationServer::with_checkpoints(
            DeploymentConfig::default(),
            CheckpointConfig {
                state_dir: dir.clone(),
                interval: Duration::from_secs(3600),
                dirty_cycles: 0,
            },
        )
        .unwrap();
        let id = create(&server);
        call(&server, Request::Step { session: id, cycles: 2 });
        assert_eq!(server.checkpoint_tick(), 0, "inside the first interval: no sweep");
        server.advance_clock(3600 * 1000 + 1);
        assert_eq!(server.checkpoint_tick(), 1, "past the interval: the sweep runs");
        call(&server, Request::Step { session: id, cycles: 2 });
        assert_eq!(server.checkpoint_tick(), 0, "gate re-arms after a sweep");
        server.advance_clock(3600 * 1000 + 1);
        assert_eq!(server.checkpoint_tick(), 1);
        assert_eq!(server.checkpoint_store().unwrap().load(id).unwrap().0.cycle, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_ids_spread_across_shards() {
        let mut used = std::collections::HashSet::new();
        for id in 1..=64u64 {
            used.insert(shard_index(id));
        }
        assert!(used.len() > SESSION_SHARDS / 2, "ids clump into {} shards", used.len());
        assert!(used.iter().all(|&s| s < SESSION_SHARDS));
    }
}
