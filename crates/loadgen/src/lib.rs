//! # rvsim-loadgen — the load generator
//!
//! One function, [`run`], produces every client-side load of the repository,
//! from the paper's Apache JMeter test (§IV-A, Table I) to a 10k-connection
//! sweep.  A [`Load`] is `connections` keep-alive connections, a [`Pacing`]
//! (closed loop, or a fixed aggregate rate) and a [`Mix`] of requests (the
//! Table I [`Scenario`], or cached `GetState` or `Step` over warmed
//! sessions).  All connections share the calling thread and one epoll
//! instance, so a connection costs a file descriptor, not a thread.
//!
//! Each request is timed from its first byte sent to the last byte of its
//! answer; only the small answers the Table I script needs (`SessionCreated`,
//! `Stepped`) are decoded.  A request fails on a non-200 status, an in-band
//! error payload, a lost connection, no answer within [`READ_TIMEOUT`], or a
//! refused (re)connect.  A connection the peer closes is reopened when its
//! next request is due, so a dead front end keeps producing errors.
//!
//! `Scenario::time_scale` shrinks the paper's ramp-up and think time so the
//! same script runs in seconds: the shape of the results (queueing at high
//! user counts, Docker overhead, compression benefit) comes from the
//! per-request work and the server's dispatch workers, not the think time.

#![warn(missing_docs)]

use polling::{Events, Interest, Poller};
use rvsim_net::client::READ_TIMEOUT;
use rvsim_server::{decode_response, is_error_payload, Request, Response};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Longest the event loop sleeps, so the end of the run and the timeout
/// scan are never late by more than this.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// How often in-flight requests are checked against [`READ_TIMEOUT`].
const EXPIRY_SCAN: Duration = Duration::from_secs(1);

/// The Table I user script (the JMeter test plan): create a session, then
/// `steps_per_user` times step one cycle and fetch the state, thinking after
/// each fetch, then destroy the session.  A user whose create fails stops.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Interactive simulation steps each user performs.
    pub steps_per_user: usize,
    /// Programs users load (user `i` loads `programs[i % programs.len()]`).
    pub programs: Vec<String>,
    /// Scale factor applied to the paper's 4 s ramp-up and 1 s think time
    /// (1.0 = paper timing).
    pub time_scale: f64,
    /// Use the delta protocol for state fetches: after the first snapshot,
    /// ask for `GetStateDelta` against the last fetched cycle instead of the
    /// full state (the bandwidth-saving client behaviour).
    pub delta_state: bool,
}

impl Scenario {
    /// The paper's script: 40 steps per user, 4 s ramp-up, 1 s think time,
    /// two sample programs.
    pub fn paper() -> Self {
        Scenario {
            steps_per_user: 40,
            programs: vec![sample_program_loop(), sample_program_memory()],
            time_scale: 1.0,
            delta_state: false,
        }
    }

    /// The paper's script compressed in time by `scale` (e.g. `0.01`).
    pub fn paper_scaled(scale: f64) -> Self {
        Scenario { time_scale: scale, ..Self::paper() }
    }

    /// The Table I load: `users` closed-loop connections, each running this
    /// script once.
    pub fn load(&self, users: usize) -> Load {
        Load {
            connections: users,
            pacing: Pacing::ClosedLoop,
            mix: Mix::Scenario(self.clone()),
            duration: Duration::MAX,
        }
    }

    /// The paper's 4 s ramp-up, scaled: users start evenly spread over it.
    fn ramp_up(&self) -> Duration {
        Duration::from_secs_f64((4.0 * self.time_scale).max(0.0))
    }

    /// The paper's 1 s think time after each state fetch, scaled.
    fn think_time(&self) -> Duration {
        Duration::from_secs_f64(self.time_scale.max(0.0))
    }

    /// Request `k` of `user`'s script, or `None` past its end or once its
    /// create failed.
    fn request(&self, user: usize, k: usize, conn: &Conn) -> Option<Request> {
        if k == 0 {
            let program = self.programs.get(user % self.programs.len().max(1))?.clone();
            return Some(Request::CreateSession {
                program,
                architecture: None,
                entry: None,
                session: None,
            });
        }
        let session = conn.session?;
        let destroy = 2 * self.steps_per_user + 1;
        Some(match k {
            k if k > destroy => return None,
            k if k == destroy => Request::DestroySession { session },
            k if k % 2 == 1 => Request::Step { session, cycles: 1 },
            // No base yet: ask for a delta against a cycle the server cannot
            // have, receiving the full-snapshot fallback.
            _ if self.delta_state => {
                Request::GetStateDelta { session, since_cycle: conn.base.unwrap_or(u64::MAX) }
            }
            _ => Request::GetState { session },
        })
    }
}

/// First sample program: a tight arithmetic loop.
pub fn sample_program_loop() -> String {
    "
main:
    li   t0, 0
    li   t1, 64
    li   a0, 0
loop:
    addi a0, a0, 3
    xor  t2, a0, t1
    add  t0, t0, t2
    addi t1, t1, -1
    bnez t1, loop
    mv   a0, t0
    ret
"
    .to_string()
}

/// Second sample program: strided memory accesses through the cache.
pub fn sample_program_memory() -> String {
    "
buf:
    .zero 512
main:
    la   t0, buf
    li   t1, 128
    li   a0, 0
loop:
    sw   t1, 0(t0)
    lw   t2, 0(t0)
    add  a0, a0, t2
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, loop
    ret
"
    .to_string()
}

/// When each connection sends its next request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// As soon as the previous request is answered.  Under a [`Scenario`]
    /// the connections' starts are spread over the ramp-up and each waits
    /// the think time after a state fetch.
    ClosedLoop,
    /// This many requests per second in aggregate, spread evenly over the
    /// connections, with at most one in flight per connection: a slot that
    /// finds its connection still waiting is skipped.
    Rate(f64),
}

/// What the connections ask for.
#[derive(Debug, Clone)]
pub enum Mix {
    /// The Table I user script, once per connection.
    Scenario(Scenario),
    /// Cached `GetState` over these warmed sessions, dealt out to the
    /// connections like cards: connection `c` sends its `k`-th request to
    /// session `(c + k · connections) % sessions.len()`.
    GetState(Vec<u64>),
    /// `Step { cycles: 1 }` over these sessions, dealt out like
    /// [`Mix::GetState`]'s.  Keeps every session's state advancing, which a
    /// durability run needs.
    Step(Vec<u64>),
}

/// One load for [`run`].
#[derive(Debug, Clone)]
pub struct Load {
    /// Keep-alive connections (one per simulated user), clamped to the
    /// process's [`fd_budget`].
    pub connections: usize,
    /// When each connection sends.
    pub pacing: Pacing,
    /// What each connection sends.
    pub mix: Mix,
    /// How long the load runs.  A [`Mix::Scenario`] load ends sooner, once
    /// every user has run its script.
    pub duration: Duration,
}

/// The result of one [`run`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoadReport {
    /// Connections open when the clock started.
    pub connections: usize,
    /// Requests answered without error.
    pub requests: u64,
    /// Failed requests (see the crate docs for what fails a request).
    pub errors: u64,
    /// Errors by elapsed second of the run, zero-padded to its end: under
    /// fault injection, a burst then zeros means failover took over.
    pub errors_by_second: Vec<u64>,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Median latency of the answered requests in milliseconds.
    pub median_latency_ms: f64,
    /// 90th-percentile latency in milliseconds.
    pub p90_latency_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Maximum latency in milliseconds.
    pub max_latency_ms: f64,
    /// Mean latency in milliseconds.
    pub mean_latency_ms: f64,
}

impl LoadReport {
    /// Answered requests per second of the run.
    pub fn rps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Failed fraction of all attempted requests (`0.0` when nothing ran).
    /// This is what an error budget is checked against.
    pub fn error_ratio(&self) -> f64 {
        let attempts = self.requests + self.errors;
        if attempts > 0 {
            self.errors as f64 / attempts as f64
        } else {
            0.0
        }
    }

    /// Format the report as a Table-I-style row.
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "{label:<12} {:>6} conns  median {:>8.3} ms  p90 {:>8.3} ms  p99 {:>8.3} ms  max {:>8.3} ms  {:>9.1} req/s  ({} requests, {} errors)",
            self.connections,
            self.median_latency_ms,
            self.p90_latency_ms,
            self.p99_latency_ms,
            self.max_latency_ms,
            self.rps(),
            self.requests,
            self.errors
        )
    }
}

/// Exact rank-selection percentile over an ascending sample (`0.0` when
/// the sample is empty).  Exact because an `rvsim-obs` log2 histogram's
/// factor-of-two bound is too coarse for the Table I p90.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The process's open-file-descriptor budget (the `RLIMIT_NOFILE` soft
/// limit), which [`run`] clamps its connection count to.
pub fn fd_budget() -> usize {
    polling::open_file_limit().map(|l| l as usize).unwrap_or(1024)
}

/// Create one session on `program` at `addr` per entry of `ids` (`None`
/// lets the server assign the id), stepping each 8 cycles so its snapshots
/// hold in-flight state.  Returns the session ids in order.
pub fn create_sessions(
    addr: SocketAddr,
    program: &str,
    ids: impl IntoIterator<Item = Option<u64>>,
) -> Result<Vec<u64>, String> {
    let mut client = rvsim_net::TcpApiClient::new(addr);
    ids.into_iter()
        .map(|id| {
            let session = match client.call(&Request::CreateSession {
                program: program.to_string(),
                architecture: None,
                entry: None,
                session: id,
            })? {
                Response::SessionCreated { session } if id.is_none_or(|id| id == session) => {
                    session
                }
                other => return Err(format!("unexpected create response {other:?}")),
            };
            match client.call(&Request::Step { session, cycles: 8 })? {
                Response::Stepped { .. } => Ok(session),
                other => Err(format!("unexpected step response {other:?}")),
            }
        })
        .collect()
}

/// Drive `load` against the front end at `addr` from the calling thread and
/// report it.  Every connection is opened before the clock starts.
pub fn run(addr: SocketAddr, load: &Load) -> LoadReport {
    let Ok(poller) = Poller::new() else {
        return LoadReport { errors: 1, errors_by_second: vec![1], ..LoadReport::default() };
    };
    let connections = load.connections.clamp(1, fd_budget().saturating_sub(64).max(1));
    let mut runner = Runner {
        addr,
        mix: &load.mix,
        period: match load.pacing {
            Pacing::ClosedLoop => None,
            Pacing::Rate(rps) => Some(Duration::from_secs_f64(connections as f64 / rps.max(1.0))),
        },
        poller,
        conns: (0..connections).map(|_| Conn::default()).collect(),
        due: BinaryHeap::with_capacity(connections),
        started: Instant::now(),
        latencies_ms: Vec::new(),
        errors_by_second: Vec::new(),
    };
    for c in 0..connections {
        // A connection that cannot open now is retried when its first
        // request is due, and fails that request if it still cannot.
        runner.open(c);
    }
    let held = runner.conns.iter().filter(|conn| conn.stream.is_some()).count();
    runner.drive(load.duration);
    runner.report(held)
}

/// A keep-alive `POST /api` request carrying `request`.
fn frame(request: &Request) -> Vec<u8> {
    let body = serde_json::to_vec(request).expect("requests serialize");
    let mut out =
        format!("POST /api HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len()).into_bytes();
    out.extend_from_slice(&body);
    out
}

/// One connection of a run.
#[derive(Default)]
struct Conn {
    stream: Option<TcpStream>,
    /// The request being sent, and how much of it is written.
    out: Vec<u8>,
    written: usize,
    /// The socket buffer was full: waiting for writability.
    want_write: bool,
    /// Response bytes received so far.
    inbuf: Vec<u8>,
    /// When the request in flight started sending.
    sent_at: Option<Instant>,
    /// Requests started so far: the connection's position in the mix.
    started: usize,
    /// Table I script state: the user's session, the cycle its last step
    /// reached, and the cycle of the last state it fetched (the delta base).
    session: Option<u64>,
    stepped: Option<u64>,
    base: Option<u64>,
}

/// The state of one [`run`].
struct Runner<'a> {
    addr: SocketAddr,
    mix: &'a Mix,
    /// Interval between one connection's slots under rate pacing; `None`
    /// under closed-loop pacing.
    period: Option<Duration>,
    poller: Poller,
    conns: Vec<Conn>,
    /// When each connection's next request is due: one entry per connection
    /// whose mix has requests left, except a closed-loop connection with a
    /// request in flight.
    due: BinaryHeap<Reverse<(Instant, usize)>>,
    started: Instant,
    latencies_ms: Vec<f64>,
    errors_by_second: Vec<u64>,
}

impl Runner<'_> {
    /// Open connection `c`; `false` when the front end refuses it.
    fn open(&mut self, c: usize) -> bool {
        let Ok(stream) = TcpStream::connect(self.addr) else { return false };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err()
            || self.poller.register(stream.as_raw_fd(), c, Interest::READABLE).is_err()
        {
            return false;
        }
        self.conns[c].stream = Some(stream);
        true
    }

    /// Run the event loop until every mix is exhausted or `duration` ends.
    fn drive(&mut self, duration: Duration) {
        self.started = Instant::now();
        let end = self.started.checked_add(duration);
        let n = self.conns.len();
        let ramp_up = match self.mix {
            Mix::Scenario(scenario) if self.period.is_none() => scenario.ramp_up(),
            _ => Duration::ZERO,
        };
        for c in 0..n {
            let offset = match self.period {
                Some(period) => period.mul_f64(c as f64 / n as f64),
                None if n > 1 => ramp_up.mul_f64(c as f64 / (n - 1) as f64),
                None => Duration::ZERO,
            };
            self.due.push(Reverse((self.started + offset, c)));
        }

        let mut events = Events::with_capacity(1024);
        let mut ready = Vec::new();
        let mut next_expiry = self.started + EXPIRY_SCAN;
        while !self.due.is_empty() || self.conns.iter().any(|conn| conn.sent_at.is_some()) {
            let now = Instant::now();
            if end.is_some_and(|end| now >= end) {
                break;
            }
            let mut timeout = MAX_WAIT;
            if let Some(&Reverse((when, _))) = self.due.peek() {
                timeout = timeout.min(when.saturating_duration_since(now));
            }
            if let Some(end) = end {
                timeout = timeout.min(end.saturating_duration_since(now));
            }
            let _ = self.poller.wait(&mut events, Some(timeout));
            for event in events.iter() {
                self.on_event(event.token);
            }

            // Take the due slots first: a closed-loop request that fails at
            // once is due again at once, and waits for the next round.
            let now = Instant::now();
            while let Some(&Reverse((when, c))) = self.due.peek() {
                if when > now {
                    break;
                }
                self.due.pop();
                ready.push((when, c));
            }
            for (slot, c) in ready.drain(..) {
                self.send(c, slot, now);
            }
            if now >= next_expiry {
                self.expire(now);
                next_expiry = now + EXPIRY_SCAN;
            }
        }
    }

    /// The request connection `c` sends next, or `None` when its mix is
    /// exhausted.
    fn next_request(&self, c: usize) -> Option<Request> {
        let conn = &self.conns[c];
        let dealt = |sessions: &[u64]| {
            let k = conn.started;
            (!sessions.is_empty()).then(|| sessions[(c + k * self.conns.len()) % sessions.len()])
        };
        match self.mix {
            Mix::Scenario(scenario) => scenario.request(c, conn.started, conn),
            Mix::GetState(sessions) => Some(Request::GetState { session: dealt(sessions)? }),
            Mix::Step(sessions) => Some(Request::Step { session: dealt(sessions)?, cycles: 1 }),
        }
    }

    /// Start connection `c`'s request due at `slot`, reopening the
    /// connection first if the peer closed it.
    fn send(&mut self, c: usize, slot: Instant, now: Instant) {
        if self.conns[c].sent_at.is_some() {
            // Only under rate pacing: the previous request is still out, so
            // this slot slips rather than pipelining.
            if let Some(period) = self.period {
                self.due.push(Reverse((now + period, c)));
            }
            return;
        }
        let Some(request) = self.next_request(c) else { return };
        if let Some(period) = self.period {
            self.due.push(Reverse((slot + period, c)));
        }
        self.conns[c].started += 1;
        if self.conns[c].stream.is_none() && !self.open(c) {
            // A refused reopen fails the request it was opened for.
            self.finish(c, None, now);
            return;
        }
        let conn = &mut self.conns[c];
        conn.out = frame(&request);
        conn.written = 0;
        conn.sent_at = Some(now);
        self.flush(c);
    }

    /// Write what is left of connection `c`'s request, waiting for
    /// writability when the socket buffer is full.
    fn flush(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let Some(stream) = conn.stream.as_mut() else { return };
        let fd = stream.as_raw_fd();
        while conn.written < conn.out.len() {
            match stream.write(&conn.out[conn.written..]) {
                Ok(n) if n > 0 => conn.written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.poller.reregister(fd, c, Interest::BOTH);
                    }
                    return;
                }
                _ => return self.drop_connection(c, Instant::now()),
            }
        }
        if conn.want_write {
            conn.want_write = false;
            let _ = self.poller.reregister(fd, c, Interest::READABLE);
        }
    }

    /// Handle readiness of connection `c`: finish a partial write, then read
    /// and account a complete answer.
    fn on_event(&mut self, c: usize) {
        if self.conns[c].want_write {
            self.flush(c);
        }
        let conn = &mut self.conns[c];
        let Some(stream) = conn.stream.as_mut() else { return };
        let mut chunk = [0u8; 16 * 1024];
        let mut open = loop {
            match stream.read(&mut chunk) {
                Ok(0) => break false,
                Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break e.kind() == ErrorKind::WouldBlock,
            }
        };
        let now = Instant::now();
        match rvsim_net::parse_response_head(&conn.inbuf) {
            Ok(Some(head)) if conn.inbuf.len() >= head.head_len + head.content_length => {
                // One request in flight: nothing follows its answer.
                let inbuf = std::mem::take(&mut conn.inbuf);
                if conn.sent_at.is_some() {
                    let payload = &inbuf[head.head_len..head.head_len + head.content_length];
                    let ok = head.status == 200 && !is_error_payload(payload);
                    self.finish(c, ok.then_some(payload), now);
                }
                self.conns[c].inbuf = inbuf;
                self.conns[c].inbuf.clear();
            }
            Ok(_) => {}
            // An answer that cannot be framed leaves the connection unusable.
            Err(_) => open = false,
        }
        if !open {
            self.drop_connection(c, now);
        }
    }

    /// Close connection `c` until its next request is due; a request in
    /// flight on it fails.
    fn drop_connection(&mut self, c: usize, now: Instant) {
        let conn = &mut self.conns[c];
        if let Some(stream) = conn.stream.take() {
            let _ = self.poller.deregister(stream.as_raw_fd());
        }
        conn.inbuf.clear();
        conn.want_write = false;
        if conn.sent_at.is_some() {
            self.finish(c, None, now);
        }
    }

    /// Fail every request unanswered for [`READ_TIMEOUT`], as the blocking
    /// client's read timeout would.
    fn expire(&mut self, now: Instant) {
        for c in 0..self.conns.len() {
            if self.conns[c].sent_at.is_some_and(|sent_at| now - sent_at >= READ_TIMEOUT) {
                self.drop_connection(c, now);
            }
        }
    }

    /// Account connection `c`'s request: `answer` is the payload of a
    /// successful answer, `None` a failure.  Under closed-loop pacing this
    /// also schedules the connection's next request.
    fn finish(&mut self, c: usize, answer: Option<&[u8]>, now: Instant) {
        let conn = &mut self.conns[c];
        conn.out.clear();
        conn.written = 0;
        match (answer, conn.sent_at.take()) {
            (Some(_), Some(sent_at)) => {
                self.latencies_ms.push((now - sent_at).as_secs_f64() * 1e3);
            }
            _ => {
                let second = (now - self.started).as_secs() as usize;
                if self.errors_by_second.len() <= second {
                    self.errors_by_second.resize(second + 1, 0);
                }
                self.errors_by_second[second] += 1;
            }
        }
        let pause = self.advance_script(c, answer);
        if self.period.is_none() {
            self.due.push(Reverse((now + pause, c)));
        }
    }

    /// Record what the Table I script needs from the answer to connection
    /// `c`'s last request, and return the pause before its next one.
    fn advance_script(&mut self, c: usize, answer: Option<&[u8]>) -> Duration {
        let Mix::Scenario(scenario) = self.mix else { return Duration::ZERO };
        let conn = &mut self.conns[c];
        let decoded = || answer.and_then(|payload| decode_response(payload).ok());
        match conn.started - 1 {
            0 => {
                conn.session = match decoded() {
                    Some(Response::SessionCreated { session }) => Some(session),
                    _ => None,
                };
            }
            k if k > 2 * scenario.steps_per_user => {}
            k if k % 2 == 1 => {
                if scenario.delta_state {
                    conn.stepped = match decoded() {
                        Some(Response::Stepped { cycle, .. }) => Some(cycle),
                        _ => None,
                    };
                }
            }
            _ => {
                conn.base = answer.and(conn.stepped);
                return scenario.think_time();
            }
        }
        Duration::ZERO
    }

    fn report(self, connections: usize) -> LoadReport {
        let wall = self.started.elapsed();
        let mut errors_by_second = self.errors_by_second;
        let seconds = wall.as_secs() as usize + 1;
        if errors_by_second.len() < seconds {
            errors_by_second.resize(seconds, 0);
        }
        let mut latencies = self.latencies_ms;
        latencies.sort_by(f64::total_cmp);
        LoadReport {
            connections,
            requests: latencies.len() as u64,
            errors: errors_by_second.iter().sum(),
            errors_by_second,
            wall_seconds: wall.as_secs_f64(),
            median_latency_ms: percentile(&latencies, 0.5),
            p90_latency_ms: percentile(&latencies, 0.9),
            p99_latency_ms: percentile(&latencies, 0.99),
            max_latency_ms: latencies.last().copied().unwrap_or(0.0),
            mean_latency_ms: latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_server::{DeploymentConfig, DeploymentMode, SimulationServer};
    use std::sync::atomic::Ordering;

    /// A loopback front end (4 dispatch workers) over a fresh direct-mode
    /// server, or `None` when the sandbox forbids loopback sockets.
    fn front_end(compress: bool) -> Option<rvsim_net::NetServer> {
        let deployment = DeploymentConfig {
            mode: DeploymentMode::Direct,
            compress_responses: compress,
            idle_session_ttl_seconds: None,
        };
        let started = rvsim_net::NetServer::start(
            SimulationServer::new(deployment),
            rvsim_net::NetConfig::default(),
        );
        started.map_err(|e| eprintln!("skipping loopback test: {e}")).ok()
    }

    /// `count` warmed sessions on the sample loop program.
    fn sessions(addr: SocketAddr, count: usize) -> Vec<u64> {
        create_sessions(addr, &sample_program_loop(), std::iter::repeat_n(None, count)).unwrap()
    }

    /// A load of `connections` over `mix` for `millis` milliseconds.
    fn load(connections: usize, pacing: Pacing, mix: Mix, millis: u64) -> Load {
        Load { connections, pacing, mix, duration: Duration::from_millis(millis) }
    }

    /// Block until the front end has served more than `requests` requests
    /// (at most 10 s, so a stalled load fails its assertions, not the run).
    fn wait_until_served(net: &rvsim_net::NetServer, requests: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.stats().requests_served.load(Ordering::Relaxed) <= requests
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn percentile_selection() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn scenario_constructors_match_paper_parameters() {
        let s = Scenario::paper();
        assert_eq!(s.steps_per_user, 40);
        assert_eq!(s.ramp_up(), Duration::from_secs(4));
        assert_eq!(s.think_time(), Duration::from_secs(1));
        assert_eq!(s.programs.len(), 2);
        let load = Scenario::paper_scaled(0.01).load(100);
        assert_eq!(load.connections, 100);
        assert_eq!(load.pacing, Pacing::ClosedLoop);
        let Mix::Scenario(scaled) = &load.mix else { panic!("a scenario load runs the script") };
        assert!(scaled.ramp_up() < Duration::from_millis(100));
    }

    #[test]
    fn small_load_test_produces_sane_report() {
        let Some(net) = front_end(true) else { return };
        let mut scenario = Scenario::paper_scaled(0.0);
        scenario.steps_per_user = 5;
        let report = run(net.local_addr(), &scenario.load(4));
        // 4 users × (1 create + 5 × (step + state) + 1 destroy) = 48 requests.
        assert_eq!(report.requests, 48);
        assert_eq!(report.errors, 0);
        assert!(report.median_latency_ms >= 0.0);
        assert!(report.p90_latency_ms >= report.median_latency_ms);
        assert!(report.max_latency_ms >= report.p99_latency_ms, "p99 is clamped to the max");
        assert!(report.rps() > 0.0);
        assert!(report.table_row("Direct").contains("4 conns"));
        net.shutdown();
    }

    #[test]
    fn more_users_than_workers_still_completes_without_errors() {
        let Some(net) = front_end(false) else { return };
        let mut scenario = Scenario::paper_scaled(0.0);
        scenario.steps_per_user = 3;
        let report = run(net.local_addr(), &scenario.load(12));
        assert_eq!(report.errors, 0);
        assert_eq!(report.requests, (12 * (2 + 2 * 3)) as u64);
        net.shutdown();
    }

    #[test]
    fn delta_mode_completes_with_no_errors() {
        let Some(net) = front_end(true) else { return };
        let mut scenario = Scenario::paper_scaled(0.0);
        scenario.steps_per_user = 6;
        scenario.delta_state = true;
        let report = run(net.local_addr(), &scenario.load(3));
        // Same request count as full mode: 3 × (create + 6 × (step + fetch) + destroy).
        assert_eq!(report.requests, 42);
        assert_eq!(report.errors, 0, "delta fetches must all succeed");
        net.shutdown();
    }

    #[test]
    fn tcp_transport_runs_the_same_scenario_with_no_errors() {
        let Some(net) = front_end(true) else { return };
        for delta in [false, true] {
            let mut scenario = Scenario::paper_scaled(0.0);
            scenario.steps_per_user = 4;
            scenario.delta_state = delta;
            let report = run(net.local_addr(), &scenario.load(3));
            // 3 users × (create + 4 × (step + fetch) + destroy).
            assert_eq!(report.requests, 30, "delta={delta}");
            assert_eq!(report.errors, 0, "delta={delta}");
            assert!(report.p90_latency_ms >= report.median_latency_ms);
        }
        net.shutdown();
    }

    #[test]
    fn high_connection_sweep_completes_with_no_errors() {
        let Some(net) = front_end(true) else { return };
        let sessions = sessions(net.local_addr(), 2);
        let report =
            run(net.local_addr(), &load(64, Pacing::Rate(400.0), Mix::GetState(sessions), 700));
        assert_eq!(report.connections, 64, "all requested connections are held");
        assert_eq!(report.errors, 0, "no request may fail");
        assert!(report.requests > 0, "paced requests must complete");
        assert!(report.p90_latency_ms >= report.median_latency_ms);
        assert!(report.table_row("paced").contains("64 conns"));
        // The shared sessions mean nearly every request hit the cached
        // GetState payload.
        assert!(net.server().shared_state_serve_count() > 0);
        net.shutdown();
    }

    #[test]
    fn cached_state_fanout_counts_requests_without_errors() {
        let Some(net) = front_end(true) else { return };
        let sessions = sessions(net.local_addr(), 2);
        let report =
            run(net.local_addr(), &load(2, Pacing::ClosedLoop, Mix::GetState(sessions), 300));
        assert_eq!(report.errors, 0);
        assert!(report.requests > 0);
        assert!(report.rps() > 0.0);
        assert!(report.max_latency_ms >= report.p99_latency_ms);
        assert!(report.p99_latency_ms >= report.median_latency_ms);
        net.shutdown();
    }

    #[test]
    fn cached_state_fanout_counts_in_band_errors_from_a_compressing_server() {
        // The server compresses by default; an in-band error must still
        // count as one, not as a served request.
        let Some(net) = front_end(true) else { return };
        let missing = vec![424_242];
        let report =
            run(net.local_addr(), &load(1, Pacing::ClosedLoop, Mix::GetState(missing), 100));
        assert!(report.errors > 0, "{report:?}");
        assert_eq!(report.requests, 0, "{report:?}");
        net.shutdown();
    }

    #[test]
    fn step_load_advances_sessions_and_reports_a_clean_error_ratio() {
        let Some(net) = front_end(true) else { return };
        let sessions = sessions(net.local_addr(), 3);
        let mut setup = rvsim_net::TcpApiClient::new(net.local_addr());
        let report =
            run(net.local_addr(), &load(2, Pacing::ClosedLoop, Mix::Step(sessions.clone()), 300));
        assert!(report.requests > 0);
        assert_eq!(report.errors, 0);
        assert_eq!(report.error_ratio(), 0.0);
        assert!(report.errors_by_second.iter().all(|&e| e == 0));
        // The load actually advanced state: every session left its warm-up
        // cycle.
        let mut cycle = |session| match setup.call(&Request::GetState { session }).unwrap() {
            Response::State(snapshot) => snapshot.cycle,
            other => panic!("unexpected {other:?}"),
        };
        for &session in &sessions {
            assert!(cycle(session) > 8);
        }

        // More connections than sessions: Steps on one session arrive
        // concurrently, and its lock must apply each exactly once.  On a
        // loop that outlasts the window, every answered Step advanced its
        // session one cycle past the warm-up's 8; a Step still in flight
        // when the window closed may have advanced it too.
        const LONG_LOOP: &str = "
main:
    li   t0, 0
    li   t1, 1000000
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    ret
";
        let shared =
            create_sessions(net.local_addr(), LONG_LOOP, std::iter::repeat_n(None, 2)).unwrap();
        let report =
            run(net.local_addr(), &load(6, Pacing::ClosedLoop, Mix::Step(shared.clone()), 300));
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.requests > 0, "{report:?}");
        let advanced: u64 = shared.iter().map(|&session| cycle(session) - 8).sum();
        let in_flight = report.connections as u64;
        assert!(
            (report.requests..=report.requests + in_flight).contains(&advanced),
            "{advanced} cycles for {} answered Steps",
            report.requests
        );
        net.shutdown();
    }

    #[test]
    fn error_ratio_and_buckets_account_for_failures() {
        let report = LoadReport {
            requests: 90,
            errors: 10,
            errors_by_second: vec![0, 10, 0],
            wall_seconds: 3.0,
            ..LoadReport::default()
        };
        assert!((report.error_ratio() - 0.1).abs() < 1e-12);
        assert!((report.rps() - 30.0).abs() < 1e-12);
        let empty = LoadReport::default();
        assert_eq!(empty.error_ratio(), 0.0);
        assert_eq!(empty.rps(), 0.0);
        let back: LoadReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back.errors_by_second, vec![0, 10, 0]);
    }

    #[test]
    fn bad_program_counts_as_errors_but_does_not_panic() {
        let Some(net) = front_end(false) else { return };
        let scenario = Scenario {
            steps_per_user: 2,
            programs: vec!["main:\n  bogus\n".to_string()],
            time_scale: 0.0,
            delta_state: false,
        };
        let report = run(net.local_addr(), &scenario.load(2));
        assert_eq!(report.errors, 2, "each user fails once at session creation");
        net.shutdown();
    }

    #[test]
    fn rate_paced_load_counts_the_errors_of_destroyed_sessions() {
        let Some(net) = front_end(true) else { return };
        let addr = net.local_addr();
        let sessions = sessions(addr, 4);
        let served = net.stats().requests_served.load(Ordering::Relaxed);
        std::thread::scope(|scope| {
            let destroyer = scope.spawn(|| {
                // Destroy the sessions once the load has been answered.
                wait_until_served(&net, served + 40);
                let mut client = rvsim_net::TcpApiClient::new(addr);
                for &session in &sessions {
                    client.call(&Request::DestroySession { session }).unwrap();
                }
            });
            let report =
                run(addr, &load(16, Pacing::Rate(400.0), Mix::GetState(sessions.clone()), 1_000));
            destroyer.join().unwrap();
            assert!(report.requests > 0, "answers before the destroy: {report:?}");
            assert!(report.errors > 0, "unknown-session answers after it: {report:?}");
            assert_eq!(report.errors_by_second.iter().sum::<u64>(), report.errors);
        });
        net.shutdown();
    }

    #[test]
    fn a_dead_front_end_keeps_producing_errors_under_both_pacings() {
        for pacing in [Pacing::ClosedLoop, Pacing::Rate(400.0)] {
            let Some(net) = front_end(true) else { return };
            let addr = net.local_addr();
            let sessions = sessions(addr, 4);
            let served = net.stats().requests_served.load(Ordering::Relaxed);
            let stopper = std::thread::spawn(move || {
                wait_until_served(&net, served + 40);
                net.shutdown();
            });
            let report = run(addr, &load(16, pacing, Mix::GetState(sessions), 1_000));
            stopper.join().unwrap();
            assert!(report.requests > 0, "{pacing:?}: answers before the shutdown: {report:?}");
            assert!(
                report.errors > report.connections as u64,
                "{pacing:?}: refused reconnects keep counting: {report:?}"
            );
            assert_eq!(report.errors_by_second.iter().sum::<u64>(), report.errors);
        }
    }
}
