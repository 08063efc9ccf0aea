//! # rvsim-loadgen — closed-loop load generator
//!
//! Reproduces the paper's Apache JMeter load test (§IV-A, Table I): a number
//! of simulated users, a ramp-up period, a fixed think time between requests,
//! and 40 interactive simulation steps per user over one of two programs.
//! The report contains the median and 90th-percentile request latency plus
//! the throughput in transactions per second — the exact columns of Table I.
//!
//! A `time_scale` factor shrinks the ramp-up and think times so the same
//! scenario can run as a Criterion benchmark or a CI test in seconds instead
//! of minutes; the *shape* of the results (queueing at high user counts,
//! Docker overhead, gzip benefit) is unaffected because those effects come
//! from the per-request work and the server's dispatch workers, not from
//! the think time.
//!
//! All load goes over TCP to an `rvsim-net` front end: the scenario runs
//! through [`run_load_test_tcp`], one keep-alive connection per user,
//! exactly like a browser tab talking to the paper's Undertow deployment.

#![warn(missing_docs)]

use polling::{Events, Interest, Poller};
use rvsim_obs::Histogram;
use rvsim_server::{is_error_payload, Request, Response};
use serde::{Deserialize, Serialize};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-test scenario definition (the JMeter test plan).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of concurrent simulated users.
    pub users: usize,
    /// Interactive simulation steps each user performs.
    pub steps_per_user: usize,
    /// Ramp-up time over which users start (seconds, before scaling).
    pub ramp_up_seconds: f64,
    /// Think time between a user's requests (seconds, before scaling).
    pub think_time_seconds: f64,
    /// Programs users load (each user picks one round-robin).
    pub programs: Vec<String>,
    /// Scale factor applied to ramp-up and think times (1.0 = paper timing).
    pub time_scale: f64,
    /// Fetch the full processor snapshot after every step (the interactive
    /// GUI behaviour; this is what makes JSON dominate request time).
    pub fetch_state_each_step: bool,
    /// Use the delta protocol for state fetches: after the first snapshot,
    /// ask for `GetStateDelta` against the last seen cycle instead of the
    /// full state (the bandwidth-saving client behaviour).
    #[serde(default)]
    pub delta_state: bool,
}

impl Scenario {
    /// The paper's scenario: `users` users, 40 steps each, 4 s ramp-up,
    /// 1 s think time, two sample programs.
    pub fn paper(users: usize) -> Self {
        Scenario {
            users,
            steps_per_user: 40,
            ramp_up_seconds: 4.0,
            think_time_seconds: 1.0,
            programs: vec![sample_program_loop(), sample_program_memory()],
            time_scale: 1.0,
            fetch_state_each_step: true,
            delta_state: false,
        }
    }

    /// The paper's scenario compressed in time by `scale` (e.g. `0.01`).
    pub fn paper_scaled(users: usize, scale: f64) -> Self {
        Scenario { time_scale: scale, ..Self::paper(users) }
    }

    fn ramp_up(&self) -> Duration {
        Duration::from_secs_f64((self.ramp_up_seconds * self.time_scale).max(0.0))
    }

    fn think_time(&self) -> Duration {
        Duration::from_secs_f64((self.think_time_seconds * self.time_scale).max(0.0))
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

/// Result of one load-test run (one row of Table I).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadTestReport {
    /// Number of users.
    pub users: usize,
    /// Completed transactions (requests).
    pub transactions: u64,
    /// Failed requests.
    pub errors: u64,
    /// Median request latency in milliseconds.
    pub median_latency_ms: f64,
    /// 90th-percentile request latency in milliseconds.
    pub p90_latency_ms: f64,
    /// 99th-percentile request latency in milliseconds (histogram estimate).
    #[serde(default)]
    pub p99_latency_ms: f64,
    /// Maximum request latency in milliseconds.
    #[serde(default)]
    pub max_latency_ms: f64,
    /// Mean request latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Throughput in transactions per second.
    pub throughput_tps: f64,
    /// Wall-clock duration of the whole test in seconds.
    pub duration_seconds: f64,
}

impl LoadTestReport {
    /// Format the report as a Table-I-style row.
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "{label:<10} {:>5} users  median {:>8.2} ms  p90 {:>8.2} ms  p99 {:>8.2} ms  max {:>8.2} ms  throughput {:>7.2} trans/s  ({} transactions, {} errors)",
            self.users, self.median_latency_ms, self.p90_latency_ms, self.p99_latency_ms, self.max_latency_ms, self.throughput_tps, self.transactions, self.errors
        )
    }
}

/// Exact rank-selection percentile over a sorted sample.  The Table-I
/// columns (median, p90) keep this exact form so the paper comparison and
/// the committed benchmark baselines stay method-stable; the tail columns
/// (p99, max) and the fan-out / high-connection paths come from the shared
/// `rvsim-obs` histogram instead.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Run a scenario against the TCP/HTTP front end (`rvsim-net`) at `addr`.
/// Every user owns one keep-alive connection, exactly like a browser tab
/// talking to the paper's Undertow deployment.
pub fn run_load_test_tcp(addr: SocketAddr, scenario: &Scenario) -> LoadTestReport {
    let started = Instant::now();
    let ramp_up = scenario.ramp_up();
    let think = scenario.think_time();
    let users = scenario.users.max(1);
    // Every user thread records into one lock-free histogram; its exact
    // count/sum/max back the report's transaction count, p99 and max.
    let hist = Arc::new(Histogram::new());

    let mut handles = Vec::with_capacity(users);
    for user in 0..users {
        let mut client = rvsim_net::TcpApiClient::new(addr);
        let hist = Arc::clone(&hist);
        let program = scenario.programs[user % scenario.programs.len().max(1)].clone();
        let steps = scenario.steps_per_user;
        let fetch_state = scenario.fetch_state_each_step;
        let delta_state = scenario.delta_state;
        let start_delay = if users > 1 {
            ramp_up.mul_f64(user as f64 / (users - 1) as f64)
        } else {
            Duration::ZERO
        };
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(steps * 2 + 1);
            let mut errors = 0u64;
            std::thread::sleep(start_delay);

            let mut timed_call = |request: &Request| -> Option<Response> {
                let t0 = Instant::now();
                let result = client.call(request);
                let elapsed = t0.elapsed();
                latencies.push(elapsed.as_secs_f64() * 1e3);
                hist.record(elapsed.as_micros() as u64);
                match result {
                    Ok(response) if !response.is_error() => Some(response),
                    _ => {
                        errors += 1;
                        None
                    }
                }
            };

            let session = match timed_call(&Request::CreateSession {
                program,
                architecture: None,
                entry: None,
                session: None,
            }) {
                Some(Response::SessionCreated { session }) => session,
                _ => return (latencies, errors),
            };
            let mut seen_cycle: Option<u64> = None;
            for _ in 0..steps {
                timed_call(&Request::Step { session, cycles: 1 });
                if fetch_state {
                    let request = match (delta_state, seen_cycle) {
                        (true, Some(since_cycle)) => {
                            Request::GetStateDelta { session, since_cycle }
                        }
                        // First fetch in delta mode: ask for a delta against
                        // a cycle the server cannot have, receiving the full
                        // snapshot fallback (which also seeds the base).
                        (true, None) => Request::GetStateDelta { session, since_cycle: u64::MAX },
                        (false, _) => Request::GetState { session },
                    };
                    match timed_call(&request) {
                        Some(Response::State(snapshot)) => seen_cycle = Some(snapshot.cycle),
                        Some(Response::StateDelta(delta)) => seen_cycle = Some(delta.cycle),
                        _ => seen_cycle = None,
                    }
                }
                if !think.is_zero() {
                    std::thread::sleep(think);
                }
            }
            timed_call(&Request::DestroySession { session });
            (latencies, errors)
        }));
    }

    let mut latencies: Vec<f64> = Vec::new();
    let mut errors = 0u64;
    for handle in handles {
        let (user_latencies, user_errors) = handle.join().expect("load-test user thread panicked");
        latencies.extend(user_latencies);
        errors += user_errors;
    }
    let duration = started.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let transactions = latencies.len() as u64;
    let snapshot = hist.snapshot();
    LoadTestReport {
        users: scenario.users,
        transactions,
        errors,
        median_latency_ms: percentile(&latencies, 0.5),
        p90_latency_ms: percentile(&latencies, 0.9),
        p99_latency_ms: snapshot.p99_us() / 1e3,
        max_latency_ms: snapshot.max_us() as f64 / 1e3,
        mean_latency_ms: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        },
        throughput_tps: if duration > 0.0 { transactions as f64 / duration } else { 0.0 },
        duration_seconds: duration,
    }
}

// ---------------------------------------------------------------------------
// Cached-GetState fan-out: saturate one or many front ends from closed-loop
// client threads (the multi-node scaling measurement).
// ---------------------------------------------------------------------------

/// Result of a [`run_cached_state_fanout`] or [`run_step_load`] run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FanoutReport {
    /// Completed requests across all targets and threads.
    pub requests: u64,
    /// Failed requests (transport failures or protocol errors).
    pub errors: u64,
    /// Errors bucketed by elapsed second since the run started.  Under a
    /// fault-injection run this is the shape that matters: a burst in one
    /// or two buckets followed by zeros means the breaker opened and
    /// failover took over; errors smeared across every bucket mean it
    /// did not.
    #[serde(default)]
    pub errors_by_second: Vec<u64>,
    /// Wall-clock duration of the measurement in seconds.
    pub wall_seconds: f64,
    /// Median latency of successful requests in milliseconds (histogram
    /// estimate).
    #[serde(default)]
    pub median_latency_ms: f64,
    /// 99th-percentile latency of successful requests in milliseconds
    /// (histogram estimate).
    #[serde(default)]
    pub p99_latency_ms: f64,
    /// Maximum latency of a successful request in milliseconds.
    #[serde(default)]
    pub max_latency_ms: f64,
}

impl FanoutReport {
    /// Aggregate throughput in requests per second.
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
}

/// Record `count` errors in the per-second bucket for `elapsed`.
fn bucket_errors(buckets: &mut Vec<u64>, started: Instant, count: u64) {
    let second = started.elapsed().as_secs() as usize;
    if buckets.len() <= second {
        buckets.resize(second + 1, 0);
    }
    buckets[second] += count;
}

/// Merge per-thread second buckets into `total` element-wise.
fn merge_buckets(total: &mut Vec<u64>, partial: &[u64]) {
    if total.len() < partial.len() {
        total.resize(partial.len(), 0);
    }
    for (sum, value) in total.iter_mut().zip(partial) {
        *sum += value;
    }
}

/// Pad the merged buckets with explicit zeros out to the full run length,
/// so "the errors stopped" is visible in the data rather than implied by a
/// short vector.
fn pad_buckets(total: &mut Vec<u64>, started: Instant) {
    let covered = started.elapsed().as_secs() as usize + 1;
    if total.len() < covered {
        total.resize(covered, 0);
    }
}

/// Saturate the cached-`GetState` serve path across one or more front ends:
/// `threads_per_target` closed-loop client threads per `(addr, sessions)`
/// target, each looping `GetState` over the warmed session ids on its own
/// keep-alive connection for `duration`.  The aggregate request count is the
/// multi-node scaling metric: with sessions pinned per node, adding nodes
/// multiplies the serve capacity.
pub fn run_cached_state_fanout(
    targets: &[(SocketAddr, Vec<u64>)],
    threads_per_target: usize,
    duration: Duration,
) -> FanoutReport {
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hist = Arc::new(Histogram::new());
    let started = Instant::now();
    let mut threads = Vec::new();
    for &(addr, ref sessions) in targets {
        for offset in 0..threads_per_target.max(1) {
            let sessions = sessions.clone();
            let stop = std::sync::Arc::clone(&stop);
            let hist = Arc::clone(&hist);
            threads.push(std::thread::spawn(move || -> (u64, u64, Vec<u64>) {
                let mut client = rvsim_net::TcpApiClient::new(addr);
                // Pre-encode one request body per session and stay on the
                // wire: decoding every payload (LZSS + full snapshot JSON)
                // would make the *client* the bottleneck on small hosts and
                // mask the fleet's capacity — the very thing this measures.
                let bodies: Vec<Vec<u8>> = sessions
                    .iter()
                    .map(|&session| {
                        serde_json::to_vec(&Request::GetState { session })
                            .expect("request serializes")
                    })
                    .collect();
                let mut requests = 0u64;
                let mut errors = 0u64;
                let mut buckets: Vec<u64> = Vec::new();
                let mut index = offset; // spread threads across the sessions
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let body = &bodies[index % bodies.len().max(1)];
                    index = index.wrapping_add(1);
                    let t0 = Instant::now();
                    match client.call_raw(body) {
                        Ok(payload) if !is_error_payload(&payload) => {
                            requests += 1;
                            hist.record(t0.elapsed().as_micros() as u64);
                        }
                        _ => {
                            errors += 1;
                            bucket_errors(&mut buckets, started, 1);
                        }
                    }
                }
                (requests, errors, buckets)
            }));
        }
    }
    std::thread::sleep(duration);
    stop.store(true, std::sync::atomic::Ordering::Release);
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut errors_by_second: Vec<u64> = Vec::new();
    for thread in threads {
        let (r, e, buckets) = thread.join().expect("fan-out client thread panicked");
        requests += r;
        errors += e;
        merge_buckets(&mut errors_by_second, &buckets);
    }
    pad_buckets(&mut errors_by_second, started);
    let snapshot = hist.snapshot();
    FanoutReport {
        requests,
        errors,
        errors_by_second,
        wall_seconds: started.elapsed().as_secs_f64(),
        median_latency_ms: snapshot.p50_us() / 1e3,
        p99_latency_ms: snapshot.p99_us() / 1e3,
        max_latency_ms: snapshot.max_us() as f64 / 1e3,
    }
}

/// Closed-loop *stepping* load: `threads` clients round-robin
/// `Step {{ cycles: 1 }}` over the warmed `sessions` at `addr` for
/// `duration`.  Unlike the cached-`GetState` fan-out this load keeps every
/// session's state advancing, which is what a durability run needs: a
/// checkpointed session that failed over to another backend must keep
/// serving *and progressing*, and an error burst in
/// [`FanoutReport::errors_by_second`] shows exactly when clients felt the
/// crash.
pub fn run_step_load(
    addr: SocketAddr,
    sessions: &[u64],
    threads: usize,
    duration: Duration,
) -> FanoutReport {
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hist = Arc::new(Histogram::new());
    let started = Instant::now();
    let mut handles = Vec::new();
    for offset in 0..threads.max(1) {
        let sessions = sessions.to_vec();
        let stop = std::sync::Arc::clone(&stop);
        let hist = Arc::clone(&hist);
        handles.push(std::thread::spawn(move || -> (u64, u64, Vec<u64>) {
            let mut client = rvsim_net::TcpApiClient::new(addr);
            let mut requests = 0u64;
            let mut errors = 0u64;
            let mut buckets: Vec<u64> = Vec::new();
            let mut index = offset;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let session = sessions[index % sessions.len().max(1)];
                index = index.wrapping_add(1);
                let t0 = Instant::now();
                match client.call(&Request::Step { session, cycles: 1 }) {
                    Ok(response) if !response.is_error() => {
                        requests += 1;
                        hist.record(t0.elapsed().as_micros() as u64);
                    }
                    _ => {
                        errors += 1;
                        bucket_errors(&mut buckets, started, 1);
                    }
                }
            }
            (requests, errors, buckets)
        }));
    }
    std::thread::sleep(duration);
    stop.store(true, std::sync::atomic::Ordering::Release);
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut errors_by_second: Vec<u64> = Vec::new();
    for handle in handles {
        let (r, e, buckets) = handle.join().expect("step-load client thread panicked");
        requests += r;
        errors += e;
        merge_buckets(&mut errors_by_second, &buckets);
    }
    pad_buckets(&mut errors_by_second, started);
    let snapshot = hist.snapshot();
    FanoutReport {
        requests,
        errors,
        errors_by_second,
        wall_seconds: started.elapsed().as_secs_f64(),
        median_latency_ms: snapshot.p50_us() / 1e3,
        p99_latency_ms: snapshot.p99_us() / 1e3,
        max_latency_ms: snapshot.max_us() as f64 / 1e3,
    }
}

// ---------------------------------------------------------------------------
// High-connection sweep: one event loop holding thousands of keep-alive
// connections.
// ---------------------------------------------------------------------------

/// Options of the high-connection sweep ([`run_high_connection_test`]).
#[derive(Debug, Clone)]
pub struct HighConnectionOptions {
    /// Keep-alive connections to hold open (clamped to the process's fd
    /// budget; the report records both requested and achieved).
    pub connections: usize,
    /// Aggregate request rate paced across all connections, in requests per
    /// second.  Held constant across sweep points so latency differences
    /// come from the connection count alone.
    pub target_rps: f64,
    /// Warm-up period whose latencies are discarded.
    pub warmup: Duration,
    /// Measurement window after warm-up.
    pub duration: Duration,
    /// Simulation sessions the connections share.  Small on purpose: most
    /// requests hit an unchanged cycle, exercising the server's shared
    /// cached-`GetState` path under connection pressure.
    pub sessions: usize,
}

impl Default for HighConnectionOptions {
    fn default() -> Self {
        HighConnectionOptions {
            connections: 10_000,
            target_rps: 2_000.0,
            warmup: Duration::from_millis(500),
            duration: Duration::from_secs(3),
            sessions: 8,
        }
    }
}

/// Result of one high-connection sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HighConnectionReport {
    /// Connections requested by the options.
    pub requested_connections: usize,
    /// Connections actually opened and held (fd budget and connect errors
    /// can clamp the requested count).
    pub connections: usize,
    /// Paced aggregate request rate (requests per second).
    pub target_rps: f64,
    /// Achieved request rate over the measurement window.
    pub achieved_rps: f64,
    /// Completed requests inside the measurement window.
    pub transactions: u64,
    /// Failed requests or connections over the whole run.
    pub errors: u64,
    /// Median request latency in milliseconds.
    pub median_latency_ms: f64,
    /// 90th-percentile request latency in milliseconds.
    pub p90_latency_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_latency_ms: f64,
    /// Maximum request latency in milliseconds.
    pub max_latency_ms: f64,
    /// Measurement-window duration in seconds.
    pub duration_seconds: f64,
}

impl HighConnectionReport {
    /// Format the report as a table row.
    pub fn table_row(&self) -> String {
        format!(
            "{:>6} conns  target {:>7.0} rps  achieved {:>7.0} rps  median {:>7.3} ms  p90 {:>7.3} ms  p99 {:>7.3} ms  ({} transactions, {} errors)",
            self.connections,
            self.target_rps,
            self.achieved_rps,
            self.median_latency_ms,
            self.p90_latency_ms,
            self.p99_latency_ms,
            self.transactions,
            self.errors
        )
    }
}

/// The process's open-file-descriptor budget (the `RLIMIT_NOFILE` soft
/// limit).  The sweep clamps its connection count to this; callers use it
/// to decide whether client *and* server sockets fit one process or the
/// server must run in a separate process.
pub fn fd_budget() -> usize {
    polling::open_file_limit().map(|l| l as usize).unwrap_or(1024)
}

/// One connection of the high-connection sweep.
struct SweepConn {
    stream: TcpStream,
    /// Prebuilt keep-alive request (head + body), reused verbatim.
    request: Vec<u8>,
    /// Unwritten tail of the current request.
    out_pos: usize,
    /// Request bytes are (partially) unsent.
    sending: bool,
    /// Response accumulation buffer.
    buf: Vec<u8>,
    /// Send timestamp of the in-flight request.
    in_flight_since: Option<Instant>,
    /// The connection is dead (error / closed by peer).
    dead: bool,
}

/// Parse `content-length` out of a response head (the sweep only talks to
/// rvsim-net, which always sends it).
fn response_content_length(head: &[u8]) -> Option<usize> {
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else { continue };
        if line[..colon].eq_ignore_ascii_case(b"content-length") {
            return std::str::from_utf8(&line[colon + 1..]).ok()?.trim().parse().ok();
        }
    }
    None
}

/// Whether `buf` holds one complete response; returns its total length.
fn complete_response_len(buf: &[u8]) -> Option<usize> {
    let head_end = rvsim_net::find_head_end(buf)?;
    let body = response_content_length(&buf[..head_end])?;
    (buf.len() >= head_end + body).then_some(head_end + body)
}

/// Hold `options.connections` keep-alive connections open against the front
/// end at `addr` while pacing `options.target_rps` aggregate `GetState`
/// requests across them from a single event-driven thread (mirroring the
/// server's own event loop, and costing one fd — not one thread — per
/// connection, which is what makes a 10k-user sweep possible at all).
///
/// Run the same options with different `connections` values to draw the
/// latency-vs-connections curve: on a healthy event-loop front end it is
/// flat, because idle keep-alive connections cost a slab slot and an epoll
/// registration rather than a parked worker thread.
pub fn run_high_connection_test(
    addr: SocketAddr,
    options: &HighConnectionOptions,
) -> Result<HighConnectionReport, String> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::io::{Read, Write};

    // Clamp to the fd budget: the process needs one fd per connection plus
    // slack for the poller, the session client and stdio.
    let budget = fd_budget();
    let target_connections = options.connections.clamp(1, budget.saturating_sub(64).max(1));

    // A few shared sessions, each stepped once so the served state is
    // non-trivial; every sweep request afterwards hits an unchanged cycle.
    let mut setup = rvsim_net::TcpApiClient::new(addr);
    let mut sessions = Vec::new();
    for _ in 0..options.sessions.max(1) {
        match setup
            .call(&Request::CreateSession {
                program: sample_program_loop(),
                architecture: None,
                entry: None,
                session: None,
            })
            .map_err(|e| format!("session setup failed: {e}"))?
        {
            Response::SessionCreated { session } => {
                setup
                    .call(&Request::Step { session, cycles: 8 })
                    .map_err(|e| format!("session warm-up failed: {e}"))?;
                sessions.push(session);
            }
            other => return Err(format!("unexpected setup response {other:?}")),
        }
    }

    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut errors = 0u64;
    let mut conns: Vec<SweepConn> = Vec::with_capacity(target_connections);
    for i in 0..target_connections {
        let stream = match TcpStream::connect(addr) {
            Ok(stream) => stream,
            Err(_) => {
                // The front end (or the fd budget) said no: hold what we got.
                errors += 1;
                break;
            }
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            errors += 1;
            continue;
        }
        let body = serde_json::to_vec(&Request::GetState { session: sessions[i % sessions.len()] })
            .expect("requests serialize");
        let mut request =
            format!("POST /api HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len()).into_bytes();
        request.extend_from_slice(&body);
        poller
            .register(stream.as_raw_fd(), i, Interest::READABLE)
            .map_err(|e| format!("register: {e}"))?;
        conns.push(SweepConn {
            stream,
            request,
            out_pos: 0,
            sending: false,
            buf: Vec::new(),
            in_flight_since: None,
            dead: false,
        });
    }
    if conns.is_empty() {
        return Err("no connections could be opened".to_string());
    }
    let achieved_connections = conns.len();

    // Pace: each connection fires every `connections / target_rps` seconds,
    // phase-shifted so the aggregate arrival process is smooth.
    let period = Duration::from_secs_f64(achieved_connections as f64 / options.target_rps.max(1.0));
    let started = Instant::now();
    let warmup_end = started + options.warmup;
    let end = warmup_end + options.duration;
    let mut due: BinaryHeap<Reverse<(Instant, usize)>> = (0..achieved_connections)
        .map(|i| {
            Reverse((started + Duration::from_secs_f64(i as f64 / options.target_rps.max(1.0)), i))
        })
        .collect();

    let hist = Histogram::new();
    let mut events = Events::with_capacity(1024);
    let mut scratch: Vec<usize> = Vec::new();
    let mut read_chunk = [0u8; 16 * 1024];

    while Instant::now() < end {
        let now = Instant::now();
        let timeout = due
            .peek()
            .map(|Reverse((t, _))| t.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(10))
            .min(end.saturating_duration_since(now))
            .min(Duration::from_millis(50));
        let _ = poller.wait(&mut events, Some(timeout));

        scratch.clear();
        scratch.extend(events.iter().map(|e| e.token));
        for &token in &scratch {
            let conn = &mut conns[token];
            if conn.dead {
                continue;
            }
            // Flush a partially written request first.
            if conn.sending {
                match conn.stream.write(&conn.request[conn.out_pos..]) {
                    Ok(n) => {
                        conn.out_pos += n;
                        if conn.out_pos == conn.request.len() {
                            conn.sending = false;
                            let _ = poller.reregister(
                                conn.stream.as_raw_fd(),
                                token,
                                Interest::READABLE,
                            );
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        conn.dead = true;
                        errors += 1;
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                        continue;
                    }
                }
            }
            // Drain whatever the server sent.
            loop {
                match conn.stream.read(&mut read_chunk) {
                    Ok(0) => {
                        conn.dead = true;
                        if conn.in_flight_since.is_some() {
                            errors += 1;
                        }
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                        break;
                    }
                    Ok(n) => conn.buf.extend_from_slice(&read_chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        errors += 1;
                        let _ = poller.deregister(conn.stream.as_raw_fd());
                        break;
                    }
                }
            }
            if let Some(total) = complete_response_len(&conn.buf) {
                conn.buf.drain(..total);
                if let Some(sent_at) = conn.in_flight_since.take() {
                    let finished = Instant::now();
                    if sent_at >= warmup_end && finished <= end {
                        hist.record(finished.duration_since(sent_at).as_micros() as u64);
                    }
                }
            }
        }

        // Fire every connection whose pacing slot has arrived.
        let now = Instant::now();
        while let Some(&Reverse((when, token))) = due.peek() {
            if when > now {
                break;
            }
            due.pop();
            let conn = &mut conns[token];
            if conn.dead {
                continue; // dead connections leave the pacing wheel
            }
            if conn.in_flight_since.is_some() || conn.sending {
                // Previous request still outstanding: slip this slot rather
                // than pipelining (one in flight per connection keeps the
                // latency attribution clean).
                due.push(Reverse((now + period, token)));
                continue;
            }
            conn.in_flight_since = Some(now);
            conn.out_pos = 0;
            match conn.stream.write(&conn.request) {
                Ok(n) if n == conn.request.len() => {}
                Ok(n) => {
                    conn.out_pos = n;
                    conn.sending = true;
                    let _ = poller.reregister(conn.stream.as_raw_fd(), token, Interest::BOTH);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conn.sending = true;
                    let _ = poller.reregister(conn.stream.as_raw_fd(), token, Interest::BOTH);
                }
                Err(_) => {
                    conn.dead = true;
                    errors += 1;
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                    continue;
                }
            }
            due.push(Reverse((when + period, token)));
        }
    }

    for session in sessions {
        let _ = setup.call(&Request::DestroySession { session });
    }

    let snapshot = hist.snapshot();
    let transactions = snapshot.count();
    let duration = options.duration.as_secs_f64();
    Ok(HighConnectionReport {
        requested_connections: options.connections,
        connections: achieved_connections,
        target_rps: options.target_rps,
        achieved_rps: if duration > 0.0 { transactions as f64 / duration } else { 0.0 },
        transactions,
        errors,
        median_latency_ms: snapshot.p50_us() / 1e3,
        p90_latency_ms: snapshot.p90_us() / 1e3,
        p99_latency_ms: snapshot.p99_us() / 1e3,
        max_latency_ms: snapshot.max_us() as f64 / 1e3,
        duration_seconds: duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_server::{DeploymentConfig, DeploymentMode, SimulationServer};

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

    /// Create `count` sessions on the sample loop program, each stepped
    /// `warm` cycles.
    fn sessions(addr: SocketAddr, count: usize, warm: u64) -> Vec<u64> {
        let mut setup = rvsim_net::TcpApiClient::new(addr);
        (0..count)
            .map(|_| {
                let created = setup.call(&Request::CreateSession {
                    program: sample_program_loop(),
                    architecture: None,
                    entry: None,
                    session: None,
                });
                let Ok(Response::SessionCreated { session }) = created else {
                    panic!("unexpected {created:?}");
                };
                if warm > 0 {
                    setup.call(&Request::Step { session, cycles: warm }).unwrap();
                }
                session
            })
            .collect()
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
        let s = Scenario::paper(30);
        assert_eq!(s.users, 30);
        assert_eq!(s.steps_per_user, 40);
        assert_eq!(s.ramp_up_seconds, 4.0);
        assert_eq!(s.think_time_seconds, 1.0);
        assert_eq!(s.programs.len(), 2);
        let scaled = Scenario::paper_scaled(100, 0.01);
        assert_eq!(scaled.users, 100);
        assert!(scaled.ramp_up() < Duration::from_millis(100));
    }

    #[test]
    fn small_load_test_produces_sane_report() {
        let Some(net) = front_end(true) else { return };
        let mut scenario = Scenario::paper_scaled(4, 0.0);
        scenario.steps_per_user = 5;
        let report = run_load_test_tcp(net.local_addr(), &scenario);
        // 4 users × (1 create + 5 × (step + state) + 1 destroy) = 48 requests.
        assert_eq!(report.transactions, 48);
        assert_eq!(report.errors, 0);
        assert!(report.median_latency_ms >= 0.0);
        assert!(report.p90_latency_ms >= report.median_latency_ms);
        assert!(report.max_latency_ms >= report.p99_latency_ms, "p99 is clamped to the max");
        assert!(report.throughput_tps > 0.0);
        assert!(report.table_row("Direct").contains("4 users"));
        net.shutdown();
    }

    #[test]
    fn more_users_than_workers_still_completes_without_errors() {
        let Some(net) = front_end(false) else { return };
        let mut scenario = Scenario::paper_scaled(12, 0.0);
        scenario.steps_per_user = 3;
        scenario.fetch_state_each_step = false;
        let report = run_load_test_tcp(net.local_addr(), &scenario);
        assert_eq!(report.errors, 0);
        assert_eq!(report.transactions, (12 * (3 + 2)) as u64);
        net.shutdown();
    }

    #[test]
    fn delta_mode_completes_with_no_errors() {
        let Some(net) = front_end(true) else { return };
        let mut scenario = Scenario::paper_scaled(3, 0.0);
        scenario.steps_per_user = 6;
        scenario.delta_state = true;
        let report = run_load_test_tcp(net.local_addr(), &scenario);
        // Same request count as full mode: 3 × (create + 6 × (step + fetch) + destroy).
        assert_eq!(report.transactions, 42);
        assert_eq!(report.errors, 0, "delta fetches must all succeed");
        net.shutdown();
    }

    #[test]
    fn tcp_transport_runs_the_same_scenario_with_no_errors() {
        let Some(net) = front_end(true) else { return };
        for delta in [false, true] {
            let mut scenario = Scenario::paper_scaled(3, 0.0);
            scenario.steps_per_user = 4;
            scenario.delta_state = delta;
            let report = run_load_test_tcp(net.local_addr(), &scenario);
            // 3 users × (create + 4 × (step + fetch) + destroy).
            assert_eq!(report.transactions, 30, "delta={delta}");
            assert_eq!(report.errors, 0, "delta={delta}");
            assert!(report.p90_latency_ms >= report.median_latency_ms);
        }
        net.shutdown();
    }

    #[test]
    fn high_connection_sweep_completes_with_no_errors() {
        let Some(net) = front_end(true) else { return };
        let options = HighConnectionOptions {
            connections: 64,
            target_rps: 400.0,
            warmup: Duration::from_millis(100),
            duration: Duration::from_millis(600),
            sessions: 2,
        };
        let report = run_high_connection_test(net.local_addr(), &options).expect("sweep runs");
        assert_eq!(report.connections, 64, "all requested connections are held");
        assert_eq!(report.errors, 0, "no request may fail");
        assert!(report.transactions > 0, "paced requests must complete");
        assert!(report.p90_latency_ms >= report.median_latency_ms);
        assert!(report.table_row().contains("64 conns"));
        // The shared sessions mean nearly every request hit the cached
        // GetState payload.
        assert!(net.server().shared_state_serve_count() > 0);
        net.shutdown();
    }

    #[test]
    fn cached_state_fanout_counts_requests_without_errors() {
        let Some(net) = front_end(true) else { return };
        let sessions = sessions(net.local_addr(), 2, 4);
        let report =
            run_cached_state_fanout(&[(net.local_addr(), sessions)], 2, Duration::from_millis(300));
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
        let missing = 424_242;
        let report = run_cached_state_fanout(
            &[(net.local_addr(), vec![missing])],
            1,
            Duration::from_millis(100),
        );
        assert!(report.errors > 0, "{report:?}");
        assert_eq!(report.requests, 0, "{report:?}");
        net.shutdown();
    }

    #[test]
    fn step_load_advances_sessions_and_reports_a_clean_error_ratio() {
        let Some(net) = front_end(true) else { return };
        let sessions = sessions(net.local_addr(), 3, 0);
        let mut setup = rvsim_net::TcpApiClient::new(net.local_addr());
        let report = run_step_load(net.local_addr(), &sessions, 2, Duration::from_millis(300));
        assert!(report.requests > 0);
        assert_eq!(report.errors, 0);
        assert_eq!(report.error_ratio(), 0.0);
        assert!(report.errors_by_second.iter().all(|&e| e == 0));
        // The load actually advanced state: every session left cycle 0.
        for &session in &sessions {
            match setup.call(&Request::GetState { session }).unwrap() {
                Response::State(snapshot) => assert!(snapshot.cycle > 0),
                other => panic!("unexpected {other:?}"),
            }
        }
        net.shutdown();
    }

    #[test]
    fn error_ratio_and_buckets_account_for_failures() {
        let report = FanoutReport {
            requests: 90,
            errors: 10,
            errors_by_second: vec![0, 10, 0],
            wall_seconds: 3.0,
            median_latency_ms: 0.5,
            p99_latency_ms: 2.0,
            max_latency_ms: 3.5,
        };
        assert!((report.error_ratio() - 0.1).abs() < 1e-12);
        let empty = FanoutReport {
            requests: 0,
            errors: 0,
            errors_by_second: Vec::new(),
            wall_seconds: 0.0,
            median_latency_ms: 0.0,
            p99_latency_ms: 0.0,
            max_latency_ms: 0.0,
        };
        assert_eq!(empty.error_ratio(), 0.0);

        let mut total = vec![1, 2];
        merge_buckets(&mut total, &[0, 1, 5]);
        assert_eq!(total, vec![1, 3, 5]);

        // Old serialized reports (no buckets, no latency columns) still
        // deserialize; the missing fields default to empty/zero.
        let legacy: FanoutReport =
            serde_json::from_str(r#"{"requests":5,"errors":1,"wall_seconds":1.0}"#).unwrap();
        assert!(legacy.errors_by_second.is_empty());
        assert_eq!(legacy.p99_latency_ms, 0.0);
        assert_eq!(legacy.max_latency_ms, 0.0);
    }

    #[test]
    fn response_scan_helpers_parse_heads() {
        let head = b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 4\r\n\r\n";
        assert_eq!(response_content_length(head), Some(4));
        let mut full = head.to_vec();
        assert_eq!(complete_response_len(&full), None, "body missing");
        full.extend_from_slice(b"ok!\n");
        assert_eq!(complete_response_len(&full), Some(full.len()));
        assert_eq!(response_content_length(b"HTTP/1.1 200 OK\r\n\r\n"), None);
    }

    #[test]
    fn bad_program_counts_as_errors_but_does_not_panic() {
        let Some(net) = front_end(false) else { return };
        let scenario = Scenario {
            users: 2,
            steps_per_user: 2,
            ramp_up_seconds: 0.0,
            think_time_seconds: 0.0,
            programs: vec!["main:\n  bogus\n".to_string()],
            time_scale: 0.0,
            fetch_state_each_step: false,
            delta_state: false,
        };
        let report = run_load_test_tcp(net.local_addr(), &scenario);
        assert_eq!(report.errors, 2, "each user fails once at session creation");
        net.shutdown();
    }
}
