//! Shared workloads and helpers for the benchmark harness.
//!
//! Every bench target in `benches/` regenerates one artefact of the paper's
//! evaluation (the bench file's doc names its experiment).  The helpers here
//! provide the sample programs, server/scenario constructors and the
//! table-style printing used across the benches so that each bench file
//! focuses on its experiment.

#![warn(missing_docs)]

use rvsim_core::{ArchitectureConfig, Simulator};
use rvsim_mem::{ArrayFill, MemoryArray, MemorySettings, ScalarType};
use rvsim_server::{DeploymentConfig, DeploymentMode, SimulationServer};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Arithmetic loop used as the "program 1" interactive workload.
pub fn program_arithmetic() -> String {
    rvsim_loadgen::sample_program_loop()
}

/// Memory-heavy workload ("program 2").
pub fn program_memory() -> String {
    rvsim_loadgen::sample_program_memory()
}

/// A mid-size mixed kernel used for snapshot/JSON measurements: keeps the
/// pipeline full so snapshots contain plenty of in-flight state.
pub fn program_mixed() -> String {
    "
data:
    .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
main:
    la   t0, data
    li   t1, 16
    li   a0, 0
    li   a1, 1
loop:
    lw   t2, 0(t0)
    mul  t3, t2, a1
    add  a0, a0, t3
    addi a1, a1, 1
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, loop
    ret
"
    .to_string()
}

/// A floating-point kernel (dot product) for FLOP-heavy sweeps.
pub fn program_float() -> String {
    "
a:
    .float 1.5, 2.0, 0.5, 4.0, 3.25, 0.75, 2.5, 1.0
b:
    .float 2.0, 3.0, 8.0, 0.25, 1.0, 4.0, 0.5, 2.0
main:
    la   t0, a
    la   t1, b
    li   t2, 8
    fmv.w.x fa0, x0
loop:
    flw  ft0, 0(t0)
    flw  ft1, 0(t1)
    fmadd.s fa0, ft0, ft1, fa0
    addi t0, t0, 4
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, loop
    fcvt.w.s a0, fa0
    ret
"
    .to_string()
}

/// Build a simulator for `program` on `config`, panicking on any error.
pub fn simulator(program: &str, config: &ArchitectureConfig) -> Simulator {
    Simulator::from_assembly(program, config).expect("benchmark program assembles")
}

/// Run `program` to completion on `config` and return (cycles, IPC).
pub fn run_to_completion(program: &str, config: &ArchitectureConfig) -> (u64, f64) {
    let mut sim = simulator(program, config);
    sim.run(10_000_000).expect("benchmark program runs");
    let stats = sim.statistics();
    (stats.cycles, stats.ipc())
}

// ---------------------------------------------------------------------------
// Pipeline-throughput benchmark harness (retired instructions per host second)
// ---------------------------------------------------------------------------

/// One benchmark program plus the memory arrays it expects.
pub struct Workload {
    /// Short display name ("quicksort", "arithmetic", …).
    pub name: &'static str,
    /// Assembly source (already compiled for C workloads).
    pub assembly: String,
    /// Memory Settings arrays referenced by the program.
    pub memory: MemorySettings,
}

/// Recursive quicksort over a 32-element array, compiled from the same C
/// source the paper uses for validation (§IV).  Returns the assembly and the
/// unsorted input array as a Memory Settings workload.
pub fn workload_quicksort() -> Workload {
    const QUICKSORT_C: &str = r#"
extern int data[];

void swap(int a[], int i, int j) {
    int t = a[i];
    a[i] = a[j];
    a[j] = t;
}

int partition(int a[], int lo, int hi) {
    int pivot = a[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {
        if (a[j] <= pivot) {
            i++;
            swap(a, i, j);
        }
    }
    swap(a, i + 1, hi);
    return i + 1;
}

void quicksort(int a[], int lo, int hi) {
    if (lo < hi) {
        int p = partition(a, lo, hi);
        quicksort(a, lo, p - 1);
        quicksort(a, p + 1, hi);
    }
}

int main(void) {
    quicksort(data, 0, 31);
    int sum = 0;
    for (int i = 0; i < 32; i++) {
        sum += data[i] * (i + 1);
    }
    return sum;
}
"#;
    let values: Vec<f64> = vec![
        93.0, 7.0, 55.0, 12.0, 88.0, 3.0, 41.0, 67.0, 25.0, 99.0, 4.0, 73.0, 18.0, 62.0, 31.0,
        80.0, 9.0, 46.0, 58.0, 2.0, 77.0, 36.0, 14.0, 91.0, 28.0, 65.0, 50.0, 6.0, 84.0, 21.0,
        70.0, 39.0,
    ];
    let mut memory = MemorySettings::new();
    memory.add(MemoryArray {
        name: "data".to_string(),
        element: ScalarType::Word,
        alignment: 16,
        fill: ArrayFill::Values(values),
    });
    let output =
        rvsim_cc::compile(QUICKSORT_C, rvsim_cc::OptLevel::O2).expect("quicksort compiles");
    Workload { name: "quicksort", assembly: output.assembly, memory }
}

/// The benchmark suite measured by `pipeline_throughput` and
/// `rvsim-cli bench`: quicksort plus the paper's sample programs.
pub fn pipeline_workloads() -> Vec<Workload> {
    let plain = |name, assembly| Workload { name, assembly, memory: MemorySettings::new() };
    vec![
        workload_quicksort(),
        plain("arithmetic", program_arithmetic()),
        plain("memory", program_memory()),
        plain("mixed", program_mixed()),
        plain("float", program_float()),
    ]
}

/// The processor presets the throughput benchmark sweeps: single-issue,
/// the default 2-wide machine and the aggressive 4-wide machine.
pub fn pipeline_bench_configs() -> Vec<ArchitectureConfig> {
    vec![ArchitectureConfig::scalar(), ArchitectureConfig::default(), ArchitectureConfig::wide()]
}

/// One measured (workload, configuration) cell of the pipeline-throughput
/// benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSample {
    /// Workload name.
    pub workload: String,
    /// Architecture configuration name.
    pub config: String,
    /// Fetch width of the configuration (1 / 2 / 4).
    pub fetch_width: usize,
    /// Instructions committed by one complete run of the program.
    pub committed_per_run: u64,
    /// Simulated cycles of one complete run.
    pub cycles_per_run: u64,
    /// Complete runs executed during the measurement window.
    pub runs: u64,
    /// Host wall-clock seconds spent simulating.
    pub wall_seconds: f64,
    /// Retired (committed) instructions per host second — the headline metric.
    pub retired_per_second: f64,
    /// Simulated cycles per host second.
    pub cycles_per_second: f64,
    /// Instructions per cycle of the simulated machine (sanity statistic).
    pub ipc: f64,
}

/// Measure retired-instructions-per-host-second for one workload on one
/// configuration.  The program is run to completion repeatedly (via
/// [`Simulator::reset`]) until `min_wall_seconds` of measurement have
/// accumulated; at least one run always happens.
pub fn measure_pipeline(
    workload: &Workload,
    config: &ArchitectureConfig,
    min_wall_seconds: f64,
) -> PipelineSample {
    let mut sim =
        Simulator::from_assembly_with_memory(&workload.assembly, config, workload.memory.clone())
            .expect("benchmark workload assembles");

    // Warm-up run: validates termination and fills caches/allocations.
    let warm = sim.run(50_000_000).expect("benchmark workload runs");
    assert!(
        !matches!(warm.halt, rvsim_core::HaltReason::MaxCyclesReached),
        "workload {} did not terminate",
        workload.name
    );
    let stats = sim.statistics();
    let (committed_per_run, cycles_per_run) = (stats.committed, stats.cycles);

    let mut runs = 0u64;
    let start = Instant::now();
    loop {
        sim.reset();
        sim.run(50_000_000).expect("benchmark workload runs");
        runs += 1;
        if start.elapsed().as_secs_f64() >= min_wall_seconds {
            break;
        }
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let retired = committed_per_run * runs;
    PipelineSample {
        workload: workload.name.to_string(),
        config: config.name.clone(),
        fetch_width: config.buffers.fetch_width,
        committed_per_run,
        cycles_per_run,
        runs,
        wall_seconds,
        retired_per_second: retired as f64 / wall_seconds,
        cycles_per_second: (cycles_per_run * runs) as f64 / wall_seconds,
        ipc: committed_per_run as f64 / cycles_per_run as f64,
    }
}

/// Run the full pipeline-throughput matrix (workloads × configurations).
pub fn run_pipeline_bench(min_wall_seconds: f64) -> Vec<PipelineSample> {
    let mut samples = Vec::new();
    for workload in pipeline_workloads() {
        for config in pipeline_bench_configs() {
            samples.push(measure_pipeline(&workload, &config, min_wall_seconds));
        }
    }
    samples
}

// ---------------------------------------------------------------------------
// Server-throughput benchmark harness (the paper's request-path measurements)
// ---------------------------------------------------------------------------

/// Long-running mixed workload for server-side request benchmarks.  The loop
/// count is large enough that a session never halts within a measurement
/// window, so every `Step` advances the cycle counter and every `GetState`
/// captures a pipeline with real in-flight state (ROB entries, renames,
/// cache lines).
pub fn program_server() -> String {
    "
data:
    .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
main:
    la   t0, data
    li   t1, 4000000
    li   a0, 0
    li   a1, 1
loop:
    lw   t2, 0(t0)
    mul  t3, t2, a1
    add  a0, a0, t3
    sw   a0, 32(t0)
    addi a1, a1, 1
    andi t4, a1, 60
    add  t0, t0, t4
    sub  t0, t0, t4
    addi t1, t1, -1
    bnez t1, loop
    ret
"
    .to_string()
}

/// One measured raw-request scenario (server-side work only, no worker pool).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawRequestSample {
    /// Scenario name: `get_state` (repeated snapshot fetch of an unchanged
    /// session — the GUI's refresh pattern) or `step_state` (step one cycle,
    /// then fetch — the interactive stepping pattern; every fetch captures a
    /// changed machine).
    pub scenario: String,
    /// Whether response compression was enabled.
    pub compressed: bool,
    /// `GetState` requests completed in the measurement window.
    pub requests: u64,
    /// Wall-clock seconds of the measurement window.  For `step_state` this
    /// includes the untimed `Step` request preceding each fetch, so the
    /// derived rate is the sustained step+fetch interaction rate — only the
    /// `get_state` scenario measures pure serve throughput.
    pub wall_seconds: f64,
    /// `GetState` requests completed per wall-clock second of the scenario
    /// loop (see [`Self::wall_seconds`] for what the window includes) — the
    /// headline metric.
    pub requests_per_second: f64,
    /// Median `GetState` latency in microseconds (the fetch alone is timed,
    /// in every scenario).
    pub p50_us: f64,
    /// 90th-percentile `GetState` latency in microseconds.
    pub p90_us: f64,
    /// Encoded response payload size in bytes (last response).
    pub payload_bytes: u64,
}

/// One load-generator row (paper scenario over loopback TCP).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerLoadSample {
    /// Concurrent simulated users.
    pub users: usize,
    /// Whether response compression was enabled.
    pub compressed: bool,
    /// Snapshot fetch mode: `full` (`GetState` every step) or `delta`
    /// (`GetStateDelta` against the previously seen cycle).
    pub mode: String,
    /// The Table-I-style report.
    pub report: rvsim_loadgen::LoadTestReport,
}

/// Complete server-throughput report (`BENCH_server.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerBenchReport {
    /// Raw request-path samples.
    pub raw: Vec<RawRequestSample>,
    /// Load-generator samples over the TCP/HTTP front end (`rvsim-net`,
    /// loopback).  Empty when the environment forbids loopback sockets.
    #[serde(default)]
    pub tcp: Vec<ServerLoadSample>,
    /// High-connection sweep: the same aggregate request rate paced over
    /// growing numbers of keep-alive connections (the event-loop front
    /// end's latency-vs-connections curve).  Populated by
    /// `rvsim-cli bench --server --high-connections`; empty otherwise.
    #[serde(default)]
    pub high_connection: Vec<rvsim_loadgen::HighConnectionReport>,
    /// Multi-node scale-out: aggregate cached-`GetState` throughput through
    /// the router tier over growing backend fleets, plus a drain-under-load
    /// measurement.  Populated by `rvsim-cli bench --server --multi-node`;
    /// `None` otherwise (and when loopback is unavailable).
    #[serde(default)]
    pub multi_node: Option<MultiNodeSection>,
    /// Crash-durability measurement: a backend is killed under stepping
    /// load and its checkpointed sessions fail over to the survivor.
    /// Populated by `rvsim-cli bench --server --durability`; `None`
    /// otherwise (and when loopback is unavailable).
    #[serde(default)]
    pub durability: Option<DurabilitySection>,
    /// Observability overhead: measured cost of the tracing primitives on
    /// the request hot path, plus the headline before/after check against
    /// the previously committed report.
    #[serde(default)]
    pub observability: Option<ObservabilitySection>,
}

impl ServerBenchReport {
    /// Requests/s of the headline cell (`get_state`, compressed), if present.
    pub fn headline_get_state_rps(&self) -> Option<f64> {
        self.raw
            .iter()
            .find(|s| s.scenario == "get_state" && s.compressed)
            .map(|s| s.requests_per_second)
    }
}

/// Knobs of the server benchmark.
#[derive(Debug, Clone)]
pub struct ServerBenchOptions {
    /// Minimum measurement window per raw cell, in seconds.
    pub min_seconds: f64,
    /// Load-generator time scale (1.0 = paper timing).
    pub time_scale: f64,
    /// User counts the load generator sweeps.
    pub users: Vec<usize>,
}

impl Default for ServerBenchOptions {
    fn default() -> Self {
        ServerBenchOptions { min_seconds: 0.5, time_scale: 0.05, users: vec![1, 8, 32] }
    }
}

fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Create a direct (pool-less) server with one warmed-up session on the
/// server workload and return both.
pub fn raw_bench_server(compress: bool) -> (SimulationServer, u64) {
    let server = SimulationServer::new(DeploymentConfig {
        mode: DeploymentMode::Direct,
        compress_responses: compress,
        idle_session_ttl_seconds: None,
    });
    let create = serde_json::to_vec(&rvsim_server::Request::CreateSession {
        program: program_server(),
        architecture: None,
        entry: None,
        session: None,
    })
    .expect("request serializes");
    let payload = server.handle_raw(&create);
    let response = rvsim_server::decode_response(&payload).expect("create decodes");
    let session = match response {
        rvsim_server::Response::SessionCreated { session } => session,
        other => panic!("unexpected create response {other:?}"),
    };
    // Warm the pipeline so snapshots contain real in-flight state.
    let step = serde_json::to_vec(&rvsim_server::Request::Step { session, cycles: 64 }).unwrap();
    server.handle_raw(&step);
    (server, session)
}

fn measure_raw(scenario: &str, compress: bool, min_seconds: f64) -> RawRequestSample {
    let (server, session) = raw_bench_server(compress);
    let state_req = serde_json::to_vec(&rvsim_server::Request::GetState { session }).unwrap();
    let step_req = serde_json::to_vec(&rvsim_server::Request::Step { session, cycles: 1 }).unwrap();

    let mut latencies_us: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        if scenario == "step_state" {
            server.handle_raw(&step_req);
        }
        let t0 = Instant::now();
        server.handle_raw(&state_req);
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if start.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    // Representative payload size, measured outside the timing window.
    let payload_bytes = server.handle_raw(&state_req).len() as u64;
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let requests = latencies_us.len() as u64;
    RawRequestSample {
        scenario: scenario.to_string(),
        compressed: compress,
        requests,
        wall_seconds,
        requests_per_second: requests as f64 / wall_seconds,
        p50_us: percentile_us(&latencies_us, 0.5),
        p90_us: percentile_us(&latencies_us, 0.9),
        payload_bytes,
    }
}

/// Run the full server-throughput benchmark: raw `GetState` request path
/// (with and without compression, cached and stepping patterns) and the
/// paper's load-test scenario over `options.users` user counts through the
/// TCP/HTTP front end on loopback.
pub fn run_server_bench(options: &ServerBenchOptions) -> ServerBenchReport {
    let mut raw = Vec::new();
    for compress in [true, false] {
        for scenario in ["get_state", "step_state"] {
            raw.push(measure_raw(scenario, compress, options.min_seconds));
        }
    }
    ServerBenchReport {
        raw,
        tcp: run_tcp_load_bench(options),
        high_connection: Vec::new(),
        multi_node: None,
        durability: None,
        observability: Some(run_observability_bench()),
    }
}

/// The TCP section of the server benchmark: the paper scenario through
/// `rvsim-net` over loopback, one keep-alive connection per user.  Returns
/// an empty section (after a note on stderr) when loopback sockets are
/// unavailable, so the benchmark still completes in locked-down sandboxes.
pub fn run_tcp_load_bench(options: &ServerBenchOptions) -> Vec<ServerLoadSample> {
    let mut tcp = Vec::new();
    for &users in &options.users {
        for mode in ["full", "delta"] {
            let deployment = DeploymentConfig {
                mode: DeploymentMode::Direct,
                compress_responses: true,
                idle_session_ttl_seconds: None,
            };
            let net_config = rvsim_net::NetConfig {
                // One keep-alive connection per user: the event loop carries
                // them all; cap connections with headroom for stragglers.
                max_connections: users + 16,
                ..rvsim_net::NetConfig::default()
            };
            let net =
                match rvsim_net::NetServer::start(SimulationServer::new(deployment), net_config) {
                    Ok(net) => net,
                    Err(e) => {
                        eprintln!("skipping TCP load section: cannot bind loopback: {e}");
                        return Vec::new();
                    }
                };
            let mut scenario = rvsim_loadgen::Scenario::paper_scaled(users, options.time_scale);
            scenario.programs = vec![program_server()];
            scenario.delta_state = mode == "delta";
            let report = rvsim_loadgen::run_load_test_tcp(net.local_addr(), &scenario);
            net.shutdown();
            tcp.push(ServerLoadSample { users, compressed: true, mode: mode.to_string(), report });
        }
    }
    tcp
}

// ---------------------------------------------------------------------------
// Multi-node scale-out benchmark (router tier over emulated remote backends)
// ---------------------------------------------------------------------------

/// One point of the multi-node scaling sweep: `backends` emulated nodes
/// behind one router, saturated with cached-`GetState` fan-out clients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiNodeScalingSample {
    /// Backend processes behind the router.
    pub backends: usize,
    /// Warmed sessions spread across the fleet.
    pub sessions: usize,
    /// Requests completed in the window.
    pub requests: u64,
    /// Failed requests (must be 0 on a healthy fleet).
    pub errors: u64,
    /// Measurement window in seconds.
    pub wall_seconds: f64,
    /// Aggregate throughput in requests per second — the scaling metric.
    pub aggregate_rps: f64,
}

/// The drain-under-load measurement: clients hammer the fleet while one
/// backend is live-drained.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiNodeDrainSample {
    /// Sessions on the drained backend when the drain started.
    pub sessions: usize,
    /// Sessions the drain migrated.
    pub migrated: usize,
    /// Sessions the drain failed to move.
    pub failed: usize,
    /// Client requests completed while the drain ran.
    pub requests: u64,
    /// Client-visible errors during the drain (the headline: must be 0).
    pub errors: u64,
    /// Measurement window in seconds.
    pub wall_seconds: f64,
}

/// The `multi_node` section of `BENCH_server.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiNodeSection {
    /// Per-request service time each emulated backend sleeps, in
    /// microseconds.  The host is often a single core, so real CPU-bound
    /// backends cannot scale on it; sleeping backends overlap exactly the
    /// way network-separated nodes would, which is what the router tier is
    /// being measured on.
    pub emulated_service_time_us: u64,
    /// One sample per backend count.
    pub scaling: Vec<MultiNodeScalingSample>,
    /// `aggregate_rps` of the largest fleet over the single-backend fleet.
    pub speedup_1_to_max: f64,
    /// Drain-under-load sample (real `Direct` backends, no sleep emulation).
    #[serde(default)]
    pub drain: Option<MultiNodeDrainSample>,
}

/// How long each emulated backend sleeps per request in the scaling sweep.
pub const MULTI_NODE_SERVICE_TIME_US: u64 = 1_500;

/// Sessions placed per backend in the scaling sweep.
const SESSIONS_PER_BACKEND: usize = 4;

/// Start one emulated remote backend: a real `rvsim-net` front end whose
/// server sleeps [`MULTI_NODE_SERVICE_TIME_US`] per request, so a fleet of
/// them overlaps on one host the way separate machines would.
fn start_emulated_backend() -> std::io::Result<rvsim_net::NetServer> {
    rvsim_net::NetServer::start(
        SimulationServer::new(DeploymentConfig {
            mode: DeploymentMode::RemoteEmulated { service_time_us: MULTI_NODE_SERVICE_TIME_US },
            compress_responses: true,
            idle_session_ttl_seconds: None,
        }),
        rvsim_net::NetConfig {
            event_loops: 1,
            dispatch_workers: 2,
            ..rvsim_net::NetConfig::default()
        },
    )
}

/// Start a router front end over `backends`, returning the handler too (the
/// benchmark asks it for ring placements).
fn start_router(
    backends: &[rvsim_net::NetServer],
    dispatch_workers: usize,
) -> std::io::Result<(rvsim_net::NetServer, std::sync::Arc<rvsim_net::Router>)> {
    let router = std::sync::Arc::new(rvsim_net::Router::new(
        backends.iter().map(|b| b.local_addr()).collect(),
    ));
    let front = rvsim_net::NetServer::start_with_handler(
        std::sync::Arc::clone(&router) as std::sync::Arc<dyn rvsim_net::ApiHandler>,
        rvsim_net::NetConfig {
            event_loops: 1,
            dispatch_workers,
            ..rvsim_net::NetConfig::default()
        },
    )?;
    Ok((front, router))
}

/// Pick explicit session ids whose ring placement is balanced: `per_backend`
/// ids owned by each backend, scanning upward from a fixed base.
fn balanced_session_ids(
    router: &rvsim_net::Router,
    backends: usize,
    per_backend: usize,
) -> Vec<Vec<u64>> {
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); backends];
    let mut candidate = rvsim_net::ROUTER_SESSION_BASE + 10_000_000;
    while ids.iter().any(|list| list.len() < per_backend) {
        if let Some(owner) = router.placement(candidate) {
            if ids[owner].len() < per_backend {
                ids[owner].push(candidate);
            }
        }
        candidate += 1;
    }
    ids
}

/// Create and warm the given sessions through the router.
fn warm_sessions(addr: std::net::SocketAddr, ids: &[u64]) -> Result<(), String> {
    let mut client = rvsim_net::TcpApiClient::new(addr);
    for &session in ids {
        match client.call(&rvsim_server::Request::CreateSession {
            program: program_server(),
            architecture: None,
            entry: None,
            session: Some(session),
        })? {
            rvsim_server::Response::SessionCreated { session: created } if created == session => {}
            other => return Err(format!("unexpected create response {other:?}")),
        }
        match client.call(&rvsim_server::Request::Step { session, cycles: 8 })? {
            rvsim_server::Response::Stepped { .. } => {}
            other => return Err(format!("unexpected step response {other:?}")),
        }
    }
    Ok(())
}

/// One scaling point: `backends` emulated nodes behind a router, saturated
/// for `seconds` with per-backend fan-out client pairs.
fn measure_multi_node_point(
    backends: usize,
    seconds: f64,
) -> Result<MultiNodeScalingSample, String> {
    let fleet: Vec<rvsim_net::NetServer> = (0..backends)
        .map(|_| start_emulated_backend())
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("cannot start backend: {e}"))?;
    let (front, router) = start_router(&fleet, (4 * backends).max(8))
        .map_err(|e| format!("cannot start router: {e}"))?;
    let addr = front.local_addr();

    let per_backend = balanced_session_ids(&router, backends, SESSIONS_PER_BACKEND);
    for ids in &per_backend {
        warm_sessions(addr, ids)?;
    }

    // Two closed-loop clients per backend's session set: enough concurrency
    // to overlap every backend's emulated service time, few enough threads
    // that the (possibly single-core) host spends its cycles serving.
    let targets: Vec<(std::net::SocketAddr, Vec<u64>)> =
        per_backend.iter().map(|ids| (addr, ids.clone())).collect();
    let report = rvsim_loadgen::run_cached_state_fanout(
        &targets,
        2,
        std::time::Duration::from_secs_f64(seconds),
    );

    let sample = MultiNodeScalingSample {
        backends,
        sessions: backends * SESSIONS_PER_BACKEND,
        requests: report.requests,
        errors: report.errors,
        wall_seconds: report.wall_seconds,
        aggregate_rps: report.rps(),
    };
    front.shutdown();
    for backend in fleet {
        backend.shutdown();
    }
    Ok(sample)
}

/// Drain-under-load: two real (`Direct`) backends behind a router, client
/// threads hammering every session while backend 0 is live-drained.
fn measure_multi_node_drain(seconds: f64) -> Result<MultiNodeDrainSample, String> {
    let fleet: Vec<rvsim_net::NetServer> = (0..2)
        .map(|_| {
            rvsim_net::NetServer::start(
                SimulationServer::new(DeploymentConfig {
                    mode: DeploymentMode::Direct,
                    compress_responses: true,
                    idle_session_ttl_seconds: None,
                }),
                rvsim_net::NetConfig {
                    event_loops: 1,
                    dispatch_workers: 2,
                    ..rvsim_net::NetConfig::default()
                },
            )
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("cannot start backend: {e}"))?;
    let (front, router) =
        start_router(&fleet, 8).map_err(|e| format!("cannot start router: {e}"))?;
    let addr = front.local_addr();

    let per_backend = balanced_session_ids(&router, 2, SESSIONS_PER_BACKEND);
    for ids in &per_backend {
        warm_sessions(addr, ids)?;
    }
    let all_ids: Vec<u64> = per_backend.iter().flatten().copied().collect();

    // Fire the drain from a side thread a third of the way into the window,
    // while the fan-out clients are at full speed.
    let drain = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(seconds / 3.0));
        rvsim_net::http_post(
            addr,
            "/admin/drain",
            br#"{"backend":0}"#,
            std::time::Duration::from_secs(60),
        )
    });
    let report = rvsim_loadgen::run_cached_state_fanout(
        &[(addr, all_ids.clone())],
        4,
        std::time::Duration::from_secs_f64(seconds),
    );
    let (status, body) = drain.join().expect("drain thread").map_err(|e| format!("drain: {e}"))?;
    if status != 200 {
        return Err(format!("drain answered {status}: {}", String::from_utf8_lossy(&body)));
    }
    let drain_report: rvsim_net::DrainReport =
        serde_json::from_slice(&body).map_err(|e| format!("drain report: {e}"))?;

    let sample = MultiNodeDrainSample {
        sessions: drain_report.sessions,
        migrated: drain_report.migrated,
        failed: drain_report.failed.len(),
        requests: report.requests,
        errors: report.errors,
        wall_seconds: report.wall_seconds,
    };
    front.shutdown();
    for backend in fleet {
        backend.shutdown();
    }
    Ok(sample)
}

// ---------------------------------------------------------------------------
// Crash durability: kill a backend under stepping load, measure recovery.
// ---------------------------------------------------------------------------

/// The `durability` section of `BENCH_server.json`: two checkpointing
/// backends share a state directory behind a router; one is killed a third
/// of the way into a stepping-load window and the router re-owns its
/// sessions on the survivor from their last checkpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DurabilitySection {
    /// Periodic checkpoint cadence the backends ran with, in milliseconds.
    /// Recovery staleness is bounded by this (plus one in-flight write).
    pub checkpoint_interval_ms: u64,
    /// Warmed sessions across the fleet.
    pub sessions: usize,
    /// Sessions resident on the backend that was killed.
    pub sessions_on_killed_backend: usize,
    /// Sessions serving through the router after the crash (the headline:
    /// must equal `sessions`).
    pub recovered: usize,
    /// Sessions that no longer answered after the crash (must be 0).
    pub lost: usize,
    /// Worst restore staleness the router reported, in milliseconds.
    pub max_staleness_ms: u64,
    /// Client requests completed during the load window.
    pub requests: u64,
    /// Client-visible errors during the window (the crash burst).
    pub errors: u64,
    /// Errors bucketed by elapsed second: a burst around the kill followed
    /// by zeros is the breaker + failover working; a smear is not.
    pub errors_by_second: Vec<u64>,
    /// Requests the router fast-failed while a breaker was open (these are
    /// *contained* failures — no timeout was inflicted on the client).
    pub breaker_fast_fails: u64,
    /// Load-window duration in seconds.
    pub wall_seconds: f64,
}

/// Checkpoint cadence of the durability measurement.
pub const DURABILITY_CHECKPOINT_INTERVAL_MS: u64 = 250;

/// Run the crash-durability measurement for (at least) `seconds`: warm a
/// balanced session fleet over two checkpointing backends, kill backend 0
/// a third of the way into a stepping-load window, and report how many
/// sessions survived, how stale they came back and what the clients felt.
/// Returns `None` (after a note on stderr) when loopback is unavailable or
/// the fleet cannot start.
pub fn run_durability_bench(seconds: f64) -> Option<DurabilitySection> {
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping durability section: loopback unavailable");
        return None;
    }
    match measure_durability(seconds.max(3.0)) {
        Ok(section) => Some(section),
        Err(e) => {
            eprintln!("skipping durability section: {e}");
            None
        }
    }
}

fn measure_durability(seconds: f64) -> Result<DurabilitySection, String> {
    let state_dir =
        std::env::temp_dir().join(format!("rvsim-bench-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let mut fleet: Vec<rvsim_net::NetServer> = Vec::new();
    for _ in 0..2 {
        let server = SimulationServer::with_checkpoints(
            DeploymentConfig {
                mode: DeploymentMode::Direct,
                compress_responses: true,
                idle_session_ttl_seconds: None,
            },
            rvsim_server::CheckpointConfig {
                state_dir: state_dir.clone(),
                interval: std::time::Duration::from_millis(DURABILITY_CHECKPOINT_INTERVAL_MS),
                dirty_cycles: 0,
            },
        )
        .map_err(|e| format!("cannot open state dir: {e}"))?;
        let net = rvsim_net::NetServer::start(
            server,
            rvsim_net::NetConfig {
                event_loops: 1,
                dispatch_workers: 2,
                // The periodic checkpoint sweep rides the housekeeping tick;
                // tick faster than the checkpoint interval so the cadence is
                // interval-bound, not tick-bound.
                housekeeping_interval: std::time::Duration::from_millis(100),
                ..rvsim_net::NetConfig::default()
            },
        )
        .map_err(|e| format!("cannot start backend: {e}"))?;
        fleet.push(net);
    }
    let router =
        std::sync::Arc::new(rvsim_net::Router::new(fleet.iter().map(|b| b.local_addr()).collect()));
    let front = rvsim_net::NetServer::start_with_handler(
        std::sync::Arc::clone(&router) as std::sync::Arc<dyn rvsim_net::ApiHandler>,
        rvsim_net::NetConfig {
            event_loops: 1,
            dispatch_workers: 8,
            // Fast health probes: two consecutive misses flip a backend dead,
            // so detection lands within ~2 ticks of the kill.
            housekeeping_interval: std::time::Duration::from_millis(250),
            ..rvsim_net::NetConfig::default()
        },
    )
    .map_err(|e| format!("cannot start router: {e}"))?;
    let addr = front.local_addr();

    let per_backend = balanced_session_ids(&router, 2, SESSIONS_PER_BACKEND);
    for ids in &per_backend {
        warm_sessions(addr, ids)?;
    }
    let all_ids: Vec<u64> = per_backend.iter().flatten().copied().collect();
    let victim = fleet.remove(0);
    let survivor = fleet.remove(0);
    let sessions_on_killed_backend = victim.server().session_count();

    // Kill backend 0 a third of the way into the stepping-load window.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs_f64(seconds / 3.0));
        victim.shutdown();
    });
    let report = rvsim_loadgen::run_step_load(
        addr,
        &all_ids,
        4,
        std::time::Duration::from_secs_f64(seconds),
    );
    killer.join().expect("kill thread");

    // The router must have detected the death and run recovery by now; give
    // it a short grace period in case the kill landed late in the window.
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let failover = loop {
        if let Some(failover) = router.last_failover() {
            break failover;
        }
        if Instant::now() >= deadline {
            return Err("router never reported a failover".to_string());
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let max_staleness_ms = failover.recovered.iter().map(|r| r.staleness_ms).max().unwrap_or(0);

    // The acceptance check: every warmed session still answers.
    let mut client = rvsim_net::TcpApiClient::new(addr);
    let mut recovered = 0usize;
    for &session in &all_ids {
        if matches!(
            client.call(&rvsim_server::Request::GetState { session }),
            Ok(rvsim_server::Response::State(_))
        ) {
            recovered += 1;
        }
    }

    let section = DurabilitySection {
        checkpoint_interval_ms: DURABILITY_CHECKPOINT_INTERVAL_MS,
        sessions: all_ids.len(),
        sessions_on_killed_backend,
        recovered,
        lost: all_ids.len() - recovered,
        max_staleness_ms,
        requests: report.requests,
        errors: report.errors,
        errors_by_second: report.errors_by_second.clone(),
        breaker_fast_fails: router.breaker_fast_fail_count(),
        wall_seconds: report.wall_seconds,
    };
    front.shutdown();
    survivor.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(section)
}

/// Run the multi-node scale-out benchmark: one scaling point per backend
/// count in `backend_counts` (each measured for `seconds`), plus the
/// drain-under-load sample.  Returns `None` (after a note on stderr) when
/// loopback sockets are unavailable.
pub fn run_multi_node_bench(backend_counts: &[usize], seconds: f64) -> Option<MultiNodeSection> {
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping multi-node section: loopback unavailable");
        return None;
    }
    let mut scaling = Vec::new();
    for &backends in backend_counts {
        match measure_multi_node_point(backends.max(1), seconds) {
            Ok(sample) => scaling.push(sample),
            Err(e) => {
                eprintln!("skipping multi-node section: {e}");
                return None;
            }
        }
    }
    let speedup = match (scaling.first(), scaling.last()) {
        (Some(first), Some(last)) if first.aggregate_rps > 0.0 => {
            last.aggregate_rps / first.aggregate_rps
        }
        _ => 0.0,
    };
    let drain = match measure_multi_node_drain((seconds * 1.5).max(1.0)) {
        Ok(sample) => Some(sample),
        Err(e) => {
            eprintln!("multi-node drain sample failed: {e}");
            None
        }
    };
    Some(MultiNodeSection {
        emulated_service_time_us: MULTI_NODE_SERVICE_TIME_US,
        scaling,
        speedup_1_to_max: speedup,
        drain,
    })
}

// ---------------------------------------------------------------------------
// Observability overhead: what the request tracing costs per operation.
// ---------------------------------------------------------------------------

/// The `observability` section of `BENCH_server.json`: measured cost of
/// each tracing primitive on the request hot path, the estimated
/// per-request total, and the headline before/after check against the
/// previously committed report (the baseline fields are filled in by
/// `rvsim-cli bench --server`, which knows the old file).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObservabilitySection {
    /// One lock-free histogram record — a handful of relaxed atomic RMWs —
    /// in ns/op.  A traced request performs five of these (four phases at
    /// the front end, one endpoint at the backend).
    pub histogram_record_ns: f64,
    /// One journal append (seqlock ring-buffer write), in ns/op.  Off the
    /// fast path: only slow or failed requests are journaled.
    pub journal_record_ns: f64,
    /// Minting one request id at the edge (atomic increment + bit mix),
    /// in ns/op.
    pub mint_request_id_ns: f64,
    /// One monotonic clock sample, in ns/op.  A traced request takes four
    /// (the phase boundaries).
    pub clock_sample_ns: f64,
    /// Estimated added cost per fully-traced request in ns: four clock
    /// samples, five histogram records and one id mint.  An upper bound —
    /// the sub-microsecond cached-serve fast paths sample their endpoint
    /// timing 1-in-16, paying only a relaxed counter bump on untimed
    /// requests.
    pub per_request_overhead_ns: f64,
    /// Headline cached-GetState requests/s of the previously committed
    /// report (`None` on a first run with no baseline to compare against).
    #[serde(default)]
    pub baseline_headline_get_state_rps: Option<f64>,
    /// This run's headline relative to the baseline: `now / before - 1`
    /// (negative = slower).  The observability budget is |delta| ≤ 5%.
    #[serde(default)]
    pub headline_delta_ratio: Option<f64>,
    /// 32-user full-snapshot TCP p90 of the previously committed report, in
    /// milliseconds.
    #[serde(default)]
    pub baseline_load_p90_ms: Option<f64>,
    /// This run's 32-user full-snapshot p90 relative to the baseline.
    #[serde(default)]
    pub load_p90_delta_ratio: Option<f64>,
}

fn measure_ns_per_op(mut op: impl FnMut()) -> f64 {
    const WARMUP: u32 = 10_000;
    const ITERS: u32 = 1_000_000;
    for _ in 0..WARMUP {
        op();
    }
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        op();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

/// Measure the tracing primitives in tight single-thread loops.  Cheap (a
/// few ms total) and steady enough for a smoke-level budget check; the
/// authoritative overhead number is the headline delta against the
/// committed baseline, which exercises the real request path.
pub fn run_observability_bench() -> ObservabilitySection {
    let hist = rvsim_obs::Histogram::new();
    let mut sample = 0u64;
    let histogram_record_ns = measure_ns_per_op(|| {
        sample = sample.wrapping_add(997);
        hist.record(sample & 0xFFFF);
    });

    let journal = rvsim_obs::Journal::new(4096);
    let ts = journal.now_us();
    let journal_record_ns = measure_ns_per_op(|| {
        journal.record(
            rvsim_obs::Event::new(rvsim_obs::EventKind::Request, ts).request(1).fields(200, 120),
        );
    });

    let observer = rvsim_obs::Observer::new(64);
    let mut sink = 0u64;
    let mint_request_id_ns = measure_ns_per_op(|| {
        sink = sink.wrapping_add(observer.mint_request_id());
    });
    std::hint::black_box(sink);

    let mut clock_sink = std::time::Instant::now();
    let clock_sample_ns = measure_ns_per_op(|| {
        clock_sink = std::time::Instant::now();
    });
    std::hint::black_box(clock_sink);

    ObservabilitySection {
        histogram_record_ns,
        journal_record_ns,
        mint_request_id_ns,
        clock_sample_ns,
        per_request_overhead_ns: 4.0 * clock_sample_ns
            + 5.0 * histogram_record_ns
            + mint_request_id_ns,
        baseline_headline_get_state_rps: None,
        headline_delta_ratio: None,
        baseline_load_p90_ms: None,
        load_p90_delta_ratio: None,
    }
}

/// Print a paper-style table header once per bench run.
pub fn print_header(title: &str, columns: &str) {
    println!();
    println!("=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().max(40)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmark_programs_terminate() {
        let config = ArchitectureConfig::default();
        for program in [program_arithmetic(), program_memory(), program_mixed(), program_float()] {
            let (cycles, ipc) = run_to_completion(&program, &config);
            assert!(cycles > 10);
            assert!(ipc > 0.0);
        }
    }

    #[test]
    fn pipeline_bench_harness_measures_all_cells() {
        // A tiny measurement window keeps this a smoke test; the real numbers
        // come from `rvsim-cli bench` / the pipeline_throughput bench.
        let workloads = pipeline_workloads();
        assert!(workloads.iter().any(|w| w.name == "quicksort"));
        let sample = measure_pipeline(&workloads[1], &ArchitectureConfig::scalar(), 0.0);
        assert!(sample.committed_per_run > 100);
        assert!(sample.retired_per_second > 0.0);
        assert!(sample.runs >= 1);
        assert_eq!(sample.fetch_width, 1);
        let json = serde_json::to_string(&sample).unwrap();
        let back: PipelineSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sample);
    }

    #[test]
    fn quicksort_workload_sorts_and_checksums() {
        let w = workload_quicksort();
        let mut sim = Simulator::from_assembly_with_memory(
            &w.assembly,
            &ArchitectureConfig::default(),
            w.memory.clone(),
        )
        .unwrap();
        sim.run(50_000_000).unwrap();
        // Checksum of the sorted array: sum(a[i] * (i+1)) for the fixed input.
        let mut sorted = vec![
            93i64, 7, 55, 12, 88, 3, 41, 67, 25, 99, 4, 73, 18, 62, 31, 80, 9, 46, 58, 2, 77, 36,
            14, 91, 28, 65, 50, 6, 84, 21, 70, 39,
        ];
        sorted.sort_unstable();
        let expected: i64 = sorted.iter().enumerate().map(|(i, v)| v * (i as i64 + 1)).sum();
        assert_eq!(sim.int_register(10), expected);
    }

    #[test]
    fn server_bench_harness_measures_all_cells() {
        let options = ServerBenchOptions { min_seconds: 0.0, time_scale: 0.0, users: vec![2] };
        let report = run_server_bench(&options);
        // 2 scenarios × compression on/off.
        assert_eq!(report.raw.len(), 4);
        for s in &report.raw {
            assert!(s.requests >= 1);
            assert!(s.requests_per_second > 0.0);
            assert!(s.p90_us >= s.p50_us);
            assert!(s.payload_bytes > 0);
        }
        let compressed = report
            .raw
            .iter()
            .find(|s| s.scenario == "get_state" && s.compressed)
            .expect("compressed get_state cell");
        let plain = report
            .raw
            .iter()
            .find(|s| s.scenario == "get_state" && !s.compressed)
            .expect("plain get_state cell");
        assert!(
            compressed.payload_bytes < plain.payload_bytes,
            "compression must shrink the state payload ({} vs {})",
            compressed.payload_bytes,
            plain.payload_bytes
        );
        assert!(report.headline_get_state_rps().unwrap() > 0.0);
        // The TCP section runs the paper scenario over loopback; when the
        // sandbox forbids loopback sockets it is empty (and said so on
        // stderr), never failing the raw request-path benchmark.
        if !report.tcp.is_empty() {
            assert_eq!(report.tcp.len(), 2, "full + delta per user count");
            assert!(report.tcp.iter().all(|l| l.report.errors == 0));
            assert!(report.tcp.iter().all(|l| l.report.transactions > 0));
        }
        let json = serde_json::to_string(&report).unwrap();
        let back: ServerBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.raw, report.raw);
        // A pre-TCP report (no `tcp` key, an in-process `load` section)
        // still deserializes.
        let legacy: ServerBenchReport = serde_json::from_str(r#"{"raw":[],"load":[]}"#).unwrap();
        assert!(legacy.tcp.is_empty());
    }

    #[test]
    fn durability_bench_recovers_every_session_after_a_kill() {
        if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
            eprintln!("skipping durability smoke test: loopback unavailable");
            return;
        }
        let section = run_durability_bench(3.0).expect("loopback was available");
        assert!(section.sessions > 0);
        assert!(
            section.sessions_on_killed_backend > 0,
            "the killed backend must have held sessions: {section:?}"
        );
        assert_eq!(section.lost, 0, "no session may be lost: {section:?}");
        assert_eq!(section.recovered, section.sessions);
        assert!(section.requests > 0, "the load must have run");
        // Staleness is bounded by the checkpoint cadence plus scheduling
        // slack — order seconds, never the whole run.
        assert!(
            section.max_staleness_ms < 10_000,
            "staleness out of bounds: {} ms",
            section.max_staleness_ms
        );
        // The crash is a bounded burst, not a smear: the last bucket of the
        // window is clean (the breaker opened and failover re-owned the
        // sessions well before the window closed).
        if let Some(&last) = section.errors_by_second.last() {
            assert_eq!(last, 0, "errors must stop before the window ends: {section:?}");
        }
        let json = serde_json::to_string(&section).unwrap();
        let back: DurabilitySection = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sessions, section.sessions);
    }

    #[test]
    fn multi_node_bench_scales_and_drains_cleanly() {
        if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
            eprintln!("skipping multi-node smoke test: loopback unavailable");
            return;
        }
        let section = run_multi_node_bench(&[1, 2], 0.4).expect("loopback was available");
        assert_eq!(section.scaling.len(), 2);
        for sample in &section.scaling {
            assert_eq!(sample.errors, 0, "fleet of {} saw errors", sample.backends);
            assert!(sample.requests > 0);
            assert!(sample.aggregate_rps > 0.0);
        }
        assert!(section.speedup_1_to_max > 1.0, "2 backends must beat 1: {section:?}");
        let drain = section.drain.as_ref().expect("drain sample on loopback");
        assert_eq!(drain.errors, 0, "drain must be invisible to clients");
        assert_eq!(drain.failed, 0);
        assert_eq!(drain.migrated, drain.sessions);
        assert!(drain.requests > 0);
        let json = serde_json::to_string(&section).unwrap();
        let back: MultiNodeSection = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scaling.len(), section.scaling.len());
    }

    #[test]
    fn server_bench_program_runs_long() {
        // The server workload must not halt within any realistic measurement
        // window: a halted session would freeze the cycle counter and turn
        // the step_state scenario into a cached-refresh measurement.
        let mut sim = simulator(&program_server(), &ArchitectureConfig::default());
        for _ in 0..5_000 {
            sim.step();
        }
        assert!(!sim.is_halted(), "server bench program halted too early");
    }
}
