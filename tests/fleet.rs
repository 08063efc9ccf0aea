//! Router-tier fleet tests over loopback: backends and a consistent-hash
//! router in this process, driven by `rvsim_loadgen::run`.
//!
//! * Scale-out: emulated-remote backends (each sleeps a fixed service time
//!   per request, so backends overlap on one host the way separate machines
//!   would) behind a router; 2 and 4 backends must each beat 1.
//! * Durability: two checkpointing backends share a state directory behind
//!   a router; one is killed mid-load, and every session must come back.
//!
//! Live drain under load is covered by `crates/net/tests/router_loopback.rs`.
//! Every test skips when the sandbox forbids loopback sockets.

use riscv_superscalar_sim::loadgen::{self, Load, LoadReport, Mix, Pacing};
use riscv_superscalar_sim::net::{self, ApiHandler, NetConfig, NetServer, Router, TcpApiClient};
use riscv_superscalar_sim::prelude::{ArchitectureConfig, Simulator};
use riscv_superscalar_sim::server::{
    CheckpointConfig, DeploymentConfig, DeploymentMode, Request, Response, SimulationServer,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request service time of an emulated remote backend, in µs.
const SERVICE_TIME_US: u64 = 1_500;

/// Sessions placed on each backend.
const SESSIONS_PER_BACKEND: usize = 4;

/// Checkpoint cadence of the durability fleet.
const CHECKPOINT_INTERVAL: Duration = Duration::from_millis(250);

/// A long-running mixed workload: the loop count is large enough that a
/// session never halts within a test, so every `Step` advances the cycle
/// counter and every `GetState` captures real in-flight state.
fn program_server() -> String {
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

fn loopback_available() -> bool {
    match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(_) => true,
        Err(e) => {
            eprintln!("skipping fleet test: cannot bind 127.0.0.1: {e}");
            false
        }
    }
}

fn deployment(mode: DeploymentMode) -> DeploymentConfig {
    DeploymentConfig { mode, compress_responses: true, idle_session_ttl_seconds: None }
}

/// One backend front end: one event loop, two dispatch workers.
fn start_backend(server: SimulationServer, housekeeping_interval: Duration) -> NetServer {
    let config = NetConfig {
        event_loops: 1,
        dispatch_workers: 2,
        housekeeping_interval,
        ..NetConfig::default()
    };
    NetServer::start(server, config).expect("backend starts")
}

/// A router front end over `backends`, returned with the handler (the
/// tests ask it for ring placements and failover reports).
fn start_router(
    backends: &[NetServer],
    dispatch_workers: usize,
    housekeeping_interval: Duration,
) -> (NetServer, Arc<Router>) {
    let router = Arc::new(Router::new(backends.iter().map(|b| b.local_addr()).collect()));
    let config = NetConfig {
        event_loops: 1,
        dispatch_workers,
        housekeeping_interval,
        ..NetConfig::default()
    };
    let front = NetServer::start_with_handler(Arc::clone(&router) as Arc<dyn ApiHandler>, config)
        .expect("router starts");
    (front, router)
}

/// Create and warm `per_backend` sessions on each backend behind the router
/// at `addr`, with explicit ids picked by ring placement.  Id `j` of the
/// result is owned by backend `j % backends`, so a [`Mix`] that deals the
/// ids out to a multiple of `backends` connections pins each connection to
/// one backend.
fn balanced_sessions(
    addr: SocketAddr,
    router: &Router,
    backends: usize,
    per_backend: usize,
) -> Vec<u64> {
    let mut owned: Vec<Vec<u64>> = vec![Vec::new(); backends];
    let mut candidate = net::ROUTER_SESSION_BASE + 10_000_000;
    while owned.iter().any(|list| list.len() < per_backend) {
        if let Some(owner) = router.placement(candidate) {
            if owned[owner].len() < per_backend {
                owned[owner].push(candidate);
            }
        }
        candidate += 1;
    }
    let ids = (0..per_backend).flat_map(|i| owned.iter().map(move |list| Some(list[i])));
    loadgen::create_sessions(addr, &program_server(), ids).expect("sessions warm up")
}

fn closed_loop(connections: usize, mix: Mix, duration: Duration) -> Load {
    Load { connections, pacing: Pacing::ClosedLoop, mix, duration }
}

/// `backends` emulated nodes behind a router, saturated for `duration` with
/// two closed-loop cached-`GetState` connections per backend's session set:
/// enough concurrency to overlap every backend's service time, little
/// enough client work that the host spends its cycles serving.
fn scaling_point(backends: usize, duration: Duration) -> LoadReport {
    let fleet: Vec<NetServer> = (0..backends)
        .map(|_| {
            let mode = DeploymentMode::RemoteEmulated { service_time_us: SERVICE_TIME_US };
            start_backend(SimulationServer::new(deployment(mode)), Duration::from_secs(1))
        })
        .collect();
    let (front, router) = start_router(&fleet, (4 * backends).max(8), Duration::from_secs(1));
    let ids = balanced_sessions(front.local_addr(), &router, backends, SESSIONS_PER_BACKEND);
    let report =
        loadgen::run(front.local_addr(), &closed_loop(2 * backends, Mix::GetState(ids), duration));
    front.shutdown();
    for backend in fleet {
        backend.shutdown();
    }
    report
}

#[test]
fn two_and_four_backends_each_beat_one() {
    if !loopback_available() {
        return;
    }
    let points: Vec<(usize, LoadReport)> = [1, 2, 4]
        .into_iter()
        .map(|backends| (backends, scaling_point(backends, Duration::from_millis(400))))
        .collect();
    for (backends, report) in &points {
        println!("{}", report.table_row(&format!("{backends} backends")));
        assert_eq!(report.errors, 0, "fleet of {backends} saw errors: {report:?}");
        assert!(report.requests > 0, "fleet of {backends} served nothing: {report:?}");
    }
    let one = points[0].1.rps();
    for (backends, report) in &points[1..] {
        let speedup = report.rps() / one;
        assert!(speedup > 1.0, "{backends} backends must beat 1: {speedup:.2}x, {points:?}");
    }
}

#[test]
fn durability_recovers_every_session_after_a_kill() {
    if !loopback_available() {
        return;
    }
    let state_dir =
        std::env::temp_dir().join(format!("rvsim-fleet-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    // The periodic checkpoint sweep rides the housekeeping tick; tick faster
    // than the checkpoint interval so the cadence is interval-bound.
    let mut fleet: Vec<NetServer> = (0..2)
        .map(|_| {
            let checkpoints = CheckpointConfig {
                state_dir: state_dir.clone(),
                interval: CHECKPOINT_INTERVAL,
                dirty_cycles: 0,
            };
            let server =
                SimulationServer::with_checkpoints(deployment(DeploymentMode::Direct), checkpoints)
                    .expect("state dir opens");
            start_backend(server, Duration::from_millis(100))
        })
        .collect();
    // Fast health probes: two consecutive misses flip a backend dead, so
    // detection lands within ~2 ticks of the kill.
    let (front, router) = start_router(&fleet, 8, Duration::from_millis(250));
    let addr = front.local_addr();
    let sessions = balanced_sessions(addr, &router, 2, SESSIONS_PER_BACKEND);
    let victim = fleet.remove(0);
    let survivor = fleet.remove(0);
    let on_victim = victim.server().session_count();
    assert!(on_victim > 0, "the killed backend must hold sessions");

    // Kill backend 0 a third of the way into a stepping-load window.
    let window = Duration::from_secs(3);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(window / 3);
        victim.shutdown();
    });
    let report = loadgen::run(addr, &closed_loop(4, Mix::Step(sessions.clone()), window));
    killer.join().expect("kill thread");
    println!("{}", report.table_row("durability"));
    println!("errors by second: {:?}", report.errors_by_second);
    assert!(report.requests > 0, "the load must have run: {report:?}");
    // The crash is a bounded burst, not a smear: the last second of the
    // window is clean.
    assert_eq!(
        report.errors_by_second.last(),
        Some(&0),
        "errors must stop before the window ends: {report:?}"
    );

    // The router must have detected the death and run recovery by now; give
    // it a short grace period in case the kill landed late in the window.
    let deadline = Instant::now() + Duration::from_secs(10);
    let failover = loop {
        if let Some(failover) = router.last_failover() {
            break failover;
        }
        assert!(Instant::now() < deadline, "router never reported a failover");
        std::thread::sleep(Duration::from_millis(50));
    };
    // Staleness is bounded by the checkpoint cadence plus scheduling slack:
    // order seconds, never the whole run.
    let max_staleness_ms = failover.recovered.iter().map(|r| r.staleness_ms).max().unwrap_or(0);
    assert!(max_staleness_ms < 10_000, "staleness out of bounds: {max_staleness_ms} ms");

    // Every warmed session still answers through the router.
    let mut client = TcpApiClient::new(addr);
    let lost: Vec<u64> = sessions
        .iter()
        .copied()
        .filter(|&session| {
            !matches!(client.call(&Request::GetState { session }), Ok(Response::State(_)))
        })
        .collect();
    println!(
        "{} of {} sessions recovered ({on_victim} were on the killed backend), \
         max staleness {max_staleness_ms} ms",
        sessions.len() - lost.len(),
        sessions.len()
    );
    assert!(lost.is_empty(), "sessions lost after the kill: {lost:?}");

    front.shutdown();
    survivor.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn server_program_runs_long() {
    // The fleet workload must not halt within a test window: a halted
    // session would freeze its cycle counter and turn a stepping load into
    // a cached-refresh one.
    let mut sim = Simulator::from_assembly(&program_server(), &ArchitectureConfig::default())
        .expect("server program assembles");
    for _ in 0..5_000 {
        sim.step();
    }
    assert!(!sim.is_halted(), "server program halted too early");
}
