//! End-to-end router-tier tests: two real backend [`NetServer`]s plus a
//! [`Router`] front end on `127.0.0.1`, driven through [`TcpApiClient`].
//! Every test skips gracefully when the sandbox forbids loopback sockets.

use rvsim_net::{http_get, http_post, DrainReport, NetConfig, NetServer, Router, TcpApiClient};
use rvsim_server::{
    CheckpointConfig, DeploymentConfig, DeploymentMode, Request, Response, SimulationServer,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 4000
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    mv   a0, t0
    ret
";

fn loopback_available() -> bool {
    match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(_) => true,
        Err(e) => {
            eprintln!("skipping loopback test: cannot bind 127.0.0.1: {e}");
            false
        }
    }
}

fn start_backend() -> NetServer {
    let deployment = DeploymentConfig {
        mode: DeploymentMode::Direct,
        compress_responses: true,
        idle_session_ttl_seconds: None,
    };
    NetServer::start(SimulationServer::new(deployment), NetConfig::default())
        .expect("backend starts")
}

fn start_router(backends: &[&NetServer]) -> NetServer {
    let router = Router::new(backends.iter().map(|b| b.local_addr()).collect());
    NetServer::start_with_handler(Arc::new(router), NetConfig::default()).expect("router starts")
}

fn create_session(client: &mut TcpApiClient) -> u64 {
    match client
        .call(&Request::CreateSession {
            program: PROGRAM.into(),
            architecture: None,
            entry: None,
            session: None,
        })
        .expect("create succeeds")
    {
        Response::SessionCreated { session } => session,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn a_deeply_nested_body_is_an_error_at_a_backend_and_at_the_router() {
    if !loopback_available() {
        return;
    }
    let backend = start_backend();
    let router = start_router(&[&backend]);
    // Both tiers parse every body into a JSON tree.  Unbounded recursion
    // would overflow a dispatch worker's stack and abort the process.
    let body = [vec![b'['; 100_000], vec![b']'; 100_000]].concat();
    for addr in [backend.local_addr(), router.local_addr()] {
        let (_, payload) =
            http_post(addr, "/api", &body, Duration::from_secs(10)).expect("the body is answered");
        assert!(rvsim_server::is_error_payload(&payload), "{addr}: {payload:?}");
        let mut client = TcpApiClient::new(addr);
        assert!(create_session(&mut client) > 0, "{addr} still serves");
    }
    router.shutdown();
    backend.shutdown();
}

#[test]
fn router_spreads_sessions_and_proxies_the_protocol() {
    if !loopback_available() {
        return;
    }
    let b0 = start_backend();
    let b1 = start_backend();
    let router = start_router(&[&b0, &b1]);
    let mut client = TcpApiClient::new(router.local_addr());

    let sessions: Vec<u64> = (0..16).map(|_| create_session(&mut client)).collect();
    for &session in &sessions {
        assert!(session >= rvsim_net::ROUTER_SESSION_BASE, "router must number sessions");
        let r = client.call(&Request::Step { session, cycles: 5 }).unwrap();
        assert_eq!(r, Response::Stepped { cycle: 5, halted: false });
        match client.call(&Request::GetState { session }).unwrap() {
            Response::State(snapshot) => assert_eq!(snapshot.cycle, 5),
            other => panic!("unexpected {other:?}"),
        }
    }
    let (on_b0, on_b1) = (b0.server().session_count(), b1.server().session_count());
    assert_eq!(on_b0 + on_b1, 16, "every session lives on exactly one backend");
    assert!(on_b0 > 0 && on_b1 > 0, "the ring must use both backends ({on_b0}/{on_b1})");

    // The aggregated list sees every session, whichever backend holds it.
    match client.call(&Request::ListSessions).unwrap() {
        Response::SessionList { sessions: listed } => {
            let mut expected = sessions.clone();
            expected.sort_unstable();
            assert_eq!(listed, expected);
        }
        other => panic!("unexpected {other:?}"),
    }

    // Router metrics are served by the same front end.
    let (status, body) = http_get(router.local_addr(), "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("rvsim_router_backends 2"), "{text}");
    assert!(text.contains("rvsim_router_backend_up{backend=\"0\"} 1"), "{text}");
    assert!(text.contains("rvsim_http_requests_total"), "{text}");
    rvsim_obs::validate_exposition(&text).expect("router metrics are valid 0.0.4 exposition");

    router.shutdown();
    b0.shutdown();
    b1.shutdown();
}

#[test]
fn drain_migrates_live_sessions_without_client_visible_errors() {
    if !loopback_available() {
        return;
    }
    let b0 = start_backend();
    let b1 = start_backend();
    let router = start_router(&[&b0, &b1]);
    let addr = router.local_addr();

    let mut client = TcpApiClient::new(addr);
    let sessions: Vec<u64> = (0..12).map(|_| create_session(&mut client)).collect();
    for &session in &sessions {
        let r = client.call(&Request::Step { session, cycles: 3 }).unwrap();
        assert_eq!(r, Response::Stepped { cycle: 3, halted: false });
    }
    let before_b0 = b0.server().session_count();
    assert!(before_b0 > 0, "backend 0 must hold some sessions for the drain to move");

    // Clients keep hammering the sessions while the drain runs.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut threads = Vec::new();
    for chunk in sessions.chunks(4) {
        let chunk = chunk.to_vec();
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let mut client = TcpApiClient::new(addr);
            let mut requests = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                for &session in &chunk {
                    let response = client
                        .call(&Request::GetState { session })
                        .unwrap_or_else(|e| panic!("transport failed mid-drain: {e}"));
                    assert!(
                        matches!(response, Response::State(_)),
                        "client saw an error mid-drain: {response:?}"
                    );
                    requests += 1;
                }
            }
            requests
        }));
    }

    std::thread::sleep(Duration::from_millis(100));
    let (status, body) =
        http_post(addr, "/admin/drain", br#"{"backend":0}"#, Duration::from_secs(30)).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let report: DrainReport = serde_json::from_slice(&body).unwrap();
    assert_eq!(report.backend, 0);
    assert_eq!(report.sessions, before_b0);
    assert_eq!(report.migrated, before_b0, "failed: {:?}", report.failed);
    assert!(report.failed.is_empty());

    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Release);
    let served: u64 = threads.into_iter().map(|t| t.join().expect("no client errors")).sum();
    assert!(served > 0);

    // Every session now lives on backend 1, with its state intact.
    assert_eq!(b0.server().session_count(), 0, "backend 0 must be empty after the drain");
    assert_eq!(b1.server().session_count(), sessions.len());
    for &session in &sessions {
        match client.call(&Request::GetState { session }).unwrap() {
            Response::State(snapshot) => assert_eq!(snapshot.cycle, 3, "state survived the move"),
            other => panic!("unexpected {other:?}"),
        }
    }

    // A second drain of the same backend is refused.
    let (status, _body) =
        http_post(addr, "/admin/drain", br#"{"backend":0}"#, Duration::from_secs(5)).unwrap();
    assert_eq!(status, 409);

    // Unknown control endpoints still 404 through the dispatch path.
    let (status, body) = http_post(addr, "/admin/nope", b"{}", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 404);
    assert!(String::from_utf8_lossy(&body).contains("no such endpoint"));

    router.shutdown();
    b0.shutdown();
    b1.shutdown();
}

/// Request ids of every `slow_request` event in one front end's journal,
/// via `GET /admin/trace` (threshold 0 journals every request).
fn journaled_request_ids(addr: std::net::SocketAddr) -> Vec<String> {
    let (status, body) =
        http_get(addr, "/admin/trace?n=1024&min_us=0", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    String::from_utf8(body)
        .unwrap()
        .lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| {
            let event: serde_json::Value = serde_json::from_str(line).expect("valid NDJSON");
            if event["event"] == "slow_request" {
                Some(event["request_id"].as_str().expect("requests carry an id").to_string())
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn request_ids_follow_a_request_from_the_router_into_a_backend_journal() {
    if !loopback_available() {
        return;
    }
    // Threshold 0: every request is journaled at both tiers, so the id
    // minted at the router's edge is traceable end to end.
    let trace_all = NetConfig { slow_request_us: 0, ..NetConfig::default() };
    let deployment = DeploymentConfig {
        mode: DeploymentMode::Direct,
        compress_responses: true,
        idle_session_ttl_seconds: None,
    };
    let b0 = NetServer::start(SimulationServer::new(deployment), trace_all.clone())
        .expect("backend starts");
    let b1 = NetServer::start(SimulationServer::new(deployment), trace_all.clone())
        .expect("backend starts");
    let router = Router::new(vec![b0.local_addr(), b1.local_addr()]);
    let front = NetServer::start_with_handler(Arc::new(router), trace_all).expect("router starts");

    let mut client = TcpApiClient::new(front.local_addr());
    let session = create_session(&mut client);
    let r = client.call(&Request::Step { session, cycles: 2 }).unwrap();
    assert_eq!(r, Response::Stepped { cycle: 2, halted: false });
    match client.call(&Request::GetState { session }).unwrap() {
        Response::State(snapshot) => assert_eq!(snapshot.cycle, 2),
        other => panic!("unexpected {other:?}"),
    }

    let router_ids = journaled_request_ids(front.local_addr());
    assert!(router_ids.len() >= 3, "create/step/getstate journaled at the edge: {router_ids:?}");
    let mut backend_ids = journaled_request_ids(b0.local_addr());
    backend_ids.extend(journaled_request_ids(b1.local_addr()));
    // Every id the router minted for a forwarded request reappears verbatim
    // in the owning backend's journal — propagated via X-Rvsim-Request-Id.
    let followed = router_ids.iter().filter(|id| backend_ids.iter().any(|b| &b == id)).count();
    assert!(
        followed >= 3,
        "router ids {router_ids:?} must resurface in backend journals {backend_ids:?}"
    );

    front.shutdown();
    b0.shutdown();
    b1.shutdown();
}

/// A durable backend sharing `state_dir`: checkpoints swept on every
/// housekeeping tick so a fresh step is on disk within ~50 ms.
fn start_durable_backend(state_dir: &std::path::Path) -> NetServer {
    let deployment = DeploymentConfig {
        mode: DeploymentMode::Direct,
        compress_responses: true,
        idle_session_ttl_seconds: None,
    };
    let server = SimulationServer::with_checkpoints(
        deployment,
        CheckpointConfig {
            state_dir: state_dir.to_path_buf(),
            interval: Duration::ZERO,
            dirty_cycles: 0,
        },
    )
    .expect("state dir opens");
    let config =
        NetConfig { housekeeping_interval: Duration::from_millis(50), ..NetConfig::default() };
    NetServer::start(server, config).expect("backend starts")
}

#[test]
fn killed_backend_sessions_are_recovered_on_the_survivor_from_checkpoints() {
    if !loopback_available() {
        return;
    }
    let state_dir = std::env::temp_dir().join(format!("rvsim-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let b0 = start_durable_backend(&state_dir);
    let b1 = start_durable_backend(&state_dir);
    let router_handler = Arc::new(Router::new(vec![b0.local_addr(), b1.local_addr()]));
    // Fast probes: backend death is detected within a few hundred ms.
    let router_config =
        NetConfig { housekeeping_interval: Duration::from_millis(100), ..NetConfig::default() };
    let router = NetServer::start_with_handler(router_handler.clone(), router_config)
        .expect("router starts");
    let addr = router.local_addr();

    let mut client = TcpApiClient::new(addr);
    let sessions: Vec<u64> = (0..12).map(|_| create_session(&mut client)).collect();
    for &session in &sessions {
        let r = client.call(&Request::Step { session, cycles: 3 }).unwrap();
        assert_eq!(r, Response::Stepped { cycle: 3, halted: false });
    }
    // Force the cycle-3 state to disk on both backends — deterministic, no
    // reliance on the housekeeping race.
    b0.server().checkpoint_dirty_sessions();
    b1.server().checkpoint_dirty_sessions();
    let on_dead_backend = b0.server().session_count();
    assert!(on_dead_backend > 0, "backend 0 must hold sessions for the failover to matter");

    // Crash backend 0.  The router's probes flip it dead after two
    // consecutive misses and trigger checkpoint recovery on the survivor.
    b0.shutdown();
    let deadline = Instant::now() + Duration::from_secs(15);
    let report = loop {
        if let Some(report) = router_handler.last_failover() {
            break report;
        }
        assert!(Instant::now() < deadline, "router never reported a failover");
        std::thread::sleep(Duration::from_millis(25));
    };

    assert_eq!(report.dead, vec![0]);
    assert!(report.failed.is_empty(), "recovery failures: {:?}", report.failed);
    assert_eq!(report.recovered.len(), sessions.len(), "every checkpointed session is re-owned");
    let freshly_restored = report.recovered.iter().filter(|r| !r.already_live).count();
    assert_eq!(freshly_restored, on_dead_backend, "the dead backend's sessions were restored");
    for recovered in &report.recovered {
        assert_eq!(recovered.backend, 1, "the survivor owns everything");
        assert_eq!(recovered.cycle, 3, "restored at the checkpointed cycle");
        assert!(
            recovered.staleness_ms < 30_000,
            "staleness is bounded by the checkpoint cadence, got {} ms",
            recovered.staleness_ms
        );
    }
    assert_eq!(router_handler.recovered_session_count(), on_dead_backend as u64);

    // Every session — including the crashed backend's — serves through the
    // router with its pre-crash state intact.
    assert_eq!(b1.server().session_count(), sessions.len());
    for &session in &sessions {
        match client.call(&Request::GetState { session }).unwrap() {
            Response::State(snapshot) => assert_eq!(snapshot.cycle, 3, "state survived the crash"),
            other => panic!("unexpected {other:?}"),
        }
    }
    // And they keep simulating from where they left off.
    for &session in &sessions {
        let r = client.call(&Request::Step { session, cycles: 2 }).unwrap();
        assert_eq!(r, Response::Stepped { cycle: 5, halted: false });
    }

    let (status, body) = http_get(addr, "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("rvsim_router_backend_up{backend=\"0\"} 0"), "{text}");
    assert!(text.contains("rvsim_router_backend_up{backend=\"1\"} 1"), "{text}");
    assert!(text.contains("rvsim_router_sessions_recovered_total"), "{text}");

    router.shutdown();
    b1.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}
