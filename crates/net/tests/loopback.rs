//! End-to-end loopback tests: a real [`NetServer`] on `127.0.0.1`, driven
//! through [`TcpApiClient`] and raw sockets.  Every test skips gracefully
//! when the sandbox forbids loopback sockets.

use rvsim_net::{NetConfig, NetServer, TcpApiClient};
use rvsim_server::{DeploymentConfig, DeploymentMode, Request, Response, SimulationServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 40
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

fn start(config: DeploymentConfig, net: NetConfig) -> NetServer {
    NetServer::start(SimulationServer::new(config), net).expect("net server starts")
}

fn default_deployment(compress: bool) -> DeploymentConfig {
    DeploymentConfig {
        mode: DeploymentMode::Direct,
        compress_responses: compress,
        idle_session_ttl_seconds: None,
    }
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
fn protocol_round_trip_over_tcp() {
    if !loopback_available() {
        return;
    }
    for compress in [false, true] {
        let server = start(default_deployment(compress), NetConfig::default());
        let mut client = TcpApiClient::new(server.local_addr());
        let session = create_session(&mut client);
        let r = client.call(&Request::Step { session, cycles: 5 }).unwrap();
        assert_eq!(r, Response::Stepped { cycle: 5, halted: false });
        match client.call(&Request::GetState { session }).unwrap() {
            Response::State(snapshot) => assert_eq!(snapshot.cycle, 5),
            other => panic!("unexpected {other:?}"),
        }
        // The cached serve path answers the repeat identically over the wire.
        match client.call(&Request::GetState { session }).unwrap() {
            Response::State(snapshot) => assert_eq!(snapshot.cycle, 5),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.call(&Request::DestroySession { session }).unwrap(), Response::Destroyed);
        assert_eq!(server.server().session_count(), 0);
        server.shutdown();
    }
}

#[test]
fn many_keep_alive_clients_share_the_worker_pool() {
    if !loopback_available() {
        return;
    }
    let server = start(default_deployment(true), NetConfig::default());
    let addr = server.local_addr();
    let mut threads = Vec::new();
    for _ in 0..8 {
        threads.push(std::thread::spawn(move || {
            let mut client = TcpApiClient::new(addr);
            let session = create_session(&mut client);
            for cycle in 1..=10u64 {
                let r = client.call(&Request::Step { session, cycles: 1 }).unwrap();
                assert_eq!(r, Response::Stepped { cycle, halted: false });
                let state = client.call(&Request::GetState { session }).unwrap();
                assert!(matches!(state, Response::State(_)));
            }
            session
        }));
    }
    let mut ids: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 8, "each client gets its own session");
    assert!(server.stats().requests_served.load(std::sync::atomic::Ordering::Relaxed) >= 8 * 21);
    server.shutdown();
}

#[test]
fn metrics_and_healthz_endpoints_respond() {
    if !loopback_available() {
        return;
    }
    let server = start(default_deployment(true), NetConfig::default());
    let mut client = TcpApiClient::new(server.local_addr());
    let session = create_session(&mut client);
    client.call(&Request::Step { session, cycles: 1 }).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    // The exposition is served under the Prometheus 0.0.4 content type.
    let headers = text.split("\r\n\r\n").next().unwrap();
    assert!(
        headers.contains("content-type: text/plain; version=0.0.4"),
        "wrong content type: {headers}"
    );
    assert!(text.contains("rvsim_sessions_live 1"), "{text}");
    assert!(text.contains("rvsim_http_requests_total"), "{text}");
    assert!(text.contains("rvsim_connections_accepted_total"), "{text}");
    // And the body parses as valid 0.0.4 exposition, histograms included.
    let body = text.split("\r\n\r\n").nth(1).unwrap();
    let families = rvsim_obs::validate_exposition(body).expect("valid exposition");
    assert!(families.iter().any(|f| f.name == "rvsim_endpoint_seconds"), "{body}");
    assert!(families.iter().any(|f| f.name == "rvsim_request_phase_seconds"), "{body}");

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.contains("ok"), "{text}");
    server.shutdown();
}

#[test]
fn malformed_requests_get_http_errors_and_close() {
    if !loopback_available() {
        return;
    }
    let server = start(default_deployment(true), NetConfig::default());

    // Bad request line -> 400.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(b"NOT A REQUEST LINE AT ALL\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");

    // Unknown path -> 404; wrong method -> 405 (connection stays usable
    // because these are application-level answers, not framing errors).
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .write_all(b"GET /nope HTTP/1.1\r\n\r\nDELETE /api HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 404 "), "{text}");
    assert!(text.contains("HTTP/1.1 405 "), "{text}");

    // Oversized head -> 431.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut huge = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
    huge.extend(std::iter::repeat_n(b'a', rvsim_net::MAX_HEAD_BYTES + 64));
    huge.extend_from_slice(b"\r\n\r\n");
    stream.write_all(&huge).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 431 "), "{text}");

    let errors = server.stats().http_errors.load(std::sync::atomic::Ordering::Relaxed);
    assert!(errors >= 2, "framing errors must be counted, got {errors}");
    server.shutdown();
}

#[test]
fn housekeeping_tick_evicts_idle_sessions() {
    if !loopback_available() {
        return;
    }
    let deployment = DeploymentConfig {
        mode: DeploymentMode::Direct,
        compress_responses: true,
        // Zero TTL: anything idle at the next tick is swept.
        idle_session_ttl_seconds: Some(0),
    };
    let net =
        NetConfig { housekeeping_interval: Duration::from_millis(20), ..NetConfig::default() };
    let server = start(deployment, net);
    let mut client = TcpApiClient::new(server.local_addr());
    let session = create_session(&mut client);
    assert_eq!(server.server().session_count(), 1);

    // Within a second the housekeeper must have swept the idle session.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.server().session_count() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.server().session_count(), 0, "idle session must be evicted");
    assert!(server.server().evicted_session_count() >= 1);
    let r = client.call(&Request::Step { session, cycles: 1 }).unwrap();
    assert!(r.is_error(), "evicted session is gone");
    server.shutdown();
}

#[test]
fn graceful_shutdown_closes_idle_connections_and_joins() {
    if !loopback_available() {
        return;
    }
    let server = start(default_deployment(true), NetConfig::default());
    let addr = server.local_addr();
    let mut client = TcpApiClient::new(addr);
    let session = create_session(&mut client);
    client.call(&Request::Step { session, cycles: 1 }).unwrap();
    // Shutdown with the keep-alive connection still open: must return
    // promptly (joins acceptor, workers, housekeeper).
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(start.elapsed() < Duration::from_secs(5), "shutdown must not hang");
    // The old connection is dead; a fresh call cannot reach a server.
    assert!(client.call(&Request::Step { session, cycles: 1 }).is_err());
}

#[test]
fn overload_rejection_answers_503() {
    if !loopback_available() {
        return;
    }
    // Cap the front end at two live connections: with both held open, the
    // next connection must be answered 503 at the accept gate.
    let net = NetConfig { max_connections: 2, ..NetConfig::default() };
    let server = start(default_deployment(true), net);
    let addr = server.local_addr();

    // Hold the cap's worth of live keep-alive connections (the event loop
    // carries them idly; no worker is pinned).
    let _held_a = {
        let mut c = TcpApiClient::new(addr);
        create_session(&mut c);
        c
    };
    let _held_b = {
        let mut c = TcpApiClient::new(addr);
        create_session(&mut c);
        c
    };
    // The next connection must be turned away.  Allow a few attempts: the
    // open-connection gauge trails the accept loop by a moment.
    let mut rejected = false;
    for _ in 0..50 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        if text.starts_with("HTTP/1.1 503 ") {
            rejected = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(rejected, "a connection over the cap must answer 503");
    assert!(server.stats().connections_rejected.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    server.shutdown();
}

#[test]
fn stalled_clients_are_reclaimed_by_deadlines() {
    if !loopback_available() {
        return;
    }
    // Tight deadlines so the test runs in milliseconds.
    let net = NetConfig {
        header_deadline: Duration::from_millis(80),
        idle_deadline: Duration::from_millis(400),
        write_deadline: Duration::from_millis(80),
        ..NetConfig::default()
    };
    let server = start(default_deployment(true), net);
    let addr = server.local_addr();

    // A client that sends half a request head and then stalls must be
    // closed by the header deadline — under the old worker-pool front end
    // this connection pinned a worker thread forever.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"POST /api HTTP/1.1\r\ncontent-le").unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    let n = stalled.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must close the stalled connection, not answer it");

    // A healthy client on the same server is unaffected.
    let mut client = TcpApiClient::new(addr);
    let session = create_session(&mut client);
    let r = client.call(&Request::Step { session, cycles: 1 }).unwrap();
    assert_eq!(r, Response::Stepped { cycle: 1, halted: false });

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stalled_closed = loop {
        let n =
            server.stats().connections_stalled_closed.load(std::sync::atomic::Ordering::Relaxed);
        if n >= 1 || std::time::Instant::now() >= deadline {
            break n;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(stalled_closed >= 1, "the deadline close must be counted as stalled");

    // An idle keep-alive connection is eventually reclaimed too — and
    // counted separately from the stalled family.
    drop(client);
    let idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut idle = idle;
    let n = idle.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "idle connection must be closed by the idle deadline");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let n = server.stats().connections_idle_closed.load(std::sync::atomic::Ordering::Relaxed);
        if n >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "idle close must be counted");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn slow_reader_mid_response_is_reclaimed_by_write_deadline() {
    if !loopback_available() {
        return;
    }
    let net = NetConfig {
        header_deadline: Duration::from_millis(200),
        idle_deadline: Duration::from_secs(30),
        write_deadline: Duration::from_millis(100),
        ..NetConfig::default()
    };
    // Plain JSON keeps the state payload large (hundreds of KB), so it
    // cannot fit the kernel buffers of a non-reading peer.
    let server = start(default_deployment(false), net);
    let addr = server.local_addr();

    let mut client = TcpApiClient::new(addr);
    let session = create_session(&mut client);
    client.call(&Request::Step { session, cycles: 1 }).unwrap();

    // Raw socket that pipelines hundreds of state requests and then never
    // reads a byte: the responses (megabytes of plain JSON in aggregate)
    // overflow the kernel buffers, the server's write stalls, and the write
    // deadline must reclaim the connection.
    let mut slow = TcpStream::connect(addr).unwrap();
    let request = serde_json::to_vec(&Request::GetState { session }).unwrap();
    let one = format!(
        "POST /api HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        request.len(),
        String::from_utf8(request).unwrap()
    );
    let pipelined: Vec<u8> = one.as_bytes().repeat(800);
    slow.write_all(&pipelined).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let n =
            server.stats().connections_stalled_closed.load(std::sync::atomic::Ordering::Relaxed);
        if n >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "write deadline must reclaim the non-reading client"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The healthy keep-alive client still works afterwards.
    let r = client.call(&Request::Step { session, cycles: 1 }).unwrap();
    assert_eq!(r, Response::Stepped { cycle: 2, halted: false });
    server.shutdown();
}
