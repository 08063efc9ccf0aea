//! Loopback TCP smoke test — the workspace-level analogue of the CI job:
//! start the network front end, run a short `loadgen --tcp` burst, assert
//! zero errors, check the metrics endpoint, shut down cleanly; plus
//! raw-socket regressions for the slow-client bug family (dribbled
//! pipelined requests, slow response readers, HTTP version echo).  Skips
//! gracefully when the sandbox forbids loopback sockets.

use riscv_superscalar_sim::loadgen;
use riscv_superscalar_sim::net::find_head_end;
use riscv_superscalar_sim::prelude::*;
use std::io::{Read, Write};
use std::time::Duration;

/// Start a front end over a fresh direct-mode simulation server.
fn start_front_end() -> NetServer {
    let deployment = DeploymentConfig {
        mode: DeploymentMode::Direct,
        compress_responses: true,
        idle_session_ttl_seconds: Some(600),
    };
    NetServer::start(SimulationServer::new(deployment), NetConfig::default())
        .expect("front end starts")
}

/// Create a session over the wire and return its id.
fn create_session(addr: std::net::SocketAddr) -> u64 {
    let mut client = TcpApiClient::new(addr);
    match client
        .call(&Request::CreateSession {
            program: "main:\n  li t0, 7\n  li t1, 100\nloop:\n  addi t0, t0, 1\n  bne t0, t1, loop\n  ret\n"
                .to_string(),
            architecture: None,
            entry: None,
            session: None,
        })
        .expect("create session")
    {
        Response::SessionCreated { session } => session,
        other => panic!("unexpected response: {other:?}"),
    }
}

/// Frame a `POST /api` keep-alive request around `body`.
fn api_request(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"POST /api HTTP/1.1\r\nhost: smoke\r\ncontent-length: ");
    out.extend_from_slice(body.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
    out
}

/// Split complete `status-line + headers + content-length body` responses
/// off the front of `buf`, returning the statuses of the framed ones.
fn drain_responses(buf: &mut Vec<u8>) -> Vec<String> {
    let mut statuses = Vec::new();
    loop {
        let Some(head_end) = find_head_end(buf) else { return statuses };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let body_len: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no content-length in:\n{head}"));
        if buf.len() < head_end + body_len {
            return statuses;
        }
        statuses.push(head.lines().next().unwrap_or_default().to_string());
        buf.drain(..head_end + body_len);
    }
}

#[test]
fn tcp_front_end_survives_a_loadgen_burst_with_zero_errors() {
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping TCP smoke test: loopback sockets unavailable");
        return;
    }

    let net = start_front_end();
    let addr = net.local_addr();

    // A short burst of the paper scenario: 6 users, 5 interactive steps
    // each, no think time.
    let mut scenario = Scenario::paper_scaled(0.0);
    scenario.steps_per_user = 5;
    let report = loadgen::run(addr, &scenario.load(6));
    // 6 users × (create + 5 × (step + state) + destroy) requests.
    assert_eq!(report.requests, 72);
    assert_eq!(report.errors, 0, "TCP burst must complete without errors");
    assert!(report.rps() > 0.0);

    // Delta mode over the same wire.
    scenario.delta_state = true;
    let delta_report = loadgen::run(addr, &scenario.load(6));
    assert_eq!(delta_report.requests, 72);
    assert_eq!(delta_report.errors, 0, "delta-mode TCP burst must complete without errors");

    // The metrics endpoint reflects the traffic.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    let served: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("rvsim_http_requests_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no request counter in metrics:\n{text}"));
    assert!(served >= 144, "expected both bursts counted, got {served}");
    assert!(text.contains("rvsim_sessions_live 0"), "all sessions destroyed:\n{text}");

    net.shutdown();
}

#[test]
fn pipelined_requests_dribbled_in_tiny_fragments_all_get_answers() {
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping TCP smoke test: loopback sockets unavailable");
        return;
    }
    let net = start_front_end();
    let addr = net.local_addr();
    let session = create_session(addr);

    // One keep-alive connection, 12 pipelined GetState requests, written as
    // a single pre-concatenated burst but dribbled onto the socket a few
    // bytes at a time — every server-side read sees a partial request, and
    // most see a request boundary in the middle of a fragment.  This is the
    // regression for the incremental parser's persisted scan offset: the
    // old head scan restarted from byte 0 on every fragment.
    let body = serde_json::to_vec(&Request::GetState { session }).unwrap();
    let mut wire = Vec::new();
    let pipelined = 12;
    for _ in 0..pipelined {
        wire.extend_from_slice(&api_request(&body));
    }
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut statuses = Vec::new();
    let mut inbox = Vec::new();
    let mut chunk = [0u8; 4096];
    for fragment in wire.chunks(7) {
        stream.write_all(fragment).unwrap();
        std::thread::sleep(Duration::from_millis(1));
        // Drain whatever responses have completed so far so the pipeline
        // keeps flowing even if the server answers faster than we write.
        if let Ok(n) = {
            stream.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
            stream.read(&mut chunk)
        } {
            assert!(n > 0, "server closed mid-pipeline");
            inbox.extend_from_slice(&chunk[..n]);
            statuses.extend(drain_responses(&mut inbox));
        }
    }
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    while statuses.len() < pipelined {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed before answering the full pipeline");
        inbox.extend_from_slice(&chunk[..n]);
        statuses.extend(drain_responses(&mut inbox));
    }
    assert_eq!(statuses.len(), pipelined);
    for status in &statuses {
        assert_eq!(status, "HTTP/1.1 200 OK");
    }
    net.shutdown();
}

#[test]
fn slow_reader_receives_every_pipelined_response_intact() {
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping TCP smoke test: loopback sockets unavailable");
        return;
    }
    let net = start_front_end();
    let addr = net.local_addr();
    let session = create_session(addr);

    // Pipeline a burst of responses, then read them back in tiny sips: the
    // server's write side must park each connection's unsent tail across
    // many partial writes without corrupting response boundaries.
    let body = serde_json::to_vec(&Request::GetState { session }).unwrap();
    let pipelined = 8;
    let mut wire = Vec::new();
    for _ in 0..pipelined {
        wire.extend_from_slice(&api_request(&body));
    }
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&wire).unwrap();

    let mut statuses = Vec::new();
    let mut inbox = Vec::new();
    let mut sip = [0u8; 256];
    while statuses.len() < pipelined {
        let n = stream.read(&mut sip).unwrap();
        assert!(n > 0, "server closed before the slow reader finished");
        inbox.extend_from_slice(&sip[..n]);
        statuses.extend(drain_responses(&mut inbox));
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(statuses.len(), pipelined);
    for status in &statuses {
        assert_eq!(status, "HTTP/1.1 200 OK");
    }
    net.shutdown();
}

#[test]
fn malformed_and_oversized_content_lengths_are_rejected_on_the_wire() {
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping TCP smoke test: loopback sockets unavailable");
        return;
    }
    let net = start_front_end();
    let addr = net.local_addr();

    let reject = |header_value: &str, expected_status: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let head = format!("POST /api HTTP/1.1\r\ncontent-length:{header_value}\r\n\r\n");
        stream.write_all(head.as_bytes()).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(
            text.starts_with(expected_status),
            "content-length `{header_value}` answered:\n{text}"
        );
    };

    // The permissive `usize::from_str` shapes the old parser accepted must
    // all be 400 now: signs, embedded whitespace, hex, text, empty.
    reject("+42", "HTTP/1.1 400 Bad Request");
    reject("-42", "HTTP/1.1 400 Bad Request");
    reject("4 2", "HTTP/1.1 400 Bad Request");
    reject("0x10", "HTTP/1.1 400 Bad Request");
    reject("ten", "HTTP/1.1 400 Bad Request");
    reject("", "HTTP/1.1 400 Bad Request");

    // A length past the body cap — including digit strings too long for any
    // usize — is 413, answered from the head alone without buffering.
    reject("999999999999", "HTTP/1.1 413 Payload Too Large");
    reject("99999999999999999999999999999999", "HTTP/1.1 413 Payload Too Large");

    // A whitespace-padded plain digit string still frames the body: the
    // strictness is about shape, not incidental padding.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /api HTTP/1.1\r\ncontent-length:  2 \r\nconnection: close\r\n\r\n{}")
        .unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    assert!(bytes.starts_with(b"HTTP/1.1 200 OK"), "{}", String::from_utf8_lossy(&bytes));

    net.shutdown();
}

#[test]
fn status_lines_echo_the_request_version_and_405_names_allowed_methods() {
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping TCP smoke test: loopback sockets unavailable");
        return;
    }
    let net = start_front_end();
    let addr = net.local_addr();

    // HTTP/1.0 request → HTTP/1.0 status line (and implicit close).
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");

    // Unsupported method → 405 with an Allow header, version echoed.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"PUT /api HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 405 Method Not Allowed"), "{text}");
    assert!(text.to_ascii_lowercase().contains("allow: get, post"), "{text}");

    net.shutdown();
}
