//! Crash-failover test of the shipped `rvsim-cli` binary: two durable
//! backends plus a router run as real child processes, one backend is
//! killed with SIGKILL mid-conversation, and the router must (a) keep
//! answering promptly — a dead upstream is an error or a failover, never a
//! hang until the next probe tick — and (b) recover every checkpointed
//! session on the survivor.

mod common;

use common::{loopback_available, ServeChild};
use rvsim_net::{http_post, TcpApiClient};
use rvsim_server::{Request, Response};
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
fn killed_backend_answers_promptly_and_recovers_through_the_router() {
    if !loopback_available() {
        return;
    }
    let state_dir =
        std::env::temp_dir().join(format!("rvsim-chaos-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let state = state_dir.to_str().expect("utf-8 temp path");

    // Two durable backends sharing the state directory (interval 0 =
    // checkpoint sweep on every housekeeping tick), plus the router.
    let durable = ["--state-dir", state, "--checkpoint-interval", "0"];
    let mut b0 = ServeChild::spawn(&durable);
    let b1 = ServeChild::spawn(&durable);
    let backends = format!("{},{}", b0.addr, b1.addr);
    let router = ServeChild::spawn(&["--router", &backends]);

    let mut client = TcpApiClient::new(router.addr);
    let sessions: Vec<u64> = (0..16).map(|_| create_session(&mut client)).collect();
    for &session in &sessions {
        let r = client.call(&Request::Step { session, cycles: 3 }).unwrap();
        assert_eq!(r, Response::Stepped { cycle: 3, halted: false });
    }

    // Wait for the periodic sweep to put all 16 cycle-3 checkpoints on
    // disk.  Counting files is not enough — sessions are checkpointed at
    // install time too, so a cycle-0 envelope may still be sitting there.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let fresh = std::fs::read_dir(&state_dir)
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "rvse"))
                    .filter_map(|e| std::fs::read(e.path()).ok())
                    .filter_map(|bytes| rvsim_server::SessionEnvelope::from_bytes(&bytes).ok())
                    .filter(|envelope| envelope.cycle == 3)
                    .count()
            })
            .unwrap_or(0);
        if fresh >= sessions.len() {
            break;
        }
        assert!(Instant::now() < deadline, "cycle-3 checkpoints never reached disk ({fresh}/16)");
        std::thread::sleep(Duration::from_millis(50));
    }

    // kill -9 one backend mid-conversation.
    b0.kill_dead();

    // Promptness: every session answers well before any hang-until-probe
    // would.  A session on the dead backend may legitimately come back as
    // an error (502 / wire error) until the failover lands — but the
    // router must never sit on the request.
    for &session in &sessions {
        let body = serde_json::to_vec(&Request::GetState { session }).unwrap();
        let started = Instant::now();
        let answered = http_post(router.addr, "/api", &body, Duration::from_secs(8));
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(8),
            "router sat {elapsed:?} on session {session} after the kill"
        );
        // Transport-level failure of the *router* connection is not
        // acceptable; an error payload or 5xx status is.
        answered.expect("the router connection itself stays healthy");
    }

    // Recovery: the probes flip the backend dead, the router restores its
    // sessions on the survivor, and every session serves its pre-crash
    // state again.
    let deadline = Instant::now() + Duration::from_secs(30);
    'sessions: for &session in &sessions {
        loop {
            let mut probe = TcpApiClient::new(router.addr);
            if let Ok(Response::State(snapshot)) = probe.call(&Request::GetState { session }) {
                assert_eq!(snapshot.cycle, 3, "session {session} lost its pre-crash state");
                continue 'sessions;
            }
            assert!(Instant::now() < deadline, "session {session} never came back after the kill");
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    // And they keep simulating from where they left off.
    let mut client = TcpApiClient::new(router.addr);
    for &session in &sessions {
        let r = client.call(&Request::Step { session, cycles: 2 }).unwrap();
        assert_eq!(r, Response::Stepped { cycle: 5, halted: false });
    }

    drop(router);
    drop(b1);
    let _ = std::fs::remove_dir_all(&state_dir);
}
