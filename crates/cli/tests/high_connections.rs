//! High-connection sweep of the shipped `rvsim-cli serve`: hold N keep-alive
//! loopback connections against the event-loop front end while pacing a
//! constant aggregate rate of cached `GetState` requests over a few warmed
//! sessions, one point per connection count.  Idle keep-alive connections
//! cost a slab slot and an epoll registration, not a thread, so every point
//! must answer every request.
//!
//! The server is a child process with its own fd budget; the client half is
//! `rvsim_loadgen::run` on this test's thread.  The thousands-of-connections
//! points need a raised fd limit, so they are `#[ignore]`d:
//!
//! ```sh
//! ulimit -n 16384
//! cargo test --release -p rvsim-cli --test high_connections -- --ignored
//! ```

mod common;

use common::{loopback_available, ServeChild};
use rvsim_loadgen::{Load, Mix, Pacing};
use std::time::Duration;

/// Aggregate request rate, held constant across points so latency
/// differences come from the connection count.
const RPS: f64 = 2_000.0;

/// Sessions the connections share.  Few on purpose: most requests hit an
/// unchanged cycle, exercising the cached-`GetState` path under connection
/// pressure.
const SESSIONS: usize = 8;

/// Run one sweep point per entry of `counts` against one serve child and
/// assert that each held every connection and answered every request.
fn sweep(counts: &[usize], duration: Duration) {
    if !loopback_available() {
        return;
    }
    let cap = counts.iter().max().expect("at least one point") + 64;
    let server = ServeChild::spawn(&["--max-connections", &cap.to_string()]);
    let sessions = rvsim_loadgen::create_sessions(
        server.addr,
        &rvsim_loadgen::sample_program_loop(),
        std::iter::repeat_n(None, SESSIONS),
    )
    .expect("sessions warm up");
    for &connections in counts {
        let load = Load {
            connections,
            pacing: Pacing::Rate(RPS),
            mix: Mix::GetState(sessions.clone()),
            duration,
        };
        let report = rvsim_loadgen::run(server.addr, &load);
        println!("{}", report.table_row(&format!("{RPS} rps")));
        assert_eq!(
            report.connections, connections,
            "held {} of {connections} connections (raise the fd limit with ulimit -n)",
            report.connections
        );
        assert_eq!(report.errors, 0, "{connections} connections: {report:?}");
        assert!(report.requests > 0, "{connections} connections: {report:?}");
    }
}

#[test]
fn sweep_at_16_and_32_connections_answers_every_request() {
    sweep(&[16, 32], Duration::from_millis(450));
}

#[test]
#[ignore = "needs `ulimit -n 16384`; the CI tcp-smoke job runs it"]
fn sweep_at_1000_and_5000_connections_answers_every_request() {
    sweep(&[1_000, 5_000], Duration::from_secs(3));
}
