//! **T1 — Table I**: load-test latency (median, 90th percentile) and
//! throughput for {Direct, Docker} × {30, 100} users.
//!
//! The paper's scenario: each user interactively simulates 40 steps of one of
//! two programs, 4 s ramp-up, 1 s think time, gzip enabled.  Here the think
//! and ramp times are scaled down (the queueing behaviour that produces the
//! table's shape comes from the per-request work and the server's four
//! dispatch workers, not from the absolute think time), every user talks to
//! the server over a loopback keep-alive connection, and the full
//! paper-style rows are printed alongside the Criterion measurement.
//!
//! Expected shape (paper: Direct 30 → 70.66/118 ms, 25.96 t/s; Direct 100 →
//! 680/1248.9 ms, 53.61 t/s; Docker rows slower): latency grows sharply from
//! 30 to 100 users, the containerized mode is slower than direct, and
//! throughput roughly doubles as the offered load grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rvsim_loadgen::{run, LoadReport, Scenario};
use rvsim_net::{NetConfig, NetServer};
use rvsim_server::{DeploymentConfig, DeploymentMode, SimulationServer};

fn scenario() -> Scenario {
    let mut s = Scenario::paper_scaled(0.001);
    s.steps_per_user = 10; // keep each Criterion iteration in the hundreds of ms
    s
}

/// Run the scenario for `users` against a fresh loopback front end (four
/// dispatch workers) over a compressing server in `mode`.
fn load_test(mode: DeploymentMode, users: usize) -> LoadReport {
    let deployment =
        DeploymentConfig { mode, compress_responses: true, idle_session_ttl_seconds: None };
    let net_config = NetConfig { dispatch_workers: 4, ..NetConfig::default() };
    let net = NetServer::start(SimulationServer::new(deployment), net_config)
        .expect("loopback front end starts");
    let report = run(net.local_addr(), &scenario().load(users));
    net.shutdown();
    report
}

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_load_test");
    group.sample_size(10);

    println!("\nTable I reproduction (scaled timing; shapes comparable, absolutes not):");
    println!(
        "{:<10} {:>6} {:>12} {:>10} {:>14}",
        "mode", "users", "median[ms]", "p90[ms]", "tput[trans/s]"
    );

    for users in [30usize, 100] {
        for (label, mode) in [
            ("Direct", DeploymentMode::Direct),
            ("Docker", DeploymentMode::Containerized { request_overhead_us: 150 }),
        ] {
            // Print the paper-style row once, outside the measurement loop.
            let report = load_test(mode, users);
            println!(
                "{label:<10} {users:>6} {:>12.2} {:>10.2} {:>14.2}",
                report.median_latency_ms,
                report.p90_latency_ms,
                report.rps()
            );

            group.bench_with_input(
                BenchmarkId::new(label, users),
                &(mode, users),
                |b, &(mode, users)| b.iter(|| load_test(mode, users).requests),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
