//! Table I in miniature: run the paper's load-test scenario (N users, 40
//! interactive steps each, ramp-up, think time) against the simulation
//! server in its "direct" and "containerized" deployment modes, with and
//! without response compression.  Every user talks to the server over its
//! own keep-alive connection to a loopback front end with four dispatch
//! workers.
//!
//! The think/ramp times are scaled down so the example finishes in seconds;
//! pass `--paper-timing` to use the original 4 s ramp-up and 1 s think time
//! (the run then takes several minutes, like the original JMeter test).
//!
//! ```bash
//! cargo run --release --example load_test
//! ```

use riscv_superscalar_sim::prelude::*;

/// Run `scenario` against a fresh loopback front end over a server in
/// `mode` (four dispatch workers), with response compression on or off.
fn load_test(mode: DeploymentMode, compress: bool, scenario: &Scenario) -> LoadTestReport {
    let deployment =
        DeploymentConfig { mode, compress_responses: compress, idle_session_ttl_seconds: None };
    let net_config = NetConfig { dispatch_workers: 4, ..NetConfig::default() };
    let net = NetServer::start(SimulationServer::new(deployment), net_config)
        .expect("loopback front end starts");
    let report = run_load_test_tcp(net.local_addr(), scenario);
    net.shutdown();
    report
}

fn main() {
    let paper_timing = std::env::args().any(|a| a == "--paper-timing");
    let scale = if paper_timing { 1.0 } else { 0.002 };
    let user_counts = if paper_timing { vec![30, 100] } else { vec![8, 30] };
    let scenario = |users| {
        let mut scenario = Scenario::paper_scaled(users, scale);
        if !paper_timing {
            scenario.steps_per_user = 10;
        }
        scenario
    };

    println!("deployment   users   median-ms   p90-ms   throughput(trans/s)");
    println!("{}", "-".repeat(66));

    for &users in &user_counts {
        for (label, mode) in [
            ("Direct", DeploymentMode::Direct),
            ("Docker*", DeploymentMode::Containerized { request_overhead_us: 150 }),
        ] {
            let report = load_test(mode, true, &scenario(users));
            println!(
                "{label:<12} {users:>5} {:>11.2} {:>8.2} {:>15.2}",
                report.median_latency_ms, report.p90_latency_ms, report.throughput_tps
            );
        }
    }

    // Compression ablation (the paper reports gzip raising throughput ~40 %).
    println!("\ncompression ablation (direct mode, {} users):", user_counts[1]);
    for (label, compress) in [("uncompressed", false), ("compressed", true)] {
        let report = load_test(DeploymentMode::Direct, compress, &scenario(user_counts[1]));
        println!("  {}", report.table_row(label));
    }

    println!("\n(*) \"Docker\" adds a fixed per-request CPU overhead (a busy wait of");
    println!("150 us) standing in for the container's proxying cost.");
}
