//! **E1 — JSON overhead**: the paper's key profiling result (§IV-A) is that
//! "about 60 % of the request handling time is consumed by working with the
//! JSON format".  This bench measures the three components of a state-bearing
//! request separately — pure simulation stepping, snapshot construction, and
//! JSON serialization/compression — and prints the JSON share of the total.
//!
//! Expected shape: for interactive step+state requests the serialization side
//! clearly dominates (>50 % of the request time), so further simulator-only
//! optimizations have diminishing returns — the paper's conclusion.

use criterion::{criterion_group, criterion_main, Criterion};
use rvsim_bench::{program_mixed, simulator};
use rvsim_core::{ArchitectureConfig, ProcessorSnapshot};
use rvsim_server::{decode_response, DeploymentConfig, DeploymentMode, Request, SimulationServer};
use std::hint::black_box;
use std::time::Instant;

fn bench_components(c: &mut Criterion) {
    let config = ArchitectureConfig::default();

    // Component 1: one simulation step on a warmed-up pipeline.
    c.bench_function("component/simulation_step", |b| {
        let mut sim = simulator(&program_mixed(), &config);
        for _ in 0..5 {
            sim.step();
        }
        b.iter(|| {
            if sim.is_halted() {
                sim.reset();
            }
            sim.step();
            black_box(sim.cycle())
        });
    });

    // Component 2: snapshot construction (the data the GUI renders).
    c.bench_function("component/snapshot_build", |b| {
        let mut sim = simulator(&program_mixed(), &config);
        for _ in 0..8 {
            sim.step();
        }
        b.iter(|| black_box(ProcessorSnapshot::capture(&sim)));
    });

    // Component 3: JSON serialization of that snapshot.
    c.bench_function("component/json_serialize", |b| {
        let mut sim = simulator(&program_mixed(), &config);
        for _ in 0..8 {
            sim.step();
        }
        let snapshot = ProcessorSnapshot::capture(&sim);
        b.iter(|| black_box(snapshot.to_json()));
    });

    // Whole request through the server, plus an explicit share breakdown.
    c.bench_function("request/step_plus_state", |b| {
        let server = SimulationServer::new(DeploymentConfig {
            mode: DeploymentMode::Direct,
            compress_responses: true,
            idle_session_ttl_seconds: None,
        });
        let create = serde_json::to_vec(&Request::CreateSession {
            program: program_mixed(),
            architecture: None,
            entry: None,
            session: None,
        })
        .unwrap();
        let session = match decode_response(&server.handle_raw(&create)) {
            Ok(rvsim_server::Response::SessionCreated { session }) => session,
            other => panic!("unexpected {other:?}"),
        };
        let step = serde_json::to_vec(&Request::Step { session, cycles: 1 }).unwrap();
        let state = serde_json::to_vec(&Request::GetState { session }).unwrap();
        b.iter(|| {
            black_box(server.handle_raw(&step));
            black_box(server.handle_raw(&state));
        });
    });

    print_share_breakdown();
}

/// One-shot measurement printed in the paper's terms: what fraction of the
/// request-handling time is spent on JSON (serialization + compression)?
fn print_share_breakdown() {
    let config = ArchitectureConfig::default();
    let mut sim = simulator(&program_mixed(), &config);
    for _ in 0..8 {
        sim.step();
    }
    const N: u32 = 2000;

    let t0 = Instant::now();
    for _ in 0..N {
        if sim.is_halted() {
            sim.reset();
        }
        sim.step();
    }
    let simulate = t0.elapsed();

    let t0 = Instant::now();
    for _ in 0..N {
        black_box(ProcessorSnapshot::capture(&sim));
    }
    let snapshot = t0.elapsed();

    let snap = ProcessorSnapshot::capture(&sim);
    let t0 = Instant::now();
    for _ in 0..N {
        let json = snap.to_json();
        black_box(rvsim_compress::compress(json.as_bytes()));
    }
    let serialize = t0.elapsed();

    let total = simulate + snapshot + serialize;
    let share = serialize.as_secs_f64() / total.as_secs_f64() * 100.0;
    println!("\nE1 — per-request time breakdown over {N} interactive step+state requests:");
    println!("  simulation step:        {:>10.1?}", simulate);
    println!("  snapshot construction:  {:>10.1?}", snapshot);
    println!("  JSON encode + compress: {:>10.1?}", serialize);
    println!("  => JSON share of request handling: {share:.1} % (paper reports ~60 %)");
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
