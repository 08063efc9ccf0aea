//! **E2 — compression ablation**: the paper reports that enabling gzip raised
//! local load-test throughput by ~40 %.  This bench compares the load-test
//! throughput and the per-payload cost with compression on and off, and also
//! measures the raw compressor on realistic snapshot JSON.
//!
//! Expected shape: compressed responses are several times smaller; the
//! compression CPU cost is small compared with the bytes saved, so the
//! compressed configuration sustains equal or higher throughput on
//! state-bearing workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rvsim_bench::{program_mixed, simulator};
use rvsim_core::{ArchitectureConfig, ProcessorSnapshot};
use rvsim_loadgen::{run, LoadReport, Scenario};
use rvsim_net::{NetConfig, NetServer};
use rvsim_server::{DeploymentConfig, DeploymentMode, SimulationServer};
use std::hint::black_box;

fn snapshot_json() -> Vec<u8> {
    let mut sim = simulator(&program_mixed(), &ArchitectureConfig::default());
    for _ in 0..8 {
        sim.step();
    }
    ProcessorSnapshot::capture(&sim).to_json().into_bytes()
}

fn bench_compressor(c: &mut Criterion) {
    let payload = snapshot_json();
    let ratio = rvsim_compress::ratio(&payload);
    println!(
        "\nE2 — snapshot payload: {} bytes raw, {} bytes compressed (ratio {:.2})",
        payload.len(),
        rvsim_compress::compress(&payload).len(),
        ratio
    );

    let mut group = c.benchmark_group("compressor");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("compress_snapshot_json", |b| {
        b.iter(|| black_box(rvsim_compress::compress(&payload)))
    });
    let compressed = rvsim_compress::compress(&payload);
    group.bench_function("decompress_snapshot_json", |b| {
        b.iter(|| black_box(rvsim_compress::decompress(&compressed).unwrap()))
    });
    group.finish();
}

/// Run 30 users for `steps` steps each against a fresh loopback front end
/// over a direct-mode server with compression on or off.
fn load_test(compress: bool, steps: usize) -> LoadReport {
    let deployment = DeploymentConfig {
        mode: DeploymentMode::Direct,
        compress_responses: compress,
        idle_session_ttl_seconds: None,
    };
    let net = NetServer::start(SimulationServer::new(deployment), NetConfig::default())
        .expect("loopback front end starts");
    let mut scenario = Scenario::paper_scaled(0.001);
    scenario.steps_per_user = steps;
    let report = run(net.local_addr(), &scenario.load(30));
    net.shutdown();
    report
}

fn bench_load_with_and_without_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("load_test_compression");
    group.sample_size(10);

    println!("\nE2 — load-test throughput with and without response compression:");
    for (label, compress) in [("uncompressed", false), ("compressed", true)] {
        println!("  {}", load_test(compress, 10).table_row(label));
        group.bench_with_input(BenchmarkId::new("30_users", label), &compress, |b, &compress| {
            b.iter(|| load_test(compress, 5).requests);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compressor, bench_load_with_and_without_compression);
criterion_main!(benches);
