//! **A2 — backward simulation cost**: the paper implements backward stepping
//! as a forward re-simulation of `t − 1` cycles and notes that this "imposes
//! higher computational demands on the server" and is intended for small
//! programs over a few thousand cycles (§III-B).
//!
//! Groups and expected shapes:
//! - `backward_step_by_depth` measures a session's *first* step back, a
//!   replay from cycle 0, so it grows linearly with the cycle reached (each
//!   sample also builds the simulator and steps it to the depth).
//! - `repeated_step_back_by_depth` measures a step back after the first,
//!   in the time-travel pattern (step back, step forward, step back again).
//!   It restores a checkpoint below its target and replays fewer than
//!   `CHECKPOINT_INTERVAL` cycles, so it is flat across depths.
//! - `forward_step_by_depth` is one forward step, constant, for contrast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rvsim_bench::simulator;
use rvsim_core::ArchitectureConfig;
use std::hint::black_box;

/// A long-running loop so any target depth is reachable.
const LONG_KERNEL: &str = "
main:
    li   t0, 100000
    li   a0, 0
loop:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop
    ret
";

fn bench_backward(c: &mut Criterion) {
    let config = ArchitectureConfig::default();

    let mut group = c.benchmark_group("backward_step_by_depth");
    group.sample_size(10);
    for depth in [100u64, 500, 2000, 8000] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut sim = simulator(LONG_KERNEL, &config);
                for _ in 0..depth {
                    sim.step();
                }
                sim.step_back();
                black_box(sim.cycle())
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("repeated_step_back_by_depth");
    group.sample_size(10);
    for depth in [100u64, 500, 2000, 8000] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let mut sim = simulator(LONG_KERNEL, &config);
            for _ in 0..depth {
                sim.step();
            }
            // The first step back replays from cycle 0 and keeps checkpoints.
            sim.step_back();
            sim.step();
            b.iter(|| {
                sim.step_back();
                sim.step();
                black_box(sim.cycle())
            });
        });
    }
    group.finish();

    // Forward stepping at the same depths, for contrast.
    let mut group = c.benchmark_group("forward_step_by_depth");
    group.sample_size(10);
    for depth in [100u64, 8000] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let mut sim = simulator(LONG_KERNEL, &config);
            for _ in 0..depth {
                sim.step();
            }
            b.iter(|| {
                sim.step();
                black_box(sim.cycle())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backward);
criterion_main!(benches);
