//! **Observability overhead**: the per-operation cost of each tracing
//! primitive on the request hot path.  A fully traced request takes four
//! monotonic clock samples (the phase boundaries), five histogram records
//! (four phases at the front end, one endpoint at the backend) and one
//! request-id mint at the edge; the journal append is off the fast path
//! (only slow or failed requests are journaled).
//!
//! Each iteration runs a batch of [`BATCH`] operations, so the printed
//! elements per second is the primitive's rate and `1e9 / rate` its ns/op.
//! The served end-to-end cost of tracing is the repository benchmark's
//! `--trace 1` ledger, not this bench.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rvsim_obs::{Event, EventKind, Histogram, Journal, Observer};
use std::hint::black_box;
use std::time::Instant;

/// Operations per timed iteration.
const BATCH: u64 = 100_000;

fn bench_tracing_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracing_primitive");
    group.throughput(Throughput::Elements(BATCH));

    let hist = Histogram::new();
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            for sample in 0..BATCH {
                hist.record(black_box(sample.wrapping_mul(997) & 0xFFFF));
            }
        });
    });

    let journal = Journal::new(4096);
    let ts = journal.now_us();
    group.bench_function("journal_record", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                journal.record(Event::new(EventKind::Request, ts).request(1).fields(200, 120));
            }
        });
    });

    let observer = Observer::new(64);
    group.bench_function("mint_request_id", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                black_box(observer.mint_request_id());
            }
        });
    });

    group.bench_function("clock_sample", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                black_box(Instant::now());
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_tracing_primitives);
criterion_main!(benches);
