//! The cost of a step back is bounded once a checkpoint exists.
//!
//! A session's first step back replays from cycle 0; it keeps checkpoints
//! along the way, so the next step back near the same cycle replays fewer
//! than `CHECKPOINT_INTERVAL` cycles.  At an age of 100,000 cycles the
//! replayed work differs by a factor in the hundreds; the test asks for ten.

use rvsim_core::{ArchitectureConfig, Simulator};
use std::time::{Duration, Instant};

const LONG_LOOP: &str = "
main:
    li   t0, 1000000
    li   a0, 0
loop:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop
    ret
";

fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

#[test]
fn a_second_step_back_costs_a_fraction_of_the_first() {
    let mut sim = Simulator::from_assembly(LONG_LOOP, &ArchitectureConfig::default()).unwrap();
    for _ in 0..100_000 {
        sim.step();
    }
    let first = timed(|| sim.step_back());
    assert_eq!(sim.cycle(), 99_999);
    // The time-travel pattern: step forward again, step back again.  The
    // median of five damps a descheduled repeat.
    let mut later: Vec<Duration> = (0..5)
        .map(|_| {
            sim.step();
            timed(|| sim.step_back())
        })
        .collect();
    later.sort();
    let second = later[2];
    assert_eq!(sim.cycle(), 99_999);
    eprintln!("first step back {first:?}, later ones (median of 5) {second:?}");
    assert!(second * 10 < first, "first {first:?}, second {second:?}");
}
