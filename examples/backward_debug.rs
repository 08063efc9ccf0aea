//! Backward debugging session: step a program forward until something
//! interesting happens (here: the first pipeline flush), then walk backwards
//! cycle by cycle to inspect how the processor state evolved — the paper's
//! forward-and-backward simulation workflow (§II, §III-B).
//!
//! ```bash
//! cargo run --release --example backward_debug
//! ```

use riscv_superscalar_sim::prelude::*;

const PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 12
    li   a0, 0
loop:
    andi t2, t0, 1
    beqz t2, even
    addi a0, a0, 10
    j    next
even:
    addi a0, a0, 1
next:
    addi t0, t0, 1
    blt  t0, t1, loop
    ret
";

fn main() {
    let mut config = ArchitectureConfig::default();
    config.predictor.history_bits = 0; // make the alternating branch mispredict
    let mut sim = Simulator::from_assembly(PROGRAM, &config).expect("assembles");

    // Forward until the first misprediction flush.
    let mut flush_cycle = None;
    for _ in 0..500 {
        sim.step();
        if sim.statistics().rob_flushes > 0 {
            flush_cycle = Some(sim.cycle());
            break;
        }
    }
    let flush_cycle = flush_cycle.expect("the alternating branch must mispredict");
    println!("first pipeline flush observed at cycle {flush_cycle}");
    println!("log entries so far:");
    for entry in sim.log().entries() {
        println!("  [{:>4}] {}", entry.cycle, entry.event);
    }

    // Walk backwards over the five cycles leading up to the flush and show
    // how much architectural progress had been made at each point.
    println!("\nwalking backwards from cycle {flush_cycle}:");
    for _ in 0..5 {
        sim.step_back();
        let stats = sim.statistics();
        println!(
            "  cycle {:>4}: pc=0x{:04x}, committed {:>3}, in flight {:>2}, flushes {}",
            sim.cycle(),
            sim.pc(),
            stats.committed,
            sim.in_flight().count(),
            stats.rob_flushes
        );
    }

    // Stepping forward again reproduces the exact same flush cycle —
    // backward simulation relies on the simulator being deterministic.
    while sim.statistics().rob_flushes == 0 {
        sim.step();
    }
    assert_eq!(sim.cycle(), flush_cycle, "deterministic replay must reproduce the flush");
    println!("\nreplayed forward: the flush happens at cycle {} again", sim.cycle());

    let result = sim.run(100_000).expect("runs to completion");
    println!("final state: halt={:?}, a0={}", result.halt, sim.int_register(10));
    assert_eq!(sim.int_register(10), 66); // 6 odd iterations * 10 + 6 even * 1
}
