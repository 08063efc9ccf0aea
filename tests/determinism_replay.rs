//! Determinism regression tests: `Simulator::reset` + `step`/`step_back`
//! round-trips must be byte-identical in architectural state, and a replayed
//! run must produce an identical retirement trace.
//!
//! These properties are what make backward stepping (paper §III-B) and the
//! differential co-simulation harness sound: both rely on forward
//! re-simulation reproducing the exact same event stream.

use riscv_superscalar_sim::prelude::*;

fn arch_state(sim: &Simulator) -> (u64, u64, Vec<u64>, Vec<u8>) {
    let mut regs = Vec::with_capacity(64);
    for i in 0..32u8 {
        regs.push(sim.register(RegisterId::x(i)).bits);
    }
    for i in 0..32u8 {
        regs.push(sim.register(RegisterId::f(i)).bits);
    }
    (sim.cycle(), sim.pc(), regs, sim.memory().memory().to_vec())
}

fn generated(seed: u64) -> String {
    generate_program(seed, &GenOptions::default())
}

#[test]
fn reset_replay_produces_identical_retirement_trace() {
    let config = ArchitectureConfig::default();
    for seed in [3u64, 11, 42] {
        let source = generated(seed);
        let mut sim = Simulator::from_assembly(&source, &config).unwrap();
        sim.set_retirement_trace(true);
        let first_run = sim.run(200_000).unwrap();
        assert_ne!(first_run.halt, HaltReason::MaxCyclesReached, "seed {seed} hung");
        let first_trace = sim.take_retirement_trace();
        let first_state = arch_state(&sim);

        sim.reset();
        assert!(sim.retirement_trace().is_empty(), "reset must clear the trace");
        let second_run = sim.run(200_000).unwrap();
        let second_trace = sim.take_retirement_trace();

        assert_eq!(first_run.halt, second_run.halt, "seed {seed}");
        assert_eq!(first_run.cycles, second_run.cycles, "seed {seed}");
        assert_eq!(first_trace, second_trace, "seed {seed}: replay diverged");
        assert_eq!(first_state, arch_state(&sim), "seed {seed}: final state diverged");
    }
}

#[test]
fn step_back_round_trip_is_byte_identical() {
    let config = ArchitectureConfig::default();
    for seed in [5u64, 27] {
        let source = generated(seed);
        // Learn the program's length first: the capture point and the
        // forward window must both lie strictly before the halt, because a
        // halted simulator ignores forward steps while `step_back` still
        // rewinds (that is the paper's backward stepping from a finished run).
        let mut probe = Simulator::from_assembly(&source, &config).unwrap();
        probe.run(200_000).unwrap();
        let total_cycles = probe.cycle();
        assert!(total_cycles > 20, "seed {seed} finished too quickly for this test");
        let capture_at = 40.min(total_cycles - 10);
        let window = 7.min(total_cycles - capture_at - 1);

        let mut sim = Simulator::from_assembly(&source, &config).unwrap();
        sim.set_retirement_trace(true);
        for _ in 0..capture_at {
            sim.step();
        }
        let reference = arch_state(&sim);
        let reference_trace = sim.retirement_trace().to_vec();

        // Forward `window`, back `window`: everything must match the capture.
        for _ in 0..window {
            sim.step();
        }
        for _ in 0..window {
            sim.step_back();
        }
        assert_eq!(arch_state(&sim), reference, "seed {seed}: state after step_back");
        assert_eq!(
            sim.retirement_trace(),
            reference_trace.as_slice(),
            "seed {seed}: step_back must regenerate the trace prefix, not append to it"
        );

        // And the run still completes exactly as a fresh simulator would.
        let result = sim.run(200_000).unwrap();
        let mut fresh = Simulator::from_assembly(&source, &config).unwrap();
        let fresh_result = fresh.run(200_000).unwrap();
        assert_eq!(result.halt, fresh_result.halt, "seed {seed}");
        assert_eq!(result.cycles, fresh_result.cycles, "seed {seed}");
        for i in 0..32u8 {
            assert_eq!(sim.int_register(i), fresh.int_register(i), "seed {seed} x{i}");
        }
    }
}

#[test]
fn step_back_trace_is_prefix_of_full_trace() {
    let config = ArchitectureConfig::default();
    let source = generated(9);
    let mut sim = Simulator::from_assembly(&source, &config).unwrap();
    sim.set_retirement_trace(true);
    sim.run(200_000).unwrap();
    let full = sim.take_retirement_trace();
    assert!(full.len() > 50, "expected a non-trivial program");

    sim.reset();
    for _ in 0..60 {
        sim.step();
    }
    sim.step_back();
    let partial = sim.retirement_trace();
    assert!(!partial.is_empty());
    assert_eq!(
        partial,
        &full[..partial.len()],
        "the replayed trace must be a prefix of the full trace"
    );
}
