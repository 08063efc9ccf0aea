//! Checkpointed backward stepping against a full replay from cycle 0.
//!
//! `Simulator::step_back_by` restores the nearest checkpoint at or below its
//! target and replays only the gap.  The oracle here is the definition it
//! replaced: a step back (or a reset) builds a fresh simulator and steps it
//! forward to the target cycle.  After every operation of a random sequence
//! of steps, runs, step backs, resets and trace toggles, both must agree on
//! the snapshot, the statistics, the retirement trace, the debug log and
//! main memory, on the scalar, 2-wide and wide-4 presets.
//!
//! Two more operations are the GUI's patterns, checked after every single
//! step back: walking back one cycle at a time, whose targets cross the
//! boundaries of the checkpoint levels, and repeating `StepBack{1}` and
//! `Step{1}` at one cycle.  Their oracle steps one fresh simulator forward
//! from cycle 0 and keeps clones of the states the pattern visits.

mod common;

use common::quicksort;
use proptest::prelude::*;
use riscv_superscalar_sim::prelude::*;

fn preset(index: u8) -> ArchitectureConfig {
    match index % 3 {
        0 => ArchitectureConfig::scalar(),
        1 => ArchitectureConfig::default(),
        _ => ArchitectureConfig::wide(),
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Step,
    Run(u64),
    StepBack(u64),
    Reset,
    ToggleTrace,
    /// `step_back` this many times.
    WalkBack(u64),
    /// `step_back` then `step`, this many times.
    StepBackAndForth(u64),
}

/// Step backs dominate, so most of them land near an earlier target and
/// restore a checkpoint other than cycle 0.
fn op((kind, arg): (u8, u64)) -> Op {
    match kind {
        0..=1 => Op::Step,
        2..=5 => Op::Run(arg),
        6..=13 => Op::StepBack(1 + arg % 700),
        14 => Op::Reset,
        15 => Op::ToggleTrace,
        16..=17 => Op::WalkBack(1 + arg % 40),
        _ => Op::StepBackAndForth(1 + arg % 6),
    }
}

fn fresh(source: &str, config: &ArchitectureConfig, trace: bool) -> Simulator {
    let mut sim = Simulator::from_assembly(source, config).expect("assembles");
    sim.set_retirement_trace(trace);
    sim
}

/// The states of a full replay from cycle 0 at cycles `from..=to`.
fn replayed_states(
    source: &str,
    config: &ArchitectureConfig,
    trace: bool,
    from: u64,
    to: u64,
) -> Vec<Simulator> {
    let mut sim = fresh(source, config, trace);
    for _ in 0..from {
        sim.step();
    }
    let mut states = vec![sim.clone()];
    for _ in from..to {
        sim.step();
        states.push(sim.clone());
    }
    states
}

fn log_text(sim: &Simulator) -> Vec<String> {
    sim.log().entries().map(|e| format!("[{}] {}", e.cycle, e.event)).collect()
}

/// Every observable the two simulators must agree on, compared one by one
/// so a failure names what differs instead of printing both states.
fn check_same(live: &Simulator, oracle: &Simulator, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(live.cycle(), oracle.cycle(), "cycle after {}", what);
    prop_assert_eq!(live.halt_reason(), oracle.halt_reason(), "halt after {}", what);
    prop_assert!(
        ProcessorSnapshot::capture(live) == ProcessorSnapshot::capture(oracle),
        "snapshot differs after {} at cycle {}",
        what,
        live.cycle()
    );
    prop_assert!(
        live.statistics() == oracle.statistics(),
        "statistics differ after {} at cycle {}",
        what,
        live.cycle()
    );
    prop_assert!(
        live.retirement_trace() == oracle.retirement_trace(),
        "retirement trace differs after {} at cycle {} ({} vs {} events)",
        what,
        live.cycle(),
        live.retirement_trace().len(),
        oracle.retirement_trace().len()
    );
    prop_assert!(log_text(live) == log_text(oracle), "debug log differs after {}", what);
    prop_assert_eq!(
        live.memory().memory().first_difference(oracle.memory().memory()),
        None,
        "memory differs after {}",
        what
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    #[test]
    fn checkpointed_step_back_equals_full_replay(
        preset_ix in 0u8..3,
        program_seed in 0u64..6,
        ops in proptest::collection::vec((0u8..20, 1u64..1_500), 6..16),
    ) {
        let config = preset(preset_ix);
        let generated;
        let source = if program_seed < 3 {
            quicksort()
        } else {
            generated = generate_program(program_seed, &GenOptions::default());
            &generated
        };
        let mut trace = false;
        let mut live = fresh(source, &config, trace);
        let mut oracle = fresh(source, &config, trace);
        for (index, op) in ops.into_iter().map(op).enumerate() {
            match op {
                Op::Step => {
                    live.step();
                    oracle.step();
                }
                Op::Run(cycles) => {
                    let until = live.cycle() + cycles;
                    live.run(until).unwrap();
                    oracle.run(until).unwrap();
                }
                Op::StepBack(cycles) => {
                    let target = live.cycle().saturating_sub(cycles);
                    live.step_back_by(cycles);
                    oracle = fresh(source, &config, trace);
                    for _ in 0..target {
                        oracle.step();
                    }
                }
                Op::Reset => {
                    live.reset();
                    oracle = fresh(source, &config, trace);
                }
                Op::ToggleTrace => {
                    trace = !trace;
                    live.set_retirement_trace(trace);
                    oracle.set_retirement_trace(trace);
                }
                Op::WalkBack(cycles) => {
                    let start = live.cycle();
                    let end = start.saturating_sub(cycles);
                    let states = replayed_states(source, &config, trace, end, start);
                    for back in 1..=start - end {
                        live.step_back();
                        let state = &states[(start - end - back) as usize];
                        check_same(&live, state, &format!("op {index} {op:?}, step back {back}"))?;
                    }
                    oracle = states.into_iter().next().expect("the walk's last state");
                }
                Op::StepBackAndForth(times) => {
                    let back = live.cycle().saturating_sub(1);
                    let mut states = replayed_states(source, &config, trace, back, back + 1);
                    for round in 1..=times {
                        live.step_back();
                        check_same(&live, &states[0], &format!("op {index} {op:?}, back {round}"))?;
                        live.step();
                        check_same(&live, &states[1], &format!("op {index} {op:?}, forth {round}"))?;
                    }
                    oracle = states.pop().expect("the state after the last step");
                }
            }
            check_same(&live, &oracle, &format!("op {index} {op:?}"))?;
        }
    }
}
