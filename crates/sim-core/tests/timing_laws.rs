//! Closed-form timing laws of the pipeline model.
//!
//! Cosimulation checks *what* retires; these laws check *when*.  Each law
//! runs a kernel of N and of 2N copies of one instruction on the same
//! configuration and compares the cycle difference with a value derived
//! from the configuration alone, never from a run.  The N extra copies
//! then cost exactly their steady-state time: start-up, the final `ret`
//! and the drain are the same in both runs and cancel.
//!
//! Every law is checked on the scalar, the default 2-wide and the wide-4
//! preset, and every run also checks two invariants: no more instructions
//! commit than `commit_width × cycles`, and no functional unit is busy for
//! more cycles than the run has.

use rvsim_core::{ArchitectureConfig, HaltReason, Simulator};

/// Copies in the short kernel; the long one has twice as many.
const N: u64 = 48;

fn presets() -> [ArchitectureConfig; 3] {
    [ArchitectureConfig::scalar(), ArchitectureConfig::default(), ArchitectureConfig::wide()]
}

/// A kernel: data, the start of `main`, and the instruction it repeats.
#[derive(Clone, Copy)]
struct Kernel {
    data: &'static str,
    prologue: &'static str,
    body: &'static str,
}

/// Run `kernel` with `copies` copies of its body, then `ret`, to completion,
/// check the per-run invariants and return the cycle count.
fn cycles(kernel: Kernel, copies: u64, config: &ArchitectureConfig) -> u64 {
    let Kernel { data, prologue, body } = kernel;
    let mut source = format!("{data}main:\n{prologue}\n");
    for _ in 0..copies {
        source.push_str(body);
        source.push('\n');
    }
    source.push_str("    ret\n");
    let mut sim = Simulator::from_assembly(&source, config).expect("assembles");
    let result = sim.run(1_000_000).expect("runs");
    assert_eq!(result.halt, HaltReason::MainReturned, "{}: {body} x{copies}", config.name);

    let stats = &result.statistics;
    let commit_width = config.buffers.commit_width as u64;
    assert!(
        stats.committed <= commit_width * stats.cycles,
        "{}: {} committed in {} cycles at commit width {commit_width}",
        config.name,
        stats.committed,
        stats.cycles
    );
    for unit in &stats.unit_utilization {
        assert!(
            unit.busy_cycles <= stats.cycles,
            "{}: unit {} busy {} of {} cycles",
            config.name,
            unit.name,
            unit.busy_cycles,
            stats.cycles
        );
    }
    result.cycles
}

/// Cycles that `N` extra copies of the kernel's body cost on `config`.
fn cost_of_n_more(kernel: Kernel, config: &ArchitectureConfig) -> u64 {
    let short = cycles(kernel, N, config);
    let long = cycles(kernel, 2 * N, config);
    assert!(
        long > short,
        "{}: {} x{} took {long} cycles, x{N} {short}",
        config.name,
        kernel.body,
        2 * N
    );
    long - short
}

const ADD_CHAIN: Kernel =
    Kernel { data: "", prologue: "    li a0, 1\n    li a1, 3", body: "    add a0, a0, a1" };
const MUL_CHAIN: Kernel = Kernel { body: "    mul a0, a0, a1", ..ADD_CHAIN };
/// Four destinations in turn: every copy's sources are ready at dispatch,
/// so only the width limits the stream.
const ADDI_STREAM: Kernel = Kernel {
    data: "",
    prologue: "",
    body: "    addi t0, x0, 1\n    addi t1, x0, 2\n    addi t2, x0, 3\n    addi t3, x0, 4",
};
/// A word that holds its own address: every `lw t0, 0(t0)` in the chain
/// loads the same address, so each load's address waits for the load
/// before, and all but the first hit when the cache is on.
const LOAD_CHAIN: Kernel = Kernel {
    data: "cell:\n    .word cell\n",
    prologue: "    la t0, cell",
    body: "    lw t0, 0(t0)",
};

#[test]
fn dependent_add_chain_costs_the_alu_latency_per_instruction() {
    for base in presets() {
        for alu_latency in [1, 2, 3, 5] {
            let mut config = base.clone();
            for fx in &mut config.units.fx_units {
                fx.alu_latency = alu_latency;
            }
            let cost = cost_of_n_more(ADD_CHAIN, &config);
            assert_eq!(cost, N * alu_latency, "{}, alu_latency {alu_latency}", config.name);
        }
    }
}

#[test]
fn dependent_mul_chain_costs_the_mul_latency_per_instruction() {
    for base in presets() {
        let mut config = base.clone();
        for fx in &mut config.units.fx_units {
            fx.mul_latency = 3;
        }
        let cost = cost_of_n_more(MUL_CHAIN, &config);
        assert_eq!(cost, N * 3, "{}", config.name);
    }
}

#[test]
fn independent_addi_stream_reaches_an_ipc_of_the_width() {
    for mut config in presets() {
        for fx in &mut config.units.fx_units {
            fx.alu_latency = 1;
        }
        let width = config
            .buffers
            .fetch_width
            .min(config.buffers.commit_width)
            .min(config.units.fx_units.len()) as u64;
        let cost = cost_of_n_more(ADDI_STREAM, &config);
        assert_eq!(cost, 4 * N / width, "{}: width {width}", config.name);
    }
}

#[test]
fn dependent_load_chain_that_hits_costs_address_latency_plus_access_delay() {
    for base in presets() {
        for (ls_latency, access_delay) in [(1, 1), (2, 2), (1, 4)] {
            let mut config = base.clone();
            config.units.ls_latency = ls_latency;
            config.cache.enabled = true;
            config.cache.access_delay = access_delay;
            let expected = ls_latency + access_delay;
            assert_eq!(
                cost_of_n_more(LOAD_CHAIN, &config),
                N * expected,
                "{}: ls_latency {ls_latency}, access_delay {access_delay}",
                config.name
            );
        }
    }
}

#[test]
fn dependent_load_chain_without_a_cache_costs_address_latency_plus_load_latency() {
    for base in presets() {
        for (ls_latency, load_latency) in [(1, 4), (2, 4)] {
            let mut config = base.clone();
            config.units.ls_latency = ls_latency;
            config.cache.enabled = false;
            config.memory.timings.load_latency = load_latency;
            let expected = ls_latency + load_latency;
            assert_eq!(
                cost_of_n_more(LOAD_CHAIN, &config),
                N * expected,
                "{}: ls_latency {ls_latency}, load_latency {load_latency}",
                config.name
            );
        }
    }
}
