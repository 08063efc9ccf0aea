//! Shared workloads and helpers for the criterion benches.
//!
//! Every bench target in `benches/` regenerates one artefact of the paper's
//! evaluation or measures one layer (the bench file's doc names which).  The
//! helpers here provide the sample programs and simulator constructors used
//! across the benches so that each bench file focuses on its experiment.
//! Performance comparisons between commits are the repository benchmark's
//! job (`bash benchmark/run.sh`, pinned by `BENCHMARK.json`), not these
//! benches'.

#![warn(missing_docs)]

use rvsim_core::{ArchitectureConfig, Simulator};

/// Arithmetic loop used as the "program 1" interactive workload.
pub fn program_arithmetic() -> String {
    rvsim_loadgen::sample_program_loop()
}

/// Memory-heavy workload ("program 2").
pub fn program_memory() -> String {
    rvsim_loadgen::sample_program_memory()
}

/// A mid-size mixed kernel used for snapshot/JSON measurements: keeps the
/// pipeline full so snapshots contain plenty of in-flight state.
pub fn program_mixed() -> String {
    "
data:
    .word 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3
main:
    la   t0, data
    li   t1, 16
    li   a0, 0
    li   a1, 1
loop:
    lw   t2, 0(t0)
    mul  t3, t2, a1
    add  a0, a0, t3
    addi a1, a1, 1
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, loop
    ret
"
    .to_string()
}

/// A floating-point kernel (dot product) for FLOP-heavy sweeps.
pub fn program_float() -> String {
    "
a:
    .float 1.5, 2.0, 0.5, 4.0, 3.25, 0.75, 2.5, 1.0
b:
    .float 2.0, 3.0, 8.0, 0.25, 1.0, 4.0, 0.5, 2.0
main:
    la   t0, a
    la   t1, b
    li   t2, 8
    fmv.w.x fa0, x0
loop:
    flw  ft0, 0(t0)
    flw  ft1, 0(t1)
    fmadd.s fa0, ft0, ft1, fa0
    addi t0, t0, 4
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, loop
    fcvt.w.s a0, fa0
    ret
"
    .to_string()
}

/// Build a simulator for `program` on `config`, panicking on any error.
pub fn simulator(program: &str, config: &ArchitectureConfig) -> Simulator {
    Simulator::from_assembly(program, config).expect("benchmark program assembles")
}

/// Run `program` to completion on `config` and return (cycles, IPC).
pub fn run_to_completion(program: &str, config: &ArchitectureConfig) -> (u64, f64) {
    let mut sim = simulator(program, config);
    sim.run(10_000_000).expect("benchmark program runs");
    let stats = sim.statistics();
    (stats.cycles, stats.ipc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmark_programs_terminate() {
        let config = ArchitectureConfig::default();
        for program in [program_arithmetic(), program_memory(), program_mixed(), program_float()] {
            let (cycles, ipc) = run_to_completion(&program, &config);
            assert!(cycles > 10);
            assert!(ipc > 0.0);
        }
    }
}
