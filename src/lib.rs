//! # riscv-superscalar-sim
//!
//! Umbrella crate for the Rust reproduction of *"Web-Based Simulator of
//! Superscalar RISC-V Processors"* (SC'24): a cycle-level, fully configurable
//! superscalar out-of-order RV32IM+F processor simulator with an L1 cache,
//! branch prediction, a two-pass assembler, a small C compiler, a simulation
//! server with a JSON API, a load generator and a batch CLI.
//!
//! The individual subsystems live in their own crates and are re-exported
//! here under one roof:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`isa`] | `rvsim-isa` | RV32IM+F instruction set, postfix semantics interpreter |
//! | [`asm`] | `rvsim-asm` | two-pass assembler, directives, operand expressions |
//! | [`mem`] | `rvsim-mem` | transactional main memory + configurable L1 cache |
//! | [`predictor`] | `rvsim-predictor` | BTB, PHT, zero/one/two-bit predictors, history |
//! | [`core`] | `rvsim-core` | the superscalar out-of-order pipeline and statistics |
//! | [`iss`] | `rvsim-iss` | in-order reference ISS, program generator, co-simulation |
//! | [`cc`] | `rvsim-cc` | C-subset compiler with `-O0..-O3` |
//! | [`compress`] | `rvsim-compress` | LZSS payload compression (gzip stand-in) |
//! | [`server`] | `rvsim-server` | session server with a JSON request/response API |
//! | [`net`] | `rvsim-net` | HTTP/1.1 network front end over TCP (keep-alive, metrics) |
//! | [`loadgen`] | `rvsim-loadgen` | closed-loop load generator (JMeter stand-in) |
//!
//! ## Quickstart
//!
//! ```
//! use riscv_superscalar_sim::prelude::*;
//!
//! let asm = "
//! main:
//!     li   a0, 0
//!     li   t0, 5
//! loop:
//!     addi a0, a0, 10
//!     addi t0, t0, -1
//!     bnez t0, loop
//!     ret
//! ";
//! let mut sim = Simulator::from_assembly(asm, &ArchitectureConfig::default()).unwrap();
//! sim.run(100_000).unwrap();
//! assert_eq!(sim.int_register(10), 50);
//! ```

pub use rvsim_asm as asm;
pub use rvsim_cc as cc;
pub use rvsim_compress as compress;
pub use rvsim_core as core;
pub use rvsim_isa as isa;
pub use rvsim_iss as iss;
pub use rvsim_loadgen as loadgen;
pub use rvsim_mem as mem;
pub use rvsim_net as net;
pub use rvsim_predictor as predictor;
pub use rvsim_server as server;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use rvsim_asm::{assemble, AssemblerOptions, Program};
    pub use rvsim_cc::{compile, OptLevel};
    pub use rvsim_core::{
        ArchitectureConfig, HaltReason, ProcessorSnapshot, RunResult, SimulationStatistics,
        Simulator,
    };
    pub use rvsim_isa::{InstructionSet, RegisterId};
    pub use rvsim_iss::{generate_program, Cosim, CosimOutcome, GenOptions, Iss};
    pub use rvsim_loadgen::{run_load_test_tcp, LoadTestReport, Scenario};
    pub use rvsim_mem::{ArrayFill, CacheConfig, MemoryArray, MemorySettings, ScalarType};
    pub use rvsim_net::{NetConfig, NetServer, TcpApiClient};
    pub use rvsim_predictor::{BranchPredictorConfig, CounterState, HistoryKind, PredictorKind};
    pub use rvsim_server::{
        decode_response, DeploymentConfig, DeploymentMode, Request, Response, SimulationServer,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        let config = ArchitectureConfig::default();
        let mut sim = Simulator::from_assembly("main:\n  li a0, 3\n  ret\n", &config).unwrap();
        sim.run(1000).unwrap();
        assert_eq!(sim.int_register(10), 3);
        let compiled = compile("int main(void){ return 4; }", OptLevel::O1).unwrap();
        assert!(compiled.assembly.contains("main:"));
    }
}
