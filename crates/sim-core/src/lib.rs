//! # rvsim-core — cycle-level superscalar out-of-order RISC-V simulator
//!
//! This crate is the Rust reproduction of the simulation engine described in
//! the paper "Web-Based Simulator of Superscalar RISC-V Processors" (SC'24):
//! a fully configurable superscalar, out-of-order RV32IM+F processor with
//! register renaming, per-class issue windows, non-pipelined functional units,
//! load/store buffers, an L1 cache, branch prediction, precise exceptions at
//! commit, forward **and backward** stepping, and detailed runtime statistics.
//!
//! The main entry point is [`Simulator`]:
//!
//! ```
//! use rvsim_core::{ArchitectureConfig, Simulator};
//!
//! let asm = "
//! main:
//!     li   a0, 0
//!     li   t0, 10
//! loop:
//!     addi a0, a0, 2
//!     addi t0, t0, -1
//!     bnez t0, loop
//!     ret
//! ";
//! let config = ArchitectureConfig::default();
//! let mut sim = Simulator::from_assembly(asm, &config).unwrap();
//! let result = sim.run(10_000).unwrap();
//! assert_eq!(sim.int_register(10), 20);          // a0 = 2 * 10
//! assert!(result.statistics.ipc() > 0.0);
//! ```
//!
//! The module layout mirrors the paper's block diagram (Fig. 12): fetch,
//! decode/rename, issue windows, functional units, load/store buffers, the
//! memory access unit and the reorder buffer are each their own component,
//! stepped once per clock by the simulation step manager.

#![warn(missing_docs)]

pub mod config;
pub mod inflight;
pub mod instruction;
pub mod log;
pub mod predecode;
pub mod register_file;
pub mod simulator;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod units;
mod wakeup;

pub use config::{
    ArchitectureConfig, BufferConfig, FpUnitConfig, FunctionalUnitsConfig, FxUnitConfig,
    MemoryConfig,
};
pub use inflight::InFlightRing;
pub use instruction::{InstrId, InstructionState, SimCode};
pub use log::{DebugLog, LogEntry, LogEvent};
pub use predecode::{LatencyClass, PredecodedInstr, PredecodedProgram};
pub use register_file::{PhysRegTag, RegisterFile};
pub use simulator::{HaltReason, RunResult, Simulator, CHECKPOINT_INTERVAL};
pub use snapshot::{
    CacheLineView, HeadlineStats, InstructionView, ProcessorSnapshot, RegisterView, SnapshotBuffer,
    SnapshotDelta,
};
pub use stats::SimulationStatistics;
pub use trace::{MemEffect, RetireEvent};
