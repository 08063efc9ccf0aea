//! In-flight instruction instances (`SimCode`).
//!
//! Every fetched instruction becomes a [`SimCode`]: a reference to its
//! predecoded static entry plus the dynamic pipeline state — renamed
//! source/destination registers, per-phase timestamps (displayed by the
//! instruction pop-up, Fig. 3), branch-prediction information, memory access
//! state and any exception raised during execution.
//!
//! Since the predecoded-µop refactor the struct is allocation-free: names are
//! interned [`Sym`]s, operand lists live in fixed [`InlineVec`]s, and static
//! facts (immediates, semantics, display text) stay in the shared
//! [`crate::predecode::PredecodedProgram`] instead of being cloned per fetch.

use crate::predecode::{LatencyClass, PredecodedInstr};
use crate::register_file::PhysRegTag;
use rvsim_isa::{DescriptorId, Exception, FunctionalClass, InlineVec, RegisterId, Sym, TypedValue};
use serde::{Deserialize, Serialize};

/// Unique, monotonically increasing instruction identifier (program order).
pub type InstrId = u64;

/// Most source operands an instruction reads (`fmadd.s` reads three).
pub const MAX_SOURCES: usize = 3;

/// Lifecycle of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstructionState {
    /// Fetched, waiting in the fetch buffer for decode/rename.
    Fetched,
    /// Renamed and sitting in an issue window (and the ROB).
    Dispatched,
    /// Executing in a functional unit.
    Executing,
    /// Waiting for a memory transaction to complete (loads).
    WaitingMemory,
    /// Finished executing, waiting to commit.
    Done,
}

/// Timestamps of the pipeline phases an instruction went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Timestamps {
    /// Cycle the instruction was fetched.
    pub fetch: Option<u64>,
    /// Cycle it was decoded/renamed/dispatched.
    pub dispatch: Option<u64>,
    /// Cycle it was issued to a functional unit.
    pub issue: Option<u64>,
    /// Cycle its functional-unit execution finished.
    pub execute: Option<u64>,
    /// Cycle its memory access completed (loads/stores).
    pub memory: Option<u64>,
    /// Cycle it committed.
    pub commit: Option<u64>,
}

/// One renamed source operand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceOperand {
    /// Descriptor argument name (`rs1`, `rs2`, `rs3`), interned.
    pub arg: Sym,
    /// Architectural register read.
    pub arch: RegisterId,
    /// Speculative register the operand waits for, if not ready at rename.
    pub wait_tag: Option<PhysRegTag>,
    /// The operand value, once known.
    pub value: Option<TypedValue>,
}

impl Default for SourceOperand {
    fn default() -> Self {
        SourceOperand { arg: Sym::default(), arch: RegisterId::x(0), wait_tag: None, value: None }
    }
}

impl SourceOperand {
    /// True once the value is available.
    pub fn ready(&self) -> bool {
        self.value.is_some()
    }
}

/// Renamed destination register.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DestOperand {
    /// Descriptor argument name (`rd`), interned.
    pub arg: Sym,
    /// Architectural destination register.
    pub arch: RegisterId,
    /// Declared data type of the destination (display metadata).
    pub data_type: rvsim_isa::DataType,
    /// Allocated speculative register (`None` for discarded `x0` writes).
    pub tag: Option<PhysRegTag>,
    /// RAT mapping displaced by this rename (for rollback on flush).
    pub previous: Option<PhysRegTag>,
}

/// An in-flight instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCode {
    /// Unique id in program (fetch) order.
    pub id: InstrId,
    /// Program counter of the instruction.
    pub pc: u64,
    /// Dense descriptor id (keys the dynamic mix and semantics lookup).
    pub desc: DescriptorId,
    /// Interned mnemonic (after pseudo-instruction expansion).
    pub mnemonic: Sym,
    /// Functional-unit class that executes the instruction.
    pub class: FunctionalClass,
    /// Latency class resolved at predecode time.
    pub latency: LatencyClass,
    /// Current lifecycle state.
    pub state: InstructionState,
    /// Phase timestamps.
    pub timestamps: Timestamps,
    /// Renamed source operands.
    pub sources: InlineVec<SourceOperand, MAX_SOURCES>,
    /// Renamed destination, if the instruction writes a register.
    pub dest: Option<DestOperand>,

    // ------------------------------------------------------------- branches
    /// Direction the fetch unit predicted.
    pub predicted_taken: bool,
    /// PC the fetch unit continued at after this instruction.
    pub predicted_next_pc: u64,
    /// Real direction, once resolved.
    pub actual_taken: Option<bool>,
    /// Real next PC, once resolved.
    pub actual_next_pc: Option<u64>,
    /// True when the branch was mispredicted and caused a flush.
    pub mispredicted: bool,

    // --------------------------------------------------------------- memory
    /// Effective address, once computed by the L/S unit.
    pub effective_address: Option<u64>,
    /// Value to store (stores) once read from the source register.
    pub store_value: Option<TypedValue>,
    /// Value loaded from memory (loads).
    pub loaded_value: Option<TypedValue>,
    /// Whether the access hit in the L1 cache.
    pub cache_hit: Option<bool>,

    // -------------------------------------------------------------- results
    /// Value written to the destination register.
    pub result: Option<TypedValue>,
    /// Exception raised during execution (acted on at commit).
    pub exception: Option<Exception>,
    /// FLOPs contributed when the instruction commits.
    pub flops: u32,
}

impl SimCode {
    /// Create a freshly fetched instruction from its predecoded entry —
    /// a handful of `Copy` fields, no heap traffic.
    pub fn fetched(id: InstrId, pc: u64, entry: &PredecodedInstr, cycle: u64) -> Self {
        SimCode {
            id,
            pc,
            desc: entry.desc,
            mnemonic: entry.mnemonic,
            class: entry.class,
            latency: entry.latency,
            state: InstructionState::Fetched,
            timestamps: Timestamps { fetch: Some(cycle), ..Default::default() },
            sources: InlineVec::new(),
            dest: None,
            predicted_taken: false,
            predicted_next_pc: pc + 4,
            actual_taken: None,
            actual_next_pc: None,
            mispredicted: false,
            effective_address: None,
            store_value: None,
            loaded_value: None,
            cache_hit: None,
            result: None,
            exception: None,
            flops: entry.flops,
        }
    }

    /// True when every source operand value is known.
    pub fn sources_ready(&self) -> bool {
        self.sources.iter().all(SourceOperand::ready)
    }

    /// Deliver the value of `tag` to source operand `source`, which waits
    /// for it.
    pub fn wake_up(&mut self, source: usize, tag: PhysRegTag, value: TypedValue) {
        let src = &mut self.sources[source];
        debug_assert!(
            src.wait_tag == Some(tag) && src.value.is_none(),
            "woke a source that does not wait for {tag}"
        );
        src.value = Some(value);
    }

    /// Value of the source operand named `arg`, if known.
    pub fn source_value(&self, arg: Sym) -> Option<TypedValue> {
        self.sources.iter().find(|s| s.arg == arg).and_then(|s| s.value)
    }

    /// True for instructions that are finished from the ROB's point of view.
    pub fn is_done(&self) -> bool {
        self.state == InstructionState::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_isa::{SYM_RS1, SYM_RS2};

    fn code() -> SimCode {
        let entry = PredecodedInstr {
            desc: DescriptorId(0),
            mnemonic: Sym::new("add"),
            class: FunctionalClass::Fx,
            flops: 0,
            latency: LatencyClass::IntAlu,
            is_cond_branch: false,
            is_uncond_jump: false,
            is_direct_jal: false,
            static_target: 0,
            memory: None,
            srcs: InlineVec::new(),
            dst: None,
            imms: InlineVec::new(),
            store_data: None,
        };
        SimCode::fetched(1, 0x10, &entry, 7)
    }

    #[test]
    fn fetched_state_and_timestamp() {
        let c = code();
        assert_eq!(c.state, InstructionState::Fetched);
        assert_eq!(c.timestamps.fetch, Some(7));
        assert_eq!(c.predicted_next_pc, 0x14);
        assert_eq!(c.mnemonic, "add");
        assert_eq!(c.latency, LatencyClass::IntAlu);
        assert!(!c.is_done());
    }

    #[test]
    fn sources_ready_and_wake_up() {
        let mut c = code();
        c.sources.push(SourceOperand {
            arg: SYM_RS1,
            arch: RegisterId::x(11),
            wait_tag: None,
            value: Some(TypedValue::int(1)),
        });
        c.sources.push(SourceOperand {
            arg: SYM_RS2,
            arch: RegisterId::x(12),
            wait_tag: Some(PhysRegTag(3)),
            value: None,
        });
        assert!(!c.sources_ready());
        c.wake_up(1, PhysRegTag(3), TypedValue::int(5));
        assert!(c.sources_ready());
        assert_eq!(c.source_value(SYM_RS2), Some(TypedValue::int(5)));
        assert_eq!(c.source_value(SYM_RS1), Some(TypedValue::int(1)));
        assert_eq!(c.source_value(Sym::new("rs9")), None);
    }

    #[test]
    fn lifecycle_flags() {
        let mut c = code();
        c.state = InstructionState::Done;
        assert!(c.is_done());
        c.state = InstructionState::WaitingMemory;
        assert!(!c.is_done());
    }

    #[test]
    fn sim_code_serde_round_trip() {
        let mut c = code();
        c.sources.push(SourceOperand {
            arg: SYM_RS1,
            arch: RegisterId::x(11),
            wait_tag: Some(PhysRegTag(4)),
            value: None,
        });
        c.dest = Some(DestOperand {
            arg: rvsim_isa::SYM_RD,
            arch: RegisterId::x(10),
            data_type: rvsim_isa::DataType::Int,
            tag: Some(PhysRegTag(9)),
            previous: None,
        });
        let json = serde_json::to_string(&c).unwrap();
        let back: SimCode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
