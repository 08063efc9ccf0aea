//! # rvsim-isa — RISC-V instruction-set model
//!
//! This crate models the RV32IM+F instruction set the way the SC'24 paper's
//! simulator does: instructions are *data*, not code.  Every instruction is an
//! [`InstructionDescriptor`] holding its argument list and a small postfix
//! expression (the paper's `interpretableAs` string) that a stack-based
//! interpreter ([`expression::Evaluator`]) executes when a functional unit
//! finishes the instruction; the simulators run it compiled once, with its
//! argument names resolved to operand slots ([`CompiledExpr`]).
//!
//! The crate provides:
//!
//! * [`register`] — architectural register identifiers (`x0..x31`, `f0..f31`),
//!   ABI aliases, and the 64-bit [`register::RegisterValue`] representation
//!   with data-type metadata (paper §III-B).
//! * [`value`] — [`value::TypedValue`], the operand value model used by the
//!   expression interpreter.
//! * [`expression`] — the postfix interpreter with assignment side effects and
//!   exception generation (division by zero, …).
//! * [`descriptor`] — [`InstructionDescriptor`] / [`InstructionSet`] plus JSON
//!   import/export so the instruction set can be extended by configuration,
//!   exactly like the paper's JSON instruction file (Listing 1).
//! * [`riscv`] — the built-in RV32IM+F (and a D subset) instruction table.
//! * [`pseudo`] — pseudo-instruction expansion (`li`, `la`, `mv`, `ret`, …).
//!
//! ```
//! use rvsim_isa::{InstructionSet, expression::Evaluator, value::TypedValue};
//!
//! let isa = InstructionSet::rv32imf();
//! let add = isa.get("add").unwrap();
//! let mut eval = Evaluator::new();
//! eval.bind("rs1", TypedValue::int(40));
//! eval.bind("rs2", TypedValue::int(2));
//! eval.bind("rd", TypedValue::int(0));
//! let out = eval.run(&add.interpretable_as).unwrap();
//! assert_eq!(out.assignments[0].1.as_i64(), 42);
//! ```

#![warn(missing_docs)]

pub mod descriptor;
pub mod expression;
pub mod inline_vec;
pub mod intern;
pub mod pseudo;
pub mod register;
pub mod riscv;
pub mod types;
pub mod value;

pub use descriptor::{
    ArgumentDescriptor, DescriptorId, InstructionDescriptor, InstructionSet, MemoryAccessDescriptor,
};
pub use expression::{CompiledExpr, CompiledOutput, EvalOutput, Evaluator, Operands, MAX_OPERANDS};
pub use inline_vec::InlineVec;
pub use intern::{Sym, SYM_EMPTY, SYM_IMM, SYM_PC, SYM_RD, SYM_RS1, SYM_RS2, SYM_RS3};
pub use register::{RegisterFileKind, RegisterId, RegisterValue};
pub use types::{ArgKind, DataType, Exception, FunctionalClass, InstructionType};
pub use value::TypedValue;
