//! Slot-resolved semantics against the string evaluator.
//!
//! Predecode compiles each descriptor's semantics against its operand
//! layout, and the pipeline and the ISS fill the operand slots with the
//! same code, so cosimulation cannot see an argument read from the wrong
//! slot.  This suite can.  For every descriptor of the built-in set, plus a
//! user descriptor that reads an argument it does not have, it predecodes
//! one instruction with random registers and immediates.  Each semantics
//! expression then runs twice: compiled, through the instruction's operand
//! slots, and as a string, through an `Evaluator` given the same values by
//! argument name.  The result, the first assigned value and any exception
//! must agree.

use proptest::prelude::*;
use rvsim_asm::{AsmInstruction, Operand, Program};
use rvsim_core::PredecodedProgram;
use rvsim_isa::{
    ArgKind, CompiledExpr, Evaluator, Exception, InstructionDescriptor, InstructionSet,
    RegisterFileKind, RegisterId, TypedValue,
};

/// The built-in set plus `readsdest`, an `add` whose semantics read `\rd`:
/// a write-back argument has no operand slot, so both evaluators must
/// raise "unbound argument".
fn instruction_set() -> InstructionSet {
    let mut isa = InstructionSet::rv32imf();
    let mut reads_dest = isa.get("add").unwrap().clone();
    reads_dest.name = "readsdest".into();
    reads_dest.interpretable_as = "\\rd \\rs1 + \\rd =".into();
    isa.add(reads_dest);
    isa
}

/// A quarter of the raw values become -2..=2, so divisions by zero and
/// equal operands turn up.
fn mostly_raw(raw: u32) -> u32 {
    if raw & 3 == 0 {
        (((raw >> 2) % 5) as i32 - 2) as u32
    } else {
        raw
    }
}

/// The value the test gives register `reg`.
fn register_value(reg: RegisterId, values: &[u32]) -> TypedValue {
    match reg.kind {
        RegisterFileKind::Int => TypedValue::int(mostly_raw(values[reg.index as usize]) as i32),
        RegisterFileKind::Fp => {
            let raw = values[32 + reg.index as usize];
            let bits = if raw & 3 == 0 { (mostly_raw(raw) as i32 as f32).to_bits() } else { raw };
            TypedValue::float(f32::from_bits(bits))
        }
    }
}

/// One instruction of `d` at `address`, its operands in argument order.
fn instruction(
    d: &InstructionDescriptor,
    address: u64,
    picks: &[u8],
    imms: &[u32],
) -> AsmInstruction {
    let operands = d
        .arguments
        .iter()
        .enumerate()
        .map(|(i, arg)| match arg.kind {
            ArgKind::IntReg => Operand::Register(RegisterId::x(picks[i])),
            ArgKind::FpReg => Operand::Register(RegisterId::f(picks[i])),
            ArgKind::Imm | ArgKind::Label => Operand::Immediate(mostly_raw(imms[i]) as i32 as i64),
        })
        .collect();
    AsmInstruction {
        mnemonic: d.name.clone(),
        operands,
        address,
        source_line: 1,
        text: d.name.clone(),
    }
}

/// The descriptor's expressions as strings, each with its compiled form.
fn expressions<'a>(
    d: &'a InstructionDescriptor,
    sem: &'a rvsim_core::predecode::DescSemantics,
) -> Vec<(&'a str, &'a CompiledExpr)> {
    let address = d.memory.map(|_| d.address.as_deref().unwrap_or("\\rs1"));
    [
        (Some(d.interpretable_as.as_str()).filter(|e| !e.is_empty()), &sem.interpretable),
        (d.condition.as_deref(), &sem.condition),
        (d.target.as_deref(), &sem.target),
        (address, &sem.address),
    ]
    .into_iter()
    .filter_map(|(source, compiled)| {
        let compiled = compiled.as_ref();
        assert_eq!(source.is_some(), compiled.is_some(), "`{}` compiles each expression", d.name);
        source.zip(compiled)
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_semantics_match_the_string_evaluator(
        values in proptest::collection::vec(any::<u32>(), 64..65),
        picks in proptest::collection::vec(0u8..32, 4..5),
        imms in proptest::collection::vec(any::<u32>(), 4..5),
    ) {
        let isa = instruction_set();
        let descriptors: Vec<&InstructionDescriptor> =
            isa.iter_with_ids().map(|(_, d)| d).collect();
        let program = Program {
            instructions: descriptors
                .iter()
                .enumerate()
                .map(|(i, d)| instruction(d, i as u64 * 4, &picks, &imms))
                .collect(),
            ..Program::default()
        };
        let predecoded = PredecodedProgram::new(&program, &isa).expect("predecodes");

        let mut unbound = 0;
        for (i, d) in descriptors.iter().enumerate() {
            let pc = i as u64 * 4;
            let entry = predecoded.entry(pc).expect("predecoded");
            let ins = &program.instructions[i];

            // The slot path: operands as the pipeline and the ISS build them.
            let operands =
                entry.operands(pc, entry.srcs.iter().map(|s| register_value(s.reg, &values)));
            // The oracle: every argument but the destination bound by name,
            // in argument order, then the pc.
            let mut evaluator = Evaluator::new();
            for (position, arg) in d.arguments.iter().enumerate() {
                if arg.write_back {
                    continue;
                }
                let value = match ins.operands[position] {
                    Operand::Register(reg) => register_value(reg, &values),
                    Operand::Immediate(imm) => TypedValue::int(imm as i32),
                };
                evaluator.bind(&arg.name, value);
            }
            evaluator.bind("pc", TypedValue::int(pc as i32));

            for (source, compiled) in expressions(d, predecoded.semantics(entry.desc)) {
                let fast = compiled.run(&operands);
                match (evaluator.run(source), fast) {
                    (Ok(slow), Ok(fast)) => {
                        prop_assert_eq!(slow.result, fast.result, "{} `{}`: result", d.name, source);
                        let first = slow.assignments.first().map(|(_, v)| *v);
                        prop_assert_eq!(first, fast.assigned, "{} `{}`: assignment", d.name, source);
                    }
                    (Err(slow), Err(fast)) => {
                        prop_assert_eq!(&slow, &fast, "{} `{}`: exception", d.name, source);
                        if matches!(&fast, Exception::Interpreter(m) if m.contains("unbound")) {
                            unbound += 1;
                        }
                    }
                    (slow, fast) => {
                        prop_assert!(false, "{} `{}`: {:?} vs {:?}", d.name, source, slow, fast);
                    }
                }
            }
        }
        prop_assert_eq!(unbound, 1, "only `readsdest` reads an unbound argument");
    }
}
