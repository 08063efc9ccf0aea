//! Decode-once predecoded instruction layer.
//!
//! The seed implementation re-decoded every fetched instruction from the
//! [`Program`]: a `String`-keyed ISA lookup plus descriptor / mnemonic /
//! operand-name clones, repeated on every mispredict replay and on every
//! `step_back` re-simulation.  [`PredecodedProgram`] does all of that work
//! exactly once, at `Simulator::new`: every static instruction becomes a
//! compact [`PredecodedInstr`] (descriptor id, interned names, operand specs,
//! immediates, latency class, static branch target) indexed by `pc / 4`, and
//! every descriptor's postfix semantics are compiled to flat op sequences
//! ([`CompiledExpr`]) against its operand layout ([`operand_slots`]): each
//! argument name becomes a slot index once, here.  Fetch becomes an array
//! index, and execution fills a fixed operand array with the source values,
//! immediates and pc in those slots and runs the compiled expression — no
//! name lookup and no per-instruction heap traffic anywhere in the simulate
//! loop.

use crate::instruction::MAX_SOURCES;
use rvsim_asm::Program;
use rvsim_isa::{
    ArgKind, CompiledExpr, DataType, DescriptorId, FunctionalClass, InlineVec,
    InstructionDescriptor, InstructionSet, MemoryAccessDescriptor, Operands, RegisterId, Sym,
    TypedValue, MAX_OPERANDS, SYM_PC, SYM_RS2,
};
use serde::{Deserialize, Serialize};

/// Functional-unit latency class, resolved from the mnemonic at predecode
/// time so the issue stage never inspects strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LatencyClass {
    /// Simple integer ALU operation.
    #[default]
    IntAlu,
    /// Integer multiplication (`mul*`).
    IntMul,
    /// Integer division / remainder (`div*`, `rem*`).
    IntDiv,
    /// FP add/sub/compare/move/convert.
    FpAlu,
    /// FP multiplication (`fmul*`).
    FpMul,
    /// FP division (`fdiv*`).
    FpDiv,
    /// FP square root (`fsqrt*`).
    FpSqrt,
    /// Fused multiply-add family (`fmadd*`, `fmsub*`, `fnmadd*`, `fnmsub*`).
    FpFma,
}

impl LatencyClass {
    /// True for instructions that need a multiply/divide-capable FX unit.
    pub fn is_mul_div(self) -> bool {
        matches!(self, LatencyClass::IntMul | LatencyClass::IntDiv)
    }

    /// Classify a mnemonic, mirroring the latency tables of
    /// [`crate::config::FxUnitConfig`] / [`crate::config::FpUnitConfig`].
    fn classify(mnemonic: &str, class: FunctionalClass) -> LatencyClass {
        match class {
            FunctionalClass::Fx => {
                if mnemonic.starts_with("mul") {
                    LatencyClass::IntMul
                } else if mnemonic.starts_with("div") || mnemonic.starts_with("rem") {
                    LatencyClass::IntDiv
                } else {
                    LatencyClass::IntAlu
                }
            }
            FunctionalClass::Fp => {
                if mnemonic.starts_with("fdiv") {
                    LatencyClass::FpDiv
                } else if mnemonic.starts_with("fsqrt") {
                    LatencyClass::FpSqrt
                } else if mnemonic.starts_with("fmadd")
                    || mnemonic.starts_with("fmsub")
                    || mnemonic.starts_with("fnmadd")
                    || mnemonic.starts_with("fnmsub")
                {
                    LatencyClass::FpFma
                } else if mnemonic.starts_with("fmul") {
                    LatencyClass::FpMul
                } else {
                    LatencyClass::FpAlu
                }
            }
            _ => LatencyClass::IntAlu,
        }
    }
}

/// A register-source operand of a predecoded instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrcSpec {
    /// Descriptor argument name (`rs1`, `rs2`, `rs3`), interned.
    pub arg: Sym,
    /// Architectural register read.
    pub reg: RegisterId,
}

impl Default for SrcSpec {
    fn default() -> Self {
        SrcSpec { arg: Sym::default(), reg: RegisterId::x(0) }
    }
}

/// The register-destination operand of a predecoded instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DstSpec {
    /// Descriptor argument name (`rd`), interned.
    pub arg: Sym,
    /// Architectural destination register.
    pub reg: RegisterId,
    /// Declared data type of the destination (display metadata).
    pub data_type: DataType,
}

/// One fully decoded static instruction, ready for zero-allocation dispatch.
#[derive(Debug, Clone)]
pub struct PredecodedInstr {
    /// Dense descriptor id within the instruction set.
    pub desc: DescriptorId,
    /// Interned mnemonic (display / trace).
    pub mnemonic: Sym,
    /// Functional-unit class.
    pub class: FunctionalClass,
    /// FLOPs contributed at commit.
    pub flops: u32,
    /// Latency class for the issue stage.
    pub latency: LatencyClass,
    /// True for conditional branches.
    pub is_cond_branch: bool,
    /// True for unconditional jumps (`jal`, `jalr`).
    pub is_uncond_jump: bool,
    /// True for `jal`: the jump target is known statically.
    pub is_direct_jal: bool,
    /// Statically resolved `jal` target (valid when `is_direct_jal`).
    pub static_target: u64,
    /// Memory access shape for loads/stores.
    pub memory: Option<MemoryAccessDescriptor>,
    /// Register sources in descriptor order.
    pub srcs: InlineVec<SrcSpec, 3>,
    /// Register destination, if the instruction writes one back.
    pub dst: Option<DstSpec>,
    /// Immediate operands in descriptor order, as the 32-bit ints the
    /// semantics read (branch offsets are PC-relative bytes).
    pub imms: InlineVec<i32, MAX_IMMEDIATES>,
    /// Index into `srcs` of the store-data operand (stores only).
    pub store_data: Option<u8>,
}

impl PredecodedInstr {
    /// True for conditional branches and unconditional jumps.
    pub fn is_control_flow(&self) -> bool {
        self.class == FunctionalClass::Branch
    }

    /// The operands of one evaluation of this instruction at `pc`, in the
    /// slots of [`operand_slots`]: the values of the register sources in
    /// `srcs` order, then the immediates, then the pc.
    #[inline]
    pub fn operands(&self, pc: u64, sources: impl IntoIterator<Item = TypedValue>) -> Operands {
        let mut operands = [TypedValue::default(); MAX_OPERANDS];
        for (slot, value) in operands.iter_mut().zip(sources) {
            *slot = value;
        }
        let rest = &mut operands[self.srcs.len()..];
        for (slot, &imm) in rest.iter_mut().zip(self.imms.iter()) {
            *slot = TypedValue::int(imm);
        }
        rest[self.imms.len()] = TypedValue::int(pc as i32);
        operands
    }
}

/// The operand layout of a descriptor's semantics: the names of its
/// register sources in argument order, then of its immediates, then `pc`.
/// Position `i` names operand slot `i`, the slot a compiled expression
/// reads the argument from; where a name repeats, the last slot wins, as
/// when binding the names in this order.
pub fn operand_slots(d: &InstructionDescriptor) -> Result<InlineVec<Sym, MAX_OPERANDS>, String> {
    let non_dest = || d.arguments.iter().filter(|a| !a.write_back);
    let is_reg = |kind| matches!(kind, ArgKind::IntReg | ArgKind::FpReg);
    let mut slots = InlineVec::new();
    for arg in non_dest().filter(|a| is_reg(a.kind)) {
        if slots.len() == MAX_SOURCES {
            return Err(format!("`{}`: more than {MAX_SOURCES} register sources", d.name));
        }
        slots.push(Sym::new(&arg.name));
    }
    let sources = slots.len();
    for arg in non_dest().filter(|a| !is_reg(a.kind)) {
        if slots.len() - sources == MAX_IMMEDIATES {
            return Err(format!("`{}`: more than {MAX_IMMEDIATES} immediates", d.name));
        }
        slots.push(Sym::new(&arg.name));
    }
    slots.push(SYM_PC);
    Ok(slots)
}

/// Most immediates an instruction has.
pub const MAX_IMMEDIATES: usize = MAX_OPERANDS - MAX_SOURCES - 1;

/// Compiled semantics of one instruction descriptor.
#[derive(Debug, Clone, Default)]
pub struct DescSemantics {
    /// Main semantics (`interpretableAs`); `None` when the descriptor's
    /// expression is empty.
    pub interpretable: Option<CompiledExpr>,
    /// Branch condition; `None` for unconditional jumps.
    pub condition: Option<CompiledExpr>,
    /// Branch / jump target.
    pub target: Option<CompiledExpr>,
    /// Effective-address expression (memory instructions; defaults to
    /// `"\rs1"` when the descriptor omits it, like the seed did at runtime).
    pub address: Option<CompiledExpr>,
}

/// The whole program, decoded once.
#[derive(Debug)]
pub struct PredecodedProgram {
    entries: Vec<PredecodedInstr>,
    semantics: Vec<DescSemantics>,
    names: Vec<Sym>,
}

impl PredecodedProgram {
    /// Predecode `program` against `isa`.  Fails on descriptors whose
    /// semantics do not compile or whose operand lists exceed the inline
    /// bounds (3 register sources, 2 immediates) — both impossible for the
    /// built-in RV32IM+F table and caught here, before simulation, for
    /// user-extended sets.
    pub fn new(program: &Program, isa: &InstructionSet) -> Result<Self, String> {
        // Compile every descriptor's semantics once, keyed by DescriptorId.
        let mut semantics = Vec::with_capacity(isa.len());
        let mut names = Vec::with_capacity(isa.len());
        let mut compile_errors: Vec<Option<String>> = Vec::with_capacity(isa.len());
        for (_, d) in isa.iter_with_ids() {
            names.push(Sym::new(&d.name));
            let slots = match operand_slots(d) {
                Ok(slots) => slots,
                Err(error) => {
                    semantics.push(DescSemantics::default());
                    compile_errors.push(Some(error));
                    continue;
                }
            };
            let mut error = None;
            let mut compile = |expr: &str| -> Option<CompiledExpr> {
                match CompiledExpr::compile(expr, &slots) {
                    Ok(compiled) => Some(compiled),
                    Err(e) => {
                        error = Some(format!("instruction `{}`: {e}", d.name));
                        None
                    }
                }
            };
            let interpretable =
                if d.interpretable_as.is_empty() { None } else { compile(&d.interpretable_as) };
            let condition = d.condition.as_deref().and_then(&mut compile);
            let target = d.target.as_deref().and_then(&mut compile);
            let address = if d.memory.is_some() {
                Some(compile(d.address.as_deref().unwrap_or("\\rs1")))
            } else {
                None
            }
            .flatten();
            // Load/Store-class descriptors without a memory shape would
            // leave the execute stages with no address expression or access
            // size; reject them here, before simulation.
            if matches!(d.functional_class, FunctionalClass::Load | FunctionalClass::Store)
                && d.memory.is_none()
                && error.is_none()
            {
                error = Some(format!(
                    "instruction `{}`: {} descriptor has no memory access shape",
                    d.name,
                    d.functional_class.short_name()
                ));
            }
            semantics.push(DescSemantics { interpretable, condition, target, address });
            compile_errors.push(error);
        }

        let mut entries = Vec::with_capacity(program.len());
        for ins in &program.instructions {
            let desc = isa
                .id_of(&ins.mnemonic)
                .ok_or_else(|| format!("instruction `{}` not in the ISA", ins.mnemonic))?;
            if let Some(error) = &compile_errors[desc.index()] {
                return Err(error.clone());
            }
            let d = isa.get_by_id(desc).expect("id from id_of");

            // The operand layout (checked above) puts the sources first, the
            // immediates after them and the pc last.
            let mut srcs = InlineVec::new();
            let mut imms = InlineVec::new();
            let mut dst = None;
            for (i, arg) in d.arguments.iter().enumerate() {
                let sym = Sym::new(&arg.name);
                if arg.write_back {
                    let reg = ins.reg(i).ok_or_else(|| {
                        format!("`{}`: destination operand {i} is not a register", ins.mnemonic)
                    })?;
                    dst = Some(DstSpec { arg: sym, reg, data_type: arg.data_type });
                    continue;
                }
                match arg.kind {
                    ArgKind::IntReg | ArgKind::FpReg => {
                        let reg = ins.reg(i).ok_or_else(|| {
                            format!("`{}`: operand {i} is not a register", ins.mnemonic)
                        })?;
                        srcs.push(SrcSpec { arg: sym, reg });
                    }
                    ArgKind::Imm | ArgKind::Label => {
                        imms.push(ins.imm(i).unwrap_or(0) as i32);
                    }
                }
            }

            let store_data = if d.is_store() {
                srcs.iter().position(|s| s.arg == SYM_RS2).map(|i| i as u8)
            } else {
                None
            };
            let is_direct_jal = ins.mnemonic == "jal";
            let static_target = if is_direct_jal {
                (ins.address as i64 + ins.imm(1).unwrap_or(0)) as u64
            } else {
                0
            };

            entries.push(PredecodedInstr {
                desc,
                mnemonic: names[desc.index()],
                class: d.functional_class,
                flops: d.flops,
                latency: LatencyClass::classify(&d.name, d.functional_class),
                is_cond_branch: d.is_conditional_branch(),
                is_uncond_jump: d.is_unconditional_jump(),
                is_direct_jal,
                static_target,
                memory: d.memory,
                srcs,
                dst,
                imms,
                store_data,
            });
        }

        Ok(PredecodedProgram { entries, semantics, names })
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Predecoded instruction at byte address `pc` (None when misaligned or
    /// outside the code segment) — the hot-path replacement for
    /// `Program::at` + descriptor lookup.
    #[inline]
    pub fn entry(&self, pc: u64) -> Option<&PredecodedInstr> {
        if pc & 3 != 0 {
            return None;
        }
        self.entries.get((pc >> 2) as usize)
    }

    /// Compiled semantics of the descriptor with the given id.
    #[inline]
    pub fn semantics(&self, id: DescriptorId) -> &DescSemantics {
        &self.semantics[id.index()]
    }

    /// Interned mnemonic of the descriptor with the given id.
    #[inline]
    pub fn name(&self, id: DescriptorId) -> Sym {
        self.names[id.index()]
    }

    /// Number of descriptors (the dense id range) — sizes id-indexed counters
    /// like the dynamic instruction mix.
    pub fn descriptor_count(&self) -> usize {
        self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_asm::{assemble, AssemblerOptions};

    fn predecode(source: &str) -> PredecodedProgram {
        let isa = InstructionSet::rv32imf();
        let program = assemble(source, &isa, &AssemblerOptions::default()).expect("assembles");
        PredecodedProgram::new(&program, &isa).expect("predecodes")
    }

    #[test]
    fn predecodes_operands_and_flags() {
        let pp = predecode(
            "main:
                addi a0, x0, 5
                mul  a1, a0, a0
                lw   a2, 4(sp)
                sw   a2, 8(sp)
                beq  a0, a1, main
                jal  ra, main
            ",
        );
        assert_eq!(pp.len(), 6);

        let addi = pp.entry(0).unwrap();
        assert_eq!(addi.mnemonic, "addi");
        assert_eq!(addi.class, FunctionalClass::Fx);
        assert_eq!(addi.latency, LatencyClass::IntAlu);
        assert_eq!(addi.srcs.len(), 1);
        assert_eq!(addi.srcs[0].reg, RegisterId::x(0));
        assert_eq!(addi.dst.unwrap().reg, RegisterId::x(10));
        // Slots: rs1, then imm, then pc.
        let operands = addi.operands(0, [TypedValue::int(9)]);
        assert_eq!(operands[..3], [TypedValue::int(9), TypedValue::int(5), TypedValue::int(0)]);

        let mul = pp.entry(4).unwrap();
        assert_eq!(mul.latency, LatencyClass::IntMul);
        assert!(mul.latency.is_mul_div());

        let lw = pp.entry(8).unwrap();
        assert_eq!(lw.class, FunctionalClass::Load);
        assert_eq!(lw.memory.unwrap().size, 4);
        assert!(lw.store_data.is_none());

        let sw = pp.entry(12).unwrap();
        assert_eq!(sw.class, FunctionalClass::Store);
        let store_src = sw.srcs[sw.store_data.unwrap() as usize];
        assert_eq!(store_src.reg, RegisterId::x(12), "store data comes from rs2 = a2");

        let beq = pp.entry(16).unwrap();
        assert!(beq.is_cond_branch);
        assert!(!beq.is_uncond_jump);
        assert!(beq.is_control_flow());

        let beq_operands = beq.operands(16, [TypedValue::int(1), TypedValue::int(2)]);
        assert_eq!(beq_operands[2..4], [TypedValue::int(-16), TypedValue::int(16)], "offset, pc");

        let jal = pp.entry(20).unwrap();
        assert!(jal.is_uncond_jump);
        assert!(jal.is_direct_jal);
        assert_eq!(jal.static_target, 0, "jal back to main at pc 0");

        // Misaligned / out-of-range lookups.
        assert!(pp.entry(2).is_none());
        assert!(pp.entry(24).is_none());
    }

    #[test]
    fn semantics_are_compiled_per_descriptor() {
        let pp = predecode("main:\n    add a0, a0, a0\n    ret\n");
        let add = pp.entry(0).unwrap();
        let sem = pp.semantics(add.desc);
        assert!(sem.interpretable.is_some());
        assert!(sem.condition.is_none());
        assert!(sem.address.is_none());
        // `ret` expands to jalr: link write + target, no condition.
        let jalr = pp.entry(4).unwrap();
        let sem = pp.semantics(jalr.desc);
        assert!(sem.interpretable.is_some());
        assert!(sem.target.is_some());
        assert!(sem.condition.is_none());
        assert_eq!(pp.name(add.desc), "add");
        assert!(pp.descriptor_count() > 60);
    }

    #[test]
    fn operand_slots_put_sources_then_immediates_then_pc() {
        let isa = InstructionSet::rv32imf();
        let names = |mnemonic: &str| -> Vec<String> {
            let slots = operand_slots(isa.get(mnemonic).unwrap()).unwrap();
            slots.iter().map(|s| s.as_str().to_string()).collect()
        };
        assert_eq!(names("add"), ["rs1", "rs2", "pc"]);
        assert_eq!(names("sw"), ["rs2", "rs1", "imm", "pc"], "the store data is a source");
        assert_eq!(names("lui"), ["imm", "pc"]);
        assert_eq!(names("fmadd.s"), ["rs1", "rs2", "rs3", "pc"]);

        let mut wide = isa.get("fmadd.s").unwrap().clone();
        wide.arguments.push(rvsim_isa::ArgumentDescriptor::fp_reg("rs4"));
        let err = operand_slots(&wide).unwrap_err();
        assert!(err.contains("more than 3 register sources"), "{err}");
    }

    #[test]
    fn fp_latency_classes() {
        let pp = predecode(
            "main:
                fadd.s  fa0, fa0, fa1
                fmul.s  fa0, fa0, fa1
                fdiv.s  fa0, fa0, fa1
                fsqrt.s fa0, fa0
                fmadd.s fa0, fa0, fa1, fa2
                ret
            ",
        );
        let classes: Vec<LatencyClass> = (0..5).map(|i| pp.entry(i * 4).unwrap().latency).collect();
        assert_eq!(
            classes,
            vec![
                LatencyClass::FpAlu,
                LatencyClass::FpMul,
                LatencyClass::FpDiv,
                LatencyClass::FpSqrt,
                LatencyClass::FpFma,
            ]
        );
        assert!(!LatencyClass::FpFma.is_mul_div());
    }

    #[test]
    fn memoryless_load_descriptor_is_reported_at_predecode() {
        let mut isa = InstructionSet::rv32imf();
        let mut bad = isa.get("lw").unwrap().clone();
        bad.name = "badload".into();
        bad.memory = None;
        isa.add(bad);
        let program =
            assemble("main:\n    badload a0, 0, sp\n    ret\n", &isa, &AssemblerOptions::default())
                .expect("assembles");
        let err = PredecodedProgram::new(&program, &isa).unwrap_err();
        assert!(err.contains("badload"), "{err}");
        assert!(err.contains("memory access shape"), "{err}");
    }

    #[test]
    fn broken_user_descriptor_is_reported_at_predecode() {
        let mut isa = InstructionSet::rv32imf();
        let mut bad = isa.get("add").unwrap().clone();
        bad.name = "badop".into();
        bad.interpretable_as = "\\rs1 wat".into();
        isa.add(bad);
        let program =
            assemble("main:\n    badop a0, a0, a0\n    ret\n", &isa, &AssemblerOptions::default())
                .expect("assembles");
        let err = PredecodedProgram::new(&program, &isa).unwrap_err();
        assert!(err.contains("badop"), "{err}");
        assert!(err.contains("unknown token"), "{err}");
    }
}
