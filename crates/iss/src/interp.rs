//! The in-order, architecturally-exact reference interpreter.
//!
//! [`Iss`] executes the same assembled [`Program`] against the same
//! [`ArchitectureConfig`] as the pipeline simulator, but with single-cycle
//! semantics: one instruction per step, no renaming, no speculation, no
//! buffers.  Its state is purely architectural — 32+32 registers, flat main
//! memory, a program counter and a halt reason — which is exactly the state
//! the two models must agree on at every retirement.
//!
//! The interpreter deliberately reuses the *predecoded* instruction layer
//! shared with the pipeline ([`PredecodedProgram`]): dispatch is keyed by
//! dense `DescriptorId` and semantics run as compiled postfix expressions,
//! so divergences point at the pipeline machinery under test — renaming,
//! forwarding, speculation, flush recovery, store/load ordering — rather
//! than at duplicated ALU tables.  The memory access conversions are
//! implemented independently and must mirror the pipeline's commit/convert
//! rules bit for bit.

use rvsim_asm::{assemble, AssemblerOptions, Program};
use rvsim_core::{ArchitectureConfig, HaltReason, MemEffect, PredecodedProgram, RetireEvent};
use rvsim_isa::{
    CompiledOutput, DataType, Exception, FunctionalClass, InstructionSet, Operands, RegisterId,
    RegisterValue, Sym, TypedValue,
};
use rvsim_mem::{MainMemory, MemorySettings};
use std::sync::Arc;

/// A deliberately wrong result transformation, used by tests to prove the
/// co-simulation harness catches real bugs: whenever the ISS retires an
/// instruction with this mnemonic, the destination register bits are XOR-ed
/// with `xor_bits` before being written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Mnemonic the fault applies to (after pseudo-instruction expansion).
    pub mnemonic: String,
    /// Bits flipped in the destination value.
    pub xor_bits: u64,
}

/// Result of [`Iss::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssResult {
    /// Why execution stopped.
    pub halt: HaltReason,
    /// Instructions retired in total.
    pub retired: u64,
}

/// The in-order reference interpreter.
#[derive(Debug)]
pub struct Iss {
    program: Program,
    predecoded: Arc<PredecodedProgram>,
    int_regs: [RegisterValue; 32],
    fp_regs: [RegisterValue; 32],
    mem: MainMemory,
    pc: u64,
    retired: u64,
    halted: Option<HaltReason>,
    main_returned: bool,
    program_end: u64,
    trace_enabled: bool,
    trace: Vec<RetireEvent>,
    /// Interned mnemonic + xor bits of the injected fault, resolved once.
    fault: Option<(Sym, u64)>,
}

impl Iss {
    // ------------------------------------------------------------ construction

    /// Build an interpreter from an already assembled [`Program`].
    pub fn new(program: Program, config: &ArchitectureConfig) -> Result<Self, String> {
        Self::with_memory(program, config, MemorySettings::new())
    }

    /// Build an interpreter with user-defined memory arrays, mirroring the
    /// layout `Simulator::with_memory` uses (stack, then user arrays, then
    /// program data).
    pub fn with_memory(
        program: Program,
        config: &ArchitectureConfig,
        memory_settings: MemorySettings,
    ) -> Result<Self, String> {
        Self::with_parts(InstructionSet::rv32imf(), program, config, memory_settings)
    }

    /// Shared constructor: the caller supplies the (already built)
    /// instruction set so `from_assembly` does not pay for it twice.
    fn with_parts(
        isa: InstructionSet,
        program: Program,
        config: &ArchitectureConfig,
        memory_settings: MemorySettings,
    ) -> Result<Self, String> {
        config.validate()?;
        program.validate_against(&isa)?;
        // Decode once, dispatch by DescriptorId from then on.
        let predecoded = Arc::new(PredecodedProgram::new(&program, &isa)?);

        let mut mem = MainMemory::new(config.memory.memory_capacity);
        program.load_data(|addr, bytes| {
            mem.write_bytes(addr, bytes)
                .unwrap_or_else(|e| panic!("program data does not fit in memory: {e}"));
        });
        if !memory_settings.arrays.is_empty() {
            memory_settings.allocate(&mut mem, config.memory.call_stack_size)?;
        }

        let program_end = program.len() as u64 * 4;
        let stack_top = config.memory.call_stack_size;
        let mut iss = Iss {
            pc: program.entry_point,
            program,
            predecoded,
            int_regs: [RegisterValue::zero(); 32],
            fp_regs: [RegisterValue { bits: 0, data_type: DataType::Float }; 32],
            mem,
            retired: 0,
            halted: None,
            main_returned: false,
            program_end,
            trace_enabled: false,
            trace: Vec::new(),
            fault: None,
        };
        // Same ABI initialisation as the pipeline: sp at the top of the call
        // stack, ra at the exit sentinel.
        iss.int_regs[2] = RegisterValue::from_typed(TypedValue::int(stack_top as i32));
        iss.int_regs[1] = RegisterValue::from_typed(TypedValue::int(program_end as i32));
        Ok(iss)
    }

    /// Assemble `source` with the same data layout as
    /// `Simulator::from_assembly` and build an interpreter for it.
    pub fn from_assembly(source: &str, config: &ArchitectureConfig) -> Result<Self, String> {
        config.validate()?;
        let data_base = config.memory.call_stack_size.div_ceil(16) * 16;
        let options = AssemblerOptions { data_base, ..Default::default() };
        let isa = InstructionSet::rv32imf();
        let program = assemble(source, &isa, &options)
            .map_err(|errs| errs.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("\n"))?;
        Self::with_parts(isa, program, config, MemorySettings::new())
    }

    // ----------------------------------------------------------------- access

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Why execution halted, if it has.
    pub fn halt_reason(&self) -> Option<&HaltReason> {
        self.halted.as_ref()
    }

    /// True once execution has ended.
    pub fn is_halted(&self) -> bool {
        self.halted.is_some()
    }

    /// Value of integer register `xi` as a signed 64-bit value.
    pub fn int_register(&self, index: u8) -> i64 {
        self.register(RegisterId::x(index)).as_i64()
    }

    /// Value of floating-point register `fi`.
    pub fn fp_register(&self, index: u8) -> f32 {
        self.register(RegisterId::f(index)).as_f32()
    }

    /// Value of an arbitrary register.
    pub fn register(&self, reg: RegisterId) -> RegisterValue {
        if reg.is_zero() {
            return RegisterValue::zero();
        }
        match reg.kind {
            rvsim_isa::RegisterFileKind::Int => self.int_regs[reg.index as usize],
            rvsim_isa::RegisterFileKind::Fp => self.fp_regs[reg.index as usize],
        }
    }

    /// The flat main memory.
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Enable or disable the retirement trace (clears recorded events).
    pub fn set_retirement_trace(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
        self.trace.clear();
    }

    /// Events recorded since the trace was enabled.
    pub fn retirement_trace(&self) -> &[RetireEvent] {
        &self.trace
    }

    /// Drain the recorded retirement trace, leaving tracing enabled.
    pub fn take_retirement_trace(&mut self) -> Vec<RetireEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Install a deliberate bug (testing aid for the co-simulation harness).
    pub fn inject_fault(&mut self, fault: InjectedFault) {
        self.fault = Some((Sym::new(&fault.mnemonic), fault.xor_bits));
    }

    // -------------------------------------------------------------- execution

    /// Run until execution halts or `max_steps` instructions retired.
    pub fn run(&mut self, max_steps: u64) -> IssResult {
        let budget_end = self.retired + max_steps;
        // One refcount bump for the whole run, not one per instruction.
        let pp = Arc::clone(&self.predecoded);
        while self.halted.is_none() && self.retired < budget_end {
            self.step_with(&pp);
        }
        if self.halted.is_none() {
            self.halted = Some(HaltReason::MaxCyclesReached);
        }
        IssResult { halt: self.halted.clone().expect("halt set"), retired: self.retired }
    }

    /// Execute one instruction.
    pub fn step(&mut self) {
        let pp = Arc::clone(&self.predecoded);
        self.step_with(&pp);
    }

    fn step_with(&mut self, pp: &PredecodedProgram) {
        if self.halted.is_some() {
            return;
        }
        if self.pc >= self.program_end {
            self.halted = Some(if self.main_returned {
                HaltReason::MainReturned
            } else {
                HaltReason::PipelineEmpty
            });
            return;
        }
        let Some(entry) = pp.entry(self.pc) else {
            // A misaligned pc inside the code segment livelocks the pipeline
            // (it fetches nothing forever); report the same budget-style halt.
            self.halted = Some(HaltReason::MaxCyclesReached);
            return;
        };
        let sem = pp.semantics(entry.desc);

        // The same operand slots the pipeline fills: the register sources,
        // then the predecoded immediates and pc.
        let sources = entry.srcs.iter().map(|s| self.register(s.reg).typed());
        let operands = entry.operands(self.pc, sources);

        let pc = self.pc;
        let mut dest_effect: Option<(RegisterId, u64)> = None;
        let mut store_effect: Option<MemEffect> = None;
        let mut load_effect: Option<MemEffect> = None;
        let mut next_pc: Option<u64> = None;

        match entry.class {
            FunctionalClass::Fx | FunctionalClass::Fp => {
                if let Some(expr) = &sem.interpretable {
                    match expr.run(&operands) {
                        Ok(output) => {
                            if let Some(value) = output.assigned {
                                dest_effect = self.write_dest(entry.mnemonic, &entry.dst, value);
                            }
                        }
                        Err(exception) => {
                            self.halted = Some(HaltReason::Exception(exception));
                            return;
                        }
                    }
                }
            }
            FunctionalClass::Branch => {
                let taken = match &sem.condition {
                    Some(cond) => match cond.run(&operands) {
                        Ok(out) => out.result.map(|v| v.is_true()).unwrap_or(false),
                        Err(e) => {
                            self.halted = Some(HaltReason::Exception(e));
                            return;
                        }
                    },
                    None => true,
                };
                let target = match &sem.target {
                    Some(t) => match t.run(&operands) {
                        Ok(out) => out.result.map(|v| v.as_u32() as u64).unwrap_or(pc + 4),
                        Err(e) => {
                            self.halted = Some(HaltReason::Exception(e));
                            return;
                        }
                    },
                    None => pc + 4,
                };
                if let Some(expr) = &sem.interpretable {
                    if let Ok(CompiledOutput { assigned: Some(value), .. }) = expr.run(&operands) {
                        dest_effect = self.write_dest(entry.mnemonic, &entry.dst, value);
                    }
                }
                let next = if taken { target } else { pc + 4 };
                if next == self.program_end {
                    self.main_returned = true;
                }
                next_pc = Some(next);
            }
            FunctionalClass::Load => {
                let address = match Self::effective_address(&operands, sem) {
                    Ok(a) => a,
                    Err(e) => {
                        self.halted = Some(HaltReason::Exception(e));
                        return;
                    }
                };
                let memory = entry.memory.expect("load has a memory descriptor");
                let raw = match self.mem.read(address, memory.size) {
                    Ok(raw) => raw,
                    Err(_) => {
                        self.halted =
                            Some(HaltReason::Exception(Exception::InvalidAddress { address }));
                        return;
                    }
                };
                let value = convert_loaded(raw, memory.size, memory.sign_extend, memory.data_type);
                dest_effect = self.write_dest(entry.mnemonic, &entry.dst, value);
                load_effect = Some(MemEffect { address, size: memory.size, value: value.bits() });
            }
            FunctionalClass::Store => {
                let address = match Self::effective_address(&operands, sem) {
                    Ok(a) => a,
                    Err(e) => {
                        self.halted = Some(HaltReason::Exception(e));
                        return;
                    }
                };
                let memory = entry.memory.expect("store has a memory descriptor");
                let value = entry.store_data.map(|i| operands[i as usize]).unwrap_or_default();
                // Same raw-image rule as the pipeline's store buffer: floats
                // keep their bit pattern, integers their 64-bit extension.
                let raw = match memory.data_type {
                    DataType::Float => value.bits() & 0xffff_ffff,
                    DataType::Double => value.bits(),
                    _ => value.as_u64(),
                };
                if self.mem.write(address, memory.size, raw).is_err() {
                    self.halted =
                        Some(HaltReason::Exception(Exception::InvalidAddress { address }));
                    return;
                }
                store_effect = Some(MemEffect { address, size: memory.size, value: raw });
            }
        }

        if self.trace_enabled {
            self.trace.push(RetireEvent {
                seq: self.retired,
                cycle: self.retired,
                pc,
                mnemonic: entry.mnemonic,
                dest: dest_effect,
                store: store_effect,
                load: load_effect,
                next_pc,
            });
        }
        self.retired += 1;
        self.pc = next_pc.unwrap_or(pc + 4);
    }

    fn effective_address(
        operands: &Operands,
        sem: &rvsim_core::predecode::DescSemantics,
    ) -> Result<u64, Exception> {
        let expr = sem.address.as_ref().expect("memory instruction has an address expression");
        let out = expr.run(operands)?;
        Ok(out.result.map(|v| v.as_u32() as u64).unwrap_or(0))
    }

    /// Write the destination register, tagging the value with the argument's
    /// declared data type like the pipeline's `write_dest`.  Returns the
    /// architectural effect, or `None` when the write is discarded (`x0`).
    fn write_dest(
        &mut self,
        mnemonic: Sym,
        dst: &Option<rvsim_core::predecode::DstSpec>,
        value: TypedValue,
    ) -> Option<(RegisterId, u64)> {
        let dst = dst.as_ref()?;
        if dst.reg.is_zero() {
            return None;
        }
        let mut stored = RegisterValue { bits: value.bits(), data_type: dst.data_type };
        if let Some((fault_sym, xor_bits)) = self.fault {
            if fault_sym == mnemonic {
                stored.bits ^= xor_bits;
            }
        }
        match dst.reg.kind {
            rvsim_isa::RegisterFileKind::Int => self.int_regs[dst.reg.index as usize] = stored,
            rvsim_isa::RegisterFileKind::Fp => self.fp_regs[dst.reg.index as usize] = stored,
        }
        Some((dst.reg, stored.bits))
    }
}

/// Convert a raw little-endian loaded value according to the access shape.
/// Mirrors the pipeline's commit-path conversion bit for bit.
fn convert_loaded(raw: u64, size: usize, sign_extend: bool, data_type: DataType) -> TypedValue {
    match data_type {
        DataType::Float => TypedValue::from_bits(raw & 0xffff_ffff, DataType::Float),
        DataType::Double => TypedValue::from_bits(raw, DataType::Double),
        _ => {
            let value: i64 = match (size, sign_extend) {
                (1, true) => raw as u8 as i8 as i64,
                (1, false) => (raw & 0xff) as i64,
                (2, true) => raw as u16 as i16 as i64,
                (2, false) => (raw & 0xffff) as i64,
                (8, _) => raw as i64,
                (_, _) => raw as u32 as i32 as i64,
            };
            TypedValue::int(value as i32)
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn run_iss(asm: &str) -> Iss {
        let mut iss = Iss::from_assembly(asm, &ArchitectureConfig::default()).expect("assembles");
        let result = iss.run(100_000);
        assert_ne!(result.halt, HaltReason::MaxCyclesReached, "program hung");
        iss
    }

    #[test]
    fn arithmetic_and_halt_reason() {
        let iss = run_iss(
            "main:
                li   a0, 6
                li   a1, 7
                mul  a2, a0, a1
                addi a2, a2, -2
                ret
            ",
        );
        assert_eq!(iss.int_register(12), 40);
        assert_eq!(iss.halt_reason(), Some(&HaltReason::MainReturned));
    }

    #[test]
    fn loops_and_branches() {
        let iss = run_iss(
            "main:
                li   t0, 0
                li   t1, 25
            loop:
                addi t0, t0, 3
                addi t1, t1, -1
                bnez t1, loop
                mv   a0, t0
                ret
            ",
        );
        assert_eq!(iss.int_register(10), 75);
    }

    #[test]
    fn memory_round_trip_and_sign_extension() {
        let iss = run_iss(
            "data:
                .byte 0xff, 0x7f
                .hword 0x8000
            buf:
                .zero 8
            main:
                la   t0, data
                lb   a0, 0(t0)
                lbu  a1, 0(t0)
                lh   a2, 2(t0)
                la   t1, buf
                li   t2, -2
                sw   t2, 0(t1)
                lw   a3, 0(t1)
                ret
            ",
        );
        assert_eq!(iss.int_register(10), -1);
        assert_eq!(iss.int_register(11), 255);
        assert_eq!(iss.int_register(12), -32768);
        assert_eq!(iss.int_register(13), -2);
    }

    #[test]
    fn x0_writes_are_discarded() {
        let iss = run_iss(
            "main:
                li   x0, 55
                addi a0, x0, 3
                ret
            ",
        );
        assert_eq!(iss.int_register(0), 0);
        assert_eq!(iss.int_register(10), 3);
    }

    #[test]
    fn division_by_zero_halts_with_exception() {
        let mut iss = Iss::from_assembly(
            "main:
                li  a0, 10
                li  a1, 0
                div a2, a0, a1
                ret
            ",
            &ArchitectureConfig::default(),
        )
        .unwrap();
        let result = iss.run(1000);
        assert_eq!(result.halt, HaltReason::Exception(Exception::DivisionByZero));
        assert_eq!(result.retired, 2, "the faulting div does not retire");
    }

    #[test]
    fn invalid_address_halts_with_exception() {
        let mut iss = Iss::from_assembly(
            "main:
                li  t0, 0x40000
                lw  a0, 0(t0)
                ret
            ",
            &ArchitectureConfig::default(),
        )
        .unwrap();
        let result = iss.run(1000);
        assert!(matches!(result.halt, HaltReason::Exception(Exception::InvalidAddress { .. })));
    }

    #[test]
    fn function_calls_and_floats() {
        let iss = run_iss(
            "vals:
                .float 1.5, 2.25
            main:
                addi sp, sp, -16
                sw   ra, 12(sp)
                li   a0, 5
                call double
                la    t0, vals
                flw   fa0, 0(t0)
                flw   fa1, 4(t0)
                fadd.s fa2, fa0, fa1
                lw   ra, 12(sp)
                addi sp, sp, 16
                ret
            double:
                add  a0, a0, a0
                ret
            ",
        );
        assert_eq!(iss.int_register(10), 10);
        assert_eq!(iss.fp_register(12), 3.75);
    }

    #[test]
    fn trace_records_architectural_effects() {
        let mut iss = Iss::from_assembly(
            "buf:
                .zero 8
            main:
                li   t0, 7
                la   t1, buf
                sw   t0, 0(t1)
                lw   a0, 4(t1)
                ret
            ",
            &ArchitectureConfig::default(),
        )
        .unwrap();
        iss.set_retirement_trace(true);
        iss.run(1000);
        let trace = iss.retirement_trace();
        assert_eq!(trace[0].mnemonic, "addi"); // li expansion
        assert_eq!(trace[0].dest.unwrap().1, 7);
        let store = trace.iter().find(|e| e.store.is_some()).unwrap();
        assert_eq!(store.store.unwrap().size, 4);
        let load = trace.iter().find(|e| e.load.is_some()).unwrap();
        assert_eq!(load.load.unwrap().value, 0);
        let ret = trace.last().unwrap();
        assert_eq!(ret.mnemonic, "jalr");
        assert!(ret.next_pc.is_some());
        // seq numbers are dense program order.
        for (i, e) in trace.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn injected_fault_corrupts_matching_mnemonic_only() {
        let asm = "main:
                li   t0, 12
                li   t1, 10
                xor  a0, t0, t1
                add  a1, t0, t1
                ret
            ";
        let config = ArchitectureConfig::default();
        let mut good = Iss::from_assembly(asm, &config).unwrap();
        good.run(1000);
        let mut bad = Iss::from_assembly(asm, &config).unwrap();
        bad.inject_fault(InjectedFault { mnemonic: "xor".into(), xor_bits: 1 });
        bad.run(1000);
        assert_eq!(good.int_register(10) ^ 1, bad.int_register(10));
        assert_eq!(good.int_register(11), bad.int_register(11), "add is unaffected");
    }

    #[test]
    fn convert_loaded_shapes() {
        assert_eq!(convert_loaded(0xff, 1, true, DataType::Int).as_i64(), -1);
        assert_eq!(convert_loaded(0xff, 1, false, DataType::Int).as_i64(), 255);
        assert_eq!(convert_loaded(0x8000, 2, true, DataType::Int).as_i64(), -32768);
        assert_eq!(convert_loaded(0x8000, 2, false, DataType::Int).as_i64(), 0x8000);
        let f = convert_loaded(1.5f32.to_bits() as u64, 4, false, DataType::Float);
        assert_eq!(f.as_f32(), 1.5);
    }
}
