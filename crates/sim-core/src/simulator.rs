//! The simulation step manager and the complete processor model.
//!
//! One call to [`Simulator::step`] advances the processor by one clock cycle.
//! The stages are evaluated in reverse pipeline order (commit → write-back →
//! memory → issue → dispatch → fetch) so an instruction can leave a resource
//! and another enter it within the same cycle — the Rust equivalent of the
//! paper's "two sub-step" functional-unit update (§III-A).
//!
//! The simulate loop is allocation-free: the whole program is predecoded at
//! construction ([`crate::predecode::PredecodedProgram`]), so fetch — and
//! therefore every mispredict replay and every `step_back` re-simulation —
//! is an array index, execution runs compiled semantics expressions, and the
//! in-flight window lives in a ring ([`crate::inflight::InFlightRing`])
//! instead of a `BTreeMap`.

use crate::config::{ArchitectureConfig, FpUnitConfig, FxUnitConfig};
use crate::inflight::InFlightRing;
use crate::instruction::{DestOperand, InstrId, InstructionState, SimCode, SourceOperand};
use crate::log::DebugLog;
use crate::predecode::{DescSemantics, LatencyClass, PredecodedInstr, PredecodedProgram};
use crate::register_file::{DestRename, OperandRead, RegisterFile};
use crate::stats::{SimulationStatistics, UnitUtilization};
use crate::trace::{MemEffect, RetireEvent};
use crate::units::{
    FunctionalUnit, IssueWindow, LoadBuffer, LoadEntry, ReorderBuffer, StoreBuffer, StoreEntry,
};
use rvsim_asm::{assemble, AssemblerOptions, Program};
use rvsim_isa::{
    Bindings, DataType, Exception, FunctionalClass, InstructionSet, RegisterId, RegisterValue,
    TypedValue, SYM_PC,
};
use rvsim_mem::{MemorySettings, MemorySubsystem};
use rvsim_predictor::BranchPredictor;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Why the simulation stopped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HaltReason {
    /// The pipeline drained after the program ran past its last instruction.
    PipelineEmpty,
    /// The main routine returned (the return jump left the program).
    MainReturned,
    /// An exception reached commit.
    Exception(Exception),
    /// `run` hit its cycle budget.
    MaxCyclesReached,
}

/// Result of [`Simulator::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Why the run stopped.
    pub halt: HaltReason,
    /// Total cycles executed.
    pub cycles: u64,
    /// Full statistics at the end of the run.
    pub statistics: SimulationStatistics,
}

/// The complete processor simulator.
#[derive(Debug)]
pub struct Simulator {
    config: ArchitectureConfig,
    program: Program,
    predecoded: Arc<PredecodedProgram>,
    initial_memory: Vec<u8>,

    mem: MemorySubsystem,
    regs: RegisterFile,
    predictor: BranchPredictor,

    rob: ReorderBuffer,
    fx_window: IssueWindow,
    fp_window: IssueWindow,
    ls_window: IssueWindow,
    branch_window: IssueWindow,
    fx_units: Vec<(FunctionalUnit, FxUnitConfig)>,
    fp_units: Vec<(FunctionalUnit, FpUnitConfig)>,
    ls_units: Vec<FunctionalUnit>,
    branch_units: Vec<FunctionalUnit>,
    load_buffer: LoadBuffer,
    store_buffer: StoreBuffer,

    in_flight: InFlightRing,
    fetch_buffer: VecDeque<InstrId>,

    pc: u64,
    cycle: u64,
    next_id: InstrId,
    fetch_stall_until: u64,
    mem_issues_this_cycle: usize,
    halted: Option<HaltReason>,
    main_returned: bool,

    stats: SimulationStatistics,
    /// Dynamic instruction mix keyed by dense `DescriptorId` — converted to
    /// mnemonic strings only in [`Simulator::statistics`].
    dyn_mix: Vec<u64>,
    log: DebugLog,
    program_end: u64,
    stack_top: u64,

    trace_enabled: bool,
    retire_log: Vec<RetireEvent>,
}

impl Simulator {
    // ------------------------------------------------------------ construction

    /// Build a simulator from an already assembled [`Program`].
    pub fn new(program: Program, config: &ArchitectureConfig) -> Result<Self, String> {
        Self::with_memory(program, config, MemorySettings::new())
    }

    /// Build a simulator from a program plus user-defined memory arrays
    /// (the Memory Settings window).
    pub fn with_memory(
        program: Program,
        config: &ArchitectureConfig,
        memory_settings: MemorySettings,
    ) -> Result<Self, String> {
        config.validate()?;
        let isa = InstructionSet::rv32imf();
        program.validate_against(&isa)?;
        // Decode once: every later fetch (including mispredict replays and
        // `step_back` re-simulation) is an array index into this table.
        let predecoded = Arc::new(PredecodedProgram::new(&program, &isa)?);

        let mut mem = MemorySubsystem::new(
            config.memory.memory_capacity,
            config.cache.clone(),
            config.memory.timings,
        )?;

        // Data layout: stack at the bottom, then user arrays, then program data
        // (the assembler already placed program data at its data_base).
        program.load_data(|addr, bytes| {
            mem.memory_mut()
                .write_bytes(addr, bytes)
                .unwrap_or_else(|e| panic!("program data does not fit in memory: {e}"));
        });
        // Memory-settings arrays live right after the call stack — the same
        // layout `from_assembly_with_memory` used when it exported their
        // labels to the assembler, so the symbol addresses and the data agree.
        if !memory_settings.arrays.is_empty() {
            memory_settings.allocate(mem.memory_mut(), config.memory.call_stack_size)?;
        }

        let program_end = program.len() as u64 * 4;
        let stack_top = config.memory.call_stack_size;

        let mut sim = Simulator {
            initial_memory: mem.memory().bytes().to_vec(),
            regs: RegisterFile::new(config.memory.rename_file_size),
            predictor: BranchPredictor::new(config.predictor.clone())?,
            rob: ReorderBuffer::new(config.buffers.rob_size),
            fx_window: IssueWindow::new("FX issue window", config.buffers.issue_window_size),
            fp_window: IssueWindow::new("FP issue window", config.buffers.issue_window_size),
            ls_window: IssueWindow::new("L/S issue window", config.buffers.issue_window_size),
            branch_window: IssueWindow::new(
                "Branch issue window",
                config.buffers.issue_window_size,
            ),
            fx_units: config
                .units
                .fx_units
                .iter()
                .enumerate()
                .map(|(i, c)| (FunctionalUnit::new(&format!("FX{}", i + 1)), c.clone()))
                .collect(),
            fp_units: config
                .units
                .fp_units
                .iter()
                .enumerate()
                .map(|(i, c)| (FunctionalUnit::new(&format!("FP{}", i + 1)), c.clone()))
                .collect(),
            ls_units: (0..config.units.ls_units)
                .map(|i| FunctionalUnit::new(&format!("LS{}", i + 1)))
                .collect(),
            branch_units: (0..config.units.branch_units)
                .map(|i| FunctionalUnit::new(&format!("BR{}", i + 1)))
                .collect(),
            load_buffer: LoadBuffer::new(config.memory.load_buffer_size),
            store_buffer: StoreBuffer::new(config.memory.store_buffer_size),
            in_flight: InFlightRing::new(1),
            fetch_buffer: VecDeque::new(),
            pc: program.entry_point,
            cycle: 0,
            next_id: 1,
            fetch_stall_until: 0,
            mem_issues_this_cycle: 0,
            halted: None,
            main_returned: false,
            stats: SimulationStatistics {
                core_clock_hz: config.core_clock_hz,
                ..Default::default()
            },
            dyn_mix: vec![0; predecoded.descriptor_count()],
            log: DebugLog::new(),
            program_end,
            stack_top,
            trace_enabled: false,
            retire_log: Vec::new(),
            mem,
            config: config.clone(),
            predecoded,
            program,
        };
        // Static instruction mix is known up front.
        for (mnemonic, count) in sim.program.static_mix() {
            sim.stats.static_mix.insert(mnemonic, count as u64);
        }
        // Register ABI state: sp at the top of the call stack, ra at the exit
        // sentinel so that `ret` from the entry routine ends the simulation.
        sim.init_registers();
        Ok(sim)
    }

    /// Assemble `source` and build a simulator for it.
    pub fn from_assembly(source: &str, config: &ArchitectureConfig) -> Result<Self, String> {
        Self::from_assembly_with_memory(source, config, MemorySettings::new())
    }

    /// Assemble `source` with user-defined `extern` arrays available as symbols.
    pub fn from_assembly_with_memory(
        source: &str,
        config: &ArchitectureConfig,
        memory_settings: MemorySettings,
    ) -> Result<Self, String> {
        config.validate()?;
        // Place the user arrays right after the call stack, then let the
        // assembler place program data after them.
        let mut scratch = rvsim_mem::MainMemory::new(config.memory.memory_capacity);
        let placed = memory_settings.allocate(&mut scratch, config.memory.call_stack_size)?;
        let user_data_end = placed
            .iter()
            .map(|p| p.address + p.size as u64)
            .max()
            .unwrap_or(config.memory.call_stack_size);
        let mut options =
            AssemblerOptions { data_base: align_up(user_data_end, 16), ..Default::default() };
        for p in &placed {
            options.extra_symbols.insert(p.name.clone(), p.address as i64);
        }
        let isa = InstructionSet::rv32imf();
        let program = assemble(source, &isa, &options)
            .map_err(|errs| errs.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("\n"))?;
        Self::with_memory(program, config, memory_settings)
    }

    fn init_registers(&mut self) {
        self.regs.write_arch(
            RegisterId::sp(),
            RegisterValue::from_typed(TypedValue::int(self.stack_top as i32)),
        );
        self.regs.write_arch(
            RegisterId::ra(),
            RegisterValue::from_typed(TypedValue::int(self.program_end as i32)),
        );
    }

    // ----------------------------------------------------------------- access

    /// The architecture configuration in use.
    pub fn config(&self) -> &ArchitectureConfig {
        &self.config
    }

    /// The assembled program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The predecoded form of the program (decode-once fetch table).
    pub fn predecoded(&self) -> &PredecodedProgram {
        &self.predecoded
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current fetch program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Why the simulation halted, if it has.
    pub fn halt_reason(&self) -> Option<&HaltReason> {
        self.halted.as_ref()
    }

    /// True once the simulation has ended.
    pub fn is_halted(&self) -> bool {
        self.halted.is_some()
    }

    /// Committed value of integer register `xi` as a signed 32-bit value.
    pub fn int_register(&self, index: u8) -> i64 {
        self.regs.read_arch(RegisterId::x(index)).as_i64()
    }

    /// Committed value of floating-point register `fi`.
    pub fn fp_register(&self, index: u8) -> f32 {
        self.regs.read_arch(RegisterId::f(index)).as_f32()
    }

    /// Committed value of an arbitrary register.
    pub fn register(&self, reg: RegisterId) -> RegisterValue {
        self.regs.read_arch(reg)
    }

    /// The register file (GUI access).
    pub fn register_file(&self) -> &RegisterFile {
        &self.regs
    }

    /// The memory subsystem (GUI / memory-editor access).
    pub fn memory(&self) -> &MemorySubsystem {
        &self.mem
    }

    /// The branch predictor.
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// The debug log.
    pub fn log(&self) -> &DebugLog {
        &self.log
    }

    /// Enable or disable the retirement trace.  Enabling clears any events
    /// recorded so far; with the trace on, every committed instruction
    /// appends a [`RetireEvent`] describing its architectural effects.
    pub fn set_retirement_trace(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
        self.retire_log.clear();
    }

    /// Events recorded since the trace was enabled (or the last reset).
    pub fn retirement_trace(&self) -> &[RetireEvent] {
        &self.retire_log
    }

    /// Drain the recorded retirement trace, leaving tracing enabled.
    pub fn take_retirement_trace(&mut self) -> Vec<RetireEvent> {
        std::mem::take(&mut self.retire_log)
    }

    /// In-flight instructions in program order (GUI block contents).
    pub fn in_flight(&self) -> impl Iterator<Item = &SimCode> {
        self.in_flight.iter()
    }

    /// O(1) lookup of one in-flight instruction by id (snapshot capture).
    pub fn in_flight_by_id(&self, id: InstrId) -> Option<&SimCode> {
        self.in_flight.get(id)
    }

    /// Reorder-buffer ids in program order, without allocating.
    pub fn rob_ids(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.rob.iter()
    }

    /// The right-hand-panel headline numbers, without materialising the full
    /// (allocating) [`SimulationStatistics`] object.
    pub fn headline(&self) -> crate::snapshot::HeadlineStats {
        crate::snapshot::HeadlineStats {
            cycles: self.cycle,
            committed: self.stats.committed,
            ipc: if self.cycle == 0 {
                0.0
            } else {
                self.stats.committed as f64 / self.cycle as f64
            },
            branch_accuracy: self.predictor.stats().accuracy(),
            flops: self.stats.flops,
            cache_hit_rate: self.mem.stats().hit_ratio(),
        }
    }

    /// Full statistics, merging step-manager counters with the predictor and
    /// memory statistics.  This is the serialization boundary where the
    /// `DescriptorId`-keyed dynamic mix becomes mnemonic-keyed.
    pub fn statistics(&self) -> SimulationStatistics {
        let mut s = self.stats.clone();
        s.cycles = self.cycle;
        s.predictor = *self.predictor.stats();
        s.memory = *self.mem.stats();
        s.dynamic_mix = BTreeMap::new();
        for (index, &count) in self.dyn_mix.iter().enumerate() {
            if count > 0 {
                let name = self.predecoded.name(rvsim_isa::DescriptorId(index as u16));
                s.dynamic_mix.insert(name.as_str().to_string(), count);
            }
        }
        s.unit_utilization = self
            .all_units()
            .map(|u| UnitUtilization {
                name: u.name.clone(),
                busy_cycles: u.busy_cycles,
                executed: u.executed,
            })
            .collect();
        s
    }

    fn all_units(&self) -> impl Iterator<Item = &FunctionalUnit> {
        self.fx_units
            .iter()
            .map(|(u, _)| u)
            .chain(self.fp_units.iter().map(|(u, _)| u))
            .chain(self.ls_units.iter())
            .chain(self.branch_units.iter())
    }

    // ------------------------------------------------------------------- run

    /// Run until the simulation halts or `max_cycles` is reached.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, String> {
        while self.halted.is_none() {
            if self.cycle >= max_cycles {
                self.halted = Some(HaltReason::MaxCyclesReached);
                break;
            }
            self.step();
        }
        Ok(RunResult {
            halt: self.halted.clone().unwrap_or(HaltReason::MaxCyclesReached),
            cycles: self.cycle,
            statistics: self.statistics(),
        })
    }

    /// Restart the simulation from cycle 0 with the same program,
    /// configuration and initial memory contents.
    pub fn reset(&mut self) {
        self.mem = MemorySubsystem::new(
            self.config.memory.memory_capacity,
            self.config.cache.clone(),
            self.config.memory.timings,
        )
        .expect("configuration already validated");
        self.mem
            .memory_mut()
            .write_bytes(0, &self.initial_memory)
            .expect("initial image fits by construction");
        self.regs = RegisterFile::new(self.config.memory.rename_file_size);
        self.predictor.reset();
        self.rob = ReorderBuffer::new(self.config.buffers.rob_size);
        let iw = self.config.buffers.issue_window_size;
        self.fx_window = IssueWindow::new("FX issue window", iw);
        self.fp_window = IssueWindow::new("FP issue window", iw);
        self.ls_window = IssueWindow::new("L/S issue window", iw);
        self.branch_window = IssueWindow::new("Branch issue window", iw);
        for (u, _) in &mut self.fx_units {
            u.reset();
        }
        for (u, _) in &mut self.fp_units {
            u.reset();
        }
        for u in &mut self.ls_units {
            u.reset();
        }
        for u in &mut self.branch_units {
            u.reset();
        }
        self.load_buffer = LoadBuffer::new(self.config.memory.load_buffer_size);
        self.store_buffer = StoreBuffer::new(self.config.memory.store_buffer_size);
        self.in_flight.reset(1);
        self.fetch_buffer.clear();
        self.pc = self.program.entry_point;
        self.cycle = 0;
        self.next_id = 1;
        self.fetch_stall_until = 0;
        self.mem_issues_this_cycle = 0;
        self.halted = None;
        self.main_returned = false;
        let static_mix = std::mem::take(&mut self.stats.static_mix);
        self.stats = SimulationStatistics {
            core_clock_hz: self.config.core_clock_hz,
            static_mix,
            ..Default::default()
        };
        self.dyn_mix.fill(0);
        self.log.clear();
        // The trace must restart from scratch so that a reset + replay (and
        // therefore `step_back`) reproduces the original event stream instead
        // of appending to it.
        self.retire_log.clear();
        self.init_registers();
    }

    /// Step one cycle backwards.  As in the paper (§III-B) this is implemented
    /// as a deterministic forward re-simulation of `cycle − 1` cycles — every
    /// re-fetched instruction is an index into the predecoded table, so the
    /// replay does no decoding at all.
    pub fn step_back(&mut self) {
        self.step_back_by(1);
    }

    /// Step `cycles` cycles backwards (stopping at cycle 0) with one reset
    /// and one replay: the same state as `cycles` calls of
    /// [`step_back`](Self::step_back), at the cost of one.
    pub fn step_back_by(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let target = self.cycle.saturating_sub(cycles);
        self.reset();
        for _ in 0..target {
            self.step();
        }
    }

    /// Advance the simulation by one clock cycle.
    pub fn step(&mut self) {
        if self.halted.is_some() {
            return;
        }
        let cycle = self.cycle;
        self.mem_issues_this_cycle = 0;

        // One shared handle to the predecoded table for the whole cycle;
        // the stages borrow it so the hot loop does no refcount traffic.
        let pp = Arc::clone(&self.predecoded);

        self.stage_commit(&pp, cycle);
        if self.halted.is_some() {
            self.cycle += 1;
            return;
        }
        self.stage_writeback(&pp, cycle);
        self.stage_memory(&pp, cycle);
        self.stage_issue(cycle);
        self.stage_dispatch(&pp, cycle);
        self.stage_fetch(&pp, cycle);

        self.cycle += 1;
        self.check_end_of_program();
    }

    // ---------------------------------------------------------------- commit

    fn stage_commit(&mut self, pp: &PredecodedProgram, cycle: u64) {
        for _ in 0..self.config.buffers.commit_width {
            let Some(head) = self.rob.head() else { break };
            let Some(code) = self.in_flight.get(head) else { break };
            if !code.is_done() {
                break;
            }
            let mut code = self.in_flight.take(head).unwrap();
            self.in_flight.trim();
            self.rob.pop_head();
            let entry = pp.entry(code.pc).expect("committed pc is predecoded");

            // Exceptions are raised at commit (paper §III-B).
            if let Some(exception) = code.exception.clone() {
                self.log.push(cycle, format!("exception at pc 0x{:x}: {}", code.pc, exception));
                self.halted = Some(HaltReason::Exception(exception));
                code.state = InstructionState::Committed;
                code.timestamps.commit = Some(cycle);
                return;
            }

            // Stores write memory at commit so speculative stores never leak.
            let mut store_effect: Option<MemEffect> = None;
            if code.class == FunctionalClass::Store {
                let store = self
                    .store_buffer
                    .iter()
                    .find(|e| e.id == head)
                    .cloned()
                    .expect("committed store has a buffer entry");
                let (address, value) = (
                    store.address.expect("store address computed"),
                    store.value.expect("store value ready"),
                );
                store_effect = Some(MemEffect { address, size: store.size, value });
                match self.mem.store(address, store.size, value, cycle) {
                    Ok(tx) => {
                        code.cache_hit = Some(tx.cache_hit);
                        code.timestamps.memory = Some(cycle);
                    }
                    Err(e) => {
                        let exception = Exception::InvalidAddress { address };
                        self.log.push(cycle, format!("store fault at 0x{address:x}: {e}"));
                        self.halted = Some(HaltReason::Exception(exception));
                        return;
                    }
                }
                self.store_buffer.retain(|e| e.id != head);
                self.stats.stores += 1;
            }
            if code.class == FunctionalClass::Load {
                self.load_buffer.retain(|e| e.id != head);
                self.stats.loads += 1;
            }

            // Register write-back becomes architectural.
            if let Some(dest) = &code.dest {
                if let Some(tag) = dest.tag {
                    self.regs.commit(tag);
                }
            }

            // Statistics.  The dynamic mix is a dense per-descriptor counter;
            // it becomes a mnemonic-keyed map only in `statistics()`.
            self.stats.committed += 1;
            self.stats.flops += code.flops as u64;
            self.dyn_mix[code.desc.index()] += 1;
            if code.class == FunctionalClass::Branch {
                if entry.is_cond_branch {
                    self.stats.branches += 1;
                } else {
                    self.stats.jumps += 1;
                }
                if code.actual_next_pc == Some(self.program_end) {
                    self.main_returned = true;
                }
            }

            if self.trace_enabled {
                let dest = code.dest.as_ref().and_then(|d| {
                    d.tag?;
                    code.result.map(|v| (d.arch, v.bits()))
                });
                let load =
                    if code.class == FunctionalClass::Load {
                        let size = entry.memory.map(|m| m.size).unwrap_or(0);
                        code.effective_address
                            .zip(code.loaded_value)
                            .map(|(address, v)| MemEffect { address, size, value: v.bits() })
                    } else {
                        None
                    };
                // `committed` was incremented above, so `committed - 1` is
                // this instruction's 0-based program-order retirement index.
                // It stays monotonic across `take_retirement_trace` drains
                // (matching the ISS) and restarts on `reset`.
                self.retire_log.push(RetireEvent {
                    seq: self.stats.committed - 1,
                    cycle,
                    pc: code.pc,
                    mnemonic: code.mnemonic,
                    dest,
                    store: store_effect,
                    load,
                    next_pc: code.actual_next_pc,
                });
            }

            code.state = InstructionState::Committed;
            code.timestamps.commit = Some(cycle);
        }
    }

    // ------------------------------------------------------------- write-back

    fn stage_writeback(&mut self, pp: &PredecodedProgram, cycle: u64) {
        // Gather all functional-unit completions for this cycle, oldest first.
        let mut finished: Vec<InstrId> = Vec::new();
        for (unit, _) in &mut self.fx_units {
            if let Some(id) = unit.finishes_at(cycle) {
                unit.release();
                finished.push(id);
            }
        }
        for (unit, _) in &mut self.fp_units {
            if let Some(id) = unit.finishes_at(cycle) {
                unit.release();
                finished.push(id);
            }
        }
        for unit in &mut self.ls_units {
            if let Some(id) = unit.finishes_at(cycle) {
                unit.release();
                finished.push(id);
            }
        }
        for unit in &mut self.branch_units {
            if let Some(id) = unit.finishes_at(cycle) {
                unit.release();
                finished.push(id);
            }
        }
        finished.sort_unstable();

        for id in finished {
            let Some(mut code) = self.in_flight.take(id) else { continue };
            let entry = pp.entry(code.pc).expect("executed pc is predecoded");
            let sem = pp.semantics(code.desc);
            match code.class {
                FunctionalClass::Fx | FunctionalClass::Fp => {
                    self.finish_alu(&mut code, entry, sem, cycle);
                }
                FunctionalClass::Branch => {
                    self.finish_branch(&mut code, entry, sem, cycle);
                }
                FunctionalClass::Load => {
                    self.finish_load_address(&mut code, entry, sem, cycle);
                }
                FunctionalClass::Store => {
                    self.finish_store_address(&mut code, entry, sem, cycle);
                }
            }
            self.in_flight.put(code);
        }
    }

    /// Bind the instruction's known source values, immediates and pc for a
    /// compiled-expression evaluation — inline storage, no hashing.
    fn bindings_for(code: &SimCode, entry: &PredecodedInstr) -> Bindings {
        let mut bindings = Bindings::new();
        for src in code.sources.iter() {
            if let Some(v) = src.value {
                bindings.bind(src.arg, v);
            }
        }
        for imm in entry.imms.iter() {
            bindings.bind(imm.arg, TypedValue::int(imm.value as i32));
        }
        bindings.bind(SYM_PC, TypedValue::int(code.pc as i32));
        bindings
    }

    fn finish_alu(
        &mut self,
        code: &mut SimCode,
        entry: &PredecodedInstr,
        sem: &DescSemantics,
        cycle: u64,
    ) {
        if let Some(expr) = &sem.interpretable {
            let bindings = Self::bindings_for(code, entry);
            match expr.run(&bindings) {
                Ok(output) => {
                    if let Some((_, value)) = output.assignments.first() {
                        self.write_dest(code, *value);
                    }
                }
                Err(exception) => {
                    code.exception = Some(exception);
                }
            }
        }
        code.state = InstructionState::Done;
        code.timestamps.execute = Some(cycle);
    }

    fn finish_branch(
        &mut self,
        code: &mut SimCode,
        entry: &PredecodedInstr,
        sem: &DescSemantics,
        cycle: u64,
    ) {
        let bindings = Self::bindings_for(code, entry);
        // Direction.
        let taken = match &sem.condition {
            Some(cond) => match cond.run(&bindings) {
                Ok(out) => out.result.map(|v| v.is_true()).unwrap_or(false),
                Err(e) => {
                    code.exception = Some(e);
                    false
                }
            },
            None => true,
        };
        // Target.
        let target = match &sem.target {
            Some(t) => match t.run(&bindings) {
                Ok(out) => out.result.map(|v| v.as_u32() as u64).unwrap_or(code.pc + 4),
                Err(e) => {
                    code.exception = Some(e);
                    code.pc + 4
                }
            },
            None => code.pc + 4,
        };
        // Link register write (jal/jalr).
        if let Some(expr) = &sem.interpretable {
            if let Ok(out) = expr.run(&bindings) {
                if let Some((_, value)) = out.assignments.first() {
                    self.write_dest(code, *value);
                }
            }
        }

        let actual_next = if taken { target } else { code.pc + 4 };
        code.actual_taken = Some(taken);
        code.actual_next_pc = Some(actual_next);
        code.state = InstructionState::Done;
        code.timestamps.execute = Some(cycle);

        // Train the predictor.
        if entry.is_cond_branch {
            self.predictor.update(code.pc, code.predicted_taken, taken, target);
        } else {
            self.predictor.train_btb(code.pc, target);
        }

        // Misprediction: flush everything younger and redirect the front end.
        if actual_next != code.predicted_next_pc {
            code.mispredicted = true;
            self.log.push(
                cycle,
                format!(
                    "mispredicted {} at 0x{:x}: predicted 0x{:x}, actual 0x{:x}",
                    code.mnemonic, code.pc, code.predicted_next_pc, actual_next
                ),
            );
            self.flush_after(code.id, actual_next, cycle);
        }
    }

    fn finish_load_address(
        &mut self,
        code: &mut SimCode,
        entry: &PredecodedInstr,
        sem: &DescSemantics,
        cycle: u64,
    ) {
        let bindings = Self::bindings_for(code, entry);
        let address_expr = sem.address.as_ref().expect("load has an address expression");
        match address_expr.run(&bindings) {
            Ok(out) => {
                let address = out.result.map(|v| v.as_u32() as u64).unwrap_or(0);
                code.effective_address = Some(address);
                for load in self.load_buffer.iter_mut() {
                    if load.id == code.id {
                        load.address = Some(address);
                    }
                }
                code.state = InstructionState::WaitingMemory;
            }
            Err(e) => {
                code.exception = Some(e);
                code.state = InstructionState::Done;
            }
        }
        code.timestamps.execute = Some(cycle);
    }

    fn finish_store_address(
        &mut self,
        code: &mut SimCode,
        entry: &PredecodedInstr,
        sem: &DescSemantics,
        cycle: u64,
    ) {
        let bindings = Self::bindings_for(code, entry);
        let address_expr = sem.address.as_ref().expect("store has an address expression");
        let memory = entry.memory.expect("store has a memory descriptor");
        match address_expr.run(&bindings) {
            Ok(out) => {
                let address = out.result.map(|v| v.as_u32() as u64).unwrap_or(0);
                code.effective_address = Some(address);
                let value = entry
                    .store_data
                    .and_then(|i| code.sources[i as usize].value)
                    .unwrap_or_default();
                code.store_value = Some(value);
                let raw = match memory.data_type {
                    DataType::Float => value.bits() & 0xffff_ffff,
                    DataType::Double => value.bits(),
                    _ => value.as_u64(),
                };
                for store in self.store_buffer.iter_mut() {
                    if store.id == code.id {
                        store.address = Some(address);
                        store.value = Some(raw);
                    }
                }
                code.state = InstructionState::Done;
            }
            Err(e) => {
                code.exception = Some(e);
                code.state = InstructionState::Done;
            }
        }
        code.timestamps.execute = Some(cycle);
    }

    /// Record the destination value, write the rename register and wake every
    /// waiting consumer.
    fn write_dest(&mut self, code: &mut SimCode, value: TypedValue) {
        code.result = Some(value);
        let Some(dest) = &code.dest else { return };
        let Some(tag) = dest.tag else { return };
        // Tag the value with the destination's declared data type for display.
        let stored = RegisterValue { bits: value.bits(), data_type: dest.data_type };
        self.regs.write_phys(tag, stored);
        let typed = stored.typed();
        for other in self.in_flight.iter_mut() {
            other.wake_up(tag, typed);
        }
    }

    /// Squash every instruction younger than `id`, roll back renames, redirect
    /// the fetch unit to `redirect` and apply the flush penalty.
    fn flush_after(&mut self, id: InstrId, redirect: u64, cycle: u64) {
        // Wrong-path instructions still in the fetch buffer carry no renames.
        let fetched: Vec<InstrId> = self.fetch_buffer.drain(..).collect();
        for fid in fetched {
            if let Some(mut code) = self.in_flight.take(fid) {
                code.state = InstructionState::Squashed;
                self.stats.squashed += 1;
            }
        }
        // Dispatched instructions: youngest first so RAT rollback is correct.
        let squashed = self.rob.squash_after(id);
        for sid in squashed {
            if let Some(mut code) = self.in_flight.take(sid) {
                if let Some(DestOperand { tag: Some(tag), previous, .. }) = code.dest {
                    self.regs.rollback(tag, previous);
                }
                code.state = InstructionState::Squashed;
                self.stats.squashed += 1;
            }
            self.fx_window.remove(sid);
            self.fp_window.remove(sid);
            self.ls_window.remove(sid);
            self.branch_window.remove(sid);
        }
        // No ring trim here: the flushing branch itself is still taken out by
        // the write-back stage and must be able to return to its slot.
        for (unit, _) in &mut self.fx_units {
            unit.squash_after(id);
        }
        for (unit, _) in &mut self.fp_units {
            unit.squash_after(id);
        }
        for unit in &mut self.ls_units {
            unit.squash_after(id);
        }
        for unit in &mut self.branch_units {
            unit.squash_after(id);
        }
        self.load_buffer.retain(|e| e.id <= id);
        self.store_buffer.retain(|e| e.id <= id);

        self.pc = redirect;
        self.fetch_stall_until = cycle + 1 + self.config.buffers.flush_penalty;
        self.stats.rob_flushes += 1;
    }

    // ---------------------------------------------------------------- memory

    fn stage_memory(&mut self, pp: &PredecodedProgram, cycle: u64) {
        // 1. Complete loads whose data is available.
        let completed: Vec<(InstrId, TypedValue)> = self
            .load_buffer
            .iter()
            .filter(|e| e.completion.map(|c| c <= cycle).unwrap_or(false) && e.forwarded.is_some())
            .map(|e| (e.id, e.forwarded.unwrap()))
            .collect();
        for (id, raw_value) in completed {
            let Some(mut code) = self.in_flight.take(id) else { continue };
            let entry = pp.entry(code.pc).expect("load pc is predecoded");
            let memory = entry.memory.expect("load has memory descriptor");
            let value =
                convert_loaded(raw_value.bits(), memory.size, memory.sign_extend, memory.data_type);
            code.loaded_value = Some(value);
            self.write_dest(&mut code, value);
            code.state = InstructionState::Done;
            code.timestamps.memory = Some(cycle);
            self.in_flight.put(code);
            // The buffer entry is kept until commit for occupancy accounting,
            // but marked complete so it is not re-issued.
        }

        // 2. Decide what each pending load can do this cycle.
        enum Action {
            Forward(u64),
            Issue,
        }
        let mut actions: Vec<(InstrId, Action)> = Vec::new();
        for entry in self.load_buffer.iter() {
            let Some(address) = entry.address else { continue };
            if entry.completion.is_some() {
                continue;
            }
            // Store-queue search: older stores only, youngest matching first.
            let mut blocked = false;
            let mut forward: Option<u64> = None;
            for store in self.store_buffer.iter().filter(|s| s.id < entry.id) {
                match store.address {
                    None => {
                        blocked = true; // unknown address — conservative wait
                    }
                    Some(saddr) => {
                        let overlap = ranges_overlap(saddr, store.size, address, entry.size);
                        if overlap {
                            if saddr == address && store.size == entry.size {
                                forward = store.value; // youngest older store wins
                                blocked = forward.is_none();
                            } else {
                                blocked = true; // partial overlap — wait for commit
                            }
                        }
                    }
                }
            }
            if blocked {
                continue;
            }
            if let Some(value) = forward {
                actions.push((entry.id, Action::Forward(value)));
            } else if self.mem_issues_this_cycle < self.config.units.memory_units {
                actions.push((entry.id, Action::Issue));
                self.mem_issues_this_cycle += 1;
            }
        }

        // 3. Apply the decisions.
        for (id, action) in actions {
            match action {
                Action::Forward(raw) => {
                    for entry in self.load_buffer.iter_mut() {
                        if entry.id == id {
                            entry.forwarded = Some(TypedValue::long(raw as i64));
                            entry.completion = Some(cycle + 1);
                        }
                    }
                }
                Action::Issue => {
                    let (address, size) = {
                        let entry = self.load_buffer.iter().find(|e| e.id == id).unwrap();
                        (entry.address.unwrap(), entry.size)
                    };
                    match self.mem.load(address, size, cycle) {
                        Ok(tx) => {
                            for entry in self.load_buffer.iter_mut() {
                                if entry.id == id {
                                    entry.forwarded = Some(TypedValue::long(tx.value as i64));
                                    entry.completion = Some(tx.completion_cycle);
                                }
                            }
                            if let Some(code) = self.in_flight.get_mut(id) {
                                code.cache_hit = Some(tx.cache_hit);
                            }
                        }
                        Err(_) => {
                            if let Some(code) = self.in_flight.get_mut(id) {
                                code.exception = Some(Exception::InvalidAddress { address });
                                code.state = InstructionState::Done;
                            }
                            self.load_buffer.retain(|e| e.id != id);
                        }
                    }
                }
            }
        }
    }

    // ----------------------------------------------------------------- issue

    fn latency_for(
        latency: LatencyClass,
        fx: Option<&FxUnitConfig>,
        fp: Option<&FpUnitConfig>,
    ) -> u64 {
        if let Some(cfg) = fx {
            return match latency {
                LatencyClass::IntMul => cfg.mul_latency,
                LatencyClass::IntDiv => cfg.div_latency,
                _ => cfg.alu_latency,
            };
        }
        if let Some(cfg) = fp {
            return match latency {
                LatencyClass::FpDiv => cfg.div_latency,
                LatencyClass::FpSqrt => cfg.sqrt_latency,
                LatencyClass::FpFma => cfg.fma_latency,
                LatencyClass::FpMul => cfg.mul_latency,
                _ => cfg.alu_latency,
            };
        }
        1
    }

    fn stage_issue(&mut self, cycle: u64) {
        // FX units.
        for i in 0..self.fx_units.len() {
            if !self.fx_units[i].0.is_free(cycle) {
                continue;
            }
            let supports_muldiv = self.fx_units[i].1.supports_mul_div;
            let pick = self.fx_window.iter().find(|&id| {
                self.in_flight
                    .get(id)
                    .map(|c| c.sources_ready() && (supports_muldiv || !c.latency.is_mul_div()))
                    .unwrap_or(false)
            });
            if let Some(id) = pick {
                let code = self.in_flight.get_mut(id).unwrap();
                let latency = Self::latency_for(code.latency, Some(&self.fx_units[i].1), None);
                code.state = InstructionState::Executing;
                code.timestamps.issue = Some(cycle);
                self.fx_window.remove(id);
                self.fx_units[i].0.start(id, cycle, latency);
            }
        }
        // FP units.
        for i in 0..self.fp_units.len() {
            if !self.fp_units[i].0.is_free(cycle) {
                continue;
            }
            let pick = self
                .fp_window
                .iter()
                .find(|&id| self.in_flight.get(id).map(|c| c.sources_ready()).unwrap_or(false));
            if let Some(id) = pick {
                let code = self.in_flight.get_mut(id).unwrap();
                let latency = Self::latency_for(code.latency, None, Some(&self.fp_units[i].1));
                code.state = InstructionState::Executing;
                code.timestamps.issue = Some(cycle);
                self.fp_window.remove(id);
                self.fp_units[i].0.start(id, cycle, latency);
            }
        }
        // Load/store address generation units.
        for i in 0..self.ls_units.len() {
            if !self.ls_units[i].is_free(cycle) {
                continue;
            }
            let pick = self
                .ls_window
                .iter()
                .find(|&id| self.in_flight.get(id).map(|c| c.sources_ready()).unwrap_or(false));
            if let Some(id) = pick {
                let latency = self.config.units.ls_latency;
                self.ls_window.remove(id);
                self.ls_units[i].start(id, cycle, latency);
                let code = self.in_flight.get_mut(id).unwrap();
                code.state = InstructionState::Executing;
                code.timestamps.issue = Some(cycle);
            }
        }
        // Branch units.
        for i in 0..self.branch_units.len() {
            if !self.branch_units[i].is_free(cycle) {
                continue;
            }
            let pick = self
                .branch_window
                .iter()
                .find(|&id| self.in_flight.get(id).map(|c| c.sources_ready()).unwrap_or(false));
            if let Some(id) = pick {
                let latency = self.config.units.branch_latency;
                self.branch_window.remove(id);
                self.branch_units[i].start(id, cycle, latency);
                let code = self.in_flight.get_mut(id).unwrap();
                code.state = InstructionState::Executing;
                code.timestamps.issue = Some(cycle);
            }
        }
    }

    // -------------------------------------------------------------- dispatch

    fn stage_dispatch(&mut self, pp: &PredecodedProgram, cycle: u64) {
        for _ in 0..self.config.buffers.fetch_width {
            let Some(&id) = self.fetch_buffer.front() else { break };
            let Some(code) = self.in_flight.get(id) else {
                self.fetch_buffer.pop_front();
                continue;
            };
            let class = code.class;
            let entry = pp.entry(code.pc).expect("fetched pc is predecoded");

            // Structural hazards: every resource must be available.
            if !self.rob.has_space() {
                break;
            }
            let window = match class {
                FunctionalClass::Fx => &self.fx_window,
                FunctionalClass::Fp => &self.fp_window,
                FunctionalClass::Load | FunctionalClass::Store => &self.ls_window,
                FunctionalClass::Branch => &self.branch_window,
            };
            if !window.has_space() {
                break;
            }
            if class == FunctionalClass::Load && !self.load_buffer.has_space() {
                break;
            }
            if class == FunctionalClass::Store && !self.store_buffer.has_space() {
                break;
            }

            // Read source operands FIRST: an instruction whose destination
            // equals one of its sources (`addi a0, a0, 1`) must read the
            // previous mapping, not the tag it is about to allocate for
            // itself.  The operand specs are predecoded — no descriptor or
            // program lookups here.
            let mut sources: rvsim_isa::InlineVec<SourceOperand, 3> = rvsim_isa::InlineVec::new();
            for src in entry.srcs.iter() {
                let (wait_tag, value) = match self.regs.read_operand(src.reg) {
                    OperandRead::Ready(v) => (None, Some(v)),
                    OperandRead::Wait(tag) => (Some(tag), None),
                };
                sources.push(SourceOperand { arg: src.arg, arch: src.reg, wait_tag, value });
            }

            // Rename the destination (may stall when the rename file is full).
            let mut dest: Option<DestOperand> = None;
            let mut dest_ok = true;
            if let Some(dst) = &entry.dst {
                match self.regs.rename_dest(dst.reg) {
                    DestRename::Allocated { tag, previous } => {
                        dest = Some(DestOperand {
                            arg: dst.arg,
                            arch: dst.reg,
                            data_type: dst.data_type,
                            tag: Some(tag),
                            previous,
                        });
                    }
                    DestRename::Discard => {
                        dest = Some(DestOperand {
                            arg: dst.arg,
                            arch: dst.reg,
                            data_type: dst.data_type,
                            tag: None,
                            previous: None,
                        });
                    }
                    DestRename::Stall => {
                        dest_ok = false;
                    }
                }
            }
            if !dest_ok {
                break;
            }

            // Commit the dispatch.
            self.fetch_buffer.pop_front();
            let code = self.in_flight.get_mut(id).unwrap();
            code.sources = sources;
            code.dest = dest;
            code.state = InstructionState::Dispatched;
            code.timestamps.dispatch = Some(cycle);
            self.rob.push(id);
            match class {
                FunctionalClass::Fx => self.fx_window.insert(id),
                FunctionalClass::Fp => self.fp_window.insert(id),
                FunctionalClass::Load | FunctionalClass::Store => self.ls_window.insert(id),
                FunctionalClass::Branch => self.branch_window.insert(id),
            }
            if let Some(memory) = entry.memory {
                if memory.is_store {
                    self.store_buffer.push(StoreEntry {
                        id,
                        address: None,
                        size: memory.size,
                        value: None,
                    });
                } else {
                    self.load_buffer.push(LoadEntry {
                        id,
                        address: None,
                        size: memory.size,
                        completion: None,
                        forwarded: None,
                    });
                }
            }
        }
    }

    // ----------------------------------------------------------------- fetch

    fn stage_fetch(&mut self, pp: &PredecodedProgram, cycle: u64) {
        if cycle < self.fetch_stall_until {
            return;
        }
        let width = self.config.buffers.fetch_width;
        let buffer_capacity = width * 2;
        let mut fetched = 0;
        let mut branches_followed = 0;
        let mut pc = self.pc;

        while fetched < width && self.fetch_buffer.len() < buffer_capacity {
            if pc >= self.program_end {
                break;
            }
            // The predecoded table replaces the seed's program lookup,
            // ISA-map lookup and descriptor/mnemonic/text clones.
            let Some(entry) = pp.entry(pc) else { break };

            let id = self.next_id;
            self.next_id += 1;
            let mut code = SimCode::fetched(id, pc, entry, cycle);
            self.stats.fetched += 1;

            // Predict the next PC.
            let mut next = pc + 4;
            if entry.is_control_flow() {
                if entry.is_uncond_jump {
                    if entry.is_direct_jal {
                        // Direct jump: the target is known statically.
                        next = entry.static_target;
                        code.predicted_taken = true;
                    } else {
                        // Indirect jump (jalr): use the BTB if it knows a target.
                        let prediction = self.predictor.predict(pc);
                        code.predicted_taken = true;
                        if let Some(target) = prediction.target {
                            next = target;
                        }
                    }
                } else {
                    let prediction = self.predictor.predict(pc);
                    code.predicted_taken = prediction.taken;
                    if prediction.taken {
                        if let Some(target) = prediction.target {
                            next = target;
                        }
                    }
                }
            }
            code.predicted_next_pc = next;

            self.in_flight.insert(code);
            self.fetch_buffer.push_back(id);
            fetched += 1;

            let redirected = next != pc + 4;
            pc = next;
            if redirected {
                branches_followed += 1;
                if branches_followed >= self.config.buffers.branch_follow_limit {
                    break;
                }
            }
        }
        self.pc = pc;
    }

    fn check_end_of_program(&mut self) {
        if self.halted.is_some() {
            return;
        }
        if self.rob.is_empty() && self.fetch_buffer.is_empty() && self.pc >= self.program_end {
            self.halted = Some(if self.main_returned {
                HaltReason::MainReturned
            } else {
                HaltReason::PipelineEmpty
            });
            self.log.push(self.cycle, "simulation finished: pipeline empty");
        }
    }
}

/// Convert a raw little-endian loaded value according to the access shape.
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
            // The register keeps the full (sign- or zero-extended) integer;
            // the data type only drives how the GUI displays it.
            TypedValue::int(value as i32)
        }
    }
}

fn ranges_overlap(a: u64, a_len: usize, b: u64, b_len: usize) -> bool {
    a < b + b_len as u64 && b < a + a_len as u64
}

fn align_up(value: u64, align: u64) -> u64 {
    value.div_ceil(align) * align
}
#[cfg(test)]
mod tests {
    use super::*;

    fn run_asm(asm: &str) -> Simulator {
        run_asm_with(asm, &ArchitectureConfig::default())
    }

    fn run_asm_with(asm: &str, config: &ArchitectureConfig) -> Simulator {
        let mut sim = Simulator::from_assembly(asm, config).expect("assembles");
        let result = sim.run(200_000).expect("runs");
        assert_ne!(result.halt, HaltReason::MaxCyclesReached, "program did not terminate");
        sim
    }

    #[test]
    fn arithmetic_program_produces_expected_register_values() {
        let sim = run_asm(
            "main:
                li   a0, 6
                li   a1, 7
                mul  a2, a0, a1
                addi a2, a2, -2
                ret
            ",
        );
        assert_eq!(sim.int_register(12), 40);
        assert!(sim.is_halted());
        assert_eq!(sim.halt_reason(), Some(&HaltReason::MainReturned));
    }

    #[test]
    fn loop_program_counts_correctly() {
        let sim = run_asm(
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
        assert_eq!(sim.int_register(10), 75);
        let stats = sim.statistics();
        assert!(stats.committed > 75, "committed {}", stats.committed);
        assert!(stats.branch_accuracy() > 0.5);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn memory_store_load_roundtrip() {
        let sim = run_asm(
            "buf:
                .zero 16
            main:
                la   t0, buf
                li   t1, 123
                sw   t1, 0(t0)
                sw   t1, 4(t0)
                lw   a0, 0(t0)
                lw   a1, 4(t0)
                add  a0, a0, a1
                ret
            ",
        );
        assert_eq!(sim.int_register(10), 246);
        let stats = sim.statistics();
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.stores, 2);
        assert!(stats.memory.cache_accesses > 0);
    }

    #[test]
    fn byte_and_half_access_with_sign_extension() {
        let sim = run_asm(
            "data:
                .byte 0xff, 0x7f
                .hword 0x8000
            main:
                la   t0, data
                lb   a0, 0(t0)
                lbu  a1, 0(t0)
                lb   a2, 1(t0)
                lhu  a3, 2(t0)
                lh   a4, 2(t0)
                ret
            ",
        );
        assert_eq!(sim.int_register(10), -1);
        assert_eq!(sim.int_register(11), 255);
        assert_eq!(sim.int_register(12), 127);
        assert_eq!(sim.int_register(13), 0x8000);
        assert_eq!(sim.int_register(14), -32768);
    }

    #[test]
    fn store_to_load_forwarding_preserves_value() {
        // The store has not committed when the load executes; forwarding (or
        // conservative waiting) must still produce the right value.
        let sim = run_asm(
            "buf:
                .zero 8
            main:
                la   t0, buf
                li   t1, 77
                sw   t1, 0(t0)
                lw   a0, 0(t0)
                ret
            ",
        );
        assert_eq!(sim.int_register(10), 77);
    }

    #[test]
    fn floating_point_program() {
        let sim = run_asm(
            "vals:
                .float 1.5, 2.25
            main:
                la    t0, vals
                flw   fa0, 0(t0)
                flw   fa1, 4(t0)
                fadd.s fa2, fa0, fa1
                fmul.s fa3, fa0, fa1
                ret
            ",
        );
        assert_eq!(sim.fp_register(12), 3.75);
        assert_eq!(sim.fp_register(13), 3.375);
        let stats = sim.statistics();
        assert_eq!(stats.flops, 2);
    }

    #[test]
    fn function_call_and_return() {
        let sim = run_asm(
            "main:
                addi sp, sp, -16
                sw   ra, 12(sp)
                li   a0, 5
                call double
                addi a0, a0, 1
                lw   ra, 12(sp)
                addi sp, sp, 16
                ret
            double:
                add  a0, a0, a0
                ret
            ",
        );
        assert_eq!(sim.int_register(10), 11);
    }

    #[test]
    fn stack_usage_with_sp() {
        let sim = run_asm(
            "main:
                addi sp, sp, -16
                li   t0, 42
                sw   t0, 8(sp)
                lw   a0, 8(sp)
                addi sp, sp, 16
                ret
            ",
        );
        assert_eq!(sim.int_register(10), 42);
        // sp restored to the top of the call stack.
        assert_eq!(sim.int_register(2), sim.config().memory.call_stack_size as i64);
    }

    #[test]
    fn division_by_zero_halts_with_exception() {
        let mut sim = Simulator::from_assembly(
            "main:
                li  a0, 10
                li  a1, 0
                div a2, a0, a1
                ret
            ",
            &ArchitectureConfig::default(),
        )
        .unwrap();
        let result = sim.run(10_000).unwrap();
        assert_eq!(result.halt, HaltReason::Exception(Exception::DivisionByZero));
    }

    #[test]
    fn invalid_memory_access_halts_with_exception() {
        let mut sim = Simulator::from_assembly(
            "main:
                li  t0, 0x40000
                lw  a0, 0(t0)
                ret
            ",
            &ArchitectureConfig::default(),
        )
        .unwrap();
        let result = sim.run(10_000).unwrap();
        assert!(matches!(result.halt, HaltReason::Exception(Exception::InvalidAddress { .. })));
    }

    #[test]
    fn branch_misprediction_is_recovered() {
        // A data-dependent branch pattern the predictor cannot know initially:
        // the wrong path must be squashed and results stay correct.
        let sim = run_asm(
            "main:
                li   t0, 0
                li   t1, 10
                li   a0, 0
            loop:
                andi t2, t0, 1
                beqz t2, even
                addi a0, a0, 100
                j    next
            even:
                addi a0, a0, 1
            next:
                addi t0, t0, 1
                blt  t0, t1, loop
                ret
            ",
        );
        // 5 even iterations (+1) and 5 odd iterations (+100).
        assert_eq!(sim.int_register(10), 505);
        let stats = sim.statistics();
        assert!(stats.rob_flushes > 0, "alternating branch must mispredict at least once");
        assert!(stats.squashed > 0);
    }

    #[test]
    fn x0_writes_are_discarded() {
        let sim = run_asm(
            "main:
                li   x0, 55
                addi a0, x0, 3
                ret
            ",
        );
        assert_eq!(sim.int_register(0), 0);
        assert_eq!(sim.int_register(10), 3);
    }

    #[test]
    fn scalar_and_wide_configs_give_same_results_different_cycles() {
        let asm = "
            main:
                li   t0, 0
                li   t1, 64
                li   a0, 0
            loop:
                addi a0, a0, 5
                addi t2, a0, 7
                xor  t3, t2, t0
                add  t0, t0, t3
                addi t1, t1, -1
                bnez t1, loop
                ret
        ";
        let scalar = run_asm_with(asm, &ArchitectureConfig::scalar());
        let wide = run_asm_with(asm, &ArchitectureConfig::wide());
        assert_eq!(scalar.int_register(10), wide.int_register(10));
        assert_eq!(scalar.int_register(5), wide.int_register(5));
        let c_scalar = scalar.statistics().cycles;
        let c_wide = wide.statistics().cycles;
        assert!(
            c_wide < c_scalar,
            "wide machine ({c_wide} cycles) must beat scalar ({c_scalar} cycles)"
        );
        assert!(wide.statistics().ipc() > scalar.statistics().ipc());
    }

    #[test]
    fn statistics_report_dynamic_mix_and_units() {
        let sim = run_asm(
            "main:
                li   t0, 8
            loop:
                addi t0, t0, -1
                bnez t0, loop
                ret
            ",
        );
        let stats = sim.statistics();
        assert!(stats.dynamic_mix["addi"] >= 8);
        assert!(stats.dynamic_mix.contains_key("bne"));
        assert!(stats.static_mix.contains_key("addi"));
        assert!(!stats.unit_utilization.is_empty());
        let fx_busy: u64 = stats
            .unit_utilization
            .iter()
            .filter(|u| u.name.starts_with("FX"))
            .map(|u| u.busy_cycles)
            .sum();
        assert!(fx_busy > 0);
        assert!(stats.branches >= 8);
        assert!(stats.jumps >= 1, "final ret counts as a jump");
    }

    #[test]
    fn deterministic_replay_and_backward_stepping() {
        let asm = "
            main:
                li   t0, 0
                li   t1, 12
            loop:
                addi t0, t0, 2
                addi t1, t1, -1
                bnez t1, loop
                mv   a0, t0
                ret
        ";
        let config = ArchitectureConfig::default();
        let mut sim = Simulator::from_assembly(asm, &config).unwrap();
        // Run 20 cycles forward, capture state.
        for _ in 0..20 {
            sim.step();
        }
        let committed_at_20 = sim.statistics().committed;
        let pc_at_20 = sim.pc();
        // Step forward 5 more, then back 5: state must match cycle 20 exactly.
        for _ in 0..5 {
            sim.step();
        }
        for _ in 0..5 {
            sim.step_back();
        }
        assert_eq!(sim.cycle(), 20);
        assert_eq!(sim.statistics().committed, committed_at_20);
        assert_eq!(sim.pc(), pc_at_20);
        // And the program still finishes correctly afterwards.
        let result = sim.run(100_000).unwrap();
        assert_ne!(result.halt, HaltReason::MaxCyclesReached);
        assert_eq!(sim.int_register(10), 24);
    }

    #[test]
    fn reset_produces_identical_run() {
        let asm = "
            arr:
                .word 3, 1, 4, 1, 5, 9, 2, 6
            main:
                la   t0, arr
                li   t1, 8
                li   a0, 0
            loop:
                lw   t2, 0(t0)
                add  a0, a0, t2
                addi t0, t0, 4
                addi t1, t1, -1
                bnez t1, loop
                ret
        ";
        let mut sim = Simulator::from_assembly(asm, &ArchitectureConfig::default()).unwrap();
        let first = sim.run(100_000).unwrap();
        assert_eq!(sim.int_register(10), 31);
        sim.reset();
        let second = sim.run(100_000).unwrap();
        assert_eq!(sim.int_register(10), 31);
        assert_eq!(first.cycles, second.cycles, "deterministic re-execution");
        assert_eq!(first.statistics, second.statistics);
    }

    #[test]
    fn run_respects_cycle_budget() {
        let mut sim = Simulator::from_assembly(
            "main:
            loop:
                j loop
            ",
            &ArchitectureConfig::default(),
        )
        .unwrap();
        let result = sim.run(100).unwrap();
        assert_eq!(result.halt, HaltReason::MaxCyclesReached);
        assert!(result.cycles >= 100);
    }

    #[test]
    fn memory_settings_arrays_visible_to_program() {
        let mut settings = MemorySettings::new();
        settings.add(rvsim_mem::MemoryArray {
            name: "input".into(),
            element: rvsim_mem::ScalarType::Word,
            alignment: 16,
            fill: rvsim_mem::ArrayFill::Values(vec![10.0, 20.0, 30.0]),
        });
        let asm = "
            main:
                la   t0, input
                lw   a0, 0(t0)
                lw   a1, 4(t0)
                lw   a2, 8(t0)
                add  a0, a0, a1
                add  a0, a0, a2
                ret
        ";
        let mut sim =
            Simulator::from_assembly_with_memory(asm, &ArchitectureConfig::default(), settings)
                .unwrap();
        sim.run(100_000).unwrap();
        assert_eq!(sim.int_register(10), 60);
    }

    #[test]
    fn cache_disabled_vs_enabled_changes_latency_not_results() {
        let asm = "
            arr:
                .zero 256
            main:
                la   t0, arr
                li   t1, 64
                li   a0, 0
            loop:
                lw   t2, 0(t0)
                add  a0, a0, t2
                sw   a0, 0(t0)
                addi t0, t0, 4
                addi t1, t1, -1
                bnez t1, loop
                ret
        ";
        let with_cache = run_asm_with(asm, &ArchitectureConfig::default());
        let mut no_cache_cfg = ArchitectureConfig::default();
        no_cache_cfg.cache.enabled = false;
        no_cache_cfg.memory.timings.load_latency = 20;
        no_cache_cfg.memory.timings.store_latency = 20;
        let without_cache = run_asm_with(asm, &no_cache_cfg);
        assert_eq!(with_cache.int_register(10), without_cache.int_register(10));
        assert!(
            with_cache.statistics().cycles < without_cache.statistics().cycles,
            "cache hits must make the cached run faster"
        );
        assert!(with_cache.statistics().cache_hit_rate() > 0.5);
        assert_eq!(without_cache.statistics().memory.cache_accesses, 0);
    }

    #[test]
    fn instruction_timestamps_are_ordered() {
        let mut sim = Simulator::from_assembly(
            "main:
                li a0, 1
                li a1, 2
                add a2, a0, a1
                ret",
            &ArchitectureConfig::default(),
        )
        .unwrap();
        // Step manually and inspect in-flight instructions before they retire.
        for _ in 0..3 {
            sim.step();
        }
        let any_order_violation = sim.in_flight().any(|c| {
            let t = &c.timestamps;
            matches!((t.fetch, t.dispatch), (Some(f), Some(d)) if d < f)
                || matches!((t.dispatch, t.issue), (Some(d), Some(i)) if i < d)
                || matches!((t.issue, t.execute), (Some(i), Some(e)) if e < i)
        });
        assert!(!any_order_violation);
        sim.run(10_000).unwrap();
        assert_eq!(sim.int_register(12), 3);
    }
}
