//! The simulation step manager and the complete processor model.
//!
//! One call to [`Simulator::step`] advances the processor by one clock cycle.
//! The stages are evaluated in reverse pipeline order (commit → write-back →
//! memory → issue → dispatch → fetch) so an instruction can leave a resource
//! and another enter it within the same cycle — the Rust equivalent of the
//! paper's "two sub-step" functional-unit update (§III-A).
//!
//! A cycle's host cost follows what happens in it.  The whole program is
//! predecoded at construction ([`crate::predecode::PredecodedProgram`]), so
//! fetch — and therefore every mispredict replay and every `step_back`
//! re-simulation — is an array index.  Semantics are compiled against
//! operand slots fixed at predecode, so executing an instruction fills a
//! fixed operand array from its sources and runs the compiled expression,
//! with no name lookup.  The in-flight window lives in a ring
//! ([`crate::inflight::InFlightRing`]), and every stage reads and updates
//! an instruction where it lives there, through short borrows by id: no
//! stage moves a `SimCode` out of the ring and back.
//!
//! A result wakes only the sources that wait for it: dispatch links each
//! waiting source into its rename register's wake-up list, and a flush
//! unlinks the squashed ones.  The wake-up that delivers an instruction's
//! last source value puts it on its issue window's ready list, which is in
//! age order, so issue hands each free unit the oldest ready instruction it
//! can execute without scanning the window.  Commit pops the fronts of the
//! reorder buffer and the load and store buffers.
//!
//! Once the pipeline has warmed up, a cycle allocates only when the debug
//! log freezes a chunk, once per 64 log records: the ids of the finishing
//! units live in a buffer the simulator keeps between cycles, the ready
//! lists are preallocated, and the wake-up lists are flat arrays sized at
//! construction.
//!
//! Everything fixed at construction (configuration, unit names, program,
//! predecoded table, static mix) sits behind one shared [`Arc`], main
//! memory is copy-on-write pages, and the debug log's older records are
//! chunks that clones share, so a clone of a simulator copies only its
//! mutable pipeline state.  Backward stepping builds on that:
//! [`Simulator::step_back_by`] keeps clones ("checkpoints") of states its
//! own replay passes, every [`CHECKPOINT_INTERVAL`] cycles near its target,
//! restores the nearest one at or below its target and replays only the
//! gap.

use crate::config::{ArchitectureConfig, FunctionalUnitsConfig};
use crate::inflight::InFlightRing;
use crate::instruction::{
    DestOperand, InstrId, InstructionState, SimCode, SourceOperand, MAX_SOURCES,
};
use crate::log::{DebugLog, LogEvent};
use crate::predecode::{DescSemantics, LatencyClass, PredecodedInstr, PredecodedProgram};
use crate::register_file::{DestRename, OperandRead, RegisterFile};
use crate::stats::{SimulationStatistics, UnitUtilization};
use crate::trace::{MemEffect, RetireEvent};
use crate::units::{
    FunctionalUnit, IssueWindow, LoadBuffer, LoadEntry, Ready, ReorderBuffer, StoreBuffer,
    StoreEntry,
};
use crate::wakeup::WakeupLists;
use rvsim_asm::{assemble, AssemblerOptions, Program};
use rvsim_isa::{
    CompiledOutput, DataType, Exception, FunctionalClass, InstructionSet, Operands, RegisterId,
    RegisterValue, TypedValue,
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

/// What a simulator shares with its clones and checkpoints: everything fixed
/// at construction.
#[derive(Debug)]
struct Image {
    config: ArchitectureConfig,
    program: Program,
    predecoded: PredecodedProgram,
    /// Static instruction mix, added to every [`Simulator::statistics`].
    static_mix: BTreeMap<String, u64>,
    /// First pc past the program; also the return address of the entry routine.
    program_end: u64,
}

/// Cycles between the checkpoints a step back keeps nearest its target (see
/// [`Simulator::step_back_by`]).  Once a step back to `t` has run, a later
/// one to any target in `t`'s block of this many cycles replays fewer than
/// this many: a debugging session's repeated `StepBack{1}`/`Step{1}`
/// replays at most 15 cycles.
pub const CHECKPOINT_INTERVAL: u64 = 16;

/// True when a step back to `target` keeps the checkpoint at `cycle`: for
/// each level `j`, the one at the largest multiple of
/// `CHECKPOINT_INTERVAL * 2^j` at or below `target`.  Checkpoints are dense
/// near the target and thin out geometrically behind it, at most
/// `⌊log2(target / CHECKPOINT_INTERVAL)⌋ + 1` in all, plus the cycle-0 state.
fn keeps_checkpoint(cycle: u64, target: u64) -> bool {
    if cycle == 0 || cycle > target || !cycle.is_multiple_of(CHECKPOINT_INTERVAL) {
        return false;
    }
    // `cycle` belongs to every level whose spacing divides it; the widest of
    // them (spacing `CHECKPOINT_INTERVAL << zeros`) reaches furthest.
    let zeros = (cycle / CHECKPOINT_INTERVAL).trailing_zeros();
    (target - cycle) >> zeros < CHECKPOINT_INTERVAL
}

/// The issue window of each functional class: an index into
/// `Simulator::windows`.
fn window_of(class: FunctionalClass) -> usize {
    match class {
        FunctionalClass::Fx => 0,
        FunctionalClass::Fp => 1,
        FunctionalClass::Load | FunctionalClass::Store => 2,
        FunctionalClass::Branch => 3,
    }
}

/// The display names of the functional units, in the order
/// `Simulator::units` holds them: FX, FP, L/S, then branch units.
fn unit_names(units: &FunctionalUnitsConfig) -> impl Iterator<Item = String> {
    let classes = [
        ("FX", units.fx_units.len()),
        ("FP", units.fp_units.len()),
        ("LS", units.ls_units),
        ("BR", units.branch_units),
    ];
    classes.into_iter().flat_map(|(prefix, count)| (1..=count).map(move |i| format!("{prefix}{i}")))
}

/// The complete processor simulator.
///
/// A clone shares the program image, every unwritten memory page and the
/// step-back checkpoints with the original, so it costs about one copy of
/// the pipeline state.
#[derive(Debug, Clone)]
pub struct Simulator {
    image: Arc<Image>,

    mem: MemorySubsystem,
    regs: RegisterFile,
    predictor: BranchPredictor,

    rob: ReorderBuffer,
    /// FX, FP, load/store and branch issue windows (see [`window_of`]).
    windows: [IssueWindow; 4],
    /// Every functional unit, in [`unit_names`] order; their configurations
    /// are in the image.
    units: Vec<FunctionalUnit>,
    load_buffer: LoadBuffer,
    store_buffer: StoreBuffer,

    in_flight: InFlightRing,
    fetch_buffer: VecDeque<InstrId>,
    wakeup: WakeupLists,
    /// Instructions whose functional unit finishes this cycle: kept between
    /// cycles so that a cycle does not allocate, and empty outside the
    /// write-back stage, so a clone copies none of it.
    finished: Vec<InstrId>,

    pc: u64,
    cycle: u64,
    next_id: InstrId,
    fetch_stall_until: u64,
    halted: Option<HaltReason>,
    main_returned: bool,

    stats: SimulationStatistics,
    /// Dynamic instruction mix keyed by dense `DescriptorId` — converted to
    /// mnemonic strings only in [`Simulator::statistics`].
    dyn_mix: Vec<u64>,
    log: DebugLog,

    trace_enabled: bool,
    retire_log: Vec<RetireEvent>,

    /// States of this run at earlier cycles, oldest first; the first is the
    /// cycle-0 state.  A checkpoint holds no checkpoints of its own.
    checkpoints: Vec<Arc<Simulator>>,
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
        let predecoded = PredecodedProgram::new(&program, &isa)?;
        check_units(&predecoded, &config.units)?;

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
        let pc = program.entry_point;
        let dyn_mix = vec![0; predecoded.descriptor_count()];
        let static_mix =
            program.static_mix().into_iter().map(|(mnemonic, n)| (mnemonic, n as u64)).collect();

        let mut regs = RegisterFile::new(config.memory.rename_file_size);
        // Register ABI state: sp at the top of the call stack, ra at the exit
        // sentinel so that `ret` from the entry routine ends the simulation.
        regs.write_arch(
            RegisterId::sp(),
            RegisterValue::from_typed(TypedValue::int(stack_top as i32)),
        );
        regs.write_arch(
            RegisterId::ra(),
            RegisterValue::from_typed(TypedValue::int(program_end as i32)),
        );

        let mut sim = Simulator {
            regs,
            predictor: BranchPredictor::new(config.predictor.clone())?,
            rob: ReorderBuffer::new(config.buffers.rob_size),
            windows: std::array::from_fn(|_| IssueWindow::new(config.buffers.issue_window_size)),
            units: vec![FunctionalUnit::default(); unit_names(&config.units).count()],
            load_buffer: LoadBuffer::new(config.memory.load_buffer_size),
            store_buffer: StoreBuffer::new(config.memory.store_buffer_size),
            in_flight: InFlightRing::new(1),
            fetch_buffer: VecDeque::new(),
            wakeup: WakeupLists::new(config.memory.rename_file_size, config.buffers.rob_size),
            finished: Vec::new(),
            pc,
            cycle: 0,
            next_id: 1,
            fetch_stall_until: 0,
            halted: None,
            main_returned: false,
            stats: SimulationStatistics {
                core_clock_hz: config.core_clock_hz,
                ..Default::default()
            },
            dyn_mix,
            log: DebugLog::new(),
            trace_enabled: false,
            retire_log: Vec::new(),
            mem,
            image: Arc::new(Image {
                config: config.clone(),
                program,
                predecoded,
                static_mix,
                program_end,
            }),
            checkpoints: Vec::new(),
        };
        // The cycle-0 state is the oldest checkpoint: `reset` restores it,
        // and so does a step back with no nearer checkpoint.
        let origin = Arc::new(sim.clone());
        sim.checkpoints.push(origin);
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

    // ----------------------------------------------------------------- access

    /// The architecture configuration in use.
    pub fn config(&self) -> &ArchitectureConfig {
        &self.image.config
    }

    /// The assembled program being executed.
    pub fn program(&self) -> &Program {
        &self.image.program
    }

    /// The predecoded form of the program (decode-once fetch table).
    pub fn predecoded(&self) -> &PredecodedProgram {
        &self.image.predecoded
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
    ///
    /// Checkpoints hold the trace recorded under the switch they were taken
    /// with, so every checkpoint but the cycle-0 state is dropped.
    pub fn set_retirement_trace(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
        self.retire_log.clear();
        self.checkpoints.truncate(1);
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
        s.static_mix = self.image.static_mix.clone();
        s.cycles = self.cycle;
        s.predictor = *self.predictor.stats();
        s.memory = *self.mem.stats();
        s.dynamic_mix = BTreeMap::new();
        for (index, &count) in self.dyn_mix.iter().enumerate() {
            if count > 0 {
                let name = self.image.predecoded.name(rvsim_isa::DescriptorId(index as u16));
                s.dynamic_mix.insert(name.as_str().to_string(), count);
            }
        }
        s.unit_utilization = unit_names(&self.image.config.units)
            .zip(&self.units)
            .map(|(name, u)| UnitUtilization {
                name,
                busy_cycles: u.busy_cycles,
                executed: u.executed,
            })
            .collect();
        s
    }

    // ------------------------------------------------------------------- run

    /// Run until the simulation halts or `max_cycles` is reached.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, String> {
        let image = Arc::clone(&self.image);
        while self.halted.is_none() {
            if self.cycle >= max_cycles {
                self.halted = Some(HaltReason::MaxCyclesReached);
                break;
            }
            self.step_with(&image);
        }
        Ok(RunResult {
            halt: self.halted.clone().unwrap_or(HaltReason::MaxCyclesReached),
            cycles: self.cycle,
            statistics: self.statistics(),
        })
    }

    /// Restart the simulation from cycle 0 with the same program,
    /// configuration and initial memory contents: restore the cycle-0 state.
    /// The retirement-trace switch and the checkpoints are kept.
    pub fn reset(&mut self) {
        let origin = Arc::clone(&self.checkpoints[0]);
        self.restore(&origin);
    }

    /// Replace the simulation state with `checkpoint`'s, keeping this
    /// simulator's checkpoints and trace switch.
    fn restore(&mut self, checkpoint: &Simulator) {
        let checkpoints = std::mem::take(&mut self.checkpoints);
        let trace_enabled = self.trace_enabled;
        *self = checkpoint.clone();
        self.checkpoints = checkpoints;
        self.trace_enabled = trace_enabled;
    }

    /// Step one cycle backwards.  As in the paper (§III-B) this is a
    /// deterministic forward re-simulation — see
    /// [`step_back_by`](Self::step_back_by) for where it starts from.
    pub fn step_back(&mut self) {
        self.step_back_by(1);
    }

    /// Step `cycles` cycles backwards (stopping at cycle 0): the same state
    /// as `cycles` calls of [`step_back`](Self::step_back), with one replay.
    ///
    /// The replay starts from the nearest checkpoint at or below the target
    /// cycle `t`, and clones the states it passes that the retention rule
    /// keeps: for each level `j >= 0`, the one at the largest multiple of
    /// [`CHECKPOINT_INTERVAL`]` * 2^j` at or below `t`.  Every other
    /// checkpoint is dropped, so at most `⌊log2(t / 16)⌋ + 2` are kept,
    /// counting the cycle-0 state, and the nearest lies fewer than 16 cycles
    /// below `t`.  A checkpoint is a clone: it shares the program image,
    /// the unwritten memory pages and the debug log's frozen chunks.
    ///
    /// A session's first step back therefore replays from cycle 0.  A later
    /// one to a target in the same block of 16 cycles as `t` replays fewer
    /// than 16 cycles.  Walking back one cycle at a time replays further
    /// when a step crosses a level's boundary, from a sparser level.
    /// Forward `step` and `run` never take checkpoints.
    pub fn step_back_by(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let target = self.cycle.saturating_sub(cycles);
        self.checkpoints.retain(|c| c.cycle == 0 || keeps_checkpoint(c.cycle, target));
        let nearest = Arc::clone(self.checkpoints.last().expect("the cycle-0 state is kept"));
        self.restore(&nearest);
        let mut checkpoints = std::mem::take(&mut self.checkpoints);
        let image = Arc::clone(&self.image);
        while self.cycle < target && self.halted.is_none() {
            self.step_with(&image);
            if keeps_checkpoint(self.cycle, target) {
                checkpoints.push(Arc::new(self.clone()));
            }
        }
        self.checkpoints = checkpoints;
    }

    /// Advance the simulation by one clock cycle.
    pub fn step(&mut self) {
        let image = Arc::clone(&self.image);
        self.step_with(&image);
    }

    /// [`step`](Self::step) with a handle to this simulator's image that the
    /// caller holds: the stages borrow its predecoded table and
    /// configuration while they mutate the pipeline, and a loop of steps
    /// takes the handle once instead of once per cycle.
    fn step_with(&mut self, image: &Image) {
        if self.halted.is_some() {
            return;
        }
        let cycle = self.cycle;
        let pp = &image.predecoded;
        let config = &image.config;

        self.stage_commit(pp, config.buffers.commit_width, cycle);
        if self.halted.is_some() {
            self.cycle += 1;
            return;
        }
        self.stage_writeback(pp, cycle);
        self.stage_memory(pp, config.units.memory_units, cycle);
        self.stage_issue(&config.units, cycle);
        self.stage_dispatch(pp, config.buffers.fetch_width, cycle);
        self.stage_fetch(pp, cycle);
        #[cfg(debug_assertions)]
        {
            self.check_wakeup_lists();
            self.check_issue_windows();
        }

        self.cycle += 1;
        self.check_end_of_program();
    }

    /// The wake-up invariant: every dispatched source without a value waits
    /// for an unwritten rename register and is in that register's list, and
    /// the lists hold nothing else.
    #[cfg(debug_assertions)]
    fn check_wakeup_lists(&self) {
        let mut waiting = 0;
        for (slot, id) in self.rob.slots() {
            let code = self.in_flight.get(id).expect("a ROB entry is in flight");
            for (source, src) in code.sources.iter().enumerate() {
                if src.value.is_some() {
                    continue;
                }
                waiting += 1;
                let tag = src.wait_tag.expect("a source without a value waits for a tag");
                assert!(
                    self.regs.read_phys(tag).is_none(),
                    "instruction {id} waits for {tag}, which is already written"
                );
                assert!(
                    self.wakeup.waiters(tag).any(|w| w == (slot, source)),
                    "instruction {id} waits for {tag} but is not in its wake-up list"
                );
            }
        }
        assert_eq!(self.wakeup.count(), waiting, "wake-up lists hold only waiting sources");
    }

    /// The issue-window invariant, checked against a full scan of the
    /// dispatched instructions: each window counts the instructions waiting
    /// in it, and its ready list holds exactly those with every source
    /// value, oldest first.
    #[cfg(debug_assertions)]
    fn check_issue_windows(&self) {
        let mut counts = [0; 4];
        let mut ready = self.windows.each_ref().map(IssueWindow::ready);
        for id in self.rob.iter() {
            let code = self.in_flight.get(id).expect("a ROB entry is in flight");
            if code.state != InstructionState::Dispatched {
                continue;
            }
            let window = window_of(code.class);
            counts[window] += 1;
            if code.sources_ready() {
                let expected = Ready { id, mul_div: code.latency.is_mul_div() };
                assert_eq!(
                    ready[window].next(),
                    Some(expected),
                    "window {window}: instruction {id} is ready but not next in the ready list"
                );
            }
        }
        for (window, (list, count)) in ready.iter_mut().zip(counts).enumerate() {
            assert_eq!(list.next(), None, "window {window} lists an instruction that is not ready");
            assert_eq!(self.windows[window].len(), count, "window {window} miscounts");
        }
    }

    /// The in-flight instruction `id`, which the caller knows is live.
    fn code_mut(&mut self, id: InstrId) -> &mut SimCode {
        self.in_flight.get_mut(id).expect("instruction is in flight")
    }

    // ---------------------------------------------------------------- commit

    fn stage_commit(&mut self, pp: &PredecodedProgram, commit_width: usize, cycle: u64) {
        for _ in 0..commit_width {
            let Some(head) = self.rob.head() else { break };
            let Some(code) = self.in_flight.get(head) else { break };
            if !code.is_done() {
                break;
            }
            let popped = self.rob.pop_head();
            debug_assert_eq!(popped, Some(head));
            let entry = pp.entry(code.pc).expect("committed pc is predecoded");

            // Exceptions are raised at commit (paper §III-B).
            if let Some(exception) = code.exception.clone() {
                self.log.push(
                    cycle,
                    LogEvent::Exception { pc: code.pc, exception: Box::new(exception.clone()) },
                );
                self.halted = Some(HaltReason::Exception(exception));
                self.in_flight.remove(head);
                return;
            }

            // Stores write memory at commit so speculative stores never leak.
            let mut store_effect: Option<MemEffect> = None;
            // Commit runs in program order, so the committing instruction's
            // store- or load-buffer entry is the oldest one.
            if code.class == FunctionalClass::Store {
                let store = *self.store_buffer.front().expect("committed store has a buffer entry");
                debug_assert_eq!(store.id, head, "the oldest store commits first");
                let (address, value) = (
                    store.address.expect("store address computed"),
                    store.value.expect("store value ready"),
                );
                store_effect = Some(MemEffect { address, size: store.size, value });
                if let Err(e) = self.mem.store(address, store.size, value, cycle) {
                    let exception = Exception::InvalidAddress { address };
                    self.log.push(cycle, LogEvent::StoreFault { address, error: Box::new(e) });
                    self.halted = Some(HaltReason::Exception(exception));
                    self.in_flight.remove(head);
                    return;
                }
                self.store_buffer.pop_front();
                self.stats.stores += 1;
            }
            if code.class == FunctionalClass::Load {
                let load = self.load_buffer.pop_front();
                debug_assert_eq!(load.map(|e| e.id), Some(head), "the oldest load commits first");
                self.stats.loads += 1;
            }

            // Register write-back becomes architectural.
            if let Some(DestOperand { tag: Some(tag), .. }) = code.dest {
                self.regs.commit(tag);
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
                if code.actual_next_pc == Some(self.image.program_end) {
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

            self.in_flight.remove(head);
        }
    }

    // ------------------------------------------------------------- write-back

    fn stage_writeback(&mut self, pp: &PredecodedProgram, cycle: u64) {
        // Gather all functional-unit completions for this cycle, oldest first.
        let mut finished = std::mem::take(&mut self.finished);
        for unit in &mut self.units {
            if let Some(id) = unit.finishes_at(cycle) {
                unit.release();
                finished.push(id);
            }
        }
        finished.sort_unstable();

        for &id in &finished {
            // A mispredicted branch finished earlier in this loop may have
            // squashed `id`.
            let Some(code) = self.in_flight.get(id) else { continue };
            debug_assert!(code.sources_ready(), "instruction {id} issued before its sources");
            let entry = pp.entry(code.pc).expect("executed pc is predecoded");
            let sem = pp.semantics(code.desc);
            let sources = code.sources.iter().map(|s| s.value.unwrap_or_default());
            let operands = entry.operands(code.pc, sources);
            match code.class {
                FunctionalClass::Fx | FunctionalClass::Fp => {
                    self.finish_alu(id, &operands, sem, cycle);
                }
                FunctionalClass::Branch => {
                    self.finish_branch(id, entry, &operands, sem, cycle);
                }
                FunctionalClass::Load => {
                    self.finish_load_address(id, &operands, sem, cycle);
                }
                FunctionalClass::Store => {
                    self.finish_store_address(id, entry, &operands, sem, cycle);
                }
            }
        }
        finished.clear();
        self.finished = finished;
    }

    fn finish_alu(&mut self, id: InstrId, operands: &Operands, sem: &DescSemantics, cycle: u64) {
        match sem.interpretable.as_ref().map(|expr| expr.run(operands)) {
            Some(Ok(CompiledOutput { assigned: Some(value), .. })) => self.write_dest(id, value),
            Some(Err(exception)) => self.code_mut(id).exception = Some(exception),
            _ => {}
        }
        let code = self.code_mut(id);
        code.state = InstructionState::Done;
        code.timestamps.execute = Some(cycle);
    }

    fn finish_branch(
        &mut self,
        id: InstrId,
        entry: &PredecodedInstr,
        operands: &Operands,
        sem: &DescSemantics,
        cycle: u64,
    ) {
        let code = self.code_mut(id);
        let (pc, predicted_taken, predicted_next) =
            (code.pc, code.predicted_taken, code.predicted_next_pc);
        // Direction.
        let mut exception = None;
        let taken = match &sem.condition {
            Some(cond) => match cond.run(operands) {
                Ok(out) => out.result.map(|v| v.is_true()).unwrap_or(false),
                Err(e) => {
                    exception = Some(e);
                    false
                }
            },
            None => true,
        };
        // Target.
        let target = match &sem.target {
            Some(t) => match t.run(operands) {
                Ok(out) => out.result.map(|v| v.as_u32() as u64).unwrap_or(pc + 4),
                Err(e) => {
                    exception = Some(e);
                    pc + 4
                }
            },
            None => pc + 4,
        };
        // Link register write (jal/jalr).
        if let Some(Ok(CompiledOutput { assigned: Some(value), .. })) =
            sem.interpretable.as_ref().map(|expr| expr.run(operands))
        {
            self.write_dest(id, value);
        }

        let actual_next = if taken { target } else { pc + 4 };
        let mispredicted = actual_next != predicted_next;
        let code = self.code_mut(id);
        if exception.is_some() {
            code.exception = exception;
        }
        code.actual_taken = Some(taken);
        code.actual_next_pc = Some(actual_next);
        code.mispredicted = mispredicted;
        code.state = InstructionState::Done;
        code.timestamps.execute = Some(cycle);
        let mnemonic = code.mnemonic;

        // Train the predictor.
        if entry.is_cond_branch {
            self.predictor.update(pc, predicted_taken, taken, target);
        } else {
            self.predictor.train_btb(pc, target);
        }

        // Misprediction: flush everything younger and redirect the front end.
        if mispredicted {
            self.log.push(
                cycle,
                LogEvent::Mispredict {
                    mnemonic,
                    pc,
                    predicted: predicted_next,
                    actual: actual_next,
                },
            );
            self.flush_after(id, actual_next, cycle);
        }
    }

    fn finish_load_address(
        &mut self,
        id: InstrId,
        operands: &Operands,
        sem: &DescSemantics,
        cycle: u64,
    ) {
        let address_expr = sem.address.as_ref().expect("load has an address expression");
        let state = match address_expr.run(operands) {
            Ok(out) => {
                let address = out.result.map(|v| v.as_u32() as u64).unwrap_or(0);
                if let Some(load) = self.load_buffer.get_mut_by_id(id) {
                    load.address = Some(address);
                }
                self.code_mut(id).effective_address = Some(address);
                InstructionState::WaitingMemory
            }
            Err(e) => {
                self.code_mut(id).exception = Some(e);
                InstructionState::Done
            }
        };
        let code = self.code_mut(id);
        code.state = state;
        code.timestamps.execute = Some(cycle);
    }

    fn finish_store_address(
        &mut self,
        id: InstrId,
        entry: &PredecodedInstr,
        operands: &Operands,
        sem: &DescSemantics,
        cycle: u64,
    ) {
        let address_expr = sem.address.as_ref().expect("store has an address expression");
        let memory = entry.memory.expect("store has a memory descriptor");
        match address_expr.run(operands) {
            Ok(out) => {
                let address = out.result.map(|v| v.as_u32() as u64).unwrap_or(0);
                let value = entry.store_data.map(|i| operands[i as usize]).unwrap_or_default();
                let raw = match memory.data_type {
                    DataType::Float => value.bits() & 0xffff_ffff,
                    DataType::Double => value.bits(),
                    _ => value.as_u64(),
                };
                if let Some(store) = self.store_buffer.get_mut_by_id(id) {
                    store.address = Some(address);
                    store.value = Some(raw);
                }
                let code = self.code_mut(id);
                code.effective_address = Some(address);
                code.store_value = Some(value);
            }
            Err(e) => self.code_mut(id).exception = Some(e),
        }
        let code = self.code_mut(id);
        code.state = InstructionState::Done;
        code.timestamps.execute = Some(cycle);
    }

    /// Record instruction `id`'s destination value, write its rename
    /// register and wake the sources waiting for it.  A waiter whose last
    /// missing source value this was becomes ready in its issue window.
    fn write_dest(&mut self, id: InstrId, value: TypedValue) {
        let code = self.code_mut(id);
        code.result = Some(value);
        // Tag the value with the destination's declared data type for display.
        let Some(DestOperand { tag: Some(tag), data_type, .. }) = code.dest else { return };
        let stored = RegisterValue { bits: value.bits(), data_type };
        self.regs.write_phys(tag, stored);
        let typed = stored.typed();
        for (slot, source) in self.wakeup.take(tag) {
            let id = self.rob.id_in(slot);
            let waiter = self.in_flight.get_mut(id).expect("a waiting instruction is in flight");
            waiter.wake_up(source, tag, typed);
            if waiter.sources_ready() {
                debug_assert_eq!(waiter.state, InstructionState::Dispatched);
                let ready = Ready { id, mul_div: waiter.latency.is_mul_div() };
                self.windows[window_of(waiter.class)].mark_ready(ready);
            }
        }
    }

    /// Squash every instruction younger than `id`, roll back renames, redirect
    /// the fetch unit to `redirect` and apply the flush penalty.
    fn flush_after(&mut self, id: InstrId, redirect: u64, cycle: u64) {
        // Wrong-path instructions still in the fetch buffer carry no renames.
        self.stats.squashed += self.fetch_buffer.len() as u64;
        self.fetch_buffer.clear();
        // Dispatched instructions: youngest first so RAT rollback is correct,
        // and each waiting source is the youngest in its wake-up list and
        // each instruction the youngest in its issue window.
        while let Some((sid, slot)) = self.rob.pop_younger_than(id) {
            let Some(code) = self.in_flight.get(sid) else { continue };
            for (source, src) in code.sources.iter().enumerate().rev() {
                if let (Some(tag), None) = (src.wait_tag, src.value) {
                    self.wakeup.unlink(tag, (slot, source));
                }
            }
            // Every waiter on its tag is younger and already unlinked, so
            // the tag goes back to the free list with an empty list.
            if let Some(DestOperand { tag: Some(tag), previous, .. }) = code.dest {
                self.regs.rollback(tag, previous);
            }
            if code.state == InstructionState::Dispatched {
                self.windows[window_of(code.class)].squash_youngest(sid);
            }
            self.stats.squashed += 1;
        }
        self.in_flight.truncate_after(id);
        for unit in &mut self.units {
            unit.squash_after(id);
        }
        self.load_buffer.truncate_after(id);
        self.store_buffer.truncate_after(id);

        self.pc = redirect;
        self.fetch_stall_until = cycle + 1 + self.image.config.buffers.flush_penalty;
        self.stats.rob_flushes += 1;
    }

    // ---------------------------------------------------------------- memory

    fn stage_memory(&mut self, pp: &PredecodedProgram, memory_units: usize, cycle: u64) {
        // 1. Deliver the loads whose data has arrived.  Taking the data
        // marks a load delivered; its buffer entry is kept until commit for
        // occupancy accounting.
        for i in 0..self.load_buffer.len() {
            let load = self.load_buffer[i];
            match (load.completion, load.forwarded) {
                (Some(completion), Some(raw)) if completion <= cycle => {
                    self.load_buffer[i].forwarded = None;
                    self.complete_load(pp, load.id, raw, cycle);
                }
                _ => {}
            }
        }

        // 2. Forward to or start each load that has its address, in program
        // order.
        let mut issued = 0;
        let mut i = 0;
        while i < self.load_buffer.len() {
            let load = self.load_buffer[i];
            i += 1;
            let Some(address) = load.address else { continue };
            if load.completion.is_some() {
                continue;
            }
            // Store-queue search: older stores only, youngest matching first.
            let mut blocked = false;
            let mut forward: Option<u64> = None;
            for store in self.store_buffer.iter().take_while(|s| s.id < load.id) {
                match store.address {
                    None => {
                        blocked = true; // unknown address — conservative wait
                    }
                    Some(saddr) => {
                        let overlap = ranges_overlap(saddr, store.size, address, load.size);
                        if overlap {
                            if saddr == address && store.size == load.size {
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
            if let Some(raw) = forward {
                let entry = &mut self.load_buffer[i - 1];
                entry.forwarded = Some(TypedValue::long(raw as i64));
                entry.completion = Some(cycle + 1);
            } else if issued < memory_units {
                issued += 1;
                match self.mem.load(address, load.size, cycle) {
                    Ok(tx) => {
                        let entry = &mut self.load_buffer[i - 1];
                        entry.forwarded = Some(TypedValue::long(tx.value as i64));
                        entry.completion = Some(tx.completion_cycle);
                        if let Some(code) = self.in_flight.get_mut(load.id) {
                            code.cache_hit = Some(tx.cache_hit);
                        }
                    }
                    Err(_) => {
                        if let Some(code) = self.in_flight.get_mut(load.id) {
                            code.exception = Some(Exception::InvalidAddress { address });
                            code.state = InstructionState::Done;
                        }
                        i -= 1;
                        self.load_buffer.remove(i);
                    }
                }
            }
        }
    }

    /// Deliver a load's raw data in the cycle it arrives: stamp that cycle,
    /// convert the data, write the destination and mark the load done.
    fn complete_load(&mut self, pp: &PredecodedProgram, id: InstrId, raw: TypedValue, cycle: u64) {
        let Some(code) = self.in_flight.get_mut(id) else { return };
        debug_assert_eq!(code.state, InstructionState::WaitingMemory, "load {id} delivered twice");
        code.timestamps.memory = Some(cycle);
        let entry = pp.entry(code.pc).expect("load pc is predecoded");
        let memory = entry.memory.expect("load has memory descriptor");
        let value = convert_loaded(raw.bits(), memory.size, memory.sign_extend, memory.data_type);
        code.loaded_value = Some(value);
        code.state = InstructionState::Done;
        self.write_dest(id, value);
    }

    // ----------------------------------------------------------------- issue

    fn stage_issue(&mut self, units: &FunctionalUnitsConfig, cycle: u64) {
        // Each free unit, in order, takes the oldest ready instruction of its
        // window that it can execute.
        let mut unit = 0;
        for fx in &units.fx_units {
            self.issue(unit, window_of(FunctionalClass::Fx), fx.supports_mul_div, cycle, |class| {
                match class {
                    LatencyClass::IntMul => fx.mul_latency,
                    LatencyClass::IntDiv => fx.div_latency,
                    _ => fx.alu_latency,
                }
            });
            unit += 1;
        }
        for fp in &units.fp_units {
            self.issue(unit, window_of(FunctionalClass::Fp), true, cycle, |class| match class {
                LatencyClass::FpDiv => fp.div_latency,
                LatencyClass::FpSqrt => fp.sqrt_latency,
                LatencyClass::FpFma => fp.fma_latency,
                LatencyClass::FpMul => fp.mul_latency,
                _ => fp.alu_latency,
            });
            unit += 1;
        }
        for _ in 0..units.ls_units {
            self.issue(unit, window_of(FunctionalClass::Load), true, cycle, |_| units.ls_latency);
            unit += 1;
        }
        for _ in 0..units.branch_units {
            let branch = window_of(FunctionalClass::Branch);
            self.issue(unit, branch, true, cycle, |_| units.branch_latency);
            unit += 1;
        }
    }

    /// If functional unit `unit` is free, start the oldest ready instruction
    /// of `window` it can execute (one that needs a multiply/divide unit only
    /// when `mul_div`), for the latency its class has on the unit.
    fn issue(
        &mut self,
        unit: usize,
        window: usize,
        mul_div: bool,
        cycle: u64,
        latency: impl FnOnce(LatencyClass) -> u64,
    ) {
        if !self.units[unit].is_free(cycle) {
            return;
        }
        let Some(id) = self.windows[window].issue(mul_div) else { return };
        let code = self.code_mut(id);
        code.state = InstructionState::Executing;
        code.timestamps.issue = Some(cycle);
        let latency = latency(code.latency);
        self.units[unit].start(id, cycle, latency);
    }

    // -------------------------------------------------------------- dispatch

    fn stage_dispatch(&mut self, pp: &PredecodedProgram, fetch_width: usize, cycle: u64) {
        for _ in 0..fetch_width {
            let Some(&id) = self.fetch_buffer.front() else { break };
            let Some(code) = self.in_flight.get(id) else {
                self.fetch_buffer.pop_front();
                continue;
            };
            let class = code.class;
            let mul_div = code.latency.is_mul_div();
            let entry = pp.entry(code.pc).expect("fetched pc is predecoded");

            // Structural hazards: every resource must be available.
            if !self.rob.has_space() {
                break;
            }
            let window = window_of(class);
            if !self.windows[window].has_space() {
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
            let mut sources: rvsim_isa::InlineVec<SourceOperand, MAX_SOURCES> =
                rvsim_isa::InlineVec::new();
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
            let slot = self.rob.push(id);
            let mut ready = true;
            for (source, src) in sources.iter().enumerate() {
                if let Some(tag) = src.wait_tag {
                    self.wakeup.push(tag, (slot, source));
                    ready = false;
                }
            }
            self.windows[window].insert(Ready { id, mul_div }, ready);
            let code = self.code_mut(id);
            code.sources = sources;
            code.dest = dest;
            code.state = InstructionState::Dispatched;
            code.timestamps.dispatch = Some(cycle);
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
        let width = self.image.config.buffers.fetch_width;
        let buffer_capacity = width * 2;
        let mut fetched = 0;
        let mut branches_followed = 0;
        let mut pc = self.pc;

        while fetched < width && self.fetch_buffer.len() < buffer_capacity {
            if pc >= self.image.program_end {
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
                if branches_followed >= self.image.config.buffers.branch_follow_limit {
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
        if self.rob.is_empty() && self.fetch_buffer.is_empty() && self.pc >= self.image.program_end
        {
            self.halted = Some(if self.main_returned {
                HaltReason::MainReturned
            } else {
                HaltReason::PipelineEmpty
            });
            self.log.push(self.cycle, LogEvent::PipelineEmpty);
        }
    }
}

/// Check that a configured unit can execute every instruction of the
/// program: issue would leave any other one in its window forever.
fn check_units(
    predecoded: &PredecodedProgram,
    units: &FunctionalUnitsConfig,
) -> Result<(), String> {
    let mul_div = units.fx_units.iter().any(|fx| fx.supports_mul_div);
    for pc in (0..predecoded.len() as u64).map(|index| index * 4) {
        let entry = predecoded.entry(pc).expect("every instruction is predecoded");
        let missing = match entry.class {
            FunctionalClass::Fp if units.fp_units.is_empty() => "an FP unit",
            FunctionalClass::Fx if entry.latency.is_mul_div() && !mul_div => {
                "an FX unit that supports multiply/divide"
            }
            _ => continue,
        };
        return Err(format!(
            "instruction `{}` at pc {pc:#x} needs {missing}, and the configuration has none",
            entry.mnemonic
        ));
    }
    Ok(())
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
    fn programs_no_configured_unit_can_execute_are_rejected() {
        let mut no_mul = ArchitectureConfig::default();
        for fx in &mut no_mul.units.fx_units {
            fx.supports_mul_div = false;
        }
        let mul = "main:\n    li a0, 6\n    li a1, 7\n    mul a0, a0, a1\n    ret\n";
        let err = Simulator::from_assembly(mul, &no_mul).unwrap_err();
        assert!(err.contains("`mul`") && err.contains("multiply/divide"), "{err}");
        assert!(Simulator::from_assembly("main:\n    add a0, a0, a0\n    ret\n", &no_mul).is_ok());

        let mut no_fp = ArchitectureConfig::default();
        no_fp.units.fp_units.clear();
        let fp = "main:\n    fmv.w.x fa0, a0\n    fadd.s fa0, fa0, fa0\n    ret\n";
        let err = Simulator::from_assembly(fp, &no_fp).unwrap_err();
        assert!(err.contains("`fmv.w.x`") && err.contains("FP unit"), "{err}");
        assert!(Simulator::from_assembly(mul, &no_fp).is_ok());
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

    /// Runs far past any cycle the checkpoint tests reach.
    const LONG_LOOP: &str = "
        main:
            li   t0, 1000000
            li   a0, 0
        loop:
            addi a0, a0, 1
            addi t0, t0, -1
            bnez t0, loop
            ret
    ";

    fn checkpoint_cycles(sim: &Simulator) -> Vec<u64> {
        sim.checkpoints.iter().map(|c| c.cycle).collect()
    }

    // The expected lists below are worked out by hand from the retention
    // rule: for each level j, the largest multiple of 16 * 2^j at or below
    // the target.  For 16,000 the levels 16, 32, 64 and 128 all keep 16,000
    // itself; 256 and 512 keep 15,872; 1,024 keeps 15,360; 2,048 keeps
    // 14,336; 4,096 keeps 12,288; 8,192 keeps 8,192; 16,384 keeps none.
    #[test]
    fn retention_keeps_one_checkpoint_per_level() {
        assert!(keeps_checkpoint(15_872, 16_000) && keeps_checkpoint(8_192, 16_000));
        assert!(!keeps_checkpoint(15_984, 16_000), "a second checkpoint at the finest level");
        assert!(!keeps_checkpoint(15_616, 16_000), "a second checkpoint at the 256 level");
        assert!(!keeps_checkpoint(0, 16_000) && !keeps_checkpoint(16_016, 16_000));
        let kept: Vec<u64> =
            (1..=1_024).map(|k| k * 16).filter(|&c| keeps_checkpoint(c, 16_000)).collect();
        assert_eq!(kept, [8_192, 12_288, 14_336, 15_360, 15_872, 16_000]);

        let mut sim = Simulator::from_assembly(LONG_LOOP, &ArchitectureConfig::default()).unwrap();
        assert_eq!(checkpoint_cycles(&sim), [0], "stepping takes none");
        sim.run(16_001).unwrap();
        assert_eq!(checkpoint_cycles(&sim).len(), 1, "running takes none");
        sim.step_back();
        assert_eq!(sim.cycle(), 16_000);
        assert_eq!(checkpoint_cycles(&sim), [0, 8_192, 12_288, 14_336, 15_360, 15_872, 16_000]);
        // Stepping back again near the same cycles reuses them.
        sim.step();
        sim.step_back();
        assert_eq!(checkpoint_cycles(&sim), [0, 8_192, 12_288, 14_336, 15_360, 15_872, 16_000]);
        // For 12,000: 16 and 32 keep 12,000; 64 keeps 11,968; 128 keeps
        // 11,904; 256 and 512 keep 11,776; 1,024 keeps 11,264; 2,048 keeps
        // 10,240; 4,096 and 8,192 keep 8,192.
        sim.step_back_by(4_000);
        assert_eq!(
            checkpoint_cycles(&sim),
            [0, 8_192, 10_240, 11_264, 11_776, 11_904, 11_968, 12_000]
        );
    }

    #[test]
    fn reset_keeps_checkpoints_and_a_trace_toggle_drops_them() {
        let mut sim = Simulator::from_assembly(LONG_LOOP, &ArchitectureConfig::default()).unwrap();
        for _ in 0..1_000 {
            sim.step();
        }
        sim.step_back();
        // For 999: 16 and 32 keep 992; 64 keeps 960; 128 keeps 896; 256
        // keeps 768; 512 keeps 512; 1,024 keeps none.
        assert_eq!(checkpoint_cycles(&sim), [0, 512, 768, 896, 960, 992]);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert_eq!(checkpoint_cycles(&sim).len(), 6, "reset restores cycle 0 and keeps the rest");
        sim.set_retirement_trace(true);
        assert_eq!(checkpoint_cycles(&sim), [0]);
        sim.run(900).unwrap();
        sim.step_back_by(100);
        assert_eq!(sim.retirement_trace().len() as u64, sim.statistics().committed);
        assert_eq!(sim.retirement_trace()[0].seq, 0, "the trace restarts at cycle 0");
    }

    #[test]
    fn a_step_back_keeps_few_checkpoints_and_one_close_below_its_target() {
        let mut sim = Simulator::from_assembly(LONG_LOOP, &ArchitectureConfig::scalar()).unwrap();
        // A fixed xorshift sequence of forward runs and step backs.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        // Targets drift up to about 25,000 cycles.
        for _ in 0..60 {
            sim.run(sim.cycle() + next(1_500)).unwrap();
            let target = sim.cycle().saturating_sub(1 + next(700));
            sim.step_back_by(sim.cycle() - target);
            assert_eq!(sim.cycle(), target);
            let kept = checkpoint_cycles(&sim);
            assert_eq!(kept[0], 0);
            assert!(kept.windows(2).all(|w| w[0] < w[1]), "kept in order: {kept:?}");
            assert!(kept[1..].iter().all(|&c| keeps_checkpoint(c, target)), "{kept:?}");
            let nearest = *kept.last().unwrap();
            assert!(target - nearest < CHECKPOINT_INTERVAL, "nearest {nearest} for {target}");
            let bound = match target / CHECKPOINT_INTERVAL {
                0 => 1,
                blocks => blocks.ilog2() as usize + 2,
            };
            assert!(kept.len() <= bound, "{} kept for {target}: {kept:?}", kept.len());
        }
    }

    #[test]
    fn a_load_waiting_to_commit_keeps_its_arrival_cycle() {
        // The load's data arrives long before the older divides commit.
        let mut sim = Simulator::from_assembly(
            "buf:
                .word 42
            main:
                la   t0, buf
                li   a0, 1000
                li   a1, 3
                div  a2, a0, a1
                div  a2, a2, a1
                div  a2, a2, a1
                lw   a3, 0(t0)
                add  a0, a2, a3
                ret",
            &ArchitectureConfig::default(),
        )
        .unwrap();
        let mut arrival = None;
        let mut waited = 0;
        while !sim.is_halted() {
            sim.step();
            let Some(load) = sim.in_flight().find(|c| c.mnemonic.as_str() == "lw") else {
                continue;
            };
            match (arrival, load.timestamps.memory) {
                (None, Some(cycle)) => {
                    assert_eq!(cycle, sim.cycle() - 1, "stamped in the cycle it arrived");
                    assert!(load.is_done());
                    arrival = Some(cycle);
                }
                (Some(cycle), stamp) => {
                    assert_eq!(stamp, Some(cycle), "restamped at cycle {}", sim.cycle() - 1);
                    waited += 1;
                }
                (None, None) => {}
            }
        }
        assert!(arrival.is_some() && waited >= 3, "the load waited {waited} cycles to commit");
        assert_eq!(sim.int_register(10), 37 + 42);
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
