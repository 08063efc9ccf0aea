//! The four workloads: what each sets up, the one operation it repeats, and
//! the checks that decide whether the program's outputs were correct.

use crate::client::{
    self, get_state_request, json, state_cycle, step_back_request, step_request, Client,
};
use crate::gen::Inputs;
use crate::http::decode_payload;
use crate::report::{PRESETS, PROGRAMS};
use rvsim_core::{ArchitectureConfig, Simulator};
use rvsim_iss::Iss;
use rvsim_mem::MemorySettings;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// "Run" and design-space exploration: each operation runs both programs
    /// to completion on one preset, the presets taken in turn.
    Batch,
    /// The interactive click: `Step{1}` then a freshly rendered, compressed
    /// `GetState`.
    GuiStep,
    /// A refresh of an unchanged session: the cached `GetState` payload.
    GuiRefresh,
    /// `StepBack{1}`, `GetState`, `Step{1}` on sessions of three ages.
    TimeTravel,
}

/// Cycle budget of a batch `Run`; every program halts long before it.
pub const RUN_BUDGET: u64 = 50_000_000;

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Batch, Workload::GuiStep, Workload::GuiRefresh, Workload::TimeTravel];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::GuiStep => "gui_step",
            Workload::GuiRefresh => "gui_refresh",
            Workload::TimeTravel => "time_travel",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Span name of one operation.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::Batch => "op.batch",
            Workload::GuiStep => "op.gui_step",
            Workload::GuiRefresh => "op.gui_refresh",
            Workload::TimeTravel => "op.time_travel",
        }
    }

    /// Offered open-loop rate in operations per second, about 15% of the
    /// two-connection closed-loop capacity measured when the benchmark was
    /// defined, so a slower host does not push the loop past saturation.
    /// `None`: latency comes from one user running operations back to back
    /// in whole sweeps, so every preset (`batch`) or session age
    /// (`time_travel`) is run equally often and each percentile falls inside
    /// one of them.  Their operations take milliseconds to tenths of a
    /// second and differ tenfold between classes: in an open loop, whether
    /// the median landed in a class or on the queueing between them came
    /// down to the arrival draw.
    pub fn open_rate(self) -> Option<f64> {
        match self {
            Workload::Batch | Workload::TimeTravel => None,
            Workload::GuiStep => Some(1_000.0),
            Workload::GuiRefresh => Some(6_000.0),
        }
    }
}

/// What the client knows about one server-side session.
#[derive(Debug)]
pub struct Session {
    pub id: u64,
    /// Cycle the session sits at between operations (`time_travel`) or
    /// started at (GUI workloads).
    pub age: u64,
    /// Cycle the session must be at now; `gui_step` advances it.
    pub cycle: AtomicU64,
    /// `gui_refresh`: the first encoded `GetState` body.  `time_travel`: the
    /// decoded state at `age - 1`, captured going forward.
    pub reference: Vec<u8>,
}

/// One (program, preset) cell of the batch sweep and what it must report.
#[derive(Debug, Clone)]
pub struct Cell {
    pub program: usize,
    pub preset: usize,
    pub architecture: String,
    pub cycles: u64,
    pub committed: u64,
}

#[derive(Debug, Default)]
pub struct Setup {
    /// Assembly the server compiled, indexed like [`PROGRAMS`].
    pub assembly: Vec<String>,
    pub sessions: Vec<Session>,
    pub cells: Vec<Cell>,
}

/// The architecture preset at `index`, in [`PRESETS`] order.
pub fn preset_config(index: usize) -> ArchitectureConfig {
    match index {
        0 => ArchitectureConfig::scalar(),
        1 => ArchitectureConfig::default(),
        _ => ArchitectureConfig::wide(),
    }
}

impl Workload {
    /// The timed part of set-up: compile through the server, create the
    /// sessions and advance them to their ages.
    pub fn build(self, ctl: &mut Client, inputs: &Inputs) -> Result<Setup, String> {
        let mut setup =
            Setup { assembly: vec![ctl.compile(&inputs.quicksort_c())?], ..Setup::default() };
        let ages: Vec<u64> = match self {
            Workload::Batch => {
                setup.assembly.push(ctl.compile(&inputs.matmul_c())?);
                setup.cells = (0..PROGRAMS.len())
                    .flat_map(|program| (0..PRESETS.len()).map(move |preset| (program, preset)))
                    .map(|(program, preset)| Cell {
                        program,
                        preset,
                        architecture: preset_config(preset).to_json(),
                        cycles: 0,
                        committed: 0,
                    })
                    .collect();
                Vec::new()
            }
            Workload::GuiStep | Workload::GuiRefresh => inputs.gui_ages.clone(),
            Workload::TimeTravel => inputs.travel_ages.clone(),
        };
        for age in ages {
            let id = ctl.create(&setup.assembly[0], None)?;
            // time_travel sessions stop one cycle short: the reference state
            // is captured there before they take their last step.
            let target = if self == Workload::TimeTravel { age - 1 } else { age };
            if target > 0 && ctl.step(id, target)? != target {
                return Err(format!("session {id} did not reach cycle {target}"));
            }
            setup.sessions.push(Session {
                id,
                age,
                cycle: AtomicU64::new(target),
                reference: Vec::new(),
            });
        }
        Ok(setup)
    }

    /// Untimed set-up: capture what the checks compare against.  Returns the
    /// number of checks made and the failures among them.  `cells` are the
    /// batch cells of an earlier set-up in the same run; when given, the
    /// batch reference sweep is not repeated.
    pub fn capture(
        self,
        ctl: &mut Client,
        setup: &mut Setup,
        inputs: &Inputs,
        cells: &[Cell],
    ) -> Result<(u64, Vec<String>), String> {
        match self {
            Workload::Batch if !cells.is_empty() => {
                setup.cells = cells.to_vec();
                Ok((0, Vec::new()))
            }
            Workload::Batch => reference_sweep(ctl, setup, inputs),
            Workload::GuiStep => Ok((0, Vec::new())),
            Workload::GuiRefresh => {
                for session in &mut setup.sessions {
                    session.reference =
                        ctl.api("http.get_state", &get_state_request(session.id))?;
                }
                Ok((0, Vec::new()))
            }
            Workload::TimeTravel => {
                for session in &mut setup.sessions {
                    let payload = ctl.api("http.get_state", &get_state_request(session.id))?;
                    session.reference = decode_payload(&payload)?.into_owned();
                    if ctl.step(session.id, 1)? != session.age {
                        return Err(format!("session {} did not reach its age", session.id));
                    }
                    session.cycle.store(session.age, Ordering::Relaxed);
                }
                Ok((0, Vec::new()))
            }
        }
    }

    /// One operation on `session` (batch: on preset `session`).  Returns
    /// when the last response arrived; the checks run after that instant.
    pub fn op(self, client: &mut Client, setup: &Setup, session: usize) -> Result<Instant, String> {
        match self {
            Workload::Batch => run_preset(client, setup, session),
            Workload::GuiStep => {
                let s = &setup.sessions[session];
                let next = s.cycle.load(Ordering::Relaxed) + 1;
                let stepped = client.api("http.step", &step_request(s.id, 1))?;
                s.cycle.store(next, Ordering::Relaxed);
                let state = client.api("http.get_state", &get_state_request(s.id))?;
                let done = Instant::now();
                let reached = client::stepped(&stepped, false)?;
                let shown = state_cycle(&decode_payload(&state)?)?;
                if reached != next || shown != next {
                    return Err(format!(
                        "session {}: expected cycle {next}, stepped to {reached}, state shows {shown}",
                        s.id
                    ));
                }
                Ok(done)
            }
            Workload::GuiRefresh => {
                let s = &setup.sessions[session];
                let state = client.api("http.get_state", &get_state_request(s.id))?;
                let done = Instant::now();
                if state != s.reference {
                    return Err(format!("session {}: GetState body changed", s.id));
                }
                Ok(done)
            }
            Workload::TimeTravel => {
                let s = &setup.sessions[session];
                let back = client.api("http.step_back", &step_back_request(s.id, 1))?;
                let state = client.api("http.get_state", &get_state_request(s.id))?;
                let forward = client.api("http.step", &step_request(s.id, 1))?;
                let done = Instant::now();
                if client::stepped(&back, false)? != s.age - 1
                    || client::stepped(&forward, false)? != s.age
                {
                    return Err(format!("session {}: time travel lost its place", s.id));
                }
                if decode_payload(&state)?.as_ref() != s.reference.as_slice() {
                    return Err(format!(
                        "session {}: state after StepBack differs from the forward one",
                        s.id
                    ));
                }
                Ok(done)
            }
        }
    }

    /// Checks after the load.  `gui_step`: each session's committed count
    /// must equal an in-process simulator stepped to the same cycle.
    pub fn final_check(
        self,
        ctl: &mut Client,
        setup: &Setup,
    ) -> Result<(u64, Vec<String>), String> {
        if self != Workload::GuiStep {
            return Ok((0, Vec::new()));
        }
        let mut order: Vec<&Session> = setup.sessions.iter().collect();
        order.sort_by_key(|s| s.cycle.load(Ordering::Relaxed));
        let config = ArchitectureConfig::default();
        let mut sim = Simulator::from_assembly_with_memory(
            &setup.assembly[0],
            &config,
            MemorySettings::new(),
        )?;
        let (mut at, mut failures) = (0, Vec::new());
        for s in &order {
            let cycle = s.cycle.load(Ordering::Relaxed);
            while at < cycle {
                sim.step();
                at += 1;
            }
            let stats = ctl.stats(s.id)?;
            let expected = sim.statistics().committed;
            if stats["cycles"].as_u64() != Some(cycle)
                || stats["committed"].as_u64() != Some(expected)
            {
                failures.push(format!(
                    "session {}: server at cycle {:?} committed {:?}, in-process {expected} at {cycle}",
                    s.id,
                    stats["cycles"].as_u64(),
                    stats["committed"].as_u64()
                ));
            }
        }
        Ok((order.len() as u64, failures))
    }
}

/// Run one cell on the server: create, run to completion, read the
/// statistics, destroy.  Returns the session id (already destroyed) with the
/// cycles and committed instructions the server reported.
fn run_cell(
    client: &mut Client,
    setup: &Setup,
    cell: &Cell,
    keep: bool,
) -> Result<(u64, u64, u64), String> {
    let id = client.create(&setup.assembly[cell.program], Some(&cell.architecture))?;
    let run = client.api(
        "http.run",
        &format!(r#"{{"type":"run","session":{id},"max_cycles":{RUN_BUDGET}}}"#),
    )?;
    let stats = client.stats(id)?;
    if !keep {
        client.destroy(id)?;
    }
    let cycles = client::stepped(&run, true)?;
    let committed = stats["committed"].as_u64().ok_or("stats without committed")?;
    Ok((id, cycles, committed))
}

/// The batch operation: "Run" on one preset, which runs both programs to
/// completion.  Each cell must repeat the reference sweep's cycle count and
/// the ISS's committed count exactly.
fn run_preset(client: &mut Client, setup: &Setup, preset: usize) -> Result<Instant, String> {
    let cells: Vec<&Cell> = setup.cells.iter().filter(|c| c.preset == preset).collect();
    let mut results = Vec::with_capacity(cells.len());
    for cell in &cells {
        results.push(run_cell(client, setup, cell, false)?);
    }
    let done = Instant::now();
    for (cell, (_, cycles, committed)) in cells.iter().zip(results) {
        if cycles != cell.cycles || committed != cell.committed {
            return Err(format!(
                "{}/{}: {cycles} cycles, {committed} committed; expected {} and {}",
                PROGRAMS[cell.program], PRESETS[cell.preset], cell.cycles, cell.committed
            ));
        }
    }
    Ok(done)
}

/// The untimed first sweep over every cell.  Each cell's `a0` and committed
/// count must equal the ISS on the same program and memory, and `a0` must
/// equal the checksum computed on the host.  Its cycle counts become the
/// reference every later run must repeat exactly.
fn reference_sweep(
    ctl: &mut Client,
    setup: &mut Setup,
    inputs: &Inputs,
) -> Result<(u64, Vec<String>), String> {
    let checksums = [inputs.quicksort_checksum(), inputs.matmul_checksum()];
    let mut failures = Vec::new();
    for index in 0..setup.cells.len() {
        let cell = &setup.cells[index];
        let (id, cycles, committed) = run_cell(ctl, setup, cell, true)?;
        let state = json(&ctl.api("http.get_state", &get_state_request(id))?)?;
        ctl.destroy(id)?;
        let a0_bits = state["int_registers"][10]["bits"].as_u64().ok_or("state without a0")?;
        let a0 = i64::from(a0_bits as u32 as i32);

        let config = preset_config(cell.preset);
        let sim = Simulator::from_assembly_with_memory(
            &setup.assembly[cell.program],
            &config,
            MemorySettings::new(),
        )?;
        let mut iss = Iss::with_memory(sim.program().clone(), &config, MemorySettings::new())?;
        iss.run(RUN_BUDGET);
        let name = format!("{}/{}", PROGRAMS[cell.program], PRESETS[cell.preset]);
        if committed != iss.retired() || a0 != iss.int_register(10) {
            failures.push(format!(
                "{name}: server a0 {a0}, {committed} committed; ISS a0 {}, {} retired",
                iss.int_register(10),
                iss.retired()
            ));
        }
        if a0 != checksums[cell.program] {
            failures.push(format!("{name}: a0 {a0}, host checksum {}", checksums[cell.program]));
        }
        let cell = &mut setup.cells[index];
        cell.cycles = cycles;
        cell.committed = iss.retired();
    }
    Ok((2 * setup.cells.len() as u64, failures))
}
