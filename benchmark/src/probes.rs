//! In-process layer probes of a traced run: each replays the run's seeded
//! inputs through one layer's public entry point, inside a span.  They are
//! the same for every workload, so each workload's ledger can be read
//! against the others.

use crate::gen::{Inputs, Size};
use crate::report::{AGES, PRESETS, PROGRAMS};
use crate::trace::Recorder;
use crate::workload::{preset_config, RUN_BUDGET};
use rvsim_cc::OptLevel;
use rvsim_compress::Compressor;
use rvsim_core::{ArchitectureConfig, Simulator, SnapshotBuffer};
use rvsim_mem::MemorySettings;
use rvsim_server::{DeploymentConfig, SimulationServer};
use std::hint::black_box;
use std::time::Instant;

/// Median time of one call of `f` in µs, over `n` individually timed calls.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&samples)
}

/// [`median_us`] for calls too short to time one by one: each sample times
/// `batch` calls, so the clock reads are not what is measured.
fn median_batched_us(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    median_us(samples, || (0..batch).for_each(|_| f())) / batch as f64
}

fn compile(source: &str) -> Result<String, String> {
    rvsim_cc::compile(source, OptLevel::O2)
        .map(|output| output.assembly)
        .map_err(|errors| format!("compile: {errors:?}"))
}

fn build(assembly: &str, config: &ArchitectureConfig) -> Result<Simulator, String> {
    Simulator::from_assembly_with_memory(assembly, config, MemorySettings::new())
}

fn advance(sim: &mut Simulator, cycles: u64) {
    for _ in 0..cycles {
        sim.step();
    }
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run(rec: &mut Recorder, inputs: &Inputs, size: &Size) -> Result<Vec<(String, f64)>, String> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let sources = [inputs.quicksort_c(), inputs.matmul_c()];
    let compile_us =
        rec.probe("probe.cc.compile", || median_us(5, || drop(black_box(compile(&sources[0])))));
    out.push(("cc.compile_ms".into(), compile_us / 1e3));
    let assembly = [compile(&sources[0])?, compile(&sources[1])?];
    let default = ArchitectureConfig::default();

    let build_us = rec.probe("probe.core.build", || {
        median_us(5, || drop(black_box(build(&assembly[0], &default))))
    });
    out.push(("core.build_ms".into(), build_us / 1e3));

    // Host time per simulated cycle, and the simulated statistics of each
    // cell, which depend only on the program, its inputs and the preset.
    rec.probe("probe.core.run", || -> Result<(), String> {
        for (p, preset_name) in PRESETS.iter().enumerate() {
            let config = preset_config(p);
            let (mut host_ns, mut cycles) = (0.0, 0u64);
            for (program, asm) in PROGRAMS.iter().zip(&assembly) {
                let mut sim = build(asm, &config)?;
                let start = Instant::now();
                let result = sim.run(RUN_BUDGET)?;
                host_ns += start.elapsed().as_secs_f64() * 1e9;
                cycles += result.cycles;
                let stats = sim.statistics();
                let cell = format!("{program}.{preset_name}");
                out.push((format!("core.ipc.{cell}"), stats.ipc()));
                out.push((format!("mem.hit_ratio.{cell}"), stats.memory.hit_ratio()));
                out.push((format!("mem.accesses.{cell}"), stats.memory.cache_accesses as f64));
                out.push((format!("predictor.accuracy.{cell}"), stats.predictor.accuracy()));
            }
            out.push((format!("core.ns_per_cycle.{preset_name}"), host_ns / cycles as f64));
        }
        Ok(())
    })?;

    let mut sim = build(&assembly[0], &default)?;
    advance(&mut sim, size.gui_max_age / 2);
    let reset_us = rec.probe("probe.core.reset", || median_us(50, || sim.reset()));
    out.push(("core.reset_us".into(), reset_us));

    for (age, label) in size.travel_ages.iter().zip(AGES) {
        let mut sim = build(&assembly[0], &default)?;
        advance(&mut sim, *age);
        let us = rec.probe("probe.core.step_back", || {
            median_us(3, || {
                sim.step_back();
                sim.step();
            })
        });
        // The replay dominates; the one forward step is noise beside it.
        out.push((format!("core.step_back_ms.{label}"), us / 1e3));
    }

    // Render and compress a GUI-typical snapshot.
    let mut sim = build(&assembly[0], &default)?;
    advance(&mut sim, size.gui_max_age / 2);
    let mut buffer = SnapshotBuffer::new();
    let render_us = rec.probe("probe.core.render", || {
        median_us(200, || {
            black_box(buffer.render_state_response(&sim));
        })
    });
    out.push(("core.render_us".into(), render_us));
    let json = buffer.render_state_response(&sim).to_vec();
    let mut compressor = Compressor::new();
    let mut packed = Vec::with_capacity(json.len());
    let compress_us = rec.probe("probe.compress", || {
        median_us(200, || {
            packed.clear();
            compressor.compress_into(&json, &mut packed);
        })
    });
    out.push(("compress.us".into(), compress_us));
    out.push(("compress.ratio".into(), packed.len() as f64 / json.len() as f64));

    // The server layer without the network: request decode, then handle_raw.
    let server = SimulationServer::new(DeploymentConfig::default());
    let create = crate::client::create_request(&assembly[0], None);
    let id = crate::client::json(&server.handle_raw(create.as_bytes()))?["session"]
        .as_u64()
        .ok_or("create failed")?;
    let step = crate::client::step_request(id, 1);
    let get_state = crate::client::get_state_request(id);
    for (name, body) in [("step", &step), ("get_state", &get_state)] {
        let us = rec.probe("probe.server.decode", || {
            median_batched_us(50, 100, || {
                drop(black_box(serde_json::from_slice::<rvsim_server::Request>(body.as_bytes())))
            })
        });
        out.push((format!("server.decode_us.{name}"), us));
    }
    let raw = |body: &str| drop(black_box(server.handle_raw(body.as_bytes())));
    let step_us = rec.probe("probe.server.handle_raw", || median_us(200, || raw(&step)));
    let fresh: Vec<f64> = rec.probe("probe.server.handle_raw", || {
        (0..100)
            .map(|_| {
                raw(&step);
                median_us(1, || raw(&get_state))
            })
            .collect()
    });
    let cached_us =
        rec.probe("probe.server.handle_raw", || median_batched_us(50, 100, || raw(&get_state)));
    raw(&crate::client::step_request(id, size.travel_ages[1]));
    let back = crate::client::step_back_request(id, 1);
    let step_back: Vec<f64> = rec.probe("probe.server.handle_raw", || {
        (0..3)
            .map(|_| {
                let us = median_us(1, || raw(&back));
                raw(&step);
                us
            })
            .collect()
    });
    out.push(("server.handle_raw_us.step".into(), step_us));
    out.push(("server.handle_raw_us.get_state_fresh".into(), crate::stats::median(&fresh)));
    out.push(("server.handle_raw_us.get_state_cached".into(), cached_us));
    out.push(("server.handle_raw_us.step_back".into(), crate::stats::median(&step_back)));
    Ok(out)
}
