//! Property tests for the session envelope: serialize → restore → serialize
//! must be byte-identical, and a restored simulator must retire exactly the
//! trace the original would have — across the scalar, default and wide
//! architecture presets, arbitrary capture points and generated programs.
//! This is the cosim-style equivalence gate that live migration rests on.

use proptest::prelude::*;
use rvsim_core::{ArchitectureConfig, ProcessorSnapshot, Simulator};
use rvsim_server::protocol::{Request, Response};
use rvsim_server::server::{DeploymentConfig, SimulationServer};
use rvsim_server::{decode_response, CheckpointConfig, SessionEnvelope};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Send `request` down the server's one request path and decode the answer.
fn call(server: &SimulationServer, request: Request) -> Response {
    let body = serde_json::to_vec(&request).unwrap();
    decode_response(&server.handle_raw(&body)).unwrap()
}

/// The preset matrix migration must hold on (the same machines the cosim
/// batch and the throughput bench cover).
fn preset(index: u8) -> ArchitectureConfig {
    match index % 3 {
        0 => ArchitectureConfig::scalar(),
        1 => ArchitectureConfig::default(),
        _ => ArchitectureConfig::wide(),
    }
}

/// A small parametric program family: an arithmetic reduction over a data
/// array, with generated constants so each case exercises different branch
/// and forwarding behaviour.  Always `ret`-terminated (the assembler has no
/// `ebreak`), long enough that mid-loop capture points exist.
fn generated_program(seed_a: i32, step: i32, iterations: u32, with_memory: bool) -> String {
    let memory_loop = if with_memory {
        "
    andi t4, t1, 7
    slli t4, t4, 2
    add  t4, t4, t3
    lw   t5, 0(t4)
    add  t2, t2, t5
"
    } else {
        ""
    };
    format!(
        "
data:
    .word 7, 3, 11, 5, 2, 13, 1, 9
main:
    li   t0, {seed_a}
    li   t1, {iterations}
    li   t2, 0
    la   t3, data
loop:
    add  t2, t2, t0
    addi t0, t0, {step}
    xor  t2, t2, t0{memory_loop}
    addi t1, t1, -1
    bnez t1, loop
    mv   a0, t2
    ret
"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
    ))]

    /// serialize → bytes → restore → serialize is byte-identical: the
    /// envelope loses nothing, whatever the machine or capture point.
    #[test]
    fn envelope_round_trip_is_byte_identical(
        preset_ix in 0u8..3,
        seed_a in -50i32..50,
        step in 1i32..9,
        iterations in 2u32..24,
        capture_steps in 0usize..48,
        with_memory in any::<bool>(),
        session in 1u64..1_000_000,
    ) {
        let config = preset(preset_ix);
        let program = generated_program(seed_a, step, iterations, with_memory);
        let mut sim = Simulator::from_assembly(&program, &config).expect("program assembles");
        for _ in 0..capture_steps {
            sim.step();
        }

        let envelope = SessionEnvelope::capture(session, &sim, &program);
        let bytes = envelope.to_bytes();
        let back = SessionEnvelope::from_bytes(&bytes).expect("framing round-trips");
        prop_assert_eq!(&back, &envelope);
        prop_assert_eq!(back.to_bytes(), bytes.clone());

        // The restored simulator re-serializes to the exact same envelope —
        // the property a second migration hop depends on.
        let restored = back.replay().expect("replay succeeds");
        let again = SessionEnvelope::capture(session, &restored, &program);
        prop_assert_eq!(again.to_bytes(), bytes);
    }

    /// Cosim gate: after restore, the rebuilt simulator and the original
    /// stay in lockstep — identical architectural snapshots at every
    /// compared cycle, identical retirement statistics.  A session migrated
    /// mid-run is indistinguishable from one that never moved.
    #[test]
    fn restored_session_retires_identically_to_the_original(
        preset_ix in 0u8..3,
        seed_a in -50i32..50,
        step in 1i32..9,
        iterations in 4u32..24,
        capture_steps in 1usize..32,
        run_on in 1usize..48,
    ) {
        let config = preset(preset_ix);
        let program = generated_program(seed_a, step, iterations, false);
        let mut original = Simulator::from_assembly(&program, &config).expect("program assembles");
        for _ in 0..capture_steps {
            original.step();
        }

        let envelope = SessionEnvelope::capture(7, &original, &program);
        let mut restored =
            SessionEnvelope::from_bytes(&envelope.to_bytes()).unwrap().replay().unwrap();
        prop_assert_eq!(restored.cycle(), original.cycle());

        for stepped in 1..=run_on {
            original.step();
            restored.step();
            prop_assert_eq!(restored.cycle(), original.cycle(), "cycle diverged");
            prop_assert_eq!(
                ProcessorSnapshot::capture(&restored),
                ProcessorSnapshot::capture(&original),
                "state diverged {} steps after restore",
                stepped
            );
        }
        let (a, b) = (original.statistics(), restored.statistics());
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "retirement statistics diverged"
        );
    }

    /// Durability gate: spill → evict → restore-on-demand through the
    /// server's checkpoint path serves byte-identical state, and the
    /// on-disk checkpoint file is itself a byte-stable envelope.  This is
    /// the same equivalence the migration properties prove, but through the
    /// crash-recovery machinery (atomic file write, directory scan, replay
    /// on next touch) instead of the wire.
    #[test]
    fn spilled_session_recovers_byte_identically(
        preset_ix in 0u8..3,
        seed_a in -50i32..50,
        step in 1i32..9,
        iterations in 2u32..24,
        capture_steps in 0u64..48,
        with_memory in any::<bool>(),
        session in 1u64..1_000_000,
    ) {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rvsim-envelope-spill-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server = SimulationServer::with_checkpoints(
            DeploymentConfig::default(),
            CheckpointConfig {
                state_dir: dir.clone(),
                interval: Duration::from_secs(3600),
                dirty_cycles: 0,
            },
        )
        .expect("state dir opens");

        let program = generated_program(seed_a, step, iterations, with_memory);
        let created = call(&server, Request::CreateSession {
            program: program.clone(),
            architecture: Some(preset(preset_ix)),
            entry: None,
            session: Some(session),
        });
        prop_assert_eq!(created, Response::SessionCreated { session });
        call(&server, Request::Step { session, cycles: capture_steps });
        let raw_request = serde_json::to_vec(&Request::GetState { session }).unwrap();
        let before = server.handle_raw(&raw_request).to_vec();

        // Spill: the zero-TTL sweep pushes the session to disk.
        prop_assert_eq!(server.evict_idle_older_than(Duration::ZERO), 1);
        prop_assert_eq!(server.session_count(), 0);

        // The checkpoint file is a byte-stable envelope at the spill cycle.
        let (on_disk, _) = server.checkpoint_store().unwrap().load(session).unwrap();
        prop_assert_eq!(
            SessionEnvelope::from_bytes(&on_disk.to_bytes()).unwrap(),
            on_disk.clone()
        );

        // Restore-on-demand: the next touch serves identical state bytes.
        let after = server.handle_raw(&raw_request).to_vec();
        prop_assert_eq!(&before, &after, "restored session must serve identical bytes");
        prop_assert_eq!(server.restored_session_count(), 1);

        // And the restored session retires in lockstep with a never-spilled
        // replay of the same envelope.
        let mut reference = on_disk.replay().unwrap();
        for _ in 0..4 {
            reference.step();
        }
        let stepped = call(&server, Request::Step { session, cycles: 4 });
        prop_assert_eq!(
            stepped,
            Response::Stepped { cycle: reference.cycle(), halted: reference.is_halted() }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
