//! Cross-crate integration tests of the server protocol, architecture
//! configuration handling, and the property-based determinism guarantees the
//! backward-stepping feature relies on (§III-B).

use proptest::prelude::*;
use riscv_superscalar_sim::prelude::*;

const PROGRAM: &str = "
main:
    li   t0, 0
    li   t1, 30
loop:
    addi t0, t0, 7
    addi t1, t1, -1
    bnez t1, loop
    mv   a0, t0
    ret
";

/// Send `request` down the server's one request path and decode the answer.
fn call(server: &SimulationServer, request: &Request) -> Result<Response, String> {
    let body = serde_json::to_vec(request).map_err(|e| e.to_string())?;
    decode_response(&server.handle_raw(&body))
}

#[test]
fn full_client_workflow_compile_create_run_stats() {
    let server = SimulationServer::new(DeploymentConfig::default());

    // 1. Compile C to assembly.
    let response = call(
        &server,
        &Request::Compile {
            source: "int main(void) { int s = 0; for (int i = 0; i < 16; i++) s += i; return s; }"
                .into(),
            optimization: 2,
        },
    )
    .unwrap();
    let assembly = match response {
        Response::Compiled { assembly, .. } => assembly,
        other => panic!("unexpected {other:?}"),
    };

    // 2. Create a session with a customized architecture.
    let mut arch = ArchitectureConfig::wide();
    arch.name = "workflow-test".into();
    let response = call(
        &server,
        &Request::CreateSession {
            program: assembly,
            architecture: Some(arch),
            entry: None,
            session: None,
        },
    )
    .unwrap();
    let session = match response {
        Response::SessionCreated { session } => session,
        other => panic!("unexpected {other:?}"),
    };

    // 3. Interactive stepping with state snapshots (the GUI loop).
    for _ in 0..5 {
        let stepped = call(&server, &Request::Step { session, cycles: 1 }).unwrap();
        assert!(matches!(stepped, Response::Stepped { .. }));
        let state = call(&server, &Request::GetState { session }).unwrap();
        match state {
            Response::State(snapshot) => assert_eq!(snapshot.int_registers.len(), 32),
            other => panic!("unexpected {other:?}"),
        }
    }

    // 4. Run to completion and check statistics.
    let response = call(&server, &Request::Run { session, max_cycles: 1_000_000 }).unwrap();
    match response {
        Response::Stepped { halted, .. } => assert!(halted),
        other => panic!("unexpected {other:?}"),
    }
    let response = call(&server, &Request::GetStats { session }).unwrap();
    match response {
        Response::Stats(stats) => {
            assert!(stats.committed > 50);
            assert!(stats.ipc() > 0.0);
            assert!(stats.branch_accuracy() > 0.0);
        }
        other => panic!("unexpected {other:?}"),
    }

    // 5. Clean up.
    assert_eq!(call(&server, &Request::DestroySession { session }).unwrap(), Response::Destroyed);
}

#[test]
fn architecture_json_export_import_drives_the_simulation() {
    // Export a customized architecture to JSON (the settings window's
    // export), re-import it, and verify the simulation actually uses it.
    let mut config = ArchitectureConfig { name: "exported".into(), ..Default::default() };
    config.buffers.fetch_width = 1;
    config.buffers.commit_width = 1;
    config.units.fx_units.truncate(1);
    let json = config.to_json();
    let imported = ArchitectureConfig::from_json(&json).unwrap();
    assert_eq!(imported, config);

    let mut narrow = Simulator::from_assembly(PROGRAM, &imported).unwrap();
    narrow.run(1_000_000).unwrap();
    let mut wide = Simulator::from_assembly(PROGRAM, &ArchitectureConfig::wide()).unwrap();
    wide.run(1_000_000).unwrap();
    assert_eq!(narrow.int_register(10), 210);
    assert_eq!(wide.int_register(10), 210);
    assert!(
        narrow.statistics().cycles > wide.statistics().cycles,
        "single-issue config must be slower than the 4-wide config"
    );
}

#[test]
fn snapshot_json_is_stable_and_complete() {
    let mut sim = Simulator::from_assembly(PROGRAM, &ArchitectureConfig::default()).unwrap();
    for _ in 0..12 {
        sim.step();
    }
    let snapshot = ProcessorSnapshot::capture(&sim);
    let json = snapshot.to_json();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value["cycle"], 12);
    assert!(value["int_registers"].as_array().unwrap().len() == 32);
    assert!(value["headline"]["ipc"].as_f64().is_some());
    // Capturing twice without stepping gives the identical snapshot.
    let again = ProcessorSnapshot::capture(&sim);
    assert_eq!(again, snapshot);
}

#[test]
fn backward_stepping_matches_forward_replay_at_every_depth() {
    let config = ArchitectureConfig::default();
    let mut reference = Simulator::from_assembly(PROGRAM, &config).unwrap();
    // Record committed-instruction counts for the first 40 cycles.
    let mut committed_by_cycle = Vec::new();
    for _ in 0..40 {
        reference.step();
        committed_by_cycle.push(reference.statistics().committed);
    }
    // Now step a second simulator forward 40 cycles and walk it back one cycle
    // at a time; at every depth the statistics must match the recording.
    let mut sim = Simulator::from_assembly(PROGRAM, &config).unwrap();
    for _ in 0..40 {
        sim.step();
    }
    for depth in (1..40).rev() {
        sim.step_back();
        assert_eq!(sim.cycle(), depth as u64);
        assert_eq!(
            sim.statistics().committed,
            committed_by_cycle[depth - 1],
            "state mismatch after stepping back to cycle {depth}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator is an interpreter of straight-line arithmetic: its
    /// results must match a host-side oracle for arbitrary operand values,
    /// regardless of the architecture it runs on.
    #[test]
    fn prop_arithmetic_matches_host_oracle(a in -10_000i32..10_000, b in -10_000i32..10_000, c in 1i32..1_000) {
        let asm = format!(
            "main:\n    li t0, {a}\n    li t1, {b}\n    li t2, {c}\n    add t3, t0, t1\n    mul t4, t3, t2\n    sub t5, t4, t0\n    div t6, t5, t2\n    rem a1, t5, t2\n    mv a0, t6\n    ret\n"
        );
        let expected_div = (a.wrapping_add(b).wrapping_mul(c).wrapping_sub(a)) / c;
        let expected_rem = (a.wrapping_add(b).wrapping_mul(c).wrapping_sub(a)) % c;
        for config in [ArchitectureConfig::scalar(), ArchitectureConfig::wide()] {
            let mut sim = Simulator::from_assembly(&asm, &config).unwrap();
            sim.run(100_000).unwrap();
            prop_assert_eq!(sim.int_register(10), expected_div as i64);
            prop_assert_eq!(sim.int_register(11), expected_rem as i64);
        }
    }

    /// Memory round-trips: storing arbitrary words and reading them back must
    /// reproduce the values in order, whatever the cache geometry.
    #[test]
    fn prop_memory_round_trip(values in proptest::collection::vec(any::<i32>(), 1..16), assoc in 1usize..4) {
        let n = values.len();
        let mut asm = String::from("buf:\n    .zero 64\nmain:\n    la t0, buf\n");
        for (i, v) in values.iter().enumerate() {
            asm.push_str(&format!("    li t1, {v}\n    sw t1, {}(t0)\n", i * 4));
        }
        asm.push_str("    li a0, 0\n");
        for i in 0..n {
            asm.push_str(&format!("    lw t2, {}(t0)\n    add a0, a0, t2\n", i * 4));
        }
        asm.push_str("    ret\n");
        let mut config = ArchitectureConfig::default();
        config.cache.associativity = assoc;
        config.cache.line_count = assoc * 4;
        let mut sim = Simulator::from_assembly(&asm, &config).unwrap();
        sim.run(200_000).unwrap();
        let expected: i64 = values.iter().fold(0i32, |acc, v| acc.wrapping_add(*v)) as i64;
        prop_assert_eq!(sim.int_register(10), expected);
    }

    /// Determinism: running the same program twice gives byte-identical
    /// statistics (the property backward simulation depends on).
    #[test]
    fn prop_replay_is_deterministic(seed in 0u32..1000) {
        let iterations = 5 + seed % 20;
        let asm = format!(
            "main:\n    li t0, {iterations}\n    li a0, 0\nloop:\n    addi a0, a0, 3\n    addi t0, t0, -1\n    bnez t0, loop\n    ret\n"
        );
        let config = ArchitectureConfig::default();
        let mut first = Simulator::from_assembly(&asm, &config).unwrap();
        let r1 = first.run(100_000).unwrap();
        let mut second = Simulator::from_assembly(&asm, &config).unwrap();
        let r2 = second.run(100_000).unwrap();
        prop_assert_eq!(r1.cycles, r2.cycles);
        prop_assert_eq!(r1.statistics, r2.statistics);
        prop_assert_eq!(first.int_register(10), (iterations * 3) as i64);
    }
}
