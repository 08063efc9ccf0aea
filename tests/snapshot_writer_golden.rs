//! Golden equivalence of the direct snapshot writer: for every processor
//! preset and across a program's whole lifetime (fresh, mid-run, halted),
//! the hand-rolled JSON renderer must produce byte-for-byte the output of
//! `serde_json::to_vec(&ProcessorSnapshot::capture(sim))` — and every
//! `state` payload the server sends (`GetState`, and the full-snapshot
//! fallback of `GetStateDelta`) must match, on the wire, a reference built
//! independently here from a simulator stepped in lockstep.

use riscv_superscalar_sim::core::SnapshotBuffer;
use riscv_superscalar_sim::prelude::*;

const PROGRAM: &str = "
data:
    .word 7, 3, 9, 1
main:
    la   t0, data
    li   t1, 4
    li   a0, 0
    fmv.w.x fa0, x0
loop:
    lw   t2, 0(t0)
    mul  t3, t2, t1
    add  a0, a0, t3
    fcvt.s.w ft0, t2
    fadd.s fa0, fa0, ft0
    sw   a0, 16(t0)
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, loop
    ret
";

fn presets() -> Vec<ArchitectureConfig> {
    vec![ArchitectureConfig::scalar(), ArchitectureConfig::default(), ArchitectureConfig::wide()]
}

#[test]
fn writer_matches_serde_for_every_preset_and_lifecycle_state() {
    for config in presets() {
        let mut sim = Simulator::from_assembly(PROGRAM, &config).unwrap();
        let mut buffer = SnapshotBuffer::new();
        let mut cycles = 0u64;
        loop {
            let expected = serde_json::to_vec(&ProcessorSnapshot::capture(&sim)).unwrap();
            let rendered = buffer.render(&sim);
            assert_eq!(
                rendered,
                expected.as_slice(),
                "[{}] direct render differs at cycle {} (halted: {})",
                config.name,
                sim.cycle(),
                sim.is_halted()
            );
            if sim.is_halted() {
                break;
            }
            sim.step();
            cycles += 1;
            assert!(cycles < 100_000, "[{}] program did not halt", config.name);
        }
    }
}

/// Send `request` down the server's one request path.
fn raw(server: &SimulationServer, request: &Request) -> Vec<u8> {
    server.handle_raw(&serde_json::to_vec(request).unwrap()).to_vec()
}

/// The `state` payload for `sim`, built without the server: serde of a
/// structured capture, then (when compressing) the one-shot compressor.
fn reference_state(sim: &Simulator, compress: bool) -> Vec<u8> {
    let response = Response::State(Box::new(ProcessorSnapshot::capture(sim)));
    let json = serde_json::to_vec(&response).unwrap();
    match compress {
        true => [&[1u8][..], &riscv_superscalar_sim::compress::compress(&json)].concat(),
        false => [&[0u8][..], &json].concat(),
    }
}

/// For every preset and both compression modes, step a server session and
/// a local simulator in lockstep and compare the payload `fetch` returns at
/// each point with the independent reference.
fn assert_state_payloads_match(fetch: impl Fn(&SimulationServer, u64) -> Vec<u8>) {
    for config in presets() {
        for compress in [false, true] {
            let server = SimulationServer::new(DeploymentConfig {
                mode: DeploymentMode::Direct,
                compress_responses: compress,
                idle_session_ttl_seconds: None,
            });
            let created = raw(
                &server,
                &Request::CreateSession {
                    program: PROGRAM.into(),
                    architecture: Some(config.clone()),
                    entry: None,
                    session: None,
                },
            );
            let id = match decode_response(&created) {
                Ok(Response::SessionCreated { session }) => session,
                other => panic!("unexpected {other:?}"),
            };
            let mut sim = Simulator::from_assembly(PROGRAM, &config).unwrap();
            for _ in 0..6 {
                raw(&server, &Request::Step { session: id, cycles: 3 });
                for _ in 0..3 {
                    sim.step();
                }
                assert_eq!(
                    fetch(&server, id),
                    reference_state(&sim, compress),
                    "[{} compress={compress}] wire payloads differ at cycle {}",
                    config.name,
                    sim.cycle()
                );
            }
        }
    }
}

#[test]
fn raw_state_payload_matches_generic_encode_for_every_preset() {
    assert_state_payloads_match(|server, session| raw(server, &Request::GetState { session }));
}

#[test]
fn delta_fallback_state_payload_matches_generic_encode_for_every_preset() {
    // No delta base can sit at `u64::MAX`, so every answer is the full
    // snapshot fallback, rendered fresh at each new cycle.
    assert_state_payloads_match(|server, session| {
        raw(server, &Request::GetStateDelta { session, since_cycle: u64::MAX })
    });
}
