//! JSON request/response protocol between clients (web GUI, CLI, load
//! generator) and the simulation server, and its wire encoding: one flag
//! byte (`0` plain, `1` LZSS) followed by the response JSON.

use crate::envelope::SessionEnvelope;
use bytes::Bytes;
use rvsim_compress::Compressor;
use rvsim_core::{ArchitectureConfig, ProcessorSnapshot, SimulationStatistics, SnapshotDelta};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// A client request.
///
/// `CreateSession` carries an inline `ArchitectureConfig`; requests are
/// short-lived and never stored in bulk, so the size skew is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Request {
    /// Create a simulation session from assembly source and an architecture.
    CreateSession {
        /// RISC-V assembly program.
        program: String,
        /// Architecture configuration (defaults when omitted).
        #[serde(default)]
        architecture: Option<ArchitectureConfig>,
        /// Optional entry label.
        #[serde(default)]
        entry: Option<String>,
        /// Explicit session id to install the session under (router
        /// placement and restore flows).  Errors if the id is taken; the
        /// server assigns one when omitted.
        #[serde(default)]
        session: Option<u64>,
    },
    /// Compile C source to assembly.
    Compile {
        /// C source code.
        source: String,
        /// Optimization level 0–3.
        #[serde(default)]
        optimization: u8,
    },
    /// Advance a session by `cycles` clock cycles.
    Step {
        /// Session id.
        session: u64,
        /// Number of cycles (default 1).
        #[serde(default = "default_one")]
        cycles: u64,
    },
    /// Step a session backwards by `cycles` clock cycles.
    StepBack {
        /// Session id.
        session: u64,
        /// Number of cycles (default 1).
        #[serde(default = "default_one")]
        cycles: u64,
    },
    /// Run a session until it halts or `max_cycles` elapse.
    Run {
        /// Session id.
        session: u64,
        /// Cycle budget.
        #[serde(default = "default_budget")]
        max_cycles: u64,
    },
    /// Fetch the full processor-state snapshot (the GUI view).
    GetState {
        /// Session id.
        session: u64,
    },
    /// Fetch the state as a delta against the snapshot the client already
    /// holds.  Answered with [`Response::StateDelta`] when the server still
    /// has the matching base (the state a previous `GetStateDelta` served
    /// for this session at `since_cycle`), and with a full
    /// [`Response::State`] otherwise — so the first delta request of a
    /// session always receives the full snapshot that seeds the base.
    GetStateDelta {
        /// Session id.
        session: u64,
        /// Cycle of the snapshot the client holds.
        since_cycle: u64,
    },
    /// Fetch the runtime statistics.
    GetStats {
        /// Session id.
        session: u64,
    },
    /// Destroy a session.
    DestroySession {
        /// Session id.
        session: u64,
    },
    /// Capture a session as a portable [`SessionEnvelope`] (config +
    /// program + architectural state), optionally destroying it in the same
    /// critical section — the atomic "serialize and vacate" a live
    /// migration needs.
    SerializeSession {
        /// Session id.
        session: u64,
        /// Remove the session while still holding its lock, so no request
        /// can slip in between the capture and the removal.
        #[serde(default)]
        destroy: bool,
    },
    /// Install a session from a [`SessionEnvelope`] under the envelope's
    /// original id.  The restore replays the program to the captured cycle
    /// and verifies the rebuilt state matches the envelope byte-for-byte.
    RestoreSession {
        /// The serialized session.
        envelope: Box<SessionEnvelope>,
        /// Replace an existing session under the same id (bumps its serve
        /// epoch) instead of failing.
        #[serde(default)]
        replace: bool,
    },
    /// List the ids of all live sessions (drain enumeration).
    ListSessions,
}

fn default_one() -> u64 {
    1
}

fn default_budget() -> u64 {
    1_000_000
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Response {
    /// Session created.
    SessionCreated {
        /// New session id.
        session: u64,
    },
    /// Compilation result.
    Compiled {
        /// Generated (filtered) assembly.
        assembly: String,
        /// C line → assembly line links.
        line_map: Vec<(usize, usize)>,
    },
    /// A step / step-back / run finished.
    Stepped {
        /// Current cycle after the operation.
        cycle: u64,
        /// Whether the simulation has halted.
        halted: bool,
    },
    /// Processor snapshot.
    State(Box<ProcessorSnapshot>),
    /// Incremental snapshot: only what changed since the client's base cycle.
    StateDelta(Box<SnapshotDelta>),
    /// Runtime statistics.
    Stats(Box<SimulationStatistics>),
    /// Session destroyed.
    Destroyed,
    /// A serialized session ([`Request::SerializeSession`]).
    Serialized(Box<SessionEnvelope>),
    /// Live session ids ([`Request::ListSessions`]).
    SessionList {
        /// Session ids, ascending.
        sessions: Vec<u64>,
    },
    /// The request failed.
    Error {
        /// Human-readable error message.
        message: String,
    },
}

impl Response {
    /// Build an error response.
    pub fn error(message: impl Into<String>) -> Self {
        Response::Error { message: message.into() }
    }

    /// True for error responses.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

/// Flag byte of a plain-JSON payload.
const PLAIN: u8 = 0;
/// Flag byte of an LZSS-compressed payload.
const LZSS: u8 = 1;
/// How the JSON of every [`Response::Error`] begins (the tag comes first).
const ERROR_JSON: &[u8] = br#"{"type":"error","#;

thread_local! {
    /// The encoding thread's LZSS compressor.  Its hash chains (~544 KiB)
    /// are reused by every payload the thread compresses, so a dispatch
    /// worker owns one no matter how many sessions it serves.
    static COMPRESSOR: RefCell<Compressor> = RefCell::new(Compressor::new());
}

/// Append one response payload to `out`: the flag byte, then `json`.  The
/// JSON is LZSS-compressed when `compress` is set and it is not an error;
/// errors always travel plain, so [`is_error_payload`] can spot them
/// without decompressing.  Every payload the server or the router sends is
/// written here.
pub(crate) fn encode_payload(json: &[u8], compress: bool, out: &mut Vec<u8>) {
    if compress && !json.starts_with(ERROR_JSON) {
        out.push(LZSS);
        COMPRESSOR.with(|compressor| compressor.borrow_mut().compress_into(json, out));
    } else {
        out.push(PLAIN);
        out.extend_from_slice(json);
    }
}

/// Encode `response` as a wire payload: the flag byte, then its JSON,
/// LZSS-compressed when `compress` is set and the response is not an error
/// (errors always travel plain, so [`is_error_payload`] can spot them
/// without decompressing).
pub fn encode_response(response: &Response, compress: bool) -> Bytes {
    let json = serde_json::to_vec(response).expect("responses serialize");
    let mut out = Vec::with_capacity(json.len() + 1);
    encode_payload(&json, compress, &mut out);
    Bytes::from(out)
}

/// Decode a payload written by [`encode_response`] or the server.
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    match payload.split_first() {
        None => Err("empty response payload".to_string()),
        // Plain JSON deserializes straight from the borrowed slice.
        Some((&PLAIN, json)) => serde_json::from_slice(json).map_err(|e| e.to_string()),
        Some((&LZSS, packed)) => {
            let json = rvsim_compress::decompress(packed).map_err(|e| e.to_string())?;
            serde_json::from_slice(&json).map_err(|e| e.to_string())
        }
        Some((other, _)) => Err(format!("unknown payload flag {other}")),
    }
}

/// Whether `payload` is an error response, read off the wire without
/// decoding it.
pub fn is_error_payload(payload: &[u8]) -> bool {
    payload.split_first().is_some_and(|(&flag, json)| flag == PLAIN && json.starts_with(ERROR_JSON))
}

/// Whether `payload` is the `unknown session` error: the signal that a
/// session moved out from under an in-flight request.
pub fn is_unknown_session_payload(payload: &[u8]) -> bool {
    is_error_payload(payload)
        && payload[1 + ERROR_JSON.len()..].starts_with(br#""message":"unknown session"#)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_json_round_trip() {
        let requests = vec![
            Request::CreateSession {
                program: "main: ret".into(),
                architecture: None,
                entry: None,
                session: None,
            },
            Request::CreateSession {
                program: "main: ret".into(),
                architecture: None,
                entry: None,
                session: Some(42),
            },
            Request::Compile { source: "int main(void){return 0;}".into(), optimization: 2 },
            Request::Step { session: 3, cycles: 10 },
            Request::StepBack { session: 3, cycles: 1 },
            Request::Run { session: 3, max_cycles: 500 },
            Request::GetState { session: 3 },
            Request::GetStateDelta { session: 3, since_cycle: 17 },
            Request::GetStats { session: 3 },
            Request::DestroySession { session: 3 },
            Request::SerializeSession { session: 3, destroy: true },
            Request::ListSessions,
        ];
        for r in requests {
            let json = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn request_json_uses_type_tags_and_defaults() {
        let r: Request = serde_json::from_str(r#"{"type":"step","session":1}"#).unwrap();
        assert_eq!(r, Request::Step { session: 1, cycles: 1 });
        let r: Request =
            serde_json::from_str(r#"{"type":"create_session","program":"main: ret"}"#).unwrap();
        assert!(matches!(r, Request::CreateSession { .. }));
        let r: Request = serde_json::from_str(r#"{"type":"run","session":2}"#).unwrap();
        assert_eq!(r, Request::Run { session: 2, max_cycles: 1_000_000 });
        // Pre-scale-out clients omit the new optional fields.
        let r: Request =
            serde_json::from_str(r#"{"type":"serialize_session","session":7}"#).unwrap();
        assert_eq!(r, Request::SerializeSession { session: 7, destroy: false });
    }

    #[test]
    fn response_helpers() {
        let e = Response::error("boom");
        assert!(e.is_error());
        let ok = Response::Destroyed;
        assert!(!ok.is_error());
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"error\""));
    }

    /// One response of every variant, from a simulator that has run a few
    /// cycles so the state-bearing variants carry real content.
    fn every_response() -> Vec<Response> {
        let program = "main:\n  li t0, 3\nloop:\n  addi t0, t0, -1\n  bnez t0, loop\n  ret\n";
        let mut sim = rvsim_core::Simulator::from_assembly(program, &Default::default()).unwrap();
        let base = ProcessorSnapshot::capture(&sim);
        for _ in 0..4 {
            sim.step();
        }
        let current = ProcessorSnapshot::capture(&sim);
        vec![
            Response::SessionCreated { session: 7 },
            Response::Compiled { assembly: "main:\n  ret\n".into(), line_map: vec![(1, 2)] },
            Response::Stepped { cycle: 4, halted: false },
            Response::StateDelta(Box::new(SnapshotDelta::between(&base, &current))),
            Response::State(Box::new(current)),
            Response::Stats(Box::new(sim.statistics())),
            Response::Destroyed,
            Response::Serialized(Box::new(SessionEnvelope::capture(7, &sim, program))),
            Response::SessionList { sessions: vec![1, 7] },
            Response::error("unknown session 7"),
        ]
    }

    #[test]
    fn every_response_round_trips_through_the_one_encoder() {
        for compress in [false, true] {
            for response in every_response() {
                let payload = encode_response(&response, compress);
                // Errors stay plain whatever the setting; the rest follow it.
                let compressed = compress && !response.is_error();
                assert_eq!(payload[0], compressed as u8, "{response:?} (compress={compress})");
                assert_eq!(is_error_payload(&payload), response.is_error());
                assert_eq!(decode_response(&payload).unwrap(), response, "compress={compress}");
            }
        }
    }

    #[test]
    fn wire_probes_match_only_the_errors_they_name() {
        for compress in [false, true] {
            let unknown = encode_response(&Response::error("unknown session 41"), compress);
            assert!(is_unknown_session_payload(&unknown), "compress={compress}");
            let other = encode_response(&Response::error("session 41 already exists"), compress);
            assert!(is_error_payload(&other));
            assert!(!is_unknown_session_payload(&other));
            let ok = encode_response(&Response::SessionList { sessions: vec![41] }, compress);
            assert!(!is_error_payload(&ok));
            assert!(!is_unknown_session_payload(&ok));
        }
        for junk in [&[][..], &[1, 2, 3], &[0], &[9, b'{']] {
            assert!(!is_error_payload(junk));
            assert!(!is_unknown_session_payload(junk));
        }
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[9, 1, 2]).is_err());
    }
}
