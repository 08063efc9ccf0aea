//! # rvsim-server — the simulation server
//!
//! The paper's deployment is a client/server application: all simulation
//! logic runs server-side, and both the web GUI and the CLI talk to it
//! through a JSON API (§III).  This crate is that server, independent of
//! any transport:
//!
//! * [`protocol`] — the JSON request/response protocol (create session, step,
//!   step back, run, fetch the processor snapshot, fetch statistics, compile
//!   C code, destroy session) and its wire encoding: one flag byte, then the
//!   JSON, LZSS-compressed (the gzip substitute) when enabled.
//! * [`SimulationServer`] — session management and request dispatch; every
//!   session owns a [`rvsim_core::Simulator`].  Its one request path is
//!   [`SimulationServer::handle_raw`]: request bytes in, encoded response
//!   bytes out, optionally behind the containerized deployment overhead
//!   measured in Table I.
//!
//! The HTTP front end that serves it over TCP is `rvsim-net`; tests and
//! benchmarks that need no socket call `handle_raw` directly.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod envelope;
pub mod protocol;
pub mod server;

pub use checkpoint::{
    CheckpointConfig, CheckpointEntry, CheckpointFault, CheckpointStore, RecoverOutcome,
};
pub use envelope::{SessionEnvelope, ENVELOPE_VERSION};
pub use protocol::{
    decode_response, encode_response, is_error_payload, is_unknown_session_payload, Request,
    Response,
};
pub use server::{DeploymentConfig, DeploymentMode, SimulationServer};
