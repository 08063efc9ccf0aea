//! # rvsim-net — the HTTP/1.1 network front end
//!
//! The paper deploys the simulator behind an Undertow HTTP server and
//! reports the *request path* — not the simulation — as the scaling
//! bottleneck (§IV-A).  `rvsim-net` is the reproduction's transport for
//! `rvsim-server`, hand-rolled over [`std::net::TcpListener`] (the build
//! environment is offline, so no external HTTP stack):
//!
//! * [`http`] — incremental HTTP/1.1 request framing that tolerates
//!   arbitrary partial reads, with pipelining, keep-alive and bounded-size
//!   rejection (400/413/431/501/505);
//! * [`NetServer`] — a nonblocking readiness event loop (epoll through the
//!   vendored `polling` wrapper): per-connection state machines with
//!   buffered partial writes and slow-client deadlines, a dispatch worker
//!   pool executing `POST /api` payloads in
//!   [`rvsim_server::SimulationServer::handle_raw`], graceful shutdown, a
//!   periodic housekeeping tick (idle-session eviction) and a
//!   `GET /metrics` stats endpoint;
//! * [`TcpApiClient`] — the matching blocking keep-alive client used by
//!   the router, session set-up and tests; `rvsim-loadgen` frames its
//!   responses with the same [`parse_response_head`].
//!
//! The response body of the protocol endpoint is the server's shared
//! [`bytes::Bytes`] payload handle: a cached `GetState` flows from the
//! per-session serve cache to the socket with zero payload copies.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod http;
pub mod router;
pub mod server;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats};
pub use client::{http_get, http_post, http_request, TcpApiClient};
pub use http::{
    find_head_end, parse_response_head, HttpError, HttpRequest, RequestParser, ResponseFrame,
    Version, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
pub use router::{DrainReport, FailoverReport, RecoveredSession, Router, ROUTER_SESSION_BASE};
pub use server::{ApiHandler, ControlResponse, NetConfig, NetServer, NetStats};
