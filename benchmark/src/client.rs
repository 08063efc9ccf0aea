//! The program under test as the benchmark sees it: a spawned
//! `rvsim-cli serve` process and clients that speak HTTP + JSON to it.

use crate::http::{decode_payload, Conn};
use crate::trace::Recorder;
use serde_json::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A `rvsim-cli serve` child process, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start the server on an ephemeral loopback port and read the bound
    /// address from its startup banner.  With `tracing`, every request is
    /// journaled, so `/admin/trace` can be joined onto the client's spans.
    pub fn spawn(exe: &Path, tracing: bool) -> Result<Server, String> {
        let mut command = Command::new(exe);
        command.args(["serve", "--tcp", "--addr", "127.0.0.1:0"]);
        if tracing {
            command.args(["--slow-request-us", "0"]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let addr = match stdout.read_line(&mut banner) {
            Ok(_) => banner
                .split("http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|addr| addr.parse().ok()),
            Err(_) => None,
        };
        match addr {
            Some(addr) => Ok(Server { child, addr, _stdout: stdout }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("unexpected serve banner `{}`", banner.trim()))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One connection plus its request-id mint and spans.  After a transport
/// error the connection is dropped and the next call opens a fresh one; the
/// failed call itself is never retried.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    pub rec: Recorder,
}

impl Client {
    pub fn new(addr: SocketAddr, rec: Recorder) -> Client {
        Client { addr, conn: None, rec }
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        id: u64,
    ) -> Result<Vec<u8>, String> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let response = conn.send(method, path, body, id).inspect_err(|_| self.conn = None)?;
        if response.status != 200 {
            return Err(format!("{method} {path}: HTTP {}", response.status));
        }
        Ok(response.body)
    }

    /// `POST /api` with a JSON request; returns the raw (encoded) payload.
    /// `span` names the HTTP span recorded when tracing.
    pub fn api(&mut self, span: &'static str, request: &str) -> Result<Vec<u8>, String> {
        let id = self.rec.next_id();
        let start = Instant::now();
        let body = self.exchange("POST", "/api", request.as_bytes(), id)?;
        self.rec.http(span, id, start, Instant::now());
        Ok(body)
    }

    /// `POST /api` and decode the payload into a JSON value of type `kind`.
    pub fn call(&mut self, span: &'static str, request: &str, kind: &str) -> Result<Value, String> {
        let value = json(&self.api(span, request)?)?;
        expect_type(&value, kind)?;
        Ok(value)
    }

    /// `GET` a control endpoint (`/metrics`, `/admin/trace`).
    pub fn get(&mut self, path: &str) -> Result<String, String> {
        let body = self.exchange("GET", path, b"", 0)?;
        String::from_utf8(body).map_err(|_| format!("GET {path}: non-UTF-8 body"))
    }

    pub fn compile(&mut self, source: &str) -> Result<String, String> {
        let request =
            format!(r#"{{"type":"compile","source":{},"optimization":2}}"#, quote(source));
        let value = self.call("http.compile", &request, "compiled")?;
        value["assembly"].as_str().map(str::to_string).ok_or_else(|| "compile: no assembly".into())
    }

    /// Create a session; `architecture` is a preset's JSON (default 2-wide when `None`).
    pub fn create(&mut self, assembly: &str, architecture: Option<&str>) -> Result<u64, String> {
        let request = create_request(assembly, architecture);
        let value = self.call("http.create_session", &request, "session_created")?;
        value["session"].as_u64().ok_or_else(|| "create: no session id".into())
    }

    /// `Step` and return the cycle the session reached.
    pub fn step(&mut self, session: u64, cycles: u64) -> Result<u64, String> {
        stepped(&self.api("http.step", &step_request(session, cycles))?, false)
    }

    /// `GetStats`: the session's runtime statistics.
    pub fn stats(&mut self, session: u64) -> Result<Value, String> {
        let request = format!(r#"{{"type":"get_stats","session":{session}}}"#);
        self.call("http.get_stats", &request, "stats")
    }

    pub fn destroy(&mut self, session: u64) -> Result<(), String> {
        let request = format!(r#"{{"type":"destroy_session","session":{session}}}"#);
        self.call("http.destroy_session", &request, "destroyed").map(drop)
    }
}

pub fn create_request(assembly: &str, architecture: Option<&str>) -> String {
    let arch = architecture.map(|a| format!(r#","architecture":{a}"#)).unwrap_or_default();
    format!(r#"{{"type":"create_session","program":{}{arch}}}"#, quote(assembly))
}

pub fn step_request(session: u64, cycles: u64) -> String {
    format!(r#"{{"type":"step","session":{session},"cycles":{cycles}}}"#)
}

pub fn step_back_request(session: u64, cycles: u64) -> String {
    format!(r#"{{"type":"step_back","session":{session},"cycles":{cycles}}}"#)
}

pub fn get_state_request(session: u64) -> String {
    format!(r#"{{"type":"get_state","session":{session}}}"#)
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    serde_json::to_string(text).expect("strings serialize")
}

/// Decode an `/api` payload into a JSON value.
pub fn json(payload: &[u8]) -> Result<Value, String> {
    serde_json::from_slice(&decode_payload(payload)?).map_err(|e| format!("bad JSON payload: {e}"))
}

pub fn expect_type(value: &Value, kind: &str) -> Result<(), String> {
    match value["type"].as_str() {
        Some(t) if t == kind => Ok(()),
        Some("error") => Err(format!("server error: {}", value["message"].as_str().unwrap_or("?"))),
        other => Err(format!("expected a `{kind}` response, got {other:?}")),
    }
}

/// Cycle of a `Stepped` payload, which must report `halted` as given.
pub fn stepped(payload: &[u8], halted: bool) -> Result<u64, String> {
    let value = json(payload)?;
    expect_type(&value, "stepped")?;
    if value["halted"].as_bool() != Some(halted) {
        return Err(format!("expected halted = {halted}, got {:?}", value["halted"].as_bool()));
    }
    value["cycle"].as_u64().ok_or_else(|| "stepped: no cycle".into())
}

/// Cycle of a decoded `GetState` payload.  The state renderer writes the
/// type tag and then the cycle first, so the snapshot needs no full parse.
pub fn state_cycle(json: &[u8]) -> Result<u64, String> {
    let rest = json.strip_prefix(br#"{"type":"state","cycle":"#).ok_or("not a state payload")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits])
        .ok()
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| "state payload without a cycle".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_helpers() {
        let plain = |json: &str| [&[0u8][..], json.as_bytes()].concat();
        assert_eq!(stepped(&plain(r#"{"type":"stepped","cycle":9,"halted":false}"#), false), Ok(9));
        assert!(stepped(&plain(r#"{"type":"stepped","cycle":9,"halted":true}"#), false).is_err());
        let error = stepped(&plain(r#"{"type":"error","message":"unknown session 4"}"#), false);
        assert!(error.unwrap_err().contains("unknown session 4"));
        assert_eq!(state_cycle(br#"{"type":"state","cycle":1234,"pc":8}"#), Ok(1234));
        assert!(state_cycle(br#"{"type":"stats","cycle":1}"#).is_err());
        assert_eq!(quote("a\"b\n"), r#""a\"b\n""#);
    }
}
