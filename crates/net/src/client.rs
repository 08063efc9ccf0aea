//! Minimal blocking HTTP/1.1 client for the `/api` endpoint.
//!
//! One [`TcpApiClient`] owns one keep-alive connection (opened lazily,
//! re-opened once per call if the server closed it) and speaks exactly the
//! framing the front end produces: a status line, headers with
//! `content-length`, and a sized body.  This is what `rvsim-loadgen` and
//! the benchmark harness drive.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rvsim_server::{decode_response, Request, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Total attempts `call_raw` makes on retryable (provably-unprocessed)
/// failures: the original send plus two backed-off reconnects.
const RETRY_ATTEMPTS: u32 = 3;

/// Base delay of the jittered exponential backoff between retries.
const RETRY_BASE_DELAY: Duration = Duration::from_millis(5);

/// Cap on any single backoff sleep.
const RETRY_MAX_DELAY: Duration = Duration::from_millis(40);

/// Blocking protocol client over a keep-alive TCP connection.
#[derive(Debug)]
pub struct TcpApiClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Unparsed bytes read past the previous response (pipelining slack).
    residue: Vec<u8>,
    /// Jitter source for the retry backoff, seeded per client so a fleet of
    /// clients hitting the same restarted server never retries in lockstep.
    jitter: StdRng,
}

impl TcpApiClient {
    /// Client for the front end at `addr`.  No connection is opened until
    /// the first call.
    pub fn new(addr: SocketAddr) -> Self {
        static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);
        let seed = 0x5eed_c11e_u64
            ^ (u64::from(addr.port()) << 32)
            ^ CLIENT_SEQ.fetch_add(1, Ordering::Relaxed);
        TcpApiClient {
            addr,
            stream: None,
            residue: Vec::new(),
            jitter: StdRng::seed_from_u64(seed),
        }
    }

    /// POST a raw protocol payload to `/api` and return the encoded
    /// response payload.  Reconnects and retries (with a small jittered
    /// exponential backoff, capped) — but only on failures that prove the
    /// server never read the request (stale keep-alive close, reset or
    /// broken pipe before any response byte), so a request the server may
    /// already have processed is never resent: most protocol requests
    /// (`Step`, `CreateSession`) are not idempotent.  A refused connection
    /// is *not* retried — a dead backend must fail fast so the caller's
    /// circuit breaker sees it.
    pub fn call_raw(&mut self, body: &[u8]) -> Result<Vec<u8>, String> {
        self.call_raw_traced(body, 0)
    }

    /// [`call_raw`](Self::call_raw) carrying a request id on the wire
    /// (`x-rvsim-request-id` header) so the hop can be followed across
    /// tiers.  `request_id == 0` sends no header.
    pub fn call_raw_traced(&mut self, body: &[u8], request_id: u64) -> Result<Vec<u8>, String> {
        let mut delay = RETRY_BASE_DELAY;
        for attempt in 1..=RETRY_ATTEMPTS {
            match self.try_call(body, request_id) {
                Ok(payload) => return Ok(payload),
                Err(e) => {
                    let unprocessed = matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::NotConnected
                            | std::io::ErrorKind::WriteZero
                    );
                    self.stream = None;
                    self.residue.clear();
                    if !unprocessed || attempt == RETRY_ATTEMPTS {
                        return Err(format!("tcp call failed: {e}"));
                    }
                    // Full jitter: sleep a uniform fraction of the doubling
                    // window so concurrent retriers spread out.
                    let ceiling = delay.min(RETRY_MAX_DELAY).as_micros() as u64;
                    let sleep_us = self.jitter.random_range(0..ceiling.max(1));
                    std::thread::sleep(Duration::from_micros(sleep_us));
                    delay = delay.saturating_mul(2);
                }
            }
        }
        unreachable!("the attempt loop always returns")
    }

    /// Send a typed request and decode the typed response.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let json = serde_json::to_vec(request).map_err(|e| e.to_string())?;
        let payload = self.call_raw(&json)?;
        decode_response(&payload)
    }

    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            // Generous timeout: a stuck server fails the call instead of
            // hanging the load-generator thread forever.
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    fn try_call(&mut self, body: &[u8], request_id: u64) -> std::io::Result<Vec<u8>> {
        let mut head = Vec::with_capacity(128);
        head.extend_from_slice(b"POST /api HTTP/1.1\r\ncontent-length: ");
        head.extend_from_slice(body.len().to_string().as_bytes());
        if request_id != 0 {
            head.extend_from_slice(b"\r\nx-rvsim-request-id: ");
            head.extend_from_slice(rvsim_obs::format_request_id(request_id).as_bytes());
        }
        head.extend_from_slice(b"\r\n\r\n");
        let residue = std::mem::take(&mut self.residue);
        let stream = self.connect()?;
        stream.write_all(&head)?;
        stream.write_all(body)?;

        let (status, payload, residue) = read_response(stream, residue)?;
        self.residue = residue;
        if status != 200 {
            return Err(bad_response(format!(
                "server answered {status}: {}",
                String::from_utf8_lossy(&payload).trim()
            )));
        }
        Ok(payload)
    }
}

/// One-shot HTTP exchange on a fresh connection: send `method target` with
/// `body` and return the status code and response body.  This is the
/// transport for the out-of-band endpoints (`/healthz`, `/metrics`,
/// `/admin/...`) where keep-alive pooling is not worth carrying state for.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let head = format!(
        "{method} {target} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| format!("send {addr}{target}: {e}"))?;
    stream.write_all(body).map_err(|e| format!("send {addr}{target}: {e}"))?;
    let (status, payload, _residue) =
        read_response(&mut stream, Vec::new()).map_err(|e| format!("read {addr}{target}: {e}"))?;
    Ok((status, payload))
}

/// [`http_request`] with method `GET` and an empty body.
pub fn http_get(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    http_request(addr, "GET", target, b"", timeout)
}

/// [`http_request`] with method `POST`.
pub fn http_post(
    addr: SocketAddr,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    http_request(addr, "POST", target, body, timeout)
}

/// Read one HTTP response (status + headers + sized body) from `stream`,
/// starting from `buffered` leftover bytes.  Returns the status code, the
/// body and any bytes read past it.
fn read_response(
    stream: &mut TcpStream,
    mut buffered: Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>, Vec<u8>)> {
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(end) = crate::http::find_head_end(&buffered) {
            break end;
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            // A reset before any response byte means the server closed the
            // idle keep-alive connection without seeing the request; map it
            // to the same retryable kind as a clean pre-response close.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset && buffered.is_empty() => {
                return Err(stale_connection())
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            if buffered.is_empty() {
                // Clean close with zero response bytes: the request was
                // never processed (stale keep-alive) — safe to retry.
                return Err(stale_connection());
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buffered.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buffered[..head_end]).into_owned();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad_response(format!("malformed status line in {head:?}")))?;
    let content_length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse::<usize>())
        })
        .transpose()
        .map_err(|_| bad_response("bad content-length".into()))?
        .unwrap_or(0);

    let mut rest = buffered.split_off(head_end);
    while rest.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        rest.extend_from_slice(&chunk[..n]);
    }
    let residue = rest.split_off(content_length);
    Ok((status, rest, residue))
}

fn bad_response(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

fn stale_connection() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::ConnectionAborted,
        "keep-alive connection closed before the request was read",
    )
}
