//! The benchmark's own keep-alive HTTP/1.1 client.  It frames responses on
//! `content-length` (the server never chunks), never retries, and keeps any
//! bytes that belong to the next response.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A stalled server fails the operation instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    /// Echoed `x-rvsim-request-id` (0 when absent).
    pub request_id: u64,
    pub body: Vec<u8>,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        Ok(Conn { stream, buf: Vec::with_capacity(1 << 16), out: Vec::with_capacity(1 << 12) })
    }

    /// One request/response exchange.  A nonzero `request_id` is sent as
    /// `x-rvsim-request-id` and must come back in the response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        request_id: u64,
    ) -> Result<Response, String> {
        self.out.clear();
        let _ = write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: rvsim\r\ncontent-length: {}\r\n",
            body.len()
        );
        if request_id != 0 {
            let _ = write!(self.out, "x-rvsim-request-id: {request_id:016x}\r\n");
        }
        self.out.extend_from_slice(b"\r\n");
        self.out.extend_from_slice(body);
        self.stream.write_all(&self.out).map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((response, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                if request_id != 0 && response.request_id != request_id {
                    return Err(format!(
                        "request {request_id:016x} answered as {:016x}",
                        response.request_id
                    ));
                }
                return Ok(response);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed mid-response".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }
}

/// Parse one complete response from the front of `buf`, returning it and the
/// number of bytes it occupied; `None` while more bytes are needed.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let (mut length, mut request_id) = (None, 0);
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| format!("bad header `{line}`"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| format!("bad length `{value}`"))?);
        } else if name.eq_ignore_ascii_case("x-rvsim-request-id") {
            request_id = u64::from_str_radix(value, 16).map_err(|_| format!("bad id `{value}`"))?;
        }
    }
    let length = length.ok_or("response without content-length")?;
    let end = head_len + 4 + length;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((Response { status, request_id, body: buf[head_len + 4..end].to_vec() }, end)))
}

/// Decode a `/api` payload: one flag byte (0 plain, 1 LZSS), then JSON.
pub fn decode_payload(body: &[u8]) -> Result<Cow<'_, [u8]>, String> {
    match body.split_first() {
        Some((0, json)) => Ok(Cow::Borrowed(json)),
        Some((1, packed)) => rvsim_compress::decompress(packed)
            .map(Cow::Owned)
            .map_err(|e| format!("undecodable payload: {e}")),
        _ => Err("payload without a valid flag byte".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: &[u8] =
        b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nx-rvsim-request-id: 00000000000000ff\r\n\r\nhello";
    const TWO: &[u8] = b"HTTP/1.1 503 Busy\r\nContent-Length: 3\r\n\r\nbye";

    #[test]
    fn framing_survives_every_split_point() {
        for split in 0..ONE.len() {
            let mut buf = ONE[..split].to_vec();
            assert_eq!(parse_response(&buf).unwrap(), None, "complete after {split} bytes");
            buf.extend_from_slice(&ONE[split..]);
            let (response, used) = parse_response(&buf).unwrap().expect("complete");
            assert_eq!(used, ONE.len());
            assert_eq!((response.status, response.request_id), (200, 0xff));
            assert_eq!(response.body, b"hello");
        }
    }

    #[test]
    fn two_pipelined_responses_in_one_read() {
        let buf = [ONE, TWO].concat();
        let (first, used) = parse_response(&buf).unwrap().unwrap();
        assert_eq!(first.body, b"hello");
        let (second, rest) = parse_response(&buf[used..]).unwrap().unwrap();
        assert_eq!((second.status, second.body.as_slice()), (503, b"bye".as_slice()));
        assert_eq!(used + rest, buf.len());
    }

    #[test]
    fn malformed_heads_are_errors() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 2x0 OK\r\ncontent-length: 0\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: -1\r\n\r\n").is_err());
    }

    #[test]
    fn payloads_decode_by_flag() {
        let json = br#"{"type":"stepped","cycle":3,"halted":false}"#;
        assert_eq!(decode_payload(&[&[0u8][..], json].concat()).unwrap().as_ref(), json);
        let packed = rvsim_compress::compress(json);
        assert_eq!(decode_payload(&[&[1u8][..], &packed].concat()).unwrap().as_ref(), json);
        assert!(decode_payload(&[7, 1, 2]).is_err());
        assert!(decode_payload(&[]).is_err());
    }
}
