//! Incremental HTTP/1.1 request framing, and the response-head parse the
//! clients share.
//!
//! [`RequestParser`] accumulates bytes as they arrive from a socket and
//! yields complete requests: it tolerates arbitrary partial reads (a request
//! split at any byte boundary parses identically to the unsplit stream —
//! property-tested), supports pipelining (several requests buffered in one
//! read) and keep-alive semantics, and rejects malformed or oversized input
//! with the appropriate 4xx/5xx status instead of panicking or hanging.
//!
//! The parser is deliberately small: request line + headers + a
//! `content-length` body.  Chunked transfer encoding is rejected with 501 —
//! every client of the simulation protocol sends sized bodies.

/// Maximum bytes of request line + headers before the parser rejects the
/// request with `431 Request Header Fields Too Large`.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Maximum request body size before the parser rejects the request with
/// `413 Payload Too Large`.  Protocol requests are small JSON objects; the
/// generous cap only exists to bound memory per connection.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, …), upper-cased as received.
    pub method: String,
    /// Request target (`/api`, `/metrics`, …).
    pub target: String,
    /// Protocol version of the request line.  Responses echo it: an
    /// HTTP/1.0 client must not be answered with an `HTTP/1.1` status line.
    pub version: Version,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `connection: close`; HTTP/1.0 only with
    /// `connection: keep-alive`).
    pub keep_alive: bool,
    /// Request body (`content-length` bytes; empty when absent).
    pub body: Vec<u8>,
    /// Request id carried by the `x-rvsim-request-id` header (16 hex
    /// digits), or 0 when absent/unparseable — the front end then mints
    /// one at the edge.
    pub request_id: u64,
}

/// A framing-level rejection: the connection answers with `status` and
/// closes (framing errors are not recoverable — byte positions are lost).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code to answer with (400/405/413/431/501/505).
    pub status: u16,
    /// Status reason phrase.
    pub reason: &'static str,
    /// Human-readable detail for the response body.
    pub detail: String,
}

impl HttpError {
    fn new(status: u16, reason: &'static str, detail: impl Into<String>) -> Self {
        HttpError { status, reason, detail: detail.into() }
    }
}

/// Incremental request parser over a byte stream.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by parsed requests.  The prefix is
    /// compacted away lazily, so pipelined parsing does not memmove per
    /// request.
    pos: usize,
    /// Bytes past `pos` already scanned for the head terminator without
    /// finding it.  Persisting this across `feed`s keeps the head scan
    /// linear in the stream length: byte-dribble input re-examines only the
    /// unscanned tail (plus the two trailing bytes a terminator could
    /// straddle), not the whole buffered head again — the old restart-at-0
    /// behaviour was O(n²) against a slow client.
    scanned: usize,
}

impl RequestParser {
    /// Fresh parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a parsed request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        // Compact once the consumed prefix dominates, amortizing the move.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Try to parse the next complete request from the buffered bytes.
    ///
    /// * `Ok(Some(request))` — a complete request was consumed.
    /// * `Ok(None)` — more bytes are needed (partial head or body).
    /// * `Err(error)` — the stream is malformed or over limits; the caller
    ///   should answer with `error.status` and close the connection.
    pub fn next_request(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        let data = &self.buf[self.pos..];
        // Resume the terminator scan where the last one stopped.  A
        // terminator can straddle a feed boundary (`…\n\r` + `\n`), and the
        // scan inspects up to two bytes past the candidate `\n`, so the last
        // two scanned bytes stay undecided and are re-examined.
        let resume = self.scanned.min(data.len());
        let found = find_head_end_from(data, resume);
        if found.is_none() {
            self.scanned = data.len().saturating_sub(2);
        }
        let Some(head_len) = found else {
            if data.len() > MAX_HEAD_BYTES {
                return Err(HttpError::new(
                    431,
                    "Request Header Fields Too Large",
                    format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                ));
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD_BYTES {
            return Err(HttpError::new(
                431,
                "Request Header Fields Too Large",
                format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            ));
        }

        // The head is complete: parse it (errors are fatal for the
        // connection, so consuming on the error path is unnecessary).
        let head = &data[..head_len];
        let (request_line, header_block) = split_first_line(head);
        let (method, target, version) = parse_request_line(request_line)?;
        let headers = parse_headers(header_block)?;

        let mut content_length = 0usize;
        let mut keep_alive = version == Version::Http11;
        let mut request_id = 0u64;
        for (name, value) in &headers {
            match name.as_str() {
                "content-length" => {
                    content_length = parse_content_length(value)?;
                }
                "x-rvsim-request-id" => {
                    request_id = rvsim_obs::parse_request_id(value).unwrap_or(0);
                }
                "transfer-encoding" => {
                    return Err(HttpError::new(
                        501,
                        "Not Implemented",
                        "transfer-encoding is not supported; send a sized body",
                    ));
                }
                "connection" => {
                    let value = value.to_ascii_lowercase();
                    if value.split(',').any(|t| t.trim() == "close") {
                        keep_alive = false;
                    } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                        keep_alive = true;
                    }
                }
                _ => {}
            }
        }
        if data.len() < head_len + content_length {
            return Ok(None); // body still in flight
        }

        let body = data[head_len..head_len + content_length].to_vec();
        self.pos += head_len + content_length;
        self.scanned = 0;
        self.compact();
        Ok(Some(HttpRequest { method, target, version, keep_alive, body, request_id }))
    }
}

/// HTTP protocol version of a request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`.
    Http10,
    /// `HTTP/1.1`.
    Http11,
}

impl Version {
    /// The status-line prefix for a response in this version.
    fn status_prefix(self) -> &'static [u8] {
        match self {
            Version::Http10 => b"HTTP/1.0 ",
            Version::Http11 => b"HTTP/1.1 ",
        }
    }
}

/// Index one past the head terminator (`\r\n\r\n`, with lenient bare-`\n`
/// acceptance), or `None` while the head is still incomplete.  Shared with
/// the client-side response reader so both directions frame identically.
pub fn find_head_end(data: &[u8]) -> Option<usize> {
    find_head_end_from(data, 0)
}

/// How one HTTP response is framed, read off its head by
/// [`parse_response_head`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Status code.
    pub status: u16,
    /// Length of the head, terminator included: the body starts here.
    pub head_len: usize,
    /// Body length from `content-length` (`0` when the header is absent).
    pub content_length: usize,
}

/// Parse the response head at the start of `buf`: `Ok(None)` while the head
/// is incomplete.  A missing `content-length` means an empty body; a
/// malformed status line or `content-length` is `InvalidData`.  The blocking
/// client and the load generator both frame responses with it.
pub fn parse_response_head(buf: &[u8]) -> std::io::Result<Option<ResponseFrame>> {
    let Some(head_len) = find_head_end(buf) else { return Ok(None) };
    let head = String::from_utf8_lossy(&buf[..head_len]);
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("malformed status line in {head:?}")))?;
    let content_length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse::<usize>())
        })
        .transpose()
        .map_err(|_| invalid("bad content-length".into()))?
        .unwrap_or(0);
    Ok(Some(ResponseFrame { status, head_len, content_length }))
}

/// [`find_head_end`] resuming at byte `start` (everything before `start` is
/// known not to begin a terminator).
fn find_head_end_from(data: &[u8], start: usize) -> Option<usize> {
    let mut i = start;
    while i < data.len() {
        if data[i] == b'\n' {
            match data.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if data.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

fn split_first_line(head: &[u8]) -> (&[u8], &[u8]) {
    match head.iter().position(|&b| b == b'\n') {
        Some(nl) => (trim_cr(&head[..nl]), &head[nl + 1..]),
        None => (trim_cr(head), &[]),
    }
}

fn trim_cr(line: &[u8]) -> &[u8] {
    match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    }
}

fn parse_request_line(line: &[u8]) -> Result<(String, String, Version), HttpError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| HttpError::new(400, "Bad Request", "request line is not UTF-8"))?;
    let mut parts = text.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::new(400, "Bad Request", format!("malformed request line `{text}`")));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpError::new(400, "Bad Request", format!("bad method `{method}`")));
    }
    let version = match version {
        "HTTP/1.1" => Version::Http11,
        "HTTP/1.0" => Version::Http10,
        other => {
            return Err(HttpError::new(
                505,
                "HTTP Version Not Supported",
                format!("unsupported version `{other}`"),
            ));
        }
    };
    Ok((method.to_ascii_uppercase(), target.to_string(), version))
}

fn parse_headers(block: &[u8]) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    for raw_line in block.split(|&b| b == b'\n') {
        let line = trim_cr(raw_line);
        if line.is_empty() {
            continue; // the blank terminator line (and any stray blanks)
        }
        let text = std::str::from_utf8(line)
            .map_err(|_| HttpError::new(400, "Bad Request", "header line is not UTF-8"))?;
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::new(
                400,
                "Bad Request",
                format!("header without colon `{text}`"),
            ));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::new(400, "Bad Request", format!("bad header name `{name}`")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    // Conflicting duplicate content-lengths are a classic smuggling vector.
    let lengths: Vec<&str> =
        headers.iter().filter(|(n, _)| n == "content-length").map(|(_, v)| v.as_str()).collect();
    if lengths.len() > 1 && lengths.iter().any(|&v| v != lengths[0]) {
        return Err(HttpError::new(400, "Bad Request", "conflicting content-length headers"));
    }
    Ok(headers)
}

/// Strict `content-length` parse: ASCII digits only.  Sign prefixes (`+5`),
/// embedded whitespace and other forms `usize::from_str` would tolerate are
/// 400, while values past [`MAX_BODY_BYTES`] — including digit strings too
/// long to represent at all — are 413: a length the server refuses to
/// buffer, not a malformed one.
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    let digits = value.as_bytes();
    if digits.is_empty() || !digits.iter().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::new(400, "Bad Request", format!("bad content-length `{value}`")));
    }
    let mut length = 0usize;
    for &digit in digits {
        length = length
            .checked_mul(10)
            .and_then(|n| n.checked_add(usize::from(digit - b'0')))
            .filter(|&n| n <= MAX_BODY_BYTES)
            .ok_or_else(|| {
                HttpError::new(
                    413,
                    "Payload Too Large",
                    format!("request body of {value} bytes exceeds {MAX_BODY_BYTES}"),
                )
            })?;
    }
    Ok(length)
}

/// Everything a response head needs ([`write_response_head`]).
#[derive(Debug, Clone, Copy)]
pub struct ResponseHead<'a> {
    /// Protocol version to echo in the status line.
    pub version: Version,
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'a str,
    /// `content-type` header value.
    pub content_type: &'a str,
    /// `content-length` header value (the body is written separately).
    pub content_length: usize,
    /// Emit `connection: keep-alive` instead of `connection: close`.
    pub keep_alive: bool,
    /// Extra headers (e.g. the `allow` list a 405 requires), emitted
    /// verbatim before the blank line.
    pub extra: &'a [(&'a str, &'a str)],
}

/// Serialize a response head (status line + headers + blank line) into
/// `out`.  The body is written separately so a shared-buffer payload never
/// gets copied into the head buffer.  The status line echoes the *request's*
/// protocol version (an HTTP/1.0 client must not see `HTTP/1.1`).
pub fn write_response_head(out: &mut Vec<u8>, head: &ResponseHead<'_>) {
    out.extend_from_slice(head.version.status_prefix());
    out.extend_from_slice(head.status.to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(head.reason.as_bytes());
    out.extend_from_slice(b"\r\ncontent-type: ");
    out.extend_from_slice(head.content_type.as_bytes());
    out.extend_from_slice(b"\r\ncontent-length: ");
    out.extend_from_slice(head.content_length.to_string().as_bytes());
    out.extend_from_slice(b"\r\nconnection: ");
    out.extend_from_slice(if head.keep_alive { b"keep-alive".as_ref() } else { b"close".as_ref() });
    for (name, value) in head.extra {
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
    }
    out.extend_from_slice(b"\r\n\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(stream: &[u8]) -> Result<Vec<HttpRequest>, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(stream);
        let mut requests = Vec::new();
        while let Some(r) = parser.next_request()? {
            requests.push(r);
        }
        Ok(requests)
    }

    #[test]
    fn parses_a_simple_post() {
        let reqs = parse_all(b"POST /api HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello").unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "POST");
        assert_eq!(reqs[0].target, "/api");
        assert_eq!(reqs[0].version, Version::Http11);
        assert!(reqs[0].keep_alive);
        assert_eq!(reqs[0].body, b"hello");
    }

    #[test]
    fn request_version_is_preserved_for_response_echo() {
        let reqs = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(reqs[0].version, Version::Http10);
        let reqs = parse_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(reqs[0].version, Version::Http11);
    }

    #[test]
    fn parses_pipelined_requests_and_byte_by_byte_feeding() {
        let stream: &[u8] = b"POST /api HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc\
                              GET /metrics HTTP/1.1\r\n\r\n\
                              POST /api HTTP/1.1\r\nconnection: close\r\ncontent-length: 2\r\n\r\nhi";
        let whole = parse_all(stream).unwrap();
        assert_eq!(whole.len(), 3);
        assert_eq!(whole[0].body, b"abc");
        assert_eq!(whole[1].method, "GET");
        assert!(!whole[2].keep_alive);

        // One byte at a time must produce the identical request sequence.
        let mut parser = RequestParser::new();
        let mut split = Vec::new();
        for &b in stream {
            parser.feed(&[b]);
            while let Some(r) = parser.next_request().unwrap() {
                split.push(r);
            }
        }
        assert_eq!(split, whole);
    }

    #[test]
    fn request_id_header_is_parsed_and_defaults_to_zero() {
        let reqs = parse_all(
            b"POST /api HTTP/1.1\r\nx-rvsim-request-id: 00000000deadbeef\r\ncontent-length: 2\r\n\r\nok",
        )
        .unwrap();
        assert_eq!(reqs[0].request_id, 0xdead_beef);
        let reqs = parse_all(b"POST /api HTTP/1.1\r\ncontent-length: 2\r\n\r\nok").unwrap();
        assert_eq!(reqs[0].request_id, 0);
        // Junk ids are treated as absent, not a framing error.
        let reqs = parse_all(
            b"POST /api HTTP/1.1\r\nx-rvsim-request-id: zzz\r\ncontent-length: 2\r\n\r\nok",
        )
        .unwrap();
        assert_eq!(reqs[0].request_id, 0);
    }

    #[test]
    fn lenient_bare_newline_framing() {
        let reqs = parse_all(b"POST /api HTTP/1.1\ncontent-length: 2\n\nok").unwrap();
        assert_eq!(reqs[0].body, b"ok");
    }

    #[test]
    fn http10_defaults_to_close_and_keep_alive_header_overrides() {
        let reqs = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!reqs[0].keep_alive);
        let reqs = parse_all(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").unwrap();
        assert!(reqs[0].keep_alive);
        let reqs = parse_all(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(!reqs[0].keep_alive);
    }

    #[test]
    fn incomplete_head_and_body_wait_for_more_bytes() {
        let mut parser = RequestParser::new();
        parser.feed(b"POST /api HTTP/1.1\r\ncontent-le");
        assert_eq!(parser.next_request().unwrap(), None);
        parser.feed(b"ngth: 4\r\n\r\nab");
        assert_eq!(parser.next_request().unwrap(), None); // body short
        parser.feed(b"cd");
        let r = parser.next_request().unwrap().unwrap();
        assert_eq!(r.body, b"abcd");
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for bad in [
            b"BOGUS\r\n\r\n".as_ref(),
            b"GET /\r\n\r\n".as_ref(),
            b"GET / HTTP/1.1 extra\r\n\r\n".as_ref(),
            b"G3T / HTTP/1.1\r\n\r\n".as_ref(),
            b"POST /api HTTP/1.1\r\nheaderwithoutcolon\r\n\r\n".as_ref(),
            b"POST /api HTTP/1.1\r\ncontent-length: banana\r\n\r\n".as_ref(),
            b"POST /api HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n".as_ref(),
            // Sign- or whitespace-padded lengths that `usize::from_str`
            // would happily accept (`+5` parses as 5) must be rejected.
            b"POST /api HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello".as_ref(),
            b"POST /api HTTP/1.1\r\ncontent-length: -1\r\n\r\n".as_ref(),
            b"POST /api HTTP/1.1\r\ncontent-length: 5 5\r\n\r\n".as_ref(),
            b"POST /api HTTP/1.1\r\ncontent-length: 0x10\r\n\r\n".as_ref(),
            b"POST /api HTTP/1.1\r\ncontent-length:\r\n\r\n".as_ref(),
        ] {
            let err = parse_all(bad).unwrap_err();
            assert_eq!(err.status, 400, "{:?} -> {err:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn unsupported_version_and_encoding_are_rejected() {
        assert_eq!(parse_all(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status, 505);
        let err =
            parse_all(b"POST /api HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 501);
    }

    #[test]
    fn oversized_head_is_431() {
        // Endless header bytes with no terminator: rejected once the buffer
        // passes the cap rather than buffering forever.
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; MAX_HEAD_BYTES + 16];
        parser.feed(&filler);
        assert_eq!(parser.next_request().unwrap_err().status, 431);

        // A *terminated* head over the cap is also rejected.
        let mut huge = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        huge.extend(std::iter::repeat_n(b'y', MAX_HEAD_BYTES));
        huge.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_all(&huge).unwrap_err().status, 431);
    }

    #[test]
    fn oversized_body_is_413() {
        let head = format!("POST /api HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse_all(head.as_bytes()).unwrap_err().status, 413);
        // A length too large for usize must be 413, not a wrapped/panicked
        // parse.  (Regression: `value.parse::<usize>()` errored into a 400
        // and a u128-sized literal used to be indistinguishable from junk.)
        let huge = b"POST /api HTTP/1.1\r\ncontent-length: 99999999999999999999999999\r\n\r\n";
        assert_eq!(parse_all(huge).unwrap_err().status, 413);
    }

    #[test]
    fn surrounding_whitespace_in_content_length_is_trimmed_not_parsed() {
        // Header values are trimmed before parsing, so ordinary padding
        // stays valid; padding *inside* the digits is rejected above.
        let reqs = parse_all(b"POST /api HTTP/1.1\r\ncontent-length:   2  \r\n\r\nok").unwrap();
        assert_eq!(reqs[0].body, b"ok");
    }

    #[test]
    fn response_head_renders_the_usual_shape() {
        let mut out = Vec::new();
        write_response_head(
            &mut out,
            &ResponseHead {
                version: Version::Http11,
                status: 200,
                reason: "OK",
                content_type: "text/plain",
                content_length: 2,
                keep_alive: true,
                extra: &[],
            },
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn response_head_echoes_http10_and_renders_extra_headers() {
        let mut out = Vec::new();
        write_response_head(
            &mut out,
            &ResponseHead {
                version: Version::Http10,
                status: 405,
                reason: "Method Not Allowed",
                content_type: "text/plain",
                content_length: 0,
                keep_alive: false,
                extra: &[("allow", "GET, POST")],
            },
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.0 405 Method Not Allowed\r\n"), "{text}");
        assert!(text.contains("\r\nallow: GET, POST\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn head_scan_resumes_instead_of_rescanning_on_every_feed() {
        // Semantic regression cover for the O(n²) head scan: a head dribbled
        // in one byte at a time — including a terminator straddling feed
        // boundaries — parses identically to the unsplit stream, and the
        // persisted scan offset tracks the buffered length (i.e. the parser
        // is not restarting from zero each feed).
        let stream = b"POST /api HTTP/1.1\r\nx-filler: abcdefghij\r\ncontent-length: 2\r\n\r\nok";
        let head_len = find_head_end(stream).unwrap();
        let mut parser = RequestParser::new();
        for (i, &b) in stream.iter().enumerate() {
            parser.feed(&[b]);
            let parsed = parser.next_request().unwrap();
            if i < stream.len() - 1 {
                assert!(parsed.is_none(), "complete request before byte {i}?");
                if i + 1 < head_len {
                    // While the head terminator is still missing, the scan
                    // cursor must trail the buffer end by at most the two
                    // undecided lookahead bytes: everything earlier is
                    // already known not to start a terminator.
                    assert!(
                        parser.scanned + 2 > i,
                        "scan restarted: scanned={} after {} bytes",
                        parser.scanned,
                        i + 1
                    );
                }
            } else {
                let request = parsed.expect("final byte completes the request");
                assert_eq!(request.body, b"ok");
                assert_eq!(parser.scanned, 0, "consume must reset the scan cursor");
            }
        }
    }

    #[test]
    fn response_heads_parse_to_status_and_lengths() {
        let head = b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 4\r\n\r\n";
        assert_eq!(
            parse_response_head(head).unwrap(),
            Some(ResponseFrame { status: 200, head_len: head.len(), content_length: 4 })
        );
        let mut full = head.to_vec();
        full.extend_from_slice(b"ok!\n");
        assert_eq!(parse_response_head(&full).unwrap().unwrap().head_len, head.len());
        assert_eq!(parse_response_head(&head[..head.len() - 1]).unwrap(), None, "head incomplete");
        // A missing content-length is an empty body; a bad one, or a bad
        // status line, is InvalidData.
        let bare = parse_response_head(b"HTTP/1.1 503 Service Unavailable\r\n\r\n").unwrap();
        assert_eq!(bare.map(|f| (f.status, f.content_length)), Some((503, 0)));
        for bad in [&b"HTTP/1.1 200 OK\r\ncontent-length: x\r\n\r\n"[..], b"garbage\r\n\r\n"] {
            let error = parse_response_head(bad).unwrap_err();
            assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        }
    }
}
