//! Spans recorded by the benchmark around each layer call: one per operation,
//! one per HTTP request (carrying the request id the benchmark minted), the
//! server's four phases joined in from `/admin/trace`, and one per in-process
//! probe.  Spans stay in memory and are written as NDJSON when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Microseconds since the run's time origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Operation spans of a paced loop: when the request actually left.
    pub sent_us: Option<f64>,
    /// HTTP spans: the `x-rvsim-request-id` they carried.
    pub request_id: u64,
}

impl Span {
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}",
            self.id, self.parent, self.name, self.start_us, self.end_us
        );
        if let Some(sent) = self.sent_us {
            let _ = write!(out, ",\"sent_us\":{sent:.3}");
        }
        if self.request_id != 0 {
            let _ = write!(out, ",\"request_id\":\"{:016x}\"", self.request_id);
        }
        out.push_str("}\n");
    }
}

/// The run's shared time origin, as an `Instant` and as Unix microseconds
/// (the server journal's clock).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub origin: Instant,
    pub origin_unix_us: f64,
}

impl Clock {
    pub fn start() -> Clock {
        let unix = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
        Clock { origin: Instant::now(), origin_unix_us: unix.as_secs_f64() * 1e6 }
    }

    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }
}

/// Per-connection request-id mint and span buffer.  With tracing off it only
/// mints ids, so traced and untraced runs send identical requests.
pub struct Recorder {
    clock: Clock,
    pub tracing: bool,
    tag: u64,
    next: u64,
    /// Operation span the next HTTP spans belong to.
    current_op: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `tag` keeps ids of distinct recorders apart (one recorder per
    /// connection, so ids are unique per server).
    pub fn new(clock: Clock, tracing: bool, tag: u64) -> Recorder {
        Recorder { clock, tracing, tag, next: 0, current_op: 0, spans: Vec::new() }
    }

    /// A fresh id for a request or a span.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        (self.tag << 40) | self.next
    }

    /// Start an operation: HTTP spans recorded until [`Recorder::end_op`]
    /// become its children.
    pub fn begin_op(&mut self) {
        if self.tracing {
            self.current_op = self.next_id();
        }
    }

    pub fn end_op(&mut self, name: &'static str, due: Instant, sent: Instant, done: Instant) {
        if self.tracing {
            self.spans.push(Span {
                id: self.current_op,
                parent: 0,
                name,
                start_us: self.clock.us(due),
                end_us: self.clock.us(done),
                sent_us: Some(self.clock.us(sent)),
                request_id: 0,
            });
            self.current_op = 0;
        }
    }

    pub fn http(&mut self, name: &'static str, request_id: u64, start: Instant, end: Instant) {
        if self.tracing {
            self.spans.push(Span {
                id: request_id,
                parent: self.current_op,
                name,
                start_us: self.clock.us(start),
                end_us: self.clock.us(end),
                sent_us: None,
                request_id,
            });
        }
    }

    /// Run `f` inside a root span called `name`.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        if self.tracing {
            let id = self.next_id();
            let (start_us, end_us) = (self.clock.us(start), self.clock.us(Instant::now()));
            self.spans.push(Span {
                id,
                parent: 0,
                name,
                start_us,
                end_us,
                sent_us: None,
                request_id: 0,
            });
        }
        out
    }
}

/// Server phase names, in the order the journal reports them.
const PHASES: [&str; 4] = ["header_read", "queue_wait", "handler", "write_drain"];
const PHASE_SPANS: [&str; 4] =
    ["server.header_read", "server.queue_wait", "server.handler", "server.write_drain"];

/// Join server journal events (`/admin/trace` NDJSON) onto the HTTP spans
/// that carried the same request id, adding one child span per server phase.
/// The phases run back to back and end at the event's timestamp.  Returns,
/// for every request joined, the wire time: the client's span minus the
/// server's four phases.  Already-joined ids are skipped, so overlapping
/// journal pulls are harmless.
pub fn join_server_events(spans: &mut Vec<Span>, ndjson: &str, clock: &Clock) -> Vec<f64> {
    let mut open: HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.request_id != 0 && s.name.starts_with("http."))
        .map(|(i, s)| (s.request_id, i))
        .collect();
    for span in spans.iter().filter(|s| s.name.starts_with("server.")) {
        open.remove(&span.parent);
    }
    let mut wire = Vec::new();
    for line in ndjson.lines() {
        let Ok(event) = serde_json::from_str::<serde_json::Value>(line) else { continue };
        let Some(id) = event["request_id"].as_str().and_then(|h| u64::from_str_radix(h, 16).ok())
        else {
            continue;
        };
        let Some(index) = open.remove(&id) else { continue };
        let phases: Vec<f64> =
            PHASES.iter().map(|p| event["phases_us"][*p].as_f64().unwrap_or(0.0)).collect();
        let Some(ts_us) = event["ts_us"].as_f64() else { continue };
        let mut end = ts_us - clock.origin_unix_us;
        for (phase, (name, us)) in PHASE_SPANS.iter().zip(&phases).enumerate().rev() {
            spans.push(Span {
                // Minted ids stay below bit 56, so this cannot collide.
                id: id | ((phase as u64 + 1) << 58),
                parent: id,
                name,
                start_us: end - us,
                end_us: end,
                sent_us: None,
                request_id: 0,
            });
            end -= us;
        }
        let http = &spans[index];
        wire.push((http.end_us - http.start_us) - phases.iter().sum::<f64>());
    }
    wire
}

pub fn write_ndjson(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 120);
    for span in spans {
        span.write_json(&mut out);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn server_phases_join_under_their_http_span() {
        let clock = Clock { origin: Instant::now(), origin_unix_us: 1_000_000.0 };
        let mut rec = Recorder::new(clock, true, 1);
        rec.begin_op();
        let id = rec.next_id();
        let t = clock.origin;
        rec.http("http.get_state", id, t, t + Duration::from_micros(50));
        rec.end_op("op.gui_refresh", t, t, t + Duration::from_micros(60));
        let line = format!(
            "{{\"seq\":1,\"ts_us\":1000048,\"event\":\"slow_request\",\"request_id\":\"{id:016x}\",\
             \"status\":200,\"total_us\":40,\"phases_us\":{{\"header_read\":1,\"queue_wait\":9,\
             \"handler\":20,\"write_drain\":10}}}}\n{{\"seq\":2,\"event\":\"conn_open\"}}"
        );
        let mut spans = rec.spans;
        let wire = join_server_events(&mut spans, &line, &clock);
        assert_eq!(wire, vec![10.0]);
        assert_eq!(join_server_events(&mut spans, &line, &clock), Vec::<f64>::new());
        let server: Vec<&Span> = spans.iter().filter(|s| s.parent == id).collect();
        assert_eq!(server.len(), 4);
        let handler = server.iter().find(|s| s.name == "server.handler").unwrap();
        assert_eq!((handler.start_us, handler.end_us), (18.0, 38.0));
        let op = spans.iter().find(|s| s.name == "op.gui_refresh").unwrap();
        assert_eq!(spans.iter().find(|s| s.id == id).unwrap().parent, op.id);
        let mut text = String::new();
        op.write_json(&mut text);
        let parsed: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(parsed["name"].as_str(), Some("op.gui_refresh"));
        assert_eq!(parsed["end_us"].as_f64(), Some(60.0));
    }
}
