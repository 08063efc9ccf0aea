//! Always-on fixed-capacity event journal.
//!
//! A ring of plain-old-data [`Event`] slots, each guarded by its own
//! seqlock version word.  Writers claim a slot by bumping its version to
//! odd, copy the event in, then publish an even version that encodes the
//! global sequence number.  Readers copy the slot and re-check the version;
//! a torn read (writer raced the copy) is simply skipped.  No locks, no
//! allocation per event — the write path is one `fetch_add`, one CAS loop
//! (uncontended in practice: contention requires two writers lapping the
//! whole ring simultaneously) and a release store.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// What happened.  The numeric discriminants are stable within a build but
/// not across versions; the journal renders names, not numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A connection was accepted. `a` = open connections after the accept.
    ConnOpen,
    /// A connection closed. `a` = close reason code (see net::CloseKind),
    /// `b` = requests served on it.
    ConnClose,
    /// A dispatched request completed. `a` = HTTP status, `b` = total µs;
    /// `phases_us` carries header-read / queue-wait / handler / write-drain.
    Request,
    /// Same as [`EventKind::Request`] but over the slow-request threshold.
    SlowRequest,
    /// A checkpoint sweep finished. `a` = sessions written, `b` = sweep µs.
    CheckpointSweep,
    /// A circuit breaker opened. `a` = backend index.
    BreakerOpen,
    /// A circuit breaker closed after a successful probe. `a` = backend.
    BreakerClose,
    /// Health probing declared a backend dead. `a` = backend index.
    BackendDead,
    /// A dead backend came back and rejoined the rings. `a` = backend.
    BackendRevived,
    /// Failover re-own finished. `a` = sessions recovered, `b` = µs spent.
    FailoverReown,
    /// One session was restored from a checkpoint. `session` is set,
    /// `a` = backend it was re-owned to, `b` = checkpoint staleness ms.
    SessionRestore,
    /// The router forwarded a request upstream. `a` = backend index,
    /// `b` = upstream latency µs.
    RouterForward,
    /// A drain completed. `a` = backend index, `b` = sessions migrated.
    Drain,
    /// One session moved between backends. `a` = from, `b` = to backend.
    SessionMigrated,
}

impl EventKind {
    /// Stable lowercase name used in the rendered JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ConnOpen => "conn_open",
            EventKind::ConnClose => "conn_close",
            EventKind::Request => "request",
            EventKind::SlowRequest => "slow_request",
            EventKind::CheckpointSweep => "checkpoint_sweep",
            EventKind::BreakerOpen => "breaker_open",
            EventKind::BreakerClose => "breaker_close",
            EventKind::BackendDead => "backend_dead",
            EventKind::BackendRevived => "backend_revived",
            EventKind::FailoverReown => "failover_reown",
            EventKind::SessionRestore => "session_restore",
            EventKind::RouterForward => "router_forward",
            EventKind::Drain => "drain",
            EventKind::SessionMigrated => "session_migrated",
        }
    }

    /// Names of the kind-specific `a`/`b` payload fields, for rendering.
    fn field_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::ConnOpen => ("open_conns", "b"),
            EventKind::ConnClose => ("reason", "requests"),
            EventKind::Request | EventKind::SlowRequest => ("status", "total_us"),
            EventKind::CheckpointSweep => ("sessions", "sweep_us"),
            EventKind::BreakerOpen
            | EventKind::BreakerClose
            | EventKind::BackendDead
            | EventKind::BackendRevived => ("backend", "b"),
            EventKind::FailoverReown => ("recovered", "reown_us"),
            EventKind::SessionRestore => ("backend", "staleness_ms"),
            EventKind::RouterForward => ("backend", "upstream_us"),
            EventKind::Drain => ("backend", "migrated"),
            EventKind::SessionMigrated => ("from", "to"),
        }
    }

    /// Duration-like payload used by the `min_us` trace filter, if any.
    fn duration_us(self, event: &Event) -> Option<u64> {
        match self {
            EventKind::Request | EventKind::SlowRequest => Some(event.b),
            EventKind::RouterForward => Some(event.b),
            EventKind::CheckpointSweep => Some(event.b),
            EventKind::FailoverReown => Some(event.b),
            _ => None,
        }
    }
}

/// No-session sentinel for [`Event::session`].
pub const NO_SESSION: u64 = u64::MAX;

/// One journal entry.  Plain old data so the seqlock copy is a memcpy.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Microseconds since the Unix epoch (journal-local monotonic clock
    /// anchored to wall time at journal creation).
    pub ts_us: u64,
    pub kind: EventKind,
    /// 0 when the event is not tied to a request.
    pub request_id: u64,
    /// [`NO_SESSION`] when the event is not tied to a session.
    pub session: u64,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub b: u64,
    /// Phase timings for request events, zeros otherwise.
    pub phases_us: [u32; 4],
}

impl Event {
    pub fn new(kind: EventKind, ts_us: u64) -> Event {
        Event { ts_us, kind, request_id: 0, session: NO_SESSION, a: 0, b: 0, phases_us: [0; 4] }
    }

    pub fn request(mut self, request_id: u64) -> Event {
        self.request_id = request_id;
        self
    }

    pub fn session(mut self, session: u64) -> Event {
        self.session = session;
        self
    }

    pub fn fields(mut self, a: u64, b: u64) -> Event {
        self.a = a;
        self.b = b;
        self
    }

    pub fn phases(mut self, phases_us: [u32; 4]) -> Event {
        self.phases_us = phases_us;
        self
    }

    /// Render as one JSON object (one line of `/admin/trace` output).
    pub fn render_json(&self, seq: u64, out: &mut String) {
        use std::fmt::Write;
        let (a_name, b_name) = self.kind.field_names();
        let _ = write!(
            out,
            "{{\"seq\":{seq},\"ts_us\":{},\"event\":\"{}\"",
            self.ts_us,
            self.kind.name()
        );
        if self.request_id != 0 {
            let _ = write!(out, ",\"request_id\":\"{:016x}\"", self.request_id);
        }
        if self.session != NO_SESSION {
            let _ = write!(out, ",\"session\":{}", self.session);
        }
        let _ = write!(out, ",\"{a_name}\":{}", self.a);
        if b_name != "b" {
            let _ = write!(out, ",\"{b_name}\":{}", self.b);
        }
        if matches!(self.kind, EventKind::Request | EventKind::SlowRequest) {
            let _ = write!(
                out,
                ",\"phases_us\":{{\"header_read\":{},\"queue_wait\":{},\"handler\":{},\"write_drain\":{}}}",
                self.phases_us[0], self.phases_us[1], self.phases_us[2], self.phases_us[3]
            );
        }
        out.push('}');
    }
}

struct Slot {
    /// Seqlock word: 0 = empty, odd = being written, even `2*(seq+1)` =
    /// holds the event with global sequence number `seq`.
    version: AtomicU64,
    event: UnsafeCell<Event>,
}

// The UnsafeCell is only read under the seqlock protocol above.
unsafe impl Sync for Slot {}

impl Slot {
    fn empty() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            event: UnsafeCell::new(Event::new(EventKind::ConnOpen, 0)),
        }
    }
}

/// Fixed-capacity, lock-free, always-on event ring.
pub struct Journal {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    epoch_unix_us: u64,
    epoch: Instant,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.slots.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl Journal {
    /// Journal holding the most recent `capacity` events (rounded up to a
    /// power of two, minimum 16).
    pub fn new(capacity: usize) -> Journal {
        let capacity = capacity.max(16).next_power_of_two();
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::empty()).collect();
        Journal {
            slots: slots.into_boxed_slice(),
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            epoch_unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since the Unix epoch, from the journal's monotonic
    /// clock (safe under wall-clock steps).
    pub fn now_us(&self) -> u64 {
        self.epoch_unix_us + self.epoch.elapsed().as_micros() as u64
    }

    /// Total events ever recorded (recent `capacity` of them retained).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Append one event, overwriting the oldest slot when full.
    pub fn record(&self, event: Event) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        // Claim: flip to odd. Lost races only happen when another writer
        // laps the entire ring onto this slot mid-write; the newer write
        // wins and this event is dropped, which matches ring semantics.
        let mut current = slot.version.load(Ordering::Acquire);
        loop {
            if current % 2 == 1 || current >= 2 * (seq + 1) {
                return;
            }
            match slot.version.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        unsafe { *slot.event.get() = event };
        slot.version.store(2 * (seq + 1), Ordering::Release);
    }

    /// Copy out the currently-readable events, oldest first, with their
    /// sequence numbers.  Slots being written (or overwritten during the
    /// copy) are skipped.
    pub fn snapshot(&self) -> Vec<(u64, Event)> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.version.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let event = unsafe { *slot.event.get() };
            if slot.version.load(Ordering::Acquire) != before {
                continue;
            }
            events.push((before / 2 - 1, event));
        }
        events.sort_unstable_by_key(|&(seq, _)| seq);
        events
    }

    /// Render the `n` most recent events whose duration (for events that
    /// have one) is at least `min_us`, as newline-delimited JSON.
    pub fn render_trace(&self, n: usize, min_us: u64) -> String {
        let events = self.snapshot();
        let filtered: Vec<&(u64, Event)> = events
            .iter()
            .filter(|(_, e)| e.kind.duration_us(e).map(|us| us >= min_us).unwrap_or(min_us == 0))
            .collect();
        let start = filtered.len().saturating_sub(n);
        let mut out = String::with_capacity((filtered.len() - start) * 160);
        for (seq, event) in filtered[start..].iter() {
            event.render_json(*seq, &mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let journal = Journal::new(16);
        for i in 0..40u64 {
            journal.record(Event::new(EventKind::Request, journal.now_us()).fields(200, i));
        }
        let events = journal.snapshot();
        assert_eq!(events.len(), 16);
        // Oldest surviving event is #24 (40 - 16).
        assert_eq!(events.first().unwrap().1.b, 24);
        assert_eq!(events.last().unwrap().1.b, 39);
        let seqs: Vec<u64> = events.iter().map(|&(s, _)| s).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_writers_never_tear_reads() {
        let journal = std::sync::Arc::new(Journal::new(64));
        let writers: Vec<_> = (0..4)
            .map(|t: u64| {
                let journal = journal.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // a == b in every event; a torn read would break it.
                        let v = t * 5_000 + i;
                        journal.record(
                            Event::new(EventKind::RouterForward, journal.now_us()).fields(v, v),
                        );
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for (_, event) in journal.snapshot() {
                assert_eq!(event.a, event.b, "torn journal read");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(journal.recorded(), 20_000);
        assert_eq!(journal.snapshot().len(), 64);
    }

    #[test]
    fn trace_filters_by_duration_and_count() {
        let journal = Journal::new(64);
        journal.record(Event::new(EventKind::BreakerOpen, 1).fields(0, 0));
        for us in [10u64, 5_000, 20_000] {
            journal.record(
                Event::new(EventKind::Request, journal.now_us())
                    .request(0xabc)
                    .fields(200, us)
                    .phases([1, 2, 3, 4]),
            );
        }
        // min_us filters request events but keeps duration-less ops events
        // only when min_us == 0.
        let all = journal.render_trace(100, 0);
        assert_eq!(all.lines().count(), 4);
        let slow = journal.render_trace(100, 1_000);
        assert_eq!(slow.lines().count(), 2);
        assert!(slow.contains("\"total_us\":5000"));
        let capped = journal.render_trace(1, 1_000);
        assert_eq!(capped.lines().count(), 1);
        assert!(capped.contains("\"total_us\":20000"));
        assert!(capped.contains("\"request_id\":\"0000000000000abc\""));
        assert!(capped.contains(
            "\"phases_us\":{\"header_read\":1,\"queue_wait\":2,\"handler\":3,\"write_drain\":4}"
        ));
    }
}
