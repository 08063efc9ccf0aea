//! Observability primitives shared by every tier of the serving stack.
//!
//! Three building blocks, all designed for the hot path:
//!
//! - [`Histogram`]: a log₂-bucketed latency histogram whose recording path
//!   is a handful of relaxed atomic adds — no locks, no allocation.
//!   Snapshots are mergeable (bucket-wise addition), quote p50/p90/p99/max,
//!   and render directly as Prometheus histogram series.
//! - [`Journal`]: an always-on fixed-capacity ring of structured [`Event`]s
//!   guarded by per-slot seqlocks.  Writers never block readers and vice
//!   versa; a reader that races a writer simply skips the torn slot.
//! - [`expo`]: a Prometheus text-exposition builder plus a small parser /
//!   validator, shared by `/metrics` rendering, the router's upstream
//!   aggregation, the CLI dashboard and the format tests.
//!
//! [`Observer`] bundles one journal, the four per-phase connection
//! histograms and a request-id mint into the per-process-instance handle
//! the front end and its handler share.

pub mod expo;
pub mod hist;
pub mod journal;

pub use expo::{parse_exposition, validate_exposition, Exposition, MetricFamily, Sample};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use journal::{Event, EventKind, Journal};

use std::sync::atomic::{AtomicU64, Ordering};

/// Connection phases timed by the front end, in recording order.
pub const PHASES: [&str; 4] = ["header_read", "queue_wait", "handler", "write_drain"];

/// Index of the header-read phase in [`Observer::phase`].
pub const PHASE_HEADER_READ: usize = 0;
/// Index of the queue-wait phase in [`Observer::phase`].
pub const PHASE_QUEUE_WAIT: usize = 1;
/// Index of the handler phase in [`Observer::phase`].
pub const PHASE_HANDLER: usize = 2;
/// Index of the write-drain phase in [`Observer::phase`].
pub const PHASE_WRITE_DRAIN: usize = 3;

/// Default journal capacity (events). Power of two so the ring index is a
/// mask, sized to hold a few seconds of dispatch events under load.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Default slow-request threshold: any request slower than this is
/// force-journaled with its full phase breakdown.
pub const DEFAULT_SLOW_REQUEST_US: u64 = 100_000;

/// Per-process-instance observability handle: the journal, the per-phase
/// connection histograms and the request-id mint.  The network front end
/// and the [`ApiHandler`](../rvsim_net) it serves share one `Observer`, so
/// handler-side events (checkpoint sweeps, session restores) land in the
/// same ring as connection lifecycle events.
#[derive(Debug)]
pub struct Observer {
    /// Structured event ring, always on.
    pub journal: Journal,
    /// Per-phase connection latency, indexed by `PHASE_*`.
    pub phase: [Histogram; 4],
    /// Requests slower than this many microseconds (all phases summed) are
    /// journaled as [`EventKind::SlowRequest`].
    pub slow_request_us: AtomicU64,
    request_seq: AtomicU64,
    id_seed: u64,
}

impl Observer {
    /// Observer with a journal of `journal_capacity` events (rounded up to
    /// a power of two).
    pub fn new(journal_capacity: usize) -> Observer {
        static OBSERVER_SEQ: AtomicU64 = AtomicU64::new(0);
        let seed = splitmix64(
            (u64::from(std::process::id()) << 20) ^ OBSERVER_SEQ.fetch_add(1, Ordering::Relaxed),
        );
        Observer {
            journal: Journal::new(journal_capacity),
            phase: Default::default(),
            slow_request_us: AtomicU64::new(DEFAULT_SLOW_REQUEST_US),
            request_seq: AtomicU64::new(0),
            id_seed: seed,
        }
    }

    /// Mint a fresh nonzero request id.  One atomic increment plus a bit
    /// mix; ids from distinct observers (distinct seeds) do not collide in
    /// practice.
    pub fn mint_request_id(&self) -> u64 {
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(self.id_seed ^ seq);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Current slow-request threshold in microseconds.
    pub fn slow_request_us(&self) -> u64 {
        self.slow_request_us.load(Ordering::Relaxed)
    }

    /// Record the four phase timings of one completed request.  The
    /// histograms always see it; the journal sees it only when it is
    /// interesting — over the slow-request threshold (journaled as
    /// [`EventKind::SlowRequest`]) or an error status (journaled as
    /// [`EventKind::Request`]).  Healthy fast requests stay out of the ring
    /// so a load burst does not wash away the operational events around it;
    /// a threshold of 0 force-journals everything.
    pub fn record_request(&self, request_id: u64, session: u64, status: u64, phases_us: [u32; 4]) {
        for (hist, us) in self.phase.iter().zip(phases_us) {
            hist.record(u64::from(us));
        }
        let total: u64 = phases_us.iter().map(|&us| u64::from(us)).sum();
        let slow = total >= self.slow_request_us();
        if !slow && status < 400 {
            return;
        }
        let kind = if slow { EventKind::SlowRequest } else { EventKind::Request };
        self.journal.record(
            Event::new(kind, self.journal.now_us())
                .request(request_id)
                .session(session)
                .fields(status, total)
                .phases(phases_us),
        );
    }
}

impl Default for Observer {
    fn default() -> Self {
        Observer::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

/// Render a request id as the 16-hex-digit wire form carried by the
/// `x-rvsim-request-id` header.
pub fn format_request_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Allocation-free [`format_request_id`]: writes into a caller-provided
/// buffer (for the per-request response-header echo on the hot path).
pub fn write_request_id(id: u64, buf: &mut [u8; 16]) -> &str {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for (nibble, out) in buf.iter_mut().enumerate() {
        *out = HEX[((id >> (60 - 4 * nibble)) & 0xf) as usize];
    }
    std::str::from_utf8(buf).expect("hex digits are ASCII")
}

/// Parse a request id from its wire form.  Returns `None` for anything but
/// 1–16 hex digits (0 — "no id" — parses but is treated as absent by
/// callers).
pub fn parse_request_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s.trim(), 16).ok()
}

/// SplitMix64 bit mixer (public-domain constants); also used by the router
/// rings.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_nonzero_and_distinct() {
        let obs = Observer::new(64);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = obs.mint_request_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate request id {id:#x}");
        }
    }

    #[test]
    fn request_id_round_trips_through_wire_form() {
        for id in [1u64, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_request_id(&format_request_id(id)), Some(id));
        }
        assert_eq!(parse_request_id(""), None);
        assert_eq!(parse_request_id("xyz"), None);
        assert_eq!(parse_request_id("00000000000000000"), None);
    }

    #[test]
    fn slow_requests_are_force_journaled() {
        let obs = Observer::new(64);
        obs.slow_request_us.store(1_000, Ordering::Relaxed);
        obs.record_request(6, 1, 200, [10, 10, 10, 10]); // fast + healthy: no event
        obs.record_request(7, 1, 503, [10, 10, 10, 10]); // error status: journaled
        obs.record_request(8, 1, 200, [10, 10, 2_000, 10]); // slow: journaled
        let events = obs.journal.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].1.kind, EventKind::Request);
        assert_eq!(events[0].1.request_id, 7);
        assert_eq!(events[1].1.kind, EventKind::SlowRequest);
        assert_eq!(events[1].1.request_id, 8);
        assert_eq!(obs.phase[PHASE_HANDLER].snapshot().count(), 3);
    }

    #[test]
    fn zero_threshold_journals_every_request() {
        let obs = Observer::new(64);
        obs.slow_request_us.store(0, Ordering::Relaxed);
        obs.record_request(9, 1, 200, [0, 0, 0, 0]);
        assert_eq!(obs.journal.snapshot().len(), 1);
    }

    #[test]
    fn stack_request_id_matches_heap_form() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            let mut buf = [0u8; 16];
            assert_eq!(write_request_id(id, &mut buf), format_request_id(id));
        }
    }
}
