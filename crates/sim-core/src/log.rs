//! Cycle-stamped debug log (the right-hand panel's log view, §II-A).
//!
//! The simulate loop records structured events (a cycle, a kind and its
//! operands) and the message text is rendered only when the log is read.
//!
//! The records live in chunks of 64.  The newest ones sit in an owned tail;
//! when it fills, it is frozen into an immutable chunk that clones share
//! (`Arc<[LogEntry]>`), and its buffer is reused for the next 64.  Logging
//! therefore allocates once per 64 records, and a clone (every step-back
//! checkpoint is one) copies the chunk handles and the at most 63 tail
//! records: at most 157 handles for a full log of 10,000 records.  Once the
//! log is full, it drops its oldest record by moving an offset into its
//! first chunk and releases that chunk when the offset reaches its end.

use rvsim_isa::{Exception, Sym};
use rvsim_mem::MemError;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Records per frozen chunk.
const CHUNK: usize = 64;

/// What happened, with the operands its message is rendered from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEvent {
    /// A branch or jump resolved to a different next pc than fetch predicted.
    Mispredict {
        /// Mnemonic of the control-flow instruction.
        mnemonic: Sym,
        /// Its pc.
        pc: u64,
        /// The next pc fetch continued at.
        predicted: u64,
        /// The next pc it resolved to.
        actual: u64,
    },
    /// An exception reached commit and halted the simulation.
    Exception {
        /// Pc of the excepting instruction.
        pc: u64,
        /// The exception (boxed: rare, and it may own a message).
        exception: Box<Exception>,
    },
    /// A committing store was refused by memory.
    StoreFault {
        /// The store's address.
        address: u64,
        /// Why memory refused it.
        error: Box<MemError>,
    },
    /// The pipeline drained after the program ran past its last instruction.
    PipelineEmpty,
}

impl fmt::Display for LogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogEvent::Mispredict { mnemonic, pc, predicted, actual } => write!(
                f,
                "mispredicted {mnemonic} at 0x{pc:x}: predicted 0x{predicted:x}, actual 0x{actual:x}"
            ),
            LogEvent::Exception { pc, exception } => {
                write!(f, "exception at pc 0x{pc:x}: {exception}")
            }
            LogEvent::StoreFault { address, error } => {
                write!(f, "store fault at 0x{address:x}: {error}")
            }
            LogEvent::PipelineEmpty => f.write_str("simulation finished: pipeline empty"),
        }
    }
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Cycle the message was generated in.
    pub cycle: u64,
    /// What happened.
    pub event: LogEvent,
}

/// The debug log: every message is timestamped with the cycle in which it was
/// generated, so the GUI can navigate the simulation to that cycle.  Once
/// full, a new record replaces the oldest in O(1).
#[derive(Debug, Clone)]
pub struct DebugLog {
    /// Frozen chunks of exactly `CHUNK` records, oldest first, shared with
    /// every clone.
    chunks: VecDeque<Arc<[LogEntry]>>,
    /// Records already dropped from the front of the first chunk.
    dropped: usize,
    /// The newest records, fewer than `CHUNK`.
    tail: Vec<LogEntry>,
    capacity: usize,
}

impl DebugLog {
    /// Default maximum number of retained messages.
    pub const DEFAULT_CAPACITY: usize = 10_000;

    /// Create a log retaining at most `capacity` messages (oldest dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        DebugLog {
            chunks: VecDeque::new(),
            dropped: 0,
            tail: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Create a log with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Record `event` for `cycle`.
    pub fn push(&mut self, cycle: u64, event: LogEvent) {
        if self.len() == self.capacity {
            self.drop_oldest();
        }
        if self.tail.len() == self.tail.capacity() {
            // A new tail, or a clone's, which holds only its records: make
            // room for a whole chunk once.
            self.tail.reserve_exact(CHUNK - self.tail.len());
        }
        self.tail.push(LogEntry { cycle, event });
        if self.tail.len() == CHUNK {
            self.chunks.push_back(self.tail.drain(..).collect());
        }
    }

    fn drop_oldest(&mut self) {
        if self.chunks.is_empty() {
            // A log smaller than a chunk keeps all its records in the tail.
            self.tail.remove(0);
            return;
        }
        self.dropped += 1;
        if self.dropped == CHUNK {
            self.chunks.pop_front();
            self.dropped = 0;
        }
    }

    /// All retained messages, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        let mut chunks = self.chunks.iter();
        let first = chunks.next().map_or(&[][..], |chunk| &chunk[self.dropped..]);
        first.iter().chain(chunks.flat_map(|chunk| chunk.iter())).chain(&self.tail)
    }

    /// Messages generated during `cycle`.
    pub fn at_cycle(&self, cycle: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries().filter(move |e| e.cycle == cycle)
    }

    /// Number of retained messages.
    pub fn len(&self) -> usize {
        self.chunks.len() * CHUNK - self.dropped + self.tail.len()
    }

    /// True when no messages are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all messages.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.dropped = 0;
        self.tail.clear();
    }
}

impl Default for DebugLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mispredict(pc: u64) -> LogEvent {
        LogEvent::Mispredict { mnemonic: Sym::new("bne"), pc, predicted: pc + 4, actual: 0x40 }
    }

    #[test]
    fn push_and_query() {
        let mut log = DebugLog::new();
        log.push(1, mispredict(0x10));
        log.push(2, LogEvent::PipelineEmpty);
        log.push(2, mispredict(0x20));
        assert_eq!(log.len(), 3);
        assert_eq!(log.at_cycle(2).count(), 2);
        assert_eq!(log.entries().next().unwrap().event, mispredict(0x10));
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn every_kind_renders_its_message() {
        let cases = [
            (mispredict(0x1c), "mispredicted bne at 0x1c: predicted 0x20, actual 0x40"),
            (
                LogEvent::Exception { pc: 0x8, exception: Box::new(Exception::DivisionByZero) },
                "exception at pc 0x8: integer division by zero",
            ),
            (
                LogEvent::StoreFault {
                    address: 0x40000,
                    error: Box::new(MemError::OutOfBounds {
                        address: 0x40000,
                        size: 4,
                        capacity: 65536,
                    }),
                },
                "store fault at 0x40000: 4-byte access at 0x40000 outside memory of 65536 bytes",
            ),
            (LogEvent::PipelineEmpty, "simulation finished: pipeline empty"),
        ];
        for (event, text) in cases {
            assert_eq!(event.to_string(), text);
        }
    }

    #[test]
    fn capacity_drops_oldest() {
        let mut log = DebugLog::with_capacity(2);
        log.push(1, mispredict(0xa));
        log.push(2, mispredict(0xb));
        log.push(3, mispredict(0xc));
        assert_eq!(log.len(), 2);
        let pcs: Vec<String> = log.entries().map(|e| e.event.to_string()).collect();
        assert!(pcs[0].contains("at 0xb:") && pcs[1].contains("at 0xc:"), "{pcs:?}");
    }

    #[test]
    fn a_full_log_keeps_the_newest_entries_in_order() {
        let mut log = DebugLog::new();
        let capacity = DebugLog::DEFAULT_CAPACITY as u64;
        for cycle in 0..3 * capacity {
            log.push(cycle, mispredict(cycle * 4));
        }
        assert_eq!(log.len(), DebugLog::DEFAULT_CAPACITY);
        assert!(log.entries().map(|e| e.cycle).eq(2 * capacity..3 * capacity));
        assert_eq!(log.entries().last().unwrap().event, mispredict((3 * capacity - 1) * 4));
    }

    fn cycles(log: &DebugLog) -> Vec<u64> {
        log.entries().map(|e| e.cycle).collect()
    }

    #[test]
    fn a_clone_shares_the_frozen_chunks() {
        let mut log = DebugLog::new();
        for cycle in 0..2 * CHUNK as u64 + 5 {
            log.push(cycle, mispredict(cycle));
        }
        let copy = log.clone();
        assert_eq!(copy.chunks.len(), 2);
        assert!(copy.chunks.iter().zip(&log.chunks).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(copy.tail, log.tail, "the tail is copied");
        assert_eq!(cycles(&copy), cycles(&log));
    }

    #[test]
    fn a_push_to_one_copy_does_not_appear_in_the_other() {
        let mut log = DebugLog::new();
        for cycle in 0..CHUNK as u64 - 3 {
            log.push(cycle, mispredict(cycle));
        }
        let mut copy = log.clone();
        copy.push(1_000, LogEvent::PipelineEmpty);
        // Fill and freeze the original's tail: the copy's tail is its own.
        for cycle in 2_000..2_010 {
            log.push(cycle, mispredict(cycle));
        }
        assert_eq!(copy.len(), CHUNK - 2);
        assert_eq!(copy.entries().last().unwrap().event, LogEvent::PipelineEmpty);
        assert_eq!(copy.chunks.len(), 0);
        assert_eq!(log.len(), CHUNK + 7);
        assert_eq!(log.chunks.len(), 1);
        assert!(log.entries().all(|e| e.cycle != 1_000));
        assert!(copy.entries().all(|e| e.cycle < 2_000));
    }

    #[test]
    fn dropping_the_oldest_at_capacity_keeps_the_order_across_chunks() {
        // A capacity that is not a multiple of the chunk size, so the
        // window's ends cross chunk boundaries at different pushes.
        let capacity = 2 * CHUNK + 9;
        let mut log = DebugLog::with_capacity(capacity);
        for cycle in 0..6 * CHUNK as u64 {
            log.push(cycle, mispredict(cycle));
            let first = (cycle + 1).saturating_sub(capacity as u64);
            assert_eq!(cycles(&log), (first..=cycle).collect::<Vec<_>>(), "after {cycle}");
            assert!(log.chunks.len() <= capacity / CHUNK + 1, "dropped chunks are released");
        }
        let copy = log.clone();
        log.push(10_000, LogEvent::PipelineEmpty);
        assert_eq!(copy.len(), capacity);
        assert_eq!(cycles(&copy)[0], 6 * CHUNK as u64 - capacity as u64);
        assert_eq!(cycles(&log)[0], 6 * CHUNK as u64 - capacity as u64 + 1);
    }
}
