//! Cycle-stamped debug log (the right-hand panel's log view, §II-A).
//!
//! The simulate loop records structured events (a cycle, a kind and its
//! operands) and the message text is rendered only when the log is read.
//! Logging a mispredict therefore allocates nothing, and copying the log for
//! a checkpoint copies plain records, not strings.

use rvsim_isa::{Exception, Sym};
use rvsim_mem::MemError;
use std::collections::VecDeque;
use std::fmt;

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
    entries: VecDeque<LogEntry>,
    capacity: usize,
}

impl DebugLog {
    /// Default maximum number of retained messages.
    pub const DEFAULT_CAPACITY: usize = 10_000;

    /// Create a log retaining at most `capacity` messages (oldest dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        DebugLog { entries: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// Create a log with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Record `event` for `cycle`.
    pub fn push(&mut self, cycle: u64, event: LogEvent) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(LogEntry { cycle, event });
    }

    /// All retained messages, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }

    /// Messages generated during `cycle`.
    pub fn at_cycle(&self, cycle: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().filter(move |e| e.cycle == cycle)
    }

    /// Number of retained messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no messages are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all messages.
    pub fn clear(&mut self) {
        self.entries.clear();
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
}
