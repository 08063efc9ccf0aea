//! Local / global branch-history shift registers.
//!
//! The Branch Prediction settings tab lets the user choose between one global
//! history register shared by all branches, or per-branch local history
//! registers (selected by the branch PC).  The history value is combined with
//! the branch PC to index the pattern history table.

use serde::{Deserialize, Serialize};

/// Which history organisation is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HistoryKind {
    /// One shared shift register (gshare-style indexing).
    #[default]
    Global,
    /// A table of per-branch shift registers.
    Local,
}

/// History shift registers (global or local).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryRegisters {
    kind: HistoryKind,
    bits: u32,
    global: u64,
    local: Vec<u64>,
}

impl HistoryRegisters {
    /// Create history storage.  `bits` is the history length (0 disables
    /// history; the PHT is then indexed by PC alone).  `local_entries` sizes
    /// the local-history table (power of two recommended).
    pub fn new(kind: HistoryKind, bits: u32, local_entries: usize) -> Self {
        HistoryRegisters {
            kind,
            bits: bits.min(32),
            global: 0,
            local: vec![0; local_entries.max(1)],
        }
    }

    /// Organisation in use.
    pub fn kind(&self) -> HistoryKind {
        self.kind
    }

    /// History length in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    fn mask(&self) -> u64 {
        if self.bits == 0 {
            0
        } else {
            (1u64 << self.bits) - 1
        }
    }

    fn local_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.local.len()
    }

    /// Current history value for the branch at `pc`.
    pub fn value(&self, pc: u64) -> u64 {
        match self.kind {
            HistoryKind::Global => self.global & self.mask(),
            HistoryKind::Local => self.local[self.local_index(pc)] & self.mask(),
        }
    }

    /// Shift the real outcome of the branch at `pc` into its history register.
    pub fn record(&mut self, pc: u64, taken: bool) {
        if self.bits == 0 {
            return;
        }
        let bit = taken as u64;
        match self.kind {
            HistoryKind::Global => {
                self.global = ((self.global << 1) | bit) & self.mask();
            }
            HistoryKind::Local => {
                let idx = self.local_index(pc);
                self.local[idx] = ((self.local[idx] << 1) | bit) & self.mask();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_history_is_shared_between_branches() {
        let mut h = HistoryRegisters::new(HistoryKind::Global, 4, 16);
        h.record(0x10, true);
        h.record(0x20, false);
        h.record(0x30, true);
        // 0b101 regardless of which PC asks.
        assert_eq!(h.value(0x10), 0b101);
        assert_eq!(h.value(0xffc), 0b101);
    }

    #[test]
    fn local_history_is_per_branch() {
        let mut h = HistoryRegisters::new(HistoryKind::Local, 4, 16);
        h.record(0x10, true);
        h.record(0x10, true);
        h.record(0x20, false);
        assert_eq!(h.value(0x10), 0b11);
        assert_eq!(h.value(0x20), 0b0);
        // Different PC mapping to a different entry starts clean.
        assert_eq!(h.value(0x14), 0);
    }

    #[test]
    fn history_is_masked_to_width() {
        let mut h = HistoryRegisters::new(HistoryKind::Global, 2, 1);
        for _ in 0..10 {
            h.record(0, true);
        }
        assert_eq!(h.value(0), 0b11, "only 2 bits retained");
    }

    #[test]
    fn zero_bits_disables_history() {
        let mut h = HistoryRegisters::new(HistoryKind::Global, 0, 1);
        h.record(0, true);
        h.record(0, true);
        assert_eq!(h.value(0), 0);
    }

    #[test]
    fn width_is_clamped_to_64_safe_range() {
        let h = HistoryRegisters::new(HistoryKind::Global, 40, 1);
        assert_eq!(h.bits(), 32);
    }

    #[test]
    fn local_aliasing_wraps_by_table_size() {
        let mut h = HistoryRegisters::new(HistoryKind::Local, 4, 2);
        // pc>>2 % 2: 0x10 -> 0, 0x14 -> 1, 0x18 -> 0 (aliases with 0x10).
        h.record(0x10, true);
        assert_eq!(h.value(0x18), 1, "aliased entries share history");
        assert_eq!(h.value(0x14), 0);
    }
}
