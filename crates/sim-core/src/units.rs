//! Pipeline resources: reorder buffer, issue windows, functional units and
//! load/store buffers.
//!
//! These are deliberately simple containers of [`InstrId`]s — all per-
//! instruction state lives in [`crate::SimCode`], exactly like the paper's
//! blocks that hold "lists of active instructions".

use crate::instruction::InstrId;
use rvsim_isa::TypedValue;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Reorder buffer
// ---------------------------------------------------------------------------

/// The reorder (retire) buffer: instruction ids in program order.
///
/// It is a ring of `capacity` slots, and an instruction keeps its slot from
/// dispatch until it commits or is squashed, so per-instruction side tables
/// (the wake-up lists) are flat arrays indexed by slot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReorderBuffer {
    entries: VecDeque<InstrId>,
    capacity: usize,
    /// Slot of the oldest entry.
    head_slot: usize,
}

impl ReorderBuffer {
    /// Create a ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ReorderBuffer { entries: VecDeque::with_capacity(capacity), capacity, head_slot: 0 }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no instruction is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when another instruction can be inserted.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn slot_at(&self, position: usize) -> usize {
        (self.head_slot + position) % self.capacity
    }

    /// Append an instruction (program order) and return its slot.
    pub fn push(&mut self, id: InstrId) -> usize {
        debug_assert!(self.has_space(), "ROB overflow");
        self.entries.push_back(id);
        self.slot_at(self.entries.len() - 1)
    }

    /// Oldest instruction, if any.
    pub fn head(&self) -> Option<InstrId> {
        self.entries.front().copied()
    }

    /// Remove and return the oldest instruction.
    pub fn pop_head(&mut self) -> Option<InstrId> {
        let id = self.entries.pop_front()?;
        self.head_slot = (self.head_slot + 1) % self.capacity;
        Some(id)
    }

    /// The instruction in an occupied `slot`.
    pub fn id_in(&self, slot: usize) -> InstrId {
        self.entries[(slot + self.capacity - self.head_slot) % self.capacity]
    }

    /// All entries in program order.
    pub fn iter(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.entries.iter().copied()
    }

    /// All entries in program order, each with its slot.
    pub fn slots(&self) -> impl Iterator<Item = (usize, InstrId)> + '_ {
        self.entries.iter().enumerate().map(|(position, &id)| (self.slot_at(position), id))
    }

    /// Remove the youngest instruction if it is younger than `id`, and return
    /// it with its slot.  Calling this until it returns `None` squashes
    /// everything younger than `id` youngest-first, the order rename
    /// rollback needs.
    pub fn pop_younger_than(&mut self, id: InstrId) -> Option<(InstrId, usize)> {
        let youngest = *self.entries.back()?;
        if youngest <= id {
            return None;
        }
        self.entries.pop_back();
        Some((youngest, self.slot_at(self.entries.len())))
    }
}

// ---------------------------------------------------------------------------
// Issue windows
// ---------------------------------------------------------------------------

/// An issue window for one functional-unit class.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IssueWindow {
    /// Display name ("FX issue window", …).
    pub name: String,
    entries: Vec<InstrId>,
    capacity: usize,
}

impl IssueWindow {
    /// Create a window with `capacity` entries.
    pub fn new(name: &str, capacity: usize) -> Self {
        IssueWindow { name: name.to_string(), entries: Vec::with_capacity(capacity), capacity }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the window holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when another instruction fits.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Insert an instruction.
    pub fn insert(&mut self, id: InstrId) {
        debug_assert!(self.has_space(), "issue window overflow");
        self.entries.push(id);
    }

    /// Remove a specific instruction (issued or squashed).
    pub fn remove(&mut self, id: InstrId) {
        self.entries.retain(|&e| e != id);
    }

    /// Remove every instruction younger than `id`.
    pub fn squash_after(&mut self, id: InstrId) {
        self.entries.retain(|&e| e <= id);
    }

    /// Entries in insertion (program) order.
    pub fn iter(&self) -> impl Iterator<Item = InstrId> + '_ {
        self.entries.iter().copied()
    }
}

// ---------------------------------------------------------------------------
// Functional units
// ---------------------------------------------------------------------------

/// A non-pipelined functional unit: it executes one instruction at a time and
/// is busy for the instruction's full latency (the paper notes that internal
/// pipelining is not modelled).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FunctionalUnit {
    /// Display name ("FX1", "FP1", "LS", "BR", …).
    pub name: String,
    /// Instruction currently executing.
    pub current: Option<InstrId>,
    /// Cycle at which the current instruction finishes.
    pub busy_until: u64,
    /// Total cycles this unit spent busy (statistics).
    pub busy_cycles: u64,
    /// Total instructions executed by this unit.
    pub executed: u64,
}

impl FunctionalUnit {
    /// Create an idle unit.
    pub fn new(name: &str) -> Self {
        FunctionalUnit {
            name: name.to_string(),
            current: None,
            busy_until: 0,
            busy_cycles: 0,
            executed: 0,
        }
    }

    /// True when the unit can accept a new instruction at `cycle`.
    pub fn is_free(&self, cycle: u64) -> bool {
        self.current.is_none() || self.busy_until <= cycle
    }

    /// True when the unit holds an instruction that finishes at or before `cycle`.
    pub fn finishes_at(&self, cycle: u64) -> Option<InstrId> {
        match self.current {
            Some(id) if self.busy_until <= cycle => Some(id),
            _ => None,
        }
    }

    /// Start executing `id` for `latency` cycles beginning at `cycle`.
    pub fn start(&mut self, id: InstrId, cycle: u64, latency: u64) {
        debug_assert!(self.is_free(cycle));
        self.current = Some(id);
        self.busy_until = cycle + latency.max(1);
        self.busy_cycles += latency.max(1);
        self.executed += 1;
    }

    /// Release the unit (instruction finished or squashed).
    pub fn release(&mut self) {
        self.current = None;
    }

    /// Squash the unit's instruction if it is younger than `id`.
    pub fn squash_after(&mut self, id: InstrId) -> Option<InstrId> {
        match self.current {
            Some(cur) if cur > id => {
                self.current = None;
                Some(cur)
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Load / store buffers
// ---------------------------------------------------------------------------

/// A load-buffer entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadEntry {
    /// Owning instruction.
    pub id: InstrId,
    /// Effective address, once computed.
    pub address: Option<u64>,
    /// Access size in bytes.
    pub size: usize,
    /// Cycle the memory transaction completes, once issued.
    pub completion: Option<u64>,
    /// Value forwarded from an older store, if any.
    pub forwarded: Option<TypedValue>,
}

/// A store-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreEntry {
    /// Owning instruction.
    pub id: InstrId,
    /// Effective address, once computed.
    pub address: Option<u64>,
    /// Access size in bytes.
    pub size: usize,
    /// Value to store, once read.
    pub value: Option<u64>,
}

/// A simple bounded buffer of load or store entries, kept in program order.
/// Commit takes entries from the front.  It is a `Vec`, not a `VecDeque`:
/// the memory stage scans both buffers every cycle, and those scans cost
/// more over a `VecDeque` than shifting a few entries at commit does.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AccessBuffer<T> {
    entries: Vec<T>,
    capacity: usize,
}

impl<T> AccessBuffer<T> {
    /// Create a buffer with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        AccessBuffer { entries: Vec::with_capacity(capacity), capacity }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when another entry fits.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Append an entry (program order).
    pub fn push(&mut self, entry: T) {
        debug_assert!(self.has_space(), "load/store buffer overflow");
        self.entries.push(entry);
    }

    /// The oldest entry, if any.
    pub fn front(&self) -> Option<&T> {
        self.entries.first()
    }

    /// Remove and return the oldest entry.
    pub fn pop_front(&mut self) -> Option<T> {
        (!self.entries.is_empty()).then(|| self.entries.remove(0))
    }

    /// Iterate entries in program order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Iterate entries mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut()
    }

    /// Remove entries matching the predicate.
    pub fn retain(&mut self, f: impl FnMut(&T) -> bool) {
        self.entries.retain(f);
    }
}

/// Load buffer.
pub type LoadBuffer = AccessBuffer<LoadEntry>;
/// Store buffer.
pub type StoreBuffer = AccessBuffer<StoreEntry>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rob_order_and_squash() {
        let mut rob = ReorderBuffer::new(4);
        assert!(rob.is_empty());
        rob.push(1);
        rob.push(2);
        rob.push(3);
        rob.push(4);
        assert!(!rob.has_space());
        assert_eq!(rob.head(), Some(1));
        assert_eq!(rob.pop_younger_than(2), Some((4, 3)), "youngest first, with its slot");
        assert_eq!(rob.pop_younger_than(2), Some((3, 2)));
        assert_eq!(rob.pop_younger_than(2), None);
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.pop_head(), Some(1));
        assert_eq!(rob.pop_head(), Some(2));
        assert_eq!(rob.pop_head(), None);
    }

    #[test]
    fn rob_slots_wrap_and_stay_with_their_instruction() {
        let mut rob = ReorderBuffer::new(3);
        assert_eq!([rob.push(1), rob.push(2)], [0, 1]);
        rob.pop_head();
        assert_eq!([rob.push(3), rob.push(4)], [2, 0], "slots wrap around the ring");
        assert_eq!(rob.slots().collect::<Vec<_>>(), vec![(1, 2), (2, 3), (0, 4)]);
        assert_eq!([rob.id_in(1), rob.id_in(2), rob.id_in(0)], [2, 3, 4]);
        assert_eq!(rob.pop_younger_than(2), Some((4, 0)));
        assert_eq!(rob.push(9), 0, "a squashed slot is reused");
    }

    #[test]
    fn issue_window_insert_remove_squash() {
        let mut w = IssueWindow::new("FX window", 3);
        w.insert(5);
        w.insert(7);
        w.insert(9);
        assert!(!w.has_space());
        w.remove(7);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![5, 9]);
        w.squash_after(5);
        assert_eq!(w.iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn functional_unit_busy_tracking() {
        let mut fu = FunctionalUnit::new("FX1");
        assert!(fu.is_free(0));
        fu.start(3, 10, 4);
        assert!(!fu.is_free(12));
        assert!(fu.is_free(14));
        assert_eq!(fu.finishes_at(13), None);
        assert_eq!(fu.finishes_at(14), Some(3));
        assert_eq!(fu.busy_cycles, 4);
        assert_eq!(fu.executed, 1);
        fu.release();
        assert!(fu.is_free(0));
    }

    #[test]
    fn functional_unit_zero_latency_clamped() {
        let mut fu = FunctionalUnit::new("FX1");
        fu.start(1, 5, 0);
        assert_eq!(fu.busy_until, 6, "latency is at least one cycle");
    }

    #[test]
    fn functional_unit_squash() {
        let mut fu = FunctionalUnit::new("BR");
        fu.start(10, 0, 2);
        assert_eq!(fu.squash_after(12), None, "older instruction survives");
        assert_eq!(fu.squash_after(5), Some(10), "younger instruction squashed");
        assert!(fu.is_free(0));
    }

    #[test]
    fn access_buffer_capacity_and_retain() {
        let mut lb: LoadBuffer = AccessBuffer::new(2);
        lb.push(LoadEntry { id: 1, address: None, size: 4, completion: None, forwarded: None });
        lb.push(LoadEntry { id: 2, address: Some(8), size: 4, completion: None, forwarded: None });
        assert!(!lb.has_space());
        lb.retain(|e| e.id != 1);
        assert_eq!(lb.len(), 1);
        assert!(lb.has_space());
        assert_eq!(lb.front().unwrap().id, 2);
        for e in lb.iter_mut() {
            e.completion = Some(9);
        }
        assert_eq!(lb.iter().next().unwrap().completion, Some(9));
        assert_eq!(lb.pop_front().map(|e| e.id), Some(2));
        assert!(lb.is_empty());
    }
}
