//! Pipeline resources: reorder buffer, issue windows, functional units and
//! load/store buffers.
//!
//! These are deliberately simple containers of [`InstrId`]s — all per-
//! instruction state lives in [`crate::SimCode`], exactly like the paper's
//! blocks that hold "lists of active instructions".  None of them owns a
//! name or a configuration: both are fixed at construction and read from
//! the simulator's shared image, so a clone copies only what changes.

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

    /// `index` modulo the capacity, for an `index` below twice the capacity
    /// (a compare instead of a division).
    fn wrap(&self, index: usize) -> usize {
        if index >= self.capacity {
            index - self.capacity
        } else {
            index
        }
    }

    fn slot_at(&self, position: usize) -> usize {
        self.wrap(self.head_slot + position)
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
        self.head_slot = self.wrap(self.head_slot + 1);
        Some(id)
    }

    /// The instruction in an occupied `slot`.
    pub fn id_in(&self, slot: usize) -> InstrId {
        self.entries[self.wrap(slot + self.capacity - self.head_slot)]
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
///
/// It counts the instructions that wait in it and keeps the ready ones (all
/// source values known) in age order, so issue takes the oldest ready
/// instruction a unit can execute without looking at the others.  Dispatch
/// adds an instruction as ready or not; the wake-up that delivers its last
/// source value marks it ready.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IssueWindow {
    /// Instructions waiting in the window, ready or not.
    len: usize,
    /// The ready ones, oldest (lowest id) first.
    ready: Vec<Ready>,
    capacity: usize,
}

/// A ready instruction in an [`IssueWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ready {
    /// The instruction.
    pub id: InstrId,
    /// True when it needs a multiply/divide-capable unit.
    pub mul_div: bool,
}

impl IssueWindow {
    /// Create a window with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        IssueWindow { len: 0, ready: Vec::with_capacity(capacity), capacity }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when another instruction fits.
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Insert a just-dispatched instruction, the youngest in the window.
    pub fn insert(&mut self, entry: Ready, ready: bool) {
        debug_assert!(self.has_space(), "issue window overflow");
        debug_assert!(self.ready.last().is_none_or(|r| r.id < entry.id), "dispatch is in order");
        self.len += 1;
        if ready {
            self.ready.push(entry);
        }
    }

    /// Mark a waiting instruction ready: its last source value arrived.
    pub fn mark_ready(&mut self, entry: Ready) {
        let at = self.ready.partition_point(|r| r.id < entry.id);
        debug_assert!(self.ready.get(at) != Some(&entry), "marked ready twice");
        self.ready.insert(at, entry);
    }

    /// Remove and return the oldest ready instruction, skipping those that
    /// need a multiply/divide unit unless `mul_div` is true.
    pub fn issue(&mut self, mul_div: bool) -> Option<InstrId> {
        let at = self.ready.iter().position(|r| mul_div || !r.mul_div)?;
        self.len -= 1;
        Some(self.ready.remove(at).id)
    }

    /// Remove `id`, the youngest instruction in the window: a flush squashed
    /// it.
    pub fn squash_youngest(&mut self, id: InstrId) {
        self.len -= 1;
        if self.ready.last().map(|r| r.id) == Some(id) {
            self.ready.pop();
        }
    }

    /// The ready instructions, oldest first.
    pub fn ready(&self) -> impl Iterator<Item = Ready> + '_ {
        self.ready.iter().copied()
    }
}

// ---------------------------------------------------------------------------
// Functional units
// ---------------------------------------------------------------------------

/// A non-pipelined functional unit: it executes one instruction at a time and
/// is busy for the instruction's full latency (the paper notes that internal
/// pipelining is not modelled).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FunctionalUnit {
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadEntry {
    /// Owning instruction.
    pub id: InstrId,
    /// Effective address, once computed.
    pub address: Option<u64>,
    /// Access size in bytes.
    pub size: usize,
    /// Cycle the memory transaction completes, once issued.
    pub completion: Option<u64>,
    /// The loaded or store-forwarded data, from its transaction's start
    /// until the memory stage delivers it to the load.
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

/// An entry of a load or store buffer.
pub trait AccessEntry {
    /// The instruction that owns the entry.
    fn id(&self) -> InstrId;
}

impl AccessEntry for LoadEntry {
    fn id(&self) -> InstrId {
        self.id
    }
}

impl AccessEntry for StoreEntry {
    fn id(&self) -> InstrId {
        self.id
    }
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

impl<T: AccessEntry> AccessBuffer<T> {
    /// The entry of instruction `id`, found by binary search: the entries
    /// are in id order.
    pub fn get_mut_by_id(&mut self, id: InstrId) -> Option<&mut T> {
        let index = self.entries.binary_search_by_key(&id, T::id).ok()?;
        Some(&mut self.entries[index])
    }

    /// Remove the entries of instructions younger than `id`.
    pub fn truncate_after(&mut self, id: InstrId) {
        let keep = self.entries.partition_point(|e| e.id() <= id);
        self.entries.truncate(keep);
    }
}

impl<T> std::ops::Index<usize> for AccessBuffer<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.entries[index]
    }
}

impl<T> std::ops::IndexMut<usize> for AccessBuffer<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut self.entries[index]
    }
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

    /// Remove and return the entry at `index`.
    pub fn remove(&mut self, index: usize) -> T {
        self.entries.remove(index)
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
    fn issue_window_keeps_ready_entries_in_age_order() {
        let ready = |id| Ready { id, mul_div: false };
        let mut w = IssueWindow::new(4);
        w.insert(ready(5), false);
        w.insert(Ready { id: 7, mul_div: true }, true);
        w.insert(ready(9), true);
        w.insert(ready(11), false);
        assert!(!w.has_space());
        assert_eq!(w.ready().map(|r| r.id).collect::<Vec<_>>(), vec![7, 9]);
        w.mark_ready(ready(5));
        assert_eq!(w.ready().map(|r| r.id).collect::<Vec<_>>(), vec![5, 7, 9], "oldest first");
        assert_eq!(w.issue(true), Some(5));
        assert_eq!(w.issue(false), Some(9), "a unit without mul/div skips 7");
        assert_eq!(w.len(), 2);
        w.squash_youngest(11);
        assert_eq!(w.len(), 1);
        w.squash_youngest(7);
        assert!(w.is_empty());
        assert_eq!(w.issue(true), None);
    }

    #[test]
    fn functional_unit_busy_tracking() {
        let mut fu = FunctionalUnit::default();
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
        let mut fu = FunctionalUnit::default();
        fu.start(1, 5, 0);
        assert_eq!(fu.busy_until, 6, "latency is at least one cycle");
    }

    #[test]
    fn functional_unit_squash() {
        let mut fu = FunctionalUnit::default();
        fu.start(10, 0, 2);
        assert_eq!(fu.squash_after(12), None, "older instruction survives");
        assert_eq!(fu.squash_after(5), Some(10), "younger instruction squashed");
        assert!(fu.is_free(0));
    }

    #[test]
    fn access_buffer_capacity_and_retain() {
        let mut lb: LoadBuffer = AccessBuffer::new(3);
        for id in [1, 2, 4] {
            lb.push(LoadEntry { id, address: None, size: 4, completion: None, forwarded: None });
        }
        assert!(!lb.has_space());
        lb.remove(0);
        assert_eq!(lb.len(), 2);
        assert!(lb.has_space());
        assert_eq!(lb.front().unwrap().id, 2);
        lb.get_mut_by_id(4).unwrap().completion = Some(9);
        assert!(lb.get_mut_by_id(3).is_none());
        assert_eq!(lb[1].completion, Some(9));
        lb.truncate_after(3);
        assert_eq!(lb.iter().map(|e| e.id).collect::<Vec<_>>(), vec![2]);
        assert_eq!(lb.pop_front().map(|e| e.id), Some(2));
        assert!(lb.is_empty());
    }
}
