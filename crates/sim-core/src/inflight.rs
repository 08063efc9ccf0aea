//! Slab/ring store for in-flight instructions, indexed by [`InstrId`].
//!
//! Instruction ids are allocated sequentially at fetch, retired from the
//! front (commit) and squashed from the back (flush), so the live window is
//! a contiguous id range with at most transient interior holes.  The seed
//! kept this window in a `BTreeMap<InstrId, SimCode>` — every lookup walked
//! a tree and every insert/remove rebalanced and allocated.  This ring maps
//! an id to `slots[id - base]` instead: O(1) access, in-order iteration and
//! zero allocation in steady state.

use crate::instruction::{InstrId, SimCode};
use std::collections::VecDeque;

/// Ring of in-flight instructions keyed by their sequential [`InstrId`].
#[derive(Debug, Clone, Default)]
pub struct InFlightRing {
    /// Id of `slots[0]`.
    base: InstrId,
    slots: VecDeque<Option<SimCode>>,
    live: usize,
}

impl InFlightRing {
    /// An empty ring whose next expected id is `first_id`.
    pub fn new(first_id: InstrId) -> Self {
        InFlightRing { base: first_id, slots: VecDeque::with_capacity(64), live: 0 }
    }

    /// Number of live (stored) instructions.
    pub fn live(&self) -> usize {
        self.live
    }

    /// True when no instruction is stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn index_of(&self, id: InstrId) -> Option<usize> {
        if id < self.base {
            return None;
        }
        let offset = (id - self.base) as usize;
        if offset < self.slots.len() {
            Some(offset)
        } else {
            None
        }
    }

    /// Insert a newly fetched instruction.  Ids must be monotonically
    /// increasing; squashed ids leave (bounded, trimmed) gaps.
    pub fn insert(&mut self, code: SimCode) {
        let id = code.id;
        debug_assert!(
            id >= self.base + self.slots.len() as u64,
            "in-flight ids must be inserted in increasing order"
        );
        while self.base + (self.slots.len() as u64) < id {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(code));
        self.live += 1;
    }

    /// Shared access by id.
    #[inline]
    pub fn get(&self, id: InstrId) -> Option<&SimCode> {
        self.index_of(id).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutable access by id.
    #[inline]
    pub fn get_mut(&mut self, id: InstrId) -> Option<&mut SimCode> {
        self.index_of(id).and_then(|i| self.slots[i].as_mut())
    }

    /// Remove and return the instruction with `id`, leaving its slot empty.
    /// Call [`Self::trim`] after a removal burst (or [`Self::put`] to return
    /// the instruction, e.g. around an execute step).
    pub fn take(&mut self, id: InstrId) -> Option<SimCode> {
        let i = self.index_of(id)?;
        let taken = self.slots[i].take();
        if taken.is_some() {
            self.live -= 1;
        }
        taken
    }

    /// Put an instruction back into the empty slot it was taken from.
    pub fn put(&mut self, code: SimCode) {
        let i = self.index_of(code.id).expect("put target inside the id window");
        debug_assert!(self.slots[i].is_none(), "put into an occupied slot");
        self.slots[i] = Some(code);
        self.live += 1;
    }

    /// Drop empty slots at the front of the window, reclaiming the id range
    /// of committed instructions.  Only the front is trimmed: a flush runs
    /// while the mispredicted branch is temporarily [`Self::take`]n out, so
    /// its (empty) slot must survive until [`Self::put`] restores it.
    /// Squashed trailing slots are reclaimed as the front advances past them.
    pub fn trim(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Live instructions in id (program) order.
    pub fn iter(&self) -> impl Iterator<Item = &SimCode> {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predecode::{LatencyClass, PredecodedInstr};
    use rvsim_isa::{DescriptorId, FunctionalClass, InlineVec, Sym};

    fn code(id: InstrId) -> SimCode {
        let entry = PredecodedInstr {
            desc: DescriptorId(0),
            mnemonic: Sym::new("add"),
            class: FunctionalClass::Fx,
            flops: 0,
            latency: LatencyClass::IntAlu,
            is_cond_branch: false,
            is_uncond_jump: false,
            is_direct_jal: false,
            static_target: 0,
            memory: None,
            srcs: InlineVec::new(),
            dst: None,
            imms: InlineVec::new(),
            store_data: None,
        };
        SimCode::fetched(id, id * 4, &entry, 7)
    }

    #[test]
    fn insert_get_take_put_round_trip() {
        let mut ring = InFlightRing::new(1);
        for id in 1..=4 {
            ring.insert(code(id));
        }
        assert_eq!(ring.live(), 4);
        assert_eq!(ring.get(2).unwrap().id, 2);
        assert!(ring.get(0).is_none());
        assert!(ring.get(5).is_none());

        let taken = ring.take(2).unwrap();
        assert_eq!(ring.live(), 3);
        assert!(ring.get(2).is_none());
        ring.put(taken);
        assert_eq!(ring.get(2).unwrap().id, 2);

        ring.get_mut(3).unwrap().flops = 9;
        assert_eq!(ring.get(3).unwrap().flops, 9);
    }

    #[test]
    fn trim_reclaims_the_front_and_gaps_survive() {
        let mut ring = InFlightRing::new(1);
        for id in 1..=5 {
            ring.insert(code(id));
        }
        // Commit 1, 2 (front) and squash 5 (back).
        ring.take(1);
        ring.take(2);
        ring.take(5);
        ring.trim();
        assert_eq!(ring.live(), 2);
        assert_eq!(ring.iter().map(|c| c.id).collect::<Vec<_>>(), vec![3, 4]);

        // A take + put round-trip keeps the slot valid (the write-back stage
        // holds an instruction out while it executes; trim is deferred until
        // nothing is out).
        let held = ring.take(3).unwrap();
        ring.put(held);
        assert_eq!(ring.get(3).unwrap().id, 3);

        // After a flush, fetch continues with fresh (gapped) ids.
        ring.insert(code(9));
        assert_eq!(ring.get(9).unwrap().id, 9);
        assert!(ring.get(6).is_none(), "gap ids are empty");
        assert_eq!(ring.iter().map(|c| c.id).collect::<Vec<_>>(), vec![3, 4, 9]);

        // Draining everything then trimming leaves an empty ring that still
        // accepts the next id.
        ring.take(3);
        ring.take(4);
        ring.take(9);
        ring.trim();
        assert!(ring.is_empty());
        ring.insert(code(10));
        assert_eq!(ring.iter().count(), 1);
    }
}
