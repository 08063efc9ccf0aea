//! Slab/ring store for in-flight instructions, indexed by [`InstrId`].
//!
//! Instruction ids are allocated sequentially at fetch, retired from the
//! front (commit) and squashed from the back (flush), so the live window is
//! a contiguous id range with at most transient interior holes.  The seed
//! kept this window in a `BTreeMap<InstrId, SimCode>` — every lookup walked
//! a tree and every insert/remove rebalanced and allocated.  This ring maps
//! an id to `slots[id - base]` instead: O(1) access, in-order iteration and
//! zero allocation in steady state.
//!
//! An instruction stays in its slot from fetch until it commits or is
//! squashed: the stages read and update it there through short borrows by
//! id, and removal drops it in place, so a `SimCode` is never moved after
//! it is inserted.

use crate::instruction::{InstrId, SimCode};
use std::collections::VecDeque;

/// Ring of in-flight instructions keyed by their sequential [`InstrId`].
#[derive(Debug, Clone, Default)]
pub struct InFlightRing {
    /// Id of `slots[0]`.
    base: InstrId,
    slots: VecDeque<Option<SimCode>>,
}

impl InFlightRing {
    /// An empty ring whose next expected id is `first_id`.
    pub fn new(first_id: InstrId) -> Self {
        InFlightRing { base: first_id, slots: VecDeque::with_capacity(64) }
    }

    /// True when no instruction is stored.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
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

    /// Drop the instruction with `id` in its slot (it committed), then
    /// reclaim the empty slots at the front of the window.
    pub fn remove(&mut self, id: InstrId) {
        if let Some(i) = self.index_of(id) {
            self.slots[i] = None;
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Drop every instruction younger than `id` (a flush squashed them).
    pub fn truncate_after(&mut self, id: InstrId) {
        let keep = (id + 1).saturating_sub(self.base) as usize;
        self.slots.truncate(keep);
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
    fn insert_get_and_remove_by_id() {
        let mut ring = InFlightRing::new(1);
        for id in 1..=4 {
            ring.insert(code(id));
        }
        assert_eq!(ring.get(2).unwrap().id, 2);
        assert!(ring.get(0).is_none());
        assert!(ring.get(5).is_none());

        // Removing an instruction behind the front leaves a hole that the
        // front reclaims once it gets there.
        ring.remove(2);
        assert!(ring.get(2).is_none());
        assert_eq!(ring.iter().map(|c| c.id).collect::<Vec<_>>(), vec![1, 3, 4]);

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
        ring.remove(1);
        ring.remove(2);
        ring.truncate_after(4);
        assert_eq!(ring.iter().map(|c| c.id).collect::<Vec<_>>(), vec![3, 4]);
        assert!(ring.get(5).is_none());

        // After a flush, fetch continues with fresh (gapped) ids.
        ring.insert(code(9));
        assert_eq!(ring.get(9).unwrap().id, 9);
        assert!(ring.get(6).is_none(), "gap ids are empty");
        assert_eq!(ring.iter().map(|c| c.id).collect::<Vec<_>>(), vec![3, 4, 9]);

        // Draining everything leaves an empty ring that still accepts the
        // next id.
        ring.remove(3);
        ring.remove(4);
        assert_eq!(ring.get(9).unwrap().id, 9, "the front skips the gap");
        ring.remove(9);
        assert!(ring.is_empty());
        ring.insert(code(10));
        assert_eq!(ring.iter().count(), 1);
        ring.truncate_after(9);
        assert!(ring.is_empty());
    }
}
