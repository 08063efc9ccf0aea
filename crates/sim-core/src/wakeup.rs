//! Wake-up lists: for each rename register, the dispatched source operands
//! that wait for its value.
//!
//! A result wakes only its own waiters instead of offering its tag to every
//! in-flight instruction.  The lists are singly linked through two flat
//! arrays sized at construction, a head per rename register and a link per
//! reorder-buffer slot and source operand, so they never allocate and a
//! simulator clone copies them in two allocations.
//!
//! Dispatch runs in program order and pushes at the head, so every list
//! runs youngest first.  A flush squashes youngest first too, so a squashed
//! waiter is always at the head of its list when it is unlinked.

use crate::instruction::MAX_SOURCES;
use crate::register_file::PhysRegTag;

/// A waiting source operand: its instruction's reorder-buffer slot and its
/// index among the instruction's sources.
pub(crate) type Waiter = (usize, usize);

/// Marks the end of a list.
const END: u32 = u32::MAX;

/// Per-rename-register lists of waiting source operands.
#[derive(Debug, Clone)]
pub(crate) struct WakeupLists {
    /// Per rename register: its youngest waiter's link index, or `END`.
    heads: Vec<u32>,
    /// Per waiter (`slot * MAX_SOURCES + source`): the link index of the
    /// next older waiter on the same register, or `END`.
    next: Vec<u32>,
}

impl WakeupLists {
    /// Empty lists for `registers` rename registers and `slots` ROB slots.
    pub(crate) fn new(registers: usize, slots: usize) -> Self {
        WakeupLists { heads: vec![END; registers], next: vec![END; slots * MAX_SOURCES] }
    }

    fn link((slot, source): Waiter) -> u32 {
        (slot * MAX_SOURCES + source) as u32
    }

    /// Add `waiter`, just dispatched, to the waiters on `tag`.
    pub(crate) fn push(&mut self, tag: PhysRegTag, waiter: Waiter) {
        let link = Self::link(waiter);
        self.next[link as usize] = self.heads[tag.0];
        self.heads[tag.0] = link;
    }

    /// Unlink `waiter`, which is being squashed, from the waiters on `tag`.
    /// It must be the youngest of them.
    pub(crate) fn unlink(&mut self, tag: PhysRegTag, waiter: Waiter) {
        let link = Self::link(waiter);
        debug_assert_eq!(self.heads[tag.0], link, "squashed waiters leave youngest first");
        self.heads[tag.0] = self.next[link as usize];
    }

    /// Empty the list of `tag`, whose value was just written, and return
    /// its waiters youngest first.
    pub(crate) fn take(&mut self, tag: PhysRegTag) -> impl Iterator<Item = Waiter> + '_ {
        let head = std::mem::replace(&mut self.heads[tag.0], END);
        walk(&self.next, head)
    }

    /// The waiters on `tag`, youngest first.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn waiters(&self, tag: PhysRegTag) -> impl Iterator<Item = Waiter> + '_ {
        walk(&self.next, self.heads[tag.0])
    }

    /// Waiters on all registers.  A corrupt (cyclic) list stops counting
    /// past the number of links, so the count then exceeds any number of
    /// waiting sources.
    #[cfg(debug_assertions)]
    pub(crate) fn count(&self) -> usize {
        (0..self.heads.len())
            .map(|tag| self.waiters(PhysRegTag(tag)).take(self.next.len() + 1).count())
            .sum()
    }
}

fn walk(next: &[u32], head: u32) -> impl Iterator<Item = Waiter> + '_ {
    let mut link = head;
    std::iter::from_fn(move || {
        if link == END {
            return None;
        }
        let waiter = (link as usize / MAX_SOURCES, link as usize % MAX_SOURCES);
        link = next[link as usize];
        Some(waiter)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_run_youngest_first_and_take_empties_them() {
        let mut lists = WakeupLists::new(4, 8);
        let tag = PhysRegTag(2);
        lists.push(tag, (1, 0));
        lists.push(tag, (3, 1));
        lists.push(tag, (3, 2));
        lists.push(PhysRegTag(0), (4, 0));
        assert_eq!(lists.waiters(tag).collect::<Vec<_>>(), [(3, 2), (3, 1), (1, 0)]);
        assert_eq!(lists.take(tag).collect::<Vec<_>>(), [(3, 2), (3, 1), (1, 0)]);
        assert_eq!(lists.waiters(tag).count(), 0);
        assert_eq!(lists.waiters(PhysRegTag(0)).collect::<Vec<_>>(), [(4, 0)]);
    }

    #[test]
    fn unlinking_squashed_waiters_leaves_the_older_ones() {
        let mut lists = WakeupLists::new(2, 4);
        let tag = PhysRegTag(1);
        lists.push(tag, (0, 0));
        lists.push(tag, (1, 0));
        lists.push(tag, (2, 1));
        lists.unlink(tag, (2, 1));
        lists.unlink(tag, (1, 0));
        // The squashed slots are reused by the refetched path.
        lists.push(tag, (1, 1));
        assert_eq!(lists.take(tag).collect::<Vec<_>>(), [(1, 1), (0, 0)]);
    }
}
