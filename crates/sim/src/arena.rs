//! Generational leg arena: flat storage for per-request work units.
//!
//! The fault-aware open loop grows one leg record per dispatch,
//! and a request can be re-dispatched several times (crash re-queues,
//! retries). Storing those legs as a `Vec` inside every request makes
//! each request a separate heap allocation that reallocates as legs
//! arrive — millions of tiny allocations on the hot path. A
//! [`LegArena`] instead keeps *all* legs of a run in one flat `Vec` and
//! threads each request's legs through it as an intrusive singly-linked
//! list ([`LegList`]): pushing a leg is an amortized-O(1) append to the
//! shared buffer, and a request is just a 12-byte list head.
//!
//! References into the arena are **generational** ([`LegRef`]): the
//! arena stamps every reference with its current generation, and
//! [`LegArena::reset`] bumps the generation while clearing the storage,
//! so a stale reference held across runs is caught by a debug assertion
//! instead of silently reading another run's leg. Slots are never freed
//! individually — engines void legs in place and drop the whole arena
//! (or [`LegArena::reset`] it) at the end of a run, which is what makes
//! the flat layout safe.
//!
//! Iteration over a request's legs is forward, in insertion order —
//! exactly the order the engines' finalize scans and trace exporters
//! relied on when the legs were a `Vec`. "Last matching leg" queries
//! (`.rev().find(..)` on a `Vec`) become `.filter(..).last()` on the
//! forward iterator, which visits the same elements and returns the
//! same leg.

/// Sentinel for "no slot" in the intrusive links.
const NONE: u32 = u32::MAX;

/// A generational reference to one leg in a [`LegArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegRef {
    slot: u32,
    generation: u32,
}

/// One request's chain of legs inside a [`LegArena`]: a 12-byte
/// `(head, tail, len)` triple instead of an owning `Vec`.
#[derive(Debug, Clone, Copy)]
pub struct LegList {
    head: u32,
    tail: u32,
    len: u32,
}

impl LegList {
    /// An empty chain.
    #[must_use]
    pub fn new() -> Self {
        LegList {
            head: NONE,
            tail: NONE,
            len: 0,
        }
    }

    /// Number of legs in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no leg has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for LegList {
    fn default() -> Self {
        LegList::new()
    }
}

struct Slot<L> {
    leg: L,
    next: u32,
}

/// Flat generational storage for every leg of one simulation run. See
/// the module docs for the layout and invalidation contract.
pub struct LegArena<L> {
    slots: Vec<Slot<L>>,
    generation: u32,
}

impl<L> LegArena<L> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        LegArena {
            slots: Vec::new(),
            generation: 0,
        }
    }

    /// An empty arena with room for `cap` legs before reallocating.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        LegArena {
            slots: Vec::with_capacity(cap),
            generation: 0,
        }
    }

    /// Total legs stored (across every chain).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no chain holds any leg.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends `leg` to `list`'s chain and returns a stable reference
    /// to it. O(1); never moves previously stored legs.
    pub fn push(&mut self, list: &mut LegList, leg: L) -> LegRef {
        let slot = self.slots.len() as u32;
        debug_assert!(slot != NONE, "leg arena full");
        self.slots.push(Slot { leg, next: NONE });
        if list.head == NONE {
            list.head = slot;
        } else {
            self.slots[list.tail as usize].next = slot;
        }
        list.tail = slot;
        list.len += 1;
        LegRef {
            slot,
            generation: self.generation,
        }
    }

    /// The leg `r` points at. Debug-asserts that `r` belongs to the
    /// arena's current generation.
    #[must_use]
    pub fn get(&self, r: LegRef) -> &L {
        debug_assert_eq!(r.generation, self.generation, "stale leg reference");
        &self.slots[r.slot as usize].leg
    }

    /// Mutable access to the leg `r` points at (used by crash voiding
    /// and shed eviction, which hold refs from the in-flight lists).
    pub fn get_mut(&mut self, r: LegRef) -> &mut L {
        debug_assert_eq!(r.generation, self.generation, "stale leg reference");
        &mut self.slots[r.slot as usize].leg
    }

    /// Iterates `list`'s legs in insertion order.
    pub fn iter(&self, list: LegList) -> LegIter<'_, L> {
        LegIter {
            arena: self,
            cur: list.head,
            remaining: list.len,
        }
    }

    /// Clears the storage and bumps the generation, invalidating every
    /// outstanding [`LegRef`] (caught by debug assertions on access).
    /// Capacity is retained, so a reused arena allocates nothing.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.generation = self.generation.wrapping_add(1);
    }
}

impl<L> Default for LegArena<L> {
    fn default() -> Self {
        LegArena::new()
    }
}

/// Forward iterator over one chain's legs. See [`LegArena::iter`].
pub struct LegIter<'a, L> {
    arena: &'a LegArena<L>,
    cur: u32,
    remaining: u32,
}

impl<'a, L> Iterator for LegIter<'a, L> {
    type Item = &'a L;

    fn next(&mut self) -> Option<&'a L> {
        if self.cur == NONE {
            return None;
        }
        let slot = &self.arena.slots[self.cur as usize];
        self.cur = slot.next;
        self.remaining = self.remaining.saturating_sub(1);
        Some(&slot.leg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl<L> ExactSizeIterator for LegIter<'_, L> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_are_independent_and_ordered() {
        let mut arena = LegArena::with_capacity(8);
        let mut a = LegList::new();
        let mut b = LegList::new();
        // Interleave pushes so the chains are physically interleaved in
        // the flat buffer.
        arena.push(&mut a, 1);
        arena.push(&mut b, 10);
        arena.push(&mut a, 2);
        arena.push(&mut b, 20);
        let ra3 = arena.push(&mut a, 3);
        assert_eq!(arena.iter(a).copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(arena.iter(b).copied().collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(arena.len(), 5);
        assert_eq!(*arena.get(ra3), 3);
        *arena.get_mut(ra3) = 30;
        assert_eq!(arena.iter(a).copied().collect::<Vec<_>>(), vec![1, 2, 30]);
    }

    #[test]
    fn empty_list_iterates_nothing() {
        let arena: LegArena<u32> = LegArena::new();
        let list = LegList::default();
        assert!(list.is_empty());
        assert_eq!(arena.iter(list).count(), 0);
        assert!(arena.is_empty());
    }

    #[test]
    fn last_matching_equals_vec_rev_find() {
        // The engines replaced `.iter().rev().find(p)` with
        // `.iter().filter(p).last()`; pin the equivalence.
        let mut arena = LegArena::new();
        let mut l = LegList::new();
        for v in [4, 7, 9, 7, 2] {
            arena.push(&mut l, v);
        }
        let vec: Vec<i32> = arena.iter(l).copied().collect();
        let odd = |x: &&i32| **x % 2 == 1;
        assert_eq!(arena.iter(l).filter(odd).last(), vec.iter().rev().find(odd));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale leg reference")]
    fn reset_invalidates_refs() {
        let mut arena = LegArena::new();
        let mut l = LegList::new();
        let r = arena.push(&mut l, 1);
        arena.reset();
        let _ = arena.get(r);
    }

    #[test]
    fn reset_retains_capacity_and_restarts() {
        let mut arena = LegArena::with_capacity(4);
        let mut l = LegList::new();
        arena.push(&mut l, 1);
        arena.reset();
        assert!(arena.is_empty());
        let mut m = LegList::new();
        let r = arena.push(&mut m, 5);
        assert_eq!(*arena.get(r), 5);
        assert_eq!(arena.iter(m).count(), 1);
    }
}
