//! An intrusive doubly-linked list that keeps the slots of a fixed-size
//! table in the order they were last pushed, so the oldest slot, the
//! victim of LRU or FIFO replacement, is found in O(1).
//!
//! Each slot carries its own [`Link`], so the list allocates nothing: the
//! table's one slot array holds the order too. The stride table, the
//! index table's bucket buffer and the ideal prefetcher's bounded index
//! push a slot on every use (LRU); the prefetch buffer pushes a slot only
//! when it fills it (FIFO). Slots are never removed: each table replaces
//! only once all its slots are in use.

/// Marks the ends of the list, and an unlinked slot.
const NIL: u32 = u32::MAX;

/// A slot's neighbours in a [`RecencyList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Neighbour towards the newest end.
    newer: u32,
    /// Neighbour towards the oldest end.
    older: u32,
}

impl Default for Link {
    fn default() -> Self {
        Link {
            newer: NIL,
            older: NIL,
        }
    }
}

/// A table slot that carries its [`Link`].
pub trait Linked {
    /// The slot's link.
    fn link(&mut self) -> &mut Link;
}

/// The ends of a list threaded through a table's slots, newest to oldest.
///
/// # Example
///
/// ```
/// use stms_mem::recency::{Link, Linked, RecencyList};
///
/// #[derive(Default)]
/// struct Slot {
///     link: Link,
/// }
///
/// impl Linked for Slot {
///     fn link(&mut self) -> &mut Link {
///         &mut self.link
///     }
/// }
///
/// let mut slots: Vec<Slot> = (0..3).map(|_| Slot::default()).collect();
/// let mut list = RecencyList::default();
/// for slot in 0..3 {
///     list.push_newest(&mut slots, slot);
/// }
/// list.push_newest(&mut slots, 0); // slot 0 was used again
/// assert_eq!(list.oldest(), Some(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecencyList {
    newest: u32,
    oldest: u32,
}

impl Default for RecencyList {
    fn default() -> Self {
        RecencyList {
            newest: NIL,
            oldest: NIL,
        }
    }
}

impl RecencyList {
    /// The slot pushed longest ago, if any slot is linked.
    #[inline]
    pub fn oldest(&self) -> Option<u32> {
        (self.oldest != NIL).then_some(self.oldest)
    }

    /// Makes `slot` of `slots` the newest, linking it if it was not linked.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range for `slots`, or `u32::MAX`.
    #[inline]
    pub fn push_newest<T: Linked>(&mut self, slots: &mut [T], slot: u32) {
        assert_ne!(slot, NIL, "slot index out of range");
        if self.newest == slot {
            return;
        }
        // Any linked slot but the newest has a newer neighbour.
        let Link { newer, older } = *slots[slot as usize].link();
        if newer != NIL {
            slots[newer as usize].link().older = older;
            if older == NIL {
                self.oldest = newer;
            } else {
                slots[older as usize].link().newer = newer;
            }
        }
        let old_newest = self.newest;
        *slots[slot as usize].link() = Link {
            newer: NIL,
            older: old_newest,
        };
        if old_newest == NIL {
            self.oldest = slot;
        } else {
            slots[old_newest as usize].link().newer = slot;
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Slot(Link);

    impl Linked for Slot {
        fn link(&mut self) -> &mut Link {
            &mut self.0
        }
    }

    /// Slots from oldest to newest, walked both ways.
    fn order(list: &RecencyList, slots: &[Slot]) -> Vec<u32> {
        let mut forward = Vec::new();
        let mut slot = list.oldest;
        while slot != NIL {
            forward.push(slot);
            slot = slots[slot as usize].0.newer;
        }
        let mut backward = Vec::new();
        let mut slot = list.newest;
        while slot != NIL {
            backward.push(slot);
            slot = slots[slot as usize].0.older;
        }
        backward.reverse();
        assert_eq!(forward, backward);
        forward
    }

    #[test]
    fn pushes_keep_the_order() {
        let mut slots: Vec<Slot> = (0..4).map(|_| Slot::default()).collect();
        let mut list = RecencyList::default();
        assert_eq!(list.oldest(), None);
        for (slot, expected) in [
            (2, &[2][..]),
            (2, &[2]),
            (0, &[2, 0]),
            (3, &[2, 0, 3]),
            (2, &[0, 3, 2]),
            (2, &[0, 3, 2]),
            (3, &[0, 2, 3]),
            (1, &[0, 2, 3, 1]),
            (0, &[2, 3, 1, 0]),
        ] {
            list.push_newest(&mut slots, slot);
            assert_eq!(order(&list, &slots), expected);
        }
        assert_eq!(list.oldest(), Some(2));
    }
}
