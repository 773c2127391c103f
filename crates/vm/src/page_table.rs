//! A flat, insert-only page table: open addressing plus a last-slot cache.
//!
//! `VmSystem::access` consults and updates the page state machine on
//! *every* memory access, and the `HashMap<PageId, PageState>` it used to
//! sit on paid two SipHash probes (get + insert) per access. This table
//! replaces them with one multiplicative-hash probe, and a one-entry
//! last-slot cache short-circuits even that for the common case of
//! consecutive accesses landing on the same page. Pages are never removed
//! (state machines only move forward), which keeps slots stable between
//! growths and the probe loop free of tombstone handling.

use crate::page_state::PageState;
use hintm_types::PageId;

/// Empty-slot sentinel; page indices are byte addresses shifted right by
/// 12, so the maximum index is unreachable.
const EMPTY: u64 = u64::MAX;

/// Multiplier for the Fibonacci-style multiplicative hash (2⁶⁴/φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

const MIN_SLOTS: usize = 64;

/// Open-addressed map from [`PageId`] to [`PageState`].
#[derive(Clone, Debug)]
pub struct PageTable {
    keys: Vec<u64>,
    vals: Vec<PageState>,
    mask: usize,
    shift: u32,
    len: usize,
    /// Slot of the most recently touched page (`usize::MAX` = cold).
    last: usize,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    pub(crate) fn new() -> Self {
        PageTable {
            keys: vec![EMPTY; MIN_SLOTS],
            // Placeholder value for empty slots; never read through them.
            vals: vec![PageState::SharedRw; MIN_SLOTS],
            mask: MIN_SLOTS - 1,
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            len: 0,
            last: usize::MAX,
        }
    }

    /// Number of touched pages.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot_of(&self, key: u64) -> (usize, bool) {
        let mut i = (key.wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            let k = self.keys[i];
            if k == key {
                return (i, true);
            }
            if k == EMPTY {
                return (i, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Current state of `page`, if touched.
    #[inline]
    pub(crate) fn get(&self, page: PageId) -> Option<PageState> {
        let key = page.index();
        if self.last != usize::MAX && self.keys[self.last] == key {
            return Some(self.vals[self.last]);
        }
        let (i, hit) = self.slot_of(key);
        hit.then(|| self.vals[i])
    }

    /// Reads the current state of `page` and stores `f(current)` back, all
    /// in a single probe. Returns the state that was stored.
    #[inline]
    pub(crate) fn update(
        &mut self,
        page: PageId,
        f: impl FnOnce(Option<PageState>) -> PageState,
    ) -> PageState {
        let key = page.index();
        if self.last != usize::MAX && self.keys[self.last] == key {
            let after = f(Some(self.vals[self.last]));
            self.vals[self.last] = after;
            return after;
        }
        let (i, hit) = self.slot_of(key);
        if hit {
            let after = f(Some(self.vals[i]));
            self.vals[i] = after;
            self.last = i;
            return after;
        }
        let after = f(None);
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
            let (j, _) = self.slot_of(key);
            self.fill(j, key, after);
        } else {
            self.fill(i, key, after);
        }
        after
    }

    #[inline]
    fn fill(&mut self, i: usize, key: u64, val: PageState) {
        self.keys[i] = key;
        self.vals[i] = val;
        self.len += 1;
        self.last = i;
    }

    fn grow(&mut self) {
        let slots = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![PageState::SharedRw; slots]);
        self.mask = slots - 1;
        self.shift = 64 - slots.trailing_zeros();
        self.last = usize::MAX;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let (i, hit) = self.slot_of(k);
                debug_assert!(!hit);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    /// Visits every touched page's state.
    pub(crate) fn for_each(&self, mut f: impl FnMut(PageId, PageState)) {
        for (k, v) in self.keys.iter().zip(&self.vals) {
            if *k != EMPTY {
                f(PageId::from_index(*k), *v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_types::ThreadId;

    fn pg(i: u64) -> PageId {
        PageId::from_index(i)
    }

    #[test]
    fn update_inserts_then_mutates() {
        let mut t = PageTable::new();
        assert_eq!(t.get(pg(7)), None);
        let st = t.update(pg(7), |prev| {
            assert_eq!(prev, None);
            PageState::PrivateRo(ThreadId(3))
        });
        assert_eq!(st, PageState::PrivateRo(ThreadId(3)));
        let st = t.update(pg(7), |prev| {
            assert_eq!(prev, Some(PageState::PrivateRo(ThreadId(3))));
            PageState::SharedRo
        });
        assert_eq!(st, PageState::SharedRo);
        assert_eq!(t.get(pg(7)), Some(PageState::SharedRo));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn survives_growth() {
        let mut t = PageTable::new();
        for i in 0..10_000u64 {
            t.update(pg(i * 31), |_| {
                if i % 2 == 0 {
                    PageState::SharedRo
                } else {
                    PageState::SharedRw
                }
            });
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            let want = if i % 2 == 0 {
                PageState::SharedRo
            } else {
                PageState::SharedRw
            };
            assert_eq!(t.get(pg(i * 31)), Some(want), "page {i}");
        }
    }

    #[test]
    fn for_each_visits_all_pages() {
        let mut t = PageTable::new();
        for i in 0..200u64 {
            t.update(pg(i), |_| PageState::SharedRo);
        }
        let mut n = 0;
        t.for_each(|_, st| {
            assert_eq!(st, PageState::SharedRo);
            n += 1;
        });
        assert_eq!(n, 200);
    }
}
