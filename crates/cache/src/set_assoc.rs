//! A single set-associative cache with LRU replacement and MESI line states.

use hintm_types::{BlockAddr, BLOCK_SIZE};
use std::fmt;

/// MESI coherence state of a cache line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MesiState {
    /// Line holds no valid block.
    Invalid,
    /// Clean, possibly shared with other caches.
    Shared,
    /// Clean, exclusively held by this cache.
    Exclusive,
    /// Dirty, exclusively held by this cache.
    Modified,
}

impl MesiState {
    /// Returns `true` unless `Invalid`.
    #[inline]
    pub const fn is_valid(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            MesiState::Invalid => 'I',
            MesiState::Shared => 'S',
            MesiState::Exclusive => 'E',
            MesiState::Modified => 'M',
        };
        write!(f, "{c}")
    }
}

/// Tag value marking an empty way. Real tags are block indices, which can
/// never reach `u64::MAX` (it would place the block's base address beyond
/// the end of the address space), so the sentinel cannot collide and
/// `find` reduces to a plain equality scan over the set's tag row.
const INVALID_TAG: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement.
///
/// Tracks block presence and MESI state only; the simulator keeps data
/// values in its own logical structures.
///
/// Lines are stored structure-of-arrays: one contiguous row of tags per
/// set (with `INVALID_TAG` in empty ways), and parallel state / LRU-tick
/// arrays indexed identically. The lookup path only ever reads the tag
/// row — an 8-way set's tags span exactly one 64-byte cache line of host
/// memory — and touches the state/LRU arrays just for the way it hits.
///
/// # Examples
///
/// ```
/// use hintm_cache::{MesiState, SetAssocCache};
/// use hintm_types::Addr;
///
/// let mut c = SetAssocCache::new(32 * 1024, 8);
/// let b = Addr::new(0x1000).block();
/// assert_eq!(c.state_of(b), MesiState::Invalid);
/// c.install(b, MesiState::Exclusive);
/// assert_eq!(c.state_of(b), MesiState::Exclusive);
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    tags: Vec<u64>,
    states: Vec<MesiState>,
    lrus: Vec<u64>,
    num_sets: usize,
    ways: usize,
    tick: u64,
}

impl SetAssocCache {
    /// Creates a cache of `size_bytes` with the given associativity and
    /// 64-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a multiple of `ways * 64` and the
    /// resulting set count is a power of two.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let blocks = size_bytes / BLOCK_SIZE;
        assert_eq!(
            blocks % ways,
            0,
            "size must be a multiple of ways * block size"
        );
        let num_sets = blocks / ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        SetAssocCache {
            tags: vec![INVALID_TAG; blocks],
            states: vec![MesiState::Invalid; blocks],
            lrus: vec![0; blocks],
            num_sets,
            ways,
            tick: 0,
        }
    }

    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        (block.index() as usize) & (self.num_sets - 1)
    }

    #[inline]
    fn set_range(&self, block: BlockAddr) -> std::ops::Range<usize> {
        let s = self.set_index(block);
        s * self.ways..(s + 1) * self.ways
    }

    /// Branch-free scan of one set's tag row at a compile-time width, so
    /// the common associativities compile to vector compares instead of a
    /// short data-dependent loop. Tags are unique within a set, so keeping
    /// the last match is equivalent to keeping the first.
    #[inline]
    fn scan<const W: usize>(row: &[u64], tag: u64) -> Option<usize> {
        let row: &[u64; W] = row.try_into().expect("row width");
        let mut hit = None;
        for (w, &t) in row.iter().enumerate() {
            if t == tag {
                hit = Some(w);
            }
        }
        hit
    }

    fn find(&self, block: BlockAddr) -> Option<usize> {
        let range = self.set_range(block);
        let tag = block.index();
        let base = range.start;
        let row = &self.tags[range];
        let w = match self.ways {
            8 => Self::scan::<8>(row, tag),
            16 => Self::scan::<16>(row, tag),
            _ => row.iter().position(|&t| t == tag),
        };
        w.map(|w| base + w)
    }

    /// Returns the MESI state of `block` ([`MesiState::Invalid`] if absent).
    pub fn state_of(&self, block: BlockAddr) -> MesiState {
        self.find(block)
            .map_or(MesiState::Invalid, |i| self.states[i])
    }

    /// Marks `block` most-recently-used and returns its line index, or
    /// `None` on a miss, so the hierarchy can follow up with
    /// [`SetAssocCache::set_state_at`] without a second tag scan.
    pub(crate) fn touch_entry(&mut self, block: BlockAddr) -> Option<usize> {
        self.tick += 1;
        let i = self.find(block)?;
        self.lrus[i] = self.tick;
        Some(i)
    }

    /// The MESI state of the line at `i` (from [`SetAssocCache::touch_entry`]).
    pub(crate) fn state_at(&self, i: usize) -> MesiState {
        self.states[i]
    }

    /// Sets the state of the line at `i` (from [`SetAssocCache::touch_entry`]).
    pub(crate) fn set_state_at(&mut self, i: usize, state: MesiState) {
        debug_assert!(state.is_valid(), "use invalidate() to drop a line");
        self.states[i] = state;
    }

    /// Sets the state of a present block.
    ///
    /// # Panics
    ///
    /// Panics if the block is absent or `state` is `Invalid` (use
    /// [`SetAssocCache::invalidate`]).
    pub(crate) fn set_state(&mut self, block: BlockAddr, state: MesiState) {
        assert!(state.is_valid(), "use invalidate() to drop a line");
        let i = self.find(block).expect("set_state on absent block");
        self.states[i] = state;
    }

    /// Installs `block` with `state`, evicting the LRU victim of its set if
    /// needed. Returns the evicted block and its state, if any.
    ///
    /// # Panics
    ///
    /// Panics if the block is already present or `state` is `Invalid`.
    pub fn install(
        &mut self,
        block: BlockAddr,
        state: MesiState,
    ) -> Option<(BlockAddr, MesiState)> {
        assert!(state.is_valid(), "cannot install an invalid line");
        debug_assert_ne!(block.index(), INVALID_TAG, "tag collides with sentinel");
        self.tick += 1;
        let range = self.set_range(block);
        // One pass over the set serves both the duplicate check and victim
        // selection: the first invalid way wins outright; otherwise the
        // smallest LRU tick, breaking ties toward the lowest way. Ticks are
        // unique today, so ties cannot arise through the public API — but
        // the strict `<` pins the victim choice to the lowest way rather
        // than an iterator-order accident, so the rule stays deterministic
        // if lines are ever stamped with a shared (per-cycle) clock.
        let mut slot = range.start;
        let mut first_empty = None;
        for i in range.clone() {
            assert!(
                self.tags[i] != block.index(),
                "install of already-present block"
            );
            if self.tags[i] == INVALID_TAG {
                if first_empty.is_none() {
                    first_empty = Some(i);
                }
            } else if first_empty.is_none() && self.lrus[i] < self.lrus[slot] {
                slot = i;
            }
        }
        if let Some(e) = first_empty {
            slot = e;
        }
        let victim = if self.tags[slot] != INVALID_TAG {
            let set_base = (self.set_index(block) as u64) & (self.num_sets as u64 - 1);
            debug_assert_eq!(
                self.tags[slot] as usize & (self.num_sets - 1),
                set_base as usize
            );
            Some((BlockAddr::from_index(self.tags[slot]), self.states[slot]))
        } else {
            None
        };
        self.tags[slot] = block.index();
        self.states[slot] = state;
        self.lrus[slot] = self.tick;
        victim
    }

    /// Looks up `block` without LRU or counter side effects, returning its
    /// line index (the crate-internal sibling of [`SetAssocCache::contains`]).
    pub(crate) fn find_entry(&self, block: BlockAddr) -> Option<usize> {
        self.find(block)
    }

    /// Marks the line at `i` (from [`SetAssocCache::find_entry`])
    /// most-recently-used.
    pub(crate) fn touch_at(&mut self, i: usize) {
        self.tick += 1;
        self.lrus[i] = self.tick;
    }

    /// Drops `block` from the cache, returning its former state.
    pub(crate) fn invalidate(&mut self, block: BlockAddr) -> MesiState {
        match self.find(block) {
            Some(i) => {
                let s = self.states[i];
                self.tags[i] = INVALID_TAG;
                self.states[i] = MesiState::Invalid;
                self.lrus[i] = 0;
                s
            }
            None => MesiState::Invalid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_types::Addr;

    fn block(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn install_and_lookup() {
        let mut c = SetAssocCache::new(1024, 2); // 16 blocks, 8 sets
        assert_eq!(c.num_sets, 8);
        c.install(block(1), MesiState::Shared);
        assert!(c.state_of(block(1)).is_valid());
        assert_eq!(c.state_of(block(1)), MesiState::Shared);
        assert!(!c.state_of(block(2)).is_valid());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::new(1024, 2); // 8 sets
                                                 // Blocks 0, 8, 16 all map to set 0 in a 8-set cache.
        c.install(block(0), MesiState::Exclusive);
        c.install(block(8), MesiState::Exclusive);
        c.touch_entry(block(0)); // 0 is now MRU
        let victim = c.install(block(16), MesiState::Exclusive);
        assert_eq!(victim, Some((block(8), MesiState::Exclusive)));
        assert!(c.state_of(block(0)).is_valid());
        assert!(c.state_of(block(16)).is_valid());
        assert!(!c.state_of(block(8)).is_valid());
    }

    #[test]
    fn lru_tie_evicts_the_lowest_way() {
        let mut c = SetAssocCache::new(1024, 2); // 8 sets
        c.install(block(0), MesiState::Exclusive); // way 0 of set 0
        c.install(block(8), MesiState::Exclusive); // way 1 of set 0
                                                   // Force the tie the public API cannot produce: both lines touched
                                                   // at the same cycle. The victim must be the lowest way, not
                                                   // whichever the scan happened to visit last.
        let set0 = c.set_range(block(0));
        for i in set0 {
            c.lrus[i] = 7;
        }
        let victim = c.install(block(16), MesiState::Exclusive);
        assert_eq!(
            victim,
            Some((block(0), MesiState::Exclusive)),
            "equal LRU ticks must evict way 0"
        );
        assert!(c.state_of(block(8)).is_valid());
        assert!(c.state_of(block(16)).is_valid());
    }

    #[test]
    fn install_prefers_invalid_way() {
        let mut c = SetAssocCache::new(1024, 2);
        c.install(block(0), MesiState::Modified);
        c.install(block(8), MesiState::Shared);
        c.invalidate(block(0));
        let victim = c.install(block(16), MesiState::Shared);
        assert_eq!(victim, None, "invalid way should absorb the install");
        assert!(c.state_of(block(8)).is_valid());
    }

    #[test]
    fn invalidate_returns_state() {
        let mut c = SetAssocCache::new(1024, 2);
        c.install(block(3), MesiState::Modified);
        assert_eq!(c.invalidate(block(3)), MesiState::Modified);
        assert_eq!(c.invalidate(block(3)), MesiState::Invalid);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = SetAssocCache::new(1024, 2);
        c.install(block(5), MesiState::Exclusive);
        c.set_state(block(5), MesiState::Modified);
        assert_eq!(c.state_of(block(5)), MesiState::Modified);
        c.set_state(block(5), MesiState::Shared);
        assert_eq!(c.state_of(block(5)), MesiState::Shared);
    }

    #[test]
    #[should_panic(expected = "absent block")]
    fn set_state_on_absent_panics() {
        let mut c = SetAssocCache::new(1024, 2);
        c.set_state(block(1), MesiState::Shared);
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_install_panics() {
        let mut c = SetAssocCache::new(1024, 2);
        c.install(block(1), MesiState::Shared);
        c.install(block(1), MesiState::Shared);
    }

    #[test]
    fn addr_block_mapping_spans_sets() {
        let c = SetAssocCache::new(32 * 1024, 8); // 64 sets
        let a = Addr::new(0).block();
        let b = Addr::new(64).block();
        assert_ne!(c.set_index(a), c.set_index(b));
    }

    #[test]
    fn mesi_state_helpers() {
        assert!(!MesiState::Invalid.is_valid());
        assert_eq!(MesiState::Modified.to_string(), "M");
    }
}
