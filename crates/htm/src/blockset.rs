//! A flat, open-addressed block set — the hot-path replacement for the
//! per-tracker `HashMap<BlockAddr, Rw>`.
//!
//! Every transactional tracker keys on [`BlockAddr`] and stores two bits
//! (read/write membership). `std::HashMap` pays SipHash plus a pointer-heavy
//! control-byte walk for each of the several lookups an access performs;
//! this table instead uses a power-of-two slot array, a multiplicative
//! hash, and linear probing, so a probe is a handful of arithmetic ops and
//! one or two adjacent cache lines.
//!
//! Two occupancy models cover all trackers:
//!
//! * [`BlockSet::fixed`] — for capacity-bounded trackers (P8, P8S, Rot).
//!   The slot array is sized to at least twice the tracker capacity and
//!   never reallocates: the tracker's own capacity check keeps the load
//!   factor at or below ½, so probe chains stay short and insertion can
//!   never fail to find a slot.
//! * [`BlockSet::growable`] — for unbounded trackers (L1TM, InfCap,
//!   LogTM's spill log, P8S's precise overflow shadow). Starts small and
//!   doubles when occupancy crosses ¾.
//!
//! Clearing (every commit/abort) is O(1): slots carry a generation tag and
//! a clear just bumps the live generation, so a tracker that once grew
//! large does not pay a memset per transaction.
//!
//! Membership counts (`len`, `reads_len`, `writes_len`) are maintained
//! incrementally on flag transitions, making the per-commit statistics
//! queries O(1) instead of a table scan.

use hintm_types::BlockAddr;

/// Multiplier for the Fibonacci-style multiplicative hash (2⁶⁴/φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial slot count for growable sets.
const GROWABLE_MIN_SLOTS: usize = 16;

/// A flat open-addressed map from [`BlockAddr`] to read/write bits.
#[derive(Clone, Debug)]
pub struct BlockSet {
    /// Block index per slot; valid only where `gens[i] == gen`.
    keys: Vec<u64>,
    /// Bit 0: in readset. Bit 1: in writeset.
    rw: Vec<u8>,
    /// Slot liveness: a slot is occupied iff its tag equals `gen`.
    gens: Vec<u64>,
    /// Current live generation (bumped by [`BlockSet::clear`]).
    gen: u64,
    /// `slots - 1`; slot count is always a power of two.
    mask: usize,
    /// Right-shift applied to the 64-bit hash to produce a slot index.
    shift: u32,
    /// `true` for fixed-capacity sets (never reallocate).
    fixed: bool,
    len: usize,
    reads: usize,
    writes: usize,
}

const READ: u8 = 0b01;
const WRITE: u8 = 0b10;

impl BlockSet {
    /// A set for a tracker bounded at `capacity` blocks. The table holds
    /// `≥ 2 × capacity` slots and never grows; callers must enforce the
    /// tracker capacity (as all bounded trackers already do) so the load
    /// factor stays at or below ½.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn fixed(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self::with_slots((capacity * 2).next_power_of_two(), true)
    }

    /// An unbounded set that doubles when occupancy crosses ¾.
    pub fn growable() -> Self {
        Self::with_slots(GROWABLE_MIN_SLOTS, false)
    }

    fn with_slots(slots: usize, fixed: bool) -> Self {
        debug_assert!(slots.is_power_of_two());
        BlockSet {
            keys: vec![0; slots],
            rw: vec![0; slots],
            gens: vec![0; slots],
            gen: 1,
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            fixed,
            len: 0,
            reads: 0,
            writes: 0,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Finds the slot holding `key`, or the empty slot where it would be
    /// inserted. Returns `(slot, occupied)`.
    #[inline]
    fn probe(&self, key: u64) -> (usize, bool) {
        let mut i = self.home(key);
        loop {
            if self.gens[i] != self.gen {
                return (i, false);
            }
            if self.keys[i] == key {
                return (i, true);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Number of tracked blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no blocks are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks with the read bit set.
    #[inline]
    pub fn reads_len(&self) -> usize {
        self.reads
    }

    /// Number of blocks with the write bit set.
    #[inline]
    pub fn writes_len(&self) -> usize {
        self.writes
    }

    /// `(read, write)` bits for `block`, if tracked.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<(bool, bool)> {
        let (i, hit) = self.probe(block.index());
        if hit {
            Some((self.rw[i] & READ != 0, self.rw[i] & WRITE != 0))
        } else {
            None
        }
    }

    /// Is `block` tracked (either bit)?
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.probe(block.index()).1
    }

    /// Is `block` in the readset?
    #[inline]
    pub fn reads_block(&self, block: BlockAddr) -> bool {
        let (i, hit) = self.probe(block.index());
        hit && self.rw[i] & READ != 0
    }

    /// Is `block` in the writeset?
    #[inline]
    pub fn writes_block(&self, block: BlockAddr) -> bool {
        let (i, hit) = self.probe(block.index());
        hit && self.rw[i] & WRITE != 0
    }

    /// ORs the access bit into an *already tracked* block. Returns `false`
    /// (without modifying anything) when `block` is not tracked — the
    /// caller then decides whether it may insert.
    #[inline]
    pub fn touch_existing(&mut self, block: BlockAddr, is_write: bool) -> bool {
        let (i, hit) = self.probe(block.index());
        if !hit {
            return false;
        }
        let bit = if is_write { WRITE } else { READ };
        if self.rw[i] & bit == 0 {
            self.rw[i] |= bit;
            if is_write {
                self.writes += 1;
            } else {
                self.reads += 1;
            }
        }
        true
    }

    /// Inserts an untracked `block` with the given access bit.
    ///
    /// The caller must have established absence (via [`Self::touch_existing`]
    /// or [`Self::contains`]); a bounded tracker must also have checked its
    /// capacity, which keeps fixed tables at most half full.
    pub fn insert_new(&mut self, block: BlockAddr, is_write: bool) {
        if !self.fixed && (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
        }
        debug_assert!(self.len <= self.mask, "BlockSet slot array full");
        let (i, hit) = self.probe(block.index());
        debug_assert!(!hit, "insert_new on a tracked block");
        self.keys[i] = block.index();
        self.gens[i] = self.gen;
        self.rw[i] = if is_write { WRITE } else { READ };
        self.len += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    fn grow(&mut self) {
        let mut bigger = Self::with_slots((self.mask + 1) * 2, false);
        self.for_each(|b, r, w| {
            let (i, _) = bigger.probe(b.index());
            bigger.keys[i] = b.index();
            bigger.gens[i] = bigger.gen;
            bigger.rw[i] = (r as u8) | ((w as u8) << 1);
            bigger.len += 1;
        });
        bigger.reads = self.reads;
        bigger.writes = self.writes;
        *self = bigger;
    }

    /// Removes `block`, repairing the probe chain by backward shifting.
    /// Returns `true` if it was tracked.
    pub fn remove(&mut self, block: BlockAddr) -> bool {
        let (mut hole, hit) = self.probe(block.index());
        if !hit {
            return false;
        }
        if self.rw[hole] & READ != 0 {
            self.reads -= 1;
        }
        if self.rw[hole] & WRITE != 0 {
            self.writes -= 1;
        }
        self.len -= 1;
        self.gens[hole] = 0;
        // Backward-shift deletion: any later entry in the same probe chain
        // whose home slot lies at or before the hole moves into it, so
        // linear probing never sees a spurious gap.
        let mut j = (hole + 1) & self.mask;
        while self.gens[j] == self.gen {
            let home = self.home(self.keys[j]);
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = self.keys[j];
                self.rw[hole] = self.rw[j];
                self.gens[hole] = self.gen;
                self.gens[j] = 0;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        true
    }

    /// The lowest-addressed block whose bits are exactly read-only, if any.
    /// This is the deterministic spill-victim rule for the P8S write
    /// overflow path: the minimum is representation-independent, so the
    /// choice matches the reference semantics regardless of slot order.
    pub fn min_read_only(&self) -> Option<BlockAddr> {
        let mut best: Option<u64> = None;
        for i in 0..=self.mask {
            if self.gens[i] == self.gen
                && self.rw[i] == READ
                && best.is_none_or(|b| self.keys[i] < b)
            {
                best = Some(self.keys[i]);
            }
        }
        best.map(BlockAddr::from_index)
    }

    /// Drops every entry in O(1) by advancing the live generation.
    pub fn clear(&mut self) {
        self.gen += 1;
        self.len = 0;
        self.reads = 0;
        self.writes = 0;
    }

    /// Visits every tracked block as `(block, read, write)`, in slot order.
    pub fn for_each(&self, mut f: impl FnMut(BlockAddr, bool, bool)) {
        if self.len == 0 {
            return;
        }
        for i in 0..=self.mask {
            if self.gens[i] == self.gen {
                f(
                    BlockAddr::from_index(self.keys[i]),
                    self.rw[i] & READ != 0,
                    self.rw[i] & WRITE != 0,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn insert_get_and_counts() {
        let mut s = BlockSet::fixed(8);
        s.insert_new(blk(1), false);
        s.insert_new(blk(2), true);
        assert_eq!(s.get(blk(1)), Some((true, false)));
        assert_eq!(s.get(blk(2)), Some((false, true)));
        assert_eq!(s.get(blk(3)), None);
        assert_eq!((s.len(), s.reads_len(), s.writes_len()), (2, 1, 1));
    }

    #[test]
    fn touch_existing_promotes_flags_once() {
        let mut s = BlockSet::fixed(8);
        assert!(!s.touch_existing(blk(7), true));
        s.insert_new(blk(7), false);
        assert!(s.touch_existing(blk(7), true));
        assert!(s.touch_existing(blk(7), true)); // idempotent
        assert_eq!(s.get(blk(7)), Some((true, true)));
        assert_eq!((s.reads_len(), s.writes_len()), (1, 1));
    }

    #[test]
    fn clear_is_generational() {
        let mut s = BlockSet::growable();
        for i in 0..100 {
            s.insert_new(blk(i), i % 2 == 0);
        }
        s.clear();
        assert!(s.is_empty());
        assert_eq!((s.reads_len(), s.writes_len()), (0, 0));
        for i in 0..100 {
            assert!(!s.contains(blk(i)));
        }
        // Reuse after clear works in the same slots.
        s.insert_new(blk(3), true);
        assert!(s.writes_block(blk(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn growable_grows_past_initial_slots() {
        let mut s = BlockSet::growable();
        for i in 0..10_000u64 {
            s.insert_new(blk(i * 17), i % 3 == 0);
        }
        assert_eq!(s.len(), 10_000);
        for i in 0..10_000u64 {
            let (r, w) = s.get(blk(i * 17)).unwrap();
            assert_eq!(w, i % 3 == 0);
            assert_eq!(r, i % 3 != 0);
        }
    }

    #[test]
    fn remove_repairs_probe_chains() {
        // Force collisions: a small fixed table with many keys hashing
        // anywhere, remove from the middle of chains, then verify every
        // survivor is still reachable.
        let mut s = BlockSet::fixed(16);
        let keys: Vec<u64> = (0..16).map(|i| i * 7919).collect();
        for &k in &keys {
            s.insert_new(blk(k), false);
        }
        for &k in keys.iter().step_by(2) {
            assert!(s.remove(blk(k)));
            assert!(!s.remove(blk(k)), "double remove");
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.contains(blk(k)), i % 2 == 1, "key {k}");
        }
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn min_read_only_ignores_written_blocks() {
        let mut s = BlockSet::fixed(8);
        s.insert_new(blk(5), false);
        s.insert_new(blk(2), true);
        s.insert_new(blk(9), false);
        s.touch_existing(blk(9), true); // read+write: not spillable
        assert_eq!(s.min_read_only(), Some(blk(5)));
        s.remove(blk(5));
        assert_eq!(s.min_read_only(), None);
    }

    #[test]
    fn for_each_visits_every_entry() {
        let mut s = BlockSet::growable();
        for i in 0..50 {
            s.insert_new(blk(i), i % 5 == 0);
        }
        let mut seen = [false; 50];
        s.for_each(|b, r, w| {
            seen[b.index() as usize] = true;
            assert_eq!(w, b.index() % 5 == 0);
            assert_eq!(r, b.index() % 5 != 0);
        });
        assert!(seen.iter().all(|&x| x));
    }
}
