//! A block-keyed directory of small per-block payloads (bitmasks over cores
//! or threads).

use crate::addr::BlockAddr;

/// Multiplier for the Fibonacci-style multiplicative hash (2⁶⁴/φ).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial slot count.
const MIN_SLOTS: usize = 64;

/// An open-addressed map from [`BlockAddr`] to a `Copy` payload, where the
/// payload's `Default` value means "absent": [`BlockDir::get`] returns it
/// for unknown blocks, and [`BlockDir::update`] drops an entry whose
/// payload returns to it. The cache hierarchy keys its MESI sharer masks
/// on it, and the simulator its reader/writer masks over active
/// transactions.
///
/// Power-of-two slots, Fibonacci multiplicative hash, linear probing,
/// doubling at ¾ occupancy and backward-shift deletion, so probe chains
/// stay gap-free without tombstones. Slot liveness sits in its own dense
/// byte array, so a probe for an absent block, the common case, usually
/// reads only that array.
///
/// # Examples
///
/// ```
/// use hintm_types::{BlockAddr, BlockDir};
///
/// let mut dir: BlockDir<u64> = BlockDir::new();
/// let b = BlockAddr::from_index(7);
/// dir.update(b, |m| *m |= 0b10);
/// assert_eq!(dir.get(b), 0b10);
/// dir.update(b, |m| *m &= !0b10); // back to the default: dropped
/// assert_eq!(dir.get(b), 0);
/// ```
#[derive(Clone, Debug)]
pub struct BlockDir<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    live: Vec<bool>,
    mask: usize,
    shift: u32,
    len: usize,
}

impl<V: Copy + Default + PartialEq> Default for BlockDir<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default + PartialEq> BlockDir<V> {
    /// An empty directory.
    pub fn new() -> Self {
        Self::with_slots(MIN_SLOTS)
    }

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        BlockDir {
            keys: vec![0; slots],
            vals: vec![V::default(); slots],
            live: vec![false; slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn probe(&self, key: u64) -> (usize, bool) {
        let mut i = self.home(key);
        loop {
            if !self.live[i] {
                return (i, false);
            }
            if self.keys[i] == key {
                return (i, true);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The payload of `block` (the default if absent).
    #[inline]
    pub fn get(&self, block: BlockAddr) -> V {
        let (i, hit) = self.probe(block.index());
        if hit {
            self.vals[i]
        } else {
            V::default()
        }
    }

    /// Applies `f` to `block`'s payload, inserting the entry if the result
    /// is non-default and removing it if the result is the default.
    #[inline]
    pub fn update(&mut self, block: BlockAddr, f: impl FnOnce(&mut V)) {
        let key = block.index();
        let (i, hit) = self.probe(key);
        if hit {
            f(&mut self.vals[i]);
            if self.vals[i] == V::default() {
                self.remove_at(i);
            }
            return;
        }
        let mut v = V::default();
        f(&mut v);
        if v == V::default() {
            return;
        }
        let i = if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
            self.probe(key).0
        } else {
            i
        };
        self.keys[i] = key;
        self.vals[i] = v;
        self.live[i] = true;
        self.len += 1;
    }

    fn grow(&mut self) {
        let mut bigger = Self::with_slots((self.mask + 1) * 2);
        for i in 0..=self.mask {
            if self.live[i] {
                let (j, _) = bigger.probe(self.keys[i]);
                bigger.keys[j] = self.keys[i];
                bigger.vals[j] = self.vals[i];
                bigger.live[j] = true;
                bigger.len += 1;
            }
        }
        *self = bigger;
    }

    /// Backward-shift deletion at slot `hole`, keeping probe chains gapless.
    fn remove_at(&mut self, mut hole: usize) {
        self.live[hole] = false;
        self.len -= 1;
        let mut j = (hole + 1) & self.mask;
        while self.live[j] {
            let home = self.home(self.keys[j]);
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = self.keys[j];
                self.vals[hole] = self.vals[j];
                self.live[hole] = true;
                self.live[j] = false;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn matches_a_hashmap_through_growth_and_removal() {
        let mut dir: BlockDir<u64> = BlockDir::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Dense keys force shared probe chains; bit flips insert and
            // remove entries.
            let key = x % 600;
            let bit = 1u64 << ((x >> 20) % 3);
            dir.update(BlockAddr::from_index(key), |m| *m ^= bit);
            let e = model.entry(key).or_default();
            *e ^= bit;
            if *e == 0 {
                model.remove(&key);
            }
            assert_eq!(dir.len, model.len());
        }
        for key in 0..600 {
            let want = model.get(&key).copied().unwrap_or(0);
            assert_eq!(dir.get(BlockAddr::from_index(key)), want, "key {key}");
        }
    }
}
