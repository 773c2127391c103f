//! Hardware signatures: space-efficient, lossy set membership for readset
//! expansion (§II-A), modeled after PBX hashing over a 1-kbit bitvector.

use hintm_types::BlockAddr;
use std::fmt;

/// A Bloom-filter-style hardware signature.
///
/// Addresses are hashed by `num_hashes` PBX-style functions (XOR-folding
/// page-number bits into block-offset bits, then mixing) and set bits in a
/// `num_bits` bitvector. Queries may return false positives — the source of
/// the P8S configuration's *false conflict* aborts — but never false
/// negatives.
///
/// # Examples
///
/// ```
/// use hintm_htm::Signature;
/// use hintm_types::Addr;
///
/// let mut sig = Signature::new(1024, 2);
/// let b = Addr::new(0x4000).block();
/// assert!(!sig.maybe_contains(b));
/// sig.insert(b);
/// assert!(sig.maybe_contains(b));
/// ```
#[derive(Clone)]
pub struct Signature {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    inserted: u64,
}

impl Signature {
    /// Creates an empty signature of `num_bits` bits and `num_hashes` hash
    /// functions.
    ///
    /// # Panics
    ///
    /// Panics unless `num_bits` is a power of two ≥ 64 and
    /// `1 ≤ num_hashes ≤ 8`.
    pub fn new(num_bits: usize, num_hashes: u32) -> Self {
        assert!(
            num_bits >= 64 && num_bits.is_power_of_two(),
            "bits must be a power of two >= 64"
        );
        assert!(
            (1..=8).contains(&num_hashes),
            "1..=8 hash functions supported"
        );
        Signature {
            bits: vec![0; num_bits / 64],
            num_bits,
            num_hashes,
            inserted: 0,
        }
    }

    /// Number of insertions since the last clear.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// PBX-style hash `i` of a block address: XOR-fold the high (page
    /// number) bits onto the low (block-in-page) bits, then mix with a
    /// per-function odd multiplier.
    fn hash(&self, block: BlockAddr, i: u32) -> usize {
        let v = block.index();
        let folded = v ^ (v >> 6) ^ (v >> 13);
        let mixed = folded
            .wrapping_mul(0x9e37_79b9_7f4a_7c15_u64.wrapping_add(2 * i as u64 + 1))
            .rotate_left(17 + 7 * i);
        (mixed as usize) & (self.num_bits - 1)
    }

    /// Inserts a block address.
    pub fn insert(&mut self, block: BlockAddr) {
        for i in 0..self.num_hashes {
            let b = self.hash(block, i);
            self.bits[b / 64] |= 1 << (b % 64);
        }
        self.inserted += 1;
    }

    /// Tests membership; may return a false positive, never a false
    /// negative.
    pub fn maybe_contains(&self, block: BlockAddr) -> bool {
        (0..self.num_hashes).all(|i| {
            let b = self.hash(block, i);
            self.bits[b / 64] & (1 << (b % 64)) != 0
        })
    }

    /// Clears the signature (transaction commit or abort).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }

    /// Fraction of bits set (0.0 ..= 1.0); a saturation indicator.
    pub(crate) fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.num_bits as f64
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signature")
            .field("num_bits", &self.num_bits)
            .field("num_hashes", &self.num_hashes)
            .field("inserted", &self.inserted)
            .field("fill_ratio", &self.fill_ratio())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn no_false_negatives() {
        let mut s = Signature::new(1024, 2);
        for i in 0..200u64 {
            s.insert(blk(i * 31 + 7));
        }
        for i in 0..200u64 {
            assert!(s.maybe_contains(blk(i * 31 + 7)));
        }
    }

    #[test]
    fn empty_signature_contains_nothing() {
        let s = Signature::new(1024, 2);
        for i in 0..100u64 {
            assert!(!s.maybe_contains(blk(i)));
        }
    }

    #[test]
    fn clear_resets() {
        let mut s = Signature::new(1024, 2);
        s.insert(blk(42));
        assert!(s.maybe_contains(blk(42)));
        s.clear();
        assert!(!s.maybe_contains(blk(42)));
        assert_eq!(s.inserted(), 0);
        assert_eq!(s.fill_ratio(), 0.0);
    }

    #[test]
    fn false_positives_appear_under_load() {
        // With 512 inserts into 1024 bits / 2 hashes, fill ≈ 63%; false
        // positive probability ≈ 40%. Expect at least some collisions.
        let mut s = Signature::new(1024, 2);
        for i in 0..512u64 {
            s.insert(blk(i));
        }
        let fps = (100_000..101_000u64)
            .filter(|&i| s.maybe_contains(blk(i)))
            .count();
        assert!(fps > 0, "expected false positives at high fill");
        assert!(s.fill_ratio() > 0.3);
    }

    #[test]
    fn false_positive_rate_is_low_when_sparse() {
        let mut s = Signature::new(1024, 2);
        for i in 0..16u64 {
            s.insert(blk(i * 1001));
        }
        let fps = (500_000..510_000u64)
            .filter(|&i| s.maybe_contains(blk(i)))
            .count();
        assert!(
            fps < 200,
            "sparse signature should rarely alias, got {fps}/10000"
        );
    }

    #[test]
    fn hashes_differ_per_function() {
        let s = Signature::new(1024, 4);
        let h: Vec<usize> = (0..4).map(|i| s.hash(blk(123456), i)).collect();
        let mut dedup = h.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert!(
            dedup.len() >= 3,
            "hash functions should mostly disagree: {h:?}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bits_rejected() {
        Signature::new(1000, 2);
    }
}
