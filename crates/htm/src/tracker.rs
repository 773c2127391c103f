//! Transactional state tracking backends (one per HTM configuration).
//!
//! All backends store their read/write sets in the flat, open-addressed
//! [`BlockSet`] (see `blockset.rs`) rather than `HashMap<BlockAddr, Rw>`:
//! tracker updates sit on the simulator's innermost loop (every tracked
//! access), and the flat table turns each probe into a multiplicative
//! hash plus a short linear scan. Conflict detection asks the
//! [`ConflictDir`](crate::ConflictDir) instead of each tracker; only P8S
//! and LRWS stores still probe each peer's signature.

use crate::blockset::BlockSet;
use crate::signature::Signature;
use hintm_types::BlockAddr;
use std::fmt;

/// Error: the access could not be tracked within the HTM's capacity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CapacityAbort;

impl fmt::Display for CapacityAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transactional tracking capacity exceeded")
    }
}

impl std::error::Error for CapacityAbort {}

/// A transactional read/write-set tracking backend.
///
/// All variants expose the same queries; what differs is the capacity
/// model:
///
/// * [`Tracker::p8`] — bounded fully-associative buffer (reads + writes).
/// * [`Tracker::p8_sig`] — bounded buffer whose *read* overflow spills into
///   a lossy [`Signature`]; only write pressure can capacity-abort.
/// * [`Tracker::l1`] — unbounded map, but `Tracker::on_l1_eviction`
///   reports a capacity abort when a tracked line spills from the L1.
/// * [`Tracker::inf`] — unbounded, never aborts.
#[derive(Clone, Debug)]
pub struct Tracker(Backend);

#[derive(Clone, Debug)]
enum Backend {
    /// Dedicated fully-associative transactional buffer (POWER8 TMCAM).
    P8 { entries: BlockSet, capacity: usize },
    /// P8 buffer plus a read-set overflow signature. `overflow_reads` is a
    /// precise shadow of signature contents (false-conflict classification
    /// and statistics only — not hardware state).
    P8Sig {
        entries: BlockSet,
        capacity: usize,
        sig: Signature,
        overflow_reads: BlockSet,
    },
    /// Read/write bits in the L1 cache.
    L1 { entries: BlockSet },
    /// Unbounded tracking.
    Inf { entries: BlockSet },
    /// Rollback-only: writes tracked in a bounded buffer, loads dropped.
    Rot { entries: BlockSet, capacity: usize },
    /// LogTM-style: bounded fast path + unbounded memory log.
    Log {
        entries: BlockSet,
        capacity: usize,
        overflowed: u64,
    },
    /// FORTH-style limited read/write-set HTM: one exact buffer shared by
    /// both sets, but the read-set is bounded at `read_limit` (excess reads
    /// spill into a lossy signature, `overflow_reads` being the precise
    /// shadow) while the write-set is bounded at `write_limit` and stays
    /// exact — writes never evict anything.
    Lrws {
        entries: BlockSet,
        capacity: usize,
        read_limit: usize,
        write_limit: usize,
        sig: Signature,
        overflow_reads: BlockSet,
    },
    /// POWER-style capacity stretching: a P8 buffer that, when full, sheds
    /// all read-only entries into `stretched` (a precise unbounded set kept
    /// conflict-visible) through a suspend/resume window, at most
    /// `max_stretches` times per transaction.
    PStretch {
        entries: BlockSet,
        capacity: usize,
        stretched: BlockSet,
        max_stretches: u32,
        stretches_used: u32,
    },
}

impl Tracker {
    /// A P8-style buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn p8(capacity: usize) -> Self {
        Tracker(Backend::P8 {
            entries: BlockSet::fixed(capacity),
            capacity,
        })
    }

    /// A P8 buffer with a readset-overflow signature of `sig_bits` bits and
    /// `sig_hashes` hash functions.
    pub fn p8_sig(capacity: usize, sig_bits: usize, sig_hashes: u32) -> Self {
        Tracker(Backend::P8Sig {
            entries: BlockSet::fixed(capacity),
            capacity,
            sig: Signature::new(sig_bits, sig_hashes),
            overflow_reads: BlockSet::growable(),
        })
    }

    /// In-L1 tracking (capacity enforced through cache evictions).
    pub fn l1() -> Self {
        Tracker(Backend::L1 {
            entries: BlockSet::growable(),
        })
    }

    /// Unbounded tracking.
    pub fn inf() -> Self {
        Tracker(Backend::Inf {
            entries: BlockSet::growable(),
        })
    }

    /// Rollback-only transaction tracking (SI-HTM-style, §VII): *loads are
    /// not tracked at all* — only the writeset occupies the buffer and
    /// participates in conflict detection. Models the capacity behaviour of
    /// snapshot-isolation HTMs; their extra commit-ordering machinery is
    /// not simulated, so read-write races go undetected (exactly the
    /// relaxation the paper contrasts HinTM's strict-2PL approach against).
    pub fn rot(capacity: usize) -> Self {
        Tracker(Backend::Rot {
            entries: BlockSet::fixed(capacity),
            capacity,
        })
    }

    /// LogTM-style "large HTM" tracking (§VII): the first `capacity` blocks
    /// live in fast hardware state; overflow spills to an in-memory log, so
    /// the transaction never capacity-aborts, but the caller should charge
    /// [`Tracker::overflowed_blocks`] extra work per spilled entry on abort
    /// (log unroll) and commit.
    pub fn log_tm(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Tracker(Backend::Log {
            entries: BlockSet::growable(),
            capacity,
            overflowed: 0,
        })
    }

    /// A limited read/write-set tracker: one `capacity`-entry exact buffer,
    /// read-set bounded at `read_limit` (spills to a signature), write-set
    /// bounded at `write_limit` (exact, never evicted).
    ///
    /// With `read_limit == write_limit == capacity` the limits are
    /// unreachable before the buffer itself fills, and the tracker
    /// degenerates to exactly [`Tracker::p8`].
    pub fn lrws(
        capacity: usize,
        read_limit: usize,
        write_limit: usize,
        sig_bits: usize,
        sig_hashes: u32,
    ) -> Self {
        Tracker(Backend::Lrws {
            entries: BlockSet::fixed(capacity),
            capacity,
            read_limit,
            write_limit,
            sig: Signature::new(sig_bits, sig_hashes),
            overflow_reads: BlockSet::growable(),
        })
    }

    /// A POWER-style capacity-stretching tracker: a `capacity`-entry exact
    /// buffer that may shed its read-only entries to a precise side set up
    /// to `max_stretches` times per transaction (suspend/resume windows).
    pub fn pstretch(capacity: usize, max_stretches: u32) -> Self {
        Tracker(Backend::PStretch {
            entries: BlockSet::fixed(capacity),
            capacity,
            stretched: BlockSet::growable(),
            max_stretches,
            stretches_used: 0,
        })
    }

    /// Blocks tracked beyond the fast-path capacity (LogTM log length);
    /// 0 for every other backend.
    pub fn overflowed_blocks(&self) -> u64 {
        match &self.0 {
            Backend::Log { overflowed, .. } => *overflowed,
            _ => 0,
        }
    }

    /// Capacity-stretch events consumed by the current transaction
    /// (PStretch suspend/resume windows); 0 for every other backend.
    pub fn stretch_events(&self) -> u64 {
        match &self.0 {
            Backend::PStretch { stretches_used, .. } => u64::from(*stretches_used),
            _ => 0,
        }
    }

    /// Records a transactional access to `block`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityAbort`] when the backend cannot hold the new
    /// block: a full P8 buffer, or a full P8S buffer with no read-only
    /// entry to spill for an incoming write.
    pub fn track(&mut self, block: BlockAddr, is_write: bool) -> Result<(), CapacityAbort> {
        match &mut self.0 {
            Backend::P8 { entries, capacity } => {
                if entries.touch_existing(block, is_write) {
                    return Ok(());
                }
                if entries.len() >= *capacity {
                    return Err(CapacityAbort);
                }
                entries.insert_new(block, is_write);
                Ok(())
            }
            Backend::P8Sig {
                entries,
                capacity,
                sig,
                overflow_reads,
            } => {
                if entries.touch_existing(block, is_write) {
                    return Ok(());
                }
                if entries.len() < *capacity {
                    entries.insert_new(block, is_write);
                    return Ok(());
                }
                if !is_write {
                    // Read overflow: hash straight into the signature.
                    sig.insert(block);
                    if !overflow_reads.touch_existing(block, false) {
                        overflow_reads.insert_new(block, false);
                    }
                    return Ok(());
                }
                // Write needs a buffer slot: spill the lowest-addressed
                // read-only entry. The minimum (not an arbitrary match) keeps
                // the choice independent of container iteration order, so
                // P8S runs are bit-reproducible across processes.
                match entries.min_read_only() {
                    Some(victim) => {
                        entries.remove(victim);
                        sig.insert(victim);
                        if !overflow_reads.touch_existing(victim, false) {
                            overflow_reads.insert_new(victim, false);
                        }
                        entries.insert_new(block, true);
                        Ok(())
                    }
                    None => Err(CapacityAbort),
                }
            }
            Backend::L1 { entries } | Backend::Inf { entries } => {
                if !entries.touch_existing(block, is_write) {
                    entries.insert_new(block, is_write);
                }
                Ok(())
            }
            Backend::Rot { entries, capacity } => {
                if !is_write {
                    return Ok(()); // rollback-only TXs do not track loads
                }
                if entries.touch_existing(block, true) {
                    return Ok(());
                }
                if entries.len() >= *capacity {
                    return Err(CapacityAbort);
                }
                entries.insert_new(block, true);
                Ok(())
            }
            Backend::Log {
                entries,
                capacity,
                overflowed,
            } => {
                if entries.touch_existing(block, is_write) {
                    return Ok(());
                }
                if entries.len() >= *capacity {
                    *overflowed += 1;
                }
                entries.insert_new(block, is_write);
                Ok(())
            }
            Backend::Lrws {
                entries,
                capacity,
                read_limit,
                write_limit,
                sig,
                overflow_reads,
            } => {
                if let Some((_, written)) = entries.get(block) {
                    if is_write && !written && entries.writes_len() >= *write_limit {
                        return Err(CapacityAbort);
                    }
                    entries.touch_existing(block, is_write);
                    return Ok(());
                }
                if is_write {
                    // Writes stay exact and never evict: they need both a
                    // write-limit slot and a free buffer entry.
                    if entries.writes_len() >= *write_limit || entries.len() >= *capacity {
                        return Err(CapacityAbort);
                    }
                    entries.insert_new(block, true);
                    return Ok(());
                }
                if overflow_reads.contains(block) {
                    // Re-read of an already-spilled block: it lives in the
                    // signature, not the buffer.
                    sig.insert(block);
                    return Ok(());
                }
                if entries.len() >= *capacity {
                    return Err(CapacityAbort);
                }
                if entries.len() - entries.writes_len() >= *read_limit {
                    // Read-limit pressure: evict the lowest-addressed
                    // read-only entry into the signature (deterministic
                    // victim, as in P8S) to make room for the new read.
                    if let Some(victim) = entries.min_read_only() {
                        entries.remove(victim);
                        sig.insert(victim);
                        if !overflow_reads.touch_existing(victim, false) {
                            overflow_reads.insert_new(victim, false);
                        }
                    }
                }
                entries.insert_new(block, false);
                Ok(())
            }
            Backend::PStretch {
                entries,
                capacity,
                stretched,
                max_stretches,
                stretches_used,
            } => {
                if entries.touch_existing(block, is_write) {
                    return Ok(());
                }
                if !is_write && stretched.contains(block) {
                    // The suspended window services re-reads of shed blocks
                    // without re-occupying a buffer slot.
                    return Ok(());
                }
                if entries.len() < *capacity {
                    entries.insert_new(block, is_write);
                    return Ok(());
                }
                if *stretches_used >= *max_stretches {
                    return Err(CapacityAbort);
                }
                // Stretch: suspend, shed every read-only entry into the
                // precise (still conflict-visible) stretched set, resume.
                let mut shed = Vec::new();
                entries.for_each(|b, _, w| {
                    if !w {
                        shed.push(b);
                    }
                });
                if shed.is_empty() {
                    // An all-write buffer cannot be stretched; do not burn a
                    // stretch event on a hopeless window.
                    return Err(CapacityAbort);
                }
                for b in shed {
                    entries.remove(b);
                    if !stretched.touch_existing(b, false) {
                        stretched.insert_new(b, false);
                    }
                }
                *stretches_used += 1;
                entries.insert_new(block, is_write);
                Ok(())
            }
        }
    }

    /// Notifies the tracker that `block` was evicted from the owning L1.
    ///
    /// Returns `true` when this implies a capacity abort (in-L1 tracking of
    /// a transactionally-marked line); all other backends keep their state
    /// in dedicated structures and return `false`.
    pub(crate) fn on_l1_eviction(&self, block: BlockAddr) -> bool {
        match &self.0 {
            Backend::L1 { entries } => entries.contains(block),
            _ => false,
        }
    }

    /// Does the tracked readset cover `block`? May report a false positive
    /// for the signature-backed backend (aliasing).
    pub fn reads_block(&self, block: BlockAddr) -> bool {
        match &self.0 {
            Backend::P8Sig { entries, sig, .. } | Backend::Lrws { entries, sig, .. } => {
                entries.reads_block(block) || sig.maybe_contains(block)
            }
            Backend::PStretch {
                entries, stretched, ..
            } => entries.reads_block(block) || stretched.contains(block),
            _ => self.entries().reads_block(block),
        }
    }

    /// Does the *precise* readset cover `block`? Used to classify a
    /// signature hit as genuine or false.
    pub fn precise_reads_block(&self, block: BlockAddr) -> bool {
        match &self.0 {
            Backend::P8Sig {
                entries,
                overflow_reads,
                ..
            }
            | Backend::Lrws {
                entries,
                overflow_reads,
                ..
            } => entries.reads_block(block) || overflow_reads.contains(block),
            Backend::PStretch {
                entries, stretched, ..
            } => entries.reads_block(block) || stretched.contains(block),
            _ => self.entries().reads_block(block),
        }
    }

    /// Does the tracked writeset cover `block`? Always precise (writesets
    /// never spill into signatures).
    pub fn writes_block(&self, block: BlockAddr) -> bool {
        self.entries().writes_block(block)
    }

    /// Combined conflict probe: `(reads, writes)` membership of `block` in
    /// one pass over the entry table. Equivalent to
    /// `(self.reads_block(block), self.writes_block(block))` — the readset
    /// bit may be a signature false positive for the signature backend,
    /// the writeset bit is always precise.
    pub(crate) fn conflict_probe(&self, block: BlockAddr) -> (bool, bool) {
        let (r, w) = self.entries().get(block).unwrap_or((false, false));
        match &self.0 {
            Backend::P8Sig { sig, .. } | Backend::Lrws { sig, .. } => {
                (r || sig.maybe_contains(block), w)
            }
            Backend::PStretch { stretched, .. } => (r || stretched.contains(block), w),
            _ => (r, w),
        }
    }

    /// All speculatively written blocks (for rollback on abort).
    pub fn write_blocks(&self) -> Vec<BlockAddr> {
        let mut out = Vec::with_capacity(self.entries().writes_len());
        self.write_blocks_into(&mut out);
        out
    }

    /// Appends all speculatively written blocks to `out` (allocation-free
    /// variant for the engine's reusable scratch buffer).
    pub(crate) fn write_blocks_into(&self, out: &mut Vec<BlockAddr>) {
        self.entries().for_each(|b, _, w| {
            if w {
                out.push(b);
            }
        });
    }

    /// Visits every block of the precise read and write sets. A spilled
    /// or shed read that a later write brought back into the buffer is
    /// visited twice.
    pub(crate) fn for_each_block(&self, mut f: impl FnMut(BlockAddr)) {
        self.entries().for_each(|b, _, _| f(b));
        match &self.0 {
            Backend::P8Sig { overflow_reads, .. } | Backend::Lrws { overflow_reads, .. } => {
                overflow_reads.for_each(|b, _, _| f(b))
            }
            Backend::PStretch { stretched, .. } => stretched.for_each(|b, _, _| f(b)),
            _ => {}
        }
    }

    /// Precise readset size in blocks (including signature-spilled reads).
    pub fn read_set_size(&self) -> usize {
        let base = self.entries().reads_len();
        match &self.0 {
            Backend::P8Sig { overflow_reads, .. } | Backend::Lrws { overflow_reads, .. } => {
                base + overflow_reads.len()
            }
            Backend::PStretch { stretched, .. } => base + stretched.len(),
            _ => base,
        }
    }

    /// Precise writeset size in blocks.
    pub fn write_set_size(&self) -> usize {
        self.entries().writes_len()
    }

    /// Total distinct tracked blocks (readset ∪ writeset), precise.
    pub fn footprint(&self) -> usize {
        match &self.0 {
            Backend::P8Sig {
                entries,
                overflow_reads,
                ..
            }
            | Backend::Lrws {
                entries,
                overflow_reads,
                ..
            } => {
                // A spilled read later re-inserted by a write lives in both
                // sets; count it once.
                let mut rejoined = 0usize;
                overflow_reads.for_each(|b, _, _| {
                    if entries.contains(b) {
                        rejoined += 1;
                    }
                });
                entries.len() + overflow_reads.len() - rejoined
            }
            Backend::PStretch {
                entries, stretched, ..
            } => {
                // A shed read later re-inserted by a write lives in both
                // sets; count it once.
                let mut rejoined = 0usize;
                stretched.for_each(|b, _, _| {
                    if entries.contains(b) {
                        rejoined += 1;
                    }
                });
                entries.len() + stretched.len() - rejoined
            }
            _ => self.entries().len(),
        }
    }

    /// Clears all tracking state (commit or abort).
    pub fn clear(&mut self) {
        match &mut self.0 {
            Backend::P8 { entries, .. }
            | Backend::L1 { entries }
            | Backend::Inf { entries }
            | Backend::Rot { entries, .. } => entries.clear(),
            Backend::Log {
                entries,
                overflowed,
                ..
            } => {
                entries.clear();
                *overflowed = 0;
            }
            Backend::P8Sig {
                entries,
                sig,
                overflow_reads,
                ..
            }
            | Backend::Lrws {
                entries,
                sig,
                overflow_reads,
                ..
            } => {
                entries.clear();
                sig.clear();
                overflow_reads.clear();
            }
            Backend::PStretch {
                entries,
                stretched,
                stretches_used,
                ..
            } => {
                entries.clear();
                stretched.clear();
                *stretches_used = 0;
            }
        }
    }

    fn entries(&self) -> &BlockSet {
        match &self.0 {
            Backend::P8 { entries, .. }
            | Backend::P8Sig { entries, .. }
            | Backend::L1 { entries }
            | Backend::Inf { entries }
            | Backend::Rot { entries, .. }
            | Backend::Log { entries, .. }
            | Backend::Lrws { entries, .. }
            | Backend::PStretch { entries, .. } => entries,
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
    fn p8_tracks_until_capacity() {
        let mut t = Tracker::p8(4);
        for i in 0..4u64 {
            t.track(blk(i), false).unwrap();
        }
        assert_eq!(t.track(blk(99), false), Err(CapacityAbort));
        // Re-touching an existing block is fine at capacity.
        assert_eq!(t.track(blk(0), true), Ok(()));
        assert!(t.writes_block(blk(0)));
        assert!(t.reads_block(blk(0)));
    }

    #[test]
    fn p8_footprint_counts_distinct_blocks() {
        let mut t = Tracker::p8(64);
        t.track(blk(1), false).unwrap();
        t.track(blk(1), true).unwrap();
        t.track(blk(2), true).unwrap();
        assert_eq!(t.footprint(), 2);
        assert_eq!(t.read_set_size(), 1);
        assert_eq!(t.write_set_size(), 2);
        assert_eq!(t.write_blocks().len(), 2);
    }

    #[test]
    fn p8_clear_resets() {
        let mut t = Tracker::p8(2);
        t.track(blk(1), true).unwrap();
        t.clear();
        assert_eq!(t.footprint(), 0);
        assert!(!t.writes_block(blk(1)));
        t.track(blk(2), false).unwrap();
        t.track(blk(3), false).unwrap();
        assert!(t.track(blk(4), false).is_err());
    }

    #[test]
    fn p8sig_reads_never_capacity_abort() {
        let mut t = Tracker::p8_sig(4, 1024, 2);
        for i in 0..1000u64 {
            t.track(blk(i), false).unwrap();
        }
        assert_eq!(t.read_set_size(), 1000);
        // Every read is still visible to conflict checks.
        for i in 0..1000u64 {
            assert!(t.reads_block(blk(i)));
            assert!(t.precise_reads_block(blk(i)));
        }
    }

    #[test]
    fn p8sig_write_spills_read_entry() {
        let mut t = Tracker::p8_sig(2, 1024, 2);
        t.track(blk(1), false).unwrap();
        t.track(blk(2), false).unwrap();
        // Buffer full of reads; a write spills one read to the signature.
        t.track(blk(3), true).unwrap();
        assert!(t.writes_block(blk(3)));
        assert!(t.reads_block(blk(1)) && t.reads_block(blk(2)));
    }

    #[test]
    fn p8sig_spills_the_lowest_addressed_read() {
        let mut t = Tracker::p8_sig(2, 1024, 2);
        t.track(blk(9), false).unwrap();
        t.track(blk(4), false).unwrap();
        t.track(blk(7), true).unwrap();
        // Block 4 (the minimum read-only entry) went to the signature;
        // block 9 kept its precise buffer slot.
        assert!(t.precise_reads_block(blk(9)));
        assert!(t.precise_reads_block(blk(4)), "spilled read stays precise");
        assert_eq!(t.footprint(), 3);
        assert_eq!(t.read_set_size(), 2);
        // A second write must spill 9, then a third has nothing to spill.
        t.track(blk(8), true).unwrap();
        assert_eq!(t.track(blk(6), true), Err(CapacityAbort));
    }

    #[test]
    fn p8sig_write_overflow_aborts() {
        let mut t = Tracker::p8_sig(2, 1024, 2);
        t.track(blk(1), true).unwrap();
        t.track(blk(2), true).unwrap();
        assert_eq!(t.track(blk(3), true), Err(CapacityAbort));
    }

    #[test]
    fn p8sig_false_positive_is_detectable() {
        let mut t = Tracker::p8_sig(4, 256, 2);
        // Saturate the signature.
        for i in 0..600u64 {
            t.track(blk(i), false).unwrap();
        }
        // Find an address it claims to read but precisely does not.
        let fp = (10_000..60_000u64)
            .map(blk)
            .find(|b| t.reads_block(*b) && !t.precise_reads_block(*b));
        assert!(fp.is_some(), "saturated small signature must alias");
    }

    #[test]
    fn p8sig_footprint_counts_rejoined_spill_once() {
        let mut t = Tracker::p8_sig(2, 1024, 2);
        t.track(blk(1), false).unwrap();
        t.track(blk(2), false).unwrap();
        t.track(blk(3), true).unwrap(); // spills 1
        t.track(blk(1), true).unwrap(); // spills 2, re-inserts 1 as a write
        assert_eq!(t.footprint(), 3, "block 1 counted once");
        assert!(t.writes_block(blk(1)));
        assert!(t.precise_reads_block(blk(2)));
    }

    #[test]
    fn l1_tracker_aborts_on_tracked_eviction() {
        let mut t = Tracker::l1();
        t.track(blk(5), false).unwrap();
        assert!(t.on_l1_eviction(blk(5)));
        assert!(!t.on_l1_eviction(blk(6)));
    }

    #[test]
    fn p8_ignores_l1_evictions() {
        let mut t = Tracker::p8(4);
        t.track(blk(5), true).unwrap();
        assert!(!t.on_l1_eviction(blk(5)));
    }

    #[test]
    fn inf_never_aborts() {
        let mut t = Tracker::inf();
        for i in 0..100_000u64 {
            t.track(blk(i), i % 3 == 0).unwrap();
        }
        assert_eq!(t.footprint(), 100_000);
    }

    #[test]
    fn rot_tracks_writes_only() {
        let mut t = Tracker::rot(4);
        for i in 0..1000u64 {
            t.track(blk(i), false).unwrap(); // loads never abort
        }
        assert_eq!(t.read_set_size(), 0, "loads are dropped entirely");
        assert!(!t.reads_block(blk(5)));
        for i in 0..4u64 {
            t.track(blk(i), true).unwrap();
        }
        assert_eq!(t.track(blk(99), true), Err(CapacityAbort));
        assert!(t.writes_block(blk(0)));
        t.clear();
        assert_eq!(t.footprint(), 0);
    }

    #[test]
    fn logtm_overflows_into_the_log() {
        let mut t = Tracker::log_tm(4);
        for i in 0..10u64 {
            t.track(blk(i), true).unwrap();
        }
        assert_eq!(t.overflowed_blocks(), 6);
        assert_eq!(t.footprint(), 10);
        assert!(t.writes_block(blk(9)));
        // Re-touching tracked blocks does not grow the log.
        t.track(blk(0), false).unwrap();
        assert_eq!(t.overflowed_blocks(), 6);
        t.clear();
        assert_eq!(t.overflowed_blocks(), 0);
    }

    #[test]
    fn non_log_backends_report_zero_overflow() {
        let mut t = Tracker::p8(2);
        t.track(blk(0), true).unwrap();
        assert_eq!(t.overflowed_blocks(), 0);
        assert_eq!(Tracker::inf().overflowed_blocks(), 0);
    }

    #[test]
    fn lrws_read_overflow_spills_to_signature() {
        let mut t = Tracker::lrws(8, 2, 2, 1024, 2);
        for i in 0..6u64 {
            t.track(blk(i), false).unwrap(); // read-limit 2: blocks spill
        }
        assert_eq!(t.read_set_size(), 6, "spilled reads stay precise");
        for i in 0..6u64 {
            assert!(t.reads_block(blk(i)));
            assert!(t.precise_reads_block(blk(i)));
        }
        // The exact buffer only holds the two most recent reads.
        assert_eq!(t.footprint(), 6);
    }

    #[test]
    fn lrws_write_limit_aborts_exactly() {
        let mut t = Tracker::lrws(64, 32, 2, 1024, 2);
        t.track(blk(1), true).unwrap();
        t.track(blk(2), true).unwrap();
        assert_eq!(t.track(blk(3), true), Err(CapacityAbort));
        // Re-touching a tracked write is fine; upgrading a read is not.
        t.track(blk(1), true).unwrap();
        t.track(blk(9), false).unwrap();
        assert_eq!(t.track(blk(9), true), Err(CapacityAbort));
        assert!(t.reads_block(blk(9)), "failed upgrade leaves the read");
    }

    #[test]
    fn lrws_spilled_block_reread_stays_in_signature() {
        let mut t = Tracker::lrws(8, 1, 4, 1024, 2);
        t.track(blk(1), false).unwrap();
        t.track(blk(2), false).unwrap(); // spills 1
        t.track(blk(1), false).unwrap(); // re-read: signature only
        assert_eq!(t.footprint(), 2);
        assert!(t.precise_reads_block(blk(1)));
        // A write to the spilled block rejoins the exact buffer.
        t.track(blk(1), true).unwrap();
        assert!(t.writes_block(blk(1)));
        assert_eq!(t.footprint(), 2, "rejoined block counted once");
    }

    #[test]
    fn lrws_degenerate_limits_match_p8() {
        let mut l = Tracker::lrws(4, 4, 4, 1024, 2);
        let mut p = Tracker::p8(4);
        for (i, w) in [(1u64, false), (2, true), (3, false), (2, false), (4, true)] {
            assert_eq!(l.track(blk(i), w), p.track(blk(i), w));
        }
        assert_eq!(l.track(blk(99), false), Err(CapacityAbort));
        assert_eq!(p.track(blk(99), false), Err(CapacityAbort));
        assert_eq!(l.footprint(), p.footprint());
        assert_eq!(l.read_set_size(), p.read_set_size());
    }

    #[test]
    fn pstretch_sheds_reads_until_stretches_exhausted() {
        let mut t = Tracker::pstretch(4, 2);
        for i in 0..4u64 {
            t.track(blk(i), false).unwrap();
        }
        t.track(blk(4), false).unwrap(); // stretch 1: sheds 0..4
        assert_eq!(t.stretch_events(), 1);
        for i in 5..8u64 {
            t.track(blk(i), false).unwrap(); // refills the buffer
        }
        t.track(blk(8), false).unwrap(); // stretch 2
        assert_eq!(t.stretch_events(), 2);
        for i in 9..12u64 {
            t.track(blk(i), false).unwrap();
        }
        assert_eq!(t.track(blk(12), false), Err(CapacityAbort));
        // Every shed block is still precisely conflict-visible.
        for i in 0..12u64 {
            assert!(t.reads_block(blk(i)));
            assert!(t.precise_reads_block(blk(i)));
        }
        assert_eq!(t.footprint(), 12);
        assert_eq!(t.read_set_size(), 12);
        t.clear();
        assert_eq!((t.footprint(), t.stretch_events()), (0, 0));
    }

    #[test]
    fn pstretch_reread_of_shed_block_needs_no_slot() {
        let mut t = Tracker::pstretch(2, 1);
        t.track(blk(1), false).unwrap();
        t.track(blk(2), false).unwrap();
        t.track(blk(3), false).unwrap(); // stretch: sheds 1, 2
        t.track(blk(4), false).unwrap(); // buffer: {3, 4}
        t.track(blk(1), false).unwrap(); // serviced by the stretched set
        assert_eq!(t.track(blk(5), false), Err(CapacityAbort));
        // A write to a shed block needs a slot, and none is stretchable.
        assert_eq!(t.track(blk(2), true), Err(CapacityAbort));
    }

    #[test]
    fn pstretch_all_write_buffer_aborts_without_burning_a_stretch() {
        let mut t = Tracker::pstretch(2, 4);
        t.track(blk(1), true).unwrap();
        t.track(blk(2), true).unwrap();
        assert_eq!(t.track(blk(3), true), Err(CapacityAbort));
        assert_eq!(t.stretch_events(), 0, "hopeless window burns no stretch");
    }

    #[test]
    fn pstretch_write_rejoin_counts_once() {
        let mut t = Tracker::pstretch(2, 2);
        t.track(blk(1), false).unwrap();
        t.track(blk(2), false).unwrap();
        t.track(blk(3), true).unwrap(); // stretch: sheds 1, 2
        t.track(blk(1), true).unwrap(); // shed read rejoins as a write
        assert_eq!(t.footprint(), 3, "block 1 counted once");
        assert!(t.writes_block(blk(1)));
        assert!(t.precise_reads_block(blk(2)));
        assert_eq!(t.read_set_size(), 2);
    }

    #[test]
    fn write_then_read_keeps_write_flag() {
        let mut t = Tracker::p8(8);
        t.track(blk(1), true).unwrap();
        t.track(blk(1), false).unwrap();
        assert!(t.writes_block(blk(1)));
        assert!(t.reads_block(blk(1)));
        assert_eq!(t.footprint(), 1);
    }
}
