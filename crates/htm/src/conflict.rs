//! The conflict directory: one block-keyed table of which active
//! transactions precisely read or write each block, so eager conflict
//! detection costs one probe per access instead of one per active peer.
//!
//! It is exact because a block's membership in a transaction's *precise*
//! read and write sets only grows within an attempt. Writes never leave
//! the exact buffer; P8S and LRWS spill reads into `overflow_reads` and
//! PStretch sheds them into `stretched`, and both of those sets stay
//! precise. So a bit set when an access is tracked stays valid until the
//! attempt ends, and clearing it at commit or abort is enough. What the
//! directory cannot hold is a read signature's aliasing, which P8S and
//! LRWS stores still probe per peer.

use crate::controller::{HtmKind, HtmThread};
use hintm_types::{AbortKind, AccessKind, BlockAddr, BlockDir};

/// Threads (as bitmasks over thread indices) whose precise read or write
/// set holds one block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Holders {
    readers: u64,
    writers: u64,
}

/// Reader and writer masks over the precise sets of up to 64 threads'
/// active transactions.
///
/// The caller [`record`](ConflictDir::record)s each access that
/// [`HtmThread::on_access`] tracked successfully and
/// [`release`](ConflictDir::release)s a thread before its commit or abort
/// clears the tracker.
///
/// # Examples
///
/// ```
/// use hintm_htm::{ConflictDir, HtmConfig, HtmKind, HtmThread};
/// use hintm_types::{AbortKind, AccessKind, BlockAddr};
///
/// let cfg = HtmConfig::new(HtmKind::P8);
/// let mut threads = [HtmThread::new(&cfg), HtmThread::new(&cfg)];
/// let mut dir = ConflictDir::new(HtmKind::P8);
/// let b = BlockAddr::from_index(3);
/// threads[1].begin();
/// threads[1].on_access(b, AccessKind::Load, false).unwrap();
/// dir.record(1, b, AccessKind::Load);
///
/// let mut victims = Vec::new();
/// dir.victims(0, b, AccessKind::Store, 0b10, |j| &threads[j], &mut victims);
/// assert_eq!(victims, [(1, AbortKind::Conflict)]);
///
/// dir.release(1, &threads[1]);
/// threads[1].commit();
/// victims.clear();
/// dir.victims(0, b, AccessKind::Store, 0, |j| &threads[j], &mut victims);
/// assert!(victims.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ConflictDir {
    dir: BlockDir<Holders>,
    /// `false` for ROT, whose trackers drop loads.
    tracks_loads: bool,
    /// `true` for P8S and LRWS, whose read signatures can alias.
    signature: bool,
}

impl ConflictDir {
    /// An empty directory for transactions of model `kind`.
    pub fn new(kind: HtmKind) -> Self {
        ConflictDir {
            dir: BlockDir::new(),
            tracks_loads: kind != HtmKind::Rot,
            signature: matches!(kind, HtmKind::P8S | HtmKind::Lrws),
        }
    }

    /// Records that thread `i`'s tracker took an access of `kind` to
    /// `block` (an `on_access` with `safe == false` that returned `Ok`).
    #[inline]
    pub fn record(&mut self, i: usize, block: BlockAddr, kind: AccessKind) {
        let bit = 1u64 << i;
        match kind {
            AccessKind::Store => self.dir.update(block, |h| h.writers |= bit),
            AccessKind::Load if self.tracks_loads => self.dir.update(block, |h| h.readers |= bit),
            AccessKind::Load => {}
        }
    }

    /// Clears thread `i`'s bits by walking `t`'s tracked sets. Call it
    /// before `t`'s commit or abort clears them.
    pub fn release(&mut self, i: usize, t: &HtmThread) {
        let keep = !(1u64 << i);
        t.for_each_block(|b| {
            self.dir.update(b, |h| {
                h.readers &= keep;
                h.writers &= keep;
            })
        });
    }

    /// Appends to `out`, in ascending thread order, every transaction
    /// among `active` (minus `i` itself) that an access of `kind` to
    /// `block` by thread `i` conflicts with. A load conflicts with
    /// writers and a store with readers and writers (`Conflict`); a P8S
    /// or LRWS store also hits every other peer whose signature aliases
    /// the block (`FalseConflict`). `peer(j)` is thread `j`'s HTM state.
    #[inline]
    pub fn victims<'a>(
        &self,
        i: usize,
        block: BlockAddr,
        kind: AccessKind,
        active: u64,
        peer: impl Fn(usize) -> &'a HtmThread,
        out: &mut Vec<(usize, AbortKind)>,
    ) {
        let others = active & !(1u64 << i);
        if others == 0 {
            return;
        }
        let h = self.dir.get(block);
        debug_assert_eq!((h.readers | h.writers) & !active, 0, "idle holder");
        let store = kind == AccessKind::Store;
        let holders = if store {
            h.readers | h.writers
        } else {
            h.writers
        };
        let hit = others & holders;
        let mut rest = if store && self.signature { others } else { hit };
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if hit & (1 << j) != 0 {
                out.push((j, AbortKind::Conflict));
            } else if peer(j).reads_block(block) {
                out.push((j, AbortKind::FalseConflict));
            }
        }
    }
}
