//! Per-address access recording for the dynamic hint-soundness oracle.
//!
//! [`AccessRecorder`] accumulates, for every raw address a run touches,
//! which threads read and wrote it — both over the whole run and per
//! *epoch* (the barrier-delimited phases of a workload). Barriers order
//! all accesses across them, so two accesses in different epochs can
//! never race; the per-epoch masks are what a race check must consult.
//!
//! The recorder is deliberately simulator-agnostic: the `hintm-audit`
//! crate feeds it from a simulation observer and evaluates each declared
//! safe site against the sharing recorded here.
//!
//! # Examples
//!
//! ```
//! use hintm_mem::{AccessRecorder, AddressSpace};
//! use hintm_types::{AccessKind, ThreadId};
//!
//! let mut space = AddressSpace::new(2);
//! let a = space.halloc(ThreadId(0), 64);
//! let mut rec = AccessRecorder::new();
//! rec.record(ThreadId(0), a, AccessKind::Store);
//! rec.advance_epoch();
//! rec.record(ThreadId(1), a, AccessKind::Load);
//!
//! let h = rec.history(a).unwrap();
//! assert_eq!(h.first_writer, Some(ThreadId(0)));
//! assert_eq!(h.thread_count(), 2);
//! // The write and the read are barrier-separated: no same-epoch race.
//! assert!(!h.epoch(1).written_by_other(ThreadId(1)));
//! ```

use hintm_types::{AccessKind, Addr, ThreadId};
use std::collections::BTreeMap;

/// Reader/writer thread bitmasks for one address within one epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochSharing {
    /// Bitmask of threads that loaded the address in this epoch.
    pub(crate) readers: u64,
    /// Bitmask of threads that stored the address in this epoch.
    pub(crate) writers: u64,
}

impl EpochSharing {
    /// Did a thread other than `tid` store the address in this epoch?
    pub fn written_by_other(&self, tid: ThreadId) -> bool {
        self.writers & !(1u64 << tid.index()) != 0
    }
}

/// The whole-run access history of one address.
#[derive(Clone, Debug, Default)]
pub struct AddrHistory {
    /// The thread whose store reached the address first (scheduling
    /// order), if it was ever written.
    pub first_writer: Option<ThreadId>,
    /// Bitmask of threads that ever loaded the address.
    pub(crate) readers: u64,
    /// Bitmask of threads that ever stored the address.
    pub(crate) writers: u64,
    /// Per-epoch sharing, keyed by epoch index (absent = untouched).
    epochs: BTreeMap<u32, EpochSharing>,
}

impl AddrHistory {
    /// Number of distinct threads that touched the address.
    pub fn thread_count(&self) -> u32 {
        (self.readers | self.writers).count_ones()
    }

    /// The address was never stored to.
    pub fn never_written(&self) -> bool {
        self.writers == 0
    }

    /// Sharing within `epoch` (zeroes if untouched in that epoch).
    pub fn epoch(&self, epoch: u32) -> EpochSharing {
        self.epochs.get(&epoch).copied().unwrap_or_default()
    }
}

/// Records every access of a run, per raw address.
///
/// Thread ids must be below 64 (the suite's machines top out at 32
/// hardware threads).
#[derive(Clone, Debug, Default)]
pub struct AccessRecorder {
    addrs: BTreeMap<u64, AddrHistory>,
    epoch: u32,
}

impl AccessRecorder {
    /// An empty recorder at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access in the current epoch.
    pub fn record(&mut self, tid: ThreadId, addr: Addr, kind: AccessKind) {
        assert!(tid.index() < 64, "thread id {tid} exceeds the mask width");
        let bit = 1u64 << tid.index();
        let h = self.addrs.entry(addr.raw()).or_default();
        let e = h.epochs.entry(self.epoch).or_default();
        match kind {
            AccessKind::Load => {
                h.readers |= bit;
                e.readers |= bit;
            }
            AccessKind::Store => {
                h.writers |= bit;
                e.writers |= bit;
                h.first_writer.get_or_insert(tid);
            }
        }
    }

    /// Starts a new epoch (call on every barrier release).
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The current epoch index.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The history of `addr`, if it was ever touched.
    pub fn history(&self, addr: Addr) -> Option<&AddrHistory> {
        self.addrs.get(&addr.raw())
    }

    /// Number of distinct addresses touched.
    pub fn num_addrs(&self) -> usize {
        self.addrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_writer_and_masks() {
        let mut rec = AccessRecorder::new();
        let a = Addr::new(0x1000);
        rec.record(ThreadId(2), a, AccessKind::Load);
        rec.record(ThreadId(1), a, AccessKind::Store);
        rec.record(ThreadId(3), a, AccessKind::Store);
        let h = rec.history(a).unwrap();
        assert_eq!(h.first_writer, Some(ThreadId(1)));
        assert_eq!(h.readers, 0b100);
        assert_eq!(h.writers, 0b1010);
        assert_eq!(h.thread_count(), 3);
        assert!(!h.never_written());
    }

    #[test]
    fn epochs_partition_sharing() {
        let mut rec = AccessRecorder::new();
        let a = Addr::new(0x2000);
        rec.record(ThreadId(0), a, AccessKind::Store);
        rec.advance_epoch();
        rec.record(ThreadId(1), a, AccessKind::Load);
        let h = rec.history(a).unwrap();
        // Whole-run: two threads. Per-epoch: never concurrent.
        assert_eq!(h.thread_count(), 2);
        assert!(h.epoch(0).written_by_other(ThreadId(1)));
        assert!(!h.epoch(1).written_by_other(ThreadId(1)));
    }

    #[test]
    fn untouched_addresses_have_no_history() {
        let rec = AccessRecorder::new();
        assert!(rec.history(Addr::new(0x42)).is_none());
        assert_eq!(rec.num_addrs(), 0);
    }
}
