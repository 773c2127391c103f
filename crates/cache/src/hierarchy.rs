//! The two-level coherent hierarchy: per-core L1s, shared L2, snoopy MESI.

use crate::set_assoc::{MesiState, SetAssocCache};
use hintm_types::{AccessKind, BlockAddr, BlockDir, CoreId, Cycles, MachineConfig};

/// The result of one memory access through the hierarchy.
#[derive(Clone, Debug, Default)]
pub struct AccessOutcome {
    /// Latency charged to the accessing core.
    pub latency: Cycles,
    /// The access hit in the local L1.
    pub l1_hit: bool,
    /// The block was found in the L2 (only meaningful on an L1 miss).
    pub(crate) l2_hit: bool,
    /// Remote cores whose L1 copy was invalidated (the access was a write,
    /// or an upgrade). Eager HTM conflict detection keys off this.
    pub invalidated: Vec<CoreId>,
    /// Remote cores downgraded M→S (the access was a read of dirty data).
    pub downgraded: Vec<CoreId>,
    /// Block evicted from the local L1 to make room, if any.
    pub l1_victim: Option<BlockAddr>,
}

impl AccessOutcome {
    /// Resets to the post-`default()` state, keeping the vectors' storage
    /// so a reused outcome allocates nothing in steady state.
    pub(crate) fn reset(&mut self) {
        self.latency = Cycles::ZERO;
        self.l1_hit = false;
        self.l2_hit = false;
        self.invalidated.clear();
        self.downgraded.clear();
        self.l1_victim = None;
    }
}

/// Aggregate hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (on L1 miss).
    pub l2_hits: u64,
    /// Cache-to-cache transfers (dirty peer supplied the block).
    pub peer_transfers: u64,
    /// Memory fetches.
    pub mem_fetches: u64,
    /// Write upgrades (S→M with remote invalidations).
    pub upgrades: u64,
}

/// Memo of a core's most recent access: the block is resident in that L1
/// as the most-recently-touched line of its set, in Modified state when
/// `modified` holds. Cleared whenever any remote action mutates that
/// core's L1; overwritten by the core's next access.
#[derive(Clone, Copy, Debug)]
struct BlockMemo {
    block: BlockAddr,
    modified: bool,
}

/// Which cores hold a block, and how. MESI invariants keep the masks
/// consistent: at most one `dirty` bit, `dirty ⊆ excl ⊆ valid`, and an
/// exclusive holder is the sole valid one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Sharers {
    /// Cores holding the block in any valid state.
    valid: u64,
    /// Cores holding it Exclusive or Modified.
    excl: u64,
    /// The core holding it Modified, if any.
    dirty: u64,
}

/// A coherent two-level cache hierarchy (Table II).
///
/// See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1s: Vec<SetAssocCache>,
    l2: SetAssocCache,
    l1_latency: Cycles,
    l2_latency: Cycles,
    mem_latency: Cycles,
    stats: CacheStats,
    /// Per-core repeated-access fast path (see [`BlockMemo`]).
    memos: Vec<Option<BlockMemo>>,
    /// Exact sharer directory over all L1s, mirroring the per-L1 MESI
    /// states. Replaces the miss path's all-core snoop (`cores × ways` tag
    /// compares per miss) and lets invalidations visit only actual holders.
    dir: BlockDir<Sharers>,
}

impl Hierarchy {
    /// Builds the hierarchy for the given machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_cores` exceeds 64 (the directory's mask width).
    pub fn new(cfg: &MachineConfig) -> Self {
        assert!(cfg.num_cores <= 64, "sharer masks cover 64 cores");
        Hierarchy {
            l1s: (0..cfg.num_cores)
                .map(|_| SetAssocCache::new(cfg.l1_bytes, cfg.l1_ways))
                .collect(),
            l2: SetAssocCache::new(cfg.l2_bytes, cfg.l2_ways),
            l1_latency: cfg.l1_latency,
            l2_latency: cfg.l2_latency,
            mem_latency: cfg.mem_latency,
            stats: CacheStats::default(),
            memos: vec![None; cfg.num_cores],
            dir: BlockDir::new(),
        }
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The MESI state of `block` in `core`'s L1 (test/inspection hook).
    pub fn l1_state(&self, core: CoreId, block: BlockAddr) -> MesiState {
        self.l1s[core.index()].state_of(block)
    }

    /// Performs a load or store by `core` to `block`, applying all MESI
    /// transitions, and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: CoreId, block: BlockAddr, kind: AccessKind) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        self.access_into(core, block, kind, &mut out);
        out
    }

    /// [`Hierarchy::access`] writing into a caller-owned outcome. The
    /// engine keeps one `AccessOutcome` for its whole run and passes it
    /// here every access, so the hot path performs no allocation.
    pub fn access_into(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        out: &mut AccessOutcome,
    ) {
        out.reset();
        self.stats.accesses += 1;
        let ci = core.index();
        // Fast path: the core's immediately preceding access touched this
        // very block and no remote action has mutated this L1 since (any
        // such action clears the memo). The line is therefore resident —
        // a load hits in any valid state, a store hits silently only in
        // Modified — charging `l1_latency` and mutating nothing. Skipping
        // `touch_entry`'s LRU re-touch is unobservable: the line is
        // already its set's most-recently-touched, so relative order
        // (which alone picks victims) is unchanged.
        if let Some(m) = self.memos[ci] {
            if m.block == block && (kind == AccessKind::Load || m.modified) {
                self.stats.l1_hits += 1;
                out.l1_hit = true;
                out.latency = self.l1_latency;
                return;
            }
        }
        // One tag scan serves the whole hit path: the line index from
        // `touch_entry` lets the upgrade arms flip the state in place.
        let line = self.l1s[ci].touch_entry(block);
        let local_state = line.map_or(MesiState::Invalid, |i| self.l1s[ci].state_at(i));

        match (kind, local_state) {
            // L1 load hit in any valid state.
            (AccessKind::Load, s) if s.is_valid() => {
                self.stats.l1_hits += 1;
                out.l1_hit = true;
                out.latency = self.l1_latency;
            }
            // L1 store hit with ownership.
            (AccessKind::Store, MesiState::Modified) => {
                self.stats.l1_hits += 1;
                out.l1_hit = true;
                out.latency = self.l1_latency;
            }
            (AccessKind::Store, MesiState::Exclusive) => {
                self.stats.l1_hits += 1;
                out.l1_hit = true;
                out.latency = self.l1_latency;
                self.l1s[ci].set_state_at(line.unwrap(), MesiState::Modified);
                self.update_dir(block, |s| s.dirty |= 1 << ci);
            }
            // Store hit without ownership: upgrade, invalidating sharers.
            (AccessKind::Store, MesiState::Shared) => {
                self.stats.l1_hits += 1;
                self.stats.upgrades += 1;
                out.l1_hit = true;
                out.latency = self.l2_latency;
                self.invalidate_remote(core, block, out);
                self.l1s[ci].set_state_at(line.unwrap(), MesiState::Modified);
                self.update_dir(block, |s| {
                    s.excl |= 1 << ci;
                    s.dirty |= 1 << ci;
                });
            }
            // Miss paths.
            (AccessKind::Load, _) => {
                out.latency = self.miss_fill(core, block, AccessKind::Load, out);
            }
            (AccessKind::Store, _) => {
                out.latency = self.miss_fill(core, block, AccessKind::Store, out);
            }
        }
        // Every store path ends with the line Modified; a load leaves a
        // hit line's state alone and installs misses as Shared/Exclusive.
        self.memos[ci] = Some(BlockMemo {
            block,
            modified: kind == AccessKind::Store || local_state == MesiState::Modified,
        });
    }

    /// Handles an L1 miss: snoop peers, consult the L2, fetch from memory,
    /// and install the line locally. Returns the latency.
    fn miss_fill(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        out: &mut AccessOutcome,
    ) -> Cycles {
        let ci = core.index();
        // The directory mirrors peer L1 states exactly, so one probe
        // replaces the per-core snoop scan.
        let sh = self.dir.get(block);
        debug_assert_eq!(sh.valid & (1 << ci), 0, "miss with a valid local line");
        let dirty_peer: Option<usize> = if sh.dirty != 0 {
            Some(sh.dirty.trailing_zeros() as usize)
        } else {
            None
        };
        let sharers: u64 = sh.valid & !sh.dirty;

        let l2_entry = self.l2.find_entry(block);
        let l2_has = l2_entry.is_some();
        out.l2_hit = l2_has;

        let latency;
        let install_state;
        match kind {
            AccessKind::Load => {
                if let Some(p) = dirty_peer {
                    // Cache-to-cache transfer; writer downgrades to Shared.
                    self.stats.peer_transfers += 1;
                    self.l1s[p].set_state(block, MesiState::Shared);
                    self.clear_memo(p, block);
                    self.update_dir(block, |s| {
                        s.dirty &= !(1 << p);
                        s.excl &= !(1 << p);
                    });
                    out.downgraded.push(CoreId(p as u32));
                    // The writeback also populates the L2.
                    self.ensure_l2(block);
                    latency = self.l2_latency;
                    install_state = MesiState::Shared;
                } else if sharers != 0 {
                    self.stats.peer_transfers += 1;
                    // An Exclusive holder (necessarily the sole sharer)
                    // demotes to Shared.
                    let mut rest = sh.excl;
                    while rest != 0 {
                        let s = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        self.l1s[s].set_state(block, MesiState::Shared);
                        self.clear_memo(s, block);
                    }
                    if sh.excl != 0 {
                        self.update_dir(block, |s| s.excl = 0);
                    }
                    latency = self.l2_latency;
                    install_state = MesiState::Shared;
                } else if let Some(e) = l2_entry {
                    self.stats.l2_hits += 1;
                    self.l2.touch_at(e);
                    latency = self.l2_latency;
                    install_state = MesiState::Exclusive;
                } else {
                    self.stats.mem_fetches += 1;
                    self.ensure_l2(block);
                    latency = self.mem_latency;
                    install_state = MesiState::Exclusive;
                }
            }
            AccessKind::Store => {
                // Read-for-ownership: every peer copy dies.
                self.invalidate_remote(core, block, out);
                if dirty_peer.is_some() || sharers != 0 {
                    self.stats.peer_transfers += 1;
                    self.ensure_l2(block);
                    latency = self.l2_latency;
                } else if let Some(e) = l2_entry {
                    self.stats.l2_hits += 1;
                    self.l2.touch_at(e);
                    latency = self.l2_latency;
                } else {
                    self.stats.mem_fetches += 1;
                    self.ensure_l2(block);
                    latency = self.mem_latency;
                }
                install_state = MesiState::Modified;
            }
        }

        if let Some((victim, vstate)) = self.l1s[ci].install(block, install_state) {
            out.l1_victim = Some(victim);
            self.update_dir(victim, |s| {
                s.valid &= !(1 << ci);
                s.excl &= !(1 << ci);
                s.dirty &= !(1 << ci);
            });
            if vstate == MesiState::Modified {
                // Dirty writeback lands in the L2 (latency hidden).
                self.ensure_l2(victim);
            }
        }
        self.update_dir(block, |s| {
            s.valid |= 1 << ci;
            match install_state {
                MesiState::Modified => {
                    s.excl |= 1 << ci;
                    s.dirty |= 1 << ci;
                }
                MesiState::Exclusive => s.excl |= 1 << ci,
                MesiState::Shared | MesiState::Invalid => {}
            }
        });
        latency
    }

    /// Invalidates every remote L1 copy of `block`, recording the victims.
    /// Directory-guided: only actual holders are visited, in ascending
    /// core order (matching the order a full scan would report).
    fn invalidate_remote(&mut self, core: CoreId, block: BlockAddr, out: &mut AccessOutcome) {
        let me = 1u64 << core.index();
        let holders = self.dir.get(block);
        let mut rest = holders.valid & !me;
        if rest == 0 {
            return;
        }
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let prev = self.l1s[i].invalidate(block);
            debug_assert!(prev.is_valid(), "directory listed a non-holder");
            self.clear_memo(i, block);
            out.invalidated.push(CoreId(i as u32));
            if prev == MesiState::Modified {
                self.ensure_l2(block);
            }
        }
        self.update_dir(block, |s| {
            s.valid &= me;
            s.excl &= me;
            s.dirty &= me;
        });
    }

    /// Installs `block` in the L2 if absent (victim simply dropped: the L2
    /// is non-inclusive and clean victims need no action; dirty L2 victims
    /// write back to memory, whose latency we do not model separately).
    fn ensure_l2(&mut self, block: BlockAddr) {
        match self.l2.find_entry(block) {
            Some(i) => self.l2.touch_at(i),
            None => {
                let _ = self.l2.install(block, MesiState::Shared);
            }
        }
    }

    /// Drops `block` from `core`'s L1 without any coherence action
    /// (used by the HTM layer when rolling back speculatively written
    /// lines on abort).
    pub fn discard_local(&mut self, core: CoreId, block: BlockAddr) {
        let prev = self.l1s[core.index()].invalidate(block);
        if prev.is_valid() {
            let me = 1u64 << core.index();
            self.update_dir(block, |s| {
                s.valid &= !me;
                s.excl &= !me;
                s.dirty &= !me;
            });
        }
        self.clear_memo(core.index(), block);
    }

    /// Drops core `i`'s memo if it references `block` (the line is being
    /// mutated behind the memo's back).
    fn clear_memo(&mut self, i: usize, block: BlockAddr) {
        if self.memos[i].is_some_and(|m| m.block == block) {
            self.memos[i] = None;
        }
    }

    /// Applies `f` to `block`'s sharer masks; the directory drops the entry
    /// once no core holds the block.
    fn update_dir(&mut self, block: BlockAddr, f: impl FnOnce(&mut Sharers)) {
        self.dir.update(block, |s| {
            f(s);
            debug_assert_eq!(s.excl & !s.valid, 0);
            debug_assert_eq!(s.dirty & !s.excl, 0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Hierarchy {
        Hierarchy::new(&MachineConfig::default())
    }

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn cold_load_misses_to_memory() {
        let mut h = mk();
        let out = h.access(CoreId(0), blk(10), AccessKind::Load);
        assert!(!out.l1_hit);
        assert!(!out.l2_hit);
        assert_eq!(out.latency, Cycles(100));
        assert_eq!(h.l1_state(CoreId(0), blk(10)), MesiState::Exclusive);
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut h = mk();
        h.access(CoreId(0), blk(10), AccessKind::Load);
        let out = h.access(CoreId(0), blk(10), AccessKind::Load);
        assert!(out.l1_hit);
        assert_eq!(out.latency, Cycles(3));
    }

    #[test]
    fn store_after_exclusive_load_is_silent_upgrade() {
        let mut h = mk();
        h.access(CoreId(0), blk(10), AccessKind::Load);
        let out = h.access(CoreId(0), blk(10), AccessKind::Store);
        assert!(out.l1_hit);
        assert!(out.invalidated.is_empty());
        assert_eq!(h.l1_state(CoreId(0), blk(10)), MesiState::Modified);
    }

    #[test]
    fn read_shared_by_two_cores() {
        let mut h = mk();
        h.access(CoreId(0), blk(10), AccessKind::Load);
        let out = h.access(CoreId(1), blk(10), AccessKind::Load);
        assert_eq!(out.latency, Cycles(12), "peer transfer at L2 latency");
        assert_eq!(h.l1_state(CoreId(0), blk(10)), MesiState::Shared);
        assert_eq!(h.l1_state(CoreId(1), blk(10)), MesiState::Shared);
    }

    #[test]
    fn write_invalidates_remote_sharers() {
        let mut h = mk();
        h.access(CoreId(0), blk(10), AccessKind::Load);
        h.access(CoreId(1), blk(10), AccessKind::Load);
        let out = h.access(CoreId(2), blk(10), AccessKind::Store);
        let mut inv = out.invalidated.clone();
        inv.sort_by_key(|c| c.0);
        assert_eq!(inv, vec![CoreId(0), CoreId(1)]);
        assert_eq!(h.l1_state(CoreId(0), blk(10)), MesiState::Invalid);
        assert_eq!(h.l1_state(CoreId(2), blk(10)), MesiState::Modified);
    }

    #[test]
    fn read_of_dirty_line_downgrades_writer() {
        let mut h = mk();
        h.access(CoreId(0), blk(10), AccessKind::Store);
        assert_eq!(h.l1_state(CoreId(0), blk(10)), MesiState::Modified);
        let out = h.access(CoreId(1), blk(10), AccessKind::Load);
        assert_eq!(out.downgraded, vec![CoreId(0)]);
        assert_eq!(h.l1_state(CoreId(0), blk(10)), MesiState::Shared);
        assert_eq!(h.l1_state(CoreId(1), blk(10)), MesiState::Shared);
    }

    #[test]
    fn shared_store_upgrade_invalidates() {
        let mut h = mk();
        h.access(CoreId(0), blk(10), AccessKind::Load);
        h.access(CoreId(1), blk(10), AccessKind::Load);
        let out = h.access(CoreId(0), blk(10), AccessKind::Store);
        assert!(out.l1_hit);
        assert_eq!(out.invalidated, vec![CoreId(1)]);
        assert_eq!(h.l1_state(CoreId(0), blk(10)), MesiState::Modified);
        assert_eq!(h.stats().upgrades, 1);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut h = mk();
        // L1: 32 KiB 8-way = 64 sets. Blocks i*64 all map to set 0.
        for i in 0..9u64 {
            h.access(CoreId(0), blk(i * 64), AccessKind::Load);
        }
        // Block 0 was evicted from L1 but lives in L2 (fetched from memory).
        let out = h.access(CoreId(0), blk(0), AccessKind::Load);
        assert!(!out.l1_hit);
        assert!(out.l2_hit);
        assert_eq!(out.latency, Cycles(12));
    }

    #[test]
    fn eviction_reports_victim() {
        let mut h = mk();
        let mut victims = 0;
        for i in 0..9u64 {
            let out = h.access(CoreId(0), blk(i * 64), AccessKind::Load);
            if out.l1_victim.is_some() {
                victims += 1;
            }
        }
        assert_eq!(victims, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = mk();
        h.access(CoreId(0), blk(1), AccessKind::Load);
        h.access(CoreId(0), blk(1), AccessKind::Load);
        let s = h.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.mem_fetches, 1);
    }

    #[test]
    fn discard_local_drops_line_silently() {
        let mut h = mk();
        h.access(CoreId(0), blk(5), AccessKind::Store);
        h.discard_local(CoreId(0), blk(5));
        assert_eq!(h.l1_state(CoreId(0), blk(5)), MesiState::Invalid);
    }

    #[test]
    fn store_miss_with_dirty_peer_transfers_and_invalidates() {
        let mut h = mk();
        h.access(CoreId(0), blk(7), AccessKind::Store);
        let out = h.access(CoreId(1), blk(7), AccessKind::Store);
        assert_eq!(out.invalidated, vec![CoreId(0)]);
        assert_eq!(out.latency, Cycles(12));
        assert_eq!(h.l1_state(CoreId(1), blk(7)), MesiState::Modified);
        assert_eq!(h.l1_state(CoreId(0), blk(7)), MesiState::Invalid);
    }
}
