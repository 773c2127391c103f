//! The full VM system: page table + per-core TLBs + cost accounting.

use crate::page_state::{step, PageState, Transition};
use crate::page_table::PageTable;
use crate::tlb::Tlb;
use hintm_types::{AccessKind, CoreId, Cycles, MachineConfig, PageId, ThreadId};

/// A safe→unsafe page transition requiring a TLB shootdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shootdown {
    /// The page that turned unsafe.
    pub page: PageId,
    /// Cores (other than the initiator) whose TLB cached the page; each
    /// pays the slave cost and any active TX that safely touched the page
    /// must page-mode abort (enforced by the simulator).
    pub slave_cores: Vec<CoreId>,
}

/// The VM outcome of one memory access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmAccess {
    /// Dynamic classification verdict: a **load** of this page by this
    /// thread is safe. Stores are never dynamically safe (§III-B).
    pub safe_load: bool,
    /// Translation cost charged to the accessing core (page walk and/or
    /// minor fault; shootdown initiator cost is included here too).
    pub cost: Cycles,
    /// Present when the access turned the page unsafe.
    pub shootdown: Option<Shootdown>,
}

/// Aggregate VM statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// TLB misses (page walks).
    pub page_walks: u64,
    /// ⟨private,ro⟩→⟨private,rw⟩ minor faults.
    pub minor_faults: u64,
    /// Safe→unsafe transitions (TLB shootdowns).
    pub shootdowns: u64,
    /// Benign downgrades to ⟨shared,ro⟩.
    pub downgrades: u64,
    /// Loads classified safe.
    pub safe_loads: u64,
    /// Loads classified unsafe.
    pub unsafe_loads: u64,
}

/// Memo of a core's most recent translation, validated against the global
/// table [`VmSystem::version`]. See [`VmSystem::access`] for the exact
/// equivalence argument.
#[derive(Clone, Copy, Debug)]
struct CoreMemo {
    page: PageId,
    tid: ThreadId,
    version: u64,
    state: PageState,
}

/// The process-wide VM state: the extended page table and per-core TLBs.
///
/// See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct VmSystem {
    table: PageTable,
    tlbs: Vec<Tlb>,
    preserve: bool,
    page_walk_latency: Cycles,
    minor_fault_cost: Cycles,
    shootdown_initiator_cost: Cycles,
    stats: VmStats,
    /// Bumped whenever any page's table state changes; memos from older
    /// versions are dead.
    version: u64,
    /// Per-core last-translation memo (the repeated-access fast path).
    memos: Vec<Option<CoreMemo>>,
}

impl VmSystem {
    /// Creates the VM system for `cfg.num_cores` cores. `preserve` enables
    /// the §VI-B gentle-downgrade optimization.
    pub fn new(cfg: &MachineConfig, preserve: bool) -> Self {
        VmSystem {
            table: PageTable::new(),
            tlbs: (0..cfg.num_cores)
                .map(|_| Tlb::new(cfg.tlb_entries))
                .collect(),
            preserve,
            page_walk_latency: cfg.page_walk_latency,
            minor_fault_cost: cfg.minor_fault_cost,
            shootdown_initiator_cost: cfg.shootdown_initiator_cost,
            stats: VmStats::default(),
            version: 0,
            memos: vec![None; cfg.num_cores],
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Current state of `page` (`None` = untouched).
    pub fn page_state(&self, page: PageId) -> Option<PageState> {
        self.table.get(page)
    }

    /// Census over all touched pages: `(safe_pages, total_pages)` (Fig. 1).
    pub fn safe_page_census(&self) -> (u64, u64) {
        let total = self.table.len() as u64;
        let mut safe = 0u64;
        self.table.for_each(|_, s| safe += s.is_safe_page() as u64);
        (safe, total)
    }

    /// Translates one access by `tid` running on `core`, stepping the page
    /// state machine and charging TLB/fault costs.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: CoreId,
        tid: ThreadId,
        page: PageId,
        kind: AccessKind,
    ) -> VmAccess {
        // Fast path: this core's immediately preceding access hit the same
        // (page, tid) and no page anywhere has changed state since. The
        // memo then holds the page's exact current state; if stepping it
        // is a no-op (the state machine is a fixed point for repeated
        // identical accesses), the slow path below would charge zero cost
        // — the TLB entry is still resident and MRU (this core performed
        // no other access since installing/touching it, and any remote
        // invalidation implies a `ToSharedRw` transition, which bumps the
        // version) — so only the load-classification counters remain.
        // Skipping the TLB's MRU re-touch is unobservable: relative LRU
        // order, which alone determines evictions, is unchanged.
        if let Some(m) = self.memos[core.index()] {
            if m.page == page && m.tid == tid && m.version == self.version {
                let (after, t) = step(Some(m.state), tid, kind, self.preserve);
                if t == Transition::None {
                    debug_assert_eq!(after, m.state);
                    let safe_load = kind == AccessKind::Load && after.load_is_safe(tid);
                    if kind == AccessKind::Load {
                        if safe_load {
                            self.stats.safe_loads += 1;
                        } else {
                            self.stats.unsafe_loads += 1;
                        }
                    }
                    return VmAccess {
                        safe_load,
                        cost: Cycles::ZERO,
                        shootdown: None,
                    };
                }
            }
        }

        let mut cost = Cycles::ZERO;
        let tlb_hit = self.tlbs[core.index()].lookup(page);

        let mut transition = Transition::None;
        let after = self.table.update(page, |before| {
            let (after, t) = step(before, tid, kind, self.preserve);
            transition = t;
            after
        });
        if transition != Transition::None {
            self.version += 1;
        }

        // A state transition invalidates any cached (now stale) entry; the
        // access then behaves like a TLB miss for cost purposes.
        let effective_hit = tlb_hit && transition == Transition::None;
        if !effective_hit {
            cost += self.page_walk_latency;
            self.stats.page_walks += 1;
            self.tlbs[core.index()].install(page);
        }

        let mut shootdown = None;
        match transition {
            Transition::None => {}
            Transition::MinorFault => {
                cost += self.minor_fault_cost;
                self.stats.minor_faults += 1;
            }
            Transition::ToSharedRo => {
                self.stats.downgrades += 1;
            }
            Transition::ToSharedRw => {
                self.stats.shootdowns += 1;
                cost += self.shootdown_initiator_cost;
                let mut slaves = Vec::new();
                for (i, tlb) in self.tlbs.iter_mut().enumerate() {
                    if i == core.index() {
                        continue;
                    }
                    if tlb.invalidate(page) {
                        slaves.push(CoreId(i as u32));
                    }
                }
                shootdown = Some(Shootdown {
                    page,
                    slave_cores: slaves,
                });
            }
        }

        let safe_load = kind == AccessKind::Load && after.load_is_safe(tid);
        if kind == AccessKind::Load {
            if safe_load {
                self.stats.safe_loads += 1;
            } else {
                self.stats.unsafe_loads += 1;
            }
        }

        self.memos[core.index()] = Some(CoreMemo {
            page,
            tid,
            version: self.version,
            state: after,
        });

        VmAccess {
            safe_load,
            cost,
            shootdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(preserve: bool) -> VmSystem {
        VmSystem::new(&MachineConfig::default(), preserve)
    }

    fn pg(i: u64) -> PageId {
        PageId::from_index(i)
    }

    const X: ThreadId = ThreadId(0);
    const Y: ThreadId = ThreadId(1);
    const CX: CoreId = CoreId(0);
    const CY: CoreId = CoreId(1);

    #[test]
    fn first_touch_costs_a_page_walk() {
        let mut vm = mk(false);
        let a = vm.access(CX, X, pg(1), AccessKind::Load);
        assert_eq!(a.cost, Cycles(30));
        assert!(a.safe_load);
        let b = vm.access(CX, X, pg(1), AccessKind::Load);
        assert_eq!(b.cost, Cycles::ZERO, "TLB hit is free");
    }

    #[test]
    fn owner_write_minor_faults_once() {
        let mut vm = mk(false);
        vm.access(CX, X, pg(1), AccessKind::Load);
        let a = vm.access(CX, X, pg(1), AccessKind::Store);
        assert_eq!(
            a.cost,
            Cycles(30 + 1450),
            "walk (stale entry) + minor fault"
        );
        assert_eq!(vm.stats().minor_faults, 1);
        let b = vm.access(CX, X, pg(1), AccessKind::Store);
        assert_eq!(b.cost, Cycles::ZERO);
        assert!(!a.safe_load && !b.safe_load, "stores are never safe");
    }

    #[test]
    fn remote_write_triggers_shootdown_with_slaves() {
        let mut vm = mk(false);
        vm.access(CX, X, pg(1), AccessKind::Load); // X caches the page
        let a = vm.access(CY, Y, pg(1), AccessKind::Store);
        let sd = a.shootdown.expect("shootdown");
        assert_eq!(sd.page, pg(1));
        assert_eq!(sd.slave_cores, vec![CX]);
        assert_eq!(a.cost, Cycles(30 + 6600));
        assert_eq!(vm.page_state(pg(1)), Some(PageState::SharedRw));
        // X's TLB entry is gone.
        let b = vm.access(CX, X, pg(1), AccessKind::Load);
        assert_eq!(b.cost, Cycles(30));
        assert!(!b.safe_load);
    }

    #[test]
    fn shared_ro_reads_are_safe_for_everyone() {
        let mut vm = mk(false);
        vm.access(CX, X, pg(1), AccessKind::Load);
        let a = vm.access(CY, Y, pg(1), AccessKind::Load);
        assert!(a.safe_load);
        assert!(a.shootdown.is_none());
        assert_eq!(vm.page_state(pg(1)), Some(PageState::SharedRo));
        assert_eq!(vm.stats().downgrades, 1);
    }

    #[test]
    fn default_mode_remote_read_of_written_page_shoots_down() {
        let mut vm = mk(false);
        vm.access(CX, X, pg(1), AccessKind::Store);
        let a = vm.access(CY, Y, pg(1), AccessKind::Load);
        assert!(a.shootdown.is_some());
        assert!(!a.safe_load);
    }

    #[test]
    fn preserve_mode_downgrades_instead() {
        let mut vm = mk(true);
        vm.access(CX, X, pg(1), AccessKind::Store);
        let a = vm.access(CY, Y, pg(1), AccessKind::Load);
        assert!(a.shootdown.is_none());
        assert!(a.safe_load);
        assert_eq!(vm.page_state(pg(1)), Some(PageState::SharedRo));
        // A later write still forces the unsafe transition.
        let b = vm.access(CX, X, pg(1), AccessKind::Store);
        assert!(b.shootdown.is_some());
    }

    #[test]
    fn census_counts_safe_pages() {
        let mut vm = mk(false);
        vm.access(CX, X, pg(1), AccessKind::Load); // private-ro: safe
        vm.access(CX, X, pg(2), AccessKind::Store); // private-rw: safe
        vm.access(CX, X, pg(3), AccessKind::Load);
        vm.access(CY, Y, pg(3), AccessKind::Store); // shared-rw: unsafe
        assert_eq!(vm.safe_page_census(), (2, 3));
    }

    #[test]
    fn stats_track_load_classification() {
        let mut vm = mk(false);
        vm.access(CX, X, pg(1), AccessKind::Load);
        vm.access(CY, Y, pg(2), AccessKind::Store);
        vm.access(CX, X, pg(2), AccessKind::Load); // unsafe load (shared-rw after transition)
        let s = vm.stats();
        assert_eq!(s.safe_loads, 1);
        assert_eq!(s.unsafe_loads, 1);
        assert_eq!(s.shootdowns, 1);
    }
}
