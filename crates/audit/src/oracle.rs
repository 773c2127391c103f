//! The dynamic sharing oracle: checks declared safe sites against the
//! inter-thread sharing an actual run exhibits.
//!
//! A safe hint tells the HTM to skip conflict tracking for an access, so a
//! hint is *unsound* exactly when the access could race: the paper's §IV-A
//! contract is that a safe access touches memory no other thread touches
//! concurrently. The oracle replays a workload under a [`TraceSink`]
//! (consuming the engine's access, section-start and barrier events),
//! records per-address sharing with [`AccessRecorder`], and then judges
//! every executed site:
//!
//! * a safe **load** is unsound if another thread *wrote* its address in
//!   the same barrier epoch (the load could read torn speculative state);
//! * a safe **store** is unsound if another thread wrote the address in the
//!   same epoch **and** the storing thread was not the address's *logical*
//!   first writer. The exemption admits the initialize-then-publish
//!   pattern: the thread that creates an object initializes it with safe
//!   stores before any other thread can reach it. "Logical" order is
//!   section *generation* order (via [`TraceEvent::SectionStart`]),
//!   not execution order — workload state advances when a section is
//!   generated, so a later thread's rotation write to a fresh node can
//!   physically execute before the creator's own init store replays, and
//!   judging by execution order would flag sound hints;
//! * an *unhinted* site is a **missed hint** if every address it touched is
//!   provably private (one thread only) or never written (read-only) — the
//!   classifier left performance on the table.
//!
//! Reads and writes are compared at raw-address granularity, not cache
//! blocks: false sharing within a block aborts transactions but does not
//! make a hint unsound.

use hintm_mem::AccessRecorder;
use hintm_sim::{TraceEvent, TraceSink};
use hintm_types::{AccessKind, Addr, MemAccess, SiteId, ThreadId};
use std::collections::{BTreeMap, BTreeSet};

/// One observation: `(address, epoch, thread, is_store)`.
type Obs = (u64, u32, u32, bool);

/// Observes a run and accumulates everything the oracle needs.
#[derive(Clone, Debug, Default)]
pub struct OracleRecorder {
    rec: AccessRecorder,
    /// Per-site distinct observations. Runtime-internal accesses
    /// ([`SiteId::UNKNOWN`]) are excluded — they carry no hint.
    site_obs: BTreeMap<SiteId, BTreeSet<Obs>>,
    /// Each thread's current section-generation sequence number.
    cur_seq: BTreeMap<u32, u64>,
    /// Global section-generation counter.
    next_seq: u64,
    /// Per-address logically-first writer: the storing thread whose
    /// section was generated earliest, `(generation seq, thread)`.
    logical_writer: BTreeMap<u64, (u64, u32)>,
}

impl OracleRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Judges every executed site against `safe`, the declared safe set.
    pub fn evaluate(&self, safe: &BTreeSet<SiteId>) -> OracleReport {
        let mut unsound = Vec::new();
        let mut missed = Vec::new();
        for (&site, obs) in &self.site_obs {
            if safe.contains(&site) {
                // Flag each offending address once per site.
                let mut flagged = BTreeSet::new();
                for &(addr, epoch, tid, is_store) in obs {
                    if flagged.contains(&addr) {
                        continue;
                    }
                    let tid = ThreadId(tid);
                    let Some(h) = self.rec.history(Addr::new(addr)) else {
                        continue;
                    };
                    let logically_first =
                        self.logical_writer.get(&addr).map(|&(_, t)| t) == Some(tid.0);
                    let racy = if is_store {
                        h.epoch(epoch).written_by_other(tid) && !logically_first
                    } else {
                        h.epoch(epoch).written_by_other(tid)
                    };
                    if racy {
                        flagged.insert(addr);
                        unsound.push(UnsoundHint {
                            site,
                            addr: Addr::new(addr),
                            kind: if is_store {
                                AccessKind::Store
                            } else {
                                AccessKind::Load
                            },
                            thread: tid,
                            epoch,
                        });
                    }
                }
            } else {
                let provably_private = obs.iter().all(|&(addr, _, _, is_store)| {
                    match self.rec.history(Addr::new(addr)) {
                        Some(h) => h.thread_count() <= 1 || (!is_store && h.never_written()),
                        None => true,
                    }
                });
                if provably_private {
                    missed.push(site);
                }
            }
        }
        OracleReport {
            unsound,
            missed,
            sites_executed: self.site_obs.len(),
            addrs_touched: self.rec.num_addrs(),
        }
    }
}

impl OracleRecorder {
    /// Records one executed memory access.
    pub(crate) fn access(&mut self, tid: ThreadId, access: MemAccess, _in_tx: bool) {
        self.rec.record(tid, access.addr, access.kind);
        if access.kind == AccessKind::Store {
            let seq = self.cur_seq.get(&tid.0).copied().unwrap_or(0);
            let e = self
                .logical_writer
                .entry(access.addr.raw())
                .or_insert((seq, tid.0));
            // Strict `<` keeps the earliest-observed writer on replays of
            // the same section (equal seq) and on pre-section accesses.
            if seq < e.0 {
                *e = (seq, tid.0);
            }
        }
        if access.site != SiteId::UNKNOWN {
            self.site_obs.entry(access.site).or_default().insert((
                access.addr.raw(),
                self.rec.epoch(),
                tid.0,
                access.kind == AccessKind::Store,
            ));
        }
    }

    /// Notes that `tid` is about to generate its next section.
    pub(crate) fn section_start(&mut self, tid: ThreadId) {
        self.next_seq += 1;
        self.cur_seq.insert(tid.0, self.next_seq);
    }

    /// Notes a barrier release (starts a new sharing epoch).
    pub(crate) fn barrier(&mut self) {
        self.rec.advance_epoch();
    }
}

impl TraceSink for OracleRecorder {
    fn event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Access {
                thread,
                access,
                in_tx,
                ..
            } => self.access(thread, access, in_tx),
            TraceEvent::SectionStart { thread, .. } => self.section_start(thread),
            TraceEvent::BarrierRelease { .. } => self.barrier(),
            // Lifecycle, cache and coherence events carry no sharing
            // information the oracle needs.
            _ => {}
        }
    }
}

/// One unsound hint: a declared-safe site observed racing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsoundHint {
    /// The declared-safe site.
    pub site: SiteId,
    /// The raced address.
    pub addr: Addr,
    /// Whether the safe access was a load or a store.
    pub kind: AccessKind,
    /// The thread that executed the safe access.
    pub thread: ThreadId,
    /// The barrier epoch in which the race was observed.
    pub epoch: u32,
}

/// The oracle's verdict for one run.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Declared-safe sites observed racing (one entry per site/address).
    pub unsound: Vec<UnsoundHint>,
    /// Unhinted sites whose every touched address was provably private or
    /// read-only: candidates the static classifier missed.
    pub(crate) missed: Vec<SiteId>,
    /// Distinct (hint-carrying) sites that executed.
    pub(crate) sites_executed: usize,
    /// Distinct raw addresses the run touched.
    pub(crate) addrs_touched: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(addr: u64, site: u32) -> MemAccess {
        MemAccess::load(Addr::new(addr), SiteId(site))
    }
    fn store(addr: u64, site: u32) -> MemAccess {
        MemAccess::store(Addr::new(addr), SiteId(site))
    }

    #[test]
    fn write_write_race_on_safe_site_is_unsound() {
        let mut o = OracleRecorder::new();
        o.access(ThreadId(0), store(0x100, 7), true);
        o.access(ThreadId(1), store(0x100, 7), true);
        let safe = [SiteId(7)].into_iter().collect();
        let r = o.evaluate(&safe);
        // Thread 0 is the first writer (exempt); thread 1 is not.
        assert_eq!(r.unsound.len(), 1);
        assert_eq!(r.unsound[0].thread, ThreadId(1));
        assert_eq!(r.unsound[0].site, SiteId(7));
    }

    #[test]
    fn first_writer_initialization_is_sound() {
        // T0 creates and initializes; T1 reads later in the same epoch
        // (replay overlap). The init store must not be flagged.
        let mut o = OracleRecorder::new();
        o.access(ThreadId(0), store(0x200, 3), true);
        o.access(ThreadId(1), load(0x200, 9), true);
        let safe = [SiteId(3)].into_iter().collect();
        let r = o.evaluate(&safe);
        assert!(r.unsound.is_empty(), "{:?}", r.unsound);
    }

    #[test]
    fn generation_order_beats_execution_order() {
        // T1's section is generated first (its insert creates the node),
        // but T0's later-generated section physically writes the node
        // first (replay overlap). T1's init store is logically first and
        // must stay exempt.
        let mut o = OracleRecorder::new();
        o.section_start(ThreadId(1));
        o.section_start(ThreadId(0));
        o.access(ThreadId(0), store(0x250, 8), true); // link write, unhinted
        o.access(ThreadId(1), store(0x250, 3), true); // init store, safe
        let safe = [SiteId(3)].into_iter().collect();
        let r = o.evaluate(&safe);
        assert!(r.unsound.is_empty(), "{:?}", r.unsound);
    }

    #[test]
    fn safe_load_racing_a_writer_is_unsound() {
        let mut o = OracleRecorder::new();
        o.access(ThreadId(0), load(0x300, 4), true);
        o.access(ThreadId(1), store(0x300, 5), true);
        let safe = [SiteId(4)].into_iter().collect();
        let r = o.evaluate(&safe);
        assert_eq!(r.unsound.len(), 1);
        assert_eq!(r.unsound[0].kind, AccessKind::Load);
    }

    #[test]
    fn barrier_separation_clears_the_race() {
        let mut o = OracleRecorder::new();
        o.access(ThreadId(0), load(0x400, 4), true);
        o.barrier();
        o.access(ThreadId(1), store(0x400, 5), true);
        let safe = [SiteId(4)].into_iter().collect();
        assert!(o.evaluate(&safe).unsound.is_empty());
    }

    #[test]
    fn private_unhinted_site_is_a_missed_hint() {
        let mut o = OracleRecorder::new();
        o.access(ThreadId(2), store(0x500, 11), true);
        o.access(ThreadId(2), load(0x500, 12), true);
        let r = o.evaluate(&BTreeSet::new());
        assert_eq!(r.missed, vec![SiteId(11), SiteId(12)]);
    }

    #[test]
    fn shared_unhinted_site_is_not_missed() {
        let mut o = OracleRecorder::new();
        o.access(ThreadId(0), store(0x600, 11), true);
        o.access(ThreadId(1), store(0x600, 11), true);
        let r = o.evaluate(&BTreeSet::new());
        assert!(r.missed.is_empty());
        assert!(r.unsound.is_empty(), "unhinted sites cannot be unsound");
    }

    #[test]
    fn unknown_sites_are_ignored() {
        let mut o = OracleRecorder::new();
        o.access(ThreadId(0), store(0x700, SiteId::UNKNOWN.0), true);
        let r = o.evaluate(&BTreeSet::new());
        assert_eq!(r.sites_executed, 0);
        assert_eq!(r.addrs_touched, 1, "raw sharing is still recorded");
    }
}
