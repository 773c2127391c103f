//! Section lowering: every workload section becomes an [`AccessProgram`],
//! the engine's only executable representation.
//!
//! # One lowering, no cache
//!
//! Each section is *resolved* once before execution — per-op safety
//! verdicts against the run-constant hint sets — and lowered straight into
//! a flat array of packed 16-byte slots: a one-byte opword (kind + safety
//! flags + store bit + compiler hint + pre-resolved escape-window
//! membership), the issuing site, and a single payload lane holding the
//! byte address (accesses) or cycle cost (computes). The engine's replay
//! loop executes straight from these slots; block/page splits and the
//! access record are rebuilt with register arithmetic. Escape windows are
//! folded into each access slot's `F_ESCAPED` bit at lowering time, which
//! is sound because bodies replay verbatim from slot 0 on every retry, so
//! the engine carries no runtime suspend state.
//!
//! Lowering deliberately does *not* fold compute ops into accesses or drop
//! suspend/resume markers: the scheduler interleaves threads between every
//! op, so collapsing slots would change conflict windows, abort points, and
//! [`crate::RunStats::steps`]. One source op is one slot is one scheduling
//! step.
//!
//! Lowered programs are not memoized. Sections rarely repeat verbatim —
//! generated addresses differ run to run — so a content-addressed program
//! cache hit 0–15% of lookups on the benchmark workloads while keying every
//! section and holding up to a thousand programs alive. Instead each
//! section lowers into a buffer the engine recycles from a retired
//! program, so steady-state lowering allocates nothing.

use crate::config::SimConfig;
use crate::section::{Section, TxOp, Workload};
use hintm_types::{AccessKind, Addr, BlockAddr, MemAccess, PageId, SafetyHint, SiteId};
use std::collections::HashSet;

/// The op carries a static-safe verdict (hint, static site set, or notary
/// range, with static hints enabled).
pub(crate) const F_STATIC_SAFE: u8 = 1 << 0;
/// Hint-independent static classification (Fig. 6 footprint views).
pub(crate) const F_RAW_STATIC: u8 = 1 << 1;
/// Opword: the access is a store.
pub(crate) const F_STORE: u8 = 1 << 2;
/// Opword: the slot sits inside a Suspend..Resume escape window
/// (pre-resolved; the access executes non-transactionally).
pub(crate) const F_ESCAPED: u8 = 1 << 3;
/// Opword: the source access carried a compiler [`SafetyHint`] (the raw
/// hint, before the resolver's site/notary folding — kept so the slot
/// reconstructs the original [`MemAccess`] bit-for-bit).
pub(crate) const F_HINT_SAFE: u8 = 1 << 4;

/// Opword kind field (bits 6–7).
pub(crate) const K_MASK: u8 = 0b1100_0000;
/// Kind: memory access.
pub(crate) const K_ACCESS: u8 = 0;
/// Kind: pure computation of the slot's cost cycles.
pub(crate) const K_COMPUTE: u8 = 1 << 6;
/// Kind: begin an escape window (a step-consuming no-op).
pub(crate) const K_SUSPEND: u8 = 2 << 6;
/// Kind: end an escape window (a step-consuming no-op).
pub(crate) const K_RESUME: u8 = 3 << 6;

/// Turns sections into [`AccessProgram`]s. Immutable after construction.
pub(crate) struct Resolver {
    uses_static: bool,
    safe_sites: Vec<SiteId>,
    raw_static_sites: Vec<SiteId>,
    notary_pages: Vec<PageId>,
}

impl Resolver {
    pub(crate) fn new(workload: &dyn Workload, cfg: &SimConfig) -> Self {
        // Hint sets become sorted slices: they are immutable for the whole
        // run, and resolution binary-searches them once per section op
        // instead of once per executed access.
        let mut safe_sites: Vec<SiteId> = if cfg.hint_mode.uses_static() {
            workload.static_safe_sites().into_iter().collect()
        } else {
            Vec::new()
        };
        safe_sites.sort_unstable();
        // Raw static sites (for the hint-independent Fig. 6 views).
        let mut raw_static_sites: Vec<SiteId> = workload.static_safe_sites().into_iter().collect();
        raw_static_sites.sort_unstable();
        // Notary-style manual privatization ranges, expanded to pages.
        let mut notary_pages: HashSet<PageId> = HashSet::new();
        for (base, len) in workload.notary_safe_ranges() {
            let mut page = base.page().index();
            let last = base.offset(len.saturating_sub(1)).page().index();
            while page <= last {
                notary_pages.insert(PageId::from_index(page));
                page += 1;
            }
        }
        let mut notary_pages: Vec<PageId> = notary_pages.into_iter().collect();
        notary_pages.sort_unstable();
        Resolver {
            uses_static: cfg.hint_mode.uses_static(),
            safe_sites,
            raw_static_sites,
            notary_pages,
        }
    }

    /// The run-constant safety flags for one access (`F_STATIC_SAFE` /
    /// `F_RAW_STATIC`).
    #[inline]
    fn access_flags(&self, a: &MemAccess, page: PageId) -> u8 {
        let hint_safe = a.hint.is_safe()
            || self.safe_sites.binary_search(&a.site).is_ok()
            || (self.uses_static && self.notary_pages.binary_search(&page).is_ok());
        let mut flags = 0;
        if self.uses_static && hint_safe {
            flags |= F_STATIC_SAFE;
        }
        if a.hint.is_safe() || self.raw_static_sites.binary_search(&a.site).is_ok() {
            flags |= F_RAW_STATIC;
        }
        flags
    }

    /// Lowers `section` into `buf`'s storage (a retired program, or an
    /// empty one); `None` for a barrier, which carries no ops.
    pub(crate) fn resolve_into(
        &self,
        section: Section,
        mut buf: AccessProgram,
    ) -> Option<AccessProgram> {
        match section {
            Section::Barrier => return None,
            Section::NonTx(ops) => self.lower_into(false, &ops, &mut buf),
            Section::Tx(body) => self.lower_into(true, &body.ops, &mut buf),
        }
        Some(buf)
    }

    /// Lowers one section body, one slot per source op. Escape windows are
    /// resolved positionally: an access slot is marked [`F_ESCAPED`] iff
    /// the suspend depth at its program point is positive.
    fn lower_into(&self, tx: bool, ops: &[TxOp], p: &mut AccessProgram) {
        p.tx = tx;
        p.slots.clear();
        p.slots.reserve(ops.len());
        let mut depth = 0u32;
        for op in ops {
            let slot = match op {
                TxOp::Compute(c) => Slot {
                    payload: *c,
                    site: SiteId(0),
                    word: K_COMPUTE,
                },
                TxOp::Suspend => {
                    debug_assert!(depth == 0, "nested suspend");
                    depth += 1;
                    Slot {
                        payload: 0,
                        site: SiteId(0),
                        word: K_SUSPEND,
                    }
                }
                TxOp::Resume => {
                    debug_assert!(depth > 0, "resume without suspend");
                    depth = depth.saturating_sub(1);
                    Slot {
                        payload: 0,
                        site: SiteId(0),
                        word: K_RESUME,
                    }
                }
                TxOp::Access(a) => {
                    let mut w = K_ACCESS | self.access_flags(a, a.addr.page());
                    if a.kind == AccessKind::Store {
                        w |= F_STORE;
                    }
                    if a.hint.is_safe() {
                        w |= F_HINT_SAFE;
                    }
                    if depth > 0 {
                        w |= F_ESCAPED;
                    }
                    Slot {
                        payload: a.addr.raw(),
                        site: a.site,
                        word: w,
                    }
                }
            };
            p.slots.push(slot);
        }
    }
}

/// One lowered slot: a packed opword plus a single payload lane. The
/// payload is the byte address for access slots and the cycle cost for
/// compute slots — everything else (block, page, kind, hint) is
/// reconstructed from the opword and address with register arithmetic.
/// The replay loop's per-event fetch is one bounds check and two machine
/// words.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Byte address ([`K_ACCESS`]) or compute cycles ([`K_COMPUTE`]).
    payload: u64,
    /// Issuing static site ([`K_ACCESS`] only).
    site: SiteId,
    /// Kind + flag bits (see the `K_*` / `F_*` constants).
    word: u8,
}

/// A lowered section body, replayed verbatim across retries: one packed
/// 16-byte `Slot` per source op — kind, store bit, hint, safety flags and
/// pre-resolved escape membership in the opword, the address or cost in
/// the payload lane.
#[derive(Debug, Default)]
pub struct AccessProgram {
    tx: bool,
    slots: Vec<Slot>,
}

impl AccessProgram {
    /// Number of slots (one per source op).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Lowered from a transactional section?
    pub fn is_tx(&self) -> bool {
        self.tx
    }

    /// Distinct cache blocks among the access slots — the quantity PR 8's
    /// static footprint analysis bounds per transaction.
    pub fn distinct_blocks(&self) -> usize {
        let mut seen: HashSet<BlockAddr> = HashSet::new();
        for s in &self.slots {
            if s.word & K_MASK == K_ACCESS {
                seen.insert(Addr::new(s.payload).block());
            }
        }
        seen.len()
    }

    /// The packed slot at `pos` — the engine's per-event fetch: (opword,
    /// payload, site).
    #[inline]
    pub(crate) fn packed(&self, pos: usize) -> (u8, u64, SiteId) {
        let s = self.slots[pos];
        (s.word, s.payload, s.site)
    }
}

/// Rebuilds the source [`MemAccess`] of an access slot from its packed
/// (opword, payload, site) form.
#[inline]
pub(crate) fn decode_access(w: u8, payload: u64, site: SiteId) -> MemAccess {
    MemAccess {
        addr: Addr::new(payload),
        kind: if w & F_STORE != 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        },
        site,
        hint: if w & F_HINT_SAFE != 0 {
            SafetyHint::Safe
        } else {
            SafetyHint::Unsafe
        },
    }
}

/// Public entry point into lowering: lowers the sections a workload
/// generates with the same resolver the engine uses. Tooling and tests use
/// it to inspect [`AccessProgram`]s (e.g. checking per-TX distinct-block
/// counts against the static footprint analysis) without running a
/// simulation.
pub struct SectionCompiler {
    resolver: Resolver,
    lowered: u64,
}

impl SectionCompiler {
    /// A compiler over `workload`'s hint sets under `cfg`.
    pub fn new(workload: &dyn Workload, cfg: &SimConfig) -> Self {
        SectionCompiler {
            resolver: Resolver::new(workload, cfg),
            lowered: 0,
        }
    }

    /// Lowers one section (`None` for barriers, which carry no ops).
    pub fn compile(&mut self, section: &Section) -> Option<AccessProgram> {
        let (tx, ops) = match section {
            Section::Barrier => return None,
            Section::NonTx(ops) => (false, ops),
            Section::Tx(body) => (true, &body.ops),
        };
        let mut p = AccessProgram::default();
        self.resolver.lower_into(tx, ops, &mut p);
        self.lowered += 1;
        Some(p)
    }

    /// Always 0: lowered programs are not cached.
    pub fn cache_hits(&self) -> u64 {
        0
    }

    /// Sections lowered so far (every compile lowers).
    pub fn cache_misses(&self) -> u64 {
        self.lowered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HintMode;
    use crate::section::TxBody;
    use hintm_types::rng::SmallRng;
    use hintm_types::ThreadId;

    /// A workload that generates nothing but declares hint sets: site 3 is
    /// statically safe and the page at 0x4000 is notary-privatized.
    struct Hinted;
    impl Workload for Hinted {
        fn name(&self) -> &'static str {
            "hinted"
        }
        fn num_threads(&self) -> usize {
            1
        }
        fn reset(&mut self, _seed: u64) {}
        fn next_section(&mut self, _tid: ThreadId) -> Option<Section> {
            None
        }
        fn static_safe_sites(&self) -> HashSet<SiteId> {
            [SiteId(3)].into_iter().collect()
        }
        fn notary_safe_ranges(&self) -> Vec<(Addr, u64)> {
            vec![(Addr::new(0x4000), 64)]
        }
    }

    fn body() -> TxBody {
        TxBody::new(vec![
            TxOp::Access(MemAccess::load(Addr::new(0x40), SiteId(1))),
            TxOp::Compute(17),
            TxOp::Suspend,
            TxOp::Access(MemAccess::store(Addr::new(0x80), SiteId(2))),
            TxOp::Resume,
            TxOp::Access(MemAccess::store(Addr::new(0x40), SiteId(3))),
        ])
    }

    fn words(p: &AccessProgram) -> Vec<u8> {
        (0..p.len()).map(|i| p.packed(i).0).collect()
    }

    #[test]
    fn lowering_packs_kind_store_and_escape() {
        let mut sc = SectionCompiler::new(&Hinted, &SimConfig::default());
        let p = sc.compile(&Section::Tx(body())).expect("tx compiles");
        assert!(p.is_tx());
        assert_eq!(p.len(), 6);
        assert_eq!(p.distinct_blocks(), 2);
        let words = words(&p);
        assert_eq!(words[0] & K_MASK, K_ACCESS);
        assert_eq!(words[0] & (F_STORE | F_ESCAPED), 0);
        assert_eq!(words[1] & K_MASK, K_COMPUTE);
        assert_eq!(p.packed(1).1, 17, "compute cost rides in the payload");
        assert_eq!(words[2] & K_MASK, K_SUSPEND);
        assert_eq!(
            words[3] & (K_MASK | F_STORE | F_ESCAPED),
            F_STORE | F_ESCAPED,
            "store inside the window is escaped"
        );
        assert_eq!(words[4] & K_MASK, K_RESUME);
        assert_eq!(
            words[5] & (K_MASK | F_STORE | F_ESCAPED),
            F_STORE,
            "store after the window is transactional again"
        );
    }

    #[test]
    fn every_compile_lowers() {
        let mut sc = SectionCompiler::new(&Hinted, &SimConfig::default());
        let a = sc.compile(&Section::Tx(body())).unwrap();
        let c = sc.compile(&Section::NonTx(body().ops)).unwrap();
        assert!(a.is_tx() && !c.is_tx());
        assert_eq!(words(&a), words(&c), "TX-ness is not in the opwords");
        assert_eq!((sc.cache_hits(), sc.cache_misses()), (0, 2));
    }

    #[test]
    fn safety_flags_follow_the_hint_mode() {
        let access =
            |addr: u64, site: u32| TxOp::Access(MemAccess::load(Addr::new(addr), SiteId(site)));
        let section = Section::Tx(TxBody::new(vec![
            access(0x40, 1),
            access(0x80, 3),
            access(0x4010, 1),
            TxOp::Access(MemAccess::load(Addr::new(0xC0), SiteId(1)).with_hint(SafetyHint::Safe)),
        ]));
        let flags = |mode: HintMode| -> Vec<u8> {
            let mut sc = SectionCompiler::new(&Hinted, &SimConfig::default().hint_mode(mode));
            let p = sc.compile(&section).unwrap();
            words(&p)
                .iter()
                .map(|w| w & (F_STATIC_SAFE | F_RAW_STATIC))
                .collect()
        };
        // Raw static classification ignores the hint mode; the static-safe
        // verdict (site set, notary page, compiler hint) needs static hints.
        assert_eq!(flags(HintMode::Off), [0, F_RAW_STATIC, 0, F_RAW_STATIC]);
        let both = F_STATIC_SAFE | F_RAW_STATIC;
        assert_eq!(flags(HintMode::Static), [0, both, F_STATIC_SAFE, both],);
    }

    /// A random section body: accesses (loads/stores, hinted or not, over
    /// a few sites and pages), computes, and balanced, non-nested
    /// suspend/resume windows.
    fn random_ops(rng: &mut SmallRng) -> Vec<TxOp> {
        let n = rng.gen_range(0..40usize);
        let mut ops = Vec::with_capacity(n + 1);
        let mut open = false;
        for _ in 0..n {
            match rng.gen_range(0..10u32) {
                0 => {
                    ops.push(if open { TxOp::Resume } else { TxOp::Suspend });
                    open = !open;
                }
                1 | 2 => ops.push(TxOp::Compute(rng.gen_range(0..1000u64))),
                _ => {
                    let addr = Addr::new(rng.gen_range(0..0x10000u64));
                    let site = SiteId(rng.gen_range(0..6u32));
                    let mut a = if rng.gen_bool(0.4) {
                        MemAccess::store(addr, site)
                    } else {
                        MemAccess::load(addr, site)
                    };
                    if rng.gen_bool(0.2) {
                        a = a.with_hint(SafetyHint::Safe);
                    }
                    ops.push(TxOp::Access(a));
                }
            }
        }
        if open {
            ops.push(TxOp::Resume);
        }
        ops
    }

    /// Lowering round trip: every slot decodes back to its source op —
    /// kind, address, site, store bit, hint and cost — carries the
    /// resolver's safety flags, and is escaped exactly inside a window.
    #[test]
    fn lowering_round_trips_random_sections() {
        let mut rng = SmallRng::seed_from_u64(0x5EC7);
        let cfgs = [
            SimConfig::default(),
            SimConfig::default().hint_mode(HintMode::Full),
        ];
        for case in 0..512 {
            let cfg = &cfgs[case % cfgs.len()];
            let resolver = Resolver::new(&Hinted, cfg);
            let ops = random_ops(&mut rng);
            let tx = rng.gen_bool(0.5);
            let section = if tx {
                Section::Tx(TxBody::new(ops.clone()))
            } else {
                Section::NonTx(ops.clone())
            };
            // Lower into a recycled buffer that held a longer program.
            let mut buf = AccessProgram::default();
            resolver.lower_into(!tx, &random_ops(&mut rng), &mut buf);
            let Some(p) = resolver.resolve_into(section, buf) else {
                panic!("case {case}: a section lowers to a program");
            };
            assert_eq!(p.is_tx(), tx, "case {case}");
            assert_eq!(p.len(), ops.len(), "case {case}: one slot per op");
            let mut inside = false;
            for (pos, op) in ops.iter().enumerate() {
                let (w, payload, site) = p.packed(pos);
                let decoded = match w & K_MASK {
                    K_ACCESS => TxOp::Access(decode_access(w, payload, site)),
                    K_COMPUTE => TxOp::Compute(payload),
                    K_SUSPEND => TxOp::Suspend,
                    _ => TxOp::Resume,
                };
                assert_eq!(&decoded, op, "case {case} slot {pos}");
                match op {
                    TxOp::Suspend => inside = true,
                    TxOp::Resume => inside = false,
                    TxOp::Compute(_) => {}
                    TxOp::Access(a) => {
                        assert_eq!(
                            w & (F_STATIC_SAFE | F_RAW_STATIC),
                            resolver.access_flags(a, a.addr.page()),
                            "case {case} slot {pos}: safety flags"
                        );
                    }
                }
                let escaped = matches!(op, TxOp::Access(_)) && inside;
                assert_eq!(
                    w & F_ESCAPED != 0,
                    escaped,
                    "case {case} slot {pos}: F_ESCAPED iff an access inside a window"
                );
            }
        }
    }

    #[test]
    fn barriers_do_not_compile() {
        let mut sc = SectionCompiler::new(&Hinted, &SimConfig::default());
        assert!(sc.compile(&Section::Barrier).is_none());
        assert_eq!(sc.cache_misses(), 0);
    }
}
