//! Static capacity-footprint analysis: how many distinct cache blocks can
//! each transaction touch?
//!
//! Built on the [`dataflow`](crate::dataflow) framework: the effect of a
//! statement is a pair of per-object [`Interval`]s — how many distinct
//! blocks of each abstract object the statement may read and write. The
//! composition rules keep both ends sound for *distinct-block* counts:
//!
//! * **seq**: per object, `lo = max` (two accesses may hit the same
//!   block, so only the larger guarantee survives) and `hi = sum`
//!   (distinct blocks cannot exceed total accesses);
//! * **choice**: per object, interval join with absent = 0;
//! * **repeat**: `lo = 0` (the loop may not run) and `hi = hi × trip`,
//!   unbounded when no static trip bound exists;
//! * **memcpy**: a whole-object effect — exactly the object's block count
//!   when its size is known.
//!
//! At aggregation time each object's bounds are clamped to its block
//! count when the byte size is statically known *and* the allocation is
//! not inside a loop (a looped allocation site stands for many live
//! instances, so one instance's size is not a valid cap). Accesses whose
//! points-to set is empty poison the transaction to an unbounded
//! footprint. Per-transaction totals then yield a verdict per
//! capacity-bounded HTM model ([`CapacityModel`]): `fits` when the upper
//! bound is within capacity, `must-overflow` when even the lower bound
//! exceeds it, `may-overflow` in between.

use crate::dataflow::{stmts_effect, Bound, EffectDomain, Interval, Lattice, SummaryCache};
use crate::module::{FuncId, GlobalId, Instr, Module, ObjId, Stmt};
use crate::points_to::PointsTo;
use std::collections::BTreeMap;

/// Number of bytes per cache block (mirrors `hintm_types::BLOCK_SIZE`).
const BLOCK_BYTES: u64 = hintm_types::BLOCK_SIZE as u64;

/// Per-object read/write block-count intervals plus poison flags for
/// accesses that cannot be attributed to any object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AccessEffect {
    /// Blocks read per abstract object.
    pub(crate) reads: BTreeMap<ObjId, Interval>,
    /// Blocks written per abstract object.
    pub(crate) writes: BTreeMap<ObjId, Interval>,
    /// A read with an empty points-to set occurred: reads unbounded.
    pub(crate) unbounded_reads: bool,
    /// A write with an empty points-to set occurred: writes unbounded.
    pub(crate) unbounded_writes: bool,
}

/// The footprint effect domain over a fixed points-to solution.
pub(crate) struct FootprintDomain<'a> {
    pt: &'a PointsTo,
    /// Block counts of statically sized objects.
    blocks: &'a BTreeMap<ObjId, u64>,
}

impl FootprintDomain<'_> {
    fn access(
        &self,
        fid: FuncId,
        ptr: crate::module::ValueId,
    ) -> (BTreeMap<ObjId, Interval>, bool) {
        let objs = self.pt.pts(fid, ptr);
        if objs.is_empty() {
            return (BTreeMap::new(), true);
        }
        let lo = if objs.len() == 1 { 1 } else { 0 };
        let mut map = BTreeMap::new();
        for &o in objs {
            map.insert(o, Interval::new(lo, Bound::Finite(1)));
        }
        (map, false)
    }

    /// A whole-object access (memcpy side): the object's full block count
    /// when sized, otherwise at least one block and unboundedly many at
    /// most.
    fn whole_object(
        &self,
        fid: FuncId,
        ptr: crate::module::ValueId,
    ) -> (BTreeMap<ObjId, Interval>, bool) {
        let objs = self.pt.pts(fid, ptr);
        if objs.is_empty() {
            return (BTreeMap::new(), true);
        }
        let single = objs.len() == 1;
        let mut map = BTreeMap::new();
        for &o in objs {
            let interval = match self.blocks.get(&o) {
                Some(&b) => Interval::new(if single { b } else { 0 }, Bound::Finite(b)),
                None => Interval::new(if single { 1 } else { 0 }, Bound::Unbounded),
            };
            map.insert(o, interval);
        }
        (map, false)
    }
}

impl EffectDomain for FootprintDomain<'_> {
    type Effect = AccessEffect;

    fn identity(&self) -> AccessEffect {
        AccessEffect::default()
    }

    fn instr(&self, fid: FuncId, _visit_idx: u32, instr: &Instr) -> AccessEffect {
        let mut e = AccessEffect::default();
        match instr {
            Instr::Load { ptr, .. } => {
                let (map, poison) = self.access(fid, *ptr);
                e.reads = map;
                e.unbounded_reads = poison;
            }
            Instr::Store { ptr, .. } => {
                let (map, poison) = self.access(fid, *ptr);
                e.writes = map;
                e.unbounded_writes = poison;
            }
            Instr::Memcpy { dst, src, .. } => {
                let (reads, rp) = self.whole_object(fid, *src);
                let (writes, wp) = self.whole_object(fid, *dst);
                e.reads = reads;
                e.writes = writes;
                e.unbounded_reads = rp;
                e.unbounded_writes = wp;
            }
            _ => {}
        }
        e
    }

    fn seq(&self, a: &AccessEffect, b: &AccessEffect) -> AccessEffect {
        fn seq_map(
            a: &BTreeMap<ObjId, Interval>,
            b: &BTreeMap<ObjId, Interval>,
        ) -> BTreeMap<ObjId, Interval> {
            let mut out = a.clone();
            for (&o, ib) in b {
                let merged = match out.get(&o) {
                    Some(ia) => Interval::new(ia.lo.max(ib.lo), ia.hi.add(ib.hi)),
                    None => *ib,
                };
                out.insert(o, merged);
            }
            out
        }
        AccessEffect {
            reads: seq_map(&a.reads, &b.reads),
            writes: seq_map(&a.writes, &b.writes),
            unbounded_reads: a.unbounded_reads || b.unbounded_reads,
            unbounded_writes: a.unbounded_writes || b.unbounded_writes,
        }
    }

    fn choice(&self, a: &AccessEffect, b: &AccessEffect) -> AccessEffect {
        fn join_map(
            a: &BTreeMap<ObjId, Interval>,
            b: &BTreeMap<ObjId, Interval>,
        ) -> BTreeMap<ObjId, Interval> {
            let mut out = BTreeMap::new();
            for &o in a.keys().chain(b.keys()) {
                let ia = a.get(&o).copied().unwrap_or(Interval::ZERO);
                let ib = b.get(&o).copied().unwrap_or(Interval::ZERO);
                out.insert(o, ia.join(&ib));
            }
            out
        }
        AccessEffect {
            reads: join_map(&a.reads, &b.reads),
            writes: join_map(&a.writes, &b.writes),
            unbounded_reads: a.unbounded_reads || b.unbounded_reads,
            unbounded_writes: a.unbounded_writes || b.unbounded_writes,
        }
    }

    fn repeat(&self, e: &AccessEffect, trip: Option<u32>) -> AccessEffect {
        if trip == Some(0) {
            return self.identity();
        }
        let rep = |m: &BTreeMap<ObjId, Interval>| -> BTreeMap<ObjId, Interval> {
            m.iter().map(|(&o, i)| (o, i.repeat(trip))).collect()
        };
        AccessEffect {
            reads: rep(&e.reads),
            writes: rep(&e.writes),
            unbounded_reads: e.unbounded_reads,
            unbounded_writes: e.unbounded_writes,
        }
    }

    fn top(&self) -> AccessEffect {
        AccessEffect {
            reads: BTreeMap::new(),
            writes: BTreeMap::new(),
            unbounded_reads: true,
            unbounded_writes: true,
        }
    }
}

/// The footprint bound of one syntactic transaction.
#[derive(Clone, Debug)]
pub struct TxFootprint {
    /// Function containing the transaction.
    pub func: FuncId,
    /// Position among the module's transactions in walk order.
    pub index: usize,
    /// Upper bound on distinct blocks read.
    pub read_hi: Bound,
    /// Upper bound on distinct blocks written.
    pub write_hi: Bound,
    /// Upper bound on distinct blocks touched (reads ∪ writes).
    pub total_hi: Bound,
    /// Guaranteed distinct blocks touched on every execution.
    pub total_lo: u64,
    /// Guaranteed distinct blocks written on every execution.
    pub write_lo: u64,
    /// False when transaction boundaries were malformed (cross-level
    /// nesting, unterminated region): all bounds are then unbounded.
    pub balanced: bool,
}

/// Static capacity-abort verdict for one transaction × model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The upper bound fits in the model's capacity: it can never
    /// capacity-abort.
    Fits,
    /// The bounds straddle the capacity.
    MayOverflow,
    /// Even the guaranteed lower bound exceeds capacity: every execution
    /// overflows.
    MustOverflow,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Fits => write!(f, "fits"),
            Verdict::MayOverflow => write!(f, "may-overflow"),
            Verdict::MustOverflow => write!(f, "must-overflow"),
        }
    }
}

/// A capacity-bounded HTM model the analysis can give verdicts for.
/// Capacities mirror the simulator's `HtmConfig` defaults.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapacityModel {
    /// 64-entry fully associative read/write buffer: aborts when the
    /// combined footprint exceeds 64 blocks.
    P8,
    /// P8 buffer plus a read signature: overflowing *reads* spill to the
    /// signature and never abort, so only the write footprint is bounded
    /// (64 blocks).
    P8S,
    /// L1-based tracking (32 KiB, 8-way): a transaction fitting in 8
    /// blocks can never lose a line to associativity pressure, while one
    /// touching more than 512 blocks cannot fit in the cache at all.
    L1Tm,
    /// Limited read/write-set HTM (64-entry buffer, read-limit 32,
    /// write-limit 32): the write-set is exact and bounded at 32 blocks,
    /// reads beyond 32 spill to a signature but still occupy pressure
    /// against the shared buffer.
    Lrws,
    /// POWER-style capacity stretching (64-entry buffer, 4 stretch events
    /// per TX): each stretch sheds the read-only entries, so the effective
    /// capacity grows with how small the write-set stays.
    PStretch,
}

impl CapacityModel {
    /// All capacity-bounded models, in display order.
    pub const ALL: [CapacityModel; 5] = [
        CapacityModel::P8,
        CapacityModel::P8S,
        CapacityModel::L1Tm,
        CapacityModel::Lrws,
        CapacityModel::PStretch,
    ];

    /// Display name matching `HtmKind`'s.
    pub fn name(&self) -> &'static str {
        match self {
            CapacityModel::P8 => "P8",
            CapacityModel::P8S => "P8S",
            CapacityModel::L1Tm => "L1TM",
            CapacityModel::Lrws => "LRWS",
            CapacityModel::PStretch => "PStretch",
        }
    }

    /// The static verdict for `tx` under this model.
    pub fn verdict(&self, tx: &TxFootprint) -> Verdict {
        match self {
            CapacityModel::P8 => Self::classify(tx.total_hi, tx.total_lo, 64),
            CapacityModel::P8S => Self::classify(tx.write_hi, tx.write_lo, 64),
            CapacityModel::L1Tm => {
                if tx.total_hi.le(8) {
                    Verdict::Fits
                } else if tx.total_lo > 512 {
                    Verdict::MustOverflow
                } else {
                    Verdict::MayOverflow
                }
            }
            CapacityModel::Lrws => {
                const CAP: u64 = 64;
                const R_LIM: u64 = 32;
                const W_LIM: u64 = 32;
                // Sound fit: the write-set never exceeds its limit, and the
                // shared buffer (write-set + at most `R_LIM` resident reads)
                // never fills. When reads stay within the read limit the
                // buffer holds at most `write_hi + read_hi` entries; once
                // reads can spill, a new read may arrive with `R_LIM`
                // resident reads, so the write-set must leave a free slot.
                let fits = tx.write_hi.le(W_LIM)
                    && (tx.read_hi.le(R_LIM) || tx.write_hi.le(CAP - R_LIM - 1));
                if fits {
                    Verdict::Fits
                } else if tx.write_lo > W_LIM {
                    // Writes are exact and never evicted, so a write-set
                    // that must exceed the limit must abort.
                    Verdict::MustOverflow
                } else {
                    Verdict::MayOverflow
                }
            }
            CapacityModel::PStretch => {
                const CAP: u64 = 64;
                const STRETCHES: u64 = 4;
                if tx.total_hi.le(CAP) {
                    return Verdict::Fits;
                }
                // Stretch-aware fit: insert events are bounded by
                // `total + write` (a shed read re-enters at most once, as a
                // write), and each of the `STRETCHES` windows frees at
                // least `CAP - write_hi` slots since writes are never shed.
                let fits = match (tx.total_hi, tx.write_hi) {
                    (Bound::Finite(t), Bound::Finite(w)) if w < CAP => {
                        t + w <= CAP + STRETCHES * (CAP - w)
                    }
                    _ => false,
                };
                if fits {
                    Verdict::Fits
                } else if tx.write_lo > CAP {
                    Verdict::MustOverflow
                } else {
                    Verdict::MayOverflow
                }
            }
        }
    }

    fn classify(hi: Bound, lo: u64, cap: u64) -> Verdict {
        if hi.le(cap) {
            Verdict::Fits
        } else if lo > cap {
            Verdict::MustOverflow
        } else {
            Verdict::MayOverflow
        }
    }
}

/// The footprint analysis result for a whole module.
#[derive(Clone, Debug)]
pub struct ModuleFootprint {
    /// One entry per syntactic transaction, in function/walk order.
    pub txs: Vec<TxFootprint>,
}

impl ModuleFootprint {
    /// The worst verdict across all transactions for `model`
    /// (`Fits` when the module has no transactions).
    pub fn worst(&self, model: CapacityModel) -> Verdict {
        let mut worst = Verdict::Fits;
        for tx in &self.txs {
            let v = model.verdict(tx);
            worst = match (worst, v) {
                (_, Verdict::MustOverflow) | (Verdict::MustOverflow, _) => Verdict::MustOverflow,
                (_, Verdict::MayOverflow) | (Verdict::MayOverflow, _) => Verdict::MayOverflow,
                _ => Verdict::Fits,
            };
        }
        worst
    }

    /// Histogram of predicted per-transaction footprints (`total_hi`) in
    /// power-of-two buckets, Fig. 6 style. The last bucket collects
    /// unbounded transactions.
    pub fn size_histogram(&self) -> Vec<(&'static str, u32)> {
        const LABELS: [&str; 11] = [
            "<=1", "<=2", "<=4", "<=8", "<=16", "<=32", "<=64", "<=128", "<=256", "<=512", ">512",
        ];
        let mut counts = [0u32; 11];
        for tx in &self.txs {
            let slot = match tx.total_hi {
                Bound::Finite(n) => {
                    let mut s = 0usize;
                    while s < 9 && n > (1u64 << s) {
                        s += 1;
                    }
                    if n > 512 {
                        10
                    } else {
                        s
                    }
                }
                Bound::Unbounded => 10,
            };
            counts[slot] += 1;
        }
        LABELS.iter().copied().zip(counts).collect()
    }
}

/// Block counts (`ceil(size / 64)`) of every statically sized object.
pub(crate) fn object_blocks(module: &Module, pt: &PointsTo) -> BTreeMap<ObjId, u64> {
    let mut map = BTreeMap::new();
    for (gi, g) in module.globals.iter().enumerate() {
        if let Some(size) = g.size {
            map.insert(
                pt.global_obj(GlobalId(gi as u32)),
                size.div_ceil(BLOCK_BYTES),
            );
        }
    }
    for (fid, f) in module.iter_funcs() {
        let mut idx = 0u32;
        module.visit_instrs(fid, |i| {
            if matches!(i, Instr::Alloca { .. } | Instr::Halloc { .. }) {
                if let (Some(&size), Some(obj)) = (f.alloc_sizes.get(&idx), pt.alloc_obj(fid, idx))
                {
                    map.insert(obj, size.div_ceil(BLOCK_BYTES));
                }
            }
            idx += 1;
        });
    }
    map
}

/// Runs the footprint analysis: finds every syntactic transaction and
/// bounds its read/write block footprint.
pub fn footprint(module: &Module, pt: &PointsTo) -> ModuleFootprint {
    let blocks = object_blocks(module, pt);
    let domain = FootprintDomain {
        pt,
        blocks: &blocks,
    };
    let mut cache = SummaryCache::new();
    let mut raw: Vec<(FuncId, AccessEffect, bool)> = Vec::new();
    for (fid, f) in module.iter_funcs() {
        let mut idx = 0u32;
        scan_txs(
            module, &domain, &mut cache, fid, &f.body, &mut idx, &mut raw,
        );
    }
    let txs = raw
        .into_iter()
        .enumerate()
        .map(|(index, (func, effect, balanced))| {
            aggregate(func, index, effect, balanced, pt, &blocks)
        })
        .collect();
    ModuleFootprint { txs }
}

/// Does `s` contain a transaction boundary at any nesting depth?
fn has_tx_boundary(s: &Stmt) -> bool {
    match s {
        Stmt::Instr(i) => matches!(i, Instr::TxBegin | Instr::TxEnd),
        Stmt::Loop { body, .. } => body.iter().any(has_tx_boundary),
        Stmt::If(a, b) => a.iter().any(has_tx_boundary) || b.iter().any(has_tx_boundary),
    }
}

/// Scans a statement list for balanced `TxBegin … TxEnd` regions and
/// records each region's effect. A boundary that crosses statement
/// nesting (e.g. a `TxEnd` hidden inside a loop) poisons the region.
#[allow(clippy::too_many_arguments)]
fn scan_txs(
    module: &Module,
    domain: &FootprintDomain<'_>,
    cache: &mut SummaryCache<AccessEffect>,
    fid: FuncId,
    stmts: &[Stmt],
    idx: &mut u32,
    out: &mut Vec<(FuncId, AccessEffect, bool)>,
) {
    let mut i = 0usize;
    while i < stmts.len() {
        match &stmts[i] {
            Stmt::Instr(Instr::TxBegin) => {
                *idx += 1;
                i += 1;
                let mut depth = 1u32;
                let mut effect = domain.identity();
                let mut ok = true;
                while i < stmts.len() && depth > 0 {
                    match &stmts[i] {
                        Stmt::Instr(Instr::TxBegin) => {
                            *idx += 1;
                            depth += 1;
                        }
                        Stmt::Instr(Instr::TxEnd) => {
                            *idx += 1;
                            depth -= 1;
                        }
                        s => {
                            if has_tx_boundary(s) {
                                ok = false;
                            }
                            let e = stmts_effect(
                                module,
                                domain,
                                cache,
                                fid,
                                std::slice::from_ref(s),
                                idx,
                            );
                            effect = domain.seq(&effect, &e);
                        }
                    }
                    i += 1;
                }
                if depth != 0 {
                    ok = false;
                }
                out.push((fid, effect, ok));
            }
            Stmt::Instr(Instr::TxEnd) => {
                // A close without an open at this level: malformed.
                *idx += 1;
                i += 1;
                out.push((fid, domain.identity(), false));
            }
            Stmt::Instr(_) => {
                *idx += 1;
                i += 1;
            }
            Stmt::Loop { body, .. } => {
                scan_txs(module, domain, cache, fid, body, idx, out);
                i += 1;
            }
            Stmt::If(a, b) => {
                scan_txs(module, domain, cache, fid, a, idx, out);
                scan_txs(module, domain, cache, fid, b, idx, out);
                i += 1;
            }
        }
    }
}

/// Folds a raw region effect into clamped per-transaction totals.
fn aggregate(
    func: FuncId,
    index: usize,
    effect: AccessEffect,
    balanced: bool,
    pt: &PointsTo,
    blocks: &BTreeMap<ObjId, u64>,
) -> TxFootprint {
    if !balanced {
        return TxFootprint {
            func,
            index,
            read_hi: Bound::Unbounded,
            write_hi: Bound::Unbounded,
            total_hi: Bound::Unbounded,
            total_lo: 0,
            write_lo: 0,
            balanced,
        };
    }
    let mut read_hi = Bound::Finite(0);
    let mut write_hi = Bound::Finite(0);
    let mut total_hi = Bound::Finite(0);
    let mut total_lo = 0u64;
    let mut write_lo = 0u64;
    let objs: std::collections::BTreeSet<ObjId> = effect
        .reads
        .keys()
        .chain(effect.writes.keys())
        .copied()
        .collect();
    for o in objs {
        let r = effect.reads.get(&o).copied().unwrap_or(Interval::ZERO);
        let w = effect.writes.get(&o).copied().unwrap_or(Interval::ZERO);
        // A looped allocation site stands for many simultaneously live
        // instances: one instance's size is not a valid cap.
        let cap = match blocks.get(&o) {
            Some(&b) if !pt.obj_info(o).in_loop => Some(b),
            _ => None,
        };
        let clamp = |x: Bound| cap.map_or(x, |b| x.min(Bound::Finite(b)));
        let clamp_lo = |x: u64| cap.map_or(x, |b| x.min(b));
        read_hi = read_hi.add(clamp(r.hi));
        write_hi = write_hi.add(clamp(w.hi));
        total_hi = total_hi.add(clamp(r.hi.add(w.hi)));
        total_lo += clamp_lo(r.lo.max(w.lo));
        write_lo += clamp_lo(w.lo);
    }
    if effect.unbounded_reads {
        read_hi = Bound::Unbounded;
        total_hi = Bound::Unbounded;
    }
    if effect.unbounded_writes {
        write_hi = Bound::Unbounded;
        total_hi = Bound::Unbounded;
    }
    TxFootprint {
        func,
        index,
        read_hi,
        write_hi,
        total_hi,
        total_lo,
        write_lo,
        balanced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;
    use crate::points_to::points_to;

    fn run(module: &Module) -> ModuleFootprint {
        let pt = points_to(module);
        footprint(module, &pt)
    }

    #[test]
    fn straight_line_tx_counts_blocks_exactly() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("w", 0);
        let a = f.alloca_sized(64);
        let b = f.alloca_sized(64);
        f.tx_begin();
        f.load(a);
        f.store(b);
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let fp = run(&module);
        assert_eq!(fp.txs.len(), 1);
        let tx = &fp.txs[0];
        assert_eq!(tx.read_hi, Bound::Finite(1));
        assert_eq!(tx.write_hi, Bound::Finite(1));
        assert_eq!(tx.total_hi, Bound::Finite(2));
        assert_eq!(tx.total_lo, 2);
        assert_eq!(CapacityModel::P8.verdict(tx), Verdict::Fits);
        assert_eq!(CapacityModel::L1Tm.verdict(tx), Verdict::Fits);
    }

    #[test]
    fn size_clamp_bounds_repeated_access() {
        // 100 stores into a 4-block buffer: at most 4 distinct blocks.
        let mut m = ModuleBuilder::new();
        let mut f = m.func("w", 0);
        let a = f.alloca_sized(256);
        f.tx_begin();
        f.begin_loop_bounded(100);
        f.store(a);
        f.end_block();
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let tx = &run(&module).txs[0];
        assert_eq!(tx.write_hi, Bound::Finite(4));
        assert_eq!(tx.total_lo, 0, "loop may not run");
    }

    #[test]
    fn unbounded_loop_without_size_is_unbounded() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("w", 0);
        let a = f.halloc(); // unknown size
        f.tx_begin();
        f.begin_loop();
        f.load(a);
        f.end_block();
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let tx = &run(&module).txs[0];
        assert_eq!(tx.read_hi, Bound::Unbounded);
        assert_eq!(CapacityModel::P8.verdict(tx), Verdict::MayOverflow);
        // No writes: the signature model still fits.
        assert_eq!(CapacityModel::P8S.verdict(tx), Verdict::Fits);
    }

    #[test]
    fn memcpy_is_whole_object_and_drives_must_overflow() {
        // Copying a 100-block object guarantees 100 written blocks.
        let mut m = ModuleBuilder::new();
        let mut f = m.func("w", 0);
        let dst = f.halloc_sized(6400);
        let src = f.halloc_sized(6400);
        f.tx_begin();
        f.memcpy(dst, src);
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let tx = &run(&module).txs[0];
        assert_eq!(tx.write_lo, 100);
        assert_eq!(tx.total_lo, 200);
        assert_eq!(CapacityModel::P8.verdict(tx), Verdict::MustOverflow);
        assert_eq!(CapacityModel::P8S.verdict(tx), Verdict::MustOverflow);
        assert_eq!(CapacityModel::L1Tm.verdict(tx), Verdict::MayOverflow);
    }

    #[test]
    fn empty_points_to_poisons_the_tx() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("w", 1);
        let p = f.param(0); // nothing ever flows here
        f.tx_begin();
        f.load(p);
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let tx = &run(&module).txs[0];
        assert_eq!(tx.read_hi, Bound::Unbounded);
        assert_eq!(tx.total_hi, Bound::Unbounded);
    }

    #[test]
    fn branch_takes_worst_side_for_hi_and_best_for_lo() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("w", 0);
        let a = f.alloca_sized(64);
        let b = f.alloca_sized(640); // 10 blocks
        f.tx_begin();
        f.begin_if();
        f.store(a);
        f.begin_else();
        f.begin_loop_bounded(10);
        f.store(b);
        f.end_block();
        f.end_block();
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let tx = &run(&module).txs[0];
        // hi: a ≤ 1 plus b ≤ 10 (either side may run; per-object maxima).
        assert_eq!(tx.write_hi, Bound::Finite(11));
        // lo: the else side may run zero-iteration, then side writes 1 —
        // neither object is guaranteed.
        assert_eq!(tx.total_lo, 0);
    }

    #[test]
    fn malformed_regions_are_poisoned_not_missed() {
        // TxEnd buried in a loop: the region must still be reported, with
        // unbounded bounds.
        let mut m = ModuleBuilder::new();
        let mut f = m.func("w", 0);
        let a = f.alloca_sized(64);
        f.tx_begin();
        f.begin_loop();
        f.store(a);
        f.tx_end();
        f.end_block();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let fp = run(&module);
        assert_eq!(fp.txs.len(), 1);
        assert!(!fp.txs[0].balanced);
        assert_eq!(fp.txs[0].total_hi, Bound::Unbounded);
        assert_eq!(fp.worst(CapacityModel::P8), Verdict::MayOverflow);
    }

    #[test]
    fn calls_inline_callee_summaries() {
        let mut m = ModuleBuilder::new();
        let g = m.global_sized("tbl", 128); // 2 blocks
        let mut h = m.func("helper", 0);
        let ga = h.global_addr(g);
        h.load(ga);
        h.store(ga);
        h.ret();
        let helper = h.finish();
        let mut f = m.func("w", 0);
        f.tx_begin();
        f.call(helper, vec![]);
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let tx = &run(&module).txs[0];
        assert_eq!(tx.read_hi, Bound::Finite(1));
        assert_eq!(tx.write_hi, Bound::Finite(1));
        // The read and the write may hit the same block of `tbl`.
        assert_eq!(tx.total_lo, 1);
    }

    #[test]
    fn histogram_buckets_transactions() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("w", 0);
        let a = f.alloca_sized(64);
        let big = f.alloca_sized(64 * 100);
        f.tx_begin();
        f.load(a);
        f.tx_end();
        f.tx_begin();
        f.memcpy(big, a);
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let fp = run(&module);
        let hist = fp.size_histogram();
        assert_eq!(hist[0], ("<=1", 1));
        let buck128: u32 = hist.iter().find(|(l, _)| *l == "<=128").unwrap().1;
        assert_eq!(buck128, 1, "101-block TX lands in <=128");
    }

    /// Builds a footprint with the given bounds (the verdict functions
    /// only look at the bound fields).
    fn bounds(read_hi: Bound, write_hi: Bound, total_lo: u64, write_lo: u64) -> TxFootprint {
        TxFootprint {
            func: FuncId(0),
            index: 0,
            read_hi,
            write_hi,
            total_hi: read_hi.add(write_hi),
            total_lo,
            write_lo,
            balanced: true,
        }
    }

    #[test]
    fn lrws_verdicts() {
        use Bound::{Finite, Unbounded};
        // Reads and writes both within their limits: fits.
        let tx = bounds(Finite(32), Finite(32), 0, 0);
        assert_eq!(CapacityModel::Lrws.verdict(&tx), Verdict::Fits);
        // Reads spill past the read limit: fine while the write-set leaves
        // a free buffer slot...
        let tx = bounds(Finite(500), Finite(31), 0, 0);
        assert_eq!(CapacityModel::Lrws.verdict(&tx), Verdict::Fits);
        // ...but with the write-set at its full limit, a spilling read can
        // find the buffer full.
        let tx = bounds(Finite(33), Finite(32), 0, 0);
        assert_eq!(CapacityModel::Lrws.verdict(&tx), Verdict::MayOverflow);
        // Unbounded reads alone never force an abort statically.
        let tx = bounds(Unbounded, Finite(31), 0, 0);
        assert_eq!(CapacityModel::Lrws.verdict(&tx), Verdict::Fits);
        // Write-set past the exact limit: may overflow; guaranteed past it:
        // must.
        let tx = bounds(Finite(1), Finite(33), 0, 0);
        assert_eq!(CapacityModel::Lrws.verdict(&tx), Verdict::MayOverflow);
        let tx = bounds(Finite(1), Finite(40), 34, 33);
        assert_eq!(CapacityModel::Lrws.verdict(&tx), Verdict::MustOverflow);
    }

    #[test]
    fn pstretch_verdicts() {
        use Bound::{Finite, Unbounded};
        // Within the raw buffer: fits without stretching.
        let tx = bounds(Finite(60), Finite(4), 0, 0);
        assert_eq!(CapacityModel::PStretch.verdict(&tx), Verdict::Fits);
        // Read-heavy overflow absorbed by stretch windows: total+write
        // 310+10 <= 64 + 4*(64-10) = 280? No — 320 > 280: may overflow.
        let tx = bounds(Finite(300), Finite(10), 0, 0);
        assert_eq!(CapacityModel::PStretch.verdict(&tx), Verdict::MayOverflow);
        // 250+10 = 260 <= 280: fits thanks to stretching.
        let tx = bounds(Finite(240), Finite(10), 0, 0);
        assert_eq!(CapacityModel::PStretch.verdict(&tx), Verdict::Fits);
        // Unbounded totals can never be proven to fit.
        let tx = bounds(Unbounded, Finite(1), 0, 0);
        assert_eq!(CapacityModel::PStretch.verdict(&tx), Verdict::MayOverflow);
        // Writes are never shed: a guaranteed 65-block write-set aborts on
        // every execution.
        let tx = bounds(Finite(0), Finite(100), 65, 65);
        assert_eq!(CapacityModel::PStretch.verdict(&tx), Verdict::MustOverflow);
    }
}
