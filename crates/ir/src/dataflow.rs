//! Reusable dataflow framework: lattices, a widening fixpoint driver, and
//! a structural effect evaluator over function bodies.
//!
//! The IR is structured (statement trees, no arbitrary CFG), so an
//! analysis does not need a worklist over basic blocks: an *effect* — an
//! element of a monoid describing what a statement does — can be computed
//! bottom-up. A client implements [`EffectDomain`] to say how effects
//! compose sequentially, across branches, and under loops (with an
//! optional static trip bound), and `func_effect` folds a whole function
//! body into one summary. Summaries are memoized per function by
//! [`SummaryCache`]; recursive cycles collapse to the domain's
//! [`top`](EffectDomain::top), which bounds the interprocedural fixpoint
//! in one pass.
//!
//! [`Interval`] is the workhorse abstract value: a `[lo, hi]` block-count
//! range with [`Bound::Unbounded`] as the infinite upper end. It forms a
//! [`Lattice`] (join = convex hull, widening jumps straight to the extreme
//! bounds), which the generic [`fixpoint`] driver and the property tests
//! exercise directly.

use crate::module::{FuncId, Instr, Module, Stmt};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A join-semilattice with widening, as used by the fixpoint driver.
pub trait Lattice: Clone + PartialEq {
    /// The least element (`bottom ⊑ x` for all `x`).
    fn bottom() -> Self;
    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;
    /// Widening: an upper bound of `self` and `other` chosen so that any
    /// ascending chain `x, x.widen(y1), x.widen(y1).widen(y2), …`
    /// stabilizes after finitely many steps.
    fn widen(&self, other: &Self) -> Self;
    /// Partial order: is `self` below (or equal to) `other`?
    fn leq(&self, other: &Self) -> bool;
}

/// Iterates `step` from `seed` to a post-fixpoint, joining each result
/// into the current value and switching from join to widening after
/// `widen_after` iterations so unbounded chains still terminate.
pub fn fixpoint<T: Lattice>(seed: T, mut step: impl FnMut(&T) -> T, widen_after: usize) -> T {
    let mut cur = seed;
    let mut iters = 0usize;
    loop {
        let next = step(&cur);
        if next.leq(&cur) {
            return cur;
        }
        cur = if iters < widen_after {
            cur.join(&next)
        } else {
            cur.widen(&next)
        };
        iters += 1;
    }
}

/// An upper bound on a block count: finite or unbounded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bound {
    /// A known finite bound.
    Finite(u64),
    /// No static bound (∞).
    Unbounded,
}

// `add`/`mul` are saturating arithmetic on an extended-naturals domain,
// not ring operations: `std::ops` impls would invite `a + b` spellings
// that hide the ∞-absorption rules these doc comments spell out.
#[allow(clippy::should_implement_trait)]
impl Bound {
    /// Saturating addition; anything plus ∞ is ∞.
    pub(crate) fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_add(b)),
            _ => Bound::Unbounded,
        }
    }

    /// Multiplies by a finite factor; `0 * ∞` is 0 (an empty effect stays
    /// empty no matter how often it repeats).
    pub(crate) fn mul(self, factor: u64) -> Bound {
        match self {
            Bound::Finite(0) => Bound::Finite(0),
            Bound::Finite(a) => Bound::Finite(a.saturating_mul(factor)),
            Bound::Unbounded => {
                if factor == 0 {
                    Bound::Finite(0)
                } else {
                    Bound::Unbounded
                }
            }
        }
    }

    /// The smaller of the two bounds.
    pub(crate) fn min(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.min(b)),
            (Bound::Finite(a), Bound::Unbounded) | (Bound::Unbounded, Bound::Finite(a)) => {
                Bound::Finite(a)
            }
            _ => Bound::Unbounded,
        }
    }

    /// The larger of the two bounds.
    pub(crate) fn max(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.max(b)),
            _ => Bound::Unbounded,
        }
    }

    /// Is this bound at most `limit`?
    pub fn le(self, limit: u64) -> bool {
        match self {
            Bound::Finite(a) => a <= limit,
            Bound::Unbounded => false,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(a) => write!(f, "{a}"),
            Bound::Unbounded => write!(f, "inf"),
        }
    }
}

/// A `[lo, hi]` interval of block counts.
///
/// The empty interval (`lo > hi`, canonically [`Interval::EMPTY`]) is the
/// lattice bottom; `min`/`max` joins treat it correctly without special
/// cases because its `lo` is `u64::MAX` and its `hi` is 0.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Guaranteed minimum.
    pub(crate) lo: u64,
    /// Static maximum.
    pub(crate) hi: Bound,
}

impl Interval {
    /// The empty interval (lattice bottom).
    pub const EMPTY: Interval = Interval {
        lo: u64::MAX,
        hi: Bound::Finite(0),
    };

    /// The exact count zero.
    pub const ZERO: Interval = Interval {
        lo: 0,
        hi: Bound::Finite(0),
    };

    /// The exact singleton interval `[n, n]`.
    #[cfg(test)]
    fn exact(n: u64) -> Interval {
        Interval {
            lo: n,
            hi: Bound::Finite(n),
        }
    }

    /// `[lo, hi]`.
    pub fn new(lo: u64, hi: Bound) -> Interval {
        Interval { lo, hi }
    }

    /// Is this the empty interval?
    pub fn is_empty(&self) -> bool {
        match self.hi {
            Bound::Finite(h) => self.lo > h,
            Bound::Unbounded => false,
        }
    }

    /// Pointwise sum (sequence composition of counts).
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.add(other.hi),
        }
    }

    /// The effect of repeating this count between 0 and `trip` times
    /// (`None` = statically unbounded).
    pub fn repeat(&self, trip: Option<u32>) -> Interval {
        if self.is_empty() {
            return *self;
        }
        Interval {
            lo: 0,
            hi: match (self.hi, trip) {
                (Bound::Finite(0), _) => Bound::Finite(0),
                (hi, Some(n)) => hi.mul(u64::from(n)),
                (_, None) => Bound::Unbounded,
            },
        }
    }
}

impl Lattice for Interval {
    fn bottom() -> Self {
        Interval::EMPTY
    }

    fn join(&self, other: &Self) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn widen(&self, other: &Self) -> Self {
        let j = self.join(other);
        Interval {
            lo: if j.lo < self.lo { 0 } else { self.lo },
            hi: match (self.hi, j.hi) {
                (Bound::Finite(a), Bound::Finite(b)) if b > a => Bound::Unbounded,
                (h, Bound::Finite(_)) => h,
                _ => Bound::Unbounded,
            },
        }
    }

    fn leq(&self, other: &Self) -> bool {
        if self.is_empty() {
            return true;
        }
        if other.is_empty() {
            return false;
        }
        other.lo <= self.lo
            && match (self.hi, other.hi) {
                (Bound::Finite(a), Bound::Finite(b)) => a <= b,
                (_, Bound::Unbounded) => true,
                (Bound::Unbounded, Bound::Finite(_)) => false,
            }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// How statement effects compose for one analysis.
///
/// An effect describes what a piece of code *does* (e.g. which blocks it
/// may touch). The evaluator combines per-instruction effects with `seq`,
/// merges branch alternatives with `choice`, and summarizes loop bodies
/// with `repeat` using the loop's static trip bound when present.
pub trait EffectDomain {
    /// The effect type.
    type Effect: Clone;

    /// The effect of doing nothing.
    fn identity(&self) -> Self::Effect;
    /// The effect of one instruction (`visit_idx` per
    /// [`Module::visit_instrs`] order; calls are handled by the evaluator
    /// and still passed here for any instruction-local contribution).
    fn instr(&self, fid: FuncId, visit_idx: u32, instr: &Instr) -> Self::Effect;
    /// Sequential composition `a; b`.
    fn seq(&self, a: &Self::Effect, b: &Self::Effect) -> Self::Effect;
    /// Branch merge: either `a` or `b` executes.
    fn choice(&self, a: &Self::Effect, b: &Self::Effect) -> Self::Effect;
    /// Loop summary: `e` repeats between 0 and `trip` times (`None` =
    /// unbounded).
    fn repeat(&self, e: &Self::Effect, trip: Option<u32>) -> Self::Effect;
    /// The most pessimistic effect; used for recursive call cycles.
    fn top(&self) -> Self::Effect;
}

/// Memoized per-function effect summaries for one [`EffectDomain`].
pub struct SummaryCache<E> {
    summaries: HashMap<FuncId, E>,
    in_progress: BTreeSet<FuncId>,
}

impl<E> Default for SummaryCache<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> SummaryCache<E> {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        SummaryCache {
            summaries: HashMap::new(),
            in_progress: BTreeSet::new(),
        }
    }
}

/// The summary effect of `fid`'s whole body, memoized in `cache`.
/// Recursive cycles evaluate to [`EffectDomain::top`].
pub(crate) fn func_effect<D: EffectDomain>(
    module: &Module,
    domain: &D,
    cache: &mut SummaryCache<D::Effect>,
    fid: FuncId,
) -> D::Effect {
    if let Some(e) = cache.summaries.get(&fid) {
        return e.clone();
    }
    if !cache.in_progress.insert(fid) {
        return domain.top();
    }
    let mut idx = 0u32;
    let effect = stmts_effect(module, domain, cache, fid, &module.func(fid).body, &mut idx);
    cache.in_progress.remove(&fid);
    cache.summaries.insert(fid, effect.clone());
    effect
}

/// The combined effect of a statement list. `idx` is the running visit
/// index within `fid` and is advanced past every instruction walked.
pub(crate) fn stmts_effect<D: EffectDomain>(
    module: &Module,
    domain: &D,
    cache: &mut SummaryCache<D::Effect>,
    fid: FuncId,
    stmts: &[Stmt],
    idx: &mut u32,
) -> D::Effect {
    let mut acc = domain.identity();
    for s in stmts {
        let e = match s {
            Stmt::Instr(i) => {
                let mut e = domain.instr(fid, *idx, i);
                *idx += 1;
                if let Instr::Call { callee, .. } = i {
                    let callee_effect = func_effect(module, domain, cache, *callee);
                    e = domain.seq(&e, &callee_effect);
                }
                e
            }
            Stmt::Loop { body, trip } => {
                let inner = stmts_effect(module, domain, cache, fid, body, idx);
                domain.repeat(&inner, *trip)
            }
            Stmt::If(a, b) => {
                let ea = stmts_effect(module, domain, cache, fid, a, idx);
                let eb = stmts_effect(module, domain, cache, fid, b, idx);
                domain.choice(&ea, &eb)
            }
        };
        acc = domain.seq(&acc, &e);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;

    #[test]
    fn interval_lattice_basics() {
        let a = Interval::exact(3);
        let b = Interval::new(1, Bound::Finite(5));
        let j = a.join(&b);
        assert_eq!(j, Interval::new(1, Bound::Finite(5)));
        assert!(a.leq(&j) && b.leq(&j));
        assert!(Interval::EMPTY.leq(&a));
        assert!(!a.leq(&Interval::EMPTY));
        assert_eq!(Interval::EMPTY.join(&a), a);
    }

    #[test]
    fn interval_arithmetic() {
        let a = Interval::exact(2);
        let b = Interval::new(1, Bound::Finite(3));
        assert_eq!(a.add(&b), Interval::new(3, Bound::Finite(5)));
        assert_eq!(a.repeat(Some(4)), Interval::new(0, Bound::Finite(8)));
        assert_eq!(a.repeat(None), Interval::new(0, Bound::Unbounded));
        assert_eq!(
            Interval::ZERO.repeat(None),
            Interval::new(0, Bound::Finite(0))
        );
    }

    #[test]
    fn widening_jumps_to_extremes() {
        let a = Interval::exact(3);
        let grown = Interval::new(2, Bound::Finite(7));
        let w = a.widen(&grown);
        assert_eq!(w, Interval::new(0, Bound::Unbounded));
        // Widening a stable value changes nothing.
        assert_eq!(a.widen(&Interval::exact(3)), a);
    }

    #[test]
    fn fixpoint_terminates_on_growing_chain() {
        // step grows the interval by one each time: join alone would never
        // stabilize below the widening threshold.
        let fix = fixpoint(
            Interval::exact(0),
            |cur: &Interval| {
                let next_hi = match cur.hi {
                    Bound::Finite(h) => Bound::Finite(h + 1),
                    Bound::Unbounded => Bound::Unbounded,
                };
                Interval::new(cur.lo, next_hi)
            },
            4,
        );
        assert_eq!(fix.hi, Bound::Unbounded);
        assert_eq!(fix.lo, 0);
    }

    /// A domain counting the maximum instructions executed, for testing
    /// the evaluator's composition rules.
    struct CountDomain;
    impl EffectDomain for CountDomain {
        type Effect = Interval;
        fn identity(&self) -> Interval {
            Interval::ZERO
        }
        fn instr(&self, _fid: FuncId, _idx: u32, _i: &Instr) -> Interval {
            Interval::exact(1)
        }
        fn seq(&self, a: &Interval, b: &Interval) -> Interval {
            a.add(b)
        }
        fn choice(&self, a: &Interval, b: &Interval) -> Interval {
            a.join(b)
        }
        fn repeat(&self, e: &Interval, trip: Option<u32>) -> Interval {
            e.repeat(trip)
        }
        fn top(&self) -> Interval {
            Interval::new(0, Bound::Unbounded)
        }
    }

    #[test]
    fn evaluator_composes_loops_branches_and_calls() {
        let mut m = ModuleBuilder::new();
        let mut h = m.func("helper", 0);
        let a = h.alloca(); // 1
        h.store(a); // 1
        h.ret(); // 1
        let helper = h.finish();
        let mut f = m.func("f", 0);
        let b = f.alloca(); // 1
        f.begin_loop_bounded(10);
        f.load(b); // ≤10
        f.end_block();
        f.begin_if();
        f.store(b); // 0 or 1
        f.begin_else();
        f.call(helper, vec![]); // call instr + 3 callee instrs
        f.end_block();
        f.ret(); // 1
        let fid = f.finish();
        let module = m.finish(fid, fid);
        let mut cache = SummaryCache::new();
        let e = func_effect(&module, &CountDomain, &mut cache, fid);
        // lo: alloca + loop(0) + min(then=1, else=4) + ret = 3
        assert_eq!(e.lo, 3);
        // hi: alloca + 10 + max(1, 1+3) + ret = 16
        assert_eq!(e.hi, Bound::Finite(16));
        // Summary was cached for the callee.
        let again = func_effect(&module, &CountDomain, &mut cache, helper);
        assert_eq!(again, Interval::exact(3));
    }

    #[test]
    fn recursion_collapses_to_top() {
        let mut m = ModuleBuilder::new();
        // Mutually recursive pair built via self-call: f calls f.
        let mut f = m.func("f", 0);
        f.ret();
        let fid0 = f.finish();
        // Rebuild with a call to itself is impossible via the builder
        // (ids are assigned at finish), so call the already-built f from g
        // and patch g to call itself through f: g -> f is enough to test
        // the in-progress path when g is re-entered via the cache probe.
        let mut g = m.func("g", 0);
        g.call(fid0, vec![]);
        g.ret();
        let gid = g.finish();
        let module = m.finish(gid, gid);
        let mut cache = SummaryCache::new();
        // Force the in-progress path directly.
        cache.in_progress.insert(gid);
        let e = func_effect(&module, &CountDomain, &mut cache, gid);
        assert_eq!(e.hi, Bound::Unbounded, "cycle collapses to top");
    }
}
