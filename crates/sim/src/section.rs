//! Workload sections: the interface between workloads and the engine.

use hintm_trace::Fnv64;
use hintm_types::{AccessKind, Addr, Cycles, MemAccess, SiteId, ThreadId};
use std::collections::HashSet;

/// One operation inside a section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxOp {
    /// A memory access (with its static site and compiler hint).
    Access(MemAccess),
    /// Pure computation of the given number of cycles.
    Compute(u64),
    /// Begin an escape-action window (§VII: Intel/IBM suspend, LogTM escape
    /// actions): accesses until [`TxOp::Resume`] execute non-transactionally
    /// — untracked and invisible to conflict detection against this thread.
    Suspend,
    /// End the escape-action window opened by [`TxOp::Suspend`].
    Resume,
}

/// A replayable transaction body.
///
/// The engine may execute a body several times (aborts/retries) before
/// moving on; the op list is replayed verbatim, which is the standard
/// execution-driven-with-replay compromise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxBody {
    /// The operations, in program order.
    pub ops: Vec<TxOp>,
}

impl TxBody {
    /// Creates a body from ops.
    pub fn new(ops: Vec<TxOp>) -> Self {
        TxBody { ops }
    }

    /// Number of memory accesses in the body.
    pub fn num_accesses(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, TxOp::Access(_)))
            .count()
    }

    /// `true` if every [`TxOp::Suspend`] is closed by a matching
    /// [`TxOp::Resume`] (workload sanity checks).
    pub fn suspends_balanced(&self) -> bool {
        let mut depth = 0i64;
        for op in &self.ops {
            match op {
                TxOp::Suspend => depth += 1,
                TxOp::Resume => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth == 0
    }

    /// Distinct cache blocks touched by the body.
    pub fn footprint_blocks(&self) -> usize {
        let mut blocks = HashSet::new();
        for op in &self.ops {
            if let TxOp::Access(a) = op {
                blocks.insert(a.addr.block());
            }
        }
        blocks.len()
    }
}

/// One schedulable unit of a thread's execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Section {
    /// A transaction (atomic, may abort and replay).
    Tx(TxBody),
    /// Non-transactional operations.
    NonTx(Vec<TxOp>),
    /// Wait until every live thread reaches its barrier.
    Barrier,
}

/// A workload drives one section stream per thread.
///
/// Contract: `next_section(tid)` is called once per section, in the order
/// the thread executes them; internal state may advance at generation time
/// because a returned `Tx` body is replayed verbatim on aborts. Workloads
/// must be deterministic given the `reset` seed.
///
/// Workloads are `Send` so a boxed workload can be built on one host
/// thread and run on another; the engine itself calls a workload only
/// from the thread that runs the simulation.
pub trait Workload: Send {
    /// Short stable name (used in reports).
    fn name(&self) -> &'static str;

    /// Number of software threads the workload wants.
    fn num_threads(&self) -> usize;

    /// Re-initializes all state for a fresh run with `seed`.
    fn reset(&mut self, seed: u64);

    /// Sets the heap-placement policy the workload's address space should
    /// use from the next [`Workload::reset`] on (the malloc-placement
    /// sensitivity axis). Workloads that allocate no heap may keep the
    /// default no-op.
    fn set_alloc_config(&mut self, _cfg: hintm_types::AllocConfig) {}

    /// Produces `tid`'s next section, or `None` when the thread is done.
    fn next_section(&mut self, tid: ThreadId) -> Option<Section>;

    /// Access sites statically classified safe by the compiler pass
    /// (empty when the workload has no static model).
    fn static_safe_sites(&self) -> HashSet<SiteId> {
        HashSet::new()
    }

    /// Notary-style manual privatization (§VII): byte ranges the programmer
    /// declares thread-private or read-only. Accesses inside them are
    /// treated like statically-hinted safe accesses whenever static hints
    /// are enabled. Default: none.
    fn notary_safe_ranges(&self) -> Vec<(Addr, u64)> {
        Vec::new()
    }

    /// Not read by the engine, which generates every section serially.
    /// Kept only so decorators that still forward it (the repo
    /// benchmark's `TimedGen`) compile; do not override it.
    fn generation_is_thread_local(&self) -> bool {
        false
    }
}

/// Rewrites a transaction body so every access whose site is statically
/// safe executes inside a [`TxOp::Suspend`]/[`TxOp::Resume`] escape window
/// instead of carrying a hint — the §VII alternative of wrapping each
/// compiler-identified safe load/store in suspend/resume on ISAs that lack
/// safe-access opcodes. Runs of consecutive safe accesses share one window.
pub fn wrap_safe_in_escapes(body: &TxBody, safe_sites: &HashSet<SiteId>) -> TxBody {
    let mut ops = Vec::with_capacity(body.ops.len() + 8);
    let mut open = false;
    for op in &body.ops {
        let is_safe_access = matches!(
            op,
            TxOp::Access(a) if a.hint.is_safe() || safe_sites.contains(&a.site)
        );
        match (open, is_safe_access) {
            (false, true) => {
                ops.push(TxOp::Suspend);
                open = true;
            }
            (true, false) => {
                ops.push(TxOp::Resume);
                open = false;
            }
            _ => {}
        }
        ops.push(op.clone());
    }
    if open {
        ops.push(TxOp::Resume);
    }
    TxBody::new(ops)
}

/// Wraps a workload so its statically-safe accesses are expressed as
/// suspend/resume escape windows instead of per-instruction hints (§VII's
/// alternative encoding). The wrapped workload reports *no* static safe
/// sites — the information now lives in the op stream itself.
pub struct EscapeEncoded {
    inner: Box<dyn Workload>,
    sites: HashSet<SiteId>,
}

impl EscapeEncoded {
    /// Wraps `inner`, capturing its static classification.
    pub fn new(inner: Box<dyn Workload>) -> Self {
        let sites = inner.static_safe_sites();
        EscapeEncoded { inner, sites }
    }
}

impl Workload for EscapeEncoded {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }

    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
    }

    fn set_alloc_config(&mut self, cfg: hintm_types::AllocConfig) {
        self.inner.set_alloc_config(cfg);
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        Some(match self.inner.next_section(tid)? {
            Section::Tx(body) => Section::Tx(wrap_safe_in_escapes(&body, &self.sites)),
            other => other,
        })
    }

    fn notary_safe_ranges(&self) -> Vec<(Addr, u64)> {
        self.inner.notary_safe_ranges()
    }
}

/// Wraps a workload and folds every section it generates into a per-thread
/// FNV-1a digest of the section's full content (ops, addresses, sites,
/// hints).
///
/// Workload state advances at *generation* time and sections are replayed
/// verbatim on aborts, so the generated stream — and therefore this digest
/// — is a complete fingerprint of the workload's final state. Two runs
/// agree on [`DigestingWorkload::state_digest`] iff every thread generated
/// the identical section sequence, which is the basis of the differential
/// test: any finite HTM model must leave the workload in the same state as
/// the infinite-capacity model.
pub struct DigestingWorkload {
    inner: Box<dyn Workload>,
    digests: Vec<Fnv64>,
    sections: Vec<u64>,
}

impl DigestingWorkload {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Workload>) -> Self {
        let n = inner.num_threads();
        DigestingWorkload {
            inner,
            digests: vec![Fnv64::new(); n],
            sections: vec![0; n],
        }
    }

    /// The digest of everything `tid` generated since the last reset.
    pub fn thread_digest(&self, tid: ThreadId) -> u64 {
        self.digests[tid.index()].finish()
    }

    /// Sections `tid` generated since the last reset.
    pub fn thread_sections(&self, tid: ThreadId) -> u64 {
        self.sections[tid.index()]
    }

    /// All per-thread digests combined in thread order.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for d in &self.digests {
            h.write_u64(d.finish());
        }
        h.finish()
    }

    fn fold_op(h: &mut Fnv64, op: &TxOp) {
        match op {
            TxOp::Access(a) => {
                h.write(&[
                    0,
                    (a.kind == AccessKind::Store) as u8,
                    a.hint.is_safe() as u8,
                ]);
                h.write_u64(a.addr.raw());
                h.write_u64(a.site.0 as u64);
            }
            TxOp::Compute(c) => {
                h.write(&[1]);
                h.write_u64(*c);
            }
            TxOp::Suspend => h.write(&[2]),
            TxOp::Resume => h.write(&[3]),
        }
    }

    fn fold_section(h: &mut Fnv64, section: &Section) {
        match section {
            Section::Barrier => h.write(&[0]),
            Section::NonTx(ops) => {
                h.write(&[1]);
                for op in ops {
                    Self::fold_op(h, op);
                }
            }
            Section::Tx(body) => {
                h.write(&[2]);
                for op in &body.ops {
                    Self::fold_op(h, op);
                }
            }
        }
    }
}

impl Workload for DigestingWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }

    fn reset(&mut self, seed: u64) {
        self.inner.reset(seed);
        self.digests = vec![Fnv64::new(); self.inner.num_threads()];
        self.sections = vec![0; self.inner.num_threads()];
    }

    fn set_alloc_config(&mut self, cfg: hintm_types::AllocConfig) {
        self.inner.set_alloc_config(cfg);
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let section = self.inner.next_section(tid)?;
        let h = &mut self.digests[tid.index()];
        Self::fold_section(h, &section);
        self.sections[tid.index()] += 1;
        Some(section)
    }

    fn static_safe_sites(&self) -> HashSet<SiteId> {
        self.inner.static_safe_sites()
    }

    fn notary_safe_ranges(&self) -> Vec<(Addr, u64)> {
        self.inner.notary_safe_ranges()
    }
}

/// Convenience: total cycles of compute in a body (tests/diagnostics).
pub fn compute_cycles(body: &TxBody) -> Cycles {
    Cycles(
        body.ops
            .iter()
            .map(|o| if let TxOp::Compute(c) = o { *c } else { 0 })
            .sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_types::Addr;

    #[test]
    fn body_footprint_counts_blocks() {
        let body = TxBody::new(vec![
            TxOp::Access(MemAccess::load(Addr::new(0), SiteId(0))),
            TxOp::Access(MemAccess::load(Addr::new(8), SiteId(0))),
            TxOp::Access(MemAccess::store(Addr::new(64), SiteId(0))),
            TxOp::Compute(100),
        ]);
        assert_eq!(body.num_accesses(), 3);
        assert_eq!(body.footprint_blocks(), 2);
        assert_eq!(compute_cycles(&body), Cycles(100));
    }

    #[test]
    fn escape_wrapping_groups_safe_runs() {
        use hintm_types::SafetyHint;
        let safe = |a: u64| {
            TxOp::Access(MemAccess::load(Addr::new(a), SiteId(7)).with_hint(SafetyHint::Safe))
        };
        let unsafe_ = |a: u64| TxOp::Access(MemAccess::store(Addr::new(a), SiteId(1)));
        let body = TxBody::new(vec![safe(0), safe(64), unsafe_(128), safe(192)]);
        let wrapped = wrap_safe_in_escapes(&body, &HashSet::new());
        assert!(wrapped.suspends_balanced());
        let kinds: Vec<&str> = wrapped
            .ops
            .iter()
            .map(|o| match o {
                TxOp::Suspend => "S",
                TxOp::Resume => "R",
                TxOp::Access(_) => "A",
                TxOp::Compute(_) => "c",
            })
            .collect();
        assert_eq!(kinds, ["S", "A", "A", "R", "A", "S", "A", "R"]);
    }

    #[test]
    fn escape_wrapping_honors_site_sets() {
        let body = TxBody::new(vec![
            TxOp::Access(MemAccess::load(Addr::new(0), SiteId(3))),
            TxOp::Access(MemAccess::load(Addr::new(64), SiteId(4))),
        ]);
        let mut sites = HashSet::new();
        sites.insert(SiteId(3));
        let wrapped = wrap_safe_in_escapes(&body, &sites);
        assert_eq!(wrapped.ops.len(), 4); // S A R A
        assert!(wrapped.suspends_balanced());
    }

    #[test]
    fn empty_body() {
        let body = TxBody::default();
        assert_eq!(body.num_accesses(), 0);
        assert_eq!(body.footprint_blocks(), 0);
    }

    #[test]
    fn digesting_workload_fingerprints_generation() {
        /// One thread emitting `seed`-dependent sections.
        struct Seeded {
            left: u32,
            seed: u64,
        }
        impl Workload for Seeded {
            fn name(&self) -> &'static str {
                "seeded"
            }
            fn num_threads(&self) -> usize {
                1
            }
            fn reset(&mut self, seed: u64) {
                self.left = 2;
                self.seed = seed;
            }
            fn next_section(&mut self, _tid: ThreadId) -> Option<Section> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                Some(Section::Tx(TxBody::new(vec![TxOp::Access(
                    MemAccess::load(Addr::new(self.seed * 64), SiteId(0)),
                )])))
            }
        }

        let digest_for = |seed: u64| {
            let mut w = DigestingWorkload::new(Box::new(Seeded { left: 0, seed: 0 }));
            w.reset(seed);
            while w.next_section(ThreadId(0)).is_some() {}
            (w.state_digest(), w.thread_sections(ThreadId(0)))
        };
        let (d1, s1) = digest_for(7);
        let (d2, _) = digest_for(7);
        let (d3, _) = digest_for(8);
        assert_eq!(s1, 2);
        assert_eq!(d1, d2, "same seed, same stream");
        assert_ne!(d1, d3, "different seed, different stream");
        assert_eq!(
            d1,
            {
                let mut w = DigestingWorkload::new(Box::new(Seeded { left: 0, seed: 0 }));
                w.reset(7);
                while w.next_section(ThreadId(0)).is_some() {}
                w.reset(7);
                while w.next_section(ThreadId(0)).is_some() {}
                w.state_digest()
            },
            "reset clears the digest"
        );
        assert_ne!(
            digest_for(7).0,
            Fnv64::new().finish(),
            "digest covers content"
        );
    }
}
