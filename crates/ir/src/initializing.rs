//! Initializing-store analysis: which stores are *defined-before-used*
//! within a transaction (§IV-A).
//!
//! A store is initializing — and therefore safe to leave untracked, because
//! the pre-transaction value of the location is dead — when every object it
//! may target is:
//!
//! * allocated inside the same transaction (Harris et al.'s rule: the
//!   object is unreachable if the TX aborts), or
//! * thread-private and not loaded earlier in the transaction
//!   (defined-before-use: the pre-TX value is never observed, so a retry
//!   re-running the store is harmless), or
//! * for a whole-object `memcpy`: thread-private with *no* prior access in
//!   the transaction and outside any loop (the copy defines the entire
//!   object before any use — labyrinth's grid-copy pattern).
//!
//! Loops are handled conservatively: any load inside a loop is treated as
//! preceding every store in that loop (a second iteration makes it so —
//! the loop body is pre-scanned and its reads merged before the stores are
//! judged), and `if` branches merge pessimistically. A store inside a loop
//! to a never-loaded thread-private object remains safe: no iteration
//! observes the pre-TX value, so dropping it from the write set cannot
//! leak a stale value into a retry.
//!
//! Functions called inside a transaction are analyzed inline with the
//! caller's state; a site called from several transactional contexts must
//! be safe in all of them.

use crate::module::{FuncId, Instr, Module, ObjId, Stmt};
use crate::points_to::PointsTo;
use crate::sharing::Sharing;
use hintm_types::SiteId;
use std::collections::{BTreeSet, HashMap};

/// Per-transaction walk state.
#[derive(Clone, Default)]
struct TxState {
    /// Objects loaded so far in this TX.
    loaded: BTreeSet<ObjId>,
    /// Objects accessed (load or store) so far in this TX.
    accessed: BTreeSet<ObjId>,
    /// Objects allocated inside this TX.
    allocated: BTreeSet<ObjId>,
}

struct Walker<'a> {
    module: &'a Module,
    pt: &'a PointsTo,
    sh: &'a Sharing,
    /// site → AND-ed verdict across all transactional contexts.
    verdicts: HashMap<SiteId, bool>,
    call_stack: Vec<FuncId>,
}

/// Computes the set of initializing (safe) store sites, including `memcpy`
/// store sites.
pub(crate) fn initializing_stores(
    module: &Module,
    pt: &PointsTo,
    sh: &Sharing,
) -> BTreeSet<SiteId> {
    let mut w = Walker {
        module,
        pt,
        sh,
        verdicts: HashMap::new(),
        call_stack: Vec::new(),
    };
    for &fid in &sh.reachable_thread {
        w.walk_function_toplevel(fid);
    }
    w.verdicts
        .into_iter()
        .filter(|(_, ok)| *ok)
        .map(|(s, _)| s)
        .collect()
}

impl Walker<'_> {
    /// Walks a function body looking for TxBegin/TxEnd regions.
    fn walk_function_toplevel(&mut self, fid: FuncId) {
        let f = self.module.func(fid);
        let body = f.body.clone();
        let mut idx = 0u32;
        let mut tx: Option<TxState> = None;
        self.call_stack.push(fid);
        self.walk_stmts(fid, &body, &mut idx, &mut tx, 0, 0);
        self.call_stack.pop();
    }

    fn record(&mut self, site: SiteId, safe: bool) {
        self.verdicts
            .entry(site)
            .and_modify(|v| *v &= safe)
            .or_insert(safe);
    }

    /// Walks statements. `tx` is `Some` while inside a transaction;
    /// `tx_depth` counts (flat) nesting; `loop_depth` counts enclosing
    /// loops *within the current TX*.
    #[allow(clippy::too_many_arguments)]
    fn walk_stmts(
        &mut self,
        fid: FuncId,
        stmts: &[Stmt],
        idx: &mut u32,
        tx: &mut Option<TxState>,
        tx_depth: u32,
        loop_depth: u32,
    ) -> u32 {
        let mut tx_depth = tx_depth;
        for s in stmts {
            match s {
                Stmt::Instr(i) => {
                    self.visit_instr(fid, i, *idx, tx, &mut tx_depth, loop_depth);
                    *idx += 1;
                }
                Stmt::Loop { body, .. } => {
                    if let Some(state) = tx.as_mut() {
                        // Every load in the loop precedes every store in it
                        // (second iteration), so pre-merge.
                        let (pre_loaded, pre_accessed) = self.scan_reads(fid, body);
                        state.loaded.extend(pre_loaded);
                        state.accessed.extend(pre_accessed);
                    }
                    let inner_loop = if tx.is_some() {
                        loop_depth + 1
                    } else {
                        loop_depth
                    };
                    tx_depth = self.walk_stmts(fid, body, idx, tx, tx_depth, inner_loop);
                }
                Stmt::If(a, b) => {
                    let mut tx_a = tx.clone();
                    let mut tx_b = tx.clone();
                    let d1 = self.walk_stmts(fid, a, idx, &mut tx_a, tx_depth, loop_depth);
                    let d2 = self.walk_stmts(fid, b, idx, &mut tx_b, tx_depth, loop_depth);
                    assert_eq!(d1, d2, "unbalanced tx nesting across branches");
                    tx_depth = d1;
                    *tx = merge_branches(tx_a, tx_b);
                }
            }
        }
        tx_depth
    }

    #[allow(clippy::too_many_arguments, clippy::collapsible_match)]
    fn visit_instr(
        &mut self,
        fid: FuncId,
        i: &Instr,
        idx: u32,
        tx: &mut Option<TxState>,
        tx_depth: &mut u32,
        loop_depth: u32,
    ) {
        match i {
            Instr::TxBegin => {
                if *tx_depth == 0 {
                    *tx = Some(TxState::default());
                }
                *tx_depth += 1;
            }
            Instr::TxEnd => {
                *tx_depth = tx_depth.saturating_sub(1);
                if *tx_depth == 0 {
                    *tx = None;
                }
            }
            Instr::Alloca { .. } | Instr::Halloc { .. } => {
                if let (Some(state), Some(obj)) = (tx.as_mut(), self.pt.alloc_obj(fid, idx)) {
                    state.allocated.insert(obj);
                }
            }
            Instr::Load { ptr, .. } => {
                if let Some(state) = tx.as_mut() {
                    let objs = self.pt.pts(fid, *ptr).clone();
                    state.loaded.extend(objs.iter().copied());
                    state.accessed.extend(objs);
                }
            }
            Instr::Store { ptr, site, .. } => {
                if let Some(state) = tx.as_mut() {
                    let objs = self.pt.pts(fid, *ptr).clone();
                    let safe = !objs.is_empty()
                        && objs.iter().all(|o| {
                            state.allocated.contains(o)
                                || (self.sh.thread_private.contains(o) && !state.loaded.contains(o))
                        });
                    self.record(*site, safe);
                    state.accessed.extend(objs);
                }
            }
            Instr::Memcpy {
                dst,
                src,
                store_site,
                ..
            } => {
                if let Some(state) = tx.as_mut() {
                    let dst_objs = self.pt.pts(fid, *dst).clone();
                    let src_objs = self.pt.pts(fid, *src).clone();
                    let safe = !dst_objs.is_empty()
                        && dst_objs.iter().all(|o| {
                            state.allocated.contains(o)
                                || (self.sh.thread_private.contains(o)
                                    && !state.accessed.contains(o)
                                    && loop_depth == 0)
                        });
                    self.record(*store_site, safe);
                    if safe {
                        // A full-object initializing copy leaves the
                        // destination's pre-TX contents dead: every later
                        // store to it in this TX is also initializing.
                        state.allocated.extend(dst_objs.iter().copied());
                    }
                    state.loaded.extend(src_objs.iter().copied());
                    state.accessed.extend(src_objs);
                    state.accessed.extend(dst_objs);
                }
            }
            Instr::Call { callee, .. } => {
                if tx.is_some() && !self.call_stack.contains(callee) && self.call_stack.len() < 8 {
                    // Inline the callee into the current TX context; the
                    // callee executes entirely inside the transaction.
                    let body = self.module.func(*callee).body.clone();
                    let mut cidx = 0u32;
                    self.call_stack.push(*callee);
                    let mut inner_tx = tx.take();
                    self.walk_stmts(*callee, &body, &mut cidx, &mut inner_tx, 1, loop_depth);
                    *tx = inner_tx;
                    self.call_stack.pop();
                }
            }
            _ => {}
        }
    }

    /// Collects objects loaded / accessed anywhere in `stmts` (loop
    /// pre-scan), including inlined callees.
    fn scan_reads(&mut self, fid: FuncId, stmts: &[Stmt]) -> (BTreeSet<ObjId>, BTreeSet<ObjId>) {
        let mut loaded = BTreeSet::new();
        let mut accessed = BTreeSet::new();
        self.scan_reads_into(fid, stmts, &mut loaded, &mut accessed);
        (loaded, accessed)
    }

    fn scan_reads_into(
        &mut self,
        fid: FuncId,
        stmts: &[Stmt],
        loaded: &mut BTreeSet<ObjId>,
        accessed: &mut BTreeSet<ObjId>,
    ) {
        for s in stmts {
            match s {
                Stmt::Instr(Instr::Load { ptr, .. }) => {
                    let objs = self.pt.pts(fid, *ptr);
                    loaded.extend(objs.iter().copied());
                    accessed.extend(objs.iter().copied());
                }
                Stmt::Instr(Instr::Store { ptr, .. }) => {
                    accessed.extend(self.pt.pts(fid, *ptr).iter().copied());
                }
                Stmt::Instr(Instr::Memcpy { dst, src, .. }) => {
                    let so = self.pt.pts(fid, *src);
                    loaded.extend(so.iter().copied());
                    accessed.extend(so.iter().copied());
                    accessed.extend(self.pt.pts(fid, *dst).iter().copied());
                }
                Stmt::Instr(Instr::Call { callee, .. }) => {
                    if !self.call_stack.contains(callee) && self.call_stack.len() < 8 {
                        self.call_stack.push(*callee);
                        let body = self.module.func(*callee).body.clone();
                        self.scan_reads_into(*callee, &body, loaded, accessed);
                        self.call_stack.pop();
                    }
                }
                Stmt::Instr(_) => {}
                Stmt::Loop { body, .. } => self.scan_reads_into(fid, body, loaded, accessed),
                Stmt::If(a, b) => {
                    self.scan_reads_into(fid, a, loaded, accessed);
                    self.scan_reads_into(fid, b, loaded, accessed);
                }
            }
        }
    }
}

/// Merges the TX states of two branches: unions of loaded/accessed
/// (either may have happened), intersection of allocated (only allocations
/// guaranteed on every path count).
fn merge_branches(a: Option<TxState>, b: Option<TxState>) -> Option<TxState> {
    match (a, b) {
        (Some(x), Some(y)) => Some(TxState {
            loaded: x.loaded.union(&y.loaded).copied().collect(),
            accessed: x.accessed.union(&y.accessed).copied().collect(),
            allocated: x.allocated.intersection(&y.allocated).copied().collect(),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;
    use crate::points_to::points_to;
    use crate::sharing::sharing;

    fn analyze(module: &Module) -> BTreeSet<SiteId> {
        let pt = points_to(module);
        let sh = sharing(module, &pt);
        initializing_stores(module, &pt, &sh)
    }

    /// Builds `main { spawn worker() }` with the worker body supplied by a
    /// closure; returns the module.
    fn with_worker(build: impl FnOnce(&mut crate::module::FuncBuilder<'_>)) -> Module {
        let mut m = ModuleBuilder::new();
        let mut w = m.func("worker", 0);
        build(&mut w);
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        m.finish(entry, worker)
    }

    #[test]
    fn store_to_tx_allocated_object_is_safe() {
        let mut site = None;
        let module = with_worker(|w| {
            w.tx_begin();
            let buf = w.halloc();
            site = Some(w.store(buf));
            w.tx_end();
        });
        assert!(analyze(&module).contains(&site.unwrap()));
    }

    #[test]
    fn store_after_load_of_same_object_is_unsafe() {
        let mut site = None;
        let module = with_worker(|w| {
            let buf = w.halloc(); // thread-private but pre-TX
            w.tx_begin();
            w.load(buf);
            site = Some(w.store(buf));
            w.tx_end();
        });
        assert!(!analyze(&module).contains(&site.unwrap()));
    }

    #[test]
    fn straight_line_store_before_any_load_is_safe() {
        let mut site = None;
        let module = with_worker(|w| {
            let buf = w.halloc();
            w.tx_begin();
            site = Some(w.store(buf)); // define
            w.load(buf); // then use
            w.tx_end();
        });
        assert!(analyze(&module).contains(&site.unwrap()));
    }

    #[test]
    fn looped_store_to_never_loaded_private_object_is_safe() {
        // A store in a loop to a pre-TX thread-private object that is never
        // loaded in the TX: no iteration observes the pre-TX value, so the
        // store is still defined-before-use (scratch-buffer pattern).
        let mut loop_site = None;
        let mut alloc_site = None;
        let module = with_worker(|w| {
            let pre = w.halloc();
            w.tx_begin();
            let fresh = w.halloc();
            w.begin_loop();
            loop_site = Some(w.store(pre));
            alloc_site = Some(w.store(fresh));
            w.end_block();
            w.tx_end();
        });
        let safe = analyze(&module);
        assert!(
            safe.contains(&loop_site.unwrap()),
            "looped store to never-loaded pre-TX private object"
        );
        assert!(
            safe.contains(&alloc_site.unwrap()),
            "looped store to TX-fresh object"
        );
    }

    #[test]
    fn looped_store_with_load_in_same_loop_is_unsafe() {
        // The pre-scan merges the loop's loads before judging its stores: a
        // load anywhere in the loop body makes a store to the same pre-TX
        // object unsafe even when the store syntactically precedes it.
        let mut site = None;
        let module = with_worker(|w| {
            let pre = w.halloc();
            w.tx_begin();
            w.begin_loop();
            site = Some(w.store(pre));
            w.load(pre); // second iteration observes the stored value
            w.end_block();
            w.tx_end();
        });
        assert!(!analyze(&module).contains(&site.unwrap()));
    }

    #[test]
    fn memcpy_to_untouched_private_object_is_safe() {
        let mut store_site = None;
        let module = with_worker(|w| {
            let grid = w.halloc(); // thread-private, allocated once
            let shared_src = w.halloc();
            w.tx_begin();
            let (_, st) = w.memcpy(grid, shared_src);
            store_site = Some(st);
            w.begin_loop();
            w.load(grid); // later uses are fine
            w.store(grid);
            w.end_block();
            w.tx_end();
        });
        assert!(analyze(&module).contains(&store_site.unwrap()));
    }

    #[test]
    fn memcpy_after_prior_access_is_unsafe() {
        let mut store_site = None;
        let module = with_worker(|w| {
            let grid = w.halloc();
            let src = w.halloc();
            w.tx_begin();
            w.load(grid); // touch before the copy
            let (_, st) = w.memcpy(grid, src);
            store_site = Some(st);
            w.tx_end();
        });
        assert!(!analyze(&module).contains(&store_site.unwrap()));
    }

    #[test]
    fn store_to_shared_object_is_never_initializing() {
        let mut m = ModuleBuilder::new();
        let g = m.global("shared");
        let mut w = m.func("worker", 0);
        let ga = w.global_addr(g);
        w.tx_begin();
        let site = w.store(ga);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        assert!(!analyze(&module).contains(&site));
    }

    #[test]
    fn callee_stores_inherit_caller_tx_context() {
        // worker: TX { helper(fresh_buf) }; helper stores through its param.
        let mut m = ModuleBuilder::new();
        let mut h = m.func("helper", 1);
        let p = h.param(0);
        let site = h.store(p);
        h.ret();
        let helper = h.finish();
        let mut w = m.func("worker", 0);
        w.tx_begin();
        let buf = w.halloc();
        w.call(helper, vec![buf]);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        assert!(
            analyze(&module).contains(&site),
            "store in callee to TX-fresh object"
        );
    }

    #[test]
    fn branch_allocation_does_not_count_after_merge() {
        let mut site = None;
        let module = with_worker(|w| {
            let pre = w.halloc();
            w.tx_begin();
            w.load(pre);
            w.begin_if();
            let _maybe = w.halloc();
            w.begin_else();
            w.end_block();
            // `pre` was loaded; conditional alloc cannot rescue this store.
            site = Some(w.store(pre));
            w.tx_end();
        });
        assert!(!analyze(&module).contains(&site.unwrap()));
    }

    #[test]
    fn stores_outside_tx_are_not_classified() {
        let mut site = None;
        let module = with_worker(|w| {
            let buf = w.halloc();
            site = Some(w.store(buf));
        });
        // Not in the safe set and not in the verdict map at all — outside a
        // TX the flag is irrelevant.
        assert!(!analyze(&module).contains(&site.unwrap()));
    }
}
