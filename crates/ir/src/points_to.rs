//! Andersen-style inclusion-based points-to analysis.
//!
//! Field-insensitive (one abstract content cell per object) and
//! context-insensitive (one points-to set per virtual register), solved to a
//! fixpoint with a straightforward iterate-until-stable loop — module sizes
//! here are tiny kernels, so sophistication buys nothing.

use crate::module::{FuncId, Instr, Module, ObjId, ObjKind, Stmt, ValueId};
use std::collections::BTreeSet;

/// Metadata for one abstract object.
#[derive(Clone, Debug)]
pub struct ObjInfo {
    /// Stack, heap, or global.
    pub(crate) kind: ObjKind,
    /// Defining function (`None` for globals).
    pub(crate) func: Option<FuncId>,
    /// The allocation is syntactically inside a transaction.
    pub in_tx: bool,
    /// The allocation is syntactically inside a loop.
    pub(crate) in_loop: bool,
}

/// The points-to solution for a module.
#[derive(Clone, Debug)]
pub struct PointsTo {
    /// Per-value points-to sets, indexed by `value_base[func] + value`.
    pts: Vec<BTreeSet<ObjId>>,
    /// Per-object abstract contents (pointers stored into the object).
    contents: Vec<BTreeSet<ObjId>>,
    /// Per-function return-value points-to sets.
    rets: Vec<BTreeSet<ObjId>>,
    /// Object metadata.
    objects: Vec<ObjInfo>,
    /// First global value index per function.
    value_base: Vec<usize>,
    /// ObjId of each allocation instruction, keyed by (func, visit index).
    alloc_objs: std::collections::HashMap<(FuncId, u32), ObjId>,
    /// ObjId of each global (index = GlobalId).
    global_objs: Vec<ObjId>,
}

impl PointsTo {
    /// The points-to set of `value` in `func`.
    pub fn pts(&self, func: FuncId, value: ValueId) -> &BTreeSet<ObjId> {
        &self.pts[self.value_base[func.0 as usize] + value.0 as usize]
    }

    /// The abstract contents of `obj` (objects whose pointers were stored
    /// into it).
    pub(crate) fn contents(&self, obj: ObjId) -> &BTreeSet<ObjId> {
        &self.contents[obj.0 as usize]
    }

    /// Metadata for `obj`.
    pub fn obj_info(&self, obj: ObjId) -> &ObjInfo {
        &self.objects[obj.0 as usize]
    }

    /// Number of abstract objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Iterates over all object ids.
    pub fn iter_objects(&self) -> impl Iterator<Item = ObjId> {
        (0..self.objects.len() as u32).map(ObjId)
    }

    /// The object created by the allocation instruction at `visit_index`
    /// (per [`Module::visit_instrs`] order) of `func`, if any.
    pub(crate) fn alloc_obj(&self, func: FuncId, visit_index: u32) -> Option<ObjId> {
        self.alloc_objs.get(&(func, visit_index)).copied()
    }

    /// The object representing global `g`.
    pub(crate) fn global_obj(&self, g: crate::module::GlobalId) -> ObjId {
        self.global_objs[g.0 as usize]
    }

    /// The single object `value` points to — for tests where the
    /// points-to set is known to be a singleton.
    ///
    /// # Panics
    ///
    /// Panics unless the set has exactly one element.
    #[cfg(test)]
    pub(crate) fn expect_single_obj(&self, func: FuncId, value: ValueId) -> ObjId {
        let pts = self.pts(func, value);
        assert_eq!(pts.len(), 1, "expected singleton points-to set: {pts:?}");
        *pts.iter().next().unwrap()
    }
}

/// Runs the analysis on `module`.
pub fn points_to(module: &Module) -> PointsTo {
    // Value numbering across functions.
    let mut value_base = Vec::with_capacity(module.funcs.len());
    let mut total_values = 0usize;
    for f in &module.funcs {
        value_base.push(total_values);
        total_values += f.num_values;
    }

    // Enumerate objects: globals first, then allocation sites in visit order.
    let mut objects: Vec<ObjInfo> = Vec::new();
    let mut global_objs = Vec::new();
    for _g in &module.globals {
        global_objs.push(ObjId(objects.len() as u32));
        objects.push(ObjInfo {
            kind: ObjKind::Global,
            func: None,
            in_tx: false,
            in_loop: false,
        });
    }
    let mut alloc_objs = std::collections::HashMap::new();
    for (fid, f) in module.iter_funcs() {
        let mut idx = 0u32;
        walk_allocs(&f.body, fid, &mut idx, 0, 0, &mut objects, &mut alloc_objs);
    }

    let mut pt = PointsTo {
        pts: vec![BTreeSet::new(); total_values],
        contents: vec![BTreeSet::new(); objects.len()],
        rets: vec![BTreeSet::new(); module.funcs.len()],
        objects,
        value_base,
        alloc_objs,
        global_objs,
    };

    // Iterate to fixpoint.
    loop {
        let mut changed = false;
        for (fid, _) in module.iter_funcs() {
            let mut idx = 0u32;
            module.visit_instrs(fid, |instr| {
                changed |= apply(module, &mut pt, fid, idx, instr);
                idx += 1;
            });
        }
        if !changed {
            break;
        }
    }
    pt
}

/// Checks that `pt` really is a fixpoint of `module`'s constraints: one
/// more propagation sweep over a copy must not grow any set. Used by the
/// audit verifier and the idempotence property tests.
pub fn verify_fixpoint(module: &Module, pt: &PointsTo) -> bool {
    let mut probe = pt.clone();
    let mut changed = false;
    for (fid, _) in module.iter_funcs() {
        let mut idx = 0u32;
        module.visit_instrs(fid, |instr| {
            changed |= apply(module, &mut probe, fid, idx, instr);
            idx += 1;
        });
    }
    !changed
}

/// Enumerates allocation objects, recording TX/loop nesting.
fn walk_allocs(
    stmts: &[Stmt],
    fid: FuncId,
    idx: &mut u32,
    tx_depth: u32,
    loop_depth: u32,
    objects: &mut Vec<ObjInfo>,
    alloc_objs: &mut std::collections::HashMap<(FuncId, u32), ObjId>,
) {
    let mut tx = tx_depth;
    for s in stmts {
        match s {
            Stmt::Instr(i) => {
                match i {
                    Instr::Alloca { .. } | Instr::Halloc { .. } => {
                        let kind = if matches!(i, Instr::Alloca { .. }) {
                            ObjKind::Stack
                        } else {
                            ObjKind::Heap
                        };
                        alloc_objs.insert((fid, *idx), ObjId(objects.len() as u32));
                        objects.push(ObjInfo {
                            kind,
                            func: Some(fid),
                            in_tx: tx > 0,
                            in_loop: loop_depth > 0,
                        });
                    }
                    Instr::TxBegin => tx += 1,
                    Instr::TxEnd => tx = tx.saturating_sub(1),
                    _ => {}
                }
                *idx += 1;
            }
            Stmt::Loop { body, .. } => {
                walk_allocs(body, fid, idx, tx, loop_depth + 1, objects, alloc_objs)
            }
            Stmt::If(a, b) => {
                walk_allocs(a, fid, idx, tx, loop_depth, objects, alloc_objs);
                walk_allocs(b, fid, idx, tx, loop_depth, objects, alloc_objs);
            }
        }
    }
}

/// Applies one instruction's constraints; returns `true` on growth.
fn apply(module: &Module, pt: &mut PointsTo, fid: FuncId, idx: u32, instr: &Instr) -> bool {
    let base = pt.value_base[fid.0 as usize];
    let vi = |v: ValueId| base + v.0 as usize;
    let mut changed = false;
    let add = |set: &mut BTreeSet<ObjId>, items: &BTreeSet<ObjId>| {
        let before = set.len();
        set.extend(items.iter().copied());
        set.len() != before
    };

    match instr {
        Instr::Alloca { out } | Instr::Halloc { out } => {
            let obj = pt.alloc_objs[&(fid, idx)];
            changed |= pt.pts[vi(*out)].insert(obj);
        }
        Instr::Global { out, global } => {
            let obj = pt.global_objs[global.0 as usize];
            changed |= pt.pts[vi(*out)].insert(obj);
        }
        Instr::Gep { out, base: b } => {
            let src = pt.pts[vi(*b)].clone();
            changed |= add(&mut pt.pts[vi(*out)], &src);
        }
        Instr::Load {
            out: Some(out),
            ptr,
            ..
        } => {
            let mut gathered = BTreeSet::new();
            for o in pt.pts[vi(*ptr)].clone() {
                gathered.extend(pt.contents[o.0 as usize].iter().copied());
            }
            changed |= add(&mut pt.pts[vi(*out)], &gathered);
        }
        Instr::Store {
            ptr,
            val: Some(val),
            ..
        } => {
            let vals = pt.pts[vi(*val)].clone();
            for o in pt.pts[vi(*ptr)].clone() {
                changed |= add(&mut pt.contents[o.0 as usize], &vals);
            }
        }
        Instr::Memcpy { dst, src, .. } => {
            // Copying an object copies any pointers it holds.
            let mut gathered = BTreeSet::new();
            for o in pt.pts[vi(*src)].clone() {
                gathered.extend(pt.contents[o.0 as usize].iter().copied());
            }
            for o in pt.pts[vi(*dst)].clone() {
                changed |= add(&mut pt.contents[o.0 as usize], &gathered);
            }
        }
        Instr::Call {
            callee, args, out, ..
        } => {
            let callee_fn = module.func(*callee);
            let callee_base = pt.value_base[callee.0 as usize];
            for (i, a) in args.iter().enumerate().take(callee_fn.num_params) {
                let vals = pt.pts[vi(*a)].clone();
                changed |= add(&mut pt.pts[callee_base + i], &vals);
            }
            if let Some(out) = out {
                let rets = pt.rets[callee.0 as usize].clone();
                changed |= add(&mut pt.pts[vi(*out)], &rets);
            }
        }
        Instr::Spawn { callee, args } => {
            let callee_fn = module.func(*callee);
            let callee_base = pt.value_base[callee.0 as usize];
            for (i, a) in args.iter().enumerate().take(callee_fn.num_params) {
                let vals = pt.pts[vi(*a)].clone();
                changed |= add(&mut pt.pts[callee_base + i], &vals);
            }
        }
        Instr::Return { val: Some(val) } => {
            let vals = pt.pts[vi(*val)].clone();
            changed |= add(&mut pt.rets[fid.0 as usize], &vals);
        }
        _ => {}
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;

    #[test]
    fn alloc_flows_through_gep_and_copy() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0);
        let a = f.halloc();
        let g = f.gep(a);
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let pt = points_to(&module);
        let pa = pt.pts(id, a);
        assert_eq!(pa.len(), 1);
        assert_eq!(pt.pts(id, g), pa, "gep aliases its base");
    }

    #[test]
    fn store_load_round_trip_through_heap() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0);
        let cell = f.halloc();
        let payload = f.halloc();
        f.store_ptr(cell, payload);
        let (loaded, _) = f.load_ptr(cell);
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let pt = points_to(&module);
        assert_eq!(pt.pts(id, loaded), pt.pts(id, payload));
    }

    #[test]
    fn call_binds_params_and_returns() {
        let mut m = ModuleBuilder::new();
        let mut callee = m.func("id", 1);
        let p = callee.param(0);
        callee.ret_val(p);
        let callee = callee.finish();

        let mut f = m.func("f", 0);
        let a = f.alloca();
        let (r, _) = f.call_ptr(callee, vec![a]);
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let pt = points_to(&module);
        assert_eq!(pt.pts(id, r), pt.pts(id, a));
        assert_eq!(pt.pts(callee, ValueId(0)), pt.pts(id, a));
    }

    #[test]
    fn globals_are_objects() {
        let mut m = ModuleBuilder::new();
        let g = m.global("tbl");
        let mut f = m.func("f", 0);
        let ga = f.global_addr(g);
        let payload = f.halloc();
        f.store_ptr(ga, payload);
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let pt = points_to(&module);
        let gobj = pt.global_obj(g);
        assert_eq!(pt.obj_info(gobj).kind, ObjKind::Global);
        assert_eq!(pt.contents(gobj).len(), 1);
    }

    #[test]
    fn spawn_binds_thread_params() {
        let mut m = ModuleBuilder::new();
        let mut worker = m.func("worker", 1);
        let p = worker.param(0);
        worker.load(p);
        worker.ret();
        let worker = worker.finish();
        let mut main = m.func("main", 0);
        let shared = main.halloc();
        main.spawn(worker, vec![shared]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        assert_eq!(pt.pts(worker, ValueId(0)), pt.pts(entry, shared));
    }

    #[test]
    fn memcpy_propagates_pointer_contents() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0);
        let src = f.halloc();
        let dst = f.halloc();
        let payload = f.halloc();
        f.store_ptr(src, payload);
        f.memcpy(dst, src);
        let (out, _) = f.load_ptr(dst);
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let pt = points_to(&module);
        assert_eq!(pt.pts(id, out), pt.pts(id, payload));
    }

    #[test]
    fn tx_and_loop_nesting_recorded_on_objects() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0);
        let outside = f.halloc();
        f.tx_begin();
        let inside = f.halloc();
        f.begin_loop();
        let looped = f.halloc();
        f.end_block();
        f.tx_end();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let pt = points_to(&module);
        let o = |v| pt.expect_single_obj(id, v);
        assert!(!pt.obj_info(o(outside)).in_tx);
        assert!(pt.obj_info(o(inside)).in_tx);
        assert!(!pt.obj_info(o(inside)).in_loop);
        assert!(pt.obj_info(o(looped)).in_tx);
        assert!(pt.obj_info(o(looped)).in_loop);
    }

    #[test]
    fn cyclic_flow_terminates() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0);
        let a = f.halloc();
        let b = f.halloc();
        f.store_ptr(a, b);
        f.store_ptr(b, a);
        let (x, _) = f.load_ptr(a);
        f.store_ptr(x, a);
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let pt = points_to(&module);
        assert_eq!(pt.pts(id, x).len(), 1);
    }
}
