//! Thread-sharing and escape analysis: the paper's Algorithm 1 plus
//! read-only-shared detection.

use crate::module::{FuncId, Instr, Module, ObjId, ObjKind};
use crate::points_to::PointsTo;
use std::collections::BTreeSet;

/// The sharing classification of every abstract object.
#[derive(Clone, Debug)]
pub struct Sharing {
    /// Objects reachable by more than one thread (globals, spawn arguments,
    /// and everything reachable from them).
    pub shared: BTreeSet<ObjId>,
    /// Non-escaping objects allocated in the thread region: provably
    /// accessed by a single thread.
    pub(crate) thread_private: BTreeSet<ObjId>,
    /// Shared objects never written inside the parallel region: loads from
    /// them are safe.
    pub read_only_shared: BTreeSet<ObjId>,
    /// Functions reachable from the thread root via calls.
    pub reachable_thread: BTreeSet<FuncId>,
}

impl Sharing {
    /// Is a load whose pointer targets exactly `objs` safe (every target
    /// thread-private or read-only shared)?
    pub(crate) fn load_targets_safe(&self, objs: &BTreeSet<ObjId>) -> bool {
        !objs.is_empty()
            && objs
                .iter()
                .all(|o| self.thread_private.contains(o) || self.read_only_shared.contains(o))
    }

    /// Are all of `objs` thread-private?
    pub(crate) fn all_thread_private(&self, objs: &BTreeSet<ObjId>) -> bool {
        !objs.is_empty() && objs.iter().all(|o| self.thread_private.contains(o))
    }
}

/// Direct-call reachability from `root` (spawn edges excluded unless
/// `follow_spawn`).
pub fn reachable_funcs(module: &Module, root: FuncId, follow_spawn: bool) -> BTreeSet<FuncId> {
    let mut seen = BTreeSet::new();
    let mut work = vec![root];
    while let Some(f) = work.pop() {
        if !seen.insert(f) {
            continue;
        }
        module.visit_instrs(f, |i| match i {
            Instr::Call { callee, .. } => work.push(*callee),
            Instr::Spawn { callee, .. } if follow_spawn => work.push(*callee),
            _ => {}
        });
    }
    seen
}

/// Runs the sharing analysis.
///
/// Algorithm 1 structure: seed `Set_of_Shared` with globals and every object
/// passed (directly or transitively) to the thread-spawn function, then
/// propagate through abstract contents ("a pointer stored into a shared
/// object makes its target shared"). Heap/stack objects allocated in the
/// thread region that stay out of the shared set are thread-private.
pub fn sharing(module: &Module, pt: &PointsTo) -> Sharing {
    let reachable_main = reachable_funcs(module, module.entry, false);
    let reachable_thread = reachable_funcs(module, module.thread_root, false);

    // Seed: globals + spawn arguments.
    let mut shared: BTreeSet<ObjId> = pt
        .iter_objects()
        .filter(|o| pt.obj_info(*o).kind == ObjKind::Global)
        .collect();
    for (fid, _) in module.iter_funcs() {
        module.visit_instrs(fid, |i| {
            if let Instr::Spawn { args, .. } = i {
                for a in args {
                    shared.extend(pt.pts(fid, *a).iter().copied());
                }
            }
        });
    }

    // Propagate reachability through contents.
    let mut work: Vec<ObjId> = shared.iter().copied().collect();
    while let Some(o) = work.pop() {
        for &c in pt.contents(o) {
            if shared.insert(c) {
                work.push(c);
            }
        }
    }

    // Thread-private: allocated in a function reachable from the thread
    // root only (a helper also called from main has ambiguous ownership),
    // and not shared.
    let mut thread_private = BTreeSet::new();
    for o in pt.iter_objects() {
        let info = pt.obj_info(o);
        if shared.contains(&o) || info.kind == ObjKind::Global {
            continue;
        }
        if let Some(f) = info.func {
            if reachable_thread.contains(&f) && !reachable_main.contains(&f) {
                thread_private.insert(o);
            }
        }
    }

    // Read-only shared: shared objects with no store/memcpy-dst targeting
    // them anywhere in the parallel region.
    let mut written_in_region: BTreeSet<ObjId> = BTreeSet::new();
    for &fid in &reachable_thread {
        module.visit_instrs(fid, |i| match i {
            Instr::Store { ptr, .. } => {
                written_in_region.extend(pt.pts(fid, *ptr).iter().copied());
            }
            Instr::Memcpy { dst, .. } => {
                written_in_region.extend(pt.pts(fid, *dst).iter().copied());
            }
            _ => {}
        });
    }
    let read_only_shared: BTreeSet<ObjId> = shared
        .iter()
        .copied()
        .filter(|o| !written_in_region.contains(o))
        .collect();

    Sharing {
        shared,
        thread_private,
        read_only_shared,
        reachable_thread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;
    use crate::points_to::points_to;

    /// main spawns worker(shared_table); worker allocates a private buffer.
    fn two_object_module() -> (Module, FuncId, FuncId) {
        let mut m = ModuleBuilder::new();
        let mut w = m.func("worker", 1);
        let table = w.param(0);
        w.load(table);
        let private = w.halloc();
        w.store(private);
        w.free(private);
        w.ret();
        let worker = w.finish();

        let mut main = m.func("main", 0);
        let table = main.halloc();
        main.store(table); // init write, outside the parallel region
        main.spawn(worker, vec![table]);
        main.ret();
        let entry = main.finish();
        (m.finish(entry, worker), entry, worker)
    }

    #[test]
    fn spawn_args_are_shared_private_allocs_are_not() {
        let (module, entry, worker) = two_object_module();
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);

        // The table passed to spawn is shared.
        let table_objs = pt.pts(worker, crate::module::ValueId(0));
        assert!(table_objs.iter().all(|o| sh.shared.contains(o)));
        // It was only written by main during init → read-only shared.
        assert!(table_objs.iter().all(|o| sh.read_only_shared.contains(o)));

        // The worker's buffer is thread-private.
        let all_private: Vec<_> = sh.thread_private.iter().collect();
        assert_eq!(all_private.len(), 1);
        assert_eq!(pt.obj_info(*all_private[0]).func, Some(worker));
        let _ = entry;
    }

    #[test]
    fn reachability_separates_main_and_thread() {
        let (module, entry, worker) = two_object_module();
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let reachable_main = reachable_funcs(&module, entry, false);
        assert!(reachable_main.contains(&entry));
        assert!(!reachable_main.contains(&worker), "spawn edge not followed");
        assert!(sh.reachable_thread.contains(&worker));
    }

    #[test]
    fn object_stored_into_shared_structure_escapes() {
        // worker allocates a node and publishes it into the shared list.
        let mut m = ModuleBuilder::new();
        let g = m.global("list");
        let mut w = m.func("worker", 0);
        let ga = w.global_addr(g);
        let node = w.halloc();
        w.store_ptr(ga, node); // publish
        let scratch = w.halloc(); // never published
        w.store(scratch);
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);

        let node_obj = pt.expect_single_obj(worker, node);
        let scratch_obj = pt.expect_single_obj(worker, scratch);
        assert!(sh.shared.contains(&node_obj), "published node escapes");
        assert!(!sh.shared.contains(&scratch_obj));
        assert!(sh.thread_private.contains(&scratch_obj));
    }

    #[test]
    fn transitively_reachable_objects_escape() {
        // shared -> a -> b: both a and b escape.
        let mut m = ModuleBuilder::new();
        let g = m.global("root");
        let mut w = m.func("worker", 0);
        let ga = w.global_addr(g);
        let a = w.halloc();
        let b = w.halloc();
        w.store_ptr(a, b);
        w.store_ptr(ga, a);
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let ao = pt.expect_single_obj(worker, a);
        let bo = pt.expect_single_obj(worker, b);
        assert!(sh.shared.contains(&ao));
        assert!(sh.shared.contains(&bo));
    }

    #[test]
    fn shared_object_written_in_region_is_not_read_only() {
        let mut m = ModuleBuilder::new();
        let g = m.global("counter");
        let mut w = m.func("worker", 0);
        let ga = w.global_addr(g);
        w.store(ga); // written in parallel region
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let gobj = pt.global_obj(g);
        assert!(sh.shared.contains(&gobj));
        assert!(!sh.read_only_shared.contains(&gobj));
    }

    #[test]
    fn helper_called_from_both_sides_is_ambiguous() {
        // A helper allocating a buffer, called from both main and worker:
        // its allocations must not be thread-private.
        let mut m = ModuleBuilder::new();
        let mut h = m.func("helper", 0);
        let buf = h.halloc();
        h.store(buf);
        h.ret();
        let helper = h.finish();
        let mut w = m.func("worker", 0);
        w.call(helper, vec![]);
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.call(helper, vec![]);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        assert!(sh.thread_private.is_empty());
    }

    #[test]
    fn objects_escaping_through_return_values_are_tracked() {
        // helper() allocates and returns a buffer; worker publishes the
        // returned pointer into a global — the allocation must be shared.
        let mut m = ModuleBuilder::new();
        let g = m.global("registry");
        let mut h = m.func("helper", 0);
        let buf = h.halloc();
        h.ret_val(buf);
        let helper = h.finish();
        let mut w = m.func("worker", 0);
        let (got, _) = w.call_ptr(helper, vec![]);
        let ga = w.global_addr(g);
        w.store_ptr(ga, got);
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let buf_obj = pt.expect_single_obj(helper, buf);
        assert!(
            sh.shared.contains(&buf_obj),
            "returned-then-published object escapes"
        );
        assert!(sh.thread_private.is_empty());
    }

    #[test]
    fn returned_but_unpublished_objects_stay_private() {
        let mut m = ModuleBuilder::new();
        let mut h = m.func("helper", 0);
        let buf = h.halloc();
        h.ret_val(buf);
        let helper = h.finish();
        let mut w = m.func("worker", 0);
        let (got, _) = w.call_ptr(helper, vec![]);
        w.store(got);
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let buf_obj = pt.expect_single_obj(helper, buf);
        assert!(sh.thread_private.contains(&buf_obj));
    }

    #[test]
    fn load_target_safety_queries() {
        let (module, _, worker) = two_object_module();
        let pt = points_to(&module);
        let sh = sharing(&module, &pt);
        let table_objs = pt.pts(worker, crate::module::ValueId(0)).clone();
        assert!(
            sh.load_targets_safe(&table_objs),
            "read-only shared loads safe"
        );
        assert!(!sh.all_thread_private(&table_objs));
        assert!(
            !sh.load_targets_safe(&BTreeSet::new()),
            "empty pts is unsafe"
        );
    }
}
