//! The end-to-end static classification pipeline (§IV-A).

use crate::initializing::initializing_stores;
use crate::module::{Instr, Module};
use crate::points_to::points_to;
use crate::replicate::replicate;
use crate::sharing::sharing;
use hintm_types::SiteId;
use std::collections::BTreeSet;

/// Summary statistics of a classification run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassifyStats {
    /// Total access sites in the (transformed) module.
    pub num_sites: u32,
    /// Load sites marked safe.
    pub safe_loads: u32,
    /// Store sites marked safe (initializing).
    pub safe_stores: u32,
    /// Functions replicated for safe call contexts.
    pub replicated_funcs: u32,
}

/// The output of [`classify`]: which access sites carry the compiler's
/// safe-load/safe-store flag.
///
/// The set is ordered so that iteration (printing, diffing, auditing) is
/// byte-stable across runs.
#[derive(Clone, Debug)]
pub struct StaticClassification {
    safe_sites: BTreeSet<SiteId>,
    stats: ClassifyStats,
}

impl StaticClassification {
    /// Is `site` marked safe?
    pub fn is_safe(&self, site: SiteId) -> bool {
        self.safe_sites.contains(&site)
    }

    /// The full safe-site set, in ascending site order.
    pub fn safe_sites(&self) -> &BTreeSet<SiteId> {
        &self.safe_sites
    }

    /// Summary statistics.
    pub fn stats(&self) -> ClassifyStats {
        self.stats
    }
}

/// Runs the whole pipeline on `module`:
///
/// 1. points-to + sharing analysis,
/// 2. function replication for mixed-safety call contexts,
/// 3. re-analysis of the transformed module,
/// 4. safe-load marking (thread-private or read-only-shared targets),
/// 5. initializing-store marking.
pub fn classify(module: &Module) -> StaticClassification {
    // Round 1: analysis for replication decisions.
    let pt0 = points_to(module);
    let sh0 = sharing(module, &pt0);
    let (module2, rep) = replicate(module, &pt0, &sh0);

    // Round 2: final analysis on the transformed module.
    let pt = points_to(&module2);
    let sh = sharing(&module2, &pt);

    let mut safe_sites: BTreeSet<SiteId> = BTreeSet::new();
    let mut safe_loads = 0u32;

    // Safe loads: every target thread-private or read-only shared. Only
    // sites in the parallel region matter (main's sites never run in a TX).
    for &fid in &sh.reachable_thread {
        module2.visit_instrs(fid, |i| {
            let (ptr, site) = match i {
                Instr::Load { ptr, site, .. } => (ptr, site),
                Instr::Memcpy { src, load_site, .. } => (src, load_site),
                _ => return,
            };
            if sh.load_targets_safe(pt.pts(fid, *ptr)) {
                safe_sites.insert(*site);
                safe_loads += 1;
            }
        });
    }

    // Safe (initializing) stores.
    let init = initializing_stores(&module2, &pt, &sh);
    let safe_stores = init.len() as u32;
    safe_sites.extend(init);

    StaticClassification {
        safe_sites,
        stats: ClassifyStats {
            num_sites: module2.num_sites,
            safe_loads,
            safe_stores,
            replicated_funcs: rep.replicated.len() as u32,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleBuilder;

    #[test]
    fn labyrinth_shaped_kernel_classifies_like_the_paper() {
        // Labyrinth's structure (Listing 2): each thread owns a grid;
        // every TX memcpys the shared grid into it, expands over the
        // private copy, then writes the path back to the shared grid.
        let mut m = ModuleBuilder::new();
        let g = m.global("global_grid");

        let mut w = m.func("solve", 0);
        let my_grid = w.halloc(); // thread-private grid
        let shared = w.global_addr(g);
        w.begin_loop(); // one TX per route
        w.tx_begin();
        let (copy_load, copy_store) = w.memcpy(my_grid, shared);
        w.begin_loop(); // expansion over the private copy
        let exp_load = w.load(my_grid);
        let exp_store = w.store(my_grid);
        w.end_block();
        let path_read = w.load(my_grid);
        let path_write = w.store(shared); // write path back: unsafe
        w.tx_end();
        w.end_block();
        w.free(my_grid);
        w.ret();
        let worker = w.finish();

        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);

        let c = classify(&module);
        // Reads of the shared grid through the memcpy are *not* safe
        // (shared + written in region), but the private-copy accesses are.
        assert!(!c.is_safe(copy_load), "shared grid is written in-region");
        assert!(
            c.is_safe(copy_store),
            "initializing memcpy into private grid"
        );
        assert!(c.is_safe(exp_load), "private grid loads");
        assert!(c.is_safe(path_read));
        assert!(!c.is_safe(path_write), "write-back to shared grid");
        // The initializing memcpy leaves the private grid's pre-TX contents
        // dead, so the expansion stores after it are safe as well.
        assert!(c.is_safe(exp_store), "stores after a full-object init copy");
    }

    #[test]
    fn genome_shaped_kernel_has_no_safe_sites() {
        // All accesses go to shared structures (hash table + segment list).
        let mut m = ModuleBuilder::new();
        let g = m.global("segment_table");
        let mut w = m.func("worker", 0);
        let t = w.global_addr(g);
        w.begin_loop();
        w.tx_begin();
        let l = w.load(t);
        let s = w.store(t);
        w.tx_end();
        w.end_block();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let c = classify(&module);
        assert!(!c.is_safe(l));
        assert!(!c.is_safe(s));
        assert_eq!(c.stats().safe_loads, 0);
        assert_eq!(c.stats().safe_stores, 0);
    }

    #[test]
    fn read_only_table_loads_are_safe() {
        let mut m = ModuleBuilder::new();
        let mut w = m.func("worker", 1);
        let table = w.param(0);
        w.tx_begin();
        let l = w.load(table);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        let table = main.halloc();
        main.store(table); // initialized before spawn
        main.spawn(worker, vec![table]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let c = classify(&module);
        assert!(c.is_safe(l), "read-only shared table");
    }

    #[test]
    fn replicated_call_path_resolves_to_safe_clone() {
        let mut m = ModuleBuilder::new();
        let g = m.global("shared");
        let mut p = m.func("fill", 1);
        let arg = p.param(0);
        p.tx_begin();
        let store_site = p.store(arg);
        p.tx_end();
        p.ret();
        let fill = p.finish();
        let mut w = m.func("worker", 0);
        w.tx_begin();
        let buf = w.halloc();
        let safe_call = w.call(fill, vec![buf]);
        let ga = w.global_addr(g);
        let unsafe_call = w.call(fill, vec![ga]);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);

        let c = classify(&module);
        assert_eq!(c.stats().replicated_funcs, 1);
        let pt = points_to(&module);
        let (_, rep) = replicate(&module, &pt, &sharing(&module, &pt));
        let clone_site = rep.site_map[&(safe_call, store_site)];
        assert!(c.is_safe(clone_site), "clone path is safe");
        assert!(
            !rep.site_map.contains_key(&(unsafe_call, store_site)),
            "shared path keeps the original site"
        );
        assert!(
            !c.is_safe(store_site),
            "original site unsafe (mixed contexts)"
        );
    }

    #[test]
    fn stack_argument_pattern_is_safe() {
        // Listing 1's pattern: a stack task struct initialized in one TX.
        let mut m = ModuleBuilder::new();
        let g = m.global("work_queue");
        let mut w = m.func("worker", 0);
        let task = w.alloca();
        w.tx_begin();
        let init = w.store(task); // taskPtr->op = ...
        let gq = w.global_addr(g);
        let publish = w.store_ptr(gq, task); // enqueue into shared queue
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let c = classify(&module);
        // The task escapes into the queue → shared → its stores unsafe.
        assert!(!c.is_safe(init));
        assert!(!c.is_safe(publish));
    }

    #[test]
    fn non_escaping_stack_object_is_safe() {
        let mut m = ModuleBuilder::new();
        let mut w = m.func("worker", 0);
        let local = w.alloca();
        w.tx_begin();
        let init = w.store(local);
        let use_ = w.load(local);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let c = classify(&module);
        assert!(c.is_safe(init), "defined-before-use stack store");
        assert!(c.is_safe(use_), "thread-private stack load");
    }
}
