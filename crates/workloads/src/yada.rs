//! Yada: Delaunay mesh refinement (Ruppert's algorithm).
//!
//! Each transaction locates a bad triangle in the shared mesh index, gathers
//! its retriangulation cavity (a cluster of neighboring elements), retires
//! the old elements and inserts the new ones. Cavities of 10–30 elements
//! produce the medium-large read/write sets that give yada its capacity
//! aborts. Runs on 4 threads (§V).
//!
//! Statically nothing is provable (the mesh and its element pool are
//! shared); dynamically, element reads stay safe only until the page
//! holding them is first written by another thread.

use crate::common::{thread_rng, Recorder, Scale};
use hintm_ir::{classify, Module, ModuleBuilder};
use hintm_mem::ds::{SimTreap, TreapSites};
use hintm_mem::{AccessSink, AddressSpace, NullSink};
use hintm_sim::{Section, Workload};
use hintm_types::rng::SmallRng;
use hintm_types::{Addr, AllocConfig, SiteId, ThreadId};
use std::collections::HashSet;

#[derive(Clone, Copy, Debug)]
struct Sites {
    mesh_traverse: SiteId,
    elem_load: SiteId,
    elem_store: SiteId,
    link: SiteId,
    work_load: SiteId,
    work_store: SiteId,
}

fn build_module(scale: Scale) -> (Sites, Module) {
    let elems = scale.scaled(768) as u64;
    let mut m = ModuleBuilder::new();
    // Treap of 48 B nodes; doubled for nodes inserted during refinement.
    let g_mesh = m.global_sized("mesh_index", 2 * elems * 48);
    // Element records, 64 B each; the pool is 4x the initial mesh.
    let g_elems = m.global_sized("element_pool", 4 * elems * 64);
    let g_work = m.global("work_heap");

    let mut w = m.func("refine", 0);
    w.begin_loop();
    w.tx_begin();
    let wg = w.global_addr(g_work);
    let work_load = w.load(wg);
    let work_store = w.store(wg);
    let mg = w.global_addr(g_mesh);
    let eg = w.global_addr(g_elems);
    // Cavity gathering: index traversals plus element-record reads, one
    // iteration per visited mesh node; retire/insert writes ride the same
    // walk (rotations touch a chain of index nodes).
    w.begin_loop();
    let mesh_traverse = w.load(mg);
    let elem_load = w.load(eg);
    let elem_store = w.store(eg);
    let link = w.store_ptr(mg, eg);
    w.end_block();
    w.tx_end();
    w.end_block();
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    main.spawn(worker, vec![]);
    main.ret();
    let entry = main.finish();
    let module = m.finish(entry, worker);
    (
        Sites {
            mesh_traverse,
            elem_load,
            elem_store,
            link,
            work_load,
            work_store,
        },
        module,
    )
}

/// The kernel's IR module, as fed to the classifier (for audit tooling).
/// Mesh and pool sizes depend on the scale.
pub(crate) fn ir_module(scale: Scale) -> Module {
    build_module(scale).1
}

fn build_ir(scale: Scale) -> (Sites, HashSet<SiteId>) {
    let (sites, module) = build_module(scale);
    let c = classify(&module);
    (sites, c.safe_sites().iter().copied().collect())
}

struct State {
    space: AddressSpace,
    mesh: SimTreap,
    elem_pool: Addr, // element records, 64 B each
    work_ctrl: Addr,
    rngs: Vec<SmallRng>,
    remaining: Vec<usize>,
    next_elem: u64,
    pool_len: u64,
    refine_pending: Vec<bool>,
}

/// The yada workload. See the module docs.
pub(crate) struct Yada {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: Sites,
    safe_sites: HashSet<SiteId>,
    st: Option<State>,
}

impl Yada {
    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_ir(scale);
        Yada {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }

    fn initial_elems(&self) -> usize {
        self.scale.scaled(768)
    }

    fn refinements_per_thread(&self) -> usize {
        self.scale.scaled(90)
    }
}

impl Workload for Yada {
    fn name(&self) -> &'static str {
        "yada"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        let mut mesh = SimTreap::new(48);
        let n = self.initial_elems();
        for k in 0..n as u64 {
            mesh.insert(
                k,
                k,
                ThreadId(0),
                &mut space,
                &mut NullSink,
                TreapSites::uniform(SiteId::UNKNOWN),
            );
        }
        let pool_len = (n * 4) as u64;
        let elem_pool = space.alloc_global_page_aligned(pool_len * 64);
        let work_ctrl = space.alloc_global(64);
        let rngs = (0..self.threads).map(|t| thread_rng(seed, t, 7)).collect();
        self.st = Some(State {
            space,
            mesh,
            elem_pool,
            work_ctrl,
            rngs,
            remaining: vec![self.refinements_per_thread(); self.threads],
            next_elem: n as u64,
            pool_len,
            refine_pending: vec![false; self.threads],
        });
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let s = self.sites;
        let st = self.st.as_mut().expect("reset before run");
        let t = tid.index();
        if st.remaining[t] == 0 {
            return None;
        }
        if !st.refine_pending[t] {
            // Pop a bad element from the shared work heap in its own tiny
            // transaction.
            st.refine_pending[t] = true;
            let mut rec = Recorder::new();
            rec.load(st.work_ctrl, s.work_load);
            rec.store(st.work_ctrl, s.work_store);
            rec.compute(8);
            return Some(Section::Tx(rec.into_body()));
        }
        st.refine_pending[t] = false;
        st.remaining[t] -= 1;
        let treap_sites = TreapSites {
            traverse: s.mesh_traverse,
            node_init: s.elem_store,
            link: s.link,
        };

        let mut rec = Recorder::new();
        // Locate it in the mesh index.
        let n = st.mesh.len() as u64;
        let seed_key = st.rngs[t].gen_range(0..n.max(1));
        st.mesh.ceiling(seed_key, &mut rec, treap_sites);

        // Gather the cavity: a cluster of element records.
        let cavity = 14 + st.rngs[t].gen_range(0..30usize);
        let base_slot = st.rngs[t].gen_range(0..st.pool_len);
        for c in 0..cavity {
            let slot = (base_slot + c as u64 * 3) % st.pool_len;
            rec.load(st.elem_pool.offset(slot * 64), s.elem_load);
            rec.compute(12);
        }

        // Retire 2-4 old elements, insert 3-6 new ones.
        let removes = 1 + st.rngs[t].gen_range(0..2usize);
        for r in 0..removes {
            let key = (seed_key + r as u64) % n.max(1);
            let space = &mut st.space;
            st.mesh.remove(key, tid, space, &mut rec, treap_sites);
        }
        let inserts = 2 + st.rngs[t].gen_range(0..2usize);
        for _ in 0..inserts {
            st.next_elem += 1;
            let key = st.next_elem;
            // New element records recycle the pool's first quarter, so
            // most of the pool stays read-only (and dynamically safe).
            let slot = key % (st.pool_len / 4).max(1);
            rec.store(st.elem_pool.offset(slot * 64), s.elem_store);
            let space = &mut st.space;
            st.mesh.insert(key, key, tid, space, &mut rec, treap_sites);
        }
        rec.compute(40);
        Some(Section::Tx(rec.into_body()))
    }

    fn static_safe_sites(&self) -> HashSet<SiteId> {
        self.safe_sites.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_sim::{HintMode, SimConfig, Simulator};
    use hintm_types::AbortKind;

    #[test]
    fn static_classification_finds_nothing_safe() {
        let (sites, safe) = build_ir(Scale::Sim);
        for site in [
            sites.mesh_traverse,
            sites.elem_load,
            sites.elem_store,
            sites.link,
            sites.work_load,
            sites.work_store,
        ] {
            assert!(!safe.contains(&site), "{site} must be unsafe");
        }
    }

    #[test]
    fn cavity_txs_capacity_abort_on_p8() {
        let mut w = Yada::new(Scale::Sim, 4);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        assert!(r.aborts_of(AbortKind::Capacity) > 0);
        assert_eq!(r.commits + r.fallback_commits, 4 * 90 * 2); // pop + refine TXs
    }

    #[test]
    fn dynamic_hints_reduce_capacity_aborts() {
        let mut w = Yada::new(Scale::Sim, 4);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let dynr = Simulator::new(SimConfig::default().hint_mode(HintMode::Dynamic)).run(&mut w, 1);
        assert!(
            dynr.aborts_of(AbortKind::Capacity) < base.aborts_of(AbortKind::Capacity),
            "dyn {} < base {}",
            dynr.aborts_of(AbortKind::Capacity),
            base.aborts_of(AbortKind::Capacity)
        );
    }

    #[test]
    fn deterministic() {
        let mut w = Yada::new(Scale::Sim, 4);
        let a = Simulator::new(SimConfig::default()).run(&mut w, 4);
        let b = Simulator::new(SimConfig::default()).run(&mut w, 4);
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
