//! SSCA2: scalable synthetic graph kernel 1 (graph construction).
//!
//! Threads insert edges of a synthetic power-law graph into a shared
//! adjacency structure. Each insertion is a tiny transaction updating an
//! adjacency-count cell and an edge slot — like kmeans, ssca2 never
//! pressures transactional capacity (§II-B) and anchors the no-capacity
//! end of the evaluation.

use crate::common::{thread_rng, Recorder, Scale};
use hintm_ir::{classify, Module, ModuleBuilder};
use hintm_mem::ds::SimArray;
use hintm_mem::{AccessSink, AddressSpace};
use hintm_sim::{Section, Workload};
use hintm_types::rng::SmallRng;
use hintm_types::{AllocConfig, SiteId, ThreadId};
use std::collections::HashSet;

#[derive(Clone, Copy, Debug)]
struct Sites {
    edge_load: SiteId,
    count_load: SiteId,
    count_store: SiteId,
    slot_store: SiteId,
}

fn build_module() -> (Sites, Module) {
    let mut m = ModuleBuilder::new();
    let g_adj = m.global("adjacency");

    let mut w = m.func("compute_graph", 0);
    let edges = w.halloc(); // private edge list partition
    w.begin_loop();
    w.tx_begin();
    let edge_load = w.load(edges); // the edge read is part of the TX
    let ag = w.global_addr(g_adj);
    let count_load = w.load(ag);
    let count_store = w.store(ag);
    let slot_store = w.store(ag);
    w.tx_end();
    w.end_block();
    w.free(edges);
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    main.spawn(worker, vec![]);
    main.ret();
    let entry = main.finish();
    let module = m.finish(entry, worker);
    (
        Sites {
            edge_load,
            count_load,
            count_store,
            slot_store,
        },
        module,
    )
}

/// The kernel's IR module, as fed to the classifier (for audit tooling).
pub(crate) fn ir_module() -> Module {
    build_module().1
}

fn build_ir() -> (Sites, HashSet<SiteId>) {
    let (sites, module) = build_module();
    let c = classify(&module);
    (sites, c.safe_sites().iter().copied().collect())
}

struct State {
    edges: Vec<SimArray>,
    counts: SimArray,
    slots: SimArray,
    rngs: Vec<SmallRng>,
    remaining: Vec<usize>,
}

/// The ssca2 workload. See the module docs.
pub(crate) struct Ssca2 {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: Sites,
    safe_sites: HashSet<SiteId>,
    st: Option<State>,
}

impl Ssca2 {
    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_ir();
        Ssca2 {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }

    fn num_vertices(&self) -> usize {
        self.scale.scaled(512)
    }

    fn edges_per_thread(&self) -> usize {
        self.scale.scaled(900)
    }
}

impl Workload for Ssca2 {
    fn name(&self) -> &'static str {
        "ssca2"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        let nv = self.num_vertices();
        let counts = SimArray::new_global(&mut space, nv, 8);
        let slots = SimArray::new_global(&mut space, nv * 8, 8);
        let edges = (0..self.threads)
            .map(|t| {
                SimArray::new_heap(&mut space, ThreadId(t as u32), self.edges_per_thread(), 16)
            })
            .collect();
        let rngs = (0..self.threads).map(|t| thread_rng(seed, t, 3)).collect();
        let remaining = vec![self.edges_per_thread(); self.threads];
        self.st = Some(State {
            edges,
            counts,
            slots,
            rngs,
            remaining,
        });
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let s = self.sites;
        let st = self.st.as_mut().expect("reset before run");
        let t = tid.index();
        if st.remaining[t] == 0 {
            return None;
        }
        st.remaining[t] -= 1;
        let i = st.remaining[t];
        let nv = st.counts.len();

        // Power-law-ish endpoint: squash a uniform draw to favor low ids.
        let r: f64 = st.rngs[t].gen_f64();
        let v = ((r * r) * nv as f64) as usize % nv;

        let mut rec = Recorder::new();
        st.edges[t].read(i, &mut rec, s.edge_load);
        rec.compute(15);
        let count = st
            .counts
            .fetch_add(v, 1, &mut rec, s.count_load, s.count_store) as usize;
        let slot = (v * 8 + count % 8).min(st.slots.len() - 1);
        st.slots.write(slot, i as u64, &mut rec, s.slot_store);
        Some(Section::Tx(rec.into_body()))
    }

    fn static_safe_sites(&self) -> HashSet<SiteId> {
        self.safe_sites.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_sim::{SimConfig, Simulator};
    use hintm_types::AbortKind;

    #[test]
    fn classification_marks_private_edge_loads_safe() {
        let (sites, safe) = build_ir();
        assert!(safe.contains(&sites.edge_load));
        assert!(!safe.contains(&sites.count_store));
        assert!(!safe.contains(&sites.slot_store));
    }

    #[test]
    fn tiny_transactions_never_capacity_abort() {
        let mut w = Ssca2::new(Scale::Sim, 8);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        assert_eq!(r.aborts_of(AbortKind::Capacity), 0);
        assert_eq!(r.commits + r.fallback_commits, 8 * 900);
    }

    #[test]
    fn deterministic() {
        let mut w = Ssca2::new(Scale::Sim, 4);
        let a = Simulator::new(SimConfig::default()).run(&mut w, 2);
        let b = Simulator::new(SimConfig::default()).run(&mut w, 2);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.aborts, b.aborts);
    }
}
