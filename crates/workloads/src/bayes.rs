//! Bayes: Bayesian network structure learning.
//!
//! Each transaction scores a candidate dependency by querying the AD-tree
//! (a large read-only statistics structure) many times, keeps partial
//! scores in a small thread-private buffer, and commits the chosen edge
//! into the shared network graph.
//!
//! The AD-tree is the §III-B motivating case for dynamic classification:
//! it is *in fact* read-only during learning, but the kernel shares a
//! pointer path with a writable scratch cache, so the static pass cannot
//! prove it (bayes static ≈ 2%, Fig. 5). At runtime its pages settle into
//! `⟨shared,ro⟩` and the bulk of every transaction's reads become safe.

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
    adtree_load: SiteId,
    score_store: SiteId,
    score_load: SiteId,
    graph_traverse: SiteId,
    graph_node_init: SiteId,
    graph_link: SiteId,
}

fn build_module(scale: Scale) -> (Sites, Module) {
    let mut m = ModuleBuilder::new();
    // 4096 statistics rows of 64 B each.
    let g_adtree = m.global_sized("adtree", 4096 * 64);
    // Treap of 48 B nodes; initial edges plus one insert per transaction
    // across up to 16 threads.
    let edges = 192 + 16 * scale.scaled(60) as u64;
    let g_graph = m.global_sized("network", edges * 48);

    let mut w = m.func("learn", 0);
    w.begin_loop();
    w.tx_begin();
    let score = w.alloca_sized(192); // per-TX partial score buffer
                                     // One store per partial-score block.
    w.begin_loop_bounded(3);
    let score_store = w.store(score);
    w.end_block();
    // The query helper dereferences either the AD-tree or (on the cached
    // path) a node of the mutable network — the merged points-to set
    // blocks a read-only proof for the AD-tree, exactly the conservatism
    // that keeps bayes' static fraction at ~2% (Fig. 5).
    let at = w.global_addr(g_adtree);
    let gg = w.global_addr(g_graph);
    w.begin_if();
    let q1 = w.gep(at);
    w.begin_else();
    let q2 = w.gep(gg);
    w.end_block();
    // Model the φ(q1, q2) join: both feed the same load via a store/load
    // through a local cell.
    let cell = w.alloca();
    w.store_ptr(cell, q1);
    w.store_ptr(cell, q2);
    let (qptr, _) = w.load_ptr(cell);
    // 20-79 statistics queries per transaction.
    w.begin_loop_bounded(80);
    let adtree_load = w.load(qptr);
    w.end_block();
    // One load per partial-score block.
    w.begin_loop_bounded(3);
    let score_load = w.load(score);
    w.end_block();
    // Network probe: a root-to-leaf treap traversal.
    w.begin_loop();
    let graph_traverse = w.load(gg);
    w.end_block();
    let edge = w.halloc_sized(48);
    let graph_node_init = w.store(edge);
    // Edge insertion rebalances a chain of network nodes.
    w.begin_loop();
    let graph_link = w.store_ptr(gg, edge);
    w.end_block();
    w.tx_end();
    w.end_block();
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    let at = main.global_addr(g_adtree);
    main.store(at); // AD-tree built before the parallel phase
    main.spawn(worker, vec![]);
    main.ret();
    let entry = main.finish();
    let module = m.finish(entry, worker);
    (
        Sites {
            adtree_load,
            score_store,
            score_load,
            graph_traverse,
            graph_node_init,
            graph_link,
        },
        module,
    )
}

/// The kernel's IR module, as fed to the classifier (for audit tooling).
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
    adtree: Addr, // read-only statistics table
    adtree_rows: u64,
    graph: SimTreap,
    score_bufs: Vec<Addr>,
    rngs: Vec<SmallRng>,
    remaining: Vec<usize>,
    next_edge: u64,
}

/// The bayes workload. See the module docs.
pub(crate) struct Bayes {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: Sites,
    safe_sites: HashSet<SiteId>,
    st: Option<State>,
}

impl Bayes {
    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_ir(scale);
        Bayes {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }

    fn txs_per_thread(&self) -> usize {
        self.scale.scaled(60)
    }
}

impl Workload for Bayes {
    fn name(&self) -> &'static str {
        "bayes"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        let adtree_rows = 4096u64;
        let adtree = space.alloc_global_page_aligned(adtree_rows * 64);
        let mut graph = SimTreap::new(48);
        for k in 0..192u64 {
            graph.insert(
                k,
                0,
                ThreadId(0),
                &mut space,
                &mut NullSink,
                TreapSites::uniform(SiteId::UNKNOWN),
            );
        }
        let score_bufs = (0..self.threads)
            .map(|t| space.stack_push(ThreadId(t as u32), 192))
            .collect();
        let rngs = (0..self.threads).map(|t| thread_rng(seed, t, 8)).collect();
        self.st = Some(State {
            space,
            adtree,
            adtree_rows,
            graph,
            score_bufs,
            rngs,
            remaining: vec![self.txs_per_thread(); self.threads],
            next_edge: 192,
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
        let treap_sites = TreapSites {
            traverse: s.graph_traverse,
            node_init: s.graph_node_init,
            link: s.graph_link,
        };

        let mut rec = Recorder::new();
        // Partial-score buffer: 3 blocks, defined before use.
        for b in 0..3u64 {
            rec.store(st.score_bufs[t].offset(b * 64), s.score_store);
        }
        // AD-tree queries dominate the read set.
        let queries = 20 + st.rngs[t].gen_range(0..60usize);
        for _ in 0..queries {
            let row = st.rngs[t].gen_range(0..st.adtree_rows);
            rec.load(st.adtree.offset(row * 64), s.adtree_load);
            rec.compute(9);
        }
        for b in 0..3u64 {
            rec.load(st.score_bufs[t].offset(b * 64), s.score_load);
        }
        // Commit the chosen edge into the shared network.
        let n = st.graph.len() as u64;
        let probe = st.rngs[t].gen_range(0..n);
        st.graph.get(probe, &mut rec, treap_sites);
        st.next_edge += 1;
        let key = st.next_edge;
        let space = &mut st.space;
        st.graph.insert(key, 1, tid, space, &mut rec, treap_sites);
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
    fn adtree_loads_are_not_statically_provable() {
        let (sites, safe) = build_ir(Scale::Sim);
        assert!(
            !safe.contains(&sites.adtree_load),
            "the cache-aliased AD-tree pointer defeats the static pass"
        );
        assert!(
            safe.contains(&sites.score_store),
            "score buffer init is safe"
        );
        assert!(safe.contains(&sites.score_load));
        assert!(!safe.contains(&sites.graph_traverse));
    }

    #[test]
    fn capacity_aborts_present_at_baseline() {
        let mut w = Bayes::new(Scale::Sim, 8);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        assert!(r.aborts_of(AbortKind::Capacity) > 0);
        assert_eq!(r.commits + r.fallback_commits, 8 * 60);
    }

    #[test]
    fn dynamic_classification_rescues_adtree_reads() {
        let mut w = Bayes::new(Scale::Sim, 8);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let dynr = Simulator::new(SimConfig::default().hint_mode(HintMode::Dynamic)).run(&mut w, 1);
        let red = dynr.abort_reduction_vs(&base, AbortKind::Capacity);
        assert!(
            red > 0.5,
            "AD-tree pages settle shared-ro; got reduction {red:.2}"
        );
        // Static alone is nearly useless here (3 scratch blocks only).
        let str_ = Simulator::new(SimConfig::default().hint_mode(HintMode::Static)).run(&mut w, 1);
        let red_st = str_.abort_reduction_vs(&base, AbortKind::Capacity);
        assert!(red_st < red, "static {red_st:.2} < dynamic {red:.2}");
    }

    #[test]
    fn deterministic() {
        let mut w = Bayes::new(Scale::Sim, 4);
        let a = Simulator::new(SimConfig::default()).run(&mut w, 6);
        let b = Simulator::new(SimConfig::default()).run(&mut w, 6);
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
