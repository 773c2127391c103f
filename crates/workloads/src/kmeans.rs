//! Kmeans: iterative clustering with tiny transactions.
//!
//! Each point assignment runs non-transactionally over the thread's private
//! partition; the accumulation into the shared centroid table is a tiny
//! transaction (a couple of cache blocks). Kmeans never exceeds any HTM's
//! capacity (§II-B: "applications like kmeans only use tiny transactions"),
//! so it calibrates the zero-capacity-abort end of every figure.

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
    point_load: SiteId,
    centroid_load: SiteId,
    centroid_store: SiteId,
}

fn build_module() -> (Sites, Module) {
    let mut m = ModuleBuilder::new();
    // 12 centroid rows of 64 B each: the whole table is 12 cache blocks.
    let g_centroids = m.global_sized("centroids", CLUSTERS as u64 * 64);

    let mut w = m.func("work", 0);
    let points = w.halloc(); // private partition
    w.begin_loop();
    w.tx_begin();
    let point_load = w.load(points); // the point read is part of the TX
    let cg = w.global_addr(g_centroids);
    let centroid_load = w.load(cg);
    let centroid_store = w.store(cg);
    w.tx_end();
    w.end_block();
    w.free(points);
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    main.spawn(worker, vec![]);
    main.ret();
    let entry = main.finish();
    let module = m.finish(entry, worker);
    (
        Sites {
            point_load,
            centroid_load,
            centroid_store,
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
    points: Vec<SimArray>,
    centroids: SimArray,
    rngs: Vec<SmallRng>,
    remaining: Vec<usize>,
}

/// The kmeans workload. See the module docs.
pub struct Kmeans {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: Sites,
    safe_sites: HashSet<SiteId>,
    st: Option<State>,
}

const CLUSTERS: usize = 12;

impl Kmeans {
    /// Creates the workload for `threads` threads.
    pub fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_ir();
        Kmeans {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }

    fn points_per_thread(&self) -> usize {
        self.scale.scaled(800)
    }
}

impl Workload for Kmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        // One 64 B row per centroid: accumulators + count share a block.
        let centroids = SimArray::new_global(&mut space, CLUSTERS, 64);
        let points = (0..self.threads)
            .map(|t| {
                SimArray::new_heap(&mut space, ThreadId(t as u32), self.points_per_thread(), 32)
            })
            .collect();
        let rngs = (0..self.threads).map(|t| thread_rng(seed, t, 2)).collect();
        let remaining = vec![self.points_per_thread(); self.threads];
        self.st = Some(State {
            points,
            centroids,
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

        // Per point: read its features, pick the nearest centroid (modelled
        // as compute), then accumulate into the shared centroid row — the
        // whole update is one tiny transaction, as in STAMP.
        let cluster = st.rngs[t].gen_range(0..CLUSTERS);
        let mut rec = Recorder::new();
        st.points[t].read(i, &mut rec, s.point_load);
        rec.compute(40);
        st.centroids
            .fetch_add(cluster, 1, &mut rec, s.centroid_load, s.centroid_store);
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
    fn classification_marks_private_point_loads_safe() {
        let (sites, safe) = build_ir();
        assert!(safe.contains(&sites.point_load));
        assert!(!safe.contains(&sites.centroid_load));
        assert!(!safe.contains(&sites.centroid_store));
    }

    #[test]
    fn no_capacity_aborts_ever() {
        let mut w = Kmeans::new(Scale::Sim, 8);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        assert_eq!(r.aborts_of(AbortKind::Capacity), 0);
        assert_eq!(r.commits + r.fallback_commits, 8 * 800);
    }

    #[test]
    fn centroid_contention_causes_some_conflicts() {
        let mut w = Kmeans::new(Scale::Sim, 8);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        assert!(
            r.aborts_of(AbortKind::Conflict) > 0,
            "shared accumulators must collide"
        );
    }

    #[test]
    fn deterministic() {
        let mut w = Kmeans::new(Scale::Sim, 4);
        let a = Simulator::new(SimConfig::default()).run(&mut w, 5);
        let b = Simulator::new(SimConfig::default()).run(&mut w, 5);
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
