//! Intruder: signature-based network intrusion detection.
//!
//! Threads pop packet fragments from a shared queue (tiny, high-conflict
//! transactions), assemble flows in a shared fragment map (moderate
//! transactions whose footprint grows with the flow's fragment count), and
//! run detection over the reassembled flow non-transactionally.
//!
//! Like genome, intruder's static pass finds nothing (map nodes come from
//! a shared pool; the packet buffers are slices of one shared arena), and
//! the dynamic mechanism recovers the per-flow reassembly-buffer reads.

use crate::common::{thread_rng, Recorder, Scale};
use hintm_ir::{classify, Module, ModuleBuilder};
use hintm_mem::ds::{HashMapSites, SimHashMap};
use hintm_mem::{AccessSink, AddressSpace};
use hintm_sim::{Section, Workload};
use hintm_types::rng::SmallRng;
use hintm_types::{Addr, AllocConfig, SiteId, ThreadId};
use std::collections::HashSet;

#[derive(Clone, Copy, Debug)]
struct Sites {
    queue_load: SiteId,
    queue_store: SiteId,
    frag_load: SiteId,
    bucket: SiteId,
    chain: SiteId,
    node_store: SiteId,
    link: SiteId,
    flow_load: SiteId,
}

fn build_module() -> (Sites, Module) {
    let mut m = ModuleBuilder::new();
    let g_queue = m.global("packet_queue");
    let g_map = m.global("fragment_map");
    let g_pool = m.global("node_pool");

    // The worker receives the shared packet arena.
    let mut w = m.func("process_packets", 1);
    let arena = w.param(0);
    w.begin_loop();
    w.tx_begin();
    let qg = w.global_addr(g_queue);
    let queue_load = w.load(qg);
    let queue_store = w.store(qg);
    w.tx_end();
    w.tx_begin();
    // Per-fragment work; a flow-completing transaction repeats it for
    // every reassembled fragment (the capacity spike).
    w.begin_loop();
    let frag_load = w.load(arena);
    let mg = w.global_addr(g_map);
    let bucket = w.load(mg);
    // Bucket chain walk.
    w.begin_loop();
    let chain = w.load(mg);
    w.end_block();
    let pool = w.global_addr(g_pool);
    let (node, _) = w.load_ptr(pool);
    w.store(pool); // bump the pool cursor (writes the pool in-region)
    let node_store = w.store(node);
    let link = w.store_ptr(mg, node);
    w.end_block();
    w.tx_end();
    // Rare rebalance path writes the arena (never taken at runtime).
    w.begin_if();
    w.store(arena);
    w.begin_else();
    w.end_block();
    let flow_load = w.load(arena); // detection scan, non-transactional
    w.end_block();
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    let arena = main.halloc();
    main.store(arena);
    main.spawn(worker, vec![arena]);
    main.ret();
    let entry = main.finish();
    let module = m.finish(entry, worker);
    (
        Sites {
            queue_load,
            queue_store,
            frag_load,
            bucket,
            chain,
            node_store,
            link,
            flow_load,
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

/// A flow being reassembled: fragments arrive across packets popped by
/// different threads; the thread inserting the last fragment performs the
/// whole reassembly inside the same transaction.
struct Flow {
    total: usize,
    inserted: usize,
    /// `(fragment key, payload address)` of fragments inserted so far.
    frags: Vec<(u64, Addr)>,
}

struct State {
    space: AddressSpace,
    map: SimHashMap,
    queue_ctrl: Addr,
    arenas: Vec<Addr>, // per-thread slice of the packet arena
    rngs: Vec<SmallRng>,
    remaining: Vec<usize>,
    pending_flow: Vec<Option<Vec<Addr>>>, // payloads of a completed flow
    insert_pending: Vec<bool>,
    flows: Vec<Flow>,
    next_flow: u64,
    next_key: u64,
}

/// The intruder workload. See the module docs.
pub(crate) struct Intruder {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: Sites,
    safe_sites: HashSet<SiteId>,
    st: Option<State>,
}

const ARENA_BYTES: u64 = 32 * 1024;

impl Intruder {
    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_ir();
        Intruder {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }

    fn packets_per_thread(&self) -> usize {
        self.scale.scaled(200)
    }
}

impl Workload for Intruder {
    fn name(&self) -> &'static str {
        "intruder"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        let map = SimHashMap::with_bucket_stride(&mut space, 128, 32, 64);
        let queue_ctrl = space.alloc_global(64);
        let arena = space.alloc_global_page_aligned(self.threads as u64 * ARENA_BYTES);
        let arenas = (0..self.threads)
            .map(|t| arena.offset(t as u64 * ARENA_BYTES))
            .collect();
        let rngs = (0..self.threads).map(|t| thread_rng(seed, t, 6)).collect();
        let mut st = State {
            space,
            map,
            queue_ctrl,
            arenas,
            rngs,
            remaining: vec![self.packets_per_thread(); self.threads],
            pending_flow: vec![None; self.threads],
            insert_pending: vec![false; self.threads],
            flows: Vec::new(),
            next_flow: 0,
            next_key: 0,
        };
        // A window of in-flight flows shared by all threads.
        for _ in 0..24 {
            let total = 8 + (st.next_flow as usize * 7) % 20;
            st.flows.push(Flow {
                total,
                inserted: 0,
                frags: Vec::new(),
            });
            st.next_flow += 1;
        }
        self.st = Some(st);
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let s = self.sites;
        let st = self.st.as_mut().expect("reset before run");
        let t = tid.index();

        // If the last insert completed a flow, run detection over it
        // (non-transactional scan of the reassembled payloads).
        if let Some(payloads) = st.pending_flow[t].take() {
            let mut rec = Recorder::new();
            for p in payloads {
                rec.load(p, s.flow_load);
                rec.compute(25);
            }
            return Some(Section::NonTx(rec.into_ops()));
        }
        if st.remaining[t] == 0 {
            return None;
        }
        if !st.insert_pending[t] {
            // Pop from the shared packet queue: a tiny, hot TX of its own
            // (STAMP's getPacket), separate from the decoder TX.
            st.insert_pending[t] = true;
            let mut rec = Recorder::new();
            rec.load(st.queue_ctrl, s.queue_load);
            rec.store(st.queue_ctrl, s.queue_store);
            rec.compute(5);
            return Some(Section::Tx(rec.into_body()));
        }
        st.insert_pending[t] = false;
        st.remaining[t] -= 1;

        let hm_sites = HashMapSites {
            bucket: s.bucket,
            traverse: s.chain,
            node_init: s.node_store,
            link: s.link,
        };
        let mut rec = Recorder::new();
        // One fragment of some in-flight flow arrives at this thread: read
        // its payload (this thread's arena slice) and insert it into the
        // shared fragment map.
        let fi = st.rngs[t].gen_range(0..st.flows.len());
        let payload = st.arenas[t].offset(st.rngs[t].gen_range(0..(ARENA_BYTES / 64)) * 64);
        rec.load(payload, s.frag_load);
        st.next_key += 1;
        let key = st.next_key;
        let space = &mut st.space;
        st.map.insert(key, key, tid, space, &mut rec, hm_sites);
        let flow = &mut st.flows[fi];
        flow.inserted += 1;
        flow.frags.push((key, payload));

        if flow.inserted >= flow.total {
            // Final fragment: reassemble the whole flow in this same TX —
            // probe and remove every fragment (map traffic) and read every
            // payload (often in *other* threads' arena slices). This is the
            // footprint spike behind intruder's capacity aborts.
            let frags = std::mem::take(&mut flow.frags);
            let mut payloads = Vec::with_capacity(frags.len());
            for (fkey, fpayload) in frags {
                let space = &mut st.space;
                st.map.remove(fkey, tid, space, &mut rec, hm_sites);
                // Header + payload blocks of the fragment.
                rec.load(fpayload, s.frag_load);
                rec.load(fpayload.offset(64), s.frag_load);
                payloads.push(fpayload);
            }
            st.pending_flow[t] = Some(payloads);
            // Replace with a fresh flow to keep the window full.
            let total = 8 + (st.next_flow as usize * 7) % 20;
            st.flows[fi] = Flow {
                total,
                inserted: 0,
                frags: Vec::new(),
            };
            st.next_flow += 1;
        }
        rec.compute(15);
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
        let (sites, safe) = build_ir();
        for site in [
            sites.queue_load,
            sites.queue_store,
            sites.frag_load,
            sites.bucket,
            sites.chain,
            sites.node_store,
            sites.link,
        ] {
            assert!(!safe.contains(&site), "{site} must be unsafe");
        }
    }

    #[test]
    fn queue_contention_generates_conflicts() {
        let mut w = Intruder::new(Scale::Sim, 8);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        assert!(r.aborts_of(AbortKind::Conflict) > 0);
        assert_eq!(r.commits + r.fallback_commits, 8 * 200 * 2);
    }

    #[test]
    fn dynamic_hints_help_reassembly_txs() {
        let mut w = Intruder::new(Scale::Sim, 8);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let dynr = Simulator::new(SimConfig::default().hint_mode(HintMode::Dynamic)).run(&mut w, 1);
        assert!(
            dynr.aborts_of(AbortKind::Capacity) <= base.aborts_of(AbortKind::Capacity),
            "dyn must not increase capacity aborts"
        );
    }

    #[test]
    fn deterministic() {
        let mut w = Intruder::new(Scale::Sim, 4);
        let a = Simulator::new(SimConfig::default()).run(&mut w, 3);
        let b = Simulator::new(SimConfig::default()).run(&mut w, 3);
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
