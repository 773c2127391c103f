//! Genome: gene sequencing by segment deduplication and overlap matching.
//!
//! Phase 1 deduplicates DNA segments into a shared chained hash table
//! (transactions insert a batch of segments read from the thread's
//! partition). Phase 2 matches overlaps non-transactionally. Phase 3 links
//! matched segments into the result sequence (moderate transactions over a
//! shared chain). Runs on 4 threads (§V: poor scalability beyond that).
//!
//! The paper's static pass finds *nothing* safe in genome (Fig. 5): the
//! segment partitions are carved out of one shared input buffer (so escape
//! analysis sees them as shared), and hash-table nodes come from a shared
//! preallocated pool. Dynamically, though, partition pages are only ever
//! touched by their owner → `⟨private,*⟩` → HinTM-dyn classifies the batch
//! reads safe, which is where genome's gains come from.

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
    segment_load: SiteId,
    bucket: SiteId,
    chain: SiteId,
    node_store: SiteId,
    link: SiteId,
    seq_load: SiteId,
    seq_store: SiteId,
}

fn build_module() -> (Sites, Module) {
    let mut m = ModuleBuilder::new();
    let g_table = m.global("segment_table");
    let g_pool = m.global("node_pool");
    let g_seq = m.global("sequence");

    // The worker receives its partition of the shared input buffer.
    let mut w = m.func("sequencer", 1);
    let part = w.param(0);
    w.begin_loop();
    w.tx_begin();
    // One hash-table insert per segment in the batch.
    w.begin_loop_bounded(12);
    let segment_load = w.load(part);
    let tg = w.global_addr(g_table);
    let bucket = w.load(tg);
    // Bucket chain walk.
    w.begin_loop();
    let chain = w.load(tg);
    w.end_block();
    let pool = w.global_addr(g_pool);
    let (node, _) = w.load_ptr(pool); // grab a preallocated node
    w.store(pool); // bump the pool cursor (writes the pool in-region)
    let node_store = w.store(node); // pool node: shared, NOT initializing
    let link = w.store_ptr(tg, node);
    w.end_block();
    w.tx_end();
    // Rare repair path: writes the partition, defeating a read-only proof
    // (the dynamic run never takes it).
    w.begin_if();
    w.store(part);
    w.begin_else();
    w.end_block();
    w.tx_begin();
    let sg = w.global_addr(g_seq);
    // 4-9 chain slots linked per phase-3 transaction.
    w.begin_loop_bounded(9);
    let seq_load = w.load(sg);
    let seq_store = w.store(sg);
    w.end_block();
    w.tx_end();
    w.end_block();
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    let input = main.halloc(); // the shared genome input buffer
    main.store(input);
    main.spawn(worker, vec![input]);
    main.ret();
    let entry = main.finish();
    let module = m.finish(entry, worker);
    (
        Sites {
            segment_load,
            bucket,
            chain,
            node_store,
            link,
            seq_load,
            seq_store,
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
    space: AddressSpace,
    table: SimHashMap,
    partitions: Vec<Addr>, // per-thread slice of the input buffer
    seq_chain: Addr,       // phase-3 sequence links
    rngs: Vec<SmallRng>,
    phase1_left: Vec<usize>,
    phase2_left: Vec<usize>,
    phase3_left: Vec<usize>,
    barrier_done: Vec<u8>, // 0 = before barrier1, 1 = before barrier2, 2 = past
    next_seg: u64,
}

/// The genome workload. See the module docs.
pub(crate) struct Genome {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: Sites,
    safe_sites: HashSet<SiteId>,
    st: Option<State>,
}

impl Genome {
    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_ir();
        Genome {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }

    fn batches_per_thread(&self) -> usize {
        self.scale.scaled(56)
    }
}

const SEGS_PER_BATCH: usize = 12;
const PART_BYTES: u64 = 64 * 1024;

impl Workload for Genome {
    fn name(&self) -> &'static str {
        "genome"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        let table = SimHashMap::with_bucket_stride(&mut space, 256, 32, 64);
        // One shared input buffer, partitioned by thread: pages are only
        // ever touched by their owning thread at runtime.
        let input = space.alloc_global_page_aligned(self.threads as u64 * PART_BYTES);
        let partitions = (0..self.threads)
            .map(|t| input.offset(t as u64 * PART_BYTES))
            .collect();
        let seq_chain = space.alloc_global(64 * 256);
        let rngs = (0..self.threads).map(|t| thread_rng(seed, t, 5)).collect();
        self.st = Some(State {
            space,
            table,
            partitions,
            seq_chain,
            rngs,
            phase1_left: vec![self.batches_per_thread(); self.threads],
            phase2_left: vec![self.scale.scaled(8); self.threads],
            phase3_left: vec![self.scale.scaled(32); self.threads],
            barrier_done: vec![0; self.threads],
            next_seg: 0,
        });
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let s = self.sites;
        let st = self.st.as_mut().expect("reset before run");
        let t = tid.index();

        // Phase 1: segment deduplication into the shared hash table.
        if st.phase1_left[t] > 0 {
            st.phase1_left[t] -= 1;
            let mut rec = Recorder::new();
            let hm_sites = HashMapSites {
                bucket: s.bucket,
                traverse: s.chain,
                node_init: s.node_store,
                link: s.link,
            };
            for k in 0..SEGS_PER_BATCH {
                // Read the segment from the thread's partition.
                let off = st.rngs[t].gen_range(0..(PART_BYTES / 64)) * 64;
                rec.load(st.partitions[t].offset(off), s.segment_load);
                rec.compute(8);
                // Mostly-unique keys so the table keeps growing; some
                // duplicates to exercise probe-only paths. Keys encode the
                // owning thread so probes can dereference the segment data.
                let key = if k % 4 == 0 {
                    (st.rngs[t].gen_range(0..st.next_seg.max(1)) << 3) | t as u64
                } else {
                    st.next_seg += 1;
                    (st.next_seg << 3) | t as u64
                };
                let space = &mut st.space;
                let partitions = &st.partitions;
                let nthreads = partitions.len() as u64;
                st.table
                    .insert_with(key, key, tid, space, &mut rec, hm_sites, |sink, vk| {
                        // Key comparison dereferences the stored segment string,
                        // which lives in the *inserting* thread's partition.
                        let owner = (vk % nthreads) as usize;
                        let off = ((vk >> 3) * 64) % PART_BYTES;
                        sink.load(partitions[owner].offset(off), s.segment_load);
                    });
            }
            rec.compute(25);
            return Some(Section::Tx(rec.into_body()));
        }
        if st.barrier_done[t] == 0 {
            st.barrier_done[t] = 1;
            return Some(Section::Barrier);
        }

        // Phase 2: private overlap matching (non-transactional).
        if st.phase2_left[t] > 0 {
            st.phase2_left[t] -= 1;
            let mut rec = Recorder::new();
            for _ in 0..12 {
                let off = st.rngs[t].gen_range(0..(PART_BYTES / 64)) * 64;
                rec.load(st.partitions[t].offset(off), s.segment_load);
                rec.compute(20);
            }
            return Some(Section::NonTx(rec.into_ops()));
        }
        if st.barrier_done[t] == 1 {
            st.barrier_done[t] = 2;
            return Some(Section::Barrier);
        }

        // Phase 3: link matched segments into the shared sequence.
        if st.phase3_left[t] > 0 {
            st.phase3_left[t] -= 1;
            let mut rec = Recorder::new();
            let links = 4 + st.rngs[t].gen_range(0..6);
            for _ in 0..links {
                let slot = st.rngs[t].gen_range(0..256u64);
                rec.load(st.seq_chain.offset(slot * 64), s.seq_load);
                rec.store(st.seq_chain.offset(slot * 64), s.seq_store);
                rec.compute(10);
            }
            return Some(Section::Tx(rec.into_body()));
        }
        None
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
        // Every site the paper reports unsafe for genome (Fig. 5: 0%).
        for site in [
            sites.segment_load,
            sites.bucket,
            sites.chain,
            sites.node_store,
            sites.link,
            sites.seq_load,
            sites.seq_store,
        ] {
            assert!(
                !safe.contains(&site),
                "genome static must be empty, {site} was safe"
            );
        }
    }

    #[test]
    fn phases_complete_with_barriers() {
        let mut w = Genome::new(Scale::Sim, 4);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let expected_tx = 4 * (56 + 32);
        assert_eq!(r.commits + r.fallback_commits, expected_tx as u64);
    }

    #[test]
    fn baseline_has_capacity_aborts_dyn_reduces_them() {
        let mut w = Genome::new(Scale::Sim, 4);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 1);
        assert!(
            base.aborts_of(AbortKind::Capacity) > 0,
            "phase-1 batches exceed P8"
        );
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
        let mut w = Genome::new(Scale::Sim, 4);
        let a = Simulator::new(SimConfig::default()).run(&mut w, 2);
        let b = Simulator::new(SimConfig::default()).run(&mut w, 2);
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
