//! Vacation: a travel-reservation system (STAMP's OLTP-style workload).
//!
//! Four shared ordered maps (cars, flights, rooms, customers) implemented
//! as treaps over simulated memory. A transaction queries a handful of
//! tables (root-to-leaf pointer chases), builds a private itinerary on the
//! stack, and reserves the best options (in-place value updates plus
//! occasional structural inserts). Footprints sit just around the P8
//! buffer's 64 blocks, so a small population of transactions capacity-
//! aborts (Fig. 6d: ~2%) — and removing the few statically-safe stack
//! blocks pulls a disproportionate share of them back under the limit
//! (§VI-A's vacation discussion).
//!
//! Vacation is also the page-mode pathology: table nodes are read-shared
//! by everyone and sporadically written, so pages keep crossing the
//! safe→unsafe boundary (§VI-B).

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
    scratch_store: SiteId,
    scratch_load: SiteId,
    traverse: SiteId,
    node_init: SiteId,
    link: SiteId,
    update: SiteId,
}

fn build_module(scale: Scale) -> (Sites, Module) {
    let mut m = ModuleBuilder::new();
    // Three reservation treaps plus the customer table, 48 B nodes each;
    // sized with headroom for nodes inserted during the run. The size
    // bounds how many table blocks a single transaction can touch.
    let nodes = 4 * scale.scaled(512) as u64;
    let g_tables = m.global_sized("manager_tables", 2 * nodes * 48);

    let mut w = m.func("client_run", 0);
    let scratch = w.alloca_sized(256); // itinerary buffer on the stack
    w.begin_loop();
    w.tx_begin();
    // Build the itinerary: defined first, one store per itinerary block.
    w.begin_loop_bounded(4);
    let scratch_store = w.store(scratch);
    w.end_block();
    let tg = w.global_addr(g_tables);
    // One treap traversal per queried item.
    w.begin_loop();
    let traverse = w.load(tg);
    let scratch_load = w.load(scratch);
    w.end_block();
    let node = w.halloc_sized(48); // new reservation entry
    let node_init = w.store(node);
    // Publishing and the balance updates touch a chain of table nodes.
    w.begin_loop();
    let link = w.store_ptr(tg, node);
    let update = w.store(tg);
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
            scratch_store,
            scratch_load,
            traverse,
            node_init,
            link,
            update,
        },
        module,
    )
}

/// The kernel's IR module, as fed to the classifier (for audit tooling).
/// Table sizes depend on the scale.
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
    tables: Vec<SimTreap>, // cars, flights, rooms
    customers: SimTreap,
    scratch: Vec<Addr>, // per-thread stack itinerary buffer
    rngs: Vec<SmallRng>,
    remaining: Vec<usize>,
    next_key: u64,
}

/// The vacation workload. See the module docs.
pub(crate) struct Vacation {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: Sites,
    safe_sites: HashSet<SiteId>,
    st: Option<State>,
}

impl Vacation {
    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_ir(scale);
        Vacation {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }

    fn table_size(&self) -> usize {
        self.scale.scaled(512)
    }

    fn txs_per_thread(&self) -> usize {
        self.scale.scaled(260)
    }
}

impl Workload for Vacation {
    fn name(&self) -> &'static str {
        "vacation"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        let n = self.table_size();
        // The manager populates all tables before clients start (main
        // thread's arena, untraced).
        let mk = |space: &mut AddressSpace| {
            let mut t = SimTreap::new(48);
            for k in 0..n as u64 {
                t.insert(
                    k,
                    100,
                    ThreadId(0),
                    space,
                    &mut NullSink,
                    TreapSites::uniform(SiteId::UNKNOWN),
                );
            }
            t
        };
        let tables = vec![mk(&mut space), mk(&mut space), mk(&mut space)];
        let customers = mk(&mut space);
        let scratch = (0..self.threads)
            .map(|t| space.stack_push(ThreadId(t as u32), 256))
            .collect();
        let rngs = (0..self.threads).map(|t| thread_rng(seed, t, 4)).collect();
        let remaining = vec![self.txs_per_thread(); self.threads];
        self.st = Some(State {
            space,
            tables,
            customers,
            scratch,
            rngs,
            remaining,
            next_key: n as u64,
        })
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let s = self.sites;
        let st = self.st.as_mut().expect("reset before run");
        let t = tid.index();
        if st.remaining[t] == 0 {
            return None;
        }
        st.remaining[t] -= 1;
        let n = st.tables[0].len() as u64;
        let treap_sites = TreapSites {
            traverse: s.traverse,
            node_init: s.node_init,
            link: s.link,
        };
        // Value updates store through a distinct site (reservation writes).
        let upd_sites = TreapSites {
            traverse: s.traverse,
            node_init: s.node_init,
            link: s.update,
        };

        let mut rec = Recorder::new();
        let action: u32 = st.rngs[t].gen_range(0..100);
        if action < 88 {
            // MAKE_RESERVATION: query tables, build the stack itinerary,
            // reserve the chosen options.
            // Large inputs (P8S/L1TM experiments) shop across many more
            // offers per transaction, inflating readsets well past the
            // buffer so the signature does real work.
            let (heavy_pct, heavy_base, heavy_span, norm_base, norm_span) = match self.scale {
                Scale::Sim => (7, 6, 4, 1, 3),
                Scale::Large => (30, 12, 8, 3, 5),
            };
            let heavy = st.rngs[t].gen_range(0..100) < heavy_pct;
            let nq = if heavy {
                heavy_base + st.rngs[t].gen_range(0..heavy_span) // long shopping TXs
            } else {
                norm_base + st.rngs[t].gen_range(0..norm_span)
            };
            // Itinerary scratch: initializing stores across 4 blocks.
            for b in 0..4u64 {
                rec.store(st.scratch[t].offset(b * 64), s.scratch_store);
            }
            for q in 0..nq {
                let table = (q + t) % 3;
                let key = st.rngs[t].gen_range(0..n);
                st.tables[table].get(key, &mut rec, treap_sites);
                rec.load(st.scratch[t].offset((q as u64 % 4) * 64), s.scratch_load);
                rec.compute(12);
            }
            // Customer lookup + reservation updates. Bookings concentrate
            // on the popular quarter of each table (the rest of the working
            // set stays read-only, as in TPC-C-style skew).
            let cust = st.rngs[t].gen_range(0..n);
            st.customers.get(cust, &mut rec, treap_sites);
            let table = st.rngs[t].gen_range(0..3usize);
            let key = st.rngs[t].gen_range(0..n / 4);
            st.tables[table].update(key, 99, &mut rec, upd_sites);
            st.customers.update(cust % (n / 4), 1, &mut rec, upd_sites);
        } else if action < 94 {
            // DELETE_CUSTOMER: read the customer, release a reservation.
            let cust = st.rngs[t].gen_range(0..n);
            st.customers.get(cust, &mut rec, treap_sites);
            let table = st.rngs[t].gen_range(0..3usize);
            let key = st.rngs[t].gen_range(0..n / 4);
            st.tables[table].update(key, 101, &mut rec, upd_sites);
        } else {
            // UPDATE_TABLES: structural insert (new offer) + price update.
            let table = st.rngs[t].gen_range(0..3usize);
            st.next_key += 1;
            let key = st.next_key;
            let space = &mut st.space;
            st.tables[table].insert(key, 100, tid, space, &mut rec, treap_sites);
            let old = st.rngs[t].gen_range(0..n / 4);
            st.tables[table].update(old, 97, &mut rec, upd_sites);
        }
        rec.compute(30);
        Some(Section::Tx(rec.into_body()))
    }

    fn static_safe_sites(&self) -> HashSet<SiteId> {
        self.safe_sites.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_htm::HtmKind;
    use hintm_sim::{HintMode, SimConfig, Simulator};
    use hintm_types::AbortKind;

    #[test]
    fn classification_matches_paper_expectations() {
        let (sites, safe) = build_ir(Scale::Sim);
        assert!(safe.contains(&sites.scratch_store), "stack itinerary init");
        assert!(safe.contains(&sites.scratch_load), "stack itinerary reads");
        assert!(
            safe.contains(&sites.node_init),
            "TX-allocated reservation entry"
        );
        assert!(!safe.contains(&sites.traverse), "shared treap traversal");
        assert!(!safe.contains(&sites.link));
        assert!(!safe.contains(&sites.update));
    }

    #[test]
    fn a_small_fraction_of_txs_capacity_aborts() {
        let mut w = Vacation::new(Scale::Sim, 8);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let total = r.commits + r.fallback_commits;
        assert_eq!(total, 8 * 260);
        let cap = r.aborts_of(AbortKind::Capacity);
        assert!(cap > 0, "vacation should have some capacity aborts");
        assert!(
            (cap as f64) < 0.25 * total as f64,
            "but only a small fraction ({cap} of {total})"
        );
    }

    #[test]
    fn static_hints_reduce_capacity_aborts() {
        let mut w = Vacation::new(Scale::Sim, 8);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let st = Simulator::new(SimConfig::default().hint_mode(HintMode::Static)).run(&mut w, 1);
        assert!(
            st.aborts_of(AbortKind::Capacity) < base.aborts_of(AbortKind::Capacity),
            "st {} < base {}",
            st.aborts_of(AbortKind::Capacity),
            base.aborts_of(AbortKind::Capacity)
        );
    }

    #[test]
    fn dynamic_mode_pays_page_mode_costs() {
        let mut w = Vacation::new(Scale::Sim, 8);
        let full = Simulator::new(SimConfig::default().hint_mode(HintMode::Full)).run(&mut w, 1);
        assert!(
            full.aborts_of(AbortKind::PageMode) > 0,
            "vacation is the page-mode outlier"
        );
        assert!(full.page_mode_cycles > 0);
    }

    #[test]
    fn infcap_removes_all_capacity_aborts() {
        let mut w = Vacation::new(Scale::Sim, 8);
        let inf = Simulator::new(SimConfig::with_htm(HtmKind::InfCap)).run(&mut w, 1);
        assert_eq!(inf.aborts_of(AbortKind::Capacity), 0);
    }
}
