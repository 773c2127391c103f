//! TPC-C's two most prevalent queries as transactional workloads (§V):
//! `tpcc-no` (new-order) and `tpcc-p` (payment).
//!
//! Tables are row arrays over simulated memory (64 B rows). New-order reads
//! the warehouse and district rows, looks up 5–15 items in the *read-only*
//! item table (the source of tpcc-no's 18% statically-safe loads, whose
//! high block locality explains why removing them barely moves capacity
//! aborts, §VI-C), reads and updates per-item stock rows, and inserts the
//! order and its order lines. Payment updates the hot warehouse/district
//! balances (hence ~85% of its aborts are conflicts) and the customer row,
//! with the occasional by-name scan providing the capacity tail.

use crate::common::{thread_rng, Recorder, Scale};
use hintm_ir::{classify, Module, ModuleBuilder};
use hintm_mem::{AccessSink, AddressSpace};
use hintm_sim::{Section, Workload};
use hintm_types::rng::SmallRng;
use hintm_types::{Addr, AllocConfig, SiteId, ThreadId};
use std::collections::HashSet;

/// Shared table geometry.
const ITEMS: u64 = 512;
const STOCK: u64 = 4096;
const CUSTOMERS: u64 = 1024;
const DISTRICTS: u64 = 10;

#[derive(Clone, Copy, Debug)]
struct NoSites {
    wh_load: SiteId,
    dist_load: SiteId,
    dist_store: SiteId,
    item_load: SiteId,
    stock_load: SiteId,
    stock_store: SiteId,
    order_store: SiteId,
    cust_load: SiteId,
    scratch_store: SiteId,
    scratch_load: SiteId,
}

fn build_no_module() -> (NoSites, Module) {
    let mut m = ModuleBuilder::new();
    let g_wh = m.global_sized("warehouse", 64);
    let g_dist = m.global_sized("district", DISTRICTS * 64);
    let g_item = m.global_sized("item", ITEMS * 64);
    let g_stock = m.global_sized("stock", STOCK * 128);
    let g_order = m.global_sized("orders", 64 * 4096);
    let g_cust = m.global_sized("customer", CUSTOMERS * 64);

    let mut w = m.func("new_order", 0);
    let scratch = w.alloca_sized(256); // order-line staging buffer
    w.begin_loop();
    w.tx_begin();
    // Staging buffer: one store per staged block.
    w.begin_loop_bounded(2);
    let scratch_store = w.store(scratch);
    w.end_block();
    let whg = w.global_addr(g_wh);
    let wh_load = w.load(whg);
    let dg = w.global_addr(g_dist);
    let dist_load = w.load(dg);
    let dist_store = w.store(dg);
    let ig = w.global_addr(g_item);
    let sg = w.global_addr(g_stock);
    // 5-15 order lines; the stock row spans two blocks, so the stock
    // loads run at twice the line count.
    w.begin_loop_bounded(30);
    let item_load = w.load(ig); // item table: read-only in region → safe
    let stock_load = w.load(sg);
    let stock_store = w.store(sg);
    w.end_block();
    w.begin_loop_bounded(2);
    let scratch_load = w.load(scratch);
    w.end_block();
    let og = w.global_addr(g_order);
    // Order header plus one order-line row per line item.
    w.begin_loop_bounded(16);
    let order_store = w.store(og);
    w.end_block();
    let cg = w.global_addr(g_cust);
    let cust_load = w.load(cg);
    w.tx_end();
    w.end_block();
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    let ig = main.global_addr(g_item);
    main.store(ig); // item table populated before the run
    main.spawn(worker, vec![]);
    main.ret();
    let entry = main.finish();
    let module = m.finish(entry, worker);
    (
        NoSites {
            wh_load,
            dist_load,
            dist_store,
            item_load,
            stock_load,
            stock_store,
            order_store,
            cust_load,
            scratch_store,
            scratch_load,
        },
        module,
    )
}

/// The new-order kernel's IR module, exposed for audit tooling.
pub(crate) fn no_ir_module() -> Module {
    build_no_module().1
}

fn build_no_ir() -> (NoSites, HashSet<SiteId>) {
    let (sites, module) = build_no_module();
    let c = classify(&module);
    (sites, c.safe_sites().iter().copied().collect())
}

#[derive(Clone, Copy, Debug)]
struct PaySites {
    wh_load: SiteId,
    wh_store: SiteId,
    dist_load: SiteId,
    dist_store: SiteId,
    cust_load: SiteId,
    cust_store: SiteId,
    hist_store: SiteId,
    scratch_store: SiteId,
    scratch_load: SiteId,
}

fn build_pay_module() -> (PaySites, Module) {
    let mut m = ModuleBuilder::new();
    let g_wh = m.global_sized("warehouse", 64);
    let g_dist = m.global_sized("district", DISTRICTS * 64);
    let g_cust = m.global_sized("customer", CUSTOMERS * 64);
    let g_hist = m.global_sized("history", 16 * 4096);

    let mut w = m.func("payment", 0);
    let scratch = w.alloca_sized(256);
    w.begin_loop();
    w.tx_begin();
    let scratch_store = w.store(scratch);
    let whg = w.global_addr(g_wh);
    let wh_load = w.load(whg);
    let wh_store = w.store(whg);
    let dg = w.global_addr(g_dist);
    let dist_load = w.load(dg);
    let dist_store = w.store(dg);
    let cg = w.global_addr(g_cust);
    // By-name selection scans up to 78 customer rows.
    w.begin_loop_bounded(78);
    let cust_load = w.load(cg);
    w.end_block();
    let cust_store = w.store(cg);
    let scratch_load = w.load(scratch);
    let hg = w.global_addr(g_hist);
    let hist_store = w.store(hg);
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
        PaySites {
            wh_load,
            wh_store,
            dist_load,
            dist_store,
            cust_load,
            cust_store,
            hist_store,
            scratch_store,
            scratch_load,
        },
        module,
    )
}

/// The payment kernel's IR module, exposed for audit tooling.
pub(crate) fn pay_ir_module() -> Module {
    build_pay_module().1
}

fn build_pay_ir() -> (PaySites, HashSet<SiteId>) {
    let (sites, module) = build_pay_module();
    let c = classify(&module);
    (sites, c.safe_sites().iter().copied().collect())
}

struct Tables {
    warehouse: Addr,
    district: Addr,
    item: Addr,
    stock: Addr,
    customer: Addr,
    orders: Addr,
    history: Addr,
    scratch: Vec<Addr>,
    rngs: Vec<SmallRng>,
    remaining: Vec<usize>,
    next_order: u64,
}

fn setup_tables(threads: usize, alloc: AllocConfig, seed: u64, salt: u64, txs: usize) -> Tables {
    let mut space = AddressSpace::with_config(threads, alloc);
    let warehouse = space.alloc_global(64);
    let district = space.alloc_global(DISTRICTS * 64);
    let item = space.alloc_global_page_aligned(ITEMS * 64);
    let stock = space.alloc_global_page_aligned(STOCK * 128);
    let customer = space.alloc_global_page_aligned(CUSTOMERS * 64);
    let orders = space.alloc_global_page_aligned(64 * 4096);
    let history = space.alloc_global_page_aligned(16 * 4096);
    let scratch = (0..threads)
        .map(|t| space.stack_push(ThreadId(t as u32), 256))
        .collect();
    let rngs = (0..threads).map(|t| thread_rng(seed, t, salt)).collect();
    Tables {
        warehouse,
        district,
        item,
        stock,
        customer,
        orders,
        history,
        scratch,
        rngs,
        remaining: vec![txs; threads],
        next_order: 0,
    }
}

/// TPC-C new-order. See the module docs.
pub(crate) struct TpccNewOrder {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: NoSites,
    safe_sites: HashSet<SiteId>,
    st: Option<Tables>,
}

impl TpccNewOrder {
    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_no_ir();
        TpccNewOrder {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }
}

impl Workload for TpccNewOrder {
    fn name(&self) -> &'static str {
        "tpcc-no"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        self.st = Some(setup_tables(
            self.threads,
            self.alloc,
            seed,
            9,
            self.scale.scaled(220),
        ));
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let s = self.sites;
        let st = self.st.as_mut().expect("reset before run");
        let t = tid.index();
        if st.remaining[t] == 0 {
            return None;
        }
        st.remaining[t] -= 1;
        let rng = &mut st.rngs[t];

        let mut rec = Recorder::new();
        // Staging buffer for the order lines (2 blocks, defined first).
        rec.store(st.scratch[t], s.scratch_store);
        rec.store(st.scratch[t].offset(64), s.scratch_store);
        // Warehouse tax (hot read) + district next-order-id (hot update).
        rec.load(st.warehouse, s.wh_load);
        let d = rng.gen_range(0..DISTRICTS);
        rec.load(st.district.offset(d * 64), s.dist_load);
        rec.store(st.district.offset(d * 64), s.dist_store);
        // Items: Zipf-ish over a small hot set → high block locality.
        let ol_cnt = 5 + rng.gen_range(0..11u64);
        for _ in 0..ol_cnt {
            let r: f64 = rng.gen_f64();
            let item = ((r * r * r) * ITEMS as f64) as u64 % ITEMS;
            rec.load(st.item.offset(item * 64), s.item_load);
            // Matching stock row (128 B = 2 blocks): read quantity, update
            // ytd/order-count on the second block.
            let stock = rng.gen_range(0..STOCK);
            rec.load(st.stock.offset(stock * 128), s.stock_load);
            rec.load(st.stock.offset(stock * 128 + 64), s.stock_load);
            rec.store(st.stock.offset(stock * 128 + 64), s.stock_store);
            rec.compute(14);
        }
        rec.load(st.scratch[t], s.scratch_load);
        rec.load(st.scratch[t].offset(64), s.scratch_load);
        {}
        // Customer credit check.
        let c = rng.gen_range(0..CUSTOMERS);
        rec.load(st.customer.offset(c * 64), s.cust_load);
        // Insert the order + order lines at the global tail.
        st.next_order += 1;
        let slot = st.next_order % 160;
        rec.store(st.orders.offset(slot * 1536), s.order_store);
        for l in 0..ol_cnt {
            // One order-line row per line item.
            rec.store(st.orders.offset(slot * 1536 + 64 + l * 64), s.order_store);
        }
        rec.compute(30);
        Some(Section::Tx(rec.into_body()))
    }

    fn static_safe_sites(&self) -> HashSet<SiteId> {
        self.safe_sites.clone()
    }
}

/// TPC-C payment. See the module docs.
pub(crate) struct TpccPayment {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: PaySites,
    safe_sites: HashSet<SiteId>,
    st: Option<Tables>,
}

impl TpccPayment {
    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_pay_ir();
        TpccPayment {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }
}

impl Workload for TpccPayment {
    fn name(&self) -> &'static str {
        "tpcc-p"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        self.st = Some(setup_tables(
            self.threads,
            self.alloc,
            seed,
            10,
            self.scale.scaled(280),
        ));
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let s = self.sites;
        let st = self.st.as_mut().expect("reset before run");
        let t = tid.index();
        if st.remaining[t] == 0 {
            return None;
        }
        st.remaining[t] -= 1;
        let rng = &mut st.rngs[t];

        let mut rec = Recorder::new();
        rec.store(st.scratch[t], s.scratch_store);
        // Warehouse + district balance updates: the conflict hot spots.
        rec.load(st.warehouse, s.wh_load);
        rec.store(st.warehouse, s.wh_store);
        let d = rng.gen_range(0..DISTRICTS);
        rec.load(st.district.offset(d * 64), s.dist_load);
        rec.store(st.district.offset(d * 64), s.dist_store);
        // Customer selection: 60% by last name (index scan), 40% by id.
        if rng.gen_range(0..100) < 60 {
            let start = rng.gen_range(0..CUSTOMERS);
            let span = 28 + rng.gen_range(0..50u64);
            for k in 0..span {
                let row = (start + k * 3) % CUSTOMERS;
                rec.load(st.customer.offset(row * 64), s.cust_load);
                if k % 8 == 0 {
                    rec.load(st.scratch[t].offset((k % 4) * 16), s.scratch_load);
                }
            }
        } else {
            let c = rng.gen_range(0..CUSTOMERS);
            rec.load(st.customer.offset(c * 64), s.cust_load);
        }
        let c = rng.gen_range(0..CUSTOMERS);
        rec.store(st.customer.offset(c * 64), s.cust_store);
        // History append (per-thread region of the history table).
        let h = (t as u64 * 64 + st.next_order % 64) * 64;
        st.next_order += 1;
        rec.store(st.history.offset(h), s.hist_store);
        rec.compute(25);
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
    fn new_order_item_loads_are_statically_safe() {
        let (sites, safe) = build_no_ir();
        assert!(
            safe.contains(&sites.item_load),
            "item table is read-only in region"
        );
        assert!(safe.contains(&sites.scratch_store));
        assert!(safe.contains(&sites.scratch_load));
        assert!(!safe.contains(&sites.stock_load));
        assert!(!safe.contains(&sites.dist_store));
        assert!(!safe.contains(&sites.order_store));
    }

    #[test]
    fn payment_scratch_is_the_only_static_safety() {
        let (sites, safe) = build_pay_ir();
        assert!(safe.contains(&sites.scratch_store));
        assert!(safe.contains(&sites.scratch_load));
        for site in [
            sites.wh_load,
            sites.wh_store,
            sites.dist_load,
            sites.dist_store,
            sites.cust_load,
            sites.cust_store,
            sites.hist_store,
        ] {
            assert!(!safe.contains(&site));
        }
    }

    #[test]
    fn payment_is_conflict_dominated() {
        let mut w = TpccPayment::new(Scale::Sim, 8);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let conflicts = r.aborts_of(AbortKind::Conflict) + r.aborts_of(AbortKind::FallbackLock);
        assert!(r.total_aborts() > 0);
        assert!(
            conflicts as f64 >= 0.6 * r.total_aborts() as f64,
            "conflicts {conflicts} of {}",
            r.total_aborts()
        );
        assert_eq!(r.commits + r.fallback_commits, 8 * 280);
    }

    #[test]
    fn new_order_completes_with_modest_capacity_pressure() {
        let mut w = TpccNewOrder::new(Scale::Sim, 8);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 1);
        assert_eq!(r.commits + r.fallback_commits, 8 * 220);
        let total = r.commits + r.fallback_commits;
        assert!(
            r.aborts_of(AbortKind::Capacity) < total / 4,
            "new-order TXs mostly fit P8"
        );
    }

    #[test]
    fn static_hints_affect_both_queries() {
        let mut w = TpccNewOrder::new(Scale::Sim, 8);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let st = Simulator::new(SimConfig::default().hint_mode(HintMode::Static)).run(&mut w, 1);
        assert!(st.aborts_of(AbortKind::Capacity) <= base.aborts_of(AbortKind::Capacity));

        let mut w = TpccPayment::new(Scale::Sim, 8);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 1);
        let st = Simulator::new(SimConfig::default().hint_mode(HintMode::Static)).run(&mut w, 1);
        assert!(st.aborts_of(AbortKind::Capacity) <= base.aborts_of(AbortKind::Capacity));
    }

    #[test]
    fn deterministic() {
        let mut w = TpccNewOrder::new(Scale::Sim, 4);
        let a = Simulator::new(SimConfig::default()).run(&mut w, 8);
        let b = Simulator::new(SimConfig::default()).run(&mut w, 8);
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
