//! Labyrinth: transactional maze routing (Lee's algorithm), STAMP-style.
//!
//! Each transaction copies the shared base grid into a thread-private grid
//! (a whole-object `memcpy`), runs wavefront expansion over the private
//! copy, then validates and publishes the chosen path through a shared
//! occupancy overlay and the global path list. The private copy dominates
//! the transaction's footprint — far beyond any bounded HTM's capacity —
//! which is why baseline labyrinth lives in the fallback lock and why
//! HinTM's hints recover nearly all of InfCap's headroom (§VI-A).
//!
//! Classification ground truth (mirrored by the IR model):
//! * base-grid reads: shared but never written in the parallel region →
//!   statically read-only-shared, dynamically `⟨shared,ro⟩` — safe;
//! * private-grid copy stores: initializing whole-object `memcpy` — safe;
//! * private-grid expansion loads/stores: thread-private, post-copy — safe;
//! * overlay validation/commit and the path-list publish: genuinely
//!   conflicting shared accesses — unsafe (the residual footprint).

use crate::common::{thread_rng, Recorder, Scale};
use hintm_ir::{classify, Module, ModuleBuilder};
use hintm_mem::ds::SimGrid;
use hintm_mem::{AccessSink, AddressSpace};
use hintm_sim::{Section, Workload};
use hintm_types::rng::SmallRng;
use hintm_types::{Addr, AllocConfig, SiteId, ThreadId};
use std::collections::HashSet;

/// Access sites of the labyrinth kernel (indices into its IR module).
#[derive(Clone, Copy, Debug)]
struct Sites {
    queue_load: SiteId,
    queue_store: SiteId,
    copy_load: SiteId,
    copy_store: SiteId,
    exp_load: SiteId,
    exp_store: SiteId,
    val_load: SiteId,
    val_store: SiteId,
    node_init: SiteId,
    head_store: SiteId,
}

fn build_module(scale: Scale) -> (Sites, Module) {
    let (x, y, z) = Labyrinth::dims(scale);
    let grid_bytes = (x * y * z) as u64 * 8;
    let mut m = ModuleBuilder::new();
    let g_queue = m.global("work_queue");
    let g_base = m.global_sized("base_grid", grid_bytes);
    let g_overlay = m.global_sized("overlay", grid_bytes);
    let g_paths = m.global("path_list");

    let mut w = m.func("router_solve", 0);
    let my_grid = w.halloc_sized(grid_bytes);
    w.begin_loop();
    w.tx_begin();
    let qg = w.global_addr(g_queue);
    let queue_load = w.load(qg);
    let queue_store = w.store(qg);
    let bg = w.global_addr(g_base);
    let (copy_load, copy_store) = w.memcpy(my_grid, bg);
    w.begin_loop();
    let exp_load = w.load(my_grid);
    let exp_store = w.store(my_grid);
    w.end_block();
    let og = w.global_addr(g_overlay);
    // Validate/publish walks the chosen path cell by cell.
    w.begin_loop();
    let val_load = w.load(og);
    let val_store = w.store(og);
    w.end_block();
    let node = w.halloc_sized(48);
    let node_init = w.store(node);
    let pg = w.global_addr(g_paths);
    let head_store = w.store_ptr(pg, node);
    w.tx_end();
    w.end_block();
    w.free(my_grid);
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    let bg = main.global_addr(g_base);
    main.store(bg); // grid initialization before the parallel phase
    main.spawn(worker, vec![]);
    main.ret();
    let entry = main.finish();
    let module = m.finish(entry, worker);

    let sites = Sites {
        queue_load,
        queue_store,
        copy_load,
        copy_store,
        exp_load,
        exp_store,
        val_load,
        val_store,
        node_init,
        head_store,
    };
    (sites, module)
}

/// The kernel's IR module, as fed to the classifier (for audit tooling).
/// Object sizes (grid dimensions) depend on the scale.
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
    base: SimGrid,
    overlay_base: Addr,
    queue_ctrl: Addr,
    list_head: Addr,
    grids: Vec<SimGrid>,
    rngs: Vec<SmallRng>,
    remaining: Vec<usize>,
    route_pending: Vec<bool>,
    warmed_up: Vec<bool>,
}

/// The labyrinth workload. See the module docs.
pub(crate) struct Labyrinth {
    scale: Scale,
    threads: usize,
    alloc: AllocConfig,
    sites: Sites,
    safe_sites: HashSet<SiteId>,
    st: Option<State>,
}

impl Labyrinth {
    /// Grid dimensions for a scale.
    fn dims(scale: Scale) -> (usize, usize, usize) {
        match scale {
            Scale::Sim => (20, 20, 4),
            Scale::Large => (28, 28, 5),
        }
    }

    /// Creates the workload for `threads` threads.
    pub(crate) fn new(scale: Scale, threads: usize) -> Self {
        let (sites, safe_sites) = build_ir(scale);
        Labyrinth {
            scale,
            threads,
            alloc: AllocConfig::default(),
            sites,
            safe_sites,
            st: None,
        }
    }

    fn routes_per_thread(&self) -> usize {
        match self.scale {
            Scale::Sim => 28,
            Scale::Large => 52,
        }
    }
}

impl Workload for Labyrinth {
    fn name(&self) -> &'static str {
        "labyrinth"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let (x, y, z) = Self::dims(self.scale);
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        let mut base = SimGrid::new_global(&mut space, x, y, z);
        // Initialize obstacle cells (setup, untraced).
        let mut rng = thread_rng(seed, usize::MAX, 0);
        for _ in 0..(x * y * z / 8) {
            let (cx, cy, cz) = (
                rng.gen_range(0..x),
                rng.gen_range(0..y),
                rng.gen_range(0..z),
            );
            base.poke(cx, cy, cz, 1);
        }
        let overlay_base = space.alloc_global_page_aligned((x * y * z) as u64 * 8);
        let queue_ctrl = space.alloc_global(64);
        let list_head = space.alloc_global(64);
        let grids = (0..self.threads)
            .map(|t| SimGrid::new(&mut space, ThreadId(t as u32), x, y, z))
            .collect();
        let rngs = (0..self.threads).map(|t| thread_rng(seed, t, 1)).collect();
        let remaining = vec![self.routes_per_thread(); self.threads];
        let route_pending = vec![false; self.threads];
        let warmed_up = vec![false; self.threads];
        self.st = Some(State {
            space,
            base,
            overlay_base,
            queue_ctrl,
            list_head,
            grids,
            rngs,
            remaining,
            route_pending,
            warmed_up,
        });
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let s = self.sites;
        let (x, y, z) = Self::dims(self.scale);
        let st = self.st.as_mut().expect("reset before run");
        let t = tid.index();
        if st.remaining[t] == 0 {
            return None;
        }
        if !st.warmed_up[t] {
            // Parallel overlay initialization (memset at phase start): each
            // thread clears a stripe, which settles the overlay pages into
            // their steady <shared,rw> state before any transaction could
            // safely read them.
            st.warmed_up[t] = true;
            let cells = (x * y * z) as u64;
            let stripe = cells / self.threads as u64;
            let mut rec = Recorder::new();
            let mut cell = t as u64 * stripe;
            while cell < (t as u64 + 1) * stripe {
                rec.store(st.overlay_base.offset(cell * 8), s.val_store);
                cell += 8; // one store per overlay block
            }
            rec.compute(50);
            return Some(Section::NonTx(rec.into_ops()));
        }
        if !st.route_pending[t] {
            // Work-queue pop: its own tiny transaction (as in STAMP), so
            // the hot control block does not poison the big routing TX.
            st.route_pending[t] = true;
            let mut rec = Recorder::new();
            rec.load(st.queue_ctrl, s.queue_load);
            rec.store(st.queue_ctrl, s.queue_store);
            rec.compute(8);
            return Some(Section::Tx(rec.into_body()));
        }
        st.route_pending[t] = false;
        st.remaining[t] -= 1;

        let mut rec = Recorder::new();
        // Whole-grid copy into the private grid.
        let (base, grid) = (&st.base, &mut st.grids[t]);
        grid.copy_from(base, &mut rec, s.copy_load, s.copy_store);

        // Generate a zig-zag path.
        let rng = &mut st.rngs[t];
        let mut cx = rng.gen_range(0..x);
        let mut cy = rng.gen_range(0..y);
        let cz = rng.gen_range(0..z);
        let mut path: Vec<(usize, usize, usize)> = vec![(cx, cy, cz)];
        let segments = 2 + rng.gen_range(0..4);
        for seg in 0..segments {
            let run = 2 + rng.gen_range(0..6usize);
            for _ in 0..run {
                if seg % 2 == 0 {
                    cy = (cy + 1) % y;
                } else {
                    cx = (cx + 1) % x;
                }
                path.push((cx, cy, cz));
            }
        }

        // Wavefront expansion over the private copy: neighbor probes plus a
        // distance write per visited cell.
        for &(px, py, pz) in &path {
            let probes = 3 + (px + py) % 3;
            for k in 0..probes {
                let nx = (px + k) % x;
                let ny = (py + k / 2) % y;
                grid.read(nx, ny, pz, &mut rec, s.exp_load);
            }
            grid.write(px, py, pz, 2, &mut rec, s.exp_store);
            rec.compute(6);
        }

        // Validate + publish the path through the shared overlay.
        for &(px, py, pz) in &path {
            let idx = ((pz * y + py) * x + px) as u64;
            let cell = st.overlay_base.offset(idx * 8);
            rec.load(cell, s.val_load);
            rec.store(cell, s.val_store);
        }

        // Append the path record to the global list.
        let node = st.space.halloc(tid, 48);
        rec.store(node, s.node_init);
        rec.store(node.offset(8), s.node_init);
        rec.store(st.list_head, s.head_store);
        rec.compute(20);

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
    fn static_classification_matches_listing2() {
        let (sites, safe) = build_ir(Scale::Sim);
        assert!(
            safe.contains(&sites.copy_load),
            "base grid is read-only in region"
        );
        assert!(safe.contains(&sites.copy_store), "initializing memcpy");
        assert!(safe.contains(&sites.exp_load), "private grid loads");
        assert!(safe.contains(&sites.exp_store), "stores after init copy");
        assert!(safe.contains(&sites.node_init), "TX-allocated path record");
        assert!(!safe.contains(&sites.queue_load));
        assert!(!safe.contains(&sites.queue_store));
        assert!(!safe.contains(&sites.val_load));
        assert!(!safe.contains(&sites.val_store));
        assert!(!safe.contains(&sites.head_store));
    }

    #[test]
    fn baseline_p8_is_dominated_by_capacity_aborts() {
        let mut w = Labyrinth::new(Scale::Sim, 4);
        let r = Simulator::new(SimConfig::default()).run(&mut w, 3);
        assert!(r.aborts_of(AbortKind::Capacity) > 0);
        let routes = (4 * 18) as f64; // plus 72 tiny pop TXs that fit fine
        assert!(
            r.fallback_commits as f64 >= 0.9 * routes,
            "baseline labyrinth routes should live in the fallback path, got {}",
            r.fallback_commits
        );
    }

    #[test]
    fn static_hints_recover_most_capacity_aborts() {
        let mut w = Labyrinth::new(Scale::Sim, 4);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 3);
        let st = Simulator::new(SimConfig::default().hint_mode(HintMode::Static)).run(&mut w, 3);
        let reduction = st.abort_reduction_vs(&base, AbortKind::Capacity);
        assert!(
            reduction > 0.5,
            "HinTM-st should remove most capacity aborts, got {reduction:.2}"
        );
        assert!(
            st.speedup_vs(&base) > 1.5,
            "speedup {:.2}",
            st.speedup_vs(&base)
        );
    }

    #[test]
    fn infcap_has_no_capacity_aborts_and_big_speedup() {
        let mut w = Labyrinth::new(Scale::Sim, 4);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 3);
        let inf = Simulator::new(SimConfig::with_htm(HtmKind::InfCap)).run(&mut w, 3);
        assert_eq!(inf.aborts_of(AbortKind::Capacity), 0);
        assert!(inf.speedup_vs(&base) > 2.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut w = Labyrinth::new(Scale::Sim, 2);
        let a = Simulator::new(SimConfig::default()).run(&mut w, 9);
        let b = Simulator::new(SimConfig::default()).run(&mut w, 9);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.aborts, b.aborts);
    }

    #[test]
    fn dynamic_alone_cannot_rescue_store_heavy_labyrinth() {
        // Stores are never dynamically safe, and labyrinth's private copy is
        // store-heavy, so HinTM-dyn barely reduces capacity aborts (§VI-C:
        // labyrinth is static classification's best case).
        let mut w = Labyrinth::new(Scale::Sim, 4);
        let base = Simulator::new(SimConfig::default()).run(&mut w, 3);
        let dynr = Simulator::new(SimConfig::default().hint_mode(HintMode::Dynamic)).run(&mut w, 3);
        let reduction = dynr.abort_reduction_vs(&base, AbortKind::Capacity);
        assert!(
            reduction < 0.3,
            "dyn-only reduction should be small, got {reduction:.2}"
        );
    }
}
