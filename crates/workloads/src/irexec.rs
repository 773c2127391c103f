//! `IrExec`: executes an arbitrary [`hintm_ir::Module`] as a workload.
//!
//! The ten suite workloads hand-write their section streams and ship an IR
//! module *describing* them; `IrExec` closes the loop the other way — it
//! takes any IR module and *runs* it, turning the `thread_root` function
//! into per-thread section streams (transactions between `TxBegin`/`TxEnd`,
//! non-transactional stretches elsewhere, a barrier between rounds). That
//! makes every randomly generated analysis module a complete simulator
//! workload, which is what the hint-soundness fuzzer needs:
//! fresh access programs with loops, branches, calls, memcpys and
//! escape-eligible safe sites, far outside the shapes the suite exercises.
//!
//! Execution is abstract but deterministic:
//!
//! * Each allocation becomes a block-aligned object (sizes rounded up to
//!   whole 64-byte blocks so distinct objects never share a block, matching
//!   the footprint analysis's per-object accounting; statically unknown
//!   sizes get a fixed reserve). Stack and heap allocas both draw from the
//!   executing thread's heap arena; globals from the global segment.
//! * An access through a pointer touches its object's blocks round-robin
//!   (a cursor per object), so `k` accesses hit `min(k, blocks)` distinct
//!   blocks — the array-walk idiom the analysis's lower bounds assume.
//! * `memcpy` expands to a per-block load+store pass over the whole of
//!   both objects, honouring the "copying an object touches every block"
//!   contract the footprint analysis relies on.
//! * Loops draw their iteration count from the thread's RNG (`0..=trip`
//!   when bounded, a small cap when not), branches flip a coin, and every
//!   draw comes from [`thread_rng`], so streams are scheduling-independent.
//!
//! The `entry` function runs once at reset as setup (its accesses are not
//! simulated, like the suite workloads' construction phases) to bind the
//! arguments of `Spawn`; each software thread then executes the spawned
//! call `rounds` times, separated by barriers.

use crate::common::{thread_rng, Recorder};
use hintm_ir::{classify, Function, Instr, Module, Stmt};
use hintm_mem::{AccessSink, AddressSpace};
use hintm_sim::{Section, Workload};
use hintm_types::rng::SmallRng;
use hintm_types::{Addr, AllocConfig, SiteId, ThreadId};
use std::collections::{HashSet, VecDeque};

/// Bytes per cache block (mirrors the footprint analysis).
const BLOCK_BYTES: u64 = 64;
/// Blocks reserved for an allocation of statically unknown size.
const UNSIZED_BLOCKS: u32 = 64;
/// Iteration cap for statically unbounded loops.
const UNBOUNDED_ITERS: u32 = 12;
/// Call-depth cap (recursive modules terminate; deeper calls are skipped).
const MAX_CALL_DEPTH: usize = 6;
/// Per-thread, per-round access budget: loops stop iterating once a round
/// has emitted this many accesses, so pathological modules stay fast.
const ACCESS_FUEL: u32 = 4096;

/// A [`Stmt`] tree with each instruction's syntactic visit index attached
/// (per [`Module::visit_instrs`] order — the key space of
/// [`Function::alloc_sizes`]). Precomputed once so execution can look up
/// allocation sizes no matter how many times a loop body re-executes.
enum IStmt {
    Instr(u32, Instr),
    Loop { body: Vec<IStmt>, trip: Option<u32> },
    If(Vec<IStmt>, Vec<IStmt>),
}

fn index_stmts(stmts: &[Stmt], next: &mut u32) -> Vec<IStmt> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Instr(i) => {
                let idx = *next;
                *next += 1;
                IStmt::Instr(idx, i.clone())
            }
            Stmt::Loop { body, trip } => IStmt::Loop {
                body: index_stmts(body, next),
                trip: *trip,
            },
            Stmt::If(a, b) => IStmt::If(index_stmts(a, next), index_stmts(b, next)),
        })
        .collect()
}

/// One concrete memory object.
struct ObjState {
    base: Addr,
    blocks: u32,
    /// Round-robin block cursor: the next access lands on block
    /// `cursor % blocks`.
    cursor: u32,
    /// The last pointer value stored into this object (models
    /// pointer-chasing: a pointer load yields what was last stored).
    stored: Option<usize>,
}

/// Runs an IR [`Module`] as a deterministic simulator workload.
pub struct IrExec {
    module: Module,
    /// Indexed bodies, parallel to `module.funcs`.
    indexed: Vec<Vec<IStmt>>,
    threads: usize,
    alloc: AllocConfig,
    rounds: usize,
    safe: HashSet<SiteId>,
    queues: Vec<VecDeque<Section>>,
}

impl IrExec {
    /// Wraps `module` for `threads` software threads, each executing the
    /// spawned thread function `rounds` times (barrier-separated). The
    /// static classifier runs here; its safe sites drive the hints exactly
    /// as for the suite workloads.
    pub fn new(module: Module, threads: usize, rounds: usize) -> Self {
        let safe = classify(&module).safe_sites().iter().copied().collect();
        let indexed = module
            .funcs
            .iter()
            .map(|f| index_stmts(&f.body, &mut 0))
            .collect();
        IrExec {
            module,
            indexed,
            threads: threads.max(1),
            alloc: AllocConfig::default(),
            rounds: rounds.max(1),
            safe,
            queues: Vec::new(),
        }
    }

    /// The module being executed.
    pub fn module(&self) -> &Module {
        &self.module
    }
}

/// What a statement told control flow to do next.
enum Flow {
    Next,
    Return(Option<usize>),
}

/// Spawn targets captured while running `entry`.
struct SpawnRec {
    callee: hintm_ir::FuncId,
    args: Vec<Option<usize>>,
}

struct Exec<'m> {
    module: &'m Module,
    indexed: &'m [Vec<IStmt>],
    space: &'m mut AddressSpace,
    objects: &'m mut Vec<ObjState>,
    globals: &'m [usize],
    tid: ThreadId,
    rng: SmallRng,
    rec: Recorder,
    out: Vec<Section>,
    tx_depth: u32,
    fuel: u32,
    /// Some while running `entry`: spawns are recorded, sections discarded.
    spawns: Option<Vec<SpawnRec>>,
    /// Fallback object for dereferences of statically unknown pointers.
    scratch: usize,
}

fn round_blocks(size: u64) -> u32 {
    (size.div_ceil(BLOCK_BYTES)).max(1) as u32
}

impl Exec<'_> {
    fn alloc(&mut self, declared: Option<u64>) -> usize {
        let blocks = declared.map_or(UNSIZED_BLOCKS, round_blocks);
        // Whole blocks keep every object block-aligned in the bump arenas
        // (all size classes that are 64-multiples stay 64-multiples), so
        // two objects never share a cache block.
        let base = self.space.halloc(self.tid, u64::from(blocks) * BLOCK_BYTES);
        self.objects.push(ObjState {
            base,
            blocks,
            cursor: 0,
            stored: None,
        });
        self.objects.len() - 1
    }

    fn resolve(&self, v: Option<usize>) -> usize {
        v.unwrap_or(self.scratch)
    }

    fn next_addr(&mut self, obj: usize) -> Addr {
        let o = &mut self.objects[obj];
        let block = o.cursor % o.blocks;
        o.cursor = o.cursor.wrapping_add(1);
        Addr::new(o.base.raw() + u64::from(block) * BLOCK_BYTES)
    }

    fn flush_nontx(&mut self) {
        if !self.rec.is_empty() {
            let ops = std::mem::take(&mut self.rec).into_ops();
            if self.spawns.is_none() {
                self.out.push(Section::NonTx(ops));
            }
        }
    }

    fn exec_func(
        &mut self,
        f: hintm_ir::FuncId,
        args: &[Option<usize>],
        depth: usize,
    ) -> Option<usize> {
        let func: &Function = self.module.func(f);
        let mut values: Vec<Option<usize>> = vec![None; func.num_values.max(func.num_params)];
        for (i, a) in args.iter().enumerate().take(func.num_params) {
            values[i] = *a;
        }
        match self.exec_stmts(&self.indexed[f.0 as usize], func, &mut values, depth) {
            Flow::Return(v) => v,
            Flow::Next => None,
        }
    }

    fn exec_stmts(
        &mut self,
        stmts: &'_ [IStmt],
        func: &Function,
        values: &mut Vec<Option<usize>>,
        depth: usize,
    ) -> Flow {
        for s in stmts {
            match s {
                IStmt::Instr(idx, i) => {
                    if let Flow::Return(v) = self.exec_instr(*idx, i, func, values, depth) {
                        return Flow::Return(v);
                    }
                }
                IStmt::Loop { body, trip } => {
                    let iters = match trip {
                        Some(t) => self.rng.gen_range(0..t.saturating_add(1)),
                        None => self.rng.gen_range(0..UNBOUNDED_ITERS),
                    };
                    for _ in 0..iters {
                        if self.fuel == 0 {
                            break;
                        }
                        self.rec.compute(1);
                        if let Flow::Return(v) = self.exec_stmts(body, func, values, depth) {
                            return Flow::Return(v);
                        }
                    }
                }
                IStmt::If(a, b) => {
                    let side = if self.rng.gen_bool(0.5) { a } else { b };
                    if let Flow::Return(v) = self.exec_stmts(side, func, values, depth) {
                        return Flow::Return(v);
                    }
                }
            }
        }
        Flow::Next
    }

    fn exec_instr(
        &mut self,
        idx: u32,
        i: &Instr,
        func: &Function,
        values: &mut [Option<usize>],
        depth: usize,
    ) -> Flow {
        match i {
            Instr::Alloca { out } | Instr::Halloc { out } => {
                let obj = self.alloc(func.alloc_sizes.get(&idx).copied());
                values[out.0 as usize] = Some(obj);
            }
            // Objects stay live: rounds replay the same function and a
            // freed-then-reallocated arena would perturb addresses.
            Instr::Free { .. } => {}
            Instr::Global { out, global } => {
                values[out.0 as usize] = Some(self.globals[global.0 as usize]);
            }
            Instr::Gep { out, base } => {
                values[out.0 as usize] = values[base.0 as usize];
            }
            Instr::Load { out, ptr, site } => {
                let obj = self.resolve(values[ptr.0 as usize]);
                let addr = self.next_addr(obj);
                self.rec.load(addr, *site);
                self.fuel = self.fuel.saturating_sub(1);
                if let Some(o) = out {
                    values[o.0 as usize] = self.objects[obj].stored.or(Some(obj));
                }
            }
            Instr::Store { ptr, val, site } => {
                let obj = self.resolve(values[ptr.0 as usize]);
                let addr = self.next_addr(obj);
                self.rec.store(addr, *site);
                self.fuel = self.fuel.saturating_sub(1);
                if let Some(v) = val {
                    self.objects[obj].stored = values[v.0 as usize];
                }
            }
            Instr::Memcpy {
                dst,
                src,
                load_site,
                store_site,
            } => {
                let d = self.resolve(values[dst.0 as usize]);
                let s = self.resolve(values[src.0 as usize]);
                // Touch every block of both objects (the analysis counts a
                // memcpy as a whole-object read and a whole-object write),
                // capped only by the round's access fuel.
                let n = self.objects[d].blocks.max(self.objects[s].blocks);
                for i in 0..n {
                    if self.fuel == 0 && i > 0 {
                        break;
                    }
                    let sb = self.objects[s].base.raw()
                        + u64::from(i % self.objects[s].blocks) * BLOCK_BYTES;
                    let db = self.objects[d].base.raw()
                        + u64::from(i % self.objects[d].blocks) * BLOCK_BYTES;
                    self.rec.load(Addr::new(sb), *load_site);
                    self.rec.store(Addr::new(db), *store_site);
                    self.fuel = self.fuel.saturating_sub(2);
                }
                self.objects[d].stored = self.objects[s].stored;
            }
            Instr::Call {
                callee, args, out, ..
            } => {
                if depth < MAX_CALL_DEPTH {
                    let bound: Vec<Option<usize>> =
                        args.iter().map(|a| values[a.0 as usize]).collect();
                    let ret = self.exec_func(*callee, &bound, depth + 1);
                    if let Some(o) = out {
                        values[o.0 as usize] = ret;
                    }
                } else if let Some(o) = out {
                    values[o.0 as usize] = None;
                }
            }
            Instr::Spawn { callee, args } => {
                if let Some(spawns) = self.spawns.as_mut() {
                    spawns.push(SpawnRec {
                        callee: *callee,
                        args: args.iter().map(|a| values[a.0 as usize]).collect(),
                    });
                }
                // Inside a worker a spawn is a no-op: threads are already
                // running.
            }
            Instr::TxBegin => {
                if self.tx_depth == 0 {
                    self.flush_nontx();
                    self.rec.compute(5);
                }
                self.tx_depth += 1;
            }
            Instr::TxEnd => {
                self.tx_depth = self.tx_depth.saturating_sub(1);
                if self.tx_depth == 0 {
                    let body = std::mem::take(&mut self.rec).into_body();
                    if self.spawns.is_none() {
                        self.out.push(Section::Tx(body));
                    }
                }
            }
            Instr::Return { val } => {
                return Flow::Return(val.and_then(|v| values[v.0 as usize]));
            }
        }
        Flow::Next
    }
}

impl Workload for IrExec {
    fn name(&self) -> &'static str {
        "irexec"
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn set_alloc_config(&mut self, cfg: AllocConfig) {
        self.alloc = cfg;
    }

    fn reset(&mut self, seed: u64) {
        let mut space = AddressSpace::with_config(self.threads, self.alloc);
        let mut objects: Vec<ObjState> = Vec::new();

        // Globals first: whole blocks in the global segment.
        let mut globals = Vec::with_capacity(self.module.globals.len());
        for g in &self.module.globals {
            let blocks = g.size.map_or(UNSIZED_BLOCKS, round_blocks);
            let base = space.alloc_global(u64::from(blocks) * BLOCK_BYTES);
            objects.push(ObjState {
                base,
                blocks,
                cursor: 0,
                stored: None,
            });
            globals.push(objects.len() - 1);
        }

        // Run `entry` once as setup: it allocates (in thread 0's arena),
        // binds the spawn arguments, and emits no sections.
        let scratch_base = space.alloc_global(u64::from(UNSIZED_BLOCKS) * BLOCK_BYTES);
        objects.push(ObjState {
            base: scratch_base,
            blocks: UNSIZED_BLOCKS,
            cursor: 0,
            stored: None,
        });
        let scratch = objects.len() - 1;

        let mut spawned: Vec<SpawnRec> = {
            let mut setup = Exec {
                module: &self.module,
                indexed: &self.indexed,
                space: &mut space,
                objects: &mut objects,
                globals: &globals,
                tid: ThreadId(0),
                rng: thread_rng(seed, 0, 0xE57),
                rec: Recorder::new(),
                out: Vec::new(),
                tx_depth: 0,
                fuel: ACCESS_FUEL,
                spawns: Some(Vec::new()),
                scratch,
            };
            setup.exec_func(self.module.entry, &[], 0);
            setup.spawns.take().unwrap_or_default()
        };
        if spawned.is_empty() {
            // Degenerate module with no spawn: run `thread_root` directly.
            spawned.push(SpawnRec {
                callee: self.module.thread_root,
                args: Vec::new(),
            });
        }

        // Generate every thread's stream up front, in thread order; the
        // engine then just pops sections.
        self.queues = (0..self.threads).map(|_| VecDeque::new()).collect();
        for r in 0..self.rounds {
            for t in 0..self.threads {
                let mut exec = Exec {
                    module: &self.module,
                    indexed: &self.indexed,
                    space: &mut space,
                    objects: &mut objects,
                    globals: &globals,
                    tid: ThreadId(t as u32),
                    rng: thread_rng(seed, t, 0x1A0 + r as u64),
                    rec: Recorder::new(),
                    out: Vec::new(),
                    tx_depth: 0,
                    fuel: ACCESS_FUEL,
                    spawns: None,
                    scratch,
                };
                for s in &spawned {
                    exec.exec_func(s.callee, &s.args, 0);
                }
                exec.flush_nontx();
                let sections = exec.out;
                self.queues[t].extend(sections);
            }
            if r + 1 < self.rounds {
                for q in &mut self.queues {
                    q.push_back(Section::Barrier);
                }
            }
        }
    }

    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        self.queues.get_mut(tid.index())?.pop_front()
    }

    fn static_safe_sites(&self) -> HashSet<SiteId> {
        self.safe.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_ir::ModuleBuilder;

    /// A module exercising every construct the executor handles: globals,
    /// sized/unsized allocs, gep, pointer load/store, memcpy, a call, a
    /// bounded and an unbounded loop, a branch, and nested TX boundaries.
    fn sample_module() -> Module {
        let mut m = ModuleBuilder::new();
        let g = m.global_sized("table", 256);

        let mut helper = m.func("helper", 1);
        let p = helper.param(0);
        helper.load(p);
        helper.ret_val(p);
        let helper = helper.finish();

        let mut w = m.func("worker", 1);
        let shared = w.param(0);
        let pool = w.halloc_sized(640);
        let small = w.alloca_sized(64);
        let big = w.halloc();
        let ga = w.global_addr(g);
        w.tx_begin();
        w.store_ptr(pool, small);
        let (loaded, _) = w.load_ptr(pool);
        w.begin_loop_bounded(5);
        w.load(loaded);
        w.store(pool);
        w.end_block();
        w.begin_if();
        w.memcpy(big, pool);
        w.begin_else();
        w.load(ga);
        w.end_block();
        w.call_ptr(helper, vec![pool]);
        w.tx_end();
        w.begin_loop();
        w.load(shared);
        w.end_block();
        w.ret();
        let worker = w.finish();

        let mut main = m.func("main", 0);
        let arena = main.halloc_sized(1024);
        main.store(arena);
        main.spawn(worker, vec![arena]);
        main.ret();
        let entry = main.finish();
        m.finish(entry, worker)
    }

    fn drain(w: &mut IrExec, seed: u64) -> Vec<Vec<Section>> {
        w.reset(seed);
        (0..w.num_threads() as u32)
            .map(|t| {
                let mut v = Vec::new();
                while let Some(s) = w.next_section(ThreadId(t)) {
                    v.push(s);
                }
                v
            })
            .collect()
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let mut w = IrExec::new(sample_module(), 3, 2);
        let a = drain(&mut w, 7);
        let b = drain(&mut w, 7);
        let c = drain(&mut w, 8);
        assert_eq!(a, b, "same seed, same streams");
        assert_ne!(a, c, "different seed, different streams");
        assert!(a
            .iter()
            .all(|t| t.iter().any(|s| matches!(s, Section::Tx(_)))));
        assert!(
            a.iter()
                .all(|t| t.iter().any(|s| matches!(s, Section::Barrier))),
            "rounds are barrier-separated"
        );
        for t in &a {
            for s in t {
                if let Section::Tx(body) = s {
                    assert!(body.suspends_balanced());
                }
            }
        }
    }

    #[test]
    fn objects_never_share_a_block() {
        let mut w = IrExec::new(sample_module(), 2, 1);
        w.reset(42);
        // Every access address must be block-aligned (the executor only
        // issues base + 64k addresses on 64-aligned bases).
        let mut seen = std::collections::HashMap::new();
        for t in 0..2 {
            while let Some(s) = w.next_section(ThreadId(t)) {
                let ops = match s {
                    Section::Tx(b) => b.ops,
                    Section::NonTx(o) => o,
                    Section::Barrier => continue,
                };
                for op in ops {
                    if let hintm_sim::TxOp::Access(a) = op {
                        assert_eq!(a.addr.raw() % BLOCK_BYTES, 0);
                        *seen.entry(a.addr.raw()).or_insert(0u32) += 1;
                    }
                }
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn classifier_feeds_safe_sites() {
        // `sample_module`'s worker stores through thread-private pool
        // pointers; at least one site must classify safe, and safe sites
        // must flow through the Workload hook.
        let w = IrExec::new(sample_module(), 2, 1);
        assert!(!w.static_safe_sites().is_empty());
    }
}
