//! IR data structures and builders.

use hintm_types::SiteId;
use std::fmt;

/// A function identifier within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FuncId(pub u32);

/// A virtual register within one function (dense, includes parameters:
/// parameter `i` is `ValueId(i)`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ValueId(pub u32);

/// A global variable identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalId(pub u32);

/// A call-site identifier (unique per `Call` instruction in the module).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CallSiteId(pub u32);

/// An abstract memory object: one per allocation instruction or global.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjId(pub u32);

/// What kind of memory an abstract object denotes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ObjKind {
    /// A stack allocation (`alloca`).
    Stack,
    /// A heap allocation (`malloc`).
    Heap,
    /// A global variable.
    Global,
}

impl fmt::Display for ObjKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjKind::Stack => write!(f, "stack"),
            ObjKind::Heap => write!(f, "heap"),
            ObjKind::Global => write!(f, "global"),
        }
    }
}

/// One IR instruction.
///
/// Pointer flow is explicit: a [`Instr::Load`] with `out: Some(_)` loads a
/// pointer value; a [`Instr::Store`] with `val: Some(_)` stores a pointer.
/// Plain data loads/stores use `None` and only matter for their access
/// sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Stack allocation producing a pointer.
    Alloca { out: ValueId },
    /// Heap allocation producing a pointer.
    Halloc { out: ValueId },
    /// Heap deallocation.
    Free { ptr: ValueId },
    /// Address of a global.
    Global { out: ValueId, global: GlobalId },
    /// Derived pointer (field/index) into the same object(s) as `base`.
    Gep { out: ValueId, base: ValueId },
    /// Memory load through `ptr`; `out` is `Some` when a pointer is loaded.
    Load {
        out: Option<ValueId>,
        ptr: ValueId,
        site: SiteId,
    },
    /// Memory store through `ptr`; `val` is `Some` when a pointer is stored.
    Store {
        ptr: ValueId,
        val: Option<ValueId>,
        site: SiteId,
    },
    /// Whole-object copy from `src` to `dst` (LLVM `memcpy` intrinsic).
    Memcpy {
        dst: ValueId,
        src: ValueId,
        load_site: SiteId,
        store_site: SiteId,
    },
    /// Direct call.
    Call {
        callee: FuncId,
        args: Vec<ValueId>,
        out: Option<ValueId>,
        id: CallSiteId,
    },
    /// Thread spawn running `callee(args)` on every worker thread.
    Spawn { callee: FuncId, args: Vec<ValueId> },
    /// Transaction boundaries.
    TxBegin,
    /// End of the innermost transaction.
    TxEnd,
    /// Function return.
    Return { val: Option<ValueId> },
}

/// A structured statement: straight-line instruction, loop, or branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// A single instruction.
    Instr(Instr),
    /// A loop. `trip` is an optional static upper bound on the iteration
    /// count (the body executes between 0 and `trip` times); `None` means
    /// statically unbounded. Classification treats both forms identically —
    /// the bound only feeds the footprint analysis.
    Loop {
        /// Loop body.
        body: Vec<Stmt>,
        /// Static upper bound on iterations, if known.
        trip: Option<u32>,
    },
    /// A two-way branch; either side may execute.
    If(Vec<Stmt>, Vec<Stmt>),
}

/// A function definition.
#[derive(Clone, Debug)]
pub struct Function {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Number of parameters; parameter `i` is `ValueId(i)`.
    pub num_params: usize,
    /// Structured body.
    pub body: Vec<Stmt>,
    /// Total virtual registers used (≥ `num_params`).
    pub num_values: usize,
    /// Byte sizes of allocations, keyed by the allocation instruction's
    /// visit index (per [`Module::visit_instrs`] order). Allocations absent
    /// from the map have statically unknown size.
    pub alloc_sizes: std::collections::BTreeMap<u32, u64>,
}

/// A global variable definition.
#[derive(Clone, Debug)]
pub struct GlobalDef {
    /// Human-readable name.
    pub(crate) name: String,
    /// Byte size, if statically known.
    pub size: Option<u64>,
}

/// A whole program: functions, globals, an entry point and the function
/// each worker thread runs.
#[derive(Clone, Debug)]
pub struct Module {
    /// All functions.
    pub funcs: Vec<Function>,
    /// All globals.
    pub globals: Vec<GlobalDef>,
    /// `main`.
    pub entry: FuncId,
    /// The function executed by spawned threads.
    pub thread_root: FuncId,
    /// Total access sites allocated (sites are dense `0..num_sites`).
    pub num_sites: u32,
    /// Total call sites allocated.
    pub num_call_sites: u32,
    /// Declared per-transaction capacity budget in cache blocks, if the
    /// workload promises one. The footprint analysis checks every
    /// transaction's lower bound against it (`footprint-exceeds-declared`).
    pub declared_tx_cap: Option<u32>,
}

impl Module {
    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Iterates over `(FuncId, &Function)`.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Visits every instruction of `f`'s body in syntactic order.
    pub fn visit_instrs<'a>(&'a self, f: FuncId, mut visit: impl FnMut(&'a Instr)) {
        fn walk<'a>(stmts: &'a [Stmt], visit: &mut impl FnMut(&'a Instr)) {
            for s in stmts {
                match s {
                    Stmt::Instr(i) => visit(i),
                    Stmt::Loop { body, .. } => walk(body, visit),
                    Stmt::If(a, b) => {
                        walk(a, visit);
                        walk(b, visit);
                    }
                }
            }
        }
        walk(&self.func(f).body, &mut visit);
    }
}

/// Builds a [`Module`] incrementally.
///
/// See the crate-level example.
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    funcs: Vec<Function>,
    globals: Vec<GlobalDef>,
    next_site: u32,
    next_call_site: u32,
    declared_tx_cap: Option<u32>,
}

impl ModuleBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a global variable of unknown size.
    pub fn global(&mut self, name: &str) -> GlobalId {
        self.globals.push(GlobalDef {
            name: name.to_string(),
            size: None,
        });
        GlobalId(self.globals.len() as u32 - 1)
    }

    /// Declares a global variable with a known byte size.
    pub fn global_sized(&mut self, name: &str, size: u64) -> GlobalId {
        self.globals.push(GlobalDef {
            name: name.to_string(),
            size: Some(size),
        });
        GlobalId(self.globals.len() as u32 - 1)
    }

    /// Declares the module's per-transaction capacity budget in cache
    /// blocks (see [`Module::declared_tx_cap`]).
    pub fn declare_tx_cap(&mut self, blocks: u32) {
        self.declared_tx_cap = Some(blocks);
    }

    /// Starts building a function with `num_params` parameters.
    pub fn func(&mut self, name: &str, num_params: usize) -> FuncBuilder<'_> {
        FuncBuilder {
            parent: self,
            name: name.to_string(),
            num_params,
            next_value: num_params as u32,
            next_instr: 0,
            stack: vec![Vec::new()],
            frame_kinds: Vec::new(),
            alloc_sizes: std::collections::BTreeMap::new(),
        }
    }

    /// Finalizes the module.
    ///
    /// # Panics
    ///
    /// Panics if `entry` or `thread_root` is out of range.
    pub fn finish(self, entry: FuncId, thread_root: FuncId) -> Module {
        assert!((entry.0 as usize) < self.funcs.len(), "entry out of range");
        assert!(
            (thread_root.0 as usize) < self.funcs.len(),
            "thread_root out of range"
        );
        Module {
            funcs: self.funcs,
            globals: self.globals,
            entry,
            thread_root,
            num_sites: self.next_site,
            num_call_sites: self.next_call_site,
            declared_tx_cap: self.declared_tx_cap,
        }
    }
}

enum FrameKind {
    Loop(Option<u32>),
    Then,
    Else(Vec<Stmt>),
}

/// Builds one function's structured body.
pub struct FuncBuilder<'m> {
    parent: &'m mut ModuleBuilder,
    name: String,
    num_params: usize,
    next_value: u32,
    next_instr: u32,
    stack: Vec<Vec<Stmt>>,
    frame_kinds: Vec<FrameKind>,
    alloc_sizes: std::collections::BTreeMap<u32, u64>,
}

impl FuncBuilder<'_> {
    /// Parameter `i` as a value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_params`.
    pub fn param(&self, i: usize) -> ValueId {
        assert!(i < self.num_params, "parameter index out of range");
        ValueId(i as u32)
    }

    fn fresh_value(&mut self) -> ValueId {
        let v = ValueId(self.next_value);
        self.next_value += 1;
        v
    }

    fn fresh_site(&mut self) -> SiteId {
        let s = SiteId(self.parent.next_site);
        self.parent.next_site += 1;
        s
    }

    fn push(&mut self, i: Instr) {
        // Blocks close in LIFO order and splice in place, so emission order
        // equals `visit_instrs` order — `next_instr` is the visit index.
        self.next_instr += 1;
        self.stack
            .last_mut()
            .expect("open block")
            .push(Stmt::Instr(i));
    }

    /// Emits a stack allocation of unknown size.
    pub fn alloca(&mut self) -> ValueId {
        let out = self.fresh_value();
        self.push(Instr::Alloca { out });
        out
    }

    /// Emits a stack allocation of `size` bytes.
    pub fn alloca_sized(&mut self, size: u64) -> ValueId {
        self.alloc_sizes.insert(self.next_instr, size);
        self.alloca()
    }

    /// Emits a heap allocation of unknown size.
    pub fn halloc(&mut self) -> ValueId {
        let out = self.fresh_value();
        self.push(Instr::Halloc { out });
        out
    }

    /// Emits a heap allocation of `size` bytes.
    pub fn halloc_sized(&mut self, size: u64) -> ValueId {
        self.alloc_sizes.insert(self.next_instr, size);
        self.halloc()
    }

    /// Emits a heap free.
    pub fn free(&mut self, ptr: ValueId) {
        self.push(Instr::Free { ptr });
    }

    /// Emits address-of-global.
    pub fn global_addr(&mut self, g: GlobalId) -> ValueId {
        let out = self.fresh_value();
        self.push(Instr::Global { out, global: g });
        out
    }

    /// Emits a derived pointer (field/index of `base`).
    pub fn gep(&mut self, base: ValueId) -> ValueId {
        let out = self.fresh_value();
        self.push(Instr::Gep { out, base });
        out
    }

    /// Emits a data load; returns the access site.
    pub fn load(&mut self, ptr: ValueId) -> SiteId {
        let site = self.fresh_site();
        self.push(Instr::Load {
            out: None,
            ptr,
            site,
        });
        site
    }

    /// Emits a pointer load; returns `(loaded pointer, site)`.
    pub fn load_ptr(&mut self, ptr: ValueId) -> (ValueId, SiteId) {
        let site = self.fresh_site();
        let out = self.fresh_value();
        self.push(Instr::Load {
            out: Some(out),
            ptr,
            site,
        });
        (out, site)
    }

    /// Emits a data store; returns the access site.
    pub fn store(&mut self, ptr: ValueId) -> SiteId {
        let site = self.fresh_site();
        self.push(Instr::Store {
            ptr,
            val: None,
            site,
        });
        site
    }

    /// Emits a pointer store (`*ptr = val`); returns the access site.
    pub fn store_ptr(&mut self, ptr: ValueId, val: ValueId) -> SiteId {
        let site = self.fresh_site();
        self.push(Instr::Store {
            ptr,
            val: Some(val),
            site,
        });
        site
    }

    /// Emits a whole-object copy; returns `(load site, store site)`.
    pub fn memcpy(&mut self, dst: ValueId, src: ValueId) -> (SiteId, SiteId) {
        let load_site = self.fresh_site();
        let store_site = self.fresh_site();
        self.push(Instr::Memcpy {
            dst,
            src,
            load_site,
            store_site,
        });
        (load_site, store_site)
    }

    /// Emits a call with no result.
    pub fn call(&mut self, callee: FuncId, args: Vec<ValueId>) -> CallSiteId {
        let id = CallSiteId(self.parent.next_call_site);
        self.parent.next_call_site += 1;
        self.push(Instr::Call {
            callee,
            args,
            out: None,
            id,
        });
        id
    }

    /// Emits a call returning a pointer; returns `(result, call site)`.
    pub fn call_ptr(&mut self, callee: FuncId, args: Vec<ValueId>) -> (ValueId, CallSiteId) {
        let id = CallSiteId(self.parent.next_call_site);
        self.parent.next_call_site += 1;
        let out = self.fresh_value();
        self.push(Instr::Call {
            callee,
            args,
            out: Some(out),
            id,
        });
        (out, id)
    }

    /// Emits a thread spawn.
    pub fn spawn(&mut self, callee: FuncId, args: Vec<ValueId>) {
        self.push(Instr::Spawn { callee, args });
    }

    /// Emits a transaction begin.
    pub fn tx_begin(&mut self) {
        self.push(Instr::TxBegin);
    }

    /// Emits a transaction end.
    pub fn tx_end(&mut self) {
        self.push(Instr::TxEnd);
    }

    /// Emits a return.
    pub fn ret(&mut self) {
        self.push(Instr::Return { val: None });
    }

    /// Emits `return val`.
    pub fn ret_val(&mut self, val: ValueId) {
        self.push(Instr::Return { val: Some(val) });
    }

    /// Opens a loop body with unknown trip count; close with
    /// [`FuncBuilder::end_block`].
    pub fn begin_loop(&mut self) {
        self.stack.push(Vec::new());
        self.frame_kinds.push(FrameKind::Loop(None));
    }

    /// Opens a loop body whose iteration count is statically bounded by
    /// `trip`; close with [`FuncBuilder::end_block`].
    pub fn begin_loop_bounded(&mut self, trip: u32) {
        self.stack.push(Vec::new());
        self.frame_kinds.push(FrameKind::Loop(Some(trip)));
    }

    /// Opens the `then` side of a branch; call [`FuncBuilder::begin_else`]
    /// then [`FuncBuilder::end_block`].
    pub fn begin_if(&mut self) {
        self.stack.push(Vec::new());
        self.frame_kinds.push(FrameKind::Then);
    }

    /// Switches from the `then` side to the `else` side.
    ///
    /// # Panics
    ///
    /// Panics unless the innermost open block is a `then` block.
    pub fn begin_else(&mut self) {
        match self.frame_kinds.pop() {
            Some(FrameKind::Then) => {
                let then_body = self.stack.pop().expect("then block");
                self.frame_kinds.push(FrameKind::Else(then_body));
                self.stack.push(Vec::new());
            }
            _ => panic!("begin_else outside a then block"),
        }
    }

    /// Closes the innermost open loop or branch.
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn end_block(&mut self) {
        let body = self.stack.pop().expect("open block");
        match self.frame_kinds.pop().expect("block kind") {
            FrameKind::Loop(trip) => {
                self.stack
                    .last_mut()
                    .expect("parent")
                    .push(Stmt::Loop { body, trip });
            }
            FrameKind::Then => {
                self.stack
                    .last_mut()
                    .expect("parent")
                    .push(Stmt::If(body, Vec::new()));
            }
            FrameKind::Else(then_body) => {
                self.stack
                    .last_mut()
                    .expect("parent")
                    .push(Stmt::If(then_body, body));
            }
        }
    }

    /// Finalizes the function and registers it with the module.
    ///
    /// # Panics
    ///
    /// Panics if a loop or branch block is still open.
    pub fn finish(mut self) -> FuncId {
        assert_eq!(self.stack.len(), 1, "unclosed block in {}", self.name);
        let body = self.stack.pop().expect("body");
        self.parent.funcs.push(Function {
            name: self.name,
            num_params: self.num_params,
            body,
            num_values: self.next_value as usize,
            alloc_sizes: self.alloc_sizes,
        });
        FuncId(self.parent.funcs.len() as u32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_module() {
        let mut m = ModuleBuilder::new();
        let g = m.global("counter");
        let mut f = m.func("worker", 1);
        let p = f.param(0);
        let ga = f.global_addr(g);
        f.tx_begin();
        let s1 = f.load(p);
        let s2 = f.store(ga);
        f.tx_end();
        f.ret();
        let worker = f.finish();

        let mut main = m.func("main", 0);
        let buf = main.halloc();
        main.spawn(worker, vec![buf]);
        main.ret();
        let entry = main.finish();

        let module = m.finish(entry, worker);
        assert_eq!(module.funcs.len(), 2);
        assert_eq!(module.num_sites, 2);
        assert_ne!(s1, s2);
        let mut count = 0;
        module.visit_instrs(worker, |_| count += 1);
        assert_eq!(count, 6);
    }

    #[test]
    fn loops_and_ifs_nest() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0);
        let a = f.alloca();
        f.begin_loop();
        f.load(a);
        f.begin_if();
        f.store(a);
        f.begin_else();
        f.load(a);
        f.end_block();
        f.end_block();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        let body = &module.func(id).body;
        assert_eq!(body.len(), 3); // alloca, loop, ret
        match &body[1] {
            Stmt::Loop { body: inner, trip } => {
                assert_eq!(*trip, None);
                assert_eq!(inner.len(), 2); // load, if
                match &inner[1] {
                    Stmt::If(t, e) => {
                        assert_eq!(t.len(), 1);
                        assert_eq!(e.len(), 1);
                    }
                    other => panic!("expected If, got {other:?}"),
                }
            }
            other => panic!("expected Loop, got {other:?}"),
        }
    }

    #[test]
    fn param_values_precede_locals() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 2);
        assert_eq!(f.param(0), ValueId(0));
        assert_eq!(f.param(1), ValueId(1));
        let v = f.alloca();
        assert_eq!(v, ValueId(2));
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        assert_eq!(module.func(id).num_values, 3);
    }

    #[test]
    #[should_panic(expected = "unclosed block")]
    fn unclosed_loop_panics() {
        let mut m = ModuleBuilder::new();
        let mut f = m.func("f", 0);
        f.begin_loop();
        f.finish();
    }

    #[test]
    fn size_and_trip_annotations_round_trip() {
        let mut m = ModuleBuilder::new();
        let g = m.global_sized("table", 4096);
        m.declare_tx_cap(8);
        let mut f = m.func("f", 0);
        let a = f.alloca_sized(256); // visit index 0
        f.load(a); // visit index 1
        let b = f.halloc_sized(64); // visit index 2
        let c = f.halloc(); // visit index 3: unknown size
        f.begin_loop_bounded(30);
        f.store(b);
        f.store(c);
        f.end_block();
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        assert_eq!(module.globals[g.0 as usize].size, Some(4096));
        assert_eq!(module.declared_tx_cap, Some(8));
        let func = module.func(id);
        assert_eq!(func.alloc_sizes.get(&0), Some(&256));
        assert_eq!(func.alloc_sizes.get(&2), Some(&64));
        assert_eq!(func.alloc_sizes.get(&3), None);
        match &func.body[4] {
            Stmt::Loop { trip, .. } => assert_eq!(*trip, Some(30)),
            other => panic!("expected Loop, got {other:?}"),
        }
    }

    #[test]
    fn call_sites_are_unique() {
        let mut m = ModuleBuilder::new();
        let mut callee = m.func("callee", 0);
        callee.ret();
        let callee = callee.finish();
        let mut f = m.func("f", 0);
        let c1 = f.call(callee, vec![]);
        let c2 = f.call(callee, vec![]);
        f.ret();
        let id = f.finish();
        let module = m.finish(id, id);
        assert_ne!(c1, c2);
        assert_eq!(module.num_call_sites, 2);
    }
}
