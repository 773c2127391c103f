//! The simulation engine: clock-ordered interleaving of hardware threads,
//! transaction lifecycle, eager conflict detection, fallback locking, and
//! page-mode abort orchestration.
//!
//! # Serial section feed
//!
//! The engine runs on the calling thread. When a hardware thread goes
//! idle, the scheduler loop asks the workload for that thread's next section
//! and lowers it into an `AccessProgram`, reusing the slot buffer of a
//! retired program. Execution follows canonical min-(clock, core-index)
//! order, and [`TraceSink`] events are emitted in that same order.
//! Every run is deterministic for a given seed.
//!
//! # Hot-path structure
//!
//! The scheduler loop is monomorphized over the sink (`NoSink` for untraced
//! runs compiles every event construction away) and executes pre-resolved
//! programs (no per-access hint-set searches; programs are reused verbatim
//! across retries). Its per-step bookkeeping does not grow with the
//! thread count:
//!
//! * **Ready times.** `Engine::ready` holds each thread's earliest run
//!   time, or `u64::MAX` when it is parked, done or blocked on a held
//!   lock. The scheduler picks its first minimum (lowest index wins
//!   ties). A step that touched only its own thread refreshes one entry;
//!   aborts, shootdowns and lock hand-offs refresh them all.
//! * **Conflict directory.** A [`ConflictDir`] maps each block to the
//!   active transactions that precisely read or write it, so eager
//!   conflict detection is one probe per access rather than one per
//!   active peer (P8S and LRWS stores still ask each peer's signature).
//!
//! Sections replay from their lowered [`crate::AccessProgram`]s (see
//! [`crate::compile`]): one packed slot per scheduling step, whose opword
//! carries the pre-resolved escape-window membership, so no thread keeps
//! runtime suspend state.

use crate::compile::{
    decode_access, AccessProgram, Resolver, F_ESCAPED, F_RAW_STATIC, F_STATIC_SAFE, K_COMPUTE,
    K_MASK, K_RESUME, K_SUSPEND,
};
use crate::config::SimConfig;
use crate::section::Workload;
use crate::stats::RunStats;
use hintm_cache::{AccessOutcome, Hierarchy};
use hintm_htm::{ConflictDir, HtmKind, HtmThread};
use hintm_trace::{TraceEvent, TraceSink};
use hintm_types::{
    AbortKind, AccessKind, BlockAddr, ConflictPolicy, CoreId, Cycles, MemAccess, PageId, ThreadId,
};
use hintm_vm::{SharingProfiler, VmSystem};
use std::collections::HashSet;

/// Fixed cost of a `tbegin`.
const TX_BEGIN_COST: Cycles = Cycles(5);
/// Fixed cost of a commit.
const TX_COMMIT_COST: Cycles = Cycles(10);
/// Fixed abort handling cost (register restore + handler dispatch).
const ABORT_PENALTY: Cycles = Cycles(150);
/// Base backoff after an abort; doubles per consecutive retry.
const BACKOFF_BASE: Cycles = Cycles(100);
/// LogTM: per-overflowed-block log-unroll cost charged on abort.
const LOG_UNROLL_COST: Cycles = Cycles(20);
/// PStretch: cost of one capacity-stretch suspend/resume round trip,
/// charged to the stretching thread's clock when the tracker sheds its
/// read-only entries.
const STRETCH_COST: Cycles = Cycles(40);
/// Safety valve: a run taking more engine steps than this is a runaway
/// workload and panics.
const MAX_STEPS: u64 = 2_000_000_000;

/// What a hardware thread is doing. The section payload lives in
/// [`ThreadCtx::prog`]; keeping the discriminant `Copy` makes the
/// scheduler scan touch no refcounts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Needs a new section from the workload.
    Idle,
    /// Executing a hardware transaction.
    InTx,
    /// Executing the body under the global fallback lock.
    InFallback,
    /// Executing non-transactional operations.
    NonTx,
    /// Backing off before retrying an aborted transaction.
    WaitRetry,
    /// Waiting for the fallback lock to retry in HTM mode.
    WaitLockHtm,
    /// Waiting to run the body under the fallback lock.
    WaitLockFallback,
    /// Parked at a barrier.
    AtBarrier,
    /// Finished.
    Done,
}

struct ThreadCtx {
    clock: Cycles,
    htm: HtmThread,
    mode: Mode,
    /// Next op index in `prog` (`InTx`/`InFallback`/`NonTx`).
    pos: usize,
    /// Earliest retry time (`WaitRetry`).
    resume_at: Cycles,
    /// The current section body; retained across retries. Stored inline
    /// (no box): it is never shared, and retiring it hands the slot buffer
    /// back to [`Engine::pool`].
    prog: Option<AccessProgram>,
    core: CoreId,
    /// Pages this TX attempt accessed under a *dynamic* safe verdict.
    /// A small unsorted vec: attempts touch few distinct safe pages, and
    /// a linear scan beats hashing at that size.
    touched_safe_pages: Vec<PageId>,
    /// Per-attempt access classification counts `[static, dynamic, unsafe]`.
    attempt_breakdown: [u64; 3],
    /// Per-attempt footprints for the Fig. 6 views.
    fp_all: HashSet<BlockAddr>,
    fp_nonstatic: HashSet<BlockAddr>,
    fp_unsafe: HashSet<BlockAddr>,
}

/// The outcome of executing one operation.
enum StepOutcome {
    Continue,
    SelfAborted,
}

/// Reusable hot-path buffers, created once per run so the per-access path
/// performs no heap allocation in steady state.
#[derive(Default)]
struct EngineScratch {
    /// Cache access result ([`Hierarchy::access_into`] target).
    outcome: AccessOutcome,
    /// Conflict victims gathered in step 4 of `exec_access`, in
    /// ascending thread order.
    victims: Vec<(usize, AbortKind)>,
    /// Threads whose tracker lost a block to an L1 eviction (step 5).
    evicted: Vec<usize>,
    /// Write-set staging for rollback in `abort_thread`.
    rollback: Vec<BlockAddr>,
}

/// Sink dispatch resolved at compile time: `NoSink` erases every event
/// construction from the untraced hot path.
trait SinkPort {
    const ENABLED: bool;
    fn emit(&mut self, ev: TraceEvent);
    fn wants_accesses(&self) -> bool {
        false
    }
}

/// The untraced port: all event code compiles away.
struct NoSink;

impl SinkPort for NoSink {
    const ENABLED: bool = false;
    #[inline(always)]
    fn emit(&mut self, _ev: TraceEvent) {}
}

/// The traced port, forwarding to a caller-supplied dynamic sink.
struct DynSink<'a> {
    sink: &'a mut dyn TraceSink,
    want_access: bool,
}

impl SinkPort for DynSink<'_> {
    const ENABLED: bool = true;
    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        self.sink.event(&ev);
    }
    fn wants_accesses(&self) -> bool {
        self.want_access
    }
}

/// The simulator. Construct with a [`SimConfig`], then [`Simulator::run`]
/// a [`Workload`]; see the crate docs for an example.
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Simulator { cfg }
    }

    /// Runs `workload` to completion with `seed` and returns the measured
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the engine exceeds `MAX_STEPS` (runaway workload) or the
    /// thread states deadlock (malformed workload).
    pub fn run(&self, workload: &mut dyn Workload, seed: u64) -> RunStats {
        self.run_inner(workload, seed, None)
    }

    /// Like [`Simulator::run`], delivering every engine event — transaction
    /// lifecycle, memory accesses, cache evictions, coherence actions,
    /// shootdowns, barrier epochs — to `sink` in deterministic scheduling
    /// order.
    ///
    /// The sink never affects the simulation: the returned statistics are
    /// bit-identical to an unsinked run with the same seed. Sinks that return
    /// `false` from [`TraceSink::wants_accesses`] skip the per-access
    /// events (the bulk of the stream) entirely.
    pub fn run_with_sink(
        &self,
        workload: &mut dyn Workload,
        seed: u64,
        sink: &mut dyn TraceSink,
    ) -> RunStats {
        self.run_inner(workload, seed, Some(sink))
    }

    fn run_inner(
        &self,
        workload: &mut dyn Workload,
        seed: u64,
        sink: Option<&mut dyn TraceSink>,
    ) -> RunStats {
        workload.reset(seed);
        let resolver = Resolver::new(workload, &self.cfg);
        let n = workload.num_threads();
        let smt = self.cfg.machine.smt.ways();
        assert!(
            n <= self.cfg.machine.num_cores * smt,
            "workload wants {n} threads but the machine has {} hardware threads",
            self.cfg.machine.num_cores * smt
        );
        assert!(n <= 64, "active-transaction bitmask covers 64 threads");
        match sink {
            Some(s) => {
                let want_access = s.wants_accesses();
                self.drive(
                    workload,
                    &resolver,
                    n,
                    smt,
                    DynSink {
                        sink: s,
                        want_access,
                    },
                )
            }
            None => self.drive(workload, &resolver, n, smt, NoSink),
        }
    }

    fn drive<S: SinkPort>(
        &self,
        workload: &mut dyn Workload,
        resolver: &Resolver,
        n: usize,
        smt: usize,
        sink: S,
    ) -> RunStats {
        let mut engine = Engine::new(&self.cfg, n, smt, sink);
        engine.run(workload, resolver);
        engine.into_stats()
    }
}

/// The scheduler loop and all simulated state.
struct Engine<'e, S: SinkPort> {
    cfg: &'e SimConfig,
    threads: Vec<ThreadCtx>,
    mem: Hierarchy,
    vm: VmSystem,
    profiler: Option<SharingProfiler>,
    stats: RunStats,
    lock_holder: Option<usize>,
    lock_free_at: Cycles,
    scratch: EngineScratch,
    /// Bitmask of threads with an active hardware transaction, kept in
    /// lockstep with `HtmThread::is_active` (set in `try_begin_tx`,
    /// cleared on commit and in `abort_thread`). Lets the per-access
    /// eviction/shootdown scans visit only transactional threads instead
    /// of probing every controller.
    active: u64,
    /// Which active transactions precisely read or write each block:
    /// recorded after every tracked access, released at commit and abort.
    conflicts: ConflictDir,
    /// Per-thread time at which the scheduler may next step the thread
    /// (see [`Engine::ready_at`]); `u64::MAX` when it cannot run.
    ready: Vec<u64>,
    sink: S,
    /// Retired programs whose slot buffers new sections lower into, so
    /// steady-state section lowering allocates nothing. Capped at the
    /// thread count (the most programs ever live at once).
    pool: Vec<AccessProgram>,
    uses_dynamic: bool,
    /// `true` only for the PStretch capacity model: gates the per-access
    /// stretch-event probe so every other model's hot path is untouched.
    uses_stretch: bool,
    steps: u64,
    epoch: u32,
    /// `true` while the current step has not (a) touched another thread's
    /// clock/mode/resume time or (b) mutated the fallback-lock state. While
    /// it holds, only the stepped thread's `ready` entry can have changed.
    local_only: bool,
}

impl<'e, S: SinkPort> Engine<'e, S> {
    fn new(cfg: &'e SimConfig, n: usize, smt: usize, sink: S) -> Self {
        Engine {
            threads: (0..n)
                .map(|i| ThreadCtx {
                    clock: Cycles::ZERO,
                    htm: HtmThread::new(&cfg.htm),
                    mode: Mode::Idle,
                    pos: 0,
                    resume_at: Cycles::ZERO,
                    prog: None,
                    core: CoreId((i / smt) as u32),
                    touched_safe_pages: Vec::new(),
                    attempt_breakdown: [0; 3],
                    fp_all: HashSet::new(),
                    fp_nonstatic: HashSet::new(),
                    fp_unsafe: HashSet::new(),
                })
                .collect(),
            mem: Hierarchy::new(&cfg.machine),
            vm: VmSystem::new(&cfg.machine, cfg.preserve),
            profiler: cfg.profile_sharing.then(SharingProfiler::new),
            stats: RunStats::default(),
            lock_holder: None,
            lock_free_at: Cycles::ZERO,
            scratch: EngineScratch::default(),
            active: 0,
            conflicts: ConflictDir::new(cfg.htm.kind),
            ready: vec![0; n],
            sink,
            pool: Vec::new(),
            uses_dynamic: cfg.hint_mode.uses_dynamic(),
            uses_stretch: cfg.htm.kind == HtmKind::PStretch,
            steps: 0,
            epoch: 0,
            local_only: true,
            cfg,
        }
    }

    fn run(&mut self, workload: &mut dyn Workload, resolver: &Resolver) {
        loop {
            self.steps += 1;
            assert!(self.steps <= MAX_STEPS, "engine exceeded MAX_STEPS");

            // The runnable thread with the smallest ready time; the first
            // minimum wins ties, i.e. the lowest index.
            let (mut i, mut ready) = (0, u64::MAX);
            for (j, &r) in self.ready.iter().enumerate() {
                if r < ready {
                    (i, ready) = (j, r);
                }
            }
            if ready == u64::MAX {
                if self.threads.iter().all(|t| t.mode == Mode::Done) {
                    break;
                }
                // Nothing can run: either everyone left is at the barrier
                // (release it) or we are deadlocked.
                let any_barrier = self.threads.iter().any(|t| t.mode == Mode::AtBarrier);
                assert!(any_barrier, "engine deadlock: no runnable threads");
                let release = self
                    .threads
                    .iter()
                    .filter(|t| t.mode == Mode::AtBarrier)
                    .map(|t| t.clock)
                    .fold(Cycles::ZERO, Cycles::max);
                for t in &mut self.threads {
                    if t.mode == Mode::AtBarrier {
                        t.clock = release;
                        t.mode = Mode::Idle;
                    }
                }
                if S::ENABLED {
                    self.sink.emit(TraceEvent::BarrierRelease {
                        at: release,
                        epoch: self.epoch,
                    });
                }
                self.epoch += 1;
                self.refresh_all();
                continue;
            }

            self.threads[i].clock = Cycles(ready);
            self.local_only = true;
            self.step(i, workload, resolver);
            // Interactions that could change another thread's ready time
            // (aborts, shootdowns, lock hand-offs) all clear `local_only`.
            if self.local_only {
                self.ready[i] = self.ready_at(i);
            } else {
                self.refresh_all();
            }
        }
    }

    /// The earliest time thread `i` can step, or `u64::MAX` if it is
    /// parked at the barrier, done, or waiting on a held lock.
    #[inline]
    fn ready_at(&self, i: usize) -> u64 {
        let t = &self.threads[i];
        match t.mode {
            Mode::Done | Mode::AtBarrier => u64::MAX,
            Mode::WaitLockHtm | Mode::WaitLockFallback => {
                if self.lock_holder.is_some() {
                    u64::MAX
                } else {
                    t.clock.max(self.lock_free_at).raw()
                }
            }
            Mode::WaitRetry => t.clock.max(t.resume_at).raw(),
            Mode::Idle | Mode::InTx | Mode::InFallback | Mode::NonTx => t.clock.raw(),
        }
    }

    fn refresh_all(&mut self) {
        for i in 0..self.threads.len() {
            self.ready[i] = self.ready_at(i);
        }
    }

    fn into_stats(mut self) -> RunStats {
        // Fold per-thread HTM stats.
        for t in &self.threads {
            let s = t.htm.stats();
            self.stats.commits += s.commits;
            self.stats.fallback_commits += s.fallback_commits;
            for (k, v) in s.aborts.iter().enumerate() {
                self.stats.aborts[k] += v;
            }
            self.stats.total_cycles = self.stats.total_cycles.max(t.clock);
            self.stats.sum_cycles += t.clock;
        }
        self.stats.vm = self.vm.stats();
        self.stats.cache = self.mem.stats();
        self.stats.safe_pages = self.vm.safe_page_census();
        self.stats.steps = self.steps;
        if let Some(mut p) = self.profiler {
            self.stats.sharing = Some((
                p.safe_block_fraction(),
                p.safe_page_fraction(),
                p.safe_tx_read_fraction_page(),
                p.safe_tx_read_fraction_block(),
            ));
        }
        self.stats
    }

    /// Returns thread `i`'s finished program to the buffer pool.
    fn retire(&mut self, i: usize) {
        if let Some(p) = self.threads[i].prog.take() {
            if self.pool.len() < self.threads.len() {
                self.pool.push(p);
            }
        }
    }

    /// Executes one scheduling step for thread `i`.
    fn step(&mut self, i: usize, workload: &mut dyn Workload, resolver: &Resolver) {
        match self.threads[i].mode {
            Mode::Done | Mode::AtBarrier => unreachable!("parked threads never step"),
            Mode::Idle => {
                if S::ENABLED {
                    self.sink.emit(TraceEvent::SectionStart {
                        thread: ThreadId(i as u32),
                        at: self.threads[i].clock,
                    });
                }
                let Some(section) = workload.next_section(ThreadId(i as u32)) else {
                    self.threads[i].mode = Mode::Done;
                    return;
                };
                match resolver.resolve_into(section, self.pool.pop().unwrap_or_default()) {
                    None => self.threads[i].mode = Mode::AtBarrier,
                    Some(p) => {
                        let tx = p.is_tx();
                        self.threads[i].prog = Some(p);
                        if tx {
                            self.try_begin_tx(i);
                        } else {
                            self.threads[i].mode = Mode::NonTx;
                            self.threads[i].pos = 0;
                        }
                    }
                }
            }
            Mode::WaitRetry => self.try_begin_tx(i),
            Mode::WaitLockHtm => {
                debug_assert!(self.lock_holder.is_none());
                self.threads[i].clock = self.threads[i].clock.max(self.lock_free_at);
                self.try_begin_tx(i);
            }
            Mode::WaitLockFallback => {
                debug_assert!(self.lock_holder.is_none());
                self.threads[i].clock = self.threads[i].clock.max(self.lock_free_at);
                // Acquire the lock and kill every running transaction
                // (lock subscription).
                self.local_only = false;
                self.lock_holder = Some(i);
                if S::ENABLED {
                    self.sink.emit(TraceEvent::FallbackAcquire {
                        thread: ThreadId(i as u32),
                        at: self.threads[i].clock,
                    });
                }
                let mut running = self.active & !(1 << i);
                while running != 0 {
                    let j = running.trailing_zeros() as usize;
                    running &= running - 1;
                    debug_assert!(self.threads[j].htm.is_active());
                    self.abort_thread(j, AbortKind::FallbackLock);
                }
                self.threads[i].htm.enter_fallback();
                self.threads[i].mode = Mode::InFallback;
                self.threads[i].pos = 0;
            }
            Mode::NonTx => {
                let pos = self.threads[i].pos;
                let prog = self.threads[i].prog.as_ref().expect("NonTx has a program");
                if pos >= prog.len() {
                    self.threads[i].mode = Mode::Idle;
                    self.retire(i);
                    return;
                }
                self.threads[i].pos = pos + 1;
                let _ = self.exec_at(i, pos, false);
            }
            Mode::InFallback => {
                let pos = self.threads[i].pos;
                let prog = self.threads[i]
                    .prog
                    .as_ref()
                    .expect("InFallback has a program");
                if pos >= prog.len() {
                    self.threads[i].htm.commit_fallback();
                    if S::ENABLED {
                        self.sink.emit(TraceEvent::FallbackCommit {
                            thread: ThreadId(i as u32),
                            at: self.threads[i].clock,
                        });
                    }
                    // Releasing the lock can wake waiters: full rescan.
                    self.local_only = false;
                    self.lock_holder = None;
                    self.lock_free_at = self.threads[i].clock;
                    self.threads[i].mode = Mode::Idle;
                    self.retire(i);
                    return;
                }
                self.threads[i].pos = pos + 1;
                let _ = self.exec_at(i, pos, false);
            }
            Mode::InTx => {
                let pos = self.threads[i].pos;
                let prog = self.threads[i].prog.as_ref().expect("InTx has a program");
                if pos >= prog.len() {
                    // Commit. Footprint/set sizes/retries must be captured
                    // before `commit()` clears the tracker.
                    self.threads[i].clock += TX_COMMIT_COST;
                    if S::ENABLED {
                        self.sink.emit(TraceEvent::TxCommit {
                            thread: ThreadId(i as u32),
                            at: self.threads[i].clock,
                            read_set: self.threads[i].htm.read_set_size() as u32,
                            write_set: self.threads[i].htm.write_set_size() as u32,
                            footprint: self.threads[i].htm.footprint() as u32,
                            retries: self.threads[i].htm.retries(),
                        });
                    }
                    self.conflicts.release(i, &self.threads[i].htm);
                    self.threads[i].htm.commit();
                    self.active &= !(1 << i);
                    let bd = self.threads[i].attempt_breakdown;
                    for (k, v) in bd.iter().enumerate() {
                        self.stats.access_breakdown[k] += v;
                    }
                    if self.cfg.record_tx_sizes {
                        self.stats
                            .tx_sizes_all
                            .push(self.threads[i].fp_all.len() as u32);
                        self.stats
                            .tx_sizes_nonstatic
                            .push(self.threads[i].fp_nonstatic.len() as u32);
                        self.stats
                            .tx_sizes_unsafe
                            .push(self.threads[i].fp_unsafe.len() as u32);
                    }
                    self.threads[i].touched_safe_pages.clear();
                    self.threads[i].mode = Mode::Idle;
                    self.retire(i);
                    return;
                }
                self.threads[i].pos = pos + 1;
                let _ = self.exec_at(i, pos, true);
            }
        }
    }

    /// Starts (or queues) a transaction attempt for thread `i`. The body is
    /// already in `prog` and is reused verbatim across attempts.
    fn try_begin_tx(&mut self, i: usize) {
        if self.lock_holder.is_some() {
            self.threads[i].mode = Mode::WaitLockHtm;
            return;
        }
        self.threads[i].clock = self.threads[i].clock.max(self.lock_free_at) + TX_BEGIN_COST;
        let now = self.threads[i].clock;
        if S::ENABLED {
            self.sink.emit(TraceEvent::TxBegin {
                thread: ThreadId(i as u32),
                at: now,
            });
        }
        let t = &mut self.threads[i];
        t.htm.begin_at(now);
        self.active |= 1 << i;
        t.touched_safe_pages.clear();
        t.attempt_breakdown = [0; 3];
        t.fp_all.clear();
        t.fp_nonstatic.clear();
        t.fp_unsafe.clear();
        t.mode = Mode::InTx;
        t.pos = 0;
    }

    /// Aborts thread `j`'s active transaction and schedules its next move.
    fn abort_thread(&mut self, j: usize, kind: AbortKind) {
        debug_assert!(self.threads[j].htm.is_active());
        // Aborts may hit other threads than the one being stepped, and
        // always change clocks/modes: refresh every ready time.
        self.local_only = false;
        let at = self.threads[j].clock;
        let lost = at.saturating_sub(self.threads[j].htm.tx_start()).raw();
        // The tracker is cleared by `abort()` below; capture its footprint
        // for the event first.
        let footprint = self.threads[j].htm.footprint() as u32;
        let ki = AbortKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind");
        self.stats.wasted_cycles[ki] += lost;
        if kind == AbortKind::PageMode {
            self.stats.page_mode_cycles += lost;
        }
        // Roll back speculatively written lines (staged through the
        // engine's scratch buffer — no allocation).
        let core = self.threads[j].core;
        self.scratch.rollback.clear();
        self.threads[j]
            .htm
            .write_blocks_into(&mut self.scratch.rollback);
        for &b in self.scratch.rollback.iter() {
            self.mem.discard_local(core, b);
        }
        // LogTM-style eager versioning pays a log unroll per spilled block.
        let unroll = self.threads[j].htm.overflowed_blocks() * LOG_UNROLL_COST.raw();
        self.conflicts.release(j, &self.threads[j].htm);
        self.threads[j].htm.abort(kind);
        self.active &= !(1 << j);
        if S::ENABLED {
            self.sink.emit(TraceEvent::TxAbort {
                thread: ThreadId(j as u32),
                at,
                kind,
                lost,
                footprint,
                retries: self.threads[j].htm.retries(),
            });
        }
        self.threads[j].clock += ABORT_PENALTY + unroll;
        self.threads[j].touched_safe_pages.clear();

        debug_assert!(
            self.threads[j].mode == Mode::InTx,
            "active TX with mode {:?}",
            self.threads[j].mode
        );
        let retries = self.threads[j].htm.retries();
        if kind == AbortKind::FallbackLock {
            // Killed by a lock acquisition: just wait for the lock and
            // retry in HTM mode.
            self.threads[j].mode = Mode::WaitLockHtm;
        } else if kind == AbortKind::Capacity || retries > self.cfg.machine.max_retries {
            // Capacity aborts never succeed on retry (§I): fall back.
            self.threads[j].mode = Mode::WaitLockFallback;
        } else {
            let backoff =
                (BACKOFF_BASE.raw() << (retries.min(6).saturating_sub(1))) + 37 * j as u64; // deterministic per-thread jitter
            self.threads[j].mode = Mode::WaitRetry;
            self.threads[j].resume_at = self.threads[j].clock + backoff;
        }
    }

    /// Executes the slot at `pos` of thread `i`'s program straight from its
    /// packed (opword, payload, site) form. `in_tx` marks speculative
    /// execution (fallback and non-TX sections pass `false`). Suspend and
    /// resume are step-consuming no-ops: escape membership is pre-resolved
    /// into each access slot's `F_ESCAPED` bit, and the access record plus
    /// its block/page split are rebuilt with register arithmetic only on
    /// the access path.
    #[inline]
    fn exec_at(&mut self, i: usize, pos: usize, in_tx: bool) -> StepOutcome {
        let (w, payload, site) = self.threads[i].prog.as_ref().expect("program").packed(pos);
        match w & K_MASK {
            K_COMPUTE => {
                self.threads[i].clock += Cycles(payload);
                StepOutcome::Continue
            }
            K_SUSPEND | K_RESUME => StepOutcome::Continue,
            _ => {
                let access = decode_access(w, payload, site);
                let in_tx = in_tx && w & F_ESCAPED == 0;
                self.exec_access(
                    i,
                    access,
                    access.addr.block(),
                    access.addr.page(),
                    w & F_STATIC_SAFE != 0,
                    w & F_RAW_STATIC != 0,
                    in_tx,
                )
            }
        }
    }

    /// The six-stage access pipeline: VM +
    /// shootdowns, safety verdicts, cache probe, eager conflict detection,
    /// L1-eviction capacity aborts, profiling + transactional tracking.
    /// `in_tx` already accounts for escape windows.
    #[allow(clippy::too_many_arguments)]
    fn exec_access(
        &mut self,
        i: usize,
        a: MemAccess,
        block: BlockAddr,
        page: PageId,
        static_safe: bool,
        raw_static: bool,
        in_tx: bool,
    ) -> StepOutcome {
        let tid = ThreadId(i as u32);
        if S::ENABLED && self.sink.wants_accesses() {
            self.sink.emit(TraceEvent::Access {
                thread: tid,
                at: self.threads[i].clock,
                access: a,
                in_tx,
            });
        }
        let core = self.threads[i].core;

        // 1. Translation + dynamic page classification.
        let vm_res = self.vm.access(core, tid, page, a.kind);
        self.threads[i].clock += vm_res.cost;
        let mut self_aborted = false;
        if let Some(sd) = vm_res.shootdown {
            // Slave-core clock bumps and page-mode aborts reach beyond the
            // stepping thread.
            self.local_only = false;
            if S::ENABLED {
                self.sink.emit(TraceEvent::Shootdown {
                    thread: tid,
                    at: self.threads[i].clock,
                    page: sd.page,
                    slaves: sd.slave_cores.len() as u32,
                });
            }
            self.stats.page_mode_cycles += self.cfg.machine.shootdown_initiator_cost.raw();
            for slave in &sd.slave_cores {
                self.stats.page_mode_cycles += self.cfg.machine.shootdown_slave_cost.raw();
                for (j, t) in self.threads.iter_mut().enumerate() {
                    if t.core == *slave && j != i {
                        t.clock += self.cfg.machine.shootdown_slave_cost;
                    }
                }
            }
            // Page-mode abort every TX that safely touched the page.
            let mut running = self.active;
            while running != 0 {
                let j = running.trailing_zeros() as usize;
                running &= running - 1;
                if self.threads[j].touched_safe_pages.contains(&sd.page) {
                    if j == i {
                        self_aborted = true;
                    }
                    self.abort_thread(j, AbortKind::PageMode);
                }
            }
        }
        if self_aborted {
            return StepOutcome::SelfAborted;
        }

        // 2. Safety verdicts (static side pre-resolved into the op flags).
        let dyn_safe =
            self.uses_dynamic && !static_safe && a.kind == AccessKind::Load && vm_res.safe_load;
        let safe = in_tx && (static_safe || dyn_safe);

        // 3. Cache access (into the reused scratch outcome; the fields the
        // rest of this function needs are all `Copy`).
        self.mem
            .access_into(core, block, a.kind, &mut self.scratch.outcome);
        let latency = self.scratch.outcome.latency;
        let l1_victim = self.scratch.outcome.l1_victim;
        self.threads[i].clock += latency;
        if S::ENABLED {
            let invalidated = self.scratch.outcome.invalidated.len() as u32;
            let downgraded = self.scratch.outcome.downgraded.len() as u32;
            if invalidated != 0 || downgraded != 0 {
                self.sink.emit(TraceEvent::Coherence {
                    thread: tid,
                    at: self.threads[i].clock,
                    block,
                    invalidated,
                    downgraded,
                });
            }
        }

        // 4. Eager conflict detection against all other active TXs.
        self.scratch.victims.clear();
        let threads = &self.threads;
        self.conflicts.victims(
            i,
            block,
            a.kind,
            self.active,
            |j| &threads[j].htm,
            &mut self.scratch.victims,
        );
        for k in 0..self.scratch.victims.len() {
            let (j, kind) = self.scratch.victims[k];
            match self.cfg.machine.conflict_policy {
                ConflictPolicy::RequesterWins => self.abort_thread(j, kind),
                ConflictPolicy::ResponderWins => {
                    if in_tx && self.threads[i].htm.is_active() {
                        self.abort_thread(i, kind);
                        return StepOutcome::SelfAborted;
                    }
                    self.abort_thread(j, kind);
                }
            }
        }

        // 5. L1 eviction → in-L1 tracking capacity aborts (self or SMT
        // sibling sharing the L1).
        if let Some(victim) = l1_victim {
            if S::ENABLED {
                self.sink.emit(TraceEvent::L1Eviction {
                    thread: tid,
                    at: self.threads[i].clock,
                    block: victim,
                });
            }
            if self.active != 0 {
                self.scratch.evicted.clear();
                let mut running = self.active;
                while running != 0 {
                    let j = running.trailing_zeros() as usize;
                    running &= running - 1;
                    let t = &self.threads[j];
                    if t.core == core && t.htm.on_l1_eviction(victim) {
                        self.scratch.evicted.push(j);
                    }
                }
                for k in 0..self.scratch.evicted.len() {
                    let j = self.scratch.evicted[k];
                    if j == i {
                        self_aborted = true;
                    }
                    self.abort_thread(j, AbortKind::Capacity);
                }
                if self_aborted {
                    return StepOutcome::SelfAborted;
                }
            }
        }

        // 6. Profiling + transactional tracking.
        if let Some(p) = self.profiler.as_mut() {
            p.record(tid, a.addr, a.kind, in_tx);
        }
        if in_tx {
            let t = &mut self.threads[i];
            if dyn_safe && !t.touched_safe_pages.contains(&page) {
                t.touched_safe_pages.push(page);
            }
            let slot = if static_safe {
                0
            } else if dyn_safe {
                1
            } else {
                2
            };
            t.attempt_breakdown[slot] += 1;
            if self.cfg.record_tx_sizes {
                let raw_dyn = a.kind == AccessKind::Load && vm_res.safe_load;
                t.fp_all.insert(block);
                if !raw_static {
                    t.fp_nonstatic.insert(block);
                }
                if !raw_static && !raw_dyn {
                    t.fp_unsafe.insert(block);
                }
            }
            let pre_stretches = if self.uses_stretch {
                t.htm.stretch_events()
            } else {
                0
            };
            if t.htm.on_access(block, a.kind, safe).is_err() {
                self.abort_thread(i, AbortKind::Capacity);
                return StepOutcome::SelfAborted;
            }
            if !safe {
                self.conflicts.record(i, block, a.kind);
            }
            if self.uses_stretch {
                // A consumed stretch event is a suspend/resume round trip:
                // charge it to the stretching thread's clock.
                let t = &mut self.threads[i];
                let stretched = t.htm.stretch_events() - pre_stretches;
                t.clock += Cycles(stretched * STRETCH_COST.raw());
            }
        }
        StepOutcome::Continue
    }
}
