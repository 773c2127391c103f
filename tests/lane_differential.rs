//! Serial-vs-lane differential fuzzer.
//!
//! The engine runs a workload either serially — the merge loop generates
//! each section and lowers it into the buffer of a retired program — or on
//! host lanes (`--sim-threads`), where lane workers generate and lower
//! sections ahead of execution into fresh buffers and the merge loop
//! replays them in canonical core order. The contract this test enforces:
//! **for any module, every observable output is bit-identical at 1 and 4
//! lanes** — the full FNV-64 trace digest (every lifecycle event, access,
//! eviction, shootdown, barrier epoch in scheduling order) and the
//! complete `RunStats` fingerprint. The blessed digest table covers only
//! the ten suite workloads; this covers arbitrary ones.
//!
//! The fuzzer feeds ≥256 seeded random IR modules (the footprint property
//! suite's generator, extended with geps, branches, pointer stores and
//! calls) through [`hintm_workloads::IrExec`], which turns an arbitrary
//! module into a deterministic workload with thread-local generation, so
//! the lane engine engages. Each case runs across a rotating HTM model ×
//! hint mode, with a slice of cases additionally escape-encoded so the
//! lowering's suspend/resume folding is exercised.
//!
//! On a mismatch the failing module is shrunk by greedily dropping
//! statements from its functions while the divergence reproduces, then
//! pretty-printed, so the report is a minimal reproducer rather than a
//! 40-statement haystack.

use hintm::HtmKind;
use hintm_ir::{print_module, Module, ModuleBuilder};
use hintm_sim::{EscapeEncoded, HintMode, SimConfig, Simulator, Workload};
use hintm_trace::DigestSink;
use hintm_types::config::AbortKind;
use hintm_types::rng::SmallRng;
use hintm_workloads::IrExec;
use std::fmt::Write as _;

const CASES: usize = 256;
/// Lane counts compared: the serial feed against the lane engine.
const LANES: [usize; 2] = [1, 4];
const MODELS: [HtmKind; 8] = [
    HtmKind::P8,
    HtmKind::P8S,
    HtmKind::L1Tm,
    HtmKind::InfCap,
    HtmKind::Rot,
    HtmKind::LogTm,
    HtmKind::Lrws,
    HtmKind::PStretch,
];
const HINTS: [HintMode; 4] = [
    HintMode::Off,
    HintMode::Static,
    HintMode::Dynamic,
    HintMode::Full,
];

/// A worker whose single transaction is generated from `rng`: sized and
/// unsized allocations, loads, stores, memcpys, geps, pointer round trips,
/// helper calls, branches, and bounded or unbounded loops around access
/// clusters. A superset of the footprint property suite's generator.
fn rand_module(rng: &mut SmallRng) -> Module {
    let mut m = ModuleBuilder::new();
    let g = m.global("g");

    let mut h = m.func("helper", 1);
    let hp = h.param(0);
    h.load(hp);
    h.store(hp);
    h.ret_val(hp);
    let helper = h.finish();

    let mut w = m.func("worker", 0);
    let mut pool = vec![w.halloc_sized(rng.gen_range(1..2048u64)), w.alloca()];
    if rng.gen_range(0..2u32) == 0 {
        pool.push(w.global_addr(g));
    }
    w.tx_begin();
    let n = rng.gen_range(1..8usize);
    for _ in 0..n {
        let p = pool[rng.gen_range(0..pool.len())];
        let q = pool[rng.gen_range(0..pool.len())];
        let looped = rng.gen_range(0..3u32);
        if looped == 1 {
            w.begin_loop_bounded(rng.gen_range(0..16u32));
        } else if looped == 2 {
            w.begin_loop();
        }
        match rng.gen_range(0..7u32) {
            0 => {
                w.load(p);
            }
            1 => {
                w.store(p);
            }
            2 => {
                w.memcpy(p, q);
            }
            3 => {
                let d = w.gep(p);
                w.load(d);
            }
            4 => {
                w.store_ptr(p, q);
                let (r, _) = w.load_ptr(p);
                w.load(r);
            }
            5 => {
                w.begin_if();
                w.load(p);
                w.begin_else();
                w.store(q);
                w.end_block();
            }
            _ => {
                w.call(helper, vec![p]);
            }
        }
        if looped != 0 {
            w.end_block();
        }
    }
    w.tx_end();
    if rng.gen_range(0..2u32) == 0 {
        w.load(pool[0]); // trailing non-transactional stretch
    }
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    main.spawn(worker, vec![]);
    main.ret();
    let entry = main.finish();
    m.finish(entry, worker)
}

/// The per-case simulator configuration, rotated so the fuzzer sweeps
/// every HTM model and hint mode (hinted runs drive the lowering's
/// static-safe and escape-window slot flags).
fn config(case: usize) -> SimConfig {
    SimConfig::with_htm(MODELS[case % MODELS.len()]).hint_mode(HINTS[case % HINTS.len()])
}

fn workload(module: &Module, case: usize) -> Box<dyn Workload> {
    let inner = IrExec::new(module.clone(), 2 + case % 3, 1 + case % 2);
    if case.is_multiple_of(5) {
        // Escape-encode a slice of cases: safe sites become suspend/resume
        // windows in the op stream, covering the suspend/resume opwords
        // and escape folding.
        Box::new(EscapeEncoded::new(Box::new(inner)))
    } else {
        Box::new(inner)
    }
}

fn fingerprint(module: &Module, case: usize, lanes: usize) -> (u64, String) {
    let mut w = workload(module, case);
    let mut sink = DigestSink::new();
    let stats =
        Simulator::new(config(case).sim_threads(lanes)).run_with_sink(w.as_mut(), 42, &mut sink);
    (sink.digest(), format!("{stats:?}"))
}

/// Runs `module` serially and on lanes; `Some(description)` if any
/// observable output differs.
fn mismatch(module: &Module, case: usize) -> Option<String> {
    let [serial, laned] = LANES;
    let (ds, ss) = fingerprint(module, case, serial);
    let (dl, sl) = fingerprint(module, case, laned);
    if ds != dl {
        return Some(format!(
            "trace digest {ds:016x} ({serial} lane) != {dl:016x} ({laned} lanes)"
        ));
    }
    if ss != sl {
        return Some(format!(
            "RunStats diverged:\n  {serial} lane:  {ss}\n  {laned} lanes: {sl}"
        ));
    }
    None
}

/// Per-model abort-kind histograms for a (usually minimized) module: the
/// module is re-run serially under every HTM model at the failing case's
/// hint mode, and each model's abort counts are tabulated by
/// [`AbortKind`]. Attached to the minimal-reproducer report so a
/// divergence can be read against how each capacity model actually aborts
/// on the same access stream — a lane bug that only shows under one model
/// usually correlates with that model's abort column.
fn abort_histograms(module: &Module, case: usize) -> String {
    let mut out = String::from("per-model abort-kind histogram (serial):\n");
    writeln!(
        out,
        "  {:>8}  {:>8} {:>8} {:>14} {:>9} {:>13}",
        "model", "conflict", "capacity", "false-conflict", "page-mode", "fallback-lock"
    )
    .unwrap();
    for &m in &MODELS {
        let mut w = workload(module, case);
        let cfg = SimConfig::with_htm(m).hint_mode(HINTS[case % HINTS.len()]);
        let stats = Simulator::new(cfg).run(w.as_mut(), 42);
        write!(out, "  {:>8}", m.to_string()).unwrap();
        writeln!(
            out,
            "  {:>8} {:>8} {:>14} {:>9} {:>13}",
            stats.aborts_of(AbortKind::Conflict),
            stats.aborts_of(AbortKind::Capacity),
            stats.aborts_of(AbortKind::FalseConflict),
            stats.aborts_of(AbortKind::PageMode),
            stats.aborts_of(AbortKind::FallbackLock),
        )
        .unwrap();
    }
    out
}

/// Greedy structural shrink: repeatedly drop one top-level statement from
/// any function while the divergence still reproduces.
fn shrink(mut module: Module, case: usize) -> Module {
    loop {
        let mut shrunk = false;
        'search: for f in 0..module.funcs.len() {
            for i in 0..module.funcs[f].body.len() {
                let mut candidate = module.clone();
                candidate.funcs[f].body.remove(i);
                if mismatch(&candidate, case).is_some() {
                    module = candidate;
                    shrunk = true;
                    break 'search;
                }
            }
        }
        if !shrunk {
            return module;
        }
    }
}

#[test]
fn random_modules_execute_identically_at_every_lane_count() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for case in 0..CASES {
        let module = rand_module(&mut rng);
        if let Some(why) = mismatch(&module, case) {
            let minimal = shrink(module, case);
            panic!(
                "case {case} ({:?} x {:?}): the lane engine diverged from the \
                 serial run: {why}\nminimized reproducer:\n{}\n{}",
                MODELS[case % MODELS.len()],
                HINTS[case % HINTS.len()],
                print_module(&minimal, None),
                abort_histograms(&minimal, case),
            );
        }
    }
}
