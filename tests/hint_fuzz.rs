//! Hint-soundness fuzzer over random IR modules.
//!
//! A safe hint lets the HTM skip tracking an access, so a hint is sound
//! only if the access never races (§IV-A). `hintm audit` checks the ten
//! suite workloads' hints; this test checks the static classifier on
//! arbitrary modules. It feeds 256 seeded random IR modules (the
//! footprint property suite's generator, extended with geps, branches,
//! pointer stores and calls) through [`hintm_workloads::IrExec`], which
//! runs any module as a deterministic workload. Each case runs under a
//! rotating HTM model × hint mode, and a slice of cases is also
//! escape-encoded, so the lowering's suspend/resume folding is exercised.
//! Every case must satisfy two properties:
//!
//! * **soundness**: the dynamic sharing oracle
//!   ([`hintm_audit::OracleRecorder`]) observes the run and finds no
//!   racing access at any site [`hintm_ir::classify`] declared safe;
//! * **sink passivity**: [`Simulator::run`] and
//!   [`Simulator::run_with_sink`] with a [`DigestSink`] return identical
//!   `RunStats`.
//!
//! A teeth check guards the oracle itself: with every site declared safe
//! it must flag some cases, or the soundness check could pass vacuously.
//!
//! On a failure the module is shrunk by greedily dropping statements from
//! its functions while the failure reproduces, then pretty-printed, so the
//! report is a minimal reproducer rather than a 40-statement haystack.

use hintm::HtmKind;
use hintm_audit::OracleRecorder;
use hintm_ir::{classify, print_module, Module, ModuleBuilder};
use hintm_sim::{EscapeEncoded, HintMode, SimConfig, Simulator, Workload};
use hintm_trace::DigestSink;
use hintm_types::rng::SmallRng;
use hintm_types::SiteId;
use hintm_workloads::IrExec;
use std::collections::BTreeSet;

const CASES: usize = 256;
/// Seed of every simulated run.
const SEED: u64 = 42;
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

/// Runs `module` as case `case` under the sharing oracle.
fn observe(module: &Module, case: usize) -> OracleRecorder {
    let mut oracle = OracleRecorder::new();
    Simulator::new(config(case)).run_with_sink(workload(module, case).as_mut(), SEED, &mut oracle);
    oracle
}

/// Every access site of `module` (sites are dense `0..num_sites`).
fn every_site(module: &Module) -> BTreeSet<SiteId> {
    (0..module.num_sites).map(SiteId).collect()
}

/// Runs `module` as case `case`; `Some(description)` if a site the
/// classifier declared safe races, or a digest sink changes the stats.
fn failure(module: &Module, case: usize) -> Option<String> {
    let sim = Simulator::new(config(case));
    let plain = sim.run(workload(module, case).as_mut(), SEED);
    let traced = sim.run_with_sink(
        workload(module, case).as_mut(),
        SEED,
        &mut DigestSink::new(),
    );
    let (plain, traced) = (format!("{plain:?}"), format!("{traced:?}"));
    if plain != traced {
        return Some(format!(
            "RunStats diverged under a DigestSink:\n  run:           {plain}\n  \
             run_with_sink: {traced}"
        ));
    }
    let unsound = observe(module, case)
        .evaluate(classify(module).safe_sites())
        .unsound;
    if !unsound.is_empty() {
        return Some(format!("unsound safe hints: {unsound:?}"));
    }
    None
}

/// Greedy structural shrink: repeatedly drop one top-level statement from
/// any function while the failure still reproduces.
fn shrink(mut module: Module, case: usize) -> Module {
    loop {
        let mut shrunk = false;
        'search: for f in 0..module.funcs.len() {
            for i in 0..module.funcs[f].body.len() {
                let mut candidate = module.clone();
                candidate.funcs[f].body.remove(i);
                if failure(&candidate, case).is_some() {
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
fn classifier_hints_are_sound_on_random_modules() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let mut flagged_when_all_safe = 0;
    for case in 0..CASES {
        let module = rand_module(&mut rng);
        if let Some(why) = failure(&module, case) {
            let minimal = shrink(module, case);
            let why = failure(&minimal, case).unwrap_or(why);
            panic!(
                "case {case} ({:?} x {:?}): {why}\nminimized reproducer:\n{}",
                MODELS[case % MODELS.len()],
                HINTS[case % HINTS.len()],
                print_module(&minimal, None),
            );
        }
        let all = observe(&module, case).evaluate(&every_site(&module));
        if !all.unsound.is_empty() {
            flagged_when_all_safe += 1;
        }
    }
    // Teeth: the generator does produce racing sites, and the oracle sees
    // them once they are declared safe.
    assert!(
        flagged_when_all_safe > 0,
        "declaring every site safe flagged none of {CASES} cases: the \
         soundness check above would pass vacuously"
    );
}
