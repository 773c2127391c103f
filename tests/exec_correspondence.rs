//! Static-to-compiled correspondence: the access programs the section
//! lowering emits for the real workload suite must land inside the
//! footprint envelope `hintm analyze` derives from each workload's IR
//! module.
//!
//! The static pipeline and the engine's lowering describe the same
//! transactions from opposite ends — one bounds distinct cache blocks from
//! the IR, the other lowers the concrete generated sections to flat
//! slot arrays with an exact per-program block count. For every workload
//! we drain the full section stream (seed 42, sim scale) through
//! [`SectionCompiler`] and check each transactional program's
//! `distinct_blocks()` against the module-wide envelope:
//!
//! * every program stays at or below the largest per-transaction upper
//!   bound (`total_hi`; `Unbounded` dominates everything), and
//! * the stream's largest program reaches at least the smallest
//!   per-transaction guarantee (`total_lo`) — per-TX lower bounds cannot
//!   apply pointwise because the hand-written streams also emit small
//!   bookkeeping transactions the idealized module does not model.
//!
//! A lowering bug that dropped or duplicated accesses, or an analysis
//! regression that narrowed a bound below reality, breaks the sandwich.

use hintm_ir::{footprint, points_to, Bound};
use hintm_sim::{SectionCompiler, SimConfig};
use hintm_types::ThreadId;
use hintm_workloads::{by_name, ir_module, Scale, WORKLOAD_NAMES};

/// The module-wide `[lo, hi]` distinct-block envelope across transactions.
fn envelope(name: &str) -> (u64, Bound) {
    let module = ir_module(name, Scale::Sim).expect("workload ships a module");
    let pt = points_to(&module);
    let fp = footprint(&module, &pt);
    assert!(
        !fp.txs.is_empty(),
        "{name}: module declares no transactions"
    );
    let lo = fp.txs.iter().map(|tx| tx.total_lo).min().unwrap();
    let hi = fp
        .txs
        .iter()
        .map(|tx| tx.total_hi)
        .fold(Bound::Finite(0), |acc, b| match (acc, b) {
            (Bound::Finite(a), Bound::Finite(x)) => Bound::Finite(a.max(x)),
            _ => Bound::Unbounded,
        });
    (lo, hi)
}

#[test]
fn compiled_programs_fit_the_static_footprint_envelope() {
    for name in WORKLOAD_NAMES {
        let (lo, hi) = envelope(name);
        let mut w = by_name(name, Scale::Sim).expect("known workload");
        w.reset(42);
        let cfg = SimConfig::default();
        let mut compiler = SectionCompiler::new(w.as_mut(), &cfg);

        let threads = w.num_threads();
        let mut live: Vec<bool> = vec![true; threads];
        let mut txs = 0u64;
        let mut largest = 0u64;
        while live.iter().any(|&l| l) {
            for (t, alive) in live.iter_mut().enumerate() {
                if !*alive {
                    continue;
                }
                let Some(section) = w.next_section(ThreadId(t as u32)) else {
                    *alive = false;
                    continue;
                };
                let Some(program) = compiler.compile(&section) else {
                    continue; // barriers carry no accesses
                };
                if !program.is_tx() {
                    continue;
                }
                txs += 1;
                let blocks = program.distinct_blocks() as u64;
                largest = largest.max(blocks);
                match hi {
                    Bound::Finite(n) => assert!(
                        blocks <= n,
                        "{name}: compiled TX touches {blocks} distinct blocks, \
                         above the static upper bound {n}"
                    ),
                    Bound::Unbounded => {}
                }
            }
        }
        assert!(txs > 0, "{name}: stream contained no transactions");
        assert!(
            largest >= lo,
            "{name}: largest compiled TX touches {largest} distinct blocks, \
             below even the weakest static guarantee {lo}"
        );
    }
}
