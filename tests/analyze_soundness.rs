//! Soundness harness for the static footprint analysis: the interval
//! bounds `hintm analyze` reports must dominate what the simulator
//! actually does.
//!
//! For every workload × capacity model we check two directions:
//!
//! 1. **Bound soundness** — the module-worst static upper bound on the
//!    read (resp. write) footprint is ≥ the largest committed read-set
//!    (resp. write-set) the traced run observed. A transaction the
//!    analysis says "fits" but that dynamically overflows would show up
//!    here as a bound violation.
//! 2. **Fits verdicts are real** — when the worst verdict for a model is
//!    `fits`, a run on that model's HTM must exhibit zero capacity
//!    aborts.
//!
//! Dynamic sizes are commit-time set sizes, so aborted (overflowing)
//! attempts never weaken the check: committed footprints are always a
//! subset of what the static analysis bounded.

use hintm::{AbortKind, Cell, HtmKind};
use hintm_audit::{analyze_workload, AnalyzeReport, Scale};
use hintm_ir::{Bound, CapacityModel, Verdict};
use hintm_workloads::WORKLOAD_NAMES;

/// The HTM configuration each static capacity model describes.
fn htm_for(model: CapacityModel) -> HtmKind {
    match model {
        CapacityModel::P8 => HtmKind::P8,
        CapacityModel::P8S => HtmKind::P8S,
        CapacityModel::L1Tm => HtmKind::L1Tm,
        CapacityModel::Lrws => HtmKind::Lrws,
        CapacityModel::PStretch => HtmKind::PStretch,
    }
}

/// Module-worst upper bound across transactions: `Unbounded` dominates
/// every dynamic observation.
fn worst_hi(report: &AnalyzeReport, pick: impl Fn(&hintm_ir::TxFootprint) -> Bound) -> Bound {
    report
        .footprint
        .txs
        .iter()
        .map(pick)
        .fold(Bound::Finite(0), |acc, b| match (acc, b) {
            (Bound::Finite(a), Bound::Finite(x)) => Bound::Finite(a.max(x)),
            _ => Bound::Unbounded,
        })
}

fn dominates(bound: Bound, observed: u64) -> bool {
    match bound {
        Bound::Finite(n) => n >= observed,
        Bound::Unbounded => true,
    }
}

#[test]
fn static_bounds_dominate_dynamic_footprints() {
    for name in WORKLOAD_NAMES {
        let report = analyze_workload(name, Scale::Sim).expect("known workload");
        let read_hi = worst_hi(&report, |tx| tx.read_hi);
        let write_hi = worst_hi(&report, |tx| tx.write_hi);
        for model in CapacityModel::ALL {
            let (run, _) = Cell::new(name)
                .htm(htm_for(model))
                .run_traced(1)
                .expect("known workload");
            let trace = run.trace.expect("traced run records metrics");
            assert!(
                dominates(read_hi, trace.read_set.max),
                "{name} on {}: static read bound {read_hi} < dynamic max read-set {}",
                model.name(),
                trace.read_set.max,
            );
            assert!(
                dominates(write_hi, trace.write_set.max),
                "{name} on {}: static write bound {write_hi} < dynamic max write-set {}",
                model.name(),
                trace.write_set.max,
            );
        }
    }
}

#[test]
fn fits_verdicts_mean_no_capacity_aborts() {
    let mut fits_cases = 0usize;
    for name in WORKLOAD_NAMES {
        let report = analyze_workload(name, Scale::Sim).expect("known workload");
        for model in CapacityModel::ALL {
            if report.worst(model) != Verdict::Fits {
                continue;
            }
            fits_cases += 1;
            let (run, _) = Cell::new(name)
                .htm(htm_for(model))
                .run_traced(1)
                .expect("known workload");
            assert_eq!(
                run.stats.aborts_of(AbortKind::Capacity),
                0,
                "{name} statically fits {} but dynamically overflowed",
                model.name(),
            );
        }
    }
    // kmeans and ssca2 fit all five models; tpcc-p fits P8S, LRWS and
    // PStretch; tpcc-no fits P8S.
    assert_eq!(fits_cases, 14, "expected fits verdicts drifted");
}

#[test]
fn must_overflow_verdicts_mean_capacity_aborts_happen() {
    // labyrinth is guaranteed to exceed every bounded buffer model (its
    // write set alone overflows the 64-entry buffer, which no amount of
    // read spilling or stretching relieves): the run must actually hit
    // capacity aborts there, proving the lower bounds are not vacuous.
    let report = analyze_workload("labyrinth", Scale::Sim).expect("known workload");
    for model in [
        CapacityModel::P8,
        CapacityModel::P8S,
        CapacityModel::Lrws,
        CapacityModel::PStretch,
    ] {
        assert_eq!(report.worst(model), Verdict::MustOverflow);
        let (run, _) = Cell::new("labyrinth")
            .htm(htm_for(model))
            .run_traced(1)
            .expect("known workload");
        assert!(
            run.stats.aborts_of(AbortKind::Capacity) > 0,
            "labyrinth must-overflows {} statically but aborted zero times",
            model.name(),
        );
    }
}

/// Malloc placement is a real capacity axis: coloring genome's heap
/// arenas (`--alloc-color`) moves which allocations share cache sets and
/// shifts the P8 capacity-abort count — but never the committed outcome.
/// Both pinned counts come from the same seed-42 run the digest table
/// locks; a drift here means heap placement leaked into tracking
/// semantics (or vice versa) rather than just into addresses.
#[test]
fn alloc_coloring_shifts_capacity_aborts_not_commits() {
    let run_colored = |stride: u64| {
        Cell::new("genome")
            .htm(HtmKind::P8)
            .alloc_color(stride)
            .run()
            .expect("known workload")
    };
    let plain = run_colored(0);
    let colored = run_colored(64);

    // The sensitivity itself, pinned: different placements, different
    // capacity pressure.
    assert_eq!(plain.stats.aborts_of(AbortKind::Capacity), 172);
    assert_eq!(colored.stats.aborts_of(AbortKind::Capacity), 181);

    // ... but placement must never change what commits: every transaction
    // still completes (in HTM or on the fallback path) under both
    // placements.
    let committed = |r: &hintm::RunReport| r.stats.commits + r.stats.fallback_commits;
    assert_eq!(
        committed(&plain),
        committed(&colored),
        "alloc coloring changed the committed transaction count"
    );
    assert_eq!(committed(&plain), 352);
}
