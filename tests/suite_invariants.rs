//! Cross-crate integration tests: invariants that must hold for every
//! workload under every HTM/hint configuration.

use hintm::{AbortKind, Cell, HintMode, HtmKind, Scale, WORKLOAD_NAMES};

/// Sections a workload generates are fixed per seed, so every configuration
/// must complete the same number of transactions (hints and capacity only
/// change *how* they complete, never *whether*).
#[test]
fn every_config_completes_the_same_work() {
    for name in WORKLOAD_NAMES {
        let base = Cell::new(name).htm(HtmKind::P8).seed(3).run().unwrap();
        let expected = base.stats.commits + base.stats.fallback_commits;
        assert!(expected > 0, "{name} did no work");
        for (htm, hint) in [
            (HtmKind::P8, HintMode::Static),
            (HtmKind::P8, HintMode::Dynamic),
            (HtmKind::P8, HintMode::Full),
            (HtmKind::P8S, HintMode::Off),
            (HtmKind::L1Tm, HintMode::Off),
            (HtmKind::InfCap, HintMode::Off),
        ] {
            let r = Cell::new(name).htm(htm).hint(hint).seed(3).run().unwrap();
            assert_eq!(
                r.stats.commits + r.stats.fallback_commits,
                expected,
                "{name} on {htm}/{hint} lost or duplicated transactions"
            );
        }
    }
}

/// InfCap is the capacity-abort-free upper bound by construction.
#[test]
fn infcap_never_capacity_aborts_on_any_workload() {
    for name in WORKLOAD_NAMES {
        let r = Cell::new(name).htm(HtmKind::InfCap).seed(5).run().unwrap();
        assert_eq!(
            r.stats.aborts_of(AbortKind::Capacity),
            0,
            "{name}: InfCap must never capacity-abort"
        );
        assert_eq!(
            r.stats.aborts_of(AbortKind::FalseConflict),
            0,
            "{name}: no signature"
        );
    }
}

/// Hints only *remove* tracking pressure: full HinTM must never see more
/// capacity aborts than the baseline on the same HTM.
#[test]
fn hints_never_increase_capacity_aborts() {
    for name in WORKLOAD_NAMES {
        let base = Cell::new(name).htm(HtmKind::P8).seed(7).run().unwrap();
        let full = Cell::new(name)
            .htm(HtmKind::P8)
            .hint(HintMode::Full)
            .seed(7)
            .run()
            .unwrap();
        assert!(
            full.stats.aborts_of(AbortKind::Capacity) <= base.stats.aborts_of(AbortKind::Capacity),
            "{name}: hints increased capacity aborts ({} > {})",
            full.stats.aborts_of(AbortKind::Capacity),
            base.stats.aborts_of(AbortKind::Capacity),
        );
    }
}

/// Page-mode aborts require the dynamic mechanism; without it the VM never
/// feeds page-mode kills into the HTM.
#[test]
fn page_mode_aborts_only_with_dynamic_hints() {
    for name in WORKLOAD_NAMES {
        for hint in [HintMode::Off, HintMode::Static] {
            let r = Cell::new(name)
                .htm(HtmKind::P8)
                .hint(hint)
                .seed(2)
                .run()
                .unwrap();
            assert_eq!(
                r.stats.aborts_of(AbortKind::PageMode),
                0,
                "{name} [{hint}]: page-mode abort without dynamic classification"
            );
        }
    }
}

/// The whole suite is bit-deterministic per seed.
#[test]
fn suite_is_deterministic() {
    for name in WORKLOAD_NAMES {
        let a = Cell::new(name).hint(HintMode::Full).seed(11).run().unwrap();
        let b = Cell::new(name).hint(HintMode::Full).seed(11).run().unwrap();
        assert_eq!(
            a.stats.total_cycles, b.stats.total_cycles,
            "{name} diverged"
        );
        assert_eq!(
            a.stats.aborts, b.stats.aborts,
            "{name} abort counts diverged"
        );
        assert_eq!(a.stats.steps, b.stats.steps, "{name} step counts diverged");
    }
}

/// Different seeds produce different executions (the RNG plumbing works).
#[test]
fn seeds_matter() {
    let a = Cell::new("vacation").seed(1).run().unwrap();
    let b = Cell::new("vacation").seed(2).run().unwrap();
    assert_ne!(a.stats.total_cycles, b.stats.total_cycles);
}

/// Static classification is computed once per workload construction and is
/// identical across instances (the compiler is deterministic).
#[test]
fn static_classification_is_stable() {
    for name in WORKLOAD_NAMES {
        let w1 = hintm::by_name(name, Scale::Sim).unwrap();
        let w2 = hintm::by_name(name, Scale::Sim).unwrap();
        assert_eq!(w1.static_safe_sites(), w2.static_safe_sites(), "{name}");
    }
}

/// The paper's structural claims about static classification (Fig. 5).
#[test]
fn static_classification_matches_paper_structure() {
    let empty = ["genome", "intruder", "yada"];
    for name in WORKLOAD_NAMES {
        let w = hintm::by_name(name, Scale::Sim).unwrap();
        let sites = w.static_safe_sites();
        if empty.contains(&name) {
            assert!(
                sites.is_empty(),
                "{name}: the paper's static pass finds nothing"
            );
        } else {
            assert!(
                !sites.is_empty(),
                "{name}: expected some statically-safe sites"
            );
        }
    }
}

/// Safe pages never exceed total pages; census is self-consistent.
#[test]
fn page_census_is_consistent() {
    for name in WORKLOAD_NAMES {
        let r = Cell::new(name).hint(HintMode::Full).seed(4).run().unwrap();
        let (safe, total) = r.stats.safe_pages;
        assert!(safe <= total, "{name}: safe pages {safe} > total {total}");
        assert!(total > 0, "{name}: no pages touched");
    }
}

/// The access breakdown covers exactly the in-TX accesses of committed
/// attempts and its slots are used as designed.
#[test]
fn access_breakdown_sums_are_sane() {
    let r = Cell::new("labyrinth")
        .hint(HintMode::Full)
        .preserve(true)
        .seed(6)
        .run()
        .unwrap();
    let [st, dy, un] = r.stats.access_breakdown;
    assert!(st > 0, "labyrinth has static-safe accesses");
    assert!(un > 0, "the overlay traffic is unsafe");
    assert!(st + dy + un > 1000, "labyrinth TXs are access-heavy");
    // Baseline mode classifies nothing.
    let base = Cell::new("labyrinth").seed(6).run().unwrap();
    assert_eq!(base.stats.access_breakdown[0], 0);
    assert_eq!(base.stats.access_breakdown[1], 0);
}

/// SMT-2 halves the core count per thread but still completes everything.
#[test]
fn smt2_runs_complete() {
    let r = Cell::new("vacation")
        .htm(HtmKind::L1Tm)
        .threads(16)
        .smt2(true)
        .seed(9)
        .run()
        .unwrap();
    assert_eq!(r.stats.commits + r.stats.fallback_commits, 16 * 260);
}
