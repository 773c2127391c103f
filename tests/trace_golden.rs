//! Golden trace snapshots: the first events and final counters of every
//! workload's run, pinned byte-for-byte.
//!
//! The replay suite proves a run agrees with *itself*; these snapshots pin
//! the stream against *history*, catching silent changes to event
//! emission order, field semantics, or the `Display` format that
//! self-consistency cannot see. All ten workloads are pinned, so any
//! engine data-structure change (e.g. the flat hot-path rewrite) is locked
//! by digests on the whole suite, not a sample.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! HINTM_BLESS=1 cargo test --test trace_golden
//! ```

use hintm::Experiment;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Events quoted verbatim at the top of each snapshot.
const HEAD: usize = 40;

fn render(name: &str) -> String {
    let (r, rec) = Experiment::new(name).seed(42).run_traced(1 << 22).unwrap();
    assert_eq!(rec.dropped(), 0, "{name}: raise the trace capacity");
    let t = r.trace.expect("traced run carries a summary");
    let mut out = String::new();
    writeln!(out, "# {name} seed=42 P8 baseline: first {HEAD} events").unwrap();
    for ev in rec.events().iter().take(HEAD) {
        writeln!(out, "{ev}").unwrap();
    }
    writeln!(out, "# final counters").unwrap();
    writeln!(out, "events={} digest={:016x}", t.events, t.digest).unwrap();
    writeln!(
        out,
        "sections={} barriers={} begins={} commits={} fallback={}/{}",
        t.sections, t.barriers, t.begins, t.commits, t.fallback_acquires, t.fallback_commits
    )
    .unwrap();
    writeln!(out, "aborts={:?} lost_cycles={:?}", t.aborts, t.lost_cycles).unwrap();
    writeln!(
        out,
        "accesses={} tx_accesses={} l1_evictions={} invalidations={} \
         downgrades={} shootdowns={}",
        t.accesses, t.tx_accesses, t.l1_evictions, t.invalidations, t.downgrades, t.shootdowns
    )
    .unwrap();
    writeln!(
        out,
        "occupancy_hwm={} commit_footprint={:?} read_set={:?} write_set={:?} retries={:?}",
        t.occupancy_hwm, t.commit_footprint, t.read_set, t.write_set, t.retries
    )
    .unwrap();
    out
}

fn check(name: &str) {
    let got = render(name);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace.txt"));
    if std::env::var_os("HINTM_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with HINTM_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: trace drifted from the golden snapshot; if the change is \
         intentional, bless it with HINTM_BLESS=1"
    );
}

macro_rules! golden_tests {
    ($($fn_name:ident => $name:literal),* $(,)?) => {$(
        #[test]
        fn $fn_name() {
            check($name);
        }
    )*};
}

golden_tests! {
    bayes_trace_matches_golden_snapshot => "bayes",
    genome_trace_matches_golden_snapshot => "genome",
    intruder_trace_matches_golden_snapshot => "intruder",
    kmeans_trace_matches_golden_snapshot => "kmeans",
    labyrinth_trace_matches_golden_snapshot => "labyrinth",
    ssca2_trace_matches_golden_snapshot => "ssca2",
    vacation_trace_matches_golden_snapshot => "vacation",
    yada_trace_matches_golden_snapshot => "yada",
    tpcc_trace_matches_golden_snapshot => "tpcc-no",
    tpcc_p_trace_matches_golden_snapshot => "tpcc-p",
}

/// Every registered workload has a pinned snapshot (catches a workload
/// added without blessing a golden file for it).
#[test]
fn golden_suite_covers_every_workload() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for name in hintm::WORKLOAD_NAMES {
        let path = dir.join(format!("{name}.trace.txt"));
        assert!(
            path.exists() || std::env::var_os("HINTM_BLESS").is_some_and(|v| v == "1"),
            "no golden snapshot for `{name}`; bless it with HINTM_BLESS=1"
        );
    }
}
