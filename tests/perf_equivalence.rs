//! Digest-locked engine equivalence: the hot-path data-structure rewrite
//! (flat `BlockSet` trackers, flat VM page table, sorted-run heap free
//! lists, allocation-free engine scratch) must be *observably invisible*.
//!
//! Every workload, under every HTM model, must reproduce the exact FNV-64
//! trace digest and `RunStats` fingerprint recorded from the
//! pre-optimization `HashMap`-based engine. The blessed table lives in
//! `tests/golden/digest_table.inc` and is committed; to regenerate after an
//! *intentional* semantic change:
//!
//! ```text
//! HINTM_BLESS=1 cargo test --release --test perf_equivalence
//! ```
//!
//! (then rebuild so the new `.inc` is compiled in, and rerun to confirm).
//!
//! A mismatch fails with a per-workload × per-model diff of expected vs
//! actual digests, not a bare assert, so a regression report names exactly
//! which models drifted.
//!
//! The table was taken from an engine that interpreted flat resolved ops;
//! today's engine executes packed access programs instead, so the table is
//! also what keeps the lowering honest — not even one abort or one eviction
//! of drift is allowed.

use hintm::{Experiment, HtmKind};
use hintm_trace::{DigestSink, Fnv64};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed every equivalence run is pinned to.
const SEED: u64 = 42;

/// The eight HTM models, in blessed-table column order.
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

// `BLESSED`: per workload, `(trace_digest, stats_fingerprint)` per model in
// `MODELS` order. Generated by the bless mode above; committed alongside
// this test.
include!("golden/digest_table.inc");

/// Runs `workload` under `htm` with a pure digest sink and returns
/// `(trace_digest, stats_fingerprint)`. The stats fingerprint hashes the
/// canonical JSON of the whole `RunReport`, so *any* drift in `RunStats`
/// (cycles, aborts, cache/VM counters, censuses) changes it.
fn fingerprint(workload: &str, htm: HtmKind) -> (u64, u64) {
    let mut sink = DigestSink::new();
    let report = Experiment::new(workload)
        .htm(htm)
        .seed(SEED)
        .run_with_sink(&mut sink)
        .expect("registered workload");
    let stats_fp = Fnv64::hash(report.to_json().as_bytes());
    (sink.digest(), stats_fp)
}

fn blessed_row(workload: &str) -> Option<&'static [(u64, u64); 8]> {
    BLESSED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, row)| row)
}

fn check(workload: &str) {
    let got: Vec<(u64, u64)> = MODELS.iter().map(|&m| fingerprint(workload, m)).collect();

    if std::env::var_os("HINTM_BLESS").is_some_and(|v| v == "1") {
        bless(workload, &got);
        return;
    }

    let want = blessed_row(workload).unwrap_or_else(|| {
        panic!(
            "no blessed digests for `{workload}`; regenerate the table with \
             HINTM_BLESS=1 cargo test --release --test perf_equivalence"
        )
    });
    let mut diff = String::new();
    for (i, (&(wd, ws), &(gd, gs))) in want.iter().zip(&got).enumerate() {
        if wd != gd {
            writeln!(
                diff,
                "  {workload} x {:>6}: trace digest {wd:016x} -> {gd:016x}",
                MODELS[i].to_string()
            )
            .unwrap();
        }
        if ws != gs {
            writeln!(
                diff,
                "  {workload} x {:>6}: stats fingerprint {ws:016x} -> {gs:016x}",
                MODELS[i].to_string()
            )
            .unwrap();
        }
    }
    assert!(
        diff.is_empty(),
        "{workload}: engine output drifted from the blessed pre-optimization \
         table (seed {SEED}):\n{diff}\
         If the change is intentional, re-bless with HINTM_BLESS=1."
    );
}

/// Bless mode: each test records its row into a scratch directory; the
/// last-finishing test stitches every present row into the committed
/// `digest_table.inc` (tests run in parallel, so the table is rewritten
/// whenever all ten rows exist).
fn bless(workload: &str, got: &[(u64, u64)]) {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let scratch = golden.join("digest_rows");
    std::fs::create_dir_all(&scratch).unwrap();
    let mut row = String::new();
    write!(row, "    (\"{workload}\", [").unwrap();
    for (d, s) in got {
        write!(row, "({d:#018x}, {s:#018x}), ").unwrap();
    }
    writeln!(row, "]),").unwrap();
    std::fs::write(scratch.join(workload), &row).unwrap();

    let names = hintm::WORKLOAD_NAMES;
    let rows: Vec<String> = names
        .iter()
        .filter_map(|n| std::fs::read_to_string(scratch.join(n)).ok())
        .collect();
    if rows.len() == names.len() {
        let mut out = String::new();
        writeln!(
            out,
            "// Blessed engine fingerprints: (workload, [(trace_digest, \
             stats_fingerprint); 8]) per"
        )
        .unwrap();
        writeln!(
            out,
            "// MODELS column. Generated by `HINTM_BLESS=1 cargo test --test \
             perf_equivalence`."
        )
        .unwrap();
        writeln!(out, "const BLESSED: &[(&str, [(u64, u64); 8])] = &[").unwrap();
        for r in rows {
            out.push_str(&r);
        }
        writeln!(out, "];").unwrap();
        std::fs::write(golden.join("digest_table.inc"), out).unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

macro_rules! equivalence_tests {
    ($($fn_name:ident => $name:literal),* $(,)?) => {$(
        #[test]
        fn $fn_name() {
            check($name);
        }
    )*};
}

equivalence_tests! {
    bayes_matches_blessed_digests => "bayes",
    genome_matches_blessed_digests => "genome",
    intruder_matches_blessed_digests => "intruder",
    kmeans_matches_blessed_digests => "kmeans",
    labyrinth_matches_blessed_digests => "labyrinth",
    ssca2_matches_blessed_digests => "ssca2",
    vacation_matches_blessed_digests => "vacation",
    yada_matches_blessed_digests => "yada",
    tpcc_no_matches_blessed_digests => "tpcc-no",
    tpcc_p_matches_blessed_digests => "tpcc-p",
}

/// LRWS with both set limits raised to the whole 64-entry buffer is
/// *exactly* P8: reads can never spill (the buffer fills first) and
/// writes can never hit the write limit before the capacity check. The
/// degenerate configuration must reproduce P8's digests bit-for-bit —
/// this pins the LRWS fast path against accidental divergence from the
/// exact tracker it specializes.
#[test]
fn degenerate_lrws_reproduces_p8_digests() {
    if std::env::var_os("HINTM_BLESS").is_some_and(|v| v == "1") {
        return;
    }
    for workload in ["genome", "kmeans", "vacation", "tpcc-no"] {
        let mut p8_sink = DigestSink::new();
        let p8 = Experiment::new(workload)
            .htm(HtmKind::P8)
            .seed(SEED)
            .run_with_sink(&mut p8_sink)
            .unwrap();
        let mut lrws_sink = DigestSink::new();
        let lrws = Experiment::new(workload)
            .htm(HtmKind::Lrws)
            .lrws_limits(64, 64)
            .seed(SEED)
            .run_with_sink(&mut lrws_sink)
            .unwrap();
        assert_eq!(
            p8_sink.digest(),
            lrws_sink.digest(),
            "{workload}: degenerate LRWS(64,64) trace diverged from P8"
        );
        // Everything except the model name must fingerprint identically.
        assert_eq!(
            p8.to_json().replace("\"P8\"", "\"LRWS\""),
            lrws.to_json(),
            "{workload}: degenerate LRWS(64,64) stats diverged from P8"
        );
    }
}

/// The table must cover exactly the registered suite (catches a workload
/// added without re-blessing).
#[test]
fn blessed_table_covers_the_suite() {
    if std::env::var_os("HINTM_BLESS").is_some_and(|v| v == "1") {
        return;
    }
    for name in hintm::WORKLOAD_NAMES {
        assert!(
            blessed_row(name).is_some(),
            "workload `{name}` missing from the blessed digest table"
        );
    }
    assert_eq!(BLESSED.len(), hintm::WORKLOAD_NAMES.len());
}
