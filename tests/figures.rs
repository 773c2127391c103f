//! Golden renders of the paper's tables: every row of `hintm::FIGURES`,
//! rendered from a fresh run of its cells, must match
//! `tests/golden/figures/<name>.txt` byte for byte. EXPERIMENTS.md quotes
//! these tables, so a change that moves any figure number fails here.
//!
//! The `Scale::Large` rows (Figs. 7 and 8) take minutes in a debug build
//! and are ignored by default; CI runs them in release:
//!
//! ```text
//! cargo test --release --test figures -- --include-ignored
//! ```
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! HINTM_BLESS=1 cargo test --release --test figures -- --include-ignored
//! ```

use hintm::figures::{batch, Figure, FIGURES};
use hintm::{Cell, Scale};
use hintm_runner::Runner;
use std::path::PathBuf;

fn is_large(f: &Figure) -> bool {
    (f.cells)().iter().any(|c| c.scale == Scale::Large)
}

/// Runs the rows' cells as one uncached batch and checks each render.
fn check(rows: Vec<&Figure>) {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = Runner::new().jobs(jobs).no_cache().run(&batch(&rows));
    let get = |c: &Cell| result.expect_report(c);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures");
    let bless = std::env::var_os("HINTM_BLESS").is_some_and(|v| v == "1");
    let mut drifted = Vec::new();
    for row in rows {
        let got = (row.render)(&get);
        let path = dir.join(format!("{}.txt", row.name));
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); generate it with HINTM_BLESS=1",
                path.display()
            )
        });
        if got != want {
            eprintln!(
                "--- {} (golden)\n{want}+++ {} (now)\n{got}",
                row.name, row.name
            );
            drifted.push(row.name);
        }
    }
    assert!(
        drifted.is_empty(),
        "{drifted:?} drifted from the golden renders; if the change is \
         intentional, bless it with HINTM_BLESS=1 and update EXPERIMENTS.md"
    );
}

#[test]
fn sim_rows_match_golden_renders() {
    check(FIGURES.iter().filter(|f| !is_large(f)).collect());
}

#[test]
#[ignore = "Scale::Large rows; CI runs them in release with --include-ignored"]
fn large_rows_match_golden_renders() {
    check(FIGURES.iter().filter(|f| is_large(f)).collect());
}

#[test]
fn rows_are_split_between_the_two_tests() {
    let large: Vec<&str> = FIGURES
        .iter()
        .filter(|f| is_large(f))
        .map(|f| f.name)
        .collect();
    assert_eq!(large, ["fig7_p8s", "fig8_l1tm"]);
}
