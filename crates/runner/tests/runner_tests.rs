//! Integration tests for the sweep orchestrator: parallel-vs-serial
//! determinism, cache-hit correctness (a second run re-simulates nothing),
//! and per-cell panic isolation.

use hintm::{HintMode, HtmKind, RunReport};
use hintm_runner::{Cache, Cell, CellOutcome, Runner, SweepResult, SweepSpec};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hintm-runner-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small but real grid: two fast workloads, baseline vs full hints,
/// two seeds.
fn grid() -> Vec<Cell> {
    SweepSpec::new()
        .workloads(["ssca2", "kmeans"])
        .htm(HtmKind::P8)
        .hints([HintMode::Off, HintMode::Full])
        .seeds([42, 7])
        .cells()
}

/// Serializes a sweep's results to one string (cell keys + full reports),
/// the bit-identity witness used by the determinism test.
fn fingerprint(result: &SweepResult) -> String {
    result
        .cells
        .iter()
        .map(|r| match &r.outcome {
            CellOutcome::Done(report) => format!("{}={}\n", r.cell.key(), report.to_json()),
            CellOutcome::Crashed(msg) => format!("{}=CRASHED:{msg}\n", r.cell.key()),
        })
        .collect()
}

#[test]
fn parallel_run_is_bit_identical_to_serial() {
    let cells = grid();
    let serial = Runner::new().no_cache().jobs(1).run(&cells);
    let parallel = Runner::new().no_cache().jobs(8).run(&cells);
    assert_eq!(serial.jobs, 1);
    assert_eq!(serial.executed, cells.len());
    assert_eq!(parallel.executed, cells.len());
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    // The artifact tables derived from them are bit-identical too.
    assert_eq!(
        hintm_runner::results_csv(&serial),
        hintm_runner::results_csv(&parallel)
    );
}

#[test]
fn warm_cache_rerun_simulates_nothing() {
    let dir = tmp("warm");
    let cells = grid();
    let executions = AtomicUsize::new(0);
    let exec = |cell: &Cell| -> RunReport {
        executions.fetch_add(1, Ordering::Relaxed);
        cell.run().unwrap()
    };

    let runner = Runner::new().cache(Cache::new(&dir)).jobs(4);
    let cold = runner.run_with(&cells, exec);
    assert_eq!(executions.load(Ordering::Relaxed), cells.len());
    assert_eq!((cold.executed, cold.cache_hits), (cells.len(), 0));

    let warm = runner.run_with(&cells, exec);
    assert_eq!(
        executions.load(Ordering::Relaxed),
        cells.len(),
        "warm run re-simulated"
    );
    assert_eq!((warm.executed, warm.cache_hits), (0, cells.len()));
    assert!(warm.cells.iter().all(|r| r.cached));
    assert_eq!(fingerprint(&cold), fingerprint(&warm));

    // An interrupted sweep resumes: drop half the cache, only that half
    // re-simulates.
    let cache = Cache::new(&dir);
    for cell in &cells[..4] {
        fs::remove_file(cache.path_for(cell)).unwrap();
    }
    let resumed = runner.run_with(&cells, exec);
    assert_eq!((resumed.executed, resumed.cache_hits), (4, cells.len() - 4));
    assert_eq!(executions.load(Ordering::Relaxed), cells.len() + 4);
    assert_eq!(fingerprint(&cold), fingerprint(&resumed));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_cache_runner_touches_no_disk() {
    let dir = tmp("nocache");
    std::env::set_var("HINTM_CACHE_DIR", &dir); // would be used if caching leaked in
    let result = Runner::new().no_cache().jobs(2).run(&grid()[..2]);
    std::env::remove_var("HINTM_CACHE_DIR");
    assert_eq!(result.cache_hits, 0);
    assert!(!dir.exists(), "no-cache run created {}", dir.display());
}

#[test]
fn a_crashing_cell_is_isolated() {
    let cells = grid();
    let poison = cells[2].key();
    let exec = |cell: &Cell| -> RunReport {
        if cell.key() == poison {
            panic!("injected failure in {}", cell.label());
        }
        cell.run().unwrap()
    };
    let result = Runner::new().no_cache().jobs(4).run_with(&cells, exec);
    assert_eq!(result.crashed, 1);
    assert_eq!(result.executed, cells.len() - 1);
    for r in &result.cells {
        match &r.outcome {
            CellOutcome::Crashed(msg) => {
                assert_eq!(r.cell.key(), poison);
                assert!(
                    msg.contains("injected failure"),
                    "lost panic message: {msg}"
                );
            }
            CellOutcome::Done(report) => assert!(report.stats.commits > 0),
        }
    }
    // The lookup API reflects the crash.
    assert!(result.report(&cells[2]).is_none());
    assert!(result.report(&cells[0]).is_some());
}

#[test]
fn unknown_workload_crashes_its_cell_only() {
    let cells = vec![Cell::new("ssca2"), Cell::new("not-a-workload")];
    let result = Runner::new().no_cache().jobs(2).run(&cells);
    assert!(result.report(&cells[0]).is_some());
    let CellOutcome::Crashed(msg) = &result.cells[1].outcome else {
        panic!("unknown workload should crash its cell");
    };
    assert!(msg.contains("not-a-workload"));
}

#[test]
fn crashed_cells_are_never_cached() {
    let dir = tmp("crashcache");
    let cell = Cell::new("ssca2");
    let runner = Runner::new().cache(Cache::new(&dir)).jobs(1);
    let crashed = runner.run_with(std::slice::from_ref(&cell), |_| panic!("boom"));
    assert_eq!(crashed.crashed, 1);
    assert!(Cache::new(&dir).load(&cell).is_none());

    // The cell heals on the next run and only then enters the cache.
    let healed = runner.run_with(std::slice::from_ref(&cell), |c| c.run().unwrap());
    assert_eq!((healed.executed, healed.crashed), (1, 0));
    assert!(Cache::new(&dir).load(&cell).is_some());
    fs::remove_dir_all(&dir).unwrap();
}
