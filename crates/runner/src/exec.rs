//! The sharded sweep executor.
//!
//! Cells are pulled off a shared atomic work index by `jobs` worker
//! threads (`std::thread::scope` — no thread-pool dependency). Each cell
//! runs under `catch_unwind`, so one crashing configuration becomes a
//! [`CellOutcome::Crashed`] entry instead of taking the sweep down.
//! Results are reassembled in spec order, which makes the output — and any
//! artifact derived from it — bit-identical whatever the job count.

use crate::{Cache, Cell};
use hintm::RunReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one cell ended.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The run completed; the report is attached.
    Done(Box<RunReport>),
    /// The run panicked; the payload is the panic message.
    Crashed(String),
}

/// One cell's result: outcome plus execution metadata.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: Cell,
    /// How it ended.
    pub outcome: CellOutcome,
    /// Wall time spent on this cell (near zero for cache hits).
    pub wall: Duration,
    /// Whether the result came from the cache instead of a simulation.
    pub cached: bool,
}

impl CellResult {
    /// The report, if the cell completed.
    pub fn report(&self) -> Option<&RunReport> {
        match &self.outcome {
            CellOutcome::Done(r) => Some(r),
            CellOutcome::Crashed(_) => None,
        }
    }
}

/// A finished sweep: per-cell results in spec order plus totals.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Per-cell results, in the order the cells were given.
    pub cells: Vec<CellResult>,
    /// Wall time for the whole sweep.
    pub wall: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Cells served from the cache.
    pub cache_hits: usize,
    /// Cells that crashed.
    pub crashed: usize,
}

impl SweepResult {
    /// The report for `cell`, if present and completed.
    pub fn report(&self, cell: &Cell) -> Option<&RunReport> {
        let key = cell.key();
        self.cells
            .iter()
            .find(|r| r.cell.key() == key)
            .and_then(CellResult::report)
    }

    /// The report for `cell`, panicking with the cell's label (and the
    /// crash message, if it crashed) when absent. For callers that
    /// cannot proceed without the result.
    pub fn expect_report(&self, cell: &Cell) -> &RunReport {
        let key = cell.key();
        match self.cells.iter().find(|r| r.cell.key() == key) {
            Some(r) => match &r.outcome {
                CellOutcome::Done(report) => report,
                CellOutcome::Crashed(msg) => panic!("cell {} crashed: {msg}", cell.label()),
            },
            None => panic!("cell {} was not part of this sweep", cell.label()),
        }
    }

    /// Iterates over completed `(cell, report)` pairs in spec order.
    pub fn reports(&self) -> impl Iterator<Item = (&Cell, &RunReport)> {
        self.cells
            .iter()
            .filter_map(|r| r.report().map(|rep| (&r.cell, rep)))
    }
}

/// Sweep orchestration configuration, builder-style.
///
/// ```no_run
/// use hintm_runner::{Cell, Runner};
///
/// let result = Runner::new().jobs(8).run(&[Cell::new("vacation")]);
/// println!("{} cells in {:?}", result.cells.len(), result.wall);
/// ```
#[derive(Clone, Debug)]
pub struct Runner {
    jobs: usize,
    cache: Option<Cache>,
    progress: bool,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Runner {
    /// A serial runner with the default cache and no progress output.
    pub fn new() -> Runner {
        Runner {
            jobs: 1,
            cache: Some(Cache::new(Cache::default_dir())),
            progress: false,
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Disables the result cache (every cell simulates).
    pub fn no_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Uses a specific cache.
    pub fn cache(mut self, cache: Cache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables per-cell progress lines on stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Runs every cell through the simulator (see [`Runner::run_with`]).
    pub fn run(&self, cells: &[Cell]) -> SweepResult {
        self.run_with(cells, |cell| cell.run().unwrap_or_else(|e| panic!("{e}")))
    }

    /// Runs one cell exactly as a sweep worker slot would: cache consult
    /// first, then the simulator under `catch_unwind` panic isolation,
    /// with a fresh result stored back. This is the single-cell entry
    /// point for callers that drive their own queue — the `hintm-serve`
    /// daemon's executor workers claim cells one at a time and push each
    /// through here.
    pub fn execute_cell(&self, cell: &Cell) -> CellResult {
        self.run_one(cell, &|c: &Cell| c.run().unwrap_or_else(|e| panic!("{e}")))
    }

    /// Runs every cell through `exec`, sharded over [`Runner::jobs`]
    /// threads, consulting the cache first and storing fresh results
    /// back. `exec` is the simulation function — tests inject counters or
    /// deliberate panics here. A panicking cell yields
    /// [`CellOutcome::Crashed`] and never poisons the sweep or the cache.
    pub fn run_with<F>(&self, cells: &[Cell], exec: F) -> SweepResult
    where
        F: Fn(&Cell) -> RunReport + Send + Sync,
    {
        let started = Instant::now();
        let n = cells.len();
        let jobs = self.jobs.min(n.max(1));
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, CellResult)>();

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                let next = &next;
                let done = &done;
                let exec = &exec;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = self.run_one(&cells[i], exec);
                    if self.progress {
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        let status = match &result.outcome {
                            CellOutcome::Done(_) if result.cached => "cached",
                            CellOutcome::Done(_) => "done",
                            CellOutcome::Crashed(_) => "CRASHED",
                        };
                        eprintln!(
                            "[{finished:>4}/{n}] {status:<7} {} ({:.2}s)",
                            result.cell.label(),
                            result.wall.as_secs_f64(),
                        );
                    }
                    let _ = tx.send((i, result));
                });
            }
        });
        drop(tx);

        let mut slots: Vec<Option<CellResult>> = (0..n).map(|_| None).collect();
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        let ordered: Vec<CellResult> = slots
            .into_iter()
            .map(|r| r.expect("every cell reports"))
            .collect();

        let cache_hits = ordered.iter().filter(|r| r.cached).count();
        let crashed = ordered
            .iter()
            .filter(|r| matches!(r.outcome, CellOutcome::Crashed(_)))
            .count();
        SweepResult {
            executed: n - cache_hits - crashed,
            cache_hits,
            crashed,
            cells: ordered,
            wall: started.elapsed(),
            jobs,
        }
    }

    fn run_one<F>(&self, cell: &Cell, exec: &F) -> CellResult
    where
        F: Fn(&Cell) -> RunReport + Send + Sync,
    {
        let started = Instant::now();
        if let Some(cache) = &self.cache {
            if let Some(report) = cache.load(cell) {
                return CellResult {
                    cell: cell.clone(),
                    outcome: CellOutcome::Done(Box::new(report)),
                    wall: started.elapsed(),
                    cached: true,
                };
            }
        }
        let outcome = match catch_unwind(AssertUnwindSafe(|| exec(cell))) {
            Ok(report) => {
                if let Some(cache) = &self.cache {
                    if let Err(e) = cache.store(cell, &report) {
                        eprintln!("warning: cache store failed for {}: {e}", cell.label());
                    }
                }
                CellOutcome::Done(Box::new(report))
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                CellOutcome::Crashed(msg)
            }
        };
        CellResult {
            cell: cell.clone(),
            outcome,
            wall: started.elapsed(),
            cached: false,
        }
    }
}
