//! The shared sweep job queue.
//!
//! A [`JobQueue`] holds every submitted job's cells and hands them out —
//! one at a time — to executor workers, whether those run as threads in
//! the daemon process or as remote `hintm serve --join` processes
//! claiming over HTTP. A `Mutex<State>` plus a `Condvar` is the whole
//! synchronization story.
//!
//! **Cross-job deduplication:** while a cell key is being executed for
//! one job, identical cells queued by other jobs stay pending; the
//! moment the first execution completes (and its report lands in the
//! result cache), the duplicates become claimable and resolve as instant
//! cache hits. Nothing is ever simulated twice concurrently, and repeat
//! submissions of a warm sweep execute zero cells.

use hintm_runner::{Cell, CellOutcome, CellResult};
use std::collections::{HashSet, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A claimed cell: which job it belongs to, its index in the job's spec
/// order, and the cell itself.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Job id.
    pub(crate) job: usize,
    /// Cell index within the job (spec order).
    pub(crate) cell_index: usize,
    /// The cell to execute.
    pub(crate) cell: Cell,
}

/// Result of a non-blocking claim attempt (the HTTP `/claim` endpoint).
pub enum ClaimPoll {
    /// A cell was claimed.
    Claimed(Claim),
    /// Nothing claimable right now (empty queue, or every pending cell
    /// is blocked behind an in-flight duplicate).
    Empty,
    /// The queue is shutting down; workers should exit.
    Shutdown,
}

/// One cell's externally visible state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Queued, not yet claimed.
    Pending,
    /// Claimed by a worker.
    Running,
    /// Completed (`cached` = served from the result cache).
    Done {
        /// Whether the result came from the cache.
        cached: bool,
    },
    /// The execution panicked; the message is attached.
    Crashed(String),
}

/// A point-in-time snapshot of one job.
#[derive(Clone, Debug)]
pub struct JobSnapshot {
    /// Job id.
    pub(crate) id: usize,
    /// The job's cells in spec order.
    pub(crate) cells: Vec<Cell>,
    /// Per-cell status, parallel to `cells`.
    pub(crate) status: Vec<CellStatus>,
    /// Per-cell wall time (zero until the cell completes).
    pub(crate) walls: Vec<Duration>,
    /// Completed cells (done + crashed).
    pub(crate) finished: usize,
    /// Completed cells served from the cache.
    pub(crate) cached: usize,
    /// Crashed cells.
    pub(crate) crashed: usize,
    /// Wall time from submission to completion (or to now if running).
    pub(crate) wall: Duration,
}

impl JobSnapshot {
    /// Whether every cell has finished.
    pub(crate) fn complete(&self) -> bool {
        self.finished == self.cells.len()
    }
}

/// Queue-wide counters for `GET /stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// Jobs submitted since the daemon started.
    pub(crate) jobs: usize,
    /// Cells across all jobs.
    pub(crate) cells_total: usize,
    /// Cells not yet claimed.
    pub(crate) pending: usize,
    /// Cells currently executing.
    pub(crate) running: usize,
    /// Cells that were actually simulated.
    pub(crate) executed: u64,
    /// Cells served from the result cache.
    pub(crate) cached: u64,
    /// Cells that crashed.
    pub(crate) crashed: u64,
}

struct Job {
    cells: Vec<Cell>,
    /// Each cell's [`Cell::key`], computed once at submit and dropped
    /// once every cell has finished.
    keys: Vec<String>,
    results: Vec<Option<CellResult>>,
    running: Vec<bool>,
    finished: usize,
    created: Instant,
    completed_after: Option<Duration>,
}

struct State {
    jobs: Vec<Job>,
    /// `(job, cell_index)` entries awaiting a claim, FIFO.
    pending: VecDeque<(usize, usize)>,
    /// Cell keys currently being executed (any job).
    inflight: HashSet<String>,
    shutdown: bool,
    executed: u64,
    cached: u64,
    crashed: u64,
}

/// The shared queue (see the module docs).
pub struct JobQueue {
    state: Mutex<State>,
    cv: Condvar,
}

impl Default for JobQueue {
    fn default() -> Self {
        JobQueue::new()
    }
}

impl JobQueue {
    /// An empty queue.
    pub(crate) fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new(State {
                jobs: Vec::new(),
                pending: VecDeque::new(),
                inflight: HashSet::new(),
                shutdown: false,
                executed: 0,
                cached: 0,
                crashed: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Submits a job; its cells join the queue in spec order. Returns the
    /// job id.
    pub(crate) fn submit(&self, cells: Vec<Cell>) -> usize {
        let mut s = self.state.lock().unwrap();
        let id = s.jobs.len();
        let n = cells.len();
        s.jobs.push(Job {
            keys: cells.iter().map(Cell::key).collect(),
            results: vec![None; n],
            running: vec![false; n],
            finished: 0,
            created: Instant::now(),
            completed_after: None,
            cells,
        });
        s.pending.extend((0..n).map(|i| (id, i)));
        drop(s);
        self.cv.notify_all();
        id
    }

    /// Blocks until a cell is claimable (or shutdown). Local executor
    /// workers live in this call; `None` means exit.
    pub(crate) fn claim_blocking(&self) -> Option<Claim> {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.shutdown {
                return None;
            }
            if let Some(claim) = Self::take_claimable(&mut s) {
                return Some(claim);
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Non-blocking claim for the HTTP `/claim` endpoint (remote
    /// workers poll).
    pub(crate) fn try_claim(&self) -> ClaimPoll {
        let mut s = self.state.lock().unwrap();
        if s.shutdown {
            return ClaimPoll::Shutdown;
        }
        match Self::take_claimable(&mut s) {
            Some(claim) => ClaimPoll::Claimed(claim),
            None => ClaimPoll::Empty,
        }
    }

    /// Pops the first pending entry whose cell key is not currently
    /// in-flight, marking it running.
    fn take_claimable(s: &mut State) -> Option<Claim> {
        let pos = s
            .pending
            .iter()
            .position(|&(job, idx)| !s.inflight.contains(&s.jobs[job].keys[idx]))?;
        let (job, cell_index) = s.pending.remove(pos).expect("position is in range");
        let j = &mut s.jobs[job];
        s.inflight.insert(j.keys[cell_index].clone());
        j.running[cell_index] = true;
        Some(Claim {
            job,
            cell_index,
            cell: j.cells[cell_index].clone(),
        })
    }

    /// Records a claimed cell's result, frees its key for queued
    /// duplicates, and updates the counters. A completion for a cell
    /// that already has a result (e.g. a worker retrying a post) is
    /// ignored.
    pub(crate) fn complete(&self, claim: &Claim, result: CellResult) {
        let mut state = self.state.lock().unwrap();
        let s = &mut *state;
        let job = &mut s.jobs[claim.job];
        let was_running = std::mem::take(&mut job.running[claim.cell_index]);
        if was_running {
            s.inflight.remove(&job.keys[claim.cell_index]);
        }
        if job.results[claim.cell_index].is_none() {
            if !was_running {
                // A late post for a requeued claim: the cell must not run
                // again (and its key may be gone once the job finishes).
                s.pending.retain(|&p| p != (claim.job, claim.cell_index));
            }
            let (executed, cached, crashed) = match &result.outcome {
                CellOutcome::Done(_) if result.cached => (0, 1, 0),
                CellOutcome::Done(_) => (1, 0, 0),
                CellOutcome::Crashed(_) => (0, 0, 1),
            };
            job.results[claim.cell_index] = Some(result);
            job.finished += 1;
            if job.finished == job.cells.len() {
                job.completed_after = Some(job.created.elapsed());
                job.keys = Vec::new();
            }
            s.executed += executed;
            s.cached += cached;
            s.crashed += crashed;
        }
        drop(state);
        // Wake workers blocked behind this key, and completion pollers.
        self.cv.notify_all();
    }

    /// Returns a cell claimed via `JobQueue::try_claim` to the front of
    /// the queue (a remote worker failed before posting a result).
    pub fn requeue(&self, claim: &Claim) {
        let mut state = self.state.lock().unwrap();
        let s = &mut *state;
        let job = &mut s.jobs[claim.job];
        if job.results[claim.cell_index].is_none() && job.running[claim.cell_index] {
            job.running[claim.cell_index] = false;
            s.inflight.remove(&job.keys[claim.cell_index]);
            s.pending.push_front((claim.job, claim.cell_index));
        }
        drop(state);
        self.cv.notify_all();
    }

    /// A snapshot of one job, or `None` for an unknown id.
    pub(crate) fn job(&self, id: usize) -> Option<JobSnapshot> {
        let s = self.state.lock().unwrap();
        let job = s.jobs.get(id)?;
        let mut cached = 0;
        let mut crashed = 0;
        let status = job
            .results
            .iter()
            .zip(&job.running)
            .map(|(result, &running)| match result {
                Some(r) => match &r.outcome {
                    CellOutcome::Done(_) => {
                        cached += usize::from(r.cached);
                        CellStatus::Done { cached: r.cached }
                    }
                    CellOutcome::Crashed(msg) => {
                        crashed += 1;
                        CellStatus::Crashed(msg.clone())
                    }
                },
                None if running => CellStatus::Running,
                None => CellStatus::Pending,
            })
            .collect();
        Some(JobSnapshot {
            id,
            cells: job.cells.clone(),
            status,
            walls: job
                .results
                .iter()
                .map(|r| r.as_ref().map_or(Duration::ZERO, |r| r.wall))
                .collect(),
            finished: job.finished,
            cached,
            crashed,
            wall: job.completed_after.unwrap_or_else(|| job.created.elapsed()),
        })
    }

    /// `(id, total, finished, complete)` for every job in id order, read
    /// under one lock acquisition (the `GET /sweeps` listing).
    pub(crate) fn summaries(&self) -> Vec<(usize, usize, usize, bool)> {
        let s = self.state.lock().unwrap();
        s.jobs
            .iter()
            .enumerate()
            .map(|(id, job)| {
                let total = job.cells.len();
                (id, total, job.finished, job.finished == total)
            })
            .collect()
    }

    /// A complete job's results in spec order (`None` if the job is
    /// unknown or still running).
    pub(crate) fn results(&self, id: usize) -> Option<Vec<CellResult>> {
        let s = self.state.lock().unwrap();
        let job = s.jobs.get(id)?;
        if job.finished != job.cells.len() {
            return None;
        }
        Some(
            job.results
                .iter()
                .map(|r| r.clone().expect("finished job has every result"))
                .collect(),
        )
    }

    /// Queue-wide counters.
    pub(crate) fn stats(&self) -> QueueStats {
        let s = self.state.lock().unwrap();
        QueueStats {
            jobs: s.jobs.len(),
            cells_total: s.jobs.iter().map(|j| j.cells.len()).sum(),
            pending: s.pending.len(),
            running: s.inflight.len(),
            executed: s.executed,
            cached: s.cached,
            crashed: s.crashed,
        }
    }

    /// Signals shutdown: blocked claimers return `None`, `try_claim`
    /// reports [`ClaimPoll::Shutdown`].
    pub(crate) fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, OnceLock};

    fn done(cell: &Cell, cached: bool) -> CellResult {
        static REPORT: OnceLock<hintm::RunReport> = OnceLock::new();
        let report = REPORT.get_or_init(|| Cell::new("ssca2").run().expect("ssca2 runs"));
        CellResult {
            cell: cell.clone(),
            outcome: CellOutcome::Done(Box::new(report.clone())),
            wall: Duration::from_millis(1),
            cached,
        }
    }

    #[test]
    fn claims_in_fifo_order_and_tracks_status() {
        let q = JobQueue::new();
        let cells = vec![Cell::new("ssca2"), Cell::new("kmeans")];
        let id = q.submit(cells);
        assert_eq!(id, 0);

        let a = q.claim_blocking().unwrap();
        assert_eq!((a.job, a.cell_index), (0, 0));
        let snap = q.job(0).unwrap();
        assert_eq!(snap.status[0], CellStatus::Running);
        assert_eq!(snap.status[1], CellStatus::Pending);
        assert!(!snap.complete());

        q.complete(&a, done(&a.cell, false));
        let b = q.claim_blocking().unwrap();
        assert_eq!(b.cell_index, 1);
        q.complete(&b, done(&b.cell, true));

        let snap = q.job(0).unwrap();
        assert!(snap.complete());
        assert_eq!(snap.cached, 1);
        assert_eq!(snap.crashed, 0);
        assert_eq!(snap.status[0], CellStatus::Done { cached: false });
        let stats = q.stats();
        assert_eq!((stats.executed, stats.cached, stats.crashed), (1, 1, 0));
        assert_eq!(q.results(0).unwrap().len(), 2);
    }

    #[test]
    fn duplicate_cells_across_jobs_wait_for_the_inflight_one() {
        let q = JobQueue::new();
        q.submit(vec![Cell::new("ssca2")]);
        q.submit(vec![Cell::new("ssca2")]);

        let first = q.claim_blocking().unwrap();
        // The duplicate is pending but not claimable while the first is
        // in flight.
        assert!(matches!(q.try_claim(), ClaimPoll::Empty));
        q.complete(&first, done(&first.cell, false));
        let ClaimPoll::Claimed(second) = q.try_claim() else {
            panic!("duplicate becomes claimable after completion");
        };
        assert_eq!(second.job, 1);
    }

    #[test]
    fn summaries_list_every_job_in_id_order() {
        let q = JobQueue::new();
        assert!(q.summaries().is_empty());
        q.submit(vec![Cell::new("ssca2"), Cell::new("kmeans")]);
        q.submit(vec![Cell::new("genome")]);
        let a = q.claim_blocking().unwrap();
        q.complete(&a, done(&a.cell, false));
        assert_eq!(q.summaries(), vec![(0, 2, 1, false), (1, 1, 0, false)]);
        for _ in 0..2 {
            let c = q.claim_blocking().unwrap();
            q.complete(&c, done(&c.cell, false));
        }
        assert_eq!(q.summaries(), vec![(0, 2, 2, true), (1, 1, 1, true)]);
    }

    #[test]
    fn a_repeated_completion_leaves_a_duplicates_claim_in_flight() {
        let q = JobQueue::new();
        q.submit(vec![Cell::new("ssca2")]);
        q.submit(vec![Cell::new("ssca2")]);
        let first = q.claim_blocking().unwrap();
        q.complete(&first, done(&first.cell, false));
        let second = q.claim_blocking().unwrap();
        assert_eq!(second.job, 1);
        // A worker retrying its post for the first job must not free the
        // key the second job's claim now holds.
        q.complete(&first, done(&first.cell, false));
        q.submit(vec![Cell::new("ssca2")]);
        assert!(matches!(q.try_claim(), ClaimPoll::Empty));
        q.complete(&second, done(&second.cell, true));
        assert!(matches!(q.try_claim(), ClaimPoll::Claimed(c) if c.job == 2));
    }

    #[test]
    fn requeue_returns_a_claim_to_the_front() {
        let q = JobQueue::new();
        q.submit(vec![Cell::new("ssca2"), Cell::new("kmeans")]);
        let a = q.claim_blocking().unwrap();
        q.requeue(&a);
        let again = q.claim_blocking().unwrap();
        assert_eq!(again.cell_index, a.cell_index);
    }

    #[test]
    fn a_late_post_for_a_requeued_claim_finishes_the_cell() {
        let q = JobQueue::new();
        q.submit(vec![Cell::new("ssca2")]);
        let a = q.claim_blocking().unwrap();
        q.requeue(&a);
        q.complete(&a, done(&a.cell, false));
        assert!(q.job(0).unwrap().complete());
        assert!(matches!(q.try_claim(), ClaimPoll::Empty));
    }

    #[test]
    fn shutdown_unblocks_claimers() {
        let q = Arc::new(JobQueue::new());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.claim_blocking());
        std::thread::sleep(Duration::from_millis(20));
        q.shutdown();
        assert!(h.join().unwrap().is_none());
        assert!(matches!(q.try_claim(), ClaimPoll::Shutdown));
    }

    #[test]
    fn double_completion_is_idempotent() {
        let q = JobQueue::new();
        q.submit(vec![Cell::new("ssca2")]);
        let c = q.claim_blocking().unwrap();
        q.complete(&c, done(&c.cell, false));
        q.complete(&c, done(&c.cell, false));
        let stats = q.stats();
        assert_eq!(stats.executed, 1);
        assert_eq!(q.job(0).unwrap().finished, 1);
    }

    #[test]
    fn unknown_job_ids_are_none() {
        let q = JobQueue::new();
        assert!(q.job(3).is_none());
        assert!(q.results(3).is_none());
    }
}
