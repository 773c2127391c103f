//! The four workloads: what each runs, how it is timed and checked.
//!
//! Every workload first sets up several times (the median is `setup_s`),
//! then repeats its unit of work — a pass over a cell grid, a cold figure
//! sweep, or a fresh daemon sweep — until the run's seconds are used.

use crate::check::{Checker, TABLE_MODELS};
use crate::daemon::{self, Client, Routes};
use crate::engine::run_cell;
use crate::spans::Tracer;
use crate::stats::median;
use hintm::cli::csv_row;
use hintm::{HintMode, HtmKind, Json, RunReport, Scale, WORKLOAD_NAMES};
use hintm_runner::{results_csv, Cache, Cell, Runner, SweepSpec};
use hintm_serve::Server;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Worker threads of the sweep runner (this host's core count).
pub const RUNNER_JOBS: usize = 2;

/// Engine lanes of `hinted-large`.
const HINTED_LANES: usize = 2;

/// Fresh sweeps a smoke run of `serve-mixed` submits.
const SMOKE_SWEEPS: usize = 10;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// The pinned perf grid, hints off: the step loop, caches and trackers.
    GridOff,
    /// Full HinTM at Large scale on two engine lanes.
    HintedLarge,
    /// The whole figure grid through the sweep runner and its cache.
    SweepFigures,
    /// Fresh and warm sweeps against the daemon, side by side.
    ServeMixed,
}

impl Bench {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Bench; 4] = [
        Bench::GridOff,
        Bench::HintedLarge,
        Bench::SweepFigures,
        Bench::ServeMixed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Bench::GridOff => "grid-off",
            Bench::HintedLarge => "hinted-large",
            Bench::SweepFigures => "sweep-figures",
            Bench::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The cells the per-layer phases attribute: the workload's own grid,
    /// except that `sweep-figures` keeps two of its eight models and
    /// `serve-mixed` uses its first fresh sweep.
    pub fn layer_grid(self, seed: u64) -> Grid {
        match self {
            Bench::GridOff => grid_off(seed),
            Bench::HintedLarge => hinted_large(seed),
            Bench::SweepFigures => Grid {
                htms: vec![HtmKind::P8, HtmKind::L1Tm],
                ..figures(seed)
            },
            Bench::ServeMixed => fresh(seed, 0),
        }
    }

    /// The percentile `op_tail_ms` reports: the highest of 90, 95 and 99
    /// that keeps at least ten operations beyond it in a run of the
    /// default length (about 800 cell runs in `grid-off`, 135 in
    /// `hinted-large`, 1,700 in `sweep-figures`, 5,000 requests in
    /// `serve-mixed`). It is fixed per workload so that a faster build,
    /// which fits more operations into a run, reports the same statistic.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Bench::GridOff => 95.0,
            Bench::HintedLarge => 90.0,
            Bench::SweepFigures | Bench::ServeMixed => 99.0,
        }
    }

    /// Runs the workload's measured loop.
    pub fn run(self, ctx: &Ctx, checker: &mut Checker) -> Outcome {
        match self {
            Bench::GridOff => cell_passes(ctx, checker, &grid_off(ctx.seed)),
            Bench::HintedLarge => cell_passes(ctx, checker, &hinted_large(ctx.seed)),
            Bench::SweepFigures => sweep_figures(ctx, checker),
            Bench::ServeMixed => serve_mixed(ctx, checker),
        }
    }
}

/// A cross product of sweep axes at one scale and seed.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Workload names.
    pub workloads: Vec<&'static str>,
    /// HTM models.
    pub htms: Vec<HtmKind>,
    /// Hint modes.
    pub hints: Vec<HintMode>,
    /// Input scale.
    pub scale: Scale,
    /// Run seed.
    pub seed: u64,
    /// Engine lanes per cell.
    pub sim_threads: usize,
}

impl Grid {
    /// The grid's cells, in the runner's (and daemon's) order.
    pub fn cells(&self) -> Vec<Cell> {
        SweepSpec::new()
            .workloads(self.workloads.iter().copied())
            .htms(self.htms.iter().copied())
            .hints(self.hints.iter().copied())
            .scale(self.scale)
            .seed(self.seed)
            .sim_threads(self.sim_threads)
            .cells()
    }

    /// The set-up's warm-up grid: every workload and hint mode once, at
    /// the grid's first model only.
    fn warmup(&self) -> Grid {
        Grid {
            htms: self.htms[..1].to_vec(),
            ..self.clone()
        }
    }

    /// The grid as a `POST /sweeps` body.
    pub fn spec_json(&self) -> Json {
        let strs = |v: Vec<String>| Json::Arr(v.into_iter().map(Json::Str).collect());
        Json::Obj(vec![
            (
                "workloads".into(),
                strs(self.workloads.iter().map(|w| w.to_string()).collect()),
            ),
            (
                "htm".into(),
                strs(self.htms.iter().map(|h| h.to_string()).collect()),
            ),
            (
                "hints".into(),
                strs(self.hints.iter().map(|h| h.to_string()).collect()),
            ),
            ("seeds".into(), Json::Arr(vec![Json::u64(self.seed)])),
            (
                "scale".into(),
                Json::Str(hintm::cli::scale_str(self.scale).into()),
            ),
            ("sim_threads".into(), Json::u64(self.sim_threads as u64)),
        ])
    }
}

/// `grid-off`: the perf harness's pinned 25-cell grid, hints off.
fn grid_off(seed: u64) -> Grid {
    Grid {
        workloads: vec!["kmeans", "ssca2", "vacation", "genome", "tpcc-no"],
        htms: vec![
            HtmKind::P8,
            HtmKind::P8S,
            HtmKind::InfCap,
            HtmKind::Lrws,
            HtmKind::PStretch,
        ],
        hints: vec![HintMode::Off],
        scale: Scale::Sim,
        seed,
        sim_threads: 1,
    }
}

/// `hinted-large`: HinTM as configured in the paper's Fig. 7/8.
pub fn hinted_large(seed: u64) -> Grid {
    Grid {
        workloads: vec!["kmeans", "labyrinth", "genome", "vacation", "tpcc-no"],
        htms: vec![HtmKind::P8, HtmKind::P8S, HtmKind::L1Tm],
        hints: vec![HintMode::Full],
        scale: Scale::Large,
        seed,
        sim_threads: HINTED_LANES,
    }
}

/// `sweep-figures`: every workload × every model × hints off and full.
pub fn figures(seed: u64) -> Grid {
    Grid {
        workloads: WORKLOAD_NAMES.to_vec(),
        htms: TABLE_MODELS.to_vec(),
        hints: vec![HintMode::Off, HintMode::Full],
        scale: Scale::Sim,
        seed,
        sim_threads: 1,
    }
}

/// `serve-mixed`'s pre-warmed cells.
fn prewarm(seed: u64) -> Grid {
    Grid {
        htms: vec![HtmKind::P8, HtmKind::P8S, HtmKind::L1Tm, HtmKind::InfCap],
        ..figures(seed)
    }
}

/// The sweep `serve-mixed`'s clients submit at `seed`: {genome, vacation}
/// × {P8, P8S} × {off, full}. At the run seed it lies inside the pre-warm,
/// so it is the reader's warm resubmit.
fn daemon_sweep(seed: u64) -> Grid {
    Grid {
        workloads: vec!["genome", "vacation"],
        htms: vec![HtmKind::P8, HtmKind::P8S],
        ..figures(seed)
    }
}

/// `serve-mixed`'s `i`-th fresh sweep. Its seed differs from the run seed
/// and from every other fresh sweep's, so it always misses the cache.
pub fn fresh(seed: u64, i: u64) -> Grid {
    daemon_sweep(fresh_seed(seed, i))
}

fn fresh_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        .wrapping_add(i + 1)
}

/// What a run is asked to do.
pub struct Ctx<'a> {
    /// The workload seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// One set-up and one unit of work (ten sweeps for the daemon).
    pub smoke: bool,
    /// Span store (a no-op unless tracing).
    pub tracer: &'a Tracer,
    /// Directory for trace files and scratch caches.
    pub out: &'a Path,
}

impl Ctx<'_> {
    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Whether to start another unit of work like the `last`-second one
    /// just measured since `started`: only if it would mostly fit in the
    /// run's seconds.
    fn another(&self, started: Instant, last: f64) -> bool {
        !self.smoke && started.elapsed().as_secs_f64() + last / 2.0 < self.seconds
    }

    /// A scratch directory under the output directory, removed first.
    pub fn scratch(&self, what: &str) -> PathBuf {
        let dir = self
            .out
            .join(format!("scratch-{}-{what}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// What a measured loop observed.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each measured unit of work, in seconds.
    pub units_s: Vec<f64>,
    /// The typical wall time of one unit of work, in seconds.
    pub sweep_s: f64,
    /// Latency of every measured operation in ms: each cell run of each
    /// measured pass, or each HTTP request.
    pub op_ms: Vec<f64>,
    /// Simulated memory accesses per host second.
    pub events_per_s: f64,
    /// Host threads the load ran on, by role.
    pub threads: Vec<(&'static str, usize)>,
    /// Per-route request latencies (daemon workloads only).
    pub routes: Routes,
    /// The daemon's final `(executed, cached)` counters.
    pub daemon: Option<(u64, u64)>,
    /// The statistic `hintm perf` reports: the median over cells of each
    /// cell's accesses per second of median wall time.
    pub median_cell_events_per_s: Option<f64>,
}

/// Runs every cell once, returning the pass's wall time and each cell's
/// wall time in ms and simulated accesses. Reports are checked after the
/// timed part.
fn cell_pass(
    ctx: &Ctx,
    checker: &mut Checker,
    cells: &[Cell],
    name: &str,
) -> (f64, Vec<(f64, u64)>) {
    let pass = ctx.tracer.start();
    let started = Instant::now();
    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        let span = ctx.tracer.start();
        let t = Instant::now();
        let r = run_cell(cell);
        results.push((t.elapsed().as_secs_f64() * 1e3, r));
        ctx.tracer.end(span, &cell.label(), pass.id, 0);
    }
    let wall = started.elapsed().as_secs_f64();
    ctx.tracer.end(pass, name, 0, 0);
    let results = cells
        .iter()
        .zip(results)
        .map(|(cell, (ms, r))| {
            checker.cell(cell, r.as_ref().map_err(String::as_str));
            (ms, r.map_or(0, |r| r.stats.cache.accesses))
        })
        .collect();
    (wall, results)
}

/// `grid-off` and `hinted-large`: passes over a fixed cell grid. A set-up
/// is a warm-up pass over the grid's first model.
fn cell_passes(ctx: &Ctx, checker: &mut Checker, grid: &Grid) -> Outcome {
    let cells = grid.cells();
    let warmup = grid.warmup().cells();
    let mut out = Outcome {
        threads: vec![("engine_lanes", grid.sim_threads)],
        ..Outcome::default()
    };
    for _ in 0..ctx.setup_reps() {
        let (wall, _) = cell_pass(ctx, checker, &warmup, "setup");
        out.setup_s.push(wall);
    }
    let mut walls = vec![Vec::new(); cells.len()];
    let mut events = vec![0u64; cells.len()];
    let started = Instant::now();
    loop {
        let (wall, results) = cell_pass(ctx, checker, &cells, "pass");
        for (i, (ms, n)) in results.into_iter().enumerate() {
            walls[i].push(ms);
            events[i] = n;
        }
        out.units_s.push(wall);
        if !ctx.another(started, wall) {
            break;
        }
    }
    // A pass at every cell's median: per-cell medians shed a burst of host
    // load that slowed a few cells, where a pass's median would not.
    let cell_ms: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    out.sweep_s = cell_ms.iter().sum::<f64>() / 1e3;
    out.events_per_s = events.iter().sum::<u64>() as f64 / out.sweep_s;
    let rates: Vec<f64> = events
        .iter()
        .zip(&cell_ms)
        .map(|(&n, ms)| n as f64 / (ms / 1e3))
        .collect();
    out.median_cell_events_per_s = Some(median(&rates));
    out.op_ms = walls.concat();
    out
}

/// One cold figure sweep into an empty cache, then its warm replay.
/// Returns the cold sweep's wall time, its cells' wall times in ms and
/// their simulated accesses.
fn sweep_pass(
    ctx: &Ctx,
    checker: &mut Checker,
    cells: &[Cell],
    name: &str,
) -> (f64, Vec<f64>, u64) {
    let dir = ctx.scratch("sweep");
    let runner = Runner::new().jobs(RUNNER_JOBS).cache(Cache::new(&dir));
    let span = ctx.tracer.start();
    let cold = runner.run(cells);
    ctx.tracer.end(span, name, 0, 0);
    let span = ctx.tracer.start();
    let warm = runner.run(cells);
    ctx.tracer.end(span, "warm_replay", 0, 0);
    let _ = std::fs::remove_dir_all(&dir);

    let mut events = 0;
    for r in &cold.cells {
        let outcome = match &r.outcome {
            hintm_runner::CellOutcome::Done(report) => {
                events += report.stats.cache.accesses;
                Ok(report.as_ref())
            }
            hintm_runner::CellOutcome::Crashed(msg) => Err(msg.as_str()),
        };
        checker.cell(&r.cell, outcome);
    }
    checker.op(warm.executed == 0 && warm.cache_hits == cells.len(), || {
        format!("warm replay simulated {} cells", warm.executed)
    });
    checker.op(results_csv(&cold) == results_csv(&warm), || {
        "cold and warm CSV differ".into()
    });
    let cell_ms = cold
        .cells
        .iter()
        .map(|r| r.wall.as_secs_f64() * 1e3)
        .collect();
    (cold.wall.as_secs_f64(), cell_ms, events)
}

/// `sweep-figures`: cold figure sweeps, each replayed warm. A set-up is a
/// cold and warm sweep of the grid's first model.
fn sweep_figures(ctx: &Ctx, checker: &mut Checker) -> Outcome {
    let grid = figures(ctx.seed);
    let cells = grid.cells();
    let warmup = grid.warmup().cells();
    let mut out = Outcome {
        threads: vec![("runner_jobs", RUNNER_JOBS)],
        ..Outcome::default()
    };
    for _ in 0..ctx.setup_reps() {
        let t = Instant::now();
        sweep_pass(ctx, checker, &warmup, "setup");
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut events;
    let started = Instant::now();
    loop {
        let (wall, cell_ms, n) = sweep_pass(ctx, checker, &cells, "cold_sweep");
        out.units_s.push(wall);
        out.op_ms.extend(cell_ms);
        events = n;
        if !ctx.another(started, wall) {
            break;
        }
    }
    out.sweep_s = median(&out.units_s);
    out.events_per_s = events as f64 / out.sweep_s;
    out
}

/// Checks a daemon report against the cells its spec enumerates: one CSV
/// row per cell, rows rendering the JSON reports, and every report passing
/// the cell checks. Returns the reports' simulated accesses.
fn check_report(client: &Client, cells: &[Cell], csv: &str, json: &Json) -> u64 {
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    let entries = json.as_arr().unwrap_or(&[]);
    if !client.check(
        rows.len() == cells.len() && entries.len() == cells.len(),
        || {
            format!(
                "report has {} CSV rows and {} JSON entries for {} cells",
                rows.len(),
                entries.len(),
                cells.len()
            )
        },
    ) {
        return 0;
    }
    let mut events = 0;
    for ((cell, row), entry) in cells.iter().zip(rows).zip(entries) {
        let report = entry
            .field("report")
            .map_err(|e| e.to_string())
            .and_then(|r| RunReport::from_json_value(r).map_err(|e| e.to_string()));
        let problem = match &report {
            Err(e) => Some(format!("unreadable report: {e}")),
            Ok(r) if csv_row(r, cell.seed) != row => Some("CSV row disagrees with JSON".into()),
            Ok(r)
                if (r.workload.as_str(), r.htm, r.hint_mode)
                    != (cell.workload.as_str(), cell.htm, cell.hint) =>
            {
                Some("report for another cell".into())
            }
            Ok(_) => None,
        };
        match (problem, &report) {
            (None, Ok(r)) => {
                events += r.stats.cache.accesses;
                client.checker().cell(cell, Ok(r));
            }
            (p, _) => {
                client
                    .checker()
                    .cell(cell, Err(p.as_deref().unwrap_or("unreadable")));
            }
        }
    }
    events
}

/// `serve-mixed`: a fresh-sweep submitter and a reader against a
/// pre-warmed daemon. A set-up is a daemon start plus the pre-warm.
fn serve_mixed(ctx: &Ctx, checker: &mut Checker) -> Outcome {
    let mut out = Outcome {
        threads: vec![("clients", 2), ("daemon_workers", 1)],
        ..Outcome::default()
    };
    let pre = prewarm(ctx.seed);
    let pre_cells = pre.cells();
    let warm = daemon_sweep(ctx.seed);
    let warm_cells = warm.cells();
    let shared = Mutex::new(std::mem::take(checker));
    let dir = ctx.scratch("serve");
    let mut server: Option<Server> = None;
    for _ in 0..ctx.setup_reps() {
        if let Some(s) = server.take() {
            s.stop();
            s.join();
        }
        let _ = std::fs::remove_dir_all(&dir);
        let span = ctx.tracer.start();
        let t = Instant::now();
        let started = daemon::start(&dir);
        let s = match started {
            Ok(s) => s,
            Err(e) => {
                *checker = shared.into_inner().expect("checker");
                checker.op(false, || format!("daemon start: {e}"));
                return out;
            }
        };
        let mut client = Client::new(s.addr().to_string(), &shared, ctx.tracer, 1);
        client.parent = span.id;
        let id = client.submit(&pre.spec_json(), pre_cells.len());
        let csv = id
            .filter(|&id| client.wait(id))
            .and_then(|id| client.report_csv(id));
        out.setup_s.push(t.elapsed().as_secs_f64());
        ctx.tracer.end(span, "setup", 0, 1);
        if let (Some(id), Some(csv)) = (id, csv) {
            if let Some(json) = client.report_json(id) {
                check_report(&client, &pre_cells, &csv, &json);
            }
        }
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr().to_string();

    // The warm resubmit's reference report, checked once in full.
    let mut client = Client::new(addr.clone(), &shared, ctx.tracer, 1);
    let id = client.submit(&warm.spec_json(), warm_cells.len());
    let warm_csv = id
        .filter(|&id| client.wait(id))
        .and_then(|id| Some((client.report_csv(id)?, client.report_json(id)?)))
        .map(|(csv, json)| {
            check_report(&client, &warm_cells, &csv, &json);
            csv
        })
        .unwrap_or_default();

    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (submitter, reader) = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let mut client = Client::new(addr.clone(), &shared, ctx.tracer, 1);
            let span = ctx.tracer.start();
            client.parent = span.id;
            let (mut turnaround, mut rates) = (Vec::new(), Vec::new());
            let mut i = 0;
            loop {
                let more = if ctx.smoke {
                    (i as usize) < SMOKE_SWEEPS
                } else {
                    i == 0 || started.elapsed().as_secs_f64() < ctx.seconds
                };
                if !more {
                    break;
                }
                let grid = fresh(ctx.seed, i);
                let cells = grid.cells();
                i += 1;
                let t = Instant::now();
                let Some(id) = client.submit(&grid.spec_json(), cells.len()) else {
                    continue;
                };
                if !client.wait(id) {
                    continue;
                }
                let Some(csv) = client.report_csv(id) else {
                    continue;
                };
                let secs = t.elapsed().as_secs_f64();
                if let Some(json) = client.report_json(id) {
                    let events = check_report(&client, &cells, &csv, &json);
                    turnaround.push(secs);
                    rates.push(events as f64 / secs);
                }
            }
            done.store(true, Ordering::SeqCst);
            ctx.tracer.end(span, "submitter", 0, 1);
            (client.routes, turnaround, rates)
        });
        let reader = scope.spawn(|| {
            let mut client = Client::new(addr.clone(), &shared, ctx.tracer, 2);
            let span = ctx.tracer.start();
            client.parent = span.id;
            let mut executed = 0;
            let list = |client: &mut Client| {
                if let Some(n) = client.list() {
                    client.check(n >= 1, || "GET /sweeps lists no jobs".into());
                }
            };
            // One cycle: stats, a warm resubmit, a listing, stats, a
            // listing. The two listings give `/sweeps` as many samples as
            // `/stats`, enough for its tail percentile.
            while !done.load(Ordering::SeqCst) {
                if let Some((e, _)) = client.stats() {
                    client.check(e >= executed, || {
                        format!("executed fell from {executed} to {e}")
                    });
                    executed = e;
                }
                if let Some(id) = client.submit(&warm.spec_json(), warm_cells.len()) {
                    if client.wait(id) {
                        if let Some(csv) = client.report_csv(id) {
                            client.check(csv == warm_csv, || "warm resubmit CSV differs".into());
                        }
                    }
                }
                list(&mut client);
                client.stats();
                list(&mut client);
            }
            ctx.tracer.end(span, "reader", 0, 2);
            client.routes
        });
        (
            submitter.join().expect("submitter thread"),
            reader.join().expect("reader thread"),
        )
    });
    let (routes, turnaround, rates) = submitter;
    let mut last = Client::new(addr, &shared, ctx.tracer, 0);
    out.daemon = last.stats();
    server.stop();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    *checker = shared.into_inner().expect("checker");

    for (route, ms) in routes.into_iter().chain(reader) {
        out.op_ms.extend(&ms);
        out.routes.entry(route).or_default().extend(ms);
    }
    if !rates.is_empty() {
        out.events_per_s = median(&rates);
        out.sweep_s = median(&turnaround);
    }
    out.units_s = turnaround;
    out
}
