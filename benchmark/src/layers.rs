//! The traced run's per-layer numbers, taken from outside the engine.
//!
//! Each phase drives one layer through its public entry points:
//!
//! * **engine** — every attributed cell runs four times: plain (the
//!   reference time and the counts), under [`TimedGen`] (time inside
//!   `Workload::next_section`), under a `DigestSink` (the cost of the
//!   trace layer), and under [`Capture`] (the event and section streams
//!   the replays below consume). All four must produce the same stats.
//! * **replays** — captured accesses through `Hierarchy::access_into` and
//!   `VmSystem::access`; captured in-transaction accesses through one
//!   `HtmThread` per thread with `conflict_probe` against the other active
//!   threads (the stream carries no safe verdict, so every access is
//!   tracked: an upper bound); captured sections through the public
//!   `SectionCompiler`.
//! * **lanes** — kmeans and labyrinth, the only workloads whose generation
//!   is thread-local, at one and two engine lanes, beside the Amdahl bound
//!   their generation share allows.
//! * **runner** and **daemon** — the attributed cells as a sweep, cold
//!   and warm, and (unless the workload already drove the daemon) as a
//!   daemon job probed route by route.

use crate::check::Checker;
use crate::daemon::{self, Client, Routes};
use crate::engine::{run_cell, simulate, workload_for, Capture, TimedGen};
use crate::stats::{median, percentile};
use crate::workloads::{Bench, Ctx, Grid, Outcome, RUNNER_JOBS};
use hintm::{AbortKind, Section, SectionCompiler, SimConfig, TraceEvent};
use hintm_cache::{AccessOutcome, Hierarchy};
use hintm_htm::HtmThread;
use hintm_runner::{results_csv, Cache, Cell, CellOutcome, Runner};
use hintm_trace::DigestSink;
use hintm_types::CoreId;
use hintm_vm::VmSystem;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Events captured for replay, across all attributed cells.
const CAPTURE_EVENTS: usize = 400_000;

/// Sections captured per cell for the compiler replay.
const KEEP_SECTIONS: usize = 500;

/// `next_section` spans written to the trace file per cell.
const KEEP_SPANS: usize = 32;

/// Timing repeats per lane count in the lanes phase.
const LANE_REPS: usize = 5;

/// Request rounds of the daemon probe: each route then has at least 100
/// samples, ten of them beyond its 90th percentile.
const SERVE_ROUNDS: usize = 100;

/// The daemon routes reported per layer.
const ROUTES: [&str; 5] = ["stats", "poll", "submit", "report", "list"];

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sums over the attributed cells' engine runs.
#[derive(Default)]
struct Totals {
    accesses: u64,
    steps: u64,
    commits: u64,
    aborts: u64,
    capacity_aborts: u64,
    l1_hits: u64,
    l2_hits: u64,
    mem_fetches: u64,
    page_walks: u64,
    shootdowns: u64,
    safe_loads: u64,
    unsafe_loads: u64,
    breakdown: [u64; 3],
    plain_ns: u64,
    gen_ns: u64,
    timed_ns: u64,
    digest_ns: u64,
    digest_events: u64,
}

/// One cell's captured streams.
struct Captured {
    cfg: SimConfig,
    threads: usize,
    events: Vec<TraceEvent>,
    sections: Vec<Section>,
    cell: Cell,
}

/// Runs one cell four ways (see the module docs), folding it into `t`.
fn probe_cell(
    ctx: &Ctx,
    checker: &mut Checker,
    cell: &Cell,
    capture: usize,
    t: &mut Totals,
) -> Captured {
    let span = ctx.tracer.start();
    let (plain, plain_ns) = simulate(cell, workload_for(cell).as_mut(), None);
    let mut timed = TimedGen::new(workload_for(cell), KEEP_SPANS, 0);
    let (timed_report, timed_ns) = simulate(cell, &mut timed, None);
    let mut digest = DigestSink::new();
    let (digest_report, digest_ns) = simulate(cell, workload_for(cell).as_mut(), Some(&mut digest));
    let mut sink = Capture::new(capture);
    let mut keep = TimedGen::new(workload_for(cell), 0, KEEP_SECTIONS);
    let (captured_report, _) = simulate(cell, &mut keep, Some(&mut sink));
    for (start, end) in &timed.spans {
        ctx.tracer
            .record(0, "next_section", span.id, 0, *start, *end);
    }
    ctx.tracer.end(span, &cell.label(), 0, 0);

    for r in [&plain, &timed_report, &digest_report, &captured_report] {
        checker.cell(cell, Ok(r));
    }
    let s = &plain.stats;
    t.accesses += s.cache.accesses;
    t.steps += s.steps;
    t.commits += s.commits;
    t.aborts += s.total_aborts();
    t.capacity_aborts += s.aborts_of(AbortKind::Capacity);
    t.l1_hits += s.cache.l1_hits;
    t.l2_hits += s.cache.l2_hits;
    t.mem_fetches += s.cache.mem_fetches;
    t.page_walks += s.vm.page_walks;
    t.shootdowns += s.vm.shootdowns;
    t.safe_loads += s.vm.safe_loads;
    t.unsafe_loads += s.vm.unsafe_loads;
    for (sum, n) in t.breakdown.iter_mut().zip(s.access_breakdown) {
        *sum += n;
    }
    t.plain_ns += plain_ns;
    t.gen_ns += timed.gen_ns;
    t.timed_ns += timed_ns;
    t.digest_ns += digest_ns;
    t.digest_events += digest.events();
    Captured {
        cfg: cell.experiment().sim_config(),
        threads: workload_for(cell).num_threads(),
        events: sink.events,
        sections: keep.sections,
        cell: cell.clone(),
    }
}

fn core(cfg: &SimConfig, thread: hintm_types::ThreadId) -> CoreId {
    CoreId(thread.0 / cfg.machine.smt.ways() as u32)
}

/// Replays accesses through a fresh cache hierarchy: `(ns, accesses)`.
fn replay_cache(c: &Captured) -> (u64, u64) {
    let mut h = Hierarchy::new(&c.cfg.machine);
    let mut out = AccessOutcome::default();
    let mut n = 0;
    let t = Instant::now();
    for ev in &c.events {
        if let TraceEvent::Access { thread, access, .. } = *ev {
            h.access_into(
                core(&c.cfg, thread),
                access.addr.block(),
                access.kind,
                &mut out,
            );
            n += 1;
        }
    }
    (t.elapsed().as_nanos() as u64, n)
}

/// Replays accesses through a fresh VM system: `(ns, accesses)`.
fn replay_vm(c: &Captured) -> (u64, u64) {
    let mut vm = VmSystem::new(&c.cfg.machine, c.cfg.preserve);
    let mut n = 0;
    let t = Instant::now();
    for ev in &c.events {
        if let TraceEvent::Access { thread, access, .. } = *ev {
            black_box(vm.access(
                core(&c.cfg, thread),
                thread,
                access.addr.page(),
                access.kind,
            ));
            n += 1;
        }
    }
    (t.elapsed().as_nanos() as u64, n)
}

/// Replays the transaction lifecycle and in-transaction accesses through
/// one `HtmThread` per thread, probing every other active thread per
/// access when `probe`: `(ns, tracked accesses, probes)`.
fn replay_htm(c: &Captured, probe: bool) -> (u64, u64, u64) {
    let mut threads: Vec<HtmThread> = (0..c.threads).map(|_| HtmThread::new(&c.cfg.htm)).collect();
    let (mut tracked, mut probes) = (0, 0);
    let t = Instant::now();
    for ev in &c.events {
        match *ev {
            TraceEvent::TxBegin { thread, .. } if !threads[thread.index()].is_active() => {
                threads[thread.index()].begin();
            }
            TraceEvent::Access {
                thread,
                access,
                in_tx: true,
                ..
            } if threads[thread.index()].is_active() => {
                let i = thread.index();
                let block = access.addr.block();
                if probe {
                    for (j, other) in threads.iter().enumerate() {
                        if j != i && other.is_active() {
                            black_box(other.conflict_probe(block));
                            probes += 1;
                        }
                    }
                }
                tracked += 1;
                if threads[i].on_access(block, access.kind, false).is_err() {
                    threads[i].abort(AbortKind::Capacity);
                }
            }
            TraceEvent::TxCommit { thread, .. } if threads[thread.index()].is_active() => {
                threads[thread.index()].commit();
            }
            TraceEvent::TxAbort { thread, kind, .. } if threads[thread.index()].is_active() => {
                threads[thread.index()].abort(kind);
            }
            _ => {}
        }
    }
    (t.elapsed().as_nanos() as u64, tracked, probes)
}

/// Lowers the captured sections through a fresh `SectionCompiler`:
/// `(ns, sections, cache hits, cache misses)`.
fn replay_compiler(c: &Captured) -> (u64, u64, u64, u64) {
    let mut w = workload_for(&c.cell);
    w.reset(c.cell.seed);
    let mut compiler = SectionCompiler::new(w.as_ref(), &c.cfg);
    let t = Instant::now();
    for s in &c.sections {
        black_box(compiler.compile(s));
    }
    (
        t.elapsed().as_nanos() as u64,
        c.sections.len() as u64,
        compiler.cache_hits(),
        compiler.cache_misses(),
    )
}

/// Times kmeans and labyrinth at one and two lanes: `(speed-up, Amdahl
/// bound from their generation share)`.
fn lanes(ctx: &Ctx, checker: &mut Checker, grid: &Grid) -> (f64, f64) {
    let reps = if ctx.smoke { 1 } else { LANE_REPS };
    let (mut one, mut two, mut gen_ns, mut serial_ns) = (0.0, 0.0, 0u64, 0u64);
    for workload in ["kmeans", "labyrinth"] {
        let cell = Cell::new(workload)
            .hint(grid.hints[0])
            .scale(grid.scale)
            .seed(grid.seed);
        let mut walls = [Vec::new(), Vec::new()];
        for _ in 0..reps {
            for (k, lanes) in [1, 2].into_iter().enumerate() {
                let c = cell.clone().sim_threads(lanes);
                let t = Instant::now();
                let r = run_cell(&c);
                walls[k].push(t.elapsed().as_secs_f64());
                // Same key at both lane counts: the second must match the first.
                checker.cell(&c, r.as_ref().map_err(String::as_str));
            }
        }
        one += median(&walls[0]);
        two += median(&walls[1]);
        let mut timed = TimedGen::new(workload_for(&cell), 0, 0);
        let (r, wall) = simulate(&cell, &mut timed, None);
        checker.cell(&cell, Ok(&r));
        gen_ns += timed.gen_ns;
        serial_ns += wall;
    }
    let f = per(gen_ns as f64, serial_ns as f64);
    (per(one, two), 1.0 / ((1.0 - f) + f / 2.0))
}

/// The cells as a sweep: cold into an empty cache, each report stored
/// again on its own, then replayed warm. Returns `(busy ratio, ms per
/// store, warm replay ms)`.
fn runner(ctx: &Ctx, checker: &mut Checker, cells: &[Cell]) -> (f64, f64, f64) {
    let dir = ctx.scratch("runner");
    let store_dir = ctx.scratch("store");
    let runner = Runner::new().jobs(RUNNER_JOBS).cache(Cache::new(&dir));
    let span = ctx.tracer.start();
    let cold = runner.run(cells);
    ctx.tracer.end(span, "runner.cold_sweep", 0, 0);
    for r in &cold.cells {
        let outcome = match &r.outcome {
            CellOutcome::Done(report) => Ok(report.as_ref()),
            CellOutcome::Crashed(msg) => Err(msg.as_str()),
        };
        checker.cell(&r.cell, outcome);
    }
    let busy: f64 = cold.cells.iter().map(|r| r.wall.as_secs_f64()).sum();
    let busy = per(busy, cold.jobs as f64 * cold.wall.as_secs_f64());

    let store = Cache::new(&store_dir);
    let (mut stored, mut store_ns) = (0u32, 0u64);
    for (cell, report) in cold.reports() {
        let t = Instant::now();
        let ok = store.store(cell, report).is_ok();
        store_ns += t.elapsed().as_nanos() as u64;
        stored += 1;
        checker.op(ok, || format!("{}: cache store failed", cell.label()));
    }

    let span = ctx.tracer.start();
    let warm = runner.run(cells);
    ctx.tracer.end(span, "runner.warm_sweep", 0, 0);
    checker.op(
        warm.executed == 0 && results_csv(&warm) == results_csv(&cold),
        || "warm replay simulated cells or changed the CSV".into(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    (
        busy,
        per(store_ns as f64 / 1e6, stored as f64),
        warm.wall.as_secs_f64() * 1e3,
    )
}

/// The grid as a daemon job, then rounds of every route against it:
/// per-route latencies and the final `(executed, cached)` counters.
fn daemon(ctx: &Ctx, checker: &mut Checker, grid: &Grid) -> (Routes, Option<(u64, u64)>) {
    let dir = ctx.scratch("daemon");
    let server = match daemon::start(&dir) {
        Ok(s) => s,
        Err(e) => {
            checker.op(false, || format!("daemon start: {e}"));
            return (Routes::new(), None);
        }
    };
    let shared = Mutex::new(std::mem::take(checker));
    let spec = grid.spec_json();
    let n = grid.cells().len();
    let mut client = Client::new(server.addr().to_string(), &shared, ctx.tracer, 1);
    let span = ctx.tracer.start();
    client.parent = span.id;
    let first = client.submit(&spec, n);
    let csv = first
        .filter(|&id| client.wait(id))
        .and_then(|id| client.report_csv(id));
    let rounds = if ctx.smoke { 3 } else { SERVE_ROUNDS };
    for _ in 0..rounds {
        client.stats();
        if let Some(id) = client.submit(&spec, n) {
            if client.wait(id) {
                let again = client.report_csv(id);
                client.check(again.is_some() && again == csv, || {
                    "resubmitted job's CSV differs".into()
                });
            }
        }
        client.list();
    }
    let counters = client.stats();
    ctx.tracer.end(span, "daemon.probe", 0, 1);
    let routes = std::mem::take(&mut client.routes);
    server.stop();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    *checker = shared.into_inner().expect("checker");
    (routes, counters)
}

/// Runs every phase and returns each per-layer metric by name.
pub fn attribute(
    ctx: &Ctx,
    checker: &mut Checker,
    bench: Bench,
    main: &Outcome,
) -> BTreeMap<&'static str, f64> {
    let grid = bench.layer_grid(ctx.seed);
    let cells = grid.cells();
    let mut m = BTreeMap::new();

    let mut t = Totals::default();
    let mut captured = Vec::new();
    let per_cell = CAPTURE_EVENTS / cells.len();
    for cell in &cells {
        match catch_unwind(AssertUnwindSafe(|| {
            probe_cell(ctx, checker, cell, per_cell, &mut t)
        })) {
            Ok(c) => captured.push(c),
            Err(_) => {
                checker.op(false, || {
                    format!("{}: instrumented run panicked", cell.label())
                });
            }
        }
    }
    let a = t.accesses as f64;
    m.insert("workloads.gen_ns_per_event", per(t.gen_ns as f64, a));
    m.insert(
        "sim.merge_self_ns_per_event",
        per(t.plain_ns.saturating_sub(t.gen_ns) as f64, a),
    );
    m.insert("sim.steps_per_event", per(t.steps as f64, a));
    m.insert(
        "sim.commit_ratio",
        per(t.commits as f64, (t.commits + t.aborts) as f64),
    );
    m.insert("cache.l1_hit_ratio", per(t.l1_hits as f64, a));
    m.insert(
        "cache.l2_hit_ratio",
        per(t.l2_hits as f64, a - t.l1_hits as f64),
    );
    m.insert(
        "cache.mem_fetches_per_kevent",
        per(t.mem_fetches as f64 * 1e3, a),
    );
    m.insert(
        "vm.page_walks_per_kevent",
        per(t.page_walks as f64 * 1e3, a),
    );
    m.insert("vm.shootdowns", t.shootdowns as f64);
    m.insert(
        "vm.safe_load_ratio",
        per(t.safe_loads as f64, (t.safe_loads + t.unsafe_loads) as f64),
    );
    m.insert(
        "htm.tracked_ratio",
        per(
            t.breakdown[2] as f64,
            t.breakdown.iter().sum::<u64>() as f64,
        ),
    );
    m.insert("htm.capacity_aborts", t.capacity_aborts as f64);
    m.insert(
        "trace.sink_ns_per_event",
        per(
            t.digest_ns.saturating_sub(t.plain_ns) as f64,
            t.digest_events as f64,
        ),
    );
    m.insert(
        "trace.overhead_ratio",
        per(t.digest_ns as f64, t.plain_ns as f64),
    );
    m.insert(
        "bench.span_overhead_ratio",
        per(t.timed_ns as f64, t.plain_ns as f64),
    );

    let (mut cache, mut vm, mut htm, mut probe) = ([0u64; 2], [0u64; 2], [0u64; 2], [0u64; 2]);
    let mut lower = [0u64; 4];
    for c in &captured {
        let (ns, n) = replay_cache(c);
        cache = [cache[0] + ns, cache[1] + n];
        let (ns, n) = replay_vm(c);
        vm = [vm[0] + ns, vm[1] + n];
        let (ns, tracked, _) = replay_htm(c, false);
        htm = [htm[0] + ns, htm[1] + tracked];
        let (ns, _, probes) = replay_htm(c, true);
        probe = [probe[0] + ns, probe[1] + probes];
        let (ns, sections, hits, misses) = replay_compiler(c);
        lower = [
            lower[0] + ns,
            lower[1] + sections,
            lower[2] + hits,
            lower[3] + misses,
        ];
    }
    m.insert("cache.ns_per_access", per(cache[0] as f64, cache[1] as f64));
    m.insert("vm.ns_per_access", per(vm[0] as f64, vm[1] as f64));
    m.insert(
        "htm.ns_per_tracked_access",
        per(htm[0] as f64, htm[1] as f64),
    );
    m.insert(
        "htm.probe_ns",
        per(probe[0].saturating_sub(htm[0]) as f64, probe[1] as f64),
    );
    m.insert(
        "sim.lower_ns_per_section",
        per(lower[0] as f64, lower[1] as f64),
    );
    m.insert(
        "sim.program_cache_hit_ratio",
        per(lower[2] as f64, (lower[2] + lower[3]) as f64),
    );

    let (speedup, bound) = lanes(ctx, checker, &grid);
    m.insert("sim.lanes2_vs_1", speedup);
    m.insert("sim.lanes_amdahl_bound", bound);

    let (busy, store, warm) = runner(ctx, checker, &cells);
    m.insert("runner.busy_ratio", busy);
    m.insert("runner.store_ms_per_cell", store);
    m.insert("runner.warm_sweep_ms", warm);

    let (routes, counters) = if main.routes.is_empty() {
        daemon(ctx, checker, &grid)
    } else {
        (main.routes.clone(), main.daemon)
    };
    for route in ROUTES {
        let ms = routes.get(route).map_or(&[][..], Vec::as_slice);
        let (p50, p90) = if ms.is_empty() {
            (0.0, 0.0)
        } else {
            (median(ms), percentile(ms, 90.0))
        };
        m.insert(declared(format!("serve.{route}_p50_ms")), p50);
        m.insert(declared(format!("serve.{route}_p90_ms")), p90);
    }
    let (executed, cached) = counters.unwrap_or_default();
    m.insert("serve.executed", executed as f64);
    m.insert("serve.cached", cached as f64);

    let mut build_ms = 0.0;
    for workload in &grid.workloads {
        let mut times = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            black_box(hintm::by_name(workload, grid.scale));
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        build_ms += median(&times);
    }
    m.insert("ir.build_ms", build_ms);
    m
}

/// The declared per-layer metric called `name`.
fn declared(name: String) -> &'static str {
    crate::metrics::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| *n == name)
        .expect("route metric is declared")
}
