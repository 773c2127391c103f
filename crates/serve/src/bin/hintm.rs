//! The `hintm` command-line tool: run reproduction experiments from the
//! shell. Lives in the serve crate — the top of the runner stack — so
//! `hintm sweep` / `hintm cache` can reach the orchestration layer and
//! `hintm serve` the daemon; everything else is delegated to
//! [`hintm::cli::execute`]. See `hintm help` or [`hintm::cli::USAGE`].

use hintm::cli::{self, Command, ServeArgs, SweepArgs};
use hintm::{Cell, Scale};
use hintm_runner::{Cache, Runner};
use hintm_serve::{join_loop, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;

fn build_runner(sa: &SweepArgs) -> Runner {
    let jobs = sa
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut runner = Runner::new().jobs(jobs).progress(true);
    if sa.no_cache || sa.trace {
        // Tracing re-simulates every cell: cached results carry no event
        // stream to export.
        runner = runner.no_cache();
    } else if let Some(dir) = &sa.cache_dir {
        runner = runner.cache(Cache::new(dir));
    }
    runner
}

/// The `hintm sweep --smoke` workload subset: one small workload per
/// footprint regime (fits / read-heavy / write-present), fast enough for
/// a CI smoke job.
const SMOKE_WORKLOADS: [&str; 3] = ["kmeans", "ssca2", "tpcc-p"];

fn run_sweep(sa: &SweepArgs) -> Result<(), String> {
    let mut spec = sa.spec.clone();
    if sa.smoke && spec.values("workload").is_empty() {
        spec = spec.workloads(SMOKE_WORKLOADS);
    }
    let cells = spec.cells();
    let runner = build_runner(sa);
    let result = if sa.trace {
        let trace_dir = sa.out.as_ref().map(|o| PathBuf::from(o).join("traces"));
        runner.run_with(&cells, |cell| {
            let (report, rec) = cell.run_traced(100_000).unwrap_or_else(|e| panic!("{e}"));
            if let Some(dir) = &trace_dir {
                if let Err(e) = hintm_runner::write_trace(dir, cell, &rec.events()) {
                    eprintln!("warning: trace export failed for {}: {e}", cell.label());
                }
            }
            report
        })
    } else {
        runner.run(&cells)
    };

    eprintln!(
        "sweep: {} cells in {:.2}s with {} jobs — {} simulated, {} cached, {} crashed",
        result.cells.len(),
        result.wall.as_secs_f64(),
        result.jobs,
        result.executed,
        result.cache_hits,
        result.crashed,
    );
    if let Some(out) = &sa.out {
        let paths = hintm_runner::write_artifacts(&PathBuf::from(out), "sweep", &result)
            .map_err(|e| format!("writing artifacts to {out}: {e}"))?;
        for p in paths {
            eprintln!("wrote {}", p.display());
        }
    }
    if sa.csv {
        print!("{}", hintm_runner::results_csv(&result));
    }
    if result.crashed > 0 {
        return Err(format!("{} cell(s) crashed", result.crashed));
    }
    if sa.audit {
        audit_sweep(&cells)?;
    }
    if sa.analyze {
        analyze_sweep(&cells)?;
    }
    Ok(())
}

/// Audits every distinct workload a sweep touched: runs the IR verifier,
/// the lint set, and the dynamic sharing oracle once per workload at the
/// sweep's first scale and seed (those of its first cell).
fn audit_sweep(cells: &[Cell]) -> Result<(), String> {
    let mut names: Vec<&str> = cells.iter().map(|c| c.workload.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let (scale, seed) = cells
        .first()
        .map_or((Scale::Sim, 42), |c| (c.scale, c.seed));
    eprintln!("{}", cli::audit_header());
    let mut failed = 0usize;
    for name in names {
        match hintm_audit::audit_workload(name, scale, seed) {
            Some(r) => {
                eprintln!("{}", cli::audit_row(&r));
                if !r.passed() {
                    failed += 1;
                }
            }
            None => return Err(format!("audit: unknown workload `{name}`")),
        }
    }
    if failed > 0 {
        return Err(format!("{failed} workload(s) failed the audit"));
    }
    Ok(())
}

/// Statically analyzes every distinct workload a sweep touched: footprint
/// bounds, per-model capacity verdicts, and the hint-inference diff, at
/// the sweep's first scale. No extra simulator runs.
fn analyze_sweep(cells: &[Cell]) -> Result<(), String> {
    let mut names: Vec<&str> = cells.iter().map(|c| c.workload.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let scale = cells.first().map_or(Scale::Sim, |c| c.scale);
    eprintln!("{}", cli::analyze_header());
    let mut failed = 0usize;
    for name in names {
        match hintm_audit::analyze_workload(name, scale) {
            Some(r) => {
                eprintln!("{}", cli::analyze_row(&r));
                if !r.passed() {
                    failed += 1;
                }
            }
            None => return Err(format!("analyze: unknown workload `{name}`")),
        }
    }
    if failed > 0 {
        return Err(format!("{failed} workload(s) failed the static analysis"));
    }
    Ok(())
}

fn cache_at(dir: Option<&str>) -> Cache {
    Cache::new(dir.map_or_else(Cache::default_dir, PathBuf::from))
}

fn clear_cache(dir: Option<&str>) -> Result<(), String> {
    let cache = cache_at(dir);
    let removed = cache.clear().map_err(|e| e.to_string())?;
    eprintln!(
        "cleared {} cached result(s) from {}",
        removed,
        cache.dir().display()
    );
    Ok(())
}

/// `hintm cache stats`: the same summary `GET /stats` serves, as a table.
fn cache_stats(dir: Option<&str>) -> Result<(), String> {
    let stats = cache_at(dir).stats().map_err(|e| e.to_string())?;
    println!("cache {}", stats.dir.display());
    println!("  schema     {}", stats.schema);
    println!("  entries    {}", stats.entries);
    println!("  bytes      {}", stats.bytes);
    println!("  stale      {}", stats.stale);
    println!("  unreadable {}", stats.unreadable);
    if !stats.by_workload.is_empty() {
        println!("  by workload:");
        for (name, w) in &stats.by_workload {
            println!(
                "    {name:<12} {:>5} entries {:>9} bytes",
                w.entries, w.bytes
            );
        }
    }
    Ok(())
}

fn serve(sa: &ServeArgs) -> Result<(), String> {
    let cache = Cache::new(
        sa.cache_dir
            .as_ref()
            .map_or_else(Cache::default_dir, PathBuf::from),
    );

    if let Some(daemon) = &sa.join {
        let workers = sa.workers.unwrap_or(1).max(1);
        let runner = Runner::new().cache(cache);
        eprintln!("joining {daemon} with {workers} worker(s)");
        let summaries: Vec<_> = std::thread::scope(|scope| {
            let runner = &runner;
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(move || join_loop(daemon, runner)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut completed = 0;
        let mut crashed = 0;
        for s in summaries {
            let s = s.map_err(|e| format!("join worker failed: {e}"))?;
            completed += s.completed;
            crashed += s.crashed;
        }
        eprintln!("daemon shut down; this worker completed {completed} cell(s), {crashed} crashed");
        return Ok(());
    }

    let workers = sa
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let server = Server::start(ServeConfig {
        addr: sa.addr.clone(),
        workers,
        cache: Some(cache),
    })
    .map_err(|e| format!("binding {}: {e}", sa.addr))?;
    eprintln!(
        "hintm serve listening on {} with {} local worker(s) — POST /shutdown to stop",
        server.addr(),
        workers
    );
    server.join();
    eprintln!("hintm serve: shut down");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    let result = match &cmd {
        Command::Sweep(sa) => run_sweep(sa),
        Command::CacheClear { dir } => clear_cache(dir.as_deref()),
        Command::CacheStats { dir } => cache_stats(dir.as_deref()),
        Command::Serve(sa) => serve(sa),
        other => {
            let mut out = std::io::stdout().lock();
            cli::execute(other, &mut out).map_err(|e| e.to_string())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
