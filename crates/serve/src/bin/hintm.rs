//! The `hintm` command-line tool: run reproduction experiments from the
//! shell. Lives in the serve crate — the top of the runner stack — so
//! `hintm sweep` / `hintm figures` / `hintm cache` can reach the
//! orchestration layer and `hintm serve` the daemon; everything else is
//! delegated to [`hintm::cli::execute`]. See `hintm help` or
//! [`hintm::cli::USAGE`].

use hintm::cli::{self, Command, FiguresArgs, RunnerArgs, ServeArgs, SweepArgs};
use hintm::figures::{self, Figure, FIGURES};
use hintm::MachineConfig;
use hintm_runner::{Cache, Runner, SweepResult};
use hintm_serve::{join_loop, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;

fn build_runner(ra: &RunnerArgs) -> Runner {
    let jobs = ra
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut runner = Runner::new().jobs(jobs).progress(true);
    if ra.no_cache {
        runner = runner.no_cache();
    } else if let Some(dir) = &ra.cache_dir {
        runner = runner.cache(Cache::new(dir));
    }
    runner
}

/// The stderr line that closes a batch.
fn summarize(command: &str, result: &SweepResult) {
    eprintln!(
        "{command}: {} cells in {:.2}s with {} jobs — {} simulated, {} cached, {} crashed",
        result.cells.len(),
        result.wall.as_secs_f64(),
        result.jobs,
        result.executed,
        result.cache_hits,
        result.crashed,
    );
}

fn run_sweep(sa: &SweepArgs) -> Result<(), String> {
    let result = build_runner(&sa.runner).run(&sa.spec.cells());
    summarize("sweep", &result);
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
    Ok(())
}

/// `hintm figures`: the selected rows' cells as one batch, then the
/// Table II machine summary and each row's table.
fn run_figures(fa: &FiguresArgs) -> Result<(), String> {
    let rows: Vec<&Figure> = if fa.names.is_empty() {
        FIGURES.iter().collect()
    } else {
        fa.names
            .iter()
            .map(|n| figures::figure(n).expect("parse checked the name"))
            .collect()
    };
    let result = build_runner(&fa.runner).run(&figures::batch(&rows));
    summarize("figures", &result);
    if result.crashed > 0 {
        return Err(format!("{} cell(s) crashed", result.crashed));
    }
    println!("{}", MachineConfig::default().table2_summary());
    println!();
    for row in rows {
        print!("{}", (row.render)(&|c| result.expect_report(c)));
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
        Command::Figures(fa) => run_figures(fa),
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
