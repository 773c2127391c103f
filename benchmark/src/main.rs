//! The HinTM reproduction's benchmark: four workloads over the engine,
//! the sweep runner and the daemon, each printing its end-to-end metrics
//! (or, traced, its per-layer metrics) and checking its outputs.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run grid-off --seed 42
//! cargo run --release --manifest-path benchmark/Cargo.toml -- trace serve-mixed --seed 7
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload grid-off \
//!     --seed 1 --seconds 27 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! See `README.md` for the workloads, the metrics and the baselines.

mod check;
mod daemon;
mod engine;
mod heap;
mod host;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use check::Checker;
use hintm::Json;
use hintm_runner::Runner;
use metrics::{Metric, END_TO_END, PER_LAYER};
use spans::Tracer;
use stats::{describe, median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Bench, Ctx, Outcome};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str = "\
usage: hintm-benchmark [run|trace] [WORKLOAD] [options]
       hintm-benchmark bless

workloads: grid-off, hinted-large, sweep-figures, serve-mixed

options:
  --workload NAME   the workload (or give it positionally)
  --seed N          input seed (default 42)
  --seconds S       measurement time (default 27)
  --trace 0|1       1: per-layer metrics instead of end-to-end ones
  --check           exit 1 when any operation failed
  --smoke           one set-up and one unit of work per workload; without
                    a workload, every workload in turn

bless rewrites golden/seed42.txt from the current code.";

/// Seconds of measurement when none are given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 27.0;

/// Fresh daemon sweeps covered by the seed-42 golden file.
const GOLDEN_FRESH_SWEEPS: u64 = 128;

/// A parsed command line.
struct Opts {
    bless: bool,
    trace: bool,
    benches: Vec<Bench>,
    seed: u64,
    seconds: f64,
    check: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        bless: false,
        trace: false,
        benches: Vec::new(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        check: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "run" => o.trace = false,
            "trace" => o.trace = true,
            "bless" => o.bless = true,
            "--check" => o.check = true,
            "--smoke" => o.smoke = true,
            "--workload" => {
                let name = value(arg)?;
                o.benches
                    .push(Bench::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => o.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value(arg)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                o.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            name => o
                .benches
                .push(Bench::parse(name).ok_or_else(|| format!("unknown argument `{name}`"))?),
        }
    }
    if o.benches.is_empty() && o.smoke {
        o.benches = Bench::ALL.to_vec();
    }
    if !o.bless && o.benches.len() != 1 && !o.smoke {
        return Err("name exactly one workload".into());
    }
    Ok(o)
}

/// The repository root (the benchmark package's parent directory).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
}

/// Where trace files and scratch caches go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One run's result, as printed on the last line.
pub struct Verdict {
    /// Every operation ran and produced the right output.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reported metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The metrics the run was asked for, in output order.
    pub declared: &'static [Metric],
}

impl Verdict {
    fn json(&self) -> Json {
        let metrics = self
            .declared
            .iter()
            .map(|m| {
                // A lost measurement already failed the run; keep the line JSON.
                let value = self
                    .metrics
                    .get(m.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::f64(value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// The end-to-end metrics of an untraced loop.
fn end_to_end(bench: Bench, out: &Outcome) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let nonempty = |xs: &[f64], f: &dyn Fn(&[f64]) -> f64| if xs.is_empty() { 0.0 } else { f(xs) };
    m.insert("events_per_s", out.events_per_s);
    m.insert("sweep_s", out.sweep_s);
    m.insert("op_p50_ms", nonempty(&out.op_ms, &median));
    m.insert(
        "op_tail_ms",
        nonempty(&out.op_ms, &|x| percentile(x, bench.tail_percentile())),
    );
    m.insert("setup_s", nonempty(&out.setup_s, &median));
    m.insert("peak_heap_mb", heap::peak_mb());
    m
}

/// Runs one workload, printing its detail lines before returning the
/// verdict.
fn measure(bench: Bench, o: &Opts) -> Verdict {
    let out = out_dir();
    let tracer = Tracer::new(o.trace);
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds,
        smoke: o.smoke,
        tracer: &tracer,
        out: &out,
    };
    let mut checker = Checker::new();
    let started = std::time::Instant::now();
    let main = bench.run(&ctx, &mut checker);
    let main_s = started.elapsed().as_secs_f64();

    let (metrics, declared): (_, &'static [Metric]) = if o.trace {
        let layers = layers::attribute(&ctx, &mut checker, bench, &main);
        (layers, &PER_LAYER)
    } else {
        (end_to_end(bench, &main), &END_TO_END)
    };
    for m in declared {
        let v = metrics.get(m.name).copied().unwrap_or(f64::NAN);
        // Every end-to-end metric is a positive measurement; zero or a
        // missing value means the loop lost its samples.
        let ok = v.is_finite() && (m.bound.is_none() || v > 0.0);
        checker.op(ok, || format!("metric {} = {v}", m.name));
    }

    let host = host::Host::probe(repo_root());
    let mut record = host.fields();
    record.extend([
        ("workload".into(), Json::Str(bench.name().into())),
        ("seed".into(), Json::u64(o.seed)),
        ("seconds".into(), Json::f64(o.seconds)),
        ("traced".into(), Json::Bool(o.trace)),
        ("passes".into(), Json::u64(main.units_s.len() as u64)),
        ("measured_s".into(), Json::f64(main_s)),
        (
            "rss_hwm_mb".into(),
            Json::f64(host::peak_rss_mb().unwrap_or(0.0)),
        ),
    ]);
    record.extend(
        main.threads
            .iter()
            .map(|(role, n)| (format!("threads.{role}"), Json::u64(*n as u64))),
    );
    println!("host {}", Json::Obj(record.clone()));
    for (name, xs) in [
        ("setup_s", &main.setup_s),
        ("unit_s", &main.units_s),
        ("op_ms", &main.op_ms),
    ] {
        println!("samples {name}: {}", describe(xs));
    }
    for (route, xs) in &main.routes {
        println!("samples serve.{route}_ms: {}", describe(xs));
    }
    let p = bench.tail_percentile();
    let beyond = main.op_ms.len() as f64 * (100.0 - p) / 100.0;
    println!(
        "op_tail_ms is the p{p} of {} operations, {beyond:.0} beyond it{}",
        main.op_ms.len(),
        if beyond < 10.0 {
            " (fewer than ten: a noisy tail)"
        } else {
            ""
        }
    );
    if let Some(rate) = main.median_cell_events_per_s {
        println!("median over cells of events/s (the hintm perf statistic): {rate:.0}");
    }
    for m in declared {
        let v = metrics.get(m.name).copied().unwrap_or(0.0);
        println!(
            "{:<6} {:<30} {v:>16.4} {:<6} ({} is better)",
            if o.trace { "layer" } else { "metric" },
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    if o.trace {
        println!(
            "overhead of this run's own instrumentation: {:.3}x the plain cell time; \
             engine tracing (DigestSink): {:.3}x",
            metrics["bench.span_overhead_ratio"], metrics["trace.overhead_ratio"]
        );
        let path = out.join(format!("trace_{}.json", bench.name()));
        match tracer.write(&path, record) {
            Ok(n) => println!("wrote {n} spans to {}", path.display()),
            Err(e) => {
                checker.op(false, || format!("{}: {e}", path.display()));
            }
        }
    }
    let fp_path = out.join(format!("fingerprints_{}_s{}.txt", bench.name(), o.seed));
    let fp_lines = check::render_golden(&checker.fingerprints);
    let written = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&fp_path, &fp_lines));
    let fp_all = hintm_trace::Fnv64::hash(fp_lines.as_bytes());
    println!(
        "fingerprints: {} cells; checks: {} against blessed values, {} against an earlier \
         run of the cell, {} first runs with nothing to compare; combined {fp_all:016x}, {}",
        checker.fingerprints.len(),
        checker.blessed,
        checker.repeated,
        checker.unverified,
        match written {
            Ok(()) => format!("listed in {}", fp_path.display()),
            Err(e) => format!("not written: {e}"),
        }
    );
    for e in checker.errors() {
        println!("FAILED {e}");
    }
    Verdict {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        declared,
    }
}

/// Rewrites `golden/seed42.txt`: every cell the workloads run at seed 42
/// that the repository's digest table does not cover.
fn bless() -> Result<(), String> {
    let mut cells = Vec::new();
    let mut grids = vec![
        workloads::hinted_large(check::GOLDEN_SEED),
        workloads::figures(check::GOLDEN_SEED),
    ];
    grids.extend((0..GOLDEN_FRESH_SWEEPS).map(|i| workloads::fresh(check::GOLDEN_SEED, i)));
    for g in grids {
        cells.extend(
            g.cells()
                .into_iter()
                .filter(|c| !check::Golden::in_table(c)),
        );
    }
    let result = Runner::new()
        .no_cache()
        .jobs(workloads::RUNNER_JOBS)
        .run(&cells);
    let mut fps = BTreeMap::new();
    for r in &result.cells {
        let report = r
            .report()
            .ok_or_else(|| format!("{} crashed", r.cell.label()))?;
        fps.insert(r.cell.key(), check::fingerprint(report));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/seed42.txt");
    let text = format!(
        "# Stats fingerprints (FNV-64 of RunReport::to_json) of the cells this benchmark\n\
         # runs at seed 42 that tests/golden/digest_table.inc does not cover.\n\
         # Regenerate: cargo run --release --manifest-path benchmark/Cargo.toml -- bless\n{}",
        check::render_golden(&fps)
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {} fingerprints to {}", fps.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if o.bless {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bless: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut failed = 0;
    for &bench in &o.benches {
        let verdict = measure(bench, &o);
        failed += verdict.failed;
        println!("{}", verdict.json());
    }
    if o.check && failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_command_line_forms_parse() {
        let o = parse(&args("run grid-off --seed 7")).unwrap();
        assert_eq!((o.benches[0], o.seed, o.trace), (Bench::GridOff, 7, false));
        let o = parse(&args(
            "--workload serve-mixed --seed 1 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.benches[0], o.seconds, o.trace),
            (Bench::ServeMixed, 10.0, true)
        );
        assert!(parse(&args("trace hinted-large")).unwrap().trace);
        assert_eq!(parse(&args("--smoke")).unwrap().benches.len(), 4);
        assert!(parse(&args("run")).is_err());
        assert!(parse(&args("run nope")).is_err());
        assert!(parse(&args("run grid-off --trace 2")).is_err());
        assert!(parse(&args("run grid-off --seconds 0")).is_err());
    }

    /// One set-up and one unit of work of every workload: every operation
    /// must succeed and every end-to-end metric must be measured.
    #[test]
    fn smoke_run_of_every_workload_has_no_failures() {
        let o = parse(&args("--smoke")).unwrap();
        for bench in Bench::ALL {
            let v = measure(bench, &o);
            assert!(v.attempted > 0, "{}", bench.name());
            assert_eq!(v.failed, 0, "{}: fail_ratio > 0", bench.name());
            for m in &END_TO_END {
                assert!(v.metrics[m.name] > 0.0, "{}: {}", bench.name(), m.name);
            }
        }
    }
}
