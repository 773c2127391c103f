//! Command-line interface: argument parsing and command execution for the
//! `hintm` binary.
//!
//! Hand-rolled parsing (no CLI dependency), e.g.
//!
//! ```text
//! hintm list
//! hintm run   --workload vacation [--htm p8|p8s|l1tm|infcap|rot|logtm|lrws|pstretch]
//!             [--hints off|static|dynamic|full] [--seed N] [--scale sim|large]
//!             [--threads N] [--smt2] [--preserve] [--csv]
//! hintm audit [--workloads a,b | --all] [--seed N] [--scale ...]
//! hintm trace <workload> [run options] [--events N] [--out <dir>]
//! hintm sweep [--workloads a,b] [--htm k1,k2] [--hints m1,m2] [--csv]
//! hintm figures [fig4_p8 ...] [--jobs N] [--no-cache]
//! ```
//!
//! Each job has one command: a whole-suite table is `sweep --csv`, a
//! timeline is `trace`, the paper's tables are `figures`, and auditing or
//! analyzing workloads is `audit` or `analyze`. The run-configuration
//! flags are the [`AXES`] table's: one parser (`axis_flag`) serves `run`,
//! `trace` and `sweep`.

use crate::json::{analyze_report_to_json, audit_report_to_json, Json};
use crate::{
    chrome_trace, figures, write_binlog, AbortKind, Cell, RunReport, Scale, SweepSpec, AXES,
    FIGURES, WORKLOAD_NAMES,
};
use hintm_audit::{AnalyzeReport, AuditReport};
use std::fmt;

/// A CLI parsing or execution error (rendered to stderr by the binary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print the workload registry.
    List,
    /// Run one experiment.
    Run(RunArgs),
    /// Audit safety-hint soundness (verifier + lints + dynamic oracle).
    Audit(AuditArgs),
    /// Static capacity-footprint analysis + hint inference (no simulator
    /// run).
    Analyze(AnalyzeArgs),
    /// Run one experiment under a trace recorder and report/export the
    /// captured event stream.
    Trace(TraceArgs),
    /// Run a parallel sweep (dispatched by the `hintm` binary in
    /// `hintm-serve`).
    Sweep(SweepArgs),
    /// Print the paper's tables and figures (dispatched by `hintm-serve`).
    Figures(FiguresArgs),
    /// Clear the on-disk result cache (dispatched by `hintm-serve`).
    CacheClear {
        /// Cache directory override.
        dir: Option<String>,
    },
    /// Summarize the on-disk result cache: entry count, bytes, schema,
    /// per-workload breakdown (dispatched by `hintm-serve`).
    CacheStats {
        /// Cache directory override.
        dir: Option<String>,
    },
    /// Run the sweep-as-a-service daemon (dispatched by `hintm-serve`).
    Serve(ServeArgs),
    /// Print usage.
    Help,
}

/// Options for `hintm serve`. Parsing lives here with the other commands;
/// execution lives in the `hintm-serve` crate, so [`execute`] rejects it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen address (`HOST:PORT`).
    pub addr: String,
    /// Executor threads (`None` = the machine's available parallelism;
    /// at least 1, because they are the only way a cell runs).
    pub workers: Option<usize>,
    /// Cache directory override.
    pub cache_dir: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:8191".into(),
            workers: None,
            cache_dir: None,
        }
    }
}

/// Options for `hintm audit`.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditArgs {
    /// Workloads to audit (empty = every registered workload).
    pub(crate) workloads: Vec<String>,
    /// Seed for the dynamically observed run.
    pub(crate) seed: u64,
    /// Input scale for the observed run.
    pub(crate) scale: Scale,
    /// Emit a JSON report instead of the table.
    pub(crate) json: bool,
}

impl Default for AuditArgs {
    fn default() -> Self {
        AuditArgs {
            workloads: Vec::new(),
            seed: 42,
            scale: Scale::Sim,
            json: false,
        }
    }
}

/// Options for `hintm analyze`.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeArgs {
    /// Workloads to analyze (empty = every registered workload).
    pub(crate) workloads: Vec<String>,
    /// Input scale the modules are annotated for.
    pub(crate) scale: Scale,
    /// Emit a JSON report instead of the table.
    pub(crate) json: bool,
}

impl Default for AnalyzeArgs {
    fn default() -> Self {
        AnalyzeArgs {
            workloads: Vec::new(),
            scale: Scale::Sim,
            json: false,
        }
    }
}

/// Options for `hintm trace`.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArgs {
    /// Run configuration; the workload is `trace`'s positional argument.
    pub cell: Cell,
    /// Directory for `<workload>.trace.json` (Chrome trace_event) and
    /// `<workload>.trace.bin` (compact binary log).
    pub(crate) out: Option<String>,
    /// Trace buffer capacity: how many events are retained verbatim
    /// (metrics and the digest always cover the whole run).
    pub(crate) events: usize,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            cell: Cell::default(),
            out: None,
            events: 100_000,
        }
    }
}

/// How `sweep` and `figures` run their cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunnerArgs {
    /// Worker threads (`None` = the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Bypass the result cache entirely.
    pub no_cache: bool,
    /// Cache directory override.
    pub cache_dir: Option<String>,
}

impl RunnerArgs {
    /// Applies the runner flag at `args[*i]`, advancing `i` past its
    /// value; `false` when the argument is not a runner flag.
    fn flag(&mut self, args: &[String], i: &mut usize) -> Result<bool, CliError> {
        match args[*i].as_str() {
            "--jobs" => self.jobs = Some(parsed(args, i)?),
            "--no-cache" => self.no_cache = true,
            "--cache-dir" => self.cache_dir = Some(value(args, i)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Options for `hintm sweep`. Parsing lives here with the other commands;
/// execution lives in the `hintm` binary of the `hintm-serve` crate (which
/// reaches the runner and its cache), so [`execute`] rejects it. An
/// interrupted sweep resumes by running it again: cached cells replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepArgs {
    /// The swept axes (see [`AXES`]).
    pub spec: SweepSpec,
    /// Jobs and cache.
    pub runner: RunnerArgs,
    /// Artifact output directory (manifest + CSV/JSON tables).
    pub out: Option<String>,
    /// Also print the results CSV to stdout.
    pub csv: bool,
}

/// Options for `hintm figures`. Like `sweep`, it is executed by the
/// `hintm` binary of the `hintm-serve` crate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FiguresArgs {
    /// Names of the [`FIGURES`] rows to print, each checked (empty =
    /// every row).
    pub names: Vec<String>,
    /// Jobs and cache.
    pub runner: RunnerArgs,
}

/// Options for `hintm run`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunArgs {
    /// The run configuration; `run` requires its workload.
    pub cell: Cell,
    /// Emit CSV instead of a table.
    pub(crate) csv: bool,
}

/// Usage text.
pub const USAGE: &str = "\
hintm — HinTM (HPCA 2023) reproduction CLI

USAGE:
  hintm list
  hintm run --workload <name> [options]
  hintm audit [audit options]
  hintm analyze [<workload>] [analyze options]
  hintm trace <workload> [options] [trace options]
  hintm sweep [sweep options]
  hintm figures [<name>...] [--jobs <n>] [--no-cache] [--cache-dir <dir>]
  hintm serve [serve options]
  hintm cache clear [--cache-dir <dir>]
  hintm cache stats [--cache-dir <dir>]

OPTIONS:
  --workload <name>        one of the registered workloads (see `hintm list`)
  --htm <kind>             p8 | p8s | l1tm | infcap | rot | logtm |
                           lrws | pstretch                          [p8]
  --hints <mode>           off | static | dynamic | full            [off]
  --seed <n>               run seed                                  [42]
  --scale <s>              sim | large                              [sim]
  --threads <n>            override the workload's thread count
  --sim-threads <n>        accepted for older scripts and ignored: the
                           engine always runs serially                    [1]
  --smt2                   2-way SMT (16 hardware threads)
  --preserve               enable the preserve page-transition optimization
  --alloc-color <bytes>    heap-placement color stride: pad every fresh heap
                           allocation by <bytes>. Changes simulated addresses
                           (and so abort counts), never committed state    [0]
  --csv                    machine-readable CSV output

TRACE OPTIONS (records the run's event stream and prints a per-thread
lifecycle timeline; run options above apply):
  --events <n>             events retained in the trace buffer         [100000]
  --out <dir>              write <workload>.trace.json (Chrome trace_event)
                           and <workload>.trace.bin (binary log) into <dir>

AUDIT OPTIONS (verifier + lints + dynamic sharing oracle; exits nonzero
on any unsound hint, lint error, verifier error, or hint-table mismatch):
  --workloads <a,b,..>     workloads to audit                  [all registered]
  --all                    audit every registered workload (the default)
  --seed / --scale         as above, for the dynamically observed run
  --json                   emit a JSON report instead of the table

ANALYZE OPTIONS (static capacity-footprint bounds + per-model verdicts +
hint inference diff; no simulator run; exits nonzero on any lint or
verifier error):
  <workload>               positional: analyze one workload
  --workloads <a,b,..>     workloads to analyze                [all registered]
  --all                    analyze every registered workload (the default)
  --scale <s>              scale the module annotations describe         [sim]
  --json                   emit a JSON report instead of the table

SWEEP OPTIONS (comma-separated lists sweep the cross product; the run
spellings --workload, --seed and --alloc-color take lists too; cached
cells replay, so rerunning an interrupted sweep resumes it):
  --workloads <a,b,..>     workloads to sweep                  [all registered]
  --htm <k1,k2,..>         HTM configurations to sweep                    [p8]
  --models <k1,k2,..>      alias for --htm
  --hints <m1,m2,..>       hint modes to sweep                           [off]
  --seeds <n1,n2,..>       seeds to sweep                                 [42]
  --alloc-colors <b1,b2,.> heap-placement color strides to sweep (a
                           result-affecting axis)                          [0]
  --scale / --threads / --sim-threads / --smt2 / --preserve
                           as above, applied to every cell
  --jobs <n>               worker threads            [machine's parallelism]
  --no-cache               bypass the on-disk result cache
  --cache-dir <dir>        cache location      [$HINTM_CACHE_DIR or .hintm-cache]
  --out <dir>              write manifest.json + results.{csv,json} here
  --csv                    also print the results CSV to stdout

FIGURES OPTIONS (the paper's tables and figures, one row each; all cells
of the selected rows run as one cached batch, then each table prints):
  <name>...                rows to print, e.g. fig4_p8 (EXPERIMENTS.md
                           names each row; a wrong name lists them)   [all]
  --jobs / --no-cache / --cache-dir
                           as for sweep

SERVE OPTIONS (long-running daemon: HTTP API over a job queue that shares
the result cache across workers and repeat submissions):
  --addr <host:port>       listen address                     [127.0.0.1:8191]
  --workers <n>            executor threads (min 1)  [machine's parallelism]
  --cache-dir <dir>        cache location      [$HINTM_CACHE_DIR or .hintm-cache]
";

/// A scale's canonical name (its `Display` form).
pub fn scale_str(s: Scale) -> String {
    s.to_string()
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] on unknown subcommands, unknown flags, missing or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "audit" => parse_audit(&args[1..]),
        "analyze" => parse_analyze(&args[1..]),
        "trace" => parse_trace(&args[1..]),
        "sweep" => parse_sweep(&args[1..]),
        "figures" => parse_figures(&args[1..]),
        "cache" => parse_cache(&args[1..]),
        "serve" => parse_serve(&args[1..]),
        "run" => parse_run(&args[1..]),
        other => Err(CliError(format!(
            "unknown command `{other}` (try `hintm help`)"
        ))),
    }
}

/// Reads the axis flag at `args[*i]`, if it is one, advancing `i` past
/// its value: returns the axis's index in [`AXES`] and its value(s) as
/// JSON, typed like the axis renders (a string or a number; a flag whose
/// axis renders as a boolean takes no value and means `true`). With
/// `sweep`, an axis with a [`list`](crate::Axis::list) name also answers
/// to that name as a flag (and `--models` is `--htm`), and its value is a
/// comma-separated list.
fn axis_flag(
    args: &[String],
    i: &mut usize,
    sweep: bool,
) -> Result<Option<(usize, Vec<Json>)>, CliError> {
    let flag = match args[*i].as_str() {
        "--models" if sweep => "--htm",
        flag => flag,
    };
    let list_flag = flag.strip_prefix("--").map(|f| f.replace('-', "_"));
    let Some(axis) = AXES.iter().position(|a| {
        a.flag == Some(flag) || (sweep && a.list.is_some() && a.list == list_flag.as_deref())
    }) else {
        return Ok(None);
    };
    let shape = (AXES[axis].render)(&Cell::default());
    if let Json::Bool(_) = shape {
        return Ok(Some((axis, vec![Json::Bool(true)])));
    }
    let text = value(args, i)?;
    let pieces: Vec<&str> = if sweep && AXES[axis].list.is_some() {
        text.split(',').filter(|s| !s.is_empty()).collect()
    } else {
        vec![&text]
    };
    let values = pieces
        .into_iter()
        .map(|p| match shape {
            Json::Str(_) => Json::Str(p.into()),
            _ => Json::Num(p.into()),
        })
        .collect();
    Ok(Some((axis, values)))
}

/// Applies the axis flag at `args[*i]` to `cell`; `false` when the
/// argument is not an axis flag.
fn cell_flag(args: &[String], i: &mut usize, cell: &mut Cell) -> Result<bool, CliError> {
    let flag = args[*i].clone();
    let Some((axis, values)) = axis_flag(args, i, false)? else {
        return Ok(false);
    };
    for v in &values {
        (AXES[axis].parse)(cell, v).map_err(|e| CliError(format!("bad {flag}: {e}")))?;
    }
    Ok(true)
}

/// The value of the flag at `args[*i]`, advancing `i` past it.
fn value(args: &[String], i: &mut usize) -> Result<String, CliError> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
}

/// The value of the flag at `args[*i]` parsed as a `T`, advancing `i`
/// past it.
fn parsed<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, CliError> {
    let flag = args[*i].clone();
    let v = value(args, i)?;
    v.parse().map_err(|_| CliError(format!("bad {flag} `{v}`")))
}

/// Splits a comma-separated list of names.
fn names(v: &str) -> Vec<String> {
    v.split(',')
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

fn parse_run(args: &[String]) -> Result<Command, CliError> {
    let mut ra = RunArgs::default();
    let mut i = 0;
    while i < args.len() {
        if !cell_flag(args, &mut i, &mut ra.cell)? {
            match args[i].as_str() {
                "--csv" => ra.csv = true,
                other => return Err(CliError(format!("unknown flag `{other}`"))),
            }
        }
        i += 1;
    }
    ra.cell.check().map_err(CliError)?;
    if ra.cell.workload.is_empty() {
        return Err(CliError("`run` requires --workload <name>".into()));
    }
    Ok(Command::Run(ra))
}

fn parse_audit(args: &[String]) -> Result<Command, CliError> {
    let mut aa = AuditArgs::default();
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workloads" => aa.workloads = names(&value(args, &mut i)?),
            "--all" => all = true,
            "--seed" => aa.seed = parsed(args, &mut i)?,
            "--scale" => aa.scale = parsed(args, &mut i)?,
            "--json" => aa.json = true,
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if all && !aa.workloads.is_empty() {
        return Err(CliError("--all conflicts with --workloads".into()));
    }
    Ok(Command::Audit(aa))
}

fn parse_analyze(args: &[String]) -> Result<Command, CliError> {
    let mut na = AnalyzeArgs::default();
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workloads" => na.workloads = names(&value(args, &mut i)?),
            "--all" => all = true,
            "--scale" => na.scale = parsed(args, &mut i)?,
            "--json" => na.json = true,
            name if !name.starts_with('-') => na.workloads.push(name.to_string()),
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if all && !na.workloads.is_empty() {
        return Err(CliError("--all conflicts with naming workloads".into()));
    }
    Ok(Command::Analyze(na))
}

fn parse_trace(args: &[String]) -> Result<Command, CliError> {
    let mut ta = TraceArgs::default();
    let mut i = 0;
    while i < args.len() {
        if !cell_flag(args, &mut i, &mut ta.cell)? {
            match args[i].as_str() {
                "--events" => ta.events = parsed(args, &mut i)?,
                "--out" => ta.out = Some(value(args, &mut i)?),
                name if !name.starts_with('-') && ta.cell.workload.is_empty() => {
                    ta.cell.workload = name.to_string();
                }
                other => return Err(CliError(format!("unknown flag `{other}`"))),
            }
        }
        i += 1;
    }
    if ta.cell.workload.is_empty() {
        return Err(CliError("`trace` requires a workload name".into()));
    }
    ta.cell.check().map_err(CliError)?;
    Ok(Command::Trace(ta))
}

fn parse_sweep(args: &[String]) -> Result<Command, CliError> {
    let mut sa = SweepArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        if let Some((axis, values)) = axis_flag(args, &mut i, true)? {
            sa.spec
                .set(axis, &values)
                .map_err(|e| CliError(format!("bad {flag}: {e}")))?;
            i += 1;
            continue;
        }
        if !sa.runner.flag(args, &mut i)? {
            match flag.as_str() {
                "--out" => sa.out = Some(value(args, &mut i)?),
                "--csv" => sa.csv = true,
                other => return Err(CliError(format!("unknown flag `{other}`"))),
            }
        }
        i += 1;
    }
    sa.spec
        .cells()
        .iter()
        .try_for_each(Cell::check)
        .map_err(CliError)?;
    Ok(Command::Sweep(sa))
}

fn parse_figures(args: &[String]) -> Result<Command, CliError> {
    let mut fa = FiguresArgs::default();
    let mut i = 0;
    while i < args.len() {
        if !fa.runner.flag(args, &mut i)? {
            match args[i].as_str() {
                name if figures::figure(name).is_some() => fa.names.push(name.to_string()),
                other if other.starts_with('-') => {
                    return Err(CliError(format!("unknown flag `{other}`")))
                }
                other => {
                    let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                    return Err(CliError(format!(
                        "unknown figure `{other}` (expected one of {known:?})"
                    )));
                }
            }
        }
        i += 1;
    }
    Ok(Command::Figures(fa))
}

fn parse_cache(args: &[String]) -> Result<Command, CliError> {
    match args.first().map(String::as_str) {
        Some(action @ ("clear" | "stats")) => {
            let mut dir = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--cache-dir" => dir = Some(value(args, &mut i)?),
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(if action == "clear" {
                Command::CacheClear { dir }
            } else {
                Command::CacheStats { dir }
            })
        }
        Some(other) => Err(CliError(format!(
            "unknown cache action `{other}` (try `clear` or `stats`)"
        ))),
        None => Err(CliError(
            "`cache` requires an action (try `hintm cache clear` or `hintm cache stats`)".into(),
        )),
    }
}

fn parse_serve(args: &[String]) -> Result<Command, CliError> {
    let mut sa = ServeArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => sa.addr = value(args, &mut i)?,
            "--workers" => sa.workers = Some(parsed(args, &mut i)?),
            "--cache-dir" => sa.cache_dir = Some(value(args, &mut i)?),
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if sa.workers == Some(0) {
        return Err(CliError(
            "--workers must be at least 1: executor threads are the only way a cell runs".into(),
        ));
    }
    Ok(Command::Serve(sa))
}

/// CSV header matching [`csv_row`].
pub const CSV_HEADER: &str = "workload,htm,hints,seed,cycles,commits,fallback,\
conflict,capacity,false_conflict,page_mode,lock,shootdowns,safe_pages,total_pages";

/// Renders one report as a CSV row.
pub fn csv_row(r: &RunReport, seed: u64) -> String {
    let s = &r.stats;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.workload,
        r.htm,
        r.hint_mode,
        seed,
        s.total_cycles.raw(),
        s.commits,
        s.fallback_commits,
        s.aborts_of(AbortKind::Conflict),
        s.aborts_of(AbortKind::Capacity),
        s.aborts_of(AbortKind::FalseConflict),
        s.aborts_of(AbortKind::PageMode),
        s.aborts_of(AbortKind::FallbackLock),
        s.vm.shootdowns,
        s.safe_pages.0,
        s.safe_pages.1,
    )
}

/// Column header matching [`audit_row`].
fn audit_header() -> String {
    format!(
        "{:<12} {:>5} {:>5} {:>5} {:>7} {:>6} {:>5} {:>5}  verdict",
        "workload", "sites", "safe", "exec", "unsound", "missed", "lintE", "lintW",
    )
}

/// Renders one audit report as a fixed-width table row.
fn audit_row(r: &AuditReport) -> String {
    format!(
        "{:<12} {:>5} {:>5} {:>5} {:>7} {:>6} {:>5} {:>5}  {}",
        r.workload,
        r.stats.num_sites,
        r.stats.safe_loads + r.stats.safe_stores,
        r.sites_executed,
        r.unsound.len(),
        r.missed.len(),
        r.lint_errors(),
        r.lint_warnings(),
        if r.passed() { "PASS" } else { "FAIL" },
    )
}

/// Column header matching [`analyze_row`].
fn analyze_header() -> String {
    format!(
        "{:<12} {:>3} {:>3}  {:<13} {:<13} {:<13} {:<13} {:<13} {:>4} {:>4} {:>5} {:>5}  verdict",
        "workload",
        "txs",
        "unb",
        "P8",
        "P8S",
        "L1TM",
        "LRWS",
        "PStretch",
        "decl",
        "inf",
        "lintE",
        "lintW",
    )
}

/// Renders one analyze report as a fixed-width table row.
fn analyze_row(r: &AnalyzeReport) -> String {
    let s = r.stats();
    format!(
        "{:<12} {:>3} {:>3}  {:<13} {:<13} {:<13} {:<13} {:<13} {:>4} {:>4} {:>5} {:>5}  {}",
        r.workload,
        s.num_txs,
        s.unbounded_txs,
        s.worst[0].to_string(),
        s.worst[1].to_string(),
        s.worst[2].to_string(),
        s.worst[3].to_string(),
        s.worst[4].to_string(),
        s.declared_safe,
        s.inferred_safe,
        r.lint_errors(),
        r.lint_warnings(),
        if r.passed() { "PASS" } else { "FAIL" },
    )
}

/// Writes one analyze report's detail lines (per-transaction bounds,
/// verifier errors, lint diagnostics) beneath its table row.
fn analyze_details(r: &AnalyzeReport, out: &mut impl std::io::Write) -> std::io::Result<()> {
    for (tx, func) in r.footprint.txs.iter().zip(&r.tx_funcs) {
        writeln!(
            out,
            "    tx#{} in {func}: reads<={} writes<={} total<={}, guaranteed {} ({} written)",
            tx.index, tx.read_hi, tx.write_hi, tx.total_hi, tx.total_lo, tx.write_lo,
        )?;
    }
    for e in &r.verify_errors {
        writeln!(out, "    verify: {e}")?;
    }
    for d in &r.diagnostics {
        writeln!(out, "    {d}")?;
    }
    Ok(())
}

/// Writes one report's detail lines (verifier errors, lint diagnostics,
/// unsound hints, hint-table mismatch) beneath its table row.
fn audit_details(r: &AuditReport, out: &mut impl std::io::Write) -> std::io::Result<()> {
    for e in &r.verify_errors {
        writeln!(out, "    verify: {e}")?;
    }
    for d in &r.diagnostics {
        writeln!(out, "    {d}")?;
    }
    for u in &r.unsound {
        writeln!(
            out,
            "    unsound: site {} {:?} at {:#x} by thread {} in epoch {}",
            u.site.0,
            u.kind,
            u.addr.raw(),
            u.thread.0,
            u.epoch,
        )?;
    }
    if r.hint_mismatch {
        writeln!(out, "    hint table differs from the classifier's output")?;
    }
    Ok(())
}

/// Executes a parsed command, writing to `out`.
///
/// # Errors
///
/// Returns [`CliError`] if an experiment fails to run.
pub fn execute(cmd: &Command, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| CliError(e.to_string());
    match cmd {
        Command::Sweep(_)
        | Command::Figures(_)
        | Command::Serve(_)
        | Command::CacheClear { .. }
        | Command::CacheStats { .. } => Err(CliError(
            "`sweep`, `figures`, `serve`, and `cache` are handled by the hintm \
             binary from the hintm-serve crate"
                .into(),
        )),
        Command::Help => writeln!(out, "{USAGE}").map_err(io),
        Command::List => {
            for name in WORKLOAD_NAMES {
                writeln!(out, "{name}").map_err(io)?;
            }
            Ok(())
        }
        Command::Run(ra) => {
            let r = ra.cell.run().map_err(|e| CliError(e.to_string()))?;
            if ra.csv {
                writeln!(out, "{CSV_HEADER}").map_err(io)?;
                writeln!(out, "{}", csv_row(&r, ra.cell.seed)).map_err(io)?;
            } else {
                writeln!(out, "{r}").map_err(io)?;
            }
            Ok(())
        }
        Command::Trace(ta) => {
            let name = &ta.cell.workload;
            let (r, rec) = ta
                .cell
                .run_traced(ta.events)
                .map_err(|e| CliError(e.to_string()))?;
            writeln!(out, "{r}").map_err(io)?;
            let t = r.trace.expect("run_traced fills the summary");
            writeln!(
                out,
                "trace: {} events ({} beyond the buffer), digest {:016x}",
                t.events, t.dropped, t.digest
            )
            .map_err(io)?;
            writeln!(
                out,
                "       occupancy hwm {} blocks; commit footprint mean {:.1}; \
                 retries mean {:.2}",
                t.occupancy_hwm,
                t.commit_footprint.mean(),
                t.retries.mean()
            )
            .map_err(io)?;
            let threads = if ta.cell.smt2 { 16 } else { 8 };
            writeln!(
                out,
                "\ntimeline (C commit, a/A/P aborts, F fallback, s shootdown):"
            )
            .map_err(io)?;
            writeln!(out, "{}", rec.render_timeline(threads, 100)).map_err(io)?;
            if let Some(dir) = &ta.out {
                std::fs::create_dir_all(dir).map_err(io)?;
                let json_path = format!("{dir}/{name}.trace.json");
                let bin_path = format!("{dir}/{name}.trace.bin");
                let events = rec.events();
                std::fs::write(&json_path, chrome_trace(&events)).map_err(io)?;
                std::fs::write(&bin_path, write_binlog(&events)).map_err(io)?;
                writeln!(out, "wrote {json_path} and {bin_path}").map_err(io)?;
            }
            Ok(())
        }
        Command::Audit(aa) => {
            let names: Vec<String> = if aa.workloads.is_empty() {
                WORKLOAD_NAMES.iter().map(|s| s.to_string()).collect()
            } else {
                aa.workloads.clone()
            };
            if !aa.json {
                writeln!(out, "{}", audit_header()).map_err(io)?;
            }
            let mut failed = 0usize;
            let mut reports = Vec::new();
            for name in &names {
                let r = hintm_audit::audit_workload(name, aa.scale, aa.seed)
                    .ok_or_else(|| CliError(format!("unknown workload `{name}`")))?;
                if aa.json {
                    reports.push(audit_report_to_json(&r));
                } else {
                    writeln!(out, "{}", audit_row(&r)).map_err(io)?;
                    audit_details(&r, out).map_err(io)?;
                }
                if !r.passed() {
                    failed += 1;
                }
            }
            if aa.json {
                writeln!(out, "{}", Json::Arr(reports)).map_err(io)?;
            }
            if failed > 0 {
                return Err(CliError(format!("{failed} workload(s) failed the audit")));
            }
            Ok(())
        }
        Command::Analyze(na) => {
            let names: Vec<String> = if na.workloads.is_empty() {
                WORKLOAD_NAMES.iter().map(|s| s.to_string()).collect()
            } else {
                na.workloads.clone()
            };
            if !na.json {
                writeln!(out, "{}", analyze_header()).map_err(io)?;
            }
            let mut failed = 0usize;
            let mut reports = Vec::new();
            for name in &names {
                let r = hintm_audit::analyze_workload(name, na.scale)
                    .ok_or_else(|| CliError(format!("unknown workload `{name}`")))?;
                if na.json {
                    reports.push(analyze_report_to_json(&r));
                } else {
                    writeln!(out, "{}", analyze_row(&r)).map_err(io)?;
                    analyze_details(&r, out).map_err(io)?;
                }
                if !r.passed() {
                    failed += 1;
                }
            }
            if na.json {
                writeln!(out, "{}", Json::Arr(reports)).map_err(io)?;
            }
            if failed > 0 {
                return Err(CliError(format!(
                    "{failed} workload(s) failed the static analysis"
                )));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HintMode, HtmKind};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_list_and_help() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_full_run_command() {
        let cmd = parse(&argv(
            "run --workload vacation --htm l1tm --hints full --seed 7 --scale large \
             --threads 16 --smt2 --preserve --csv",
        ))
        .unwrap();
        let Command::Run(ra) = cmd else {
            panic!("expected run")
        };
        let expected = Cell::new("vacation")
            .htm(HtmKind::L1Tm)
            .hint(HintMode::Full)
            .seed(7)
            .scale(Scale::Large)
            .threads(16)
            .smt2(true)
            .preserve(true);
        assert_eq!(ra.cell, expected);
        assert!(ra.csv);
    }

    #[test]
    fn run_requires_workload() {
        assert!(parse(&argv("run --htm p8")).is_err());
    }

    #[test]
    fn rejects_unknown_values() {
        assert!(parse(&argv("run --workload x --htm weird")).is_err());
        assert!(parse(&argv("run --workload x --hints weird")).is_err());
        assert!(parse(&argv("run --workload x --seed nope")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        // The benchmark package, not a subcommand, times the engine.
        assert!(parse(&argv("perf")).is_err());
        assert!(parse(&argv("run --workload")).is_err());
        // There is one execution tier; its old selector is an unknown flag.
        assert!(parse(&argv("run --workload x --exec compiled")).is_err());
        assert!(parse(&argv("trace kmeans --exec compiled")).is_err());
        // Removed duplicates: `sweep --csv` is the whole-suite table and
        // `trace` the timeline.
        assert!(parse(&argv("suite")).is_err());
        assert!(parse(&argv("suite --hints full --csv")).is_err());
        assert!(parse(&argv("run --workload kmeans --trace")).is_err());
        // Each figure row carries its own seeds.
        assert!(parse(&argv("figures nope")).is_err());
        assert!(parse(&argv("figures --seeds 1")).is_err());
        // The daemon's own threads are its only executors: no remote
        // workers, and no daemon without threads.
        assert!(parse(&argv("serve --join 127.0.0.1:8191")).is_err());
        assert!(parse(&argv("serve --workers 0")).is_err());
    }

    #[test]
    fn parses_figures_command() {
        assert_eq!(
            parse(&argv("figures")).unwrap(),
            Command::Figures(FiguresArgs::default())
        );
        let Command::Figures(fa) = parse(&argv(
            "figures fig4_p8 variance_check --jobs 2 --no-cache --cache-dir /tmp/c",
        ))
        .unwrap() else {
            panic!("expected figures")
        };
        assert_eq!(fa.names, vec!["fig4_p8", "variance_check"]);
        let runner = RunnerArgs {
            jobs: Some(2),
            no_cache: true,
            cache_dir: Some("/tmp/c".into()),
        };
        assert_eq!(fa.runner, runner);
        assert!(parse(&argv("figures --jobs nope")).is_err());
    }

    fn run_cell(args: &str) -> Cell {
        match parse(&argv(&format!("run --workload kmeans {args}"))) {
            Ok(Command::Run(ra)) => ra.cell,
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn hint_aliases() {
        assert_eq!(run_cell("--hints st").hint, HintMode::Static);
        assert_eq!(run_cell("--hints dyn").hint, HintMode::Dynamic);
        // Report names are accepted too.
        assert_eq!(run_cell("--hints HinTM").hint, HintMode::Full);
        assert_eq!(run_cell("--hints baseline").hint, HintMode::Off);
    }

    #[test]
    fn parses_capacity_model_names() {
        assert_eq!(run_cell("--htm lrws").htm, HtmKind::Lrws);
        assert_eq!(run_cell("--htm PStretch").htm, HtmKind::PStretch);
        assert_eq!(run_cell("--htm pstretch").htm, HtmKind::PStretch);
    }

    #[test]
    fn rejects_thread_overrides_the_machine_lacks() {
        // These used to parse and then panic inside the engine or the
        // address space.
        for args in [
            "run --workload kmeans --threads 9",
            "run --workload kmeans --threads 0",
            "run --workload kmeans --threads 17 --smt2",
            "trace kmeans --threads 9",
            "sweep --workloads kmeans --threads 9",
            "sweep --threads 0",
        ] {
            assert!(parse(&argv(args)).is_err(), "accepted `{args}`");
        }
        assert_eq!(run_cell("--threads 8").threads, Some(8));
        // SMT doubles the hardware threads, in either flag order.
        assert_eq!(run_cell("--threads 16 --smt2").threads, Some(16));
        assert_eq!(run_cell("--smt2 --threads 16").threads, Some(16));
    }

    #[test]
    fn rejects_color_strides_beyond_the_heap_arena() {
        let arena = hintm_mem::HEAP_ARENA_SIZE;
        assert_eq!(
            run_cell(&format!("--alloc-color {arena}")).alloc_color,
            arena
        );
        for args in [
            format!("run --workload kmeans --alloc-color {}", arena + 1),
            "run --workload kmeans --alloc-color 18446744073709551615".into(),
            "run --workload kmeans --alloc-color 18446744073709551616".into(),
            format!("sweep --alloc-colors 0,{}", arena + 1),
        ] {
            assert!(parse(&argv(&args)).is_err(), "accepted `{args}`");
        }
    }

    #[test]
    fn every_axis_flag_is_documented() {
        for axis in &AXES {
            if let Some(flag) = axis.flag {
                assert!(USAGE.contains(flag), "USAGE lacks {flag}");
            }
            if let (Some(_), Some(list)) = (axis.flag, axis.list) {
                let flag = format!("--{}", list.replace('_', "-"));
                assert!(USAGE.contains(&flag), "USAGE lacks {flag}");
            }
        }
    }

    #[test]
    fn sweep_models_alias() {
        let Command::Sweep(sa) = parse(&argv("sweep --models lrws,pstretch")).unwrap() else {
            panic!("expected sweep")
        };
        let models = SweepSpec::new().htms([HtmKind::Lrws, HtmKind::PStretch]);
        assert_eq!(sa.spec.cells(), models.cells());
        let Command::Sweep(sa) = parse(&argv("sweep --htm p8")).unwrap() else {
            panic!("expected sweep")
        };
        assert_eq!(sa.spec.cells(), SweepSpec::new().htm(HtmKind::P8).cells());
    }

    #[test]
    fn executes_list() {
        let mut buf = Vec::new();
        execute(&Command::List, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("vacation"));
        assert_eq!(s.lines().count(), WORKLOAD_NAMES.len());
    }

    #[test]
    fn executes_run_csv() {
        let cmd = parse(&argv("run --workload kmeans --csv --seed 3")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let mut lines = s.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let row = lines.next().unwrap();
        assert!(row.starts_with("kmeans,P8,baseline,3,"));
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
    }

    #[test]
    fn parses_audit_command() {
        assert_eq!(
            parse(&argv("audit")).unwrap(),
            Command::Audit(AuditArgs::default())
        );
        assert_eq!(
            parse(&argv("audit --all")).unwrap(),
            Command::Audit(AuditArgs::default())
        );
        let Command::Audit(aa) = parse(&argv(
            "audit --workloads kmeans,ssca2 --seed 7 --scale large",
        ))
        .unwrap() else {
            panic!("expected audit")
        };
        assert_eq!(aa.workloads, vec!["kmeans", "ssca2"]);
        assert_eq!(aa.seed, 7);
        assert_eq!(aa.scale, Scale::Large);
        assert!(parse(&argv("audit --all --workloads kmeans")).is_err());
        assert!(parse(&argv("audit --seed nope")).is_err());
        assert!(parse(&argv("audit --frobnicate")).is_err());
    }

    #[test]
    fn executes_audit_on_one_workload() {
        let cmd = parse(&argv("audit --workloads kmeans")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with(&audit_header()));
        assert!(s.contains("kmeans"));
        assert!(s.contains("PASS"), "kmeans hints must audit clean:\n{s}");
    }

    #[test]
    fn parses_analyze_command() {
        assert_eq!(
            parse(&argv("analyze")).unwrap(),
            Command::Analyze(AnalyzeArgs::default())
        );
        assert_eq!(
            parse(&argv("analyze --all")).unwrap(),
            Command::Analyze(AnalyzeArgs::default())
        );
        let Command::Analyze(na) = parse(&argv("analyze kmeans ssca2 --scale large")).unwrap()
        else {
            panic!("expected analyze")
        };
        assert_eq!(na.workloads, vec!["kmeans", "ssca2"]);
        assert_eq!(na.scale, Scale::Large);
        assert!(!na.json);
        let Command::Analyze(na) =
            parse(&argv("analyze --workloads tpcc-no,tpcc-p --json")).unwrap()
        else {
            panic!("expected analyze")
        };
        assert_eq!(na.workloads, vec!["tpcc-no", "tpcc-p"]);
        assert!(na.json);
        assert!(parse(&argv("analyze --all kmeans")).is_err());
        assert!(parse(&argv("analyze --scale weird")).is_err());
        assert!(parse(&argv("analyze --frobnicate")).is_err());
    }

    #[test]
    fn executes_analyze_on_one_workload() {
        let cmd = parse(&argv("analyze kmeans")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with(&analyze_header()));
        assert!(s.contains("kmeans"));
        assert!(s.contains("PASS"), "kmeans must analyze clean:\n{s}");
        assert!(s.contains("fits"), "kmeans fits every model:\n{s}");
    }

    #[test]
    fn executes_analyze_json() {
        let cmd = parse(&argv("analyze kmeans labyrinth --json")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let j = Json::parse(&s).expect("analyze --json emits valid JSON");
        let Json::Arr(reports) = j else {
            panic!("expected a JSON array")
        };
        assert_eq!(reports.len(), 2);
        assert!(s.contains("\"must-overflow\""), "{s}");
        assert!(s.contains("\"fits\""), "{s}");
        assert!(s.contains("\"histogram\""), "{s}");
    }

    #[test]
    fn executes_audit_json() {
        let cmd = parse(&argv("audit --workloads kmeans --json")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let j = Json::parse(&s).expect("audit --json emits valid JSON");
        let Json::Arr(reports) = j else {
            panic!("expected a JSON array")
        };
        assert_eq!(reports.len(), 1);
        assert!(s.contains("\"unsound\""), "{s}");
    }

    #[test]
    fn analyze_reports_unknown_workload() {
        let cmd = parse(&argv("analyze nope")).unwrap();
        let mut buf = Vec::new();
        let err = execute(&cmd, &mut buf).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn audit_reports_unknown_workload() {
        let cmd = parse(&argv("audit --workloads nope")).unwrap();
        let mut buf = Vec::new();
        let err = execute(&cmd, &mut buf).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn parses_trace_command() {
        let Command::Trace(ta) = parse(&argv(
            "trace vacation --htm l1tm --seed 7 --events 512 --out /tmp/t",
        ))
        .unwrap() else {
            panic!("expected trace")
        };
        assert_eq!(ta.cell, Cell::new("vacation").htm(HtmKind::L1Tm).seed(7));
        assert_eq!(ta.events, 512);
        assert_eq!(ta.out.as_deref(), Some("/tmp/t"));

        // --workload spelling works too; defaults hold.
        let Command::Trace(ta) = parse(&argv("trace --workload kmeans")).unwrap() else {
            panic!("expected trace")
        };
        assert_eq!(ta.cell.workload, "kmeans");
        assert_eq!(ta.events, 100_000);
        assert_eq!(ta.out, None);

        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("trace kmeans --events nope")).is_err());
        assert!(parse(&argv("trace kmeans extra")).is_err());
    }

    #[test]
    fn executes_trace_and_exports_artifacts() {
        let dir = std::env::temp_dir().join("hintm-cli-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = parse(&argv(&format!(
            "trace kmeans --seed 3 --events 64 --out {}",
            dir.display()
        )))
        .unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("trace:"), "{s}");
        assert!(s.contains("digest"), "{s}");
        let json = std::fs::read_to_string(dir.join("kmeans.trace.json")).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        let bin = std::fs::read(dir.join("kmeans.trace.bin")).unwrap();
        assert_eq!(&bin[..4], b"HTRC");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_full_sweep_command() {
        let cmd = parse(&argv(
            "sweep --workloads vacation,labyrinth --htm p8,infcap --hints off,full \
             --seeds 1,2,3 --alloc-colors 0,64,128 --scale large --threads 16 --smt2 \
             --preserve --sim-threads 2 --jobs 8 --cache-dir /tmp/c --out /tmp/o --csv",
        ))
        .unwrap();
        let Command::Sweep(sa) = cmd else {
            panic!("expected sweep")
        };
        let expected = SweepSpec::new()
            .workloads(["vacation", "labyrinth"])
            .htms([HtmKind::P8, HtmKind::InfCap])
            .hints([HintMode::Off, HintMode::Full])
            .seeds([1, 2, 3])
            .alloc_colors([0, 64, 128])
            .scale(Scale::Large)
            .threads(16)
            .smt2(true)
            .preserve(true)
            .sim_threads(2);
        assert_eq!(sa.spec.cells(), expected.cells());
        assert_eq!(sa.spec.cells().len(), 2 * 2 * 2 * 3 * 3);
        assert_eq!(sa.runner.jobs, Some(8));
        assert!(sa.csv && !sa.runner.no_cache);
        assert_eq!(sa.runner.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(sa.out.as_deref(), Some("/tmp/o"));
    }

    #[test]
    fn sweep_defaults_are_empty_axes() {
        let Command::Sweep(sa) = parse(&argv("sweep")).unwrap() else {
            panic!()
        };
        assert_eq!(sa, SweepArgs::default());
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(parse(&argv("sweep --htm p8,weird")).is_err());
        assert!(parse(&argv("sweep --seeds 1,x")).is_err());
        assert!(parse(&argv("sweep --sim-threads nope")).is_err());
        assert!(parse(&argv("sweep --sim-threads 0")).is_err());
        assert!(parse(&argv("sweep --jobs nope")).is_err());
        assert!(parse(&argv("sweep --frobnicate")).is_err());
        assert!(parse(&argv("sweep --exec compiled")).is_err());
        // Removed flags: the cache always resumes, `--workloads` names a
        // subset, and `audit`, `analyze` and `trace` are commands.
        for flag in ["--resume", "--smoke", "--audit", "--analyze", "--trace"] {
            assert!(parse(&argv(&format!("sweep {flag}"))).is_err(), "{flag}");
        }
    }

    #[test]
    fn parses_cache_clear() {
        assert_eq!(
            parse(&argv("cache clear")).unwrap(),
            Command::CacheClear { dir: None }
        );
        assert_eq!(
            parse(&argv("cache clear --cache-dir /tmp/c")).unwrap(),
            Command::CacheClear {
                dir: Some("/tmp/c".into())
            }
        );
        assert!(parse(&argv("cache")).is_err());
        assert!(parse(&argv("cache nuke")).is_err());
    }

    #[test]
    fn parses_cache_stats() {
        assert_eq!(
            parse(&argv("cache stats")).unwrap(),
            Command::CacheStats { dir: None }
        );
        assert_eq!(
            parse(&argv("cache stats --cache-dir /tmp/c")).unwrap(),
            Command::CacheStats {
                dir: Some("/tmp/c".into())
            }
        );
        assert!(parse(&argv("cache stats --frobnicate")).is_err());
    }

    #[test]
    fn parses_serve_command() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        let Command::Serve(sa) = parse(&argv(
            "serve --addr 0.0.0.0:9000 --workers 4 --cache-dir /tmp/c",
        ))
        .unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(sa.addr, "0.0.0.0:9000");
        assert_eq!(sa.workers, Some(4));
        assert_eq!(sa.cache_dir.as_deref(), Some("/tmp/c"));

        assert!(parse(&argv("serve --workers nope")).is_err());
        assert!(parse(&argv("serve --frobnicate")).is_err());
    }

    #[test]
    fn scale_round_trips_through_names() {
        for s in [Scale::Sim, Scale::Large] {
            assert_eq!(scale_str(s).parse::<Scale>(), Ok(s));
            assert_eq!(run_cell(&format!("--scale {}", scale_str(s))).scale, s);
        }
    }

    #[test]
    fn execute_defers_runner_commands() {
        let mut buf = Vec::new();
        let err = execute(&Command::Sweep(SweepArgs::default()), &mut buf).unwrap_err();
        assert!(err.to_string().contains("hintm-serve"));
        let figures = Command::Figures(FiguresArgs::default());
        assert!(execute(&figures, &mut buf).is_err());
        assert!(execute(&Command::CacheClear { dir: None }, &mut buf).is_err());
        assert!(execute(&Command::CacheStats { dir: None }, &mut buf).is_err());
        assert!(execute(&Command::Serve(ServeArgs::default()), &mut buf).is_err());
    }

    #[test]
    fn run_reports_unknown_workload() {
        let cmd = parse(&argv("run --workload nope")).unwrap();
        let mut buf = Vec::new();
        let err = execute(&cmd, &mut buf).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }
}
