//! `hintm perf`: the perf-regression harness for the simulation hot path.
//!
//! Times a pinned workload×HTM-model grid (fixed seed, fixed scale, hints
//! off) with warmup and repeated measurement, reports the per-cell and
//! overall median throughput in simulated memory accesses per wall second,
//! and writes a `BENCH_<date>.json` snapshot. When a prior snapshot exists
//! it compares the overall medians and fails past a configurable
//! regression threshold, so a hot-path change that slows the engine down
//! breaks CI instead of landing silently.
//!
//! The digest-locked equivalence suite (`tests/perf_equivalence.rs`)
//! guards *correctness* of hot-path rewrites; this harness guards their
//! *speed*. Together they pin both sides of an optimization.
//!
//! Snapshot schema (`schema_version` 3; version 3 files written while the
//! engine had a second execution tier also carry an `exec` field, which
//! is ignored):
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "created": "2026-08-06",
//!   "git_rev": "dc3908a",
//!   "grid": "full",
//!   "repeat": 5,
//!   "warmup": 1,
//!   "median_events_per_sec": 2026240.0,
//!   "cells": [
//!     {"workload": "kmeans", "htm": "P8", "events": 536870,
//!      "wall_ns": 240000000, "events_per_sec": 2236958.3,
//!      "runs_ns": [241000000, 240000000, 243000000]}
//!   ]
//! }
//! ```
//!
//! Snapshots written while the engine had host lanes (schema versions 2
//! and 3) also carry a top-level `threads` lane count; absent means 1.
//! The engine now always runs serially, so a baseline whose `threads` is
//! not 1 timed an engine that no longer exists: an auto-discovered one
//! skips the comparison with a notice, and an explicit `--baseline` is an
//! error.

use hintm::cli::PerfArgs;
use hintm::{Cell, HtmKind, Json, SweepSpec};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Snapshot format version (bump on breaking schema changes). Version 2
/// added a top-level `threads` lane count and version 3 an execution
/// tier; both are gone from the engine, and new snapshots write neither.
/// Older files are still read, with `threads` defaulting to 1.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// Default failure threshold: >25% slower than the baseline fails.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// Environment variable overriding the default threshold.
pub const THRESHOLD_ENV: &str = "HINTM_PERF_THRESHOLD";

/// The full pinned grid: five workloads spanning small/large footprints
/// and five capacity models spanning cheap/expensive tracking (including
/// the bounded read/write-set and capacity-stretching backends, whose
/// spill paths cost differently from plain exact tracking). Every cell is
/// at the [`Cell::new`] defaults otherwise: seed 42, sim scale, hints off.
pub fn full_grid() -> Vec<Cell> {
    SweepSpec::new()
        .workloads(["kmeans", "ssca2", "vacation", "genome", "tpcc-no"])
        .htms([
            HtmKind::P8,
            HtmKind::P8S,
            HtmKind::InfCap,
            HtmKind::Lrws,
            HtmKind::PStretch,
        ])
        .cells()
}

/// The 5-cell smoke grid for CI: one workload per capacity model.
pub fn smoke_grid() -> Vec<Cell> {
    [
        ("kmeans", HtmKind::P8),
        ("ssca2", HtmKind::InfCap),
        ("vacation", HtmKind::P8S),
        ("genome", HtmKind::Lrws),
        ("tpcc-no", HtmKind::PStretch),
    ]
    .map(|(w, htm)| Cell::new(w).htm(htm))
    .to_vec()
}

/// One cell's measurement.
#[derive(Clone, Debug)]
pub struct CellMeasurement {
    /// Workload name.
    pub workload: String,
    /// HTM model name (display form, e.g. `P8`).
    pub htm: String,
    /// Simulated memory accesses per run (deterministic across repeats).
    pub events: u64,
    /// Median wall time of the timed repeats, in nanoseconds.
    pub wall_ns: u64,
    /// Throughput at the median: `events * 1e9 / wall_ns`.
    pub events_per_sec: f64,
    /// Every timed repeat, in nanoseconds (unsorted, run order).
    pub runs_ns: Vec<u64>,
}

fn median_u64(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2
    }
}

fn median_f64(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The noise-rejected representative wall time of a cell's timed runs:
/// with 3 or more repeats the single slowest run is dropped, then the
/// median of the rest is taken; with 1-2 repeats every sample counts and
/// the median covers all of them.
///
/// Wall-clock noise on a timed simulation is one-sided — a run can be
/// descheduled, page-fault, or absorb another process's burst and come
/// out slower, but nothing makes it spuriously *faster* — so the max is
/// the only repeat a noise spike can inhabit. With an even count left
/// after the drop, the median averages the two middle runs, which still
/// never includes the dropped outlier.
///
/// # Panics
///
/// Panics on an empty slice (the CLI enforces `--repeat >= 1`).
pub fn noise_rejected_median(runs_ns: &[u64]) -> u64 {
    let mut sorted = runs_ns.to_vec();
    sorted.sort_unstable();
    if sorted.len() >= 3 {
        sorted.pop();
    }
    median_u64(&mut sorted)
}

/// Measures one cell: `warmup` untimed runs, `repeat` timed runs;
/// [`noise_rejected_median`] picks the representative wall time.
/// The grids pin the run configuration (seed 42, sim scale, hints off) so
/// snapshots are comparable across machines only in ratio, but across
/// commits on one machine in absolute terms. All raw repeats (including
/// a dropped outlier) stay in `runs_ns` for forensics.
///
/// # Errors
///
/// Returns an error for unknown workloads (a grid typo).
pub fn measure_cell(cell: &Cell, warmup: usize, repeat: usize) -> Result<CellMeasurement, String> {
    let exp = cell.experiment();
    let mut events = 0u64;
    for _ in 0..warmup {
        let r = exp.run().map_err(|e| e.to_string())?;
        events = r.stats.cache.accesses;
    }
    let mut runs_ns = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let t0 = Instant::now();
        let r = exp.run().map_err(|e| e.to_string())?;
        runs_ns.push(t0.elapsed().as_nanos() as u64);
        events = r.stats.cache.accesses;
    }
    let wall_ns = noise_rejected_median(&runs_ns).max(1);
    Ok(CellMeasurement {
        workload: cell.workload.clone(),
        htm: cell.htm.to_string(),
        events,
        wall_ns,
        events_per_sec: events as f64 * 1e9 / wall_ns as f64,
        runs_ns,
    })
}

/// The overall score of a snapshot: the median of per-cell throughputs.
/// A median (not a mean) keeps one noisy or unusually heavy cell from
/// dominating the regression verdict.
pub fn overall_median(cells: &[CellMeasurement]) -> f64 {
    let mut evps: Vec<f64> = cells.iter().map(|c| c.events_per_sec).collect();
    median_f64(&mut evps)
}

/// Current UTC date as `YYYY-MM-DD` (civil-from-days, proleptic Gregorian).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Serializes a snapshot to the BENCH JSON schema.
pub fn snapshot_json(cells: &[CellMeasurement], grid: &str, repeat: usize, warmup: usize) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::u64(BENCH_SCHEMA_VERSION)),
        ("created".into(), Json::Str(today_utc())),
        ("git_rev".into(), Json::Str(git_rev())),
        ("grid".into(), Json::Str(grid.into())),
        ("repeat".into(), Json::u64(repeat as u64)),
        ("warmup".into(), Json::u64(warmup as u64)),
        (
            "median_events_per_sec".into(),
            Json::f64(overall_median(cells)),
        ),
        (
            "cells".into(),
            Json::Arr(
                cells
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("workload".into(), Json::Str(c.workload.clone())),
                            ("htm".into(), Json::Str(c.htm.clone())),
                            ("events".into(), Json::u64(c.events)),
                            ("wall_ns".into(), Json::u64(c.wall_ns)),
                            ("events_per_sec".into(), Json::f64(c.events_per_sec)),
                            (
                                "runs_ns".into(),
                                Json::Arr(c.runs_ns.iter().map(|&n| Json::u64(n)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A parsed baseline: overall median plus per-cell throughputs.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Snapshot file the baseline came from.
    pub path: PathBuf,
    /// Commit recorded in the snapshot.
    pub git_rev: String,
    /// Engine lane count the snapshot was taken at (1 when the field is
    /// absent: version 1 files predate it and current ones omit it).
    pub threads: usize,
    /// Grid name the snapshot timed (`full` when the field is absent —
    /// only full-grid snapshots predate it).
    pub grid: String,
    /// Overall median events/sec.
    pub median_events_per_sec: f64,
    /// `(workload, htm) -> events_per_sec`.
    pub cells: Vec<(String, String, f64)>,
}

/// Parses a BENCH snapshot file.
///
/// # Errors
///
/// Returns an error on I/O failure, malformed JSON, or a schema-version
/// mismatch.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let version = j
        .field("schema_version")
        .and_then(|v| v.as_u64())
        .map_err(|e| e.to_string())?;
    if !(1..=BENCH_SCHEMA_VERSION).contains(&version) {
        return Err(format!(
            "{}: schema_version {version} (this binary reads 1..={BENCH_SCHEMA_VERSION})",
            path.display()
        ));
    }
    // v1 predates the field and current snapshots omit it: both serial.
    let threads = match j.get("threads") {
        Some(v) => v.as_u64().map_err(|e| e.to_string())? as usize,
        None => 1,
    };
    let grid = j
        .get("grid")
        .and_then(|v| v.as_str().ok())
        .unwrap_or("full")
        .to_string();
    let median = j
        .field("median_events_per_sec")
        .and_then(|v| v.as_f64())
        .map_err(|e| e.to_string())?;
    let mut cells = Vec::new();
    for c in j
        .field("cells")
        .and_then(|v| v.as_arr())
        .map_err(|e| e.to_string())?
    {
        cells.push((
            c.field("workload")
                .and_then(|v| v.as_str())
                .map_err(|e| e.to_string())?
                .to_string(),
            c.field("htm")
                .and_then(|v| v.as_str())
                .map_err(|e| e.to_string())?
                .to_string(),
            c.field("events_per_sec")
                .and_then(|v| v.as_f64())
                .map_err(|e| e.to_string())?,
        ));
    }
    Ok(Baseline {
        path: path.to_path_buf(),
        git_rev: j
            .get("git_rev")
            .and_then(|v| v.as_str().ok())
            .unwrap_or("unknown")
            .to_string(),
        threads,
        grid,
        median_events_per_sec: median,
        cells,
    })
}

/// The newest full-grid `BENCH_<YYYYMMDD>.json` in `dir` (dates sort
/// lexicographically, so the maximum file name is the latest snapshot).
/// The date field must be exactly eight digits: smoke snapshots
/// (`BENCH_smoke_<date>.json`) are never eligible as baselines — a
/// 1-repeat 3-cell smoke run is not a number future full runs should be
/// judged against. `exclude` skips the file about to be overwritten by a
/// same-day rerun.
pub fn find_baseline(dir: &Path, exclude: Option<&Path>) -> Option<PathBuf> {
    let mut best: Option<PathBuf> = None;
    for entry in fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let date = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"));
        let Some(date) = date else { continue };
        if date.len() != 8 || !date.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let path = entry.path();
        if exclude.is_some_and(|e| e == path) {
            continue;
        }
        if best
            .as_ref()
            .is_none_or(|b| b.file_name() < path.file_name())
        {
            best = Some(path);
        }
    }
    best
}

/// Resolves the regression threshold: flag, then env, then default.
pub fn resolve_threshold(pa: &PerfArgs) -> f64 {
    pa.threshold
        .or_else(|| std::env::var(THRESHOLD_ENV).ok()?.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD)
}

/// Runs the whole `hintm perf` command: measure, report, snapshot,
/// compare.
///
/// # Errors
///
/// Returns an error on unknown grid cells, unwritable output, an
/// unreadable explicit baseline, or a throughput regression beyond the
/// threshold.
pub fn run_perf(pa: &PerfArgs) -> Result<(), String> {
    let (grid, grid_name) = if pa.smoke {
        (smoke_grid(), "smoke")
    } else {
        (full_grid(), "full")
    };
    let out_dir = PathBuf::from(pa.out.as_deref().unwrap_or("."));
    // Smoke snapshots get their own namespace so a quick CI run can never
    // clobber (or be mistaken for) a committed full-grid baseline.
    let stamp_path = out_dir.join(format!(
        "BENCH_{}{}.json",
        if pa.smoke { "smoke_" } else { "" },
        today_utc().replace('-', "")
    ));

    eprintln!(
        "perf: {} grid, {} cells, warmup {} + repeat {}",
        grid_name,
        grid.len(),
        pa.warmup,
        pa.repeat,
    );
    let mut cells = Vec::with_capacity(grid.len());
    for c in &grid {
        let m = measure_cell(c, pa.warmup, pa.repeat)?;
        eprintln!(
            "  {:<10} {:<7} {:>9} events  {:>9.0} ev/s  ({:.1} ms median)",
            m.workload,
            m.htm,
            m.events,
            m.events_per_sec,
            m.wall_ns as f64 / 1e6,
        );
        cells.push(m);
    }
    let median = overall_median(&cells);
    eprintln!("perf: overall median {median:.0} events/sec");

    fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let json = snapshot_json(&cells, grid_name, pa.repeat, pa.warmup);
    let mut file =
        fs::File::create(&stamp_path).map_err(|e| format!("{}: {e}", stamp_path.display()))?;
    writeln!(file, "{json}").map_err(|e| e.to_string())?;
    eprintln!("wrote {}", stamp_path.display());

    if pa.no_compare {
        return Ok(());
    }
    let baseline_path = match &pa.baseline {
        Some(p) => Some(PathBuf::from(p)),
        None => find_baseline(&out_dir, Some(&stamp_path)),
    };
    let Some(bp) = baseline_path else {
        eprintln!(
            "perf: no baseline snapshot (BENCH_<date>.json) in {}; comparison skipped",
            out_dir.display()
        );
        return Ok(());
    };
    let base = load_baseline(&bp)?;
    // A smoke median covers a different (and far smaller) cell set than a
    // full-grid median, and a multi-lane baseline timed an engine that no
    // longer exists: either ratio compares nothing comparable. An explicit
    // ask that can't be honored is an error; an auto-discovered mismatch
    // just skips the comparison.
    let mismatch = if base.grid != grid_name {
        Some(format!(
            "baseline {} timed the {} grid, this run the {} grid",
            base.path.display(),
            base.grid,
            grid_name
        ))
    } else if base.threads != 1 {
        Some(format!(
            "baseline {} was taken on the retired lane engine at threads {}",
            base.path.display(),
            base.threads
        ))
    } else {
        None
    };
    if let Some(msg) = mismatch {
        if pa.baseline.is_some() {
            return Err(format!("perf: refusing comparison: {msg}"));
        }
        eprintln!("perf: comparison skipped: {msg}");
        return Ok(());
    }
    let threshold = resolve_threshold(pa);
    let ratio = median / base.median_events_per_sec;
    eprintln!(
        "perf: {:.2}x vs baseline {} ({}, {:.0} ev/s); threshold -{:.0}%",
        ratio,
        base.path.display(),
        base.git_rev,
        base.median_events_per_sec,
        threshold * 100.0
    );
    for m in &cells {
        if let Some((_, _, b)) = base
            .cells
            .iter()
            .find(|(w, h, _)| *w == m.workload && *h == m.htm)
        {
            eprintln!(
                "  {:<10} {:<7} {:>6.2}x",
                m.workload,
                m.htm,
                m.events_per_sec / b
            );
        }
    }
    if ratio < 1.0 - threshold {
        return Err(format!(
            "perf regression: {:.0} ev/s is {:.1}% below baseline {:.0} ev/s \
             (threshold {:.0}%)",
            median,
            (1.0 - ratio) * 100.0,
            base.median_events_per_sec,
            threshold * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_pinned() {
        assert_eq!(full_grid().len(), 25);
        assert_eq!(smoke_grid().len(), 5);
        // Every smoke cell is drawn from the full grid.
        for s in smoke_grid() {
            assert!(full_grid()
                .iter()
                .any(|f| f.workload == s.workload && f.htm == s.htm));
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median_u64(&mut [3, 1, 2]), 2);
        assert_eq!(median_u64(&mut [4, 1, 2, 3]), 2);
        assert_eq!(median_f64(&mut [1.0, 5.0, 3.0]), 3.0);
    }

    #[test]
    fn noise_rejection_starts_at_three_repeats() {
        // repeat 1: the single sample IS the result — nothing to reject.
        assert_eq!(noise_rejected_median(&[7]), 7);
        // repeat 2: both samples count; the median averages them. Dropping
        // the slower of two would blindly trust a single run.
        assert_eq!(noise_rejected_median(&[10, 1000]), 505);
        assert_eq!(noise_rejected_median(&[1000, 10]), 505);
        // repeat 3: the threshold — the slowest is dropped, the median of
        // the remaining two is the average.
        assert_eq!(noise_rejected_median(&[10, 12, 1000]), 11);
        assert_eq!(noise_rejected_median(&[1000, 10, 12]), 11);
        // repeat 5: a single noise spike no longer drags the median up.
        assert_eq!(noise_rejected_median(&[10, 11, 1000, 12, 13]), 11);
        assert_eq!(median_u64(&mut [10, 11, 1000, 12, 13]), 12);
    }

    #[test]
    fn snapshot_round_trips_through_the_baseline_loader() {
        let cells = vec![
            CellMeasurement {
                workload: "kmeans".into(),
                htm: "P8".into(),
                events: 1000,
                wall_ns: 500,
                events_per_sec: 2e9,
                runs_ns: vec![500, 501],
            },
            CellMeasurement {
                workload: "ssca2".into(),
                htm: "InfCap".into(),
                events: 2000,
                wall_ns: 2000,
                events_per_sec: 1e9,
                runs_ns: vec![2000],
            },
        ];
        let dir = std::env::temp_dir().join("hintm-perf-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_20260101.json");
        fs::write(&path, snapshot_json(&cells, "smoke", 2, 1).to_string()).unwrap();
        let b = load_baseline(&path).unwrap();
        assert_eq!(b.median_events_per_sec, 1.5e9);
        assert_eq!(b.threads, 1, "new snapshots omit `threads`: serial");
        assert_eq!(b.grid, "smoke");
        assert_eq!(b.cells.len(), 2);
        assert_eq!(b.cells[0].0, "kmeans");
        assert_eq!(b.cells[1].2, 1e9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_snapshots_read_as_serial() {
        let dir = std::env::temp_dir().join("hintm-perf-v1compat");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_20260101.json");
        fs::write(
            &path,
            r#"{"schema_version": 1, "median_events_per_sec": 2.0, "cells": []}"#,
        )
        .unwrap();
        let b = load_baseline(&path).unwrap();
        assert_eq!(b.threads, 1, "v1 files predate lanes: always serial");
        assert_eq!(b.grid, "full", "only full-grid snapshots predate `grid`");
        assert_eq!(b.median_events_per_sec, 2.0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v3_snapshots_with_an_exec_tier_still_load() {
        let dir = std::env::temp_dir().join("hintm-perf-v3compat");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_20260101.json");
        fs::write(
            &path,
            r#"{"schema_version": 3, "threads": 4, "exec": "compiled",
                "median_events_per_sec": 2.0, "cells": []}"#,
        )
        .unwrap();
        let b = load_baseline(&path).unwrap();
        assert_eq!(b.threads, 4);
        assert_eq!(b.median_events_per_sec, 2.0);
        fs::remove_dir_all(&dir).unwrap();
        // The committed compiled-tier snapshot is one of them.
        let committed =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_compiled_20260808.json");
        let b = load_baseline(&committed).unwrap();
        assert_eq!(b.grid, "full");
        assert!(b.median_events_per_sec > 0.0);
    }

    #[test]
    fn find_baseline_picks_newest_and_respects_exclude() {
        let dir = std::env::temp_dir().join("hintm-perf-findbase");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("BENCH_20250101.json"), "{}").unwrap();
        fs::write(dir.join("BENCH_20260101.json"), "{}").unwrap();
        fs::write(dir.join("notes.txt"), "").unwrap();
        // Smoke snapshots sort above full ones ('s' > any digit) but must
        // never be selected as a baseline; nor are the tier-tagged files
        // an earlier engine with two execution tiers wrote.
        fs::write(dir.join("BENCH_smoke_20270101.json"), "{}").unwrap();
        fs::write(dir.join("BENCH_compiled_20270101.json"), "{}").unwrap();
        fs::write(dir.join("BENCH_both_20270101.json"), "{}").unwrap();
        let newest = dir.join("BENCH_20260101.json");
        assert_eq!(find_baseline(&dir, None), Some(newest.clone()));
        assert_eq!(
            find_baseline(&dir, Some(&newest)),
            Some(dir.join("BENCH_20250101.json"))
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join("hintm-perf-schema");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_20260101.json");
        fs::write(&path, r#"{"schema_version": 99}"#).unwrap();
        let err = load_baseline(&path).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn today_is_iso_formatted() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
        assert_eq!(&d[7..8], "-");
        assert!(d.starts_with("20"), "{d}");
    }

    #[test]
    fn smoke_measurement_produces_sane_numbers() {
        let m = measure_cell(&Cell::new("kmeans"), 0, 1).unwrap();
        assert!(m.events > 0);
        assert!(m.wall_ns > 0);
        assert!(m.events_per_sec > 0.0);
        assert_eq!(m.runs_ns.len(), 1);
    }
}
