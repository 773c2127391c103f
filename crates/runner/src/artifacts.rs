//! Sweep artifacts: a manifest plus machine-readable result tables.
//!
//! [`write_artifacts`] lays down three files in the output directory:
//!
//! * `manifest.json` — the sweep's shape and per-cell execution record
//!   (key, outcome, cache hit, wall time);
//! * `results.csv` — one row per completed cell, using the CLI's CSV
//!   schema ([`hintm::cli::CSV_HEADER`]);
//! * `results.json` — full [`RunReport`]s keyed by cell, for downstream
//!   tooling that wants more than the CSV columns.
//!
//! Because the executor reassembles results in spec order, these files
//! are bit-identical across job counts.

use crate::cache::SCHEMA_VERSION;
use crate::{Cell, CellOutcome, SweepResult};
use hintm::cli::{csv_row, CSV_HEADER};
use hintm::{chrome_trace, write_binlog, Json, TraceEvent};
use hintm_trace::Fnv64;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

fn scale_str(s: hintm::Scale) -> &'static str {
    match s {
        hintm::Scale::Sim => "sim",
        hintm::Scale::Large => "large",
    }
}

/// A cell's configuration as a JSON object (for the manifest/results).
pub fn cell_to_json(cell: &Cell) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(cell.workload.clone())),
        ("htm".into(), Json::Str(cell.htm.to_string())),
        ("hints".into(), Json::Str(cell.hint.to_string())),
        ("scale".into(), Json::Str(scale_str(cell.scale).into())),
        ("seed".into(), Json::u64(cell.seed)),
        (
            "threads".into(),
            cell.threads.map_or(Json::Null, |t| Json::u64(t as u64)),
        ),
        ("sim_threads".into(), Json::u64(cell.sim_threads as u64)),
        ("smt2".into(), Json::Bool(cell.smt2)),
        ("preserve".into(), Json::Bool(cell.preserve)),
        ("alloc_color".into(), Json::u64(cell.alloc_color)),
        ("record_tx_sizes".into(), Json::Bool(cell.record_tx_sizes)),
        ("profile_sharing".into(), Json::Bool(cell.profile_sharing)),
    ])
}

fn manifest(name: &str, result: &SweepResult) -> Json {
    let cells = result
        .cells
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("key".into(), Json::Str(r.cell.key())),
                ("cell".into(), cell_to_json(&r.cell)),
                (
                    "outcome".into(),
                    Json::Str(
                        match r.outcome {
                            CellOutcome::Done(_) => "done",
                            CellOutcome::Crashed(_) => "crashed",
                        }
                        .into(),
                    ),
                ),
                ("cached".into(), Json::Bool(r.cached)),
                ("wall_ms".into(), Json::u64(r.wall.as_millis() as u64)),
            ];
            if let CellOutcome::Crashed(msg) = &r.outcome {
                fields.push(("error".into(), Json::Str(msg.clone())));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("sweep".into(), Json::Str(name.into())),
        ("schema".into(), Json::u64(SCHEMA_VERSION as u64)),
        ("jobs".into(), Json::u64(result.jobs as u64)),
        ("wall_ms".into(), Json::u64(result.wall.as_millis() as u64)),
        ("executed".into(), Json::u64(result.executed as u64)),
        ("cache_hits".into(), Json::u64(result.cache_hits as u64)),
        ("crashed".into(), Json::u64(result.crashed as u64)),
        ("cells".into(), Json::Arr(cells)),
    ])
}

/// Renders the results CSV (header + one row per completed cell).
pub fn results_csv(result: &SweepResult) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for (cell, report) in result.reports() {
        out.push_str(&csv_row(report, cell.seed));
        out.push('\n');
    }
    out
}

/// Renders the results table as a JSON array (one `{cell, report}` object
/// per completed cell, in spec order). This is `results.json`'s content
/// and the body of the server's `GET /sweeps/{id}/report`.
pub fn results_json(result: &SweepResult) -> Json {
    Json::Arr(
        result
            .reports()
            .map(|(cell, report)| {
                Json::Obj(vec![
                    ("cell".into(), cell_to_json(cell)),
                    ("report".into(), report.to_json_value()),
                ])
            })
            .collect(),
    )
}

/// Writes `manifest.json`, `results.csv` and `results.json` under `dir`,
/// creating it if needed. Returns the paths written.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory or a file cannot be
/// written.
pub fn write_artifacts(dir: &Path, name: &str, result: &SweepResult) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let paths = [
        dir.join("manifest.json"),
        dir.join("results.csv"),
        dir.join("results.json"),
    ];
    fs::write(&paths[0], manifest(name, result).to_string())?;
    fs::write(&paths[1], results_csv(result))?;
    fs::write(&paths[2], results_json(result).to_string())?;
    Ok(paths.to_vec())
}

/// Writes one traced cell's event stream under `dir`: a Chrome
/// trace_event JSON (`.trace.json`) and a compact binary log
/// (`.trace.bin`), named by the FNV-1a hash of the cell's key — the same
/// addressing scheme the result cache uses. Returns the paths written.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory or a file cannot be
/// written.
pub fn write_trace(dir: &Path, cell: &Cell, events: &[TraceEvent]) -> io::Result<[PathBuf; 2]> {
    fs::create_dir_all(dir)?;
    let stem = format!("{:016x}", Fnv64::hash(cell.key().as_bytes()));
    let paths = [
        dir.join(format!("{stem}.trace.json")),
        dir.join(format!("{stem}.trace.bin")),
    ];
    fs::write(&paths[0], chrome_trace(events))?;
    fs::write(&paths[1], write_binlog(events))?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runner;

    #[test]
    fn artifacts_cover_every_cell() {
        let dir = std::env::temp_dir().join(format!("hintm-artifacts-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cells = [
            Cell::new("ssca2"),
            Cell::new("ssca2").seed(7),
            Cell::new("not-a-workload"),
        ];
        let result = Runner::new().no_cache().run(&cells);
        let paths = write_artifacts(&dir, "smoke", &result).unwrap();
        assert_eq!(paths.len(), 3);

        let manifest = Json::parse(&fs::read_to_string(&paths[0]).unwrap()).unwrap();
        assert_eq!(manifest.field("cells").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(manifest.field("crashed").unwrap().as_u64().unwrap(), 1);

        // CSV: header + the two completed cells; the crashed one is absent.
        let csv = fs::read_to_string(&paths[1]).unwrap();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next(), Some(CSV_HEADER));

        let results = Json::parse(&fs::read_to_string(&paths[2]).unwrap()).unwrap();
        assert_eq!(results.as_arr().unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
