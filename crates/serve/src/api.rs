//! JSON ↔ domain mapping for the HTTP API.
//!
//! The wire sweep spec mirrors `hintm sweep`'s flags: its keys are the
//! flagged rows of the axis table ([`hintm::AXES`]), parsed by
//! [`SweepSpec::from_json`]:
//!
//! ```json
//! {
//!   "workloads": ["kmeans", "ssca2"],
//!   "htm": ["p8", "infcap"],
//!   "hints": ["off", "full"],
//!   "seeds": [1, 2],
//!   "alloc_colors": [0, 64],
//!   "scale": "sim",
//!   "threads": 8,
//!   "sim_threads": 1,
//!   "smt2": false,
//!   "preserve": false
//! }
//! ```
//!
//! `sim_threads` (`--sim-threads` on the CLI) is accepted, validated and
//! echoed for older clients, but ignored: the engine always runs serially.
//! It is not part of the cell key, so resubmitting a spec at a different
//! value is a pure cache replay.
//!
//! Every field is optional with the same defaults as the CLI; unknown
//! fields are rejected so typos fail loudly instead of silently sweeping
//! the wrong grid.

use hintm::{Json, WORKLOAD_NAMES};
use hintm_runner::{Cell, CellOutcome, CellResult, SweepResult, SweepSpec};
use std::time::Duration;

use crate::queue::{CellStatus, JobSnapshot};

/// Builds the cell grid for a `POST /sweeps` body.
///
/// # Errors
///
/// Returns a description of the first malformed, unknown, or invalid
/// field — including workload names that are not registered and thread
/// overrides the simulated machine cannot run.
pub(crate) fn cells_from_spec_json(j: &Json) -> Result<Vec<Cell>, String> {
    let cells = SweepSpec::from_json(j)?.cells();
    for cell in &cells {
        if !WORKLOAD_NAMES.contains(&cell.workload.as_str()) {
            return Err(format!("unknown workload `{}`", cell.workload));
        }
        cell.check()?;
    }
    Ok(cells)
}

/// Renders one job snapshot as the `GET /sweeps/{id}` body: totals plus
/// per-cell progress.
pub(crate) fn job_to_json(snap: &JobSnapshot) -> Json {
    let cells = snap
        .cells
        .iter()
        .zip(&snap.status)
        .zip(&snap.walls)
        .map(|((cell, status), wall)| {
            let mut fields = vec![
                ("key".into(), Json::Str(cell.key())),
                ("label".into(), Json::Str(cell.label())),
                (
                    "state".into(),
                    Json::Str(
                        match status {
                            CellStatus::Pending => "pending",
                            CellStatus::Running => "running",
                            CellStatus::Done { .. } => "done",
                            CellStatus::Crashed(_) => "crashed",
                        }
                        .into(),
                    ),
                ),
            ];
            if let CellStatus::Done { cached } = status {
                fields.push(("cached".into(), Json::Bool(*cached)));
                fields.push(("wall_ms".into(), Json::u64(wall.as_millis() as u64)));
            }
            if let CellStatus::Crashed(msg) = status {
                fields.push(("error".into(), Json::Str(msg.clone())));
            }
            Json::Obj(fields)
        })
        .collect();
    // The spec applies one `sim_threads` value to every cell, so the
    // first cell speaks for the job (1 for the empty edge case).
    let sim_threads = snap.cells.first().map_or(1, |c| c.sim_threads);
    Json::Obj(vec![
        ("id".into(), Json::u64(snap.id as u64)),
        ("total".into(), Json::u64(snap.cells.len() as u64)),
        ("sim_threads".into(), Json::u64(sim_threads as u64)),
        ("finished".into(), Json::u64(snap.finished as u64)),
        ("cached".into(), Json::u64(snap.cached as u64)),
        ("crashed".into(), Json::u64(snap.crashed as u64)),
        ("complete".into(), Json::Bool(snap.complete())),
        ("wall_ms".into(), Json::u64(snap.wall.as_millis() as u64)),
        ("cells".into(), Json::Arr(cells)),
    ])
}

/// Reassembles a completed job's results into a [`SweepResult`], so the
/// report endpoints reuse the exact CSV/JSON rendering `hintm sweep`
/// writes — byte-identical output for identical specs.
pub(crate) fn sweep_result_from(
    results: Vec<CellResult>,
    wall: Duration,
    jobs: usize,
) -> SweepResult {
    let cache_hits = results.iter().filter(|r| r.cached).count();
    let crashed = results
        .iter()
        .filter(|r| matches!(r.outcome, CellOutcome::Crashed(_)))
        .count();
    SweepResult {
        executed: results.len() - cache_hits - crashed,
        cache_hits,
        crashed,
        cells: results,
        wall,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm::cli::{parse, Command};
    use hintm::{cell_from_json, HintMode, HtmKind, Scale, AXES};
    use hintm_runner::cell_to_json;

    /// One non-default value per axis, as each front end spells it: the
    /// axis's JSON key, `hintm run` flags, `hintm sweep` flags, `POST
    /// /sweeps` fields (empty for axes without a flag), and the cell the
    /// builder makes from `kmeans`.
    type AxisCase = (
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        fn(Cell) -> Cell,
    );

    #[rustfmt::skip]
    const AXIS_CASES: [AxisCase; 12] = [
        ("workload", "--workload genome", "--workloads genome", r#""workloads":["genome"]"#,
            |_| Cell::new("genome")),
        ("htm", "--htm l1tm", "--models l1tm", r#""htm":["l1tm"]"#, |c| c.htm(HtmKind::L1Tm)),
        ("hints", "--hints HinTM", "--hints full", r#""hints":["HinTM"]"#,
            |c| c.hint(HintMode::Full)),
        ("scale", "--scale large", "--scale large", r#""scale":"large""#,
            |c| c.scale(Scale::Large)),
        ("seed", "--seed 7", "--seeds 7", r#""seeds":[7]"#, |c| c.seed(7)),
        ("threads", "--threads 4", "--threads 4", r#""threads":4"#, |c| c.threads(4)),
        ("sim_threads", "--sim-threads 2", "--sim-threads 2", r#""sim_threads":2"#,
            |c| c.sim_threads(2)),
        ("smt2", "--smt2", "--smt2", r#""smt2":true"#, |c| c.smt2(true)),
        ("preserve", "--preserve", "--preserve", r#""preserve":true"#, |c| c.preserve(true)),
        ("alloc_color", "--alloc-color 64", "--alloc-colors 64", r#""alloc_colors":[64]"#,
            |c| c.alloc_color(64)),
        ("record_tx_sizes", "", "", "", |c| c.record_tx_sizes(true)),
        ("profile_sharing", "", "", "", |c| c.profile_sharing(true)),
    ];

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_axis_agrees_across_front_ends() {
        let base = Cell::new("kmeans");
        let names: Vec<&str> = AXIS_CASES.iter().map(|c| c.0).collect();
        let axes: Vec<&str> = AXES.iter().map(|a| a.json).collect();
        assert_eq!(names, axes, "one case per axis, in table order");
        for (json, run, sweep, wire, set) in AXIS_CASES {
            let expected = set(base.clone());
            let axis = AXES.iter().find(|a| a.json == json).unwrap();
            assert_ne!(expected, base, "`{json}` case must leave the default");
            if axis.flag.is_some() {
                let cmd = parse(&argv(&format!("run --workload kmeans {run}"))).unwrap();
                let Command::Run(ra) = cmd else { panic!() };
                assert_eq!(ra.cell, expected, "`{json}` through `hintm run {run}`");
                let Command::Trace(ta) = parse(&argv(&format!("trace kmeans {run}"))).unwrap()
                else {
                    panic!()
                };
                assert_eq!(ta.cell, expected, "`{json}` through `hintm trace {run}`");
                let cmd = parse(&argv(&format!("sweep --workloads kmeans {sweep}"))).unwrap();
                let Command::Sweep(sa) = cmd else { panic!() };
                assert_eq!(
                    sa.spec.cells(),
                    std::slice::from_ref(&expected),
                    "`{json}` through `{sweep}`"
                );
                let body = Json::parse(&format!(r#"{{"workloads":["kmeans"],{wire}}}"#)).unwrap();
                assert_eq!(
                    cells_from_spec_json(&body).unwrap(),
                    std::slice::from_ref(&expected),
                    "`{json}` through POST /sweeps {wire}"
                );
            } else {
                assert!(run.is_empty() && sweep.is_empty() && wire.is_empty());
                let body = Json::parse(&format!(r#"{{"{json}":true}}"#)).unwrap();
                assert!(
                    cells_from_spec_json(&body).is_err(),
                    "`{json}` is not a wire key"
                );
            }
            assert_eq!(
                cell_from_json(&cell_to_json(&expected)),
                Ok(expected.clone())
            );
            assert_eq!(
                expected.key() != base.key(),
                axis.key.is_some(),
                "`{json}`: only axes with a key label change the key"
            );
        }
        for cell in [base, Cell::new("labyrinth").threads(16).smt2(true).seed(3)] {
            assert_eq!(cell_from_json(&cell_to_json(&cell)), Ok(cell));
        }
    }

    #[test]
    fn spec_json_mirrors_the_cli_axes() {
        let j = Json::parse(
            r#"{"workloads":["kmeans","ssca2"],"htm":["p8","infcap"],
                "hints":["off","full"],"seeds":[1,2],"scale":"large",
                "threads":4,"sim_threads":2,"smt2":true,"preserve":true}"#,
        )
        .unwrap();
        let cells = cells_from_spec_json(&j).unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert!(cells.iter().all(|c| {
            c.scale == Scale::Large
                && c.threads == Some(4)
                && c.sim_threads == 2
                && c.smt2
                && c.preserve
        }));
        // Same grid the CLI would enumerate.
        let cli = SweepSpec::new()
            .workloads(["kmeans", "ssca2"])
            .htms([HtmKind::P8, HtmKind::InfCap])
            .hints([HintMode::Off, HintMode::Full])
            .seeds([1, 2])
            .scale(Scale::Large)
            .threads(4)
            .sim_threads(2)
            .smt2(true)
            .preserve(true)
            .cells();
        assert_eq!(cells, cli);
    }

    #[test]
    fn empty_spec_defaults_to_the_full_registry() {
        let cells = cells_from_spec_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(cells.len(), WORKLOAD_NAMES.len());
    }

    #[test]
    fn spec_rejects_bad_input() {
        for body in [
            r#"{"workloads":["not-a-workload"]}"#,
            r#"{"htm":["weird"]}"#,
            r#"{"hints":"off"}"#,
            r#"{"seeds":["x"]}"#,
            r#"{"scale":"huge"}"#,
            r#"{"sim_threads":0}"#,
            r#"{"sim_threads":"two"}"#,
            r#"{"exec":"interp"}"#,
            r#"{"smt2":"yes"}"#,
            r#"{"threads":9}"#,
            r#"{"threads":0}"#,
            r#"{"threads":16}"#,
            r#"{"threads":17,"smt2":true}"#,
            r#"{"alloc_colors":[18446744073709551615]}"#,
            r#"{"alloc_colors":64}"#,
            r#"{"record_tx_sizes":true}"#,
            r#"{"frobnicate":1}"#,
            r#"[1,2]"#,
        ] {
            let j = Json::parse(body).unwrap();
            assert!(cells_from_spec_json(&j).is_err(), "accepted {body}");
        }
    }

    #[test]
    fn cell_json_without_sim_threads_defaults_to_one() {
        // Manifests written before the `sim_threads` spelling existed
        // carry no such field; they read back as the default.
        let cell = Cell::new("kmeans").sim_threads(8);
        let mut j = cell_to_json(&cell);
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "sim_threads");
        }
        let back = cell_from_json(&j).unwrap();
        assert_eq!(back.sim_threads, 1);
        // `sim_threads` is not part of the key, so the cell still dedups.
        assert_eq!(back.key(), cell.key());
    }

    #[test]
    fn cell_json_with_an_exec_tier_parses_to_the_same_cell() {
        // Manifests from builds with two execution tiers carry `"exec"`;
        // the cell they describe is unchanged.
        let cell = Cell::new("kmeans").sim_threads(2).seed(7);
        let mut j = cell_to_json(&cell);
        if let Json::Obj(fields) = &mut j {
            assert!(fields.iter().all(|(k, _)| k != "exec"));
            fields.insert(7, ("exec".into(), Json::Str("both".into())));
        }
        let back = cell_from_json(&j).unwrap();
        assert_eq!(back, cell);
        assert_eq!(back.key(), cell.key());
    }
}
