//! The output-correctness gate behind `correct`, `attempted` and `failed`.
//!
//! Every simulated cell is checked three ways:
//!
//! * its stats fingerprint (FNV-64 of the report's canonical JSON) against
//!   a blessed value when one exists — the repository's digest table for
//!   hints-off Sim-scale cells at seed 42, and `golden/seed42.txt` for the
//!   other cells this benchmark runs at seed 42 — and otherwise against
//!   the first time the same cell ran in this process (a cell's first run
//!   without a blessed value has nothing to compare against, and is
//!   counted as unverified);
//! * committed work (HTM commits plus fallback commits) against every
//!   other cell of the same workload input: no HTM model or hint mode may
//!   lose or duplicate a transaction;
//! * model rules that hold at any seed: InfCap never capacity- or
//!   false-conflict-aborts, and without dynamic hints nothing page-mode
//!   aborts.

use hintm::{AbortKind, HtmKind, RunReport, Scale};
use hintm_runner::Cell;
use hintm_trace::Fnv64;
use std::collections::{BTreeMap, HashMap};

/// The repository's blessed digest table, read in place.
const DIGEST_TABLE: &str = include_str!("../../tests/golden/digest_table.inc");

/// This benchmark's own seed-42 fingerprints.
const SEED42: &str = include_str!("../golden/seed42.txt");

/// The digest table's column order.
pub const TABLE_MODELS: [HtmKind; 8] = [
    HtmKind::P8,
    HtmKind::P8S,
    HtmKind::L1Tm,
    HtmKind::InfCap,
    HtmKind::Rot,
    HtmKind::LogTm,
    HtmKind::Lrws,
    HtmKind::PStretch,
];

/// The seed both golden sources were taken at.
pub const GOLDEN_SEED: u64 = 42;

/// Errors kept for the report; later ones are only counted.
const MAX_ERRORS: usize = 20;

/// The stats fingerprint of a report.
pub fn fingerprint(report: &RunReport) -> u64 {
    Fnv64::hash(report.to_json().as_bytes())
}

/// Parses the digest table: per workload, the stats fingerprint of each
/// model in [`TABLE_MODELS`] order.
///
/// # Errors
///
/// Returns a description of the first malformed row.
pub fn parse_digest_table(text: &str) -> Result<HashMap<String, [u64; 8]>, String> {
    let mut rows = HashMap::new();
    for line in text.lines().map(str::trim).filter(|l| l.starts_with("(\"")) {
        let name = line[2..]
            .split('"')
            .next()
            .ok_or_else(|| format!("no workload name in `{line}`"))?;
        let hex: Vec<u64> = line
            .split("0x")
            .skip(1)
            .map(|tok| {
                let digits: String = tok.chars().take_while(char::is_ascii_hexdigit).collect();
                u64::from_str_radix(&digits, 16).map_err(|e| format!("`{tok}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        // Each model contributes (trace digest, stats fingerprint).
        let stats: Vec<u64> = hex.iter().skip(1).step_by(2).copied().collect();
        let row: [u64; 8] = stats
            .try_into()
            .map_err(|v: Vec<u64>| format!("{name}: {} models, expected 8", v.len()))?;
        rows.insert(name.to_string(), row);
    }
    Ok(rows)
}

/// Parses a golden file: `<cell key> <fingerprint hex>` per line, `#`
/// comments and blank lines ignored.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_golden(text: &str) -> Result<HashMap<String, u64>, String> {
    let mut out = HashMap::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, fp) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("malformed golden line `{line}`"))?;
        let fp = u64::from_str_radix(fp, 16).map_err(|e| format!("`{line}`: {e}"))?;
        out.insert(key.to_string(), fp);
    }
    Ok(out)
}

/// Renders golden lines for `fps` (the inverse of [`parse_golden`]).
pub fn render_golden(fps: &BTreeMap<String, u64>) -> String {
    fps.iter()
        .map(|(k, fp)| format!("{k} {fp:016x}\n"))
        .collect()
}

/// Both golden sources.
pub struct Golden {
    table: HashMap<String, [u64; 8]>,
    seed42: HashMap<String, u64>,
}

impl Golden {
    /// Loads the compiled-in golden files.
    ///
    /// # Panics
    ///
    /// Panics if either file is malformed (a broken checkout).
    pub fn load() -> Golden {
        Golden {
            table: parse_digest_table(DIGEST_TABLE).expect("digest table parses"),
            seed42: parse_golden(SEED42).expect("golden/seed42.txt parses"),
        }
    }

    /// Whether the digest table covers `cell`: hints off, Sim scale, the
    /// golden seed, and every other knob at its default.
    pub fn in_table(cell: &Cell) -> bool {
        let default = Cell::new(&cell.workload).htm(cell.htm);
        cell.seed == GOLDEN_SEED && cell.key() == default.key()
    }

    /// The blessed fingerprint of `cell`, if any.
    pub fn expected(&self, cell: &Cell) -> Option<u64> {
        if Golden::in_table(cell) {
            let col = TABLE_MODELS.iter().position(|&m| m == cell.htm)?;
            return self.table.get(&cell.workload).map(|row| row[col]);
        }
        self.seed42.get(&cell.key()).copied()
    }
}

/// Counts operations and checks outputs.
pub struct Checker {
    golden: Golden,
    seen: HashMap<String, u64>,
    work: HashMap<String, u64>,
    /// Every checked cell's fingerprint, by cell key.
    pub fingerprints: BTreeMap<String, u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Cells whose fingerprint had a blessed value to compare against.
    pub blessed: u64,
    /// Cells without a blessed value whose fingerprint was compared with
    /// an earlier run of the same cell in this process.
    pub repeated: u64,
    /// Cells whose fingerprint had nothing to compare against: the first
    /// run of a cell without a blessed value. Only the committed-work and
    /// model rules gate these.
    pub unverified: u64,
    errors: Vec<String>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

impl Checker {
    /// A checker with the compiled-in golden files.
    pub fn new() -> Checker {
        Checker {
            golden: Golden::load(),
            seen: HashMap::new(),
            work: HashMap::new(),
            fingerprints: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            blessed: 0,
            repeated: 0,
            unverified: 0,
            errors: Vec::new(),
        }
    }

    /// The first failures, described.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Counts one operation that passed iff `ok`; `what` describes a
    /// failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(what());
            }
        }
        ok
    }

    /// Checks one simulated cell (see the module docs) and counts it as
    /// one operation. `Err` is a crash message.
    pub fn cell(&mut self, cell: &Cell, outcome: Result<&RunReport, &str>) -> bool {
        let problem = match outcome {
            Err(msg) => Some(format!("crashed: {msg}")),
            Ok(report) => self.problem(cell, report),
        };
        let label = cell.key();
        self.op(problem.is_none(), || {
            format!("{label}: {}", problem.unwrap_or_default())
        })
    }

    fn problem(&mut self, cell: &Cell, report: &RunReport) -> Option<String> {
        let fp = fingerprint(report);
        let key = cell.key();
        self.fingerprints.insert(key.clone(), fp);
        let want = match self.golden.expected(cell) {
            Some(blessed) => {
                self.blessed += 1;
                blessed
            }
            None => match self.seen.get(&key) {
                Some(&earlier) => {
                    self.repeated += 1;
                    earlier
                }
                None => {
                    self.unverified += 1;
                    self.seen.insert(key, fp);
                    fp
                }
            },
        };
        if fp != want {
            return Some(format!("fingerprint {fp:016x}, expected {want:016x}"));
        }
        let s = &report.stats;
        let input = format!(
            "{}|{}|{}|{:?}|{}|{}",
            cell.workload,
            match cell.scale {
                Scale::Sim => "sim",
                Scale::Large => "large",
            },
            cell.seed,
            cell.threads,
            cell.smt2,
            cell.alloc_color
        );
        let done = s.commits + s.fallback_commits;
        let first = *self.work.entry(input).or_insert(done);
        if done != first {
            return Some(format!("committed {done} sections, other models {first}"));
        }
        if cell.htm == HtmKind::InfCap
            && s.aborts_of(AbortKind::Capacity) + s.aborts_of(AbortKind::FalseConflict) > 0
        {
            return Some("InfCap capacity- or false-conflict-aborted".into());
        }
        if !cell.hint.uses_dynamic() && s.aborts_of(AbortKind::PageMode) > 0 {
            return Some(format!("page-mode aborts under hints {}", cell.hint));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm::HintMode;

    #[test]
    fn digest_table_parses_and_covers_the_suite() {
        let table = parse_digest_table(DIGEST_TABLE).unwrap();
        assert_eq!(table.len(), hintm::WORKLOAD_NAMES.len());
        // First row, P8 column: the stats half of the first pair.
        let line = DIGEST_TABLE
            .lines()
            .find(|l| l.contains("(\"bayes\""))
            .unwrap();
        let p8_stats = line.split("0x").nth(2).unwrap();
        let want = u64::from_str_radix(&p8_stats[..16], 16).unwrap();
        assert_eq!(table["bayes"][0], want);
    }

    #[test]
    fn digest_table_rejects_short_rows() {
        let err = parse_digest_table("    (\"x\", [(0x1, 0x2), ]),").unwrap_err();
        assert!(err.contains("1 models"), "{err}");
    }

    #[test]
    fn golden_file_round_trips() {
        let golden = parse_golden(SEED42).unwrap();
        assert!(!golden.is_empty());
        let ordered: BTreeMap<String, u64> = golden.clone().into_iter().collect();
        assert_eq!(parse_golden(&render_golden(&ordered)).unwrap(), golden);
        assert!(parse_golden("no-fingerprint-here").is_err());
        assert!(parse_golden("key zz").is_err());
        assert!(parse_golden("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn table_cells_are_hints_off_sim_at_the_golden_seed() {
        let cell = Cell::new("kmeans").htm(HtmKind::Lrws);
        assert!(Golden::in_table(&cell));
        assert!(Golden::in_table(&cell.clone().sim_threads(2)));
        assert!(!Golden::in_table(&cell.clone().seed(7)));
        assert!(!Golden::in_table(&cell.clone().hint(HintMode::Full)));
        assert!(!Golden::in_table(&cell.clone().scale(Scale::Large)));
    }

    #[test]
    fn checker_flags_drift_and_lost_work() {
        let mut c = Checker::new();
        let cell = Cell::new("ssca2").seed(3);
        let report = cell.run().unwrap();
        assert!(c.cell(&cell, Ok(&report)));
        assert!(c.cell(&cell, Ok(&report)), "same output twice passes");
        let mut drifted = report.clone();
        drifted.stats.commits += 1;
        assert!(!c.cell(&cell, Ok(&drifted)), "a changed output fails");
        let other = cell.clone().htm(HtmKind::P8S);
        let mut lost = other.run().unwrap();
        lost.stats.fallback_commits += 1;
        assert!(!c.cell(&other, Ok(&lost)), "lost or extra work fails");
        assert!(!c.cell(&cell, Err("boom")));
        assert_eq!((c.attempted, c.failed), (5, 3));
        assert_eq!((c.blessed, c.repeated, c.unverified), (0, 2, 2));
        assert_eq!(c.errors().len(), 3);
    }

    #[test]
    fn checker_compares_blessed_cells_to_the_table() {
        let mut c = Checker::new();
        let cell = Cell::new("kmeans");
        let report = cell.run().unwrap();
        assert!(c.cell(&cell, Ok(&report)));
        assert_eq!(c.blessed, 1);
    }
}
