//! Sweep cells, the axis table, and the [`SweepSpec`] cross product.
//!
//! A [`Cell`] is one fully-specified simulator run. Each of its fields is
//! an *axis*, declared once as a row of [`AXES`]: its JSON key, its CLI
//! flag, its label in [`Cell::key`], and one parse and one render
//! function. Every surface that names axes walks that table instead of
//! listing fields: the cache key, the cell JSON of the sweep manifest
//! ([`cell_to_json`], [`cell_from_json`]), the axis flags of
//! `hintm run`/`trace`/`sweep`, the `POST /sweeps` body
//! ([`SweepSpec::from_json`]) and the sweep cross product
//! ([`SweepSpec::cells`]). A new axis is a `Cell` field, its builder, and
//! one row. A cell also builds its [`SimConfig`] and runs itself
//! ([`Cell::run`], [`Cell::run_traced`], [`Cell::run_with_sink`]).

use crate::{
    by_name, by_name_with_threads, AllocConfig, HintMode, HtmKind, Json, Recording, RunReport,
    RunStats, Scale, SimConfig, Simulator, TraceSink, UnknownWorkload, Workload, WORKLOAD_NAMES,
};
use hintm_mem::HEAP_ARENA_SIZE;
use std::collections::HashSet;

/// One fully-specified simulator run, configured builder-style (see the
/// crate-level example).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Workload name (see `hintm list`).
    pub workload: String,
    /// HTM configuration.
    pub htm: HtmKind,
    /// Hint mode.
    pub hint: HintMode,
    /// Input scale.
    pub scale: Scale,
    /// Run seed.
    pub seed: u64,
    /// Thread-count override (`None` = the workload's paper default).
    pub threads: Option<usize>,
    /// Accepted and validated (>= 1) for older specs and scripts, but
    /// ignored: the engine always runs serially. Not part of
    /// [`Cell::key`], so the cache is shared across values.
    pub sim_threads: usize,
    /// 2-way SMT (16 hardware threads on 8 cores).
    pub smt2: bool,
    /// §VI-B preserve optimization.
    pub preserve: bool,
    /// Heap-placement color stride in bytes (0 = packed). Placement
    /// changes simulated addresses and so abort counts, so it is part of
    /// [`Cell::key`].
    pub alloc_color: u64,
    /// Record per-committed-transaction footprints (Fig. 6 CDFs).
    pub(crate) record_tx_sizes: bool,
    /// Feed every access to the sharing profiler (Fig. 1 metrics).
    pub(crate) profile_sharing: bool,
}

impl Default for Cell {
    /// The paper's defaults with no workload named: P8 HTM, no hints,
    /// `Scale::Sim`, seed 42, packed heap.
    fn default() -> Cell {
        Cell {
            workload: String::new(),
            htm: HtmKind::P8,
            hint: HintMode::Off,
            scale: Scale::Sim,
            seed: 42,
            threads: None,
            sim_threads: 1,
            smt2: false,
            preserve: false,
            alloc_color: 0,
            record_tx_sizes: false,
            profile_sharing: false,
        }
    }
}

/// One [`Cell`] field as every front end spells it.
#[derive(Clone, Copy, Debug)]
pub struct Axis {
    /// Key in a cell's JSON object (sweep manifest). An axis
    /// with a `flag` is also a `POST /sweeps` key under this name, unless
    /// it has a `list` name.
    pub json: &'static str,
    /// Flag setting the axis on `hintm run`/`trace`/`sweep`
    /// (`None`: only the builder and cell JSON reach it). Flags whose
    /// value renders as JSON `true`/`false` take no value.
    pub flag: Option<&'static str>,
    /// For axes a sweep crosses over several values: the `POST /sweeps`
    /// key holding a JSON array of them, which `hintm sweep` also accepts
    /// as a flag (`--` + the key, `_` as `-`) taking a comma-separated
    /// list.
    pub(crate) list: Option<&'static str>,
    /// Label in [`Cell::key`]: `Some("")` writes the bare value, `None`
    /// leaves the axis out of the key.
    pub key: Option<&'static str>,
    /// Sets the axis on a cell from a JSON value.
    pub(crate) parse: fn(&mut Cell, &Json) -> Result<(), String>,
    /// The axis's value on a cell, as JSON.
    pub(crate) render: fn(&Cell) -> Json,
}

fn text(v: &Json) -> Result<&str, String> {
    v.as_str()
        .map_err(|_| format!("expected a string, got {v}"))
}

fn uint(v: &Json) -> Result<u64, String> {
    v.as_u64()
        .map_err(|_| format!("expected an unsigned integer, got {v}"))
}

fn count(v: &Json) -> Result<usize, String> {
    usize::try_from(uint(v)?).map_err(|_| format!("{v} does not fit this host's usize"))
}

fn boolean(v: &Json) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("expected true or false, got {v}")),
    }
}

/// Every axis of a [`Cell`], in key, JSON and cross-product order. The
/// order is part of the cache contract: [`Cell::key`] strings of existing
/// cache entries must not change.
#[rustfmt::skip]
pub const AXES: [Axis; 12] = [
    Axis { json: "workload", flag: Some("--workload"), list: Some("workloads"), key: Some(""),
        parse: |c, v| text(v).map(|w| c.workload = w.to_string()),
        render: |c| Json::Str(c.workload.clone()) },
    Axis { json: "htm", flag: Some("--htm"), list: Some("htm"), key: Some(""),
        parse: |c, v| text(v)?.parse().map(|h| c.htm = h),
        render: |c| Json::Str(c.htm.to_string()) },
    Axis { json: "hints", flag: Some("--hints"), list: Some("hints"), key: Some(""),
        parse: |c, v| text(v)?.parse().map(|h| c.hint = h),
        render: |c| Json::Str(c.hint.to_string()) },
    Axis { json: "scale", flag: Some("--scale"), list: None, key: Some(""),
        parse: |c, v| text(v)?.parse().map(|s| c.scale = s),
        render: |c| Json::Str(c.scale.to_string()) },
    Axis { json: "seed", flag: Some("--seed"), list: Some("seeds"), key: Some("seed"),
        parse: |c, v| uint(v).map(|s| c.seed = s),
        render: |c| Json::u64(c.seed) },
    Axis { json: "threads", flag: Some("--threads"), list: None, key: Some("threads"),
        parse: |c, v| {
            c.threads = match v { Json::Null => None, v => Some(count(v)?) };
            Ok(())
        },
        render: |c| c.threads.map_or(Json::Null, |t| Json::u64(t as u64)) },
    Axis { json: "sim_threads", flag: Some("--sim-threads"), list: None, key: None,
        parse: |c, v| match count(v)? {
            0 => Err("expected an integer >= 1, got 0".into()),
            n => { c.sim_threads = n; Ok(()) }
        },
        render: |c| Json::u64(c.sim_threads as u64) },
    Axis { json: "smt2", flag: Some("--smt2"), list: None, key: Some("smt2"),
        parse: |c, v| boolean(v).map(|b| c.smt2 = b),
        render: |c| Json::Bool(c.smt2) },
    Axis { json: "preserve", flag: Some("--preserve"), list: None, key: Some("preserve"),
        parse: |c, v| boolean(v).map(|b| c.preserve = b),
        render: |c| Json::Bool(c.preserve) },
    Axis { json: "alloc_color", flag: Some("--alloc-color"), list: Some("alloc_colors"),
        key: Some("color"),
        parse: |c, v| match uint(v)? {
            s if s > HEAP_ARENA_SIZE => Err(format!(
                "color stride {s} exceeds the {HEAP_ARENA_SIZE}-byte heap arena"
            )),
            s => { c.alloc_color = s; Ok(()) }
        },
        render: |c| Json::u64(c.alloc_color) },
    Axis { json: "record_tx_sizes", flag: None, list: None, key: Some("txsizes"),
        parse: |c, v| boolean(v).map(|b| c.record_tx_sizes = b),
        render: |c| Json::Bool(c.record_tx_sizes) },
    Axis { json: "profile_sharing", flag: None, list: None, key: Some("sharing"),
        parse: |c, v| boolean(v).map(|b| c.profile_sharing = b),
        render: |c| Json::Bool(c.profile_sharing) },
];

/// The position of the axis whose JSON key is `json` in [`AXES`].
///
/// # Panics
///
/// Panics if no axis has that key.
fn axis_index(json: &str) -> usize {
    AXES.iter()
        .position(|a| a.json == json)
        .unwrap_or_else(|| panic!("no axis `{json}`"))
}

impl Cell {
    /// A cell for `workload` with the paper's defaults: P8 HTM, no hints,
    /// `Scale::Sim`, seed 42, packed heap.
    pub fn new(workload: &str) -> Cell {
        Cell {
            workload: workload.to_string(),
            ..Cell::default()
        }
    }

    /// Selects the HTM configuration.
    pub fn htm(mut self, kind: HtmKind) -> Self {
        self.htm = kind;
        self
    }

    /// Selects the hint mode.
    pub fn hint(mut self, mode: HintMode) -> Self {
        self.hint = mode;
        self
    }

    /// Selects the input scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the workload's thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the ignored `sim_threads` spelling (clamped to 1). Does not
    /// change results and does not enter [`Cell::key`].
    pub fn sim_threads(mut self, n: usize) -> Self {
        self.sim_threads = n.max(1);
        self
    }

    /// Enables 2-way SMT.
    pub fn smt2(mut self, on: bool) -> Self {
        self.smt2 = on;
        self
    }

    /// Enables the preserve optimization.
    pub fn preserve(mut self, on: bool) -> Self {
        self.preserve = on;
        self
    }

    /// Sets the heap-placement color stride (bytes padded after every
    /// fresh allocation). Result-affecting: enters [`Cell::key`].
    pub fn alloc_color(mut self, stride: u64) -> Self {
        self.alloc_color = stride;
        self
    }

    /// Records per-transaction footprints.
    pub fn record_tx_sizes(mut self, on: bool) -> Self {
        self.record_tx_sizes = on;
        self
    }

    /// Enables the sharing profiler.
    pub fn profile_sharing(mut self, on: bool) -> Self {
        self.profile_sharing = on;
        self
    }

    /// The canonical identity of this cell: every axis with a
    /// [`Axis::key`] label, in table order, joined by `|`. Two cells are
    /// the same run iff their keys are equal — the cache addresses results
    /// by a hash of this string. `sim_threads` is intentionally absent:
    /// the engine ignores it, so resubmitting a spec at a different
    /// `sim_threads` must hit the cache.
    pub fn key(&self) -> String {
        let mut key = String::with_capacity(96);
        let mut sep = "";
        for axis in &AXES {
            let Some(label) = axis.key else { continue };
            key.push_str(sep);
            sep = "|";
            if !label.is_empty() {
                key.push_str(label);
                key.push('=');
            }
            match (axis.render)(self) {
                Json::Str(s) | Json::Num(s) => key.push_str(&s),
                Json::Null => key.push_str("auto"),
                v => key.push_str(&v.to_string()),
            }
        }
        key
    }

    /// A short human-readable label for progress lines.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{} s{}",
            self.workload, self.htm, self.hint, self.seed
        )
    }

    /// Rejects a cell the simulated machine cannot run: a thread override
    /// outside `1..=8`, or `1..=16` with 2-way SMT.
    ///
    /// # Errors
    ///
    /// Returns a description of the out-of-range override.
    pub fn check(&self) -> Result<(), String> {
        let hw = self.sim_config().machine.hw_threads();
        match self.threads {
            Some(t) if !(1..=hw).contains(&t) => Err(format!(
                "threads {t} is out of range: the machine has {hw} hardware threads{}",
                if self.smt2 { "" } else { " (16 with smt2)" }
            )),
            _ => Ok(()),
        }
    }

    /// The cell itself. Kept only because the repository benchmark
    /// (`benchmark/`) still spells `cell.experiment().sim_config()`; new
    /// code calls [`Cell::sim_config`] directly.
    pub fn experiment(&self) -> &Cell {
        self
    }

    /// Builds the [`SimConfig`] this cell runs with.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::with_htm(self.htm).hint_mode(self.hint);
        if self.smt2 {
            cfg = cfg.smt2();
        }
        cfg.preserve = self.preserve;
        cfg.record_tx_sizes = self.record_tx_sizes;
        cfg.profile_sharing = self.profile_sharing;
        cfg
    }

    /// Runs the cell.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run(&self) -> Result<RunReport, UnknownWorkload> {
        let mut w = self.workload()?;
        let stats = Simulator::new(self.sim_config()).run(w.as_mut(), self.seed);
        Ok(self.report(stats))
    }

    /// Runs the cell under a [`Recording`] retaining the first `events`
    /// events verbatim and folding all of them into metrics and the stream
    /// digest. The report carries the metric summary in
    /// [`RunReport::trace`]; its [`RunStats`] are bit-identical to an
    /// untraced run.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run_traced(&self, events: usize) -> Result<(RunReport, Recording), UnknownWorkload> {
        let mut rec = Recording::new(events);
        let mut report = self.run_with_sink(&mut rec)?;
        report.trace = Some(rec.summary());
        Ok((report, rec))
    }

    /// Runs the cell delivering every engine event to `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run_with_sink(&self, sink: &mut dyn TraceSink) -> Result<RunReport, UnknownWorkload> {
        let mut w = self.workload()?;
        let stats = Simulator::new(self.sim_config()).run_with_sink(w.as_mut(), self.seed, sink);
        Ok(self.report(stats))
    }

    /// The workload instance this cell runs, with its heap placement set.
    fn workload(&self) -> Result<Box<dyn Workload>, UnknownWorkload> {
        let mut w = match self.threads {
            Some(t) => by_name_with_threads(&self.workload, self.scale, t),
            None => by_name(&self.workload, self.scale),
        }
        .ok_or_else(|| UnknownWorkload(self.workload.clone()))?;
        w.set_alloc_config(AllocConfig {
            color_stride: self.alloc_color,
        });
        Ok(w)
    }

    fn report(&self, stats: RunStats) -> RunReport {
        RunReport {
            workload: self.workload.clone(),
            htm: self.htm,
            hint_mode: self.hint,
            stats,
            trace: None,
        }
    }
}

/// A cell's configuration as a JSON object: every axis under its
/// [`Axis::json`] key (the sweep manifest and `results.json`).
pub fn cell_to_json(cell: &Cell) -> Json {
    Json::Obj(
        AXES.iter()
            .map(|a| (a.json.to_string(), (a.render)(cell)))
            .collect(),
    )
}

/// Rebuilds a [`Cell`] from its [`cell_to_json`] object. An absent key
/// leaves the axis at its default — so cells written before an axis
/// existed (no `sim_threads`, no `alloc_color`) read back as the runs they
/// were — and keys that are not axes (such as the retired `exec` tier)
/// are ignored.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn cell_from_json(j: &Json) -> Result<Cell, String> {
    if !matches!(j, Json::Obj(_)) {
        return Err("a cell must be a JSON object".into());
    }
    let mut cell = Cell::default();
    for axis in &AXES {
        if let Some(v) = j.get(axis.json) {
            (axis.parse)(&mut cell, v).map_err(|e| format!("`{}`: {e}", axis.json))?;
        }
    }
    Ok(cell)
}

/// Builder enumerating a sweep's cells as the cross product of its axes.
///
/// Each axis holds a list of values; an empty list means the axis default
/// (for the workload axis: every registered workload). Enumeration order
/// is stable — workload-major, then the other axes in [`AXES`] order — and
/// duplicates are dropped, keeping the first occurrence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepSpec {
    /// Values per axis, indexed like [`AXES`], in rendered form.
    axes: Box<[Vec<Json>; AXES.len()]>,
}

impl SweepSpec {
    /// An empty spec (all axes at their defaults).
    pub fn new() -> SweepSpec {
        SweepSpec::default()
    }

    /// Appends `cell`'s value of axis `json` to that axis's list.
    fn add(mut self, json: &str, cell: Cell) -> Self {
        let i = axis_index(json);
        self.axes[i].push((AXES[i].render)(&cell));
        self
    }

    /// Replaces axis `json`'s list with `cell`'s value of it.
    fn put(mut self, json: &str, cell: Cell) -> Self {
        let i = axis_index(json);
        self.axes[i] = vec![(AXES[i].render)(&cell)];
        self
    }

    /// Replaces the values of `AXES[axis]`, checking that each parses —
    /// the entry point for the CLI and `POST /sweeps`.
    ///
    /// # Errors
    ///
    /// Returns the first value's parse error.
    pub(crate) fn set(&mut self, axis: usize, values: &[Json]) -> Result<(), String> {
        let a = &AXES[axis];
        let mut probe = Cell::default();
        self.axes[axis] = values
            .iter()
            .map(|v| {
                (a.parse)(&mut probe, v)?;
                Ok((a.render)(&probe))
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    /// Parses a `POST /sweeps` body. Keys are the flagged axes: the
    /// `Axis::list` name with a JSON array for list axes, the
    /// [`Axis::json`] name with one value otherwise. Unknown keys are
    /// rejected so typos fail loudly instead of sweeping the wrong grid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown or malformed field.
    pub fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let Json::Obj(fields) = j else {
            return Err("sweep spec must be a JSON object".into());
        };
        let mut spec = SweepSpec::new();
        for (name, value) in fields {
            let i = AXES
                .iter()
                .position(|a| a.flag.is_some() && a.list.unwrap_or(a.json) == name)
                .ok_or_else(|| format!("unknown sweep spec field `{name}`"))?;
            let values = match (AXES[i].list, value) {
                (Some(_), Json::Arr(items)) => items.as_slice(),
                (Some(_), _) => return Err(format!("`{name}` must be an array")),
                (None, v) => std::slice::from_ref(v),
            };
            spec.set(i, values).map_err(|e| format!("`{name}`: {e}"))?;
        }
        Ok(spec)
    }

    /// Adds one workload to the sweep.
    pub(crate) fn workload(self, name: &str) -> Self {
        self.add("workload", Cell::new(name))
    }

    /// Adds several workloads.
    pub fn workloads<'a>(self, names: impl IntoIterator<Item = &'a str>) -> Self {
        names.into_iter().fold(self, Self::workload)
    }

    /// Adds one HTM configuration to the sweep.
    pub fn htm(self, kind: HtmKind) -> Self {
        self.add("htm", Cell::default().htm(kind))
    }

    /// Adds several HTM configurations.
    pub fn htms(self, kinds: impl IntoIterator<Item = HtmKind>) -> Self {
        kinds.into_iter().fold(self, Self::htm)
    }

    /// Adds one hint mode to the sweep.
    pub(crate) fn hint(self, mode: HintMode) -> Self {
        self.add("hints", Cell::default().hint(mode))
    }

    /// Adds several hint modes.
    pub fn hints(self, modes: impl IntoIterator<Item = HintMode>) -> Self {
        modes.into_iter().fold(self, Self::hint)
    }

    /// Adds one input scale to the sweep.
    pub fn scale(self, scale: Scale) -> Self {
        self.add("scale", Cell::default().scale(scale))
    }

    /// Adds one seed to the sweep.
    pub fn seed(self, seed: u64) -> Self {
        self.add("seed", Cell::default().seed(seed))
    }

    /// Adds several seeds.
    pub fn seeds(self, seeds: impl IntoIterator<Item = u64>) -> Self {
        seeds.into_iter().fold(self, Self::seed)
    }

    /// Adds one heap-placement color stride to the sweep (a
    /// result-affecting axis; empty = `[0]`, the packed default).
    #[cfg(test)]
    fn alloc_color(self, stride: u64) -> Self {
        self.add("alloc_color", Cell::default().alloc_color(stride))
    }

    /// Adds several heap-placement color strides.
    #[cfg(test)]
    pub(crate) fn alloc_colors(self, strides: impl IntoIterator<Item = u64>) -> Self {
        strides.into_iter().fold(self, Self::alloc_color)
    }

    /// Thread-count override applied to every enumerated cell.
    pub fn threads(self, threads: usize) -> Self {
        self.put("threads", Cell::default().threads(threads))
    }

    /// The ignored `sim_threads` spelling, applied to every enumerated
    /// cell — see [`Cell::sim_threads`].
    pub fn sim_threads(self, n: usize) -> Self {
        self.put("sim_threads", Cell::default().sim_threads(n))
    }

    /// 2-way SMT on every enumerated cell.
    pub fn smt2(self, on: bool) -> Self {
        self.put("smt2", Cell::default().smt2(on))
    }

    /// Preserve optimization on every enumerated cell.
    pub fn preserve(self, on: bool) -> Self {
        self.put("preserve", Cell::default().preserve(on))
    }

    /// Enumerates the sweep's cells: cross product in stable order,
    /// duplicates dropped (first occurrence wins).
    pub fn cells(&self) -> Vec<Cell> {
        let apply = |cell: &mut Cell, axis: &Axis, v: &Json| {
            (axis.parse)(cell, v).expect("sweep values are stored in rendered form");
        };
        let mut product = if self.axes[axis_index("workload")].is_empty() {
            WORKLOAD_NAMES.iter().map(|w| Cell::new(w)).collect()
        } else {
            vec![Cell::default()]
        };
        for (axis, values) in AXES.iter().zip(self.axes.iter()) {
            if values.is_empty() {
                continue;
            }
            product = product
                .iter()
                .flat_map(|cell| {
                    values.iter().map(move |v| {
                        let mut c = cell.clone();
                        apply(&mut c, axis, v);
                        c
                    })
                })
                .collect();
        }
        let mut seen = HashSet::new();
        product
            .into_iter()
            .filter(|cell| seen.insert(cell.key()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_threads_is_not_part_of_the_key() {
        // The engine ignores sim_threads, so the cache must hit across
        // values: the key deliberately excludes it.
        let a = Cell::new("kmeans");
        assert_eq!(a.key(), a.clone().sim_threads(4).key());
        assert_eq!(Cell::new("kmeans").sim_threads(0).sim_threads, 1);
    }

    #[test]
    fn key_is_pinned_with_every_axis_set() {
        // Existing cache entries are addressed by this exact string.
        let cell = Cell::new("genome")
            .htm(HtmKind::L1Tm)
            .hint(HintMode::Full)
            .scale(Scale::Large)
            .seed(7)
            .threads(4)
            .sim_threads(2)
            .smt2(true)
            .preserve(true)
            .alloc_color(64)
            .record_tx_sizes(true)
            .profile_sharing(true);
        assert_eq!(
            cell.key(),
            "genome|L1TM|HinTM|large|seed=7|threads=4|smt2=true|preserve=true|\
             color=64|txsizes=true|sharing=true"
        );
        assert_eq!(
            Cell::new("kmeans").key(),
            "kmeans|P8|baseline|sim|seed=42|threads=auto|smt2=false|preserve=false|\
             color=0|txsizes=false|sharing=false"
        );
    }

    #[test]
    fn cell_json_keeps_the_manifest_shape() {
        assert_eq!(
            cell_to_json(&Cell::new("kmeans").threads(4)).to_string(),
            r#"{"workload":"kmeans","htm":"P8","hints":"baseline","scale":"sim","seed":42,"threads":4,"sim_threads":1,"smt2":false,"preserve":false,"alloc_color":0,"record_tx_sizes":false,"profile_sharing":false}"#
        );
        assert_eq!(cell_from_json(&Json::Obj(vec![])), Ok(Cell::default()));
        assert!(cell_from_json(&Json::Arr(vec![])).is_err());
    }

    #[test]
    fn spec_sim_threads_covers_every_cell() {
        let spec = SweepSpec::new()
            .workloads(["kmeans", "ssca2"])
            .sim_threads(4);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.sim_threads == 4));
    }

    #[test]
    fn spec_enumerates_cross_product_in_stable_order() {
        let spec = SweepSpec::new()
            .workloads(["kmeans", "ssca2"])
            .htms([HtmKind::P8, HtmKind::InfCap])
            .hints([HintMode::Off, HintMode::Full])
            .seeds([1, 2]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert_eq!(cells[0].key(), Cell::new("kmeans").seed(1).key());
        // Workload-major: all kmeans cells precede all ssca2 cells (the
        // workload axis leads the table).
        assert_eq!(AXES[0].json, "workload");
        assert!(cells[..8].iter().all(|c| c.workload == "kmeans"));
        assert!(cells[8..].iter().all(|c| c.workload == "ssca2"));
        // Then HTM, hint, seed, with the last axis varying fastest.
        assert_eq!(
            cells[..4]
                .iter()
                .map(|c| (c.htm, c.hint, c.seed))
                .collect::<Vec<_>>(),
            [
                (HtmKind::P8, HintMode::Off, 1),
                (HtmKind::P8, HintMode::Off, 2),
                (HtmKind::P8, HintMode::Full, 1),
                (HtmKind::P8, HintMode::Full, 2),
            ]
        );
        assert_eq!(spec.cells(), cells);
    }

    #[test]
    fn alloc_color_is_a_result_affecting_axis() {
        // Placement shifts addresses, so the cache must NOT share results
        // across strides: the key includes the axis.
        let cells = SweepSpec::new()
            .workload("kmeans")
            .alloc_colors([0, 64])
            .cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].alloc_color, 0);
        assert_eq!(cells[1].alloc_color, 64);
        assert_ne!(cells[0].key(), cells[1].key());
        // The packed default enumerates exactly the old single cell.
        assert_eq!(Cell::new("kmeans").key(), cells[0].key());
    }

    #[test]
    fn spec_dedups_the_cross_product() {
        let spec = SweepSpec::new()
            .workload("kmeans")
            .workload("kmeans")
            .htms([HtmKind::P8, HtmKind::P8]);
        assert_eq!(spec.cells(), vec![Cell::new("kmeans")]);
    }

    #[test]
    fn empty_spec_defaults_to_all_workloads_baseline() {
        let cells = SweepSpec::new().cells();
        assert_eq!(cells.len(), WORKLOAD_NAMES.len());
        assert!(cells
            .iter()
            .all(|c| c.htm == HtmKind::P8 && c.hint == HintMode::Off));
        assert!(cells.iter().all(|c| c.seed == 42));
    }
}
