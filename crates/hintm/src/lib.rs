//! # HinTM — Safety Hints for HTM Capacity Abort Mitigation
//!
//! A from-scratch reproduction of the HPCA 2023 paper: a software–hardware
//! co-design that passes per-access *safety hints* to a conventional
//! Hardware Transactional Memory so that provably race-free accesses skip
//! transactional tracking, expanding the HTM's effective capacity and
//! eliminating capacity aborts.
//!
//! The workspace layers (all re-exported here):
//!
//! * [`hintm_types`] — addresses, identifiers, the Table II machine config;
//! * [`hintm_mem`] — simulated address space + trace-emitting structures;
//! * [`hintm_cache`] — MESI L1/L2 hierarchy;
//! * [`hintm_htm`] — the four HTM models (P8 / P8S / L1TM / InfCap);
//! * [`hintm_vm`] — page-level dynamic classification (Fig. 2) + TLBs;
//! * [`hintm_ir`] — the static classification compiler pipeline (§IV-A);
//! * [`hintm_sim`] — the execution-driven multicore engine;
//! * [`hintm_workloads`] — STAMP + TPC-C workload suite.
//!
//! # Quickstart
//!
//! ```
//! use hintm::{Experiment, HintMode, HtmKind};
//!
//! // Baseline POWER8-style HTM vs. full HinTM on vacation.
//! let base = Experiment::new("vacation").htm(HtmKind::P8).run()?;
//! let hinted = Experiment::new("vacation")
//!     .htm(HtmKind::P8)
//!     .hint_mode(HintMode::Full)
//!     .run()?;
//! println!(
//!     "speedup {:.2}x, capacity aborts {} -> {}",
//!     hinted.speedup_vs(&base),
//!     base.stats.aborts_of(hintm::AbortKind::Capacity),
//!     hinted.stats.aborts_of(hintm::AbortKind::Capacity),
//! );
//! # Ok::<(), hintm::UnknownWorkload>(())
//! ```

pub mod cell;
pub mod cli;
pub mod json;

pub use cell::{cell_from_json, cell_to_json, Axis, Cell, SweepSpec, AXES};

pub use hintm_htm::{HtmConfig, HtmKind};
pub use hintm_sim::{
    AccessProgram, HintMode, Recording, RunStats, Section, SectionCompiler, SimConfig, Simulator,
    TraceEvent, TraceSink, TxBody, TxOp, Workload,
};
pub use hintm_trace::{chrome_trace, chrome_trace_to, write_binlog, write_binlog_to, TraceSummary};
pub use hintm_types::{AbortKind, AllocConfig, Cycles, MachineConfig, SmtMode};
pub use hintm_workloads::{all, by_name, by_name_with_threads, Scale, WORKLOAD_NAMES};
pub use json::{Json, JsonError};

use std::fmt;

/// Error: the requested workload name is not in the suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownWorkload(pub String);

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload `{}` (expected one of {:?})",
            self.0, WORKLOAD_NAMES
        )
    }
}

impl std::error::Error for UnknownWorkload {}

/// A configured experiment: one workload under one HTM/hint configuration.
///
/// Builder-style; see the crate-level example. The run configuration is a
/// [`Cell`]; an experiment adds the two HTM model-parameter overrides that
/// sweeps never vary.
#[derive(Clone, Debug)]
pub struct Experiment {
    cell: Cell,
    lrws_limits: Option<(usize, usize)>,
    max_stretches: Option<u32>,
}

impl Experiment {
    /// Creates an experiment for `workload` with the paper's defaults:
    /// P8 HTM, no hints, `Scale::Sim`, seed 42.
    pub fn new(workload: &str) -> Self {
        Cell::new(workload).experiment()
    }

    /// Selects the HTM configuration.
    pub fn htm(mut self, kind: HtmKind) -> Self {
        self.cell.htm = kind;
        self
    }

    /// Selects which HinTM mechanisms are active.
    pub fn hint_mode(mut self, mode: HintMode) -> Self {
        self.cell.hint = mode;
        self
    }

    /// Enables the §VI-B preserve optimization.
    pub fn preserve(mut self, on: bool) -> Self {
        self.cell.preserve = on;
        self
    }

    /// Selects the input scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.cell.scale = scale;
        self
    }

    /// Overrides the workload's thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cell.threads = Some(threads);
        self
    }

    /// Selects the heap-placement policy ([`AllocConfig`]) the workload's
    /// simulated allocator uses — the malloc-placement sensitivity axis.
    /// Placement changes the address stream and therefore the results.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.align` is the default 16: the color stride is
    /// the placement axis runs carry.
    pub fn alloc(mut self, cfg: AllocConfig) -> Self {
        assert_eq!(
            cfg.align,
            AllocConfig::default().align,
            "only the color stride of the placement policy is configurable"
        );
        self.cell.alloc_color = cfg.color_stride;
        self
    }

    /// Overrides the [`HtmKind::Lrws`] read/write-set limits (defaults
    /// 32/32). Only meaningful under the LRWS model; with both limits at
    /// the buffer capacity the model degenerates to exact P8 tracking.
    pub fn lrws_limits(mut self, read: usize, write: usize) -> Self {
        self.lrws_limits = Some((read, write));
        self
    }

    /// Overrides the [`HtmKind::PStretch`] per-transaction stretch budget
    /// (default 4). Only meaningful under the PStretch model.
    pub fn max_stretches(mut self, n: u32) -> Self {
        self.max_stretches = Some(n);
        self
    }

    /// Enables 2-way SMT (16 hardware threads on 8 cores, §VI-D2).
    pub fn smt2(mut self, on: bool) -> Self {
        self.cell.smt2 = on;
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cell.seed = seed;
        self
    }

    /// Records per-committed-transaction footprints (Fig. 6 CDFs).
    pub fn record_tx_sizes(mut self, on: bool) -> Self {
        self.cell.record_tx_sizes = on;
        self
    }

    /// Feeds every access to the sharing profiler (Fig. 1 metrics).
    pub fn profile_sharing(mut self, on: bool) -> Self {
        self.cell.profile_sharing = on;
        self
    }

    /// Builds the [`SimConfig`] this experiment will run with.
    pub fn sim_config(&self) -> SimConfig {
        let c = &self.cell;
        let mut cfg = SimConfig::with_htm(c.htm).hint_mode(c.hint);
        if c.smt2 {
            cfg = cfg.smt2();
        }
        cfg.preserve = c.preserve;
        cfg.record_tx_sizes = c.record_tx_sizes;
        cfg.profile_sharing = c.profile_sharing;
        if let Some((read, write)) = self.lrws_limits {
            cfg.htm.lrws_read_limit = read;
            cfg.htm.lrws_write_limit = write;
        }
        if let Some(n) = self.max_stretches {
            cfg.htm.max_stretches = n;
        }
        cfg
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run(&self) -> Result<RunReport, UnknownWorkload> {
        let mut w = self.workload()?;
        let sim = Simulator::new(self.sim_config());
        let stats = sim.run(w.as_mut(), self.cell.seed);
        Ok(self.report(stats))
    }

    /// Runs the experiment with a [`Recording`] sink attached, retaining
    /// the first `trace_cap` events verbatim and folding all of them into
    /// metrics and the stream digest. The report embeds the recording's
    /// [`TraceSummary`]; its [`RunStats`] are bit-identical to an untraced
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run_traced(&self, trace_cap: usize) -> Result<(RunReport, Recording), UnknownWorkload> {
        let mut w = self.workload()?;
        let sim = Simulator::new(self.sim_config());
        let mut rec = Recording::new(trace_cap);
        let stats = sim.run_with_sink(w.as_mut(), self.cell.seed, &mut rec);
        let mut report = self.report(stats);
        report.trace = Some(rec.summary());
        Ok((report, rec))
    }

    /// Runs the experiment delivering every engine event to `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run_with_sink(&self, sink: &mut dyn TraceSink) -> Result<RunReport, UnknownWorkload> {
        let mut w = self.workload()?;
        let sim = Simulator::new(self.sim_config());
        let stats = sim.run_with_sink(w.as_mut(), self.cell.seed, sink);
        Ok(self.report(stats))
    }

    /// Runs the experiment once per seed (run-to-run variance studies).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run_seeds(&self, seeds: &[u64]) -> Result<Vec<RunReport>, UnknownWorkload> {
        seeds
            .iter()
            .map(|&seed| {
                let mut e = self.clone();
                e.cell.seed = seed;
                e.run()
            })
            .collect()
    }

    fn workload(&self) -> Result<Box<dyn Workload>, UnknownWorkload> {
        let c = &self.cell;
        let mut w = match c.threads {
            Some(t) => by_name_with_threads(&c.workload, c.scale, t),
            None => by_name(&c.workload, c.scale),
        }
        .ok_or_else(|| UnknownWorkload(c.workload.clone()))?;
        w.set_alloc_config(AllocConfig {
            color_stride: c.alloc_color,
            ..AllocConfig::default()
        });
        Ok(w)
    }

    fn report(&self, stats: RunStats) -> RunReport {
        RunReport {
            workload: self.cell.workload.clone(),
            htm: self.cell.htm,
            hint_mode: self.cell.hint,
            stats,
            trace: None,
        }
    }
}

/// The result of one experiment run, with the paper's derived metrics.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// HTM configuration used.
    pub htm: HtmKind,
    /// Hint mode used.
    pub hint_mode: HintMode,
    /// Raw measured statistics.
    pub stats: RunStats,
    /// Trace metric summary, when the run was traced ([`Experiment::run_traced`]).
    pub trace: Option<TraceSummary>,
}

impl RunReport {
    /// Speedup relative to `baseline` (baseline cycles / this run's cycles).
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        self.stats.speedup_vs(&baseline.stats)
    }

    /// Relative reduction in capacity aborts vs `baseline` (1.0 = all gone).
    pub fn capacity_abort_reduction_vs(&self, baseline: &RunReport) -> f64 {
        self.stats
            .abort_reduction_vs(&baseline.stats, AbortKind::Capacity)
    }

    /// Relative reduction in false-conflict aborts vs `baseline`.
    pub fn false_conflict_reduction_vs(&self, baseline: &RunReport) -> f64 {
        self.stats
            .abort_reduction_vs(&baseline.stats, AbortKind::FalseConflict)
    }

    /// Fraction of this run's aggregate cycles spent on page-mode aborts.
    pub fn page_mode_fraction(&self) -> f64 {
        self.stats.page_mode_fraction()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} [{}]: {} cycles, {} commits ({} fallback), aborts {:?}",
            self.workload,
            self.htm,
            self.hint_mode,
            self.stats.total_cycles,
            self.stats.commits,
            self.stats.fallback_commits,
            self.stats.aborts,
        )
    }
}

/// Summary of a multi-seed sweep: min / geomean / max of a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Smallest observation.
    pub min: f64,
    /// Geometric mean.
    pub geomean: f64,
    /// Largest observation.
    pub max: f64,
}

impl Spread {
    /// Computes the spread of `metric` over `reports`; `None` when empty.
    pub fn of(reports: &[RunReport], metric: impl Fn(&RunReport) -> f64) -> Option<Spread> {
        if reports.is_empty() {
            return None;
        }
        let vals: Vec<f64> = reports.iter().map(metric).collect();
        Some(Spread {
            min: vals.iter().copied().fold(f64::INFINITY, f64::min),
            geomean: hintm_types::stats_util::geomean(&vals),
            max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Relative width of the spread: `(max - min) / geomean`.
    pub fn relative_width(&self) -> f64 {
        if self.geomean == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.geomean
        }
    }
}

/// The paper's Fig. 1 metric: the fraction of runtime attributable to
/// capacity aborts, derived as the gap between a baseline run and the same
/// workload on InfCap (see §V, "Fig. 1's fraction of runtime wasted on
/// capacity aborts is derived as a comparison between InfCap and P8").
pub fn capacity_runtime_fraction(baseline: &RunReport, infcap: &RunReport) -> f64 {
    let b = baseline.stats.total_cycles.raw() as f64;
    let i = infcap.stats.total_cycles.raw() as f64;
    if b <= 0.0 {
        0.0
    } else {
        ((b - i) / b).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_errors() {
        let err = Experiment::new("not-a-workload").run().unwrap_err();
        assert!(err.to_string().contains("not-a-workload"));
    }

    #[test]
    fn builder_produces_matching_config() {
        let e = Experiment::new("kmeans")
            .htm(HtmKind::L1Tm)
            .hint_mode(HintMode::Full)
            .smt2(true)
            .preserve(true)
            .record_tx_sizes(true)
            .profile_sharing(true);
        let cfg = e.sim_config();
        assert_eq!(cfg.htm.kind, HtmKind::L1Tm);
        assert_eq!(cfg.hint_mode, HintMode::Full);
        assert_eq!(cfg.machine.hw_threads(), 16);
        assert!(cfg.preserve && cfg.record_tx_sizes && cfg.profile_sharing);
    }

    #[test]
    fn kmeans_runs_end_to_end() {
        let r = Experiment::new("kmeans").run().expect("runs");
        assert!(r.stats.commits > 0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn capacity_runtime_fraction_is_gap() {
        let base = Experiment::new("labyrinth").threads(4).run().unwrap();
        let inf = Experiment::new("labyrinth")
            .threads(4)
            .htm(HtmKind::InfCap)
            .run()
            .unwrap();
        let frac = capacity_runtime_fraction(&base, &inf);
        assert!(
            frac > 0.3,
            "labyrinth wastes much of its runtime on capacity, got {frac:.2}"
        );
        assert!(frac < 1.0);
    }

    #[test]
    fn run_seeds_and_spread() {
        let reports = Experiment::new("ssca2").run_seeds(&[1, 2, 3]).unwrap();
        assert_eq!(reports.len(), 3);
        let spread = Spread::of(&reports, |r| r.stats.total_cycles.raw() as f64).expect("nonempty");
        assert!(spread.min <= spread.geomean && spread.geomean <= spread.max);
        assert!(spread.relative_width() >= 0.0);
        assert!(Spread::of(&[], |_| 0.0).is_none());
    }

    #[test]
    fn seeded_runs_reproduce() {
        let a = Experiment::new("ssca2").seed(7).run().unwrap();
        let b = Experiment::new("ssca2").seed(7).run().unwrap();
        assert_eq!(a.stats.total_cycles, b.stats.total_cycles);
    }
}
