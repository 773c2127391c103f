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
//! use hintm::{Cell, HintMode, HtmKind};
//!
//! // Baseline POWER8-style HTM vs. full HinTM on vacation.
//! let base = Cell::new("vacation").htm(HtmKind::P8).run()?;
//! let hinted = Cell::new("vacation")
//!     .htm(HtmKind::P8)
//!     .hint(HintMode::Full)
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
pub mod figures;
pub mod json;

pub use cell::{cell_from_json, cell_to_json, Axis, Cell, SweepSpec, AXES};
pub use figures::{Figure, FIGURES};

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
    /// Trace metric summary, when the run was traced ([`Cell::run_traced`]).
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
    pub(crate) fn false_conflict_reduction_vs(&self, baseline: &RunReport) -> f64 {
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

/// The paper's Fig. 1 metric: the fraction of runtime attributable to
/// capacity aborts, derived as the gap between a baseline run and the same
/// workload on InfCap (see §V, "Fig. 1's fraction of runtime wasted on
/// capacity aborts is derived as a comparison between InfCap and P8").
pub(crate) fn capacity_runtime_fraction(baseline: &RunReport, infcap: &RunReport) -> f64 {
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
        let err = Cell::new("not-a-workload").run().unwrap_err();
        assert!(err.to_string().contains("not-a-workload"));
    }

    #[test]
    fn builder_produces_matching_config() {
        let cfg = Cell::new("kmeans")
            .htm(HtmKind::L1Tm)
            .hint(HintMode::Full)
            .smt2(true)
            .preserve(true)
            .record_tx_sizes(true)
            .profile_sharing(true)
            .sim_config();
        assert_eq!(cfg.htm.kind, HtmKind::L1Tm);
        assert_eq!(cfg.hint_mode, HintMode::Full);
        assert_eq!(cfg.machine.hw_threads(), 16);
        assert!(cfg.preserve && cfg.record_tx_sizes && cfg.profile_sharing);
        assert!(!Cell::new("kmeans").sim_config().preserve);

        // The color stride is not a SimConfig field: it must reach the
        // workload's allocator. genome's P8 capacity aborts move with it
        // (the counts tests/analyze_soundness.rs pins).
        let capacity = |stride| {
            Cell::new("genome")
                .alloc_color(stride)
                .run()
                .unwrap()
                .stats
                .aborts_of(AbortKind::Capacity)
        };
        assert_eq!((capacity(0), capacity(64)), (172, 181));
    }

    #[test]
    fn kmeans_runs_end_to_end() {
        let r = Cell::new("kmeans").run().expect("runs");
        assert!(r.stats.commits > 0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn capacity_runtime_fraction_is_gap() {
        let base = Cell::new("labyrinth").threads(4).run().unwrap();
        let inf = Cell::new("labyrinth")
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
    fn seeded_runs_reproduce() {
        let a = Cell::new("ssca2").seed(7).run().unwrap();
        let b = Cell::new("ssca2").seed(7).run().unwrap();
        assert_eq!(a.stats.total_cycles, b.stats.total_cycles);
    }
}
