//! # hintm-runner — parallel sweep orchestration with an on-disk cache
//!
//! The reproduction's experiment space is a grid: `(workload, HTM kind,
//! hint mode, input scale, seed)`. Every figure harness and the CLI used
//! to walk their slice of that grid serially and from scratch. This crate
//! factors the walking out (std-only, no new dependencies):
//!
//! * [`SweepSpec`] / [`Cell`] — enumerate a sweep's cells (cross product,
//!   stable order, deduplicated); both live in the `hintm` crate beside
//!   the axis table and are re-exported here;
//! * [`Runner`] — a sharded executor on `std::thread` + channels with a
//!   configurable job count, per-cell `catch_unwind` panic isolation and
//!   wall-time accounting;
//! * [`Cache`] — a content-addressed result cache under `.hintm-cache/`:
//!   a stable hash of the full cell configuration plus a schema version
//!   addresses one JSON file per result, so re-running a sweep only
//!   simulates what changed and an interrupted sweep resumes for free;
//! * [`write_artifacts`] — sweep manifest + CSV/JSON result tables,
//!   bit-identical whatever the job count.
//!
//! The `hintm` binary (in the `hintm-serve` crate, which layers a
//! sweep-as-a-service daemon over this executor) fronts it with
//! `hintm sweep`, `hintm serve` and `hintm cache clear|stats`; the figure
//! harnesses in `hintm-bench` feed their cell grids through
//! [`Runner::from_env`], so `HINTM_JOBS=8` parallelizes figure
//! regeneration and a warm cache makes reruns instant.
//!
//! ```no_run
//! use hintm::{HintMode, HtmKind};
//! use hintm_runner::{Runner, SweepSpec};
//!
//! let cells = SweepSpec::new()
//!     .workloads(["vacation", "labyrinth"])
//!     .htm(HtmKind::P8)
//!     .hints([HintMode::Off, HintMode::Full])
//!     .seeds([1, 2, 3])
//!     .cells();
//! let result = Runner::new().jobs(8).progress(true).run(&cells);
//! for (cell, report) in result.reports() {
//!     println!("{} -> {} cycles", cell.label(), report.stats.total_cycles);
//! }
//! ```

mod artifacts;
mod cache;
mod exec;

pub use artifacts::{results_csv, results_json, write_artifacts, write_trace};
pub use cache::{Cache, CacheStats, WorkloadCacheStats, SCHEMA_VERSION};
pub use exec::{CellOutcome, CellResult, Runner, SweepResult};
pub use hintm::{cell_to_json, Cell, SweepSpec};
