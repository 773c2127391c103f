//! Workspace-root crate for the HinTM reproduction.
//!
//! This crate exists to host the repository-level `examples/` and `tests/`
//! directories mandated by the project layout; the actual library surface
//! is the [`hintm`] crate (re-exported here for convenience). See the
//! workspace README for the full tour.
//!
//! # Examples
//!
//! ```
//! use hintm_repro::hintm::{Cell, HtmKind};
//! let report = Cell::new("kmeans").htm(HtmKind::P8).run()?;
//! assert!(report.stats.commits > 0);
//! # Ok::<(), hintm_repro::hintm::UnknownWorkload>(())
//! ```

pub use hintm;
pub use hintm_cache;
pub use hintm_htm;
pub use hintm_ir;
pub use hintm_mem;
pub use hintm_sim;
pub use hintm_types;
pub use hintm_vm;
pub use hintm_workloads;
