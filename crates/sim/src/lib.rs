//! Execution-driven multicore HTM simulator for the HinTM reproduction.
//!
//! Ties the substrates together: workload threads produce *sections*
//! (replayable transaction bodies, non-transactional op runs, barriers);
//! the engine interleaves hardware threads by their local clocks, runs
//! every memory access through the VM (page-level dynamic classification,
//! Fig. 2 state machine, shootdown costs) and the coherent cache hierarchy
//! (Table II latencies), performs eager conflict detection against every
//! other hardware thread's transactional read/write sets, and drives the
//! HTM lifecycle — retries with backoff, capacity aborts that fall back to
//! the global lock, page-mode aborts, and SMT-shared-L1 pressure for the
//! L1TM configuration.
//!
//! # Examples
//!
//! ```
//! use hintm_sim::{Section, SimConfig, Simulator, TxBody, TxOp, Workload};
//! use hintm_types::{Addr, MemAccess, SiteId, ThreadId};
//!
//! /// Two threads, each committing one small transaction.
//! struct Tiny {
//!     remaining: Vec<u32>,
//! }
//!
//! impl Workload for Tiny {
//!     fn name(&self) -> &'static str { "tiny" }
//!     fn num_threads(&self) -> usize { 2 }
//!     fn reset(&mut self, _seed: u64) { self.remaining = vec![1, 1]; }
//!     fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
//!         if self.remaining[tid.index()] == 0 { return None; }
//!         self.remaining[tid.index()] -= 1;
//!         let addr = Addr::new(0x1000 + tid.index() as u64 * 0x1000);
//!         Some(Section::Tx(TxBody::new(vec![
//!             TxOp::Access(MemAccess::store(addr, SiteId(0))),
//!         ])))
//!     }
//! }
//!
//! let mut w = Tiny { remaining: vec![] };
//! let report = Simulator::new(SimConfig::default()).run(&mut w, 1);
//! assert_eq!(report.commits, 2);
//! assert_eq!(report.total_aborts(), 0);
//! ```

pub mod compile;
pub mod config;
pub mod engine;
pub mod section;
pub mod stats;

pub use compile::{AccessProgram, SectionCompiler};
pub use config::{HintMode, SimConfig};
pub use engine::Simulator;
pub use hintm_trace::{Recording, TraceEvent, TraceSink};
pub use section::{
    wrap_safe_in_escapes, DigestingWorkload, EscapeEncoded, Section, TxBody, TxOp, Workload,
};
pub use stats::RunStats;
