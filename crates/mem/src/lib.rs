//! Simulated memory for the HinTM reproduction.
//!
//! The paper's workloads are C programs whose transactional behaviour is
//! driven by the addresses their data structures occupy. This crate provides
//! the equivalent substrate for our execution-driven simulator:
//!
//! * [`AddressSpace`] — a simulated virtual address space with a global
//!   segment, per-thread stacks, and a heap with *thread-affine arenas*
//!   (mirroring per-thread malloc arenas, which is what makes heap pages
//!   predominantly thread-private in real programs — the property HinTM's
//!   dynamic classifier exploits).
//! * [`AccessSink`] — the trait through which data structures report the
//!   loads and stores their operations perform.
//! * [`ds`] — a library of data structures (arrays, hash tables, treaps,
//!   grids) that live at simulated addresses and emit genuine
//!   pointer-chasing access traces, so transactional read/write footprints
//!   have the same shape as the original STAMP kernels.
//!
//! # Examples
//!
//! ```
//! use hintm_mem::{AddressSpace, AccessSink, VecSink};
//! use hintm_types::{SiteId, ThreadId};
//!
//! let mut space = AddressSpace::new(8);
//! let a = space.halloc(ThreadId(0), 128);
//! let b = space.halloc(ThreadId(1), 128);
//! // Different threads' arenas never share a page.
//! assert_ne!(a.page(), b.page());
//!
//! let mut sink = VecSink::new();
//! sink.load(a, SiteId(0));
//! assert_eq!(sink.accesses.len(), 1);
//! ```

pub mod ds;
pub mod recorder;
pub mod sink;
pub mod space;

pub use recorder::{AccessRecorder, AddrHistory, EpochSharing};
pub use sink::{AccessSink, CountingSink, NullSink, VecSink};
pub use space::{AddressSpace, AllocStats, SegmentKind, HEAP_ARENA_SIZE};

pub use hintm_types::AllocConfig;
