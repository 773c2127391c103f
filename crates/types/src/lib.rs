//! Core vocabulary types shared by every crate in the HinTM reproduction.
//!
//! The HinTM system (HPCA 2023) is a software–hardware co-design that passes
//! per-access *safety hints* to a conventional Hardware Transactional Memory
//! (HTM) so that provably race-free accesses are not tracked, expanding the
//! HTM's effective transactional capacity. This crate defines the common
//! types that flow between the simulator layers: simulated addresses and
//! their cache-block / page views, thread and core identifiers, memory access
//! descriptors carrying safety hints, transaction abort kinds, and the
//! simulated machine configuration from the paper's Table II.
//!
//! # Examples
//!
//! ```
//! use hintm_types::{Addr, BLOCK_SIZE, PAGE_SIZE};
//!
//! let a = Addr::new(0x1_2345);
//! assert_eq!(a.block().index(), 0x1_2345 / BLOCK_SIZE as u64);
//! assert_eq!(a.page().index(), 0x1_2345 / PAGE_SIZE as u64);
//! ```

pub mod access;
pub mod addr;
pub mod blockdir;
pub mod config;
pub mod ids;
pub mod rng;
pub mod stats_util;

pub use access::{AccessKind, MemAccess, SafetyClass, SafetyHint};
pub use addr::{Addr, BlockAddr, PageId, BLOCK_SHIFT, BLOCK_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use blockdir::BlockDir;
pub use config::{AbortKind, AllocConfig, ConflictPolicy, MachineConfig, SmtMode};
pub use ids::{CoreId, Cycles, HwThreadId, SiteId, ThreadId, TxId};
